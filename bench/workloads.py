"""The three benchmark workloads.

Each workload builds its inputs from the seed (``build``), then runs one
pass (``iteration``) that returns its measurements and raises
``CheckFailed`` when an output is wrong. Timings cover the program's work
only; the checks run after the timed region, untraced.

c5_oracle      ROADMAP's C5 acceptance configuration with the oracle
               scorer. Training is ~97% of wall time, so nncore and encoder
               changes show here; scoring, retrieval and cache changes
               should not.
cli_pipeline   `gicl` commands called in-process on a 4000-node graph with a
               disk cache. Bundle loading, aggregator builds, cache appends
               and loads, per-query retrieval and prompt rendering dominate;
               training is a minority.
http_feedback  A cold and a warm feedback round, a short train() and
               inference against an HTTP stub in its own process, with
               injected faults. The HTTP client, ranking, rendering and the
               cache do nearly all the work; nncore does little.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import requests

from gicl import cli, encoder, graphstore, pipeline, scoring, training
from gicl.prompts import DEFAULT_TEMPLATE

BENCH_DIR = Path(__file__).resolve().parent
NPROC = len(os.sched_getaffinity(0))


class CheckFailed(Exception):
    """A workload produced a wrong output."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def timed(fn):
    started = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - started


def oracle_topk_utility(graph, query_ids, labeled_ids, vectors, k: int,
                        alpha: float = scoring.ScorerSpec.oracle_alpha) -> float:
    """Mean oracle utility of each query's top-k retrieved labeled nodes.

    An independent numpy reference of retrieval (cosine, ties by id, query
    excluded) and of the oracle's closed form: for C classes and help h,
    utility = 1 / (1 + (C - 1) exp(-alpha h)).
    """

    def unit(x):
        x = np.asarray(x, dtype=np.float64)
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        return x / np.where(norms > 0, norms, 1.0)

    feats, vecs = unit(graph.features), unit(vectors)
    labels = graph.labels
    pool = np.unique(np.asarray(labeled_ids, dtype=np.int64))
    values = []
    for q in np.asarray(query_ids, dtype=np.int64):
        cand = pool[pool != q]
        order = np.lexsort((cand, -(vecs[cand] @ vecs[q])))[:k]
        top = cand[order]
        help_ = np.where(labels[top] == labels[q], np.maximum(0.0, feats[top] @ feats[q]), 0.0)
        values.extend(1.0 / (1.0 + (graph.n_classes - 1) * np.exp(-alpha * help_)))
    return float(np.mean(values))


def accuracy(graph, rows, test_ids) -> float:
    """Share of rows whose parsed prediction is the gold label; one row per test node."""
    check(sorted(r.query_id for r in rows) == sorted(int(q) for q in test_ids),
          f"{rows[0].strategy if rows else '?'}: rows do not cover the test nodes one each")
    for r in rows:
        check(r.gold == int(graph.labels[r.query_id]), f"row {r.query_id}: wrong gold label")
    return sum(1 for r in rows if r.parsed and r.predicted == r.gold) / len(rows)


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.quiet = contextlib.nullcontext  # replaced by the tracer's suspend

    def build(self) -> None:
        raise NotImplementedError

    def iteration(self) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        pass


def c5_graph(seed: int):
    graph = graphstore.synth_sbm(n_nodes=1000, n_classes=5, p_in=0.05, p_out=0.005,
                                 d=16, noise=0.6, seed=seed)
    return graph, graphstore.sample_label_fraction(graph, 0.10, seed=seed)


class C5Oracle(Workload):
    """train() at stock TrainConfig, then askgnn, few_knn and mv_askgnn."""

    name = "c5_oracle"

    def build(self) -> None:
        self.graph, self.split = c5_graph(self.seed)

    def iteration(self) -> dict:
        graph, split, seed = self.graph, self.split, self.seed
        config = training.TrainConfig(seed=seed)  # stock: hidden 256, 3 layers, K 20, 200 epochs
        spec = scoring.ScorerSpec(kind="oracle")
        strategies = ("askgnn", "few_knn", "mv_askgnn")

        t0 = time.perf_counter()
        model, train_s = timed(lambda: training.train(graph, split, spec, DEFAULT_TEMPLATE,
                                                      config))
        rows = {s: pipeline.run_strategy(s, graph, split, spec, DEFAULT_TEMPLATE, model=model,
                                         k_icl=config.k_icl, seed=seed, single_thread=True)
                for s in strategies}
        wall = time.perf_counter() - t0

        acc = {s: accuracy(graph, rows[s], split.test_ids) for s in strategies}
        with self.quiet():
            enc = config.encoder_config(graph)
            init_vectors = encoder.encode_all(graph, encoder.init_params(enc, seed), enc).vectors
        queries, k = split.query_train_ids, config.k_feedback
        u_init = oracle_topk_utility(graph, queries, split.labeled_ids, init_vectors, k)
        u_final = oracle_topk_utility(graph, queries, split.labeled_ids,
                                      model.embeddings.vectors, k)
        # C5b (askgnn >= few_knn) is a median over seeds in the acceptance suite;
        # per seed askgnn can trail by two of 200 queries (seeds 3 and 11), so a
        # single-seed run prints both accuracies instead of checking them.
        check(acc["mv_askgnn"] <= acc["askgnn"],
              f"C6: mv_askgnn {acc['mv_askgnn']} above askgnn {acc['askgnn']}")
        check(u_final >= u_init, f"C5a': trained utility {u_final} below initial {u_init}")
        return {
            "wall_s": wall,
            "train_s": train_s,
            "retrieved_utility": u_final,
            "accuracy_askgnn": acc["askgnn"],
            "operations": 1 + sum(len(r) for r in rows.values()),
            "outputs": {"accuracy": acc, "utility_init": u_init, "utility_trained": u_final},
        }


class CliPipeline(Workload):
    """synth -> prepare -> train (cold cache) -> train (warm, same cache) ->
    infer askgnn -> baseline few_knn, mv_askgnn, npl; all --single-thread."""

    name = "cli_pipeline"
    INFER_STEPS = ("infer", "few_knn", "mv_askgnn", "npl")

    def build(self) -> None:
        self.work = self.root / ".bench_work" / f"{self.name}-{os.getpid()}"
        self.work.mkdir(parents=True)

    def close(self) -> None:
        if getattr(self, "work", None) is not None:
            shutil.rmtree(self.work, ignore_errors=True)
            self.work = None

    def iteration(self) -> dict:
        d = self.work
        bundle, reports, cache = d / "bundle", d / "reports", d / "cache.jsonl"
        common = ["--bundle", str(bundle), "--scorer-kind", "oracle", "--fraction", "0.1",
                  "--seed", str(self.seed), "--single-thread"]
        train = ["train", *common, "--cache", str(cache), "--hidden-dim", "64",
                 "--epochs", "20", "--out"]
        steps = {
            "synth": ["synth", "--n", "4000", "--classes", "5", "--pin", "0.01",
                      "--pout", "0.001", "--dim", "16", "--noise", "0.6",
                      "--seed", str(self.seed), "--out", str(bundle)],
            "prepare": ["prepare", str(bundle)],
            "train_cold": [*train, str(d / "model-cold")],
            "train_warm": [*train, str(d / "model")],
            "infer": ["infer", *common, "--model", str(d / "model"), "--out", str(reports)],
            "few_knn": ["baseline", *common, "--strategy", "few_knn", "--out", str(reports)],
            "mv_askgnn": ["baseline", *common, "--strategy", "mv_askgnn",
                          "--model", str(d / "model"), "--out", str(reports)],
            "npl": ["baseline", *common, "--strategy", "npl", "--out", str(reports)],
        }
        seconds, codes, cache_lines = {}, {}, {}
        for step, argv in steps.items():
            with contextlib.redirect_stdout(io.StringIO()):
                codes[step], seconds[step] = timed(lambda: cli.main(argv))
            if step.startswith("train"):
                cache_lines[step] = _count_lines(cache)
        wall = sum(seconds.values())

        failed = [s for s, c in codes.items() if c != 0]
        check(not failed, f"commands returned non-zero: {failed}")
        with self.quiet():
            graph = graphstore.load_bundle(bundle)
            split = graphstore.sample_label_fraction(graph, 0.1, seed=self.seed)
            reports_rows = {s: pipeline.read_report(next(reports.glob(f"report-{s}-*.csv")))
                            for s in ("askgnn", "few_knn", "mv_askgnn", "npl")}
        pairs = len(split.query_train_ids) * 20  # k_feedback
        check(cache_lines["train_cold"] == pairs * graph.n_classes,
              f"cold train wrote {cache_lines['train_cold']} cache lines for {pairs} pairs")
        check(cache_lines["train_warm"] == cache_lines["train_cold"],
              f"warm train made {cache_lines['train_warm'] - cache_lines['train_cold']} "
              f"oracle calls")
        vectors = _read_matrix(d / "model" / "embeddings")
        check(np.array_equal(vectors, _read_matrix(d / "model-cold" / "embeddings")),
              "cold and warm train produced different embeddings")
        acc = {s: accuracy(graph, rows, split.test_ids) for s, rows in reports_rows.items()}
        u_final = oracle_topk_utility(graph, split.query_train_ids, split.labeled_ids,
                                      vectors, 20)
        n_queries = sum(len(rows) for rows in reports_rows.values())
        return {
            "wall_s": wall,
            "train_s": seconds["train_cold"],
            "infer_queries_per_s": n_queries / sum(seconds[s] for s in self.INFER_STEPS),
            "retrieved_utility": u_final,
            "accuracy_askgnn": acc["askgnn"],
            "operations": len(steps),
            "outputs": {"accuracy": acc, "utility_trained": u_final},
        }


def _count_lines(path: Path) -> int:
    if not path.is_file():
        return 0
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _read_matrix(prefix: Path) -> np.ndarray:
    header = json.loads(prefix.with_suffix(".json").read_text())
    raw = np.fromfile(prefix.with_suffix(".bin"), dtype="<f4")
    return raw.reshape(header["rows"], header["cols"])


class HttpFeedback(Workload):
    """Cold round (80 queries x 20 candidates x 5 classes = 8000 requests),
    warm round, a 20-epoch train() on the warm cache, then askgnn and
    few_knn inference (30-example prompts), against bench/stub.py."""

    name = "http_feedback"
    RETRIES = 2

    def build(self) -> None:
        self.stub = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py"), "--seed", str(self.seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        port = json.loads(self.stub.stdout.readline())["port"]
        self.endpoint = f"http://127.0.0.1:{port}"
        self.graph, self.split = c5_graph(self.seed)

    def close(self) -> None:
        stub = getattr(self, "stub", None)
        if stub is None:
            return
        stub.stdin.close()  # the stub exits when its stdin closes
        try:
            stub.wait(timeout=10)
        except subprocess.TimeoutExpired:
            stub.kill()
            stub.wait()
        stub.stdout.close()
        self.stub = None

    def iteration(self) -> dict:
        graph, split, seed = self.graph, self.split, self.seed
        spec = scoring.ScorerSpec(kind="http", endpoint=self.endpoint, model="bench-stub",
                                  max_parallel=NPROC, retries=self.RETRIES, backoff=0.002)
        config = training.TrainConfig(seed=seed, hidden_dim=64, epochs=20)

        def round_():
            return training.collect_feedback_round(graph, split, params0, config, spec,
                                                   DEFAULT_TEMPLATE, cache, client=client)

        t0 = time.perf_counter()
        client = scoring.make_client(spec)
        cache = scoring.FeedbackCache()
        params0 = encoder.init_params(config.encoder_config(graph), config.seed)
        cold, cold_s = timed(round_)
        cold_attempts = client.attempts
        warm = round_()
        warm_attempts = client.attempts - cold_attempts
        # The client threads' interleaving makes the cyclic collector's phase
        # before train() vary, and with it how many epochs' tapes (reference
        # cycles) pile up before a collection: peak RSS varied 140-224 MB.
        # Collecting first fixes that phase; train() itself is deterministic.
        gc.collect()
        model, train_s = timed(lambda: training.train(graph, split, spec, DEFAULT_TEMPLATE,
                                                      config, cache=cache, client=client))
        rows, infer_s = timed(lambda: {
            s: pipeline.run_strategy(s, graph, split, spec, DEFAULT_TEMPLATE, model=model,
                                     k_icl=config.k_icl, seed=seed, client=client)
            for s in ("askgnn", "few_knn")})
        wall = time.perf_counter() - t0
        stats = requests.get(self.endpoint + "/_stats", timeout=30).json()

        check(stats["requests"] == client.attempts,
              f"stub saw {stats['requests']} requests, client counted {client.attempts} attempts")
        cue = DEFAULT_TEMPLATE.answer_cue
        permanent = stats["permanent_prompts"]
        perm_completions = [p for p in permanent if p.endswith(cue)]
        perm_scoring = [p for p in permanent if not p.endswith(cue)]
        check(warm_attempts == (self.RETRIES + 1) * len(perm_scoring),
              f"warm round made {warm_attempts} requests; only the "
              f"{len(perm_scoring)} permanently failing keys should be re-sent")
        check(_feedback_view(warm) == _feedback_view(cold),
              "C7: warm round feedback differs from the cold round")
        faulty = {_pair_ids(p) for p in perm_scoring}
        scored = {(q, e) for q, r in cold.by_query.items() for e in r.example_ids}
        check(not faulty & scored, "a permanently failing pair was scored")
        check(cold.n_unscored == len(faulty),
              f"{cold.n_unscored} unscored pairs, {len(faulty)} injected permanent faults")
        failed_rows = 0
        acc = {}
        for strategy, strategy_rows in rows.items():
            acc[strategy] = accuracy(graph, strategy_rows, split.test_ids)
            for r in strategy_rows:
                if r.note.startswith("transport failure"):
                    failed_rows += 1
                else:
                    check(r.parsed, f"{strategy} row {r.query_id} unparsed without a fault")
        check(len(perm_completions) <= failed_rows <= 2 * len(perm_completions),
              f"{failed_rows} inference rows failed for {len(perm_completions)} faulty prompts")
        u_final = oracle_topk_utility(graph, split.query_train_ids, split.labeled_ids,
                                      model.embeddings.vectors, config.k_feedback)
        n_queries = sum(len(r) for r in rows.values())
        succeeded = len(cache) + n_queries - failed_rows
        return {
            "wall_s": wall,
            "train_s": train_s,
            "infer_queries_per_s": n_queries / infer_s,
            "feedback_pairs_per_s": (cold.n_scored + cold.n_unscored) / cold_s,
            "failed_share": (client.calls - succeeded) / client.calls,
            "retrieved_utility": u_final,
            "accuracy_askgnn": acc["askgnn"],
            "operations": 2 * len(split.query_train_ids) + n_queries,
            "outputs": {"accuracy": acc, "utility_trained": u_final, "scored": cold.n_scored,
                        "unscored": cold.n_unscored, "attempts": client.attempts},
        }


def _feedback_view(feedback) -> dict:
    return {q: (r.example_ids, r.utilities) for q, r in feedback.by_query.items()}


def _pair_ids(prompt: str) -> tuple[int, int]:
    """(query, example) node ids of a one-example scoring prompt.

    The synthetic texts read "Document <id>. ..."; the default template
    places the query before the example.
    """
    q, e = (int(m) for m in re.findall(r"Document (\d+)\.", prompt)[:2])
    return q, e


WORKLOADS = {w.name: w for w in (C5Oracle, CliPipeline, HttpFeedback)}
