"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line. The
synthetic end-to-end experiment (criteria 5 and 6) trains five seeds once
in a shared fixture and is budgeted at five minutes with no network use.
"""

import json
import math
import socket
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import finite_difference_grads, gradcheck_errors
from stubserver import StubScorerServer, fake_logprob, tokenize

from gicl.cli import main as cli_main
from gicl.encoder import encode_all, init_params, propagate
from gicl.graphstore import TagGraph, _build_csr, sample_label_fraction, synth_sbm
from gicl.nncore import Tape, Tensor2, backward
from gicl.pipeline import evaluate_accuracy, run_strategy
from gicl.prompts import DEFAULT_TEMPLATE
from gicl.retrieval import build_index, retrieve_topk
from gicl.scoring import (
    FeedbackCache,
    HttpClient,
    ScorerSpec,
    make_client,
    ppl,
    rank_candidates,
    synthetic_oracle_ppl,
    token_logprobs,
    utility,
)
from gicl.training import (
    TrainConfig,
    collect_feedback_round,
    combined_loss,
    epoch_loss,
    feedback_lists,
    feedback_loss,
    train,
)

ORACLE = ScorerSpec(kind="oracle")


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


# -------------------------------------------------------------------- 1


def test_c1_gradient_correctness_of_combined_loss():
    started = time.perf_counter()
    rng = np.random.default_rng(208)
    n, d, hidden, n_classes = 12, 5, 8, 3
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < 0.35
    offsets, targets = _build_csr(n, np.stack([iu[keep], ju[keep]], 1), symmetrize=True)
    labels = np.array([i % n_classes for i in range(n)], dtype=np.int64)
    graph = TagGraph(
        n_nodes=n, csr_offsets=offsets, csr_targets=targets,
        features=rng.standard_normal((n, d)).astype(np.float32),
        texts=tuple(f"doc {i}" for i in range(n)), labels=labels,
        label_vocab=tuple(f"topic-{c}" for c in range(n_classes)),
    )
    split = sample_label_fraction(graph, 1.0, seed=0, test_ids=np.array([], dtype=np.int64))
    config = TrainConfig(beta=0.5, k_feedback=3, epochs=1, hidden_dim=hidden, n_layers=2, seed=0)
    enc = config.encoder_config(graph)
    params = init_params(enc, seed=3, dtype=np.float64)
    feedback = collect_feedback_round(
        graph, split, params, config, ORACLE, DEFAULT_TEMPLATE, FeedbackCache()
    )
    # the loss train() builds each epoch, from the labeled nodes' propagated rows, in eval mode
    inputs = Tensor2(propagate(graph, config.n_layers)[split.labeled_ids])
    labels = graph.labels[split.labeled_ids]
    lists = feedback_lists(feedback, split.labeled_ids)

    def build_loss(tape: Tape):
        return epoch_loss(tape, inputs, labels, lists, params, enc, config, training=False)[0]

    tape = Tape()
    analytic = backward(tape, build_loss(tape), params)
    numeric = finite_difference_grads(lambda: build_loss(Tape()).item(), params, step=1e-4)
    err = gradcheck_errors(analytic, numeric)
    elapsed = time.perf_counter() - started
    n_entries = sum(p.data.size for p in params.tensors.values())
    check(
        "C1 gradient-correctness",
        err <= 1e-4 and elapsed < 10.0,
        f"max rel err {err:.2e} over {n_entries} entries in {elapsed:.1f}s (limits 1e-4, 10s)",
    )


# -------------------------------------------------------------------- 2


def test_c2_closed_form_unit_values():
    failures = []

    got = ppl([-math.log(2), -math.log(8)])
    if abs(got - 4.0) > 1e-12:
        failures.append(f"ppl={got!r} != 4")

    got = utility([2.0, 4.0], 0)
    if abs(got - 2.0 / 3.0) > 1e-12:
        failures.append(f"utility(2,4)={got!r} != 2/3")

    for c in (2, 5, 40):
        got = utility([7.0] * c, 1)
        if abs(got - 1.0 / c) > 1e-12:
            failures.append(f"uniform utility C={c}: {got!r}")

    from gicl.scoring import RankedSet
    from gicl.training import FeedbackSet

    emb = Tensor2(np.array([[1.0, 0.0], [0.0, 1.0]]))
    singleton = FeedbackSet(
        by_query={0: RankedSet(query_id=0, example_ids=(1,), utilities=(0.9,))},
        n_scored=1, n_unscored=0,
    )
    cfg = TrainConfig(k_feedback=3, epochs=1, hidden_dim=4, n_layers=1)
    got = feedback_loss(Tape(), emb, feedback_lists(singleton, np.arange(2)), cfg.tau).item()
    if got != 0.0:
        failures.append(f"singleton feedback loss {got!r} != 0")

    for beta, expect in ((1.0, 2.5), (0.0, 4.25)):
        tape = Tape()
        lf = Tensor2(np.array([[2.5]]))
        lc = Tensor2(np.array([[4.25]]))
        got = combined_loss(tape, lf, lc, beta).item()
        if got != expect:
            failures.append(f"combined beta={beta}: {got!r} != {expect}")

    check("C2 closed-form-values", not failures, "; ".join(failures) or "all five identities hold at 1e-12")


# -------------------------------------------------------------------- 3


def test_c3_retrieval_matches_sort_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    mismatches = 0
    for _ in range(200):
        vecs = rng.standard_normal((50, 8))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        q = rng.standard_normal(8)
        got = retrieve_topk(build_index(vecs, range(50)), q, 7)
        qu = q / np.linalg.norm(q)
        ranked = sorted(
            ((i, float(vecs[i] @ qu)) for i in range(50)), key=lambda t: (-t[1], t[0])
        )[:7]
        if got != [i for i, _ in ranked]:
            mismatches += 1
    elapsed = time.perf_counter() - started
    check(
        "C3 retrieval-oracle-equivalence",
        mismatches == 0 and elapsed < 5.0,
        f"{mismatches}/200 mismatches in {elapsed:.2f}s (limit 5s)",
    )


# -------------------------------------------------------------------- 4


def test_c4_utility_distribution_normalization():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        c = int(rng.integers(2, 12))
        ppls = rng.uniform(0.05, 100.0, size=c)
        total = sum(utility(ppls, g) for g in range(c))
        worst = max(worst, abs(total - 1.0))
    check("C4 utility-normalization", worst <= 1e-9, f"max |sum-1| = {worst:.2e} over 1000 vectors")


# -------------------------------------------------------------------- 5 & 6


def oracle_utility(graph: TagGraph, unit_features: np.ndarray, q: int, e: int) -> float:
    """Utility of one candidate, recomputed through the public closed form."""
    ppls = [
        synthetic_oracle_ppl(
            unit_features[q], int(graph.labels[q]), unit_features[e], int(graph.labels[e]), c
        )
        for c in range(graph.n_classes)
    ]
    return utility(ppls, int(graph.labels[q]))


def mean_topk_utility(graph, split, vectors, k, unit_features) -> float:
    index = build_index(vectors, split.labeled_ids)
    values = []
    for q in split.query_train_ids:
        q = int(q)
        for e in retrieve_topk(index, vectors[q], k, query_id=q):
            values.append(oracle_utility(graph, unit_features, q, e))
    return float(np.mean(values))


def best_possible_topk_utility(graph, split, k, unit_features) -> float:
    values = []
    for q in split.query_train_ids:
        q = int(q)
        us = sorted(
            (oracle_utility(graph, unit_features, q, int(e)) for e in split.labeled_ids if int(e) != q),
            reverse=True,
        )[:k]
        values.extend(us)
    return float(np.mean(values))


def held_out_ratios(graph, split, retrievers, k, unit_features) -> dict[str, float]:
    """Held-out ``u / u_best`` of each retriever, a name mapped to the vectors
    it retrieves by: the mean oracle utility of each test node's k nearest
    labeled nodes by cosine, over the mean utility of its k best labeled
    nodes. 1.0 is optimal, at any embedding width."""
    labeled = split.labeled_ids
    indexes = {name: build_index(vectors, labeled) for name, vectors in retrievers.items()}
    got, best = {name: [] for name in retrievers}, []
    for q in split.test_ids.tolist():
        gold = int(graph.labels[q])
        ppls = [[synthetic_oracle_ppl(unit_features[q], gold, unit_features[e], int(graph.labels[e]), c)
                 for c in range(graph.n_classes)] for e in labeled.tolist()]
        utilities = utility(ppls, gold)
        best.extend(np.sort(utilities)[-k:])
        for name, index in indexes.items():
            hits = retrieve_topk(index, retrievers[name][q], k)
            got[name].extend(utilities[np.searchsorted(labeled, hits)])
    return {name: float(np.mean(values) / np.mean(best)) for name, values in got.items()}


@contextmanager
def network_barred():
    """Every socket connect raises, whichever transport opens the socket."""

    def refuse_network(sock, *args, **kwargs):
        # create_connection closes its socket only on OSError, so close it here
        sock.close()
        raise AssertionError("network call attempted during an oracle-only run")

    original_connect = socket.socket.connect
    socket.socket.connect = refuse_network
    try:
        yield
    finally:
        socket.socket.connect = original_connect


# C5c: with few examples, the trained retriever must beat raw-feature k-NN,
# which must beat random examples (at k_icl = 30 all three are near 1.0)
C5C_K_ICL = (1, 3)
C5C_ORDER = ("askgnn", "few_knn", "few_rand")


@pytest.fixture(scope="module")
def synthetic_runs():
    """Five seeded end-to-end runs at stock defaults, with the network barred."""
    started = time.perf_counter()
    runs = []
    with network_barred():
        for seed in (1, 2, 3, 4, 5):
            graph = synth_sbm(n_nodes=1000, n_classes=5, p_in=0.05, p_out=0.005,
                              d=16, noise=0.6, seed=seed)
            split = sample_label_fraction(graph, 0.10, seed=seed)
            config = TrainConfig(seed=seed)  # stock defaults: beta .2, K 20, 200 epochs, 1 round
            feats = graph.features.astype(np.float64)
            unit = feats / np.linalg.norm(feats, axis=1, keepdims=True)
            enc = config.encoder_config(graph)
            init_vectors = encode_all(graph, init_params(enc, config.seed), enc).vectors
            u_init = mean_topk_utility(graph, split, init_vectors, config.k_feedback, unit)
            model = train(graph, split, ORACLE, DEFAULT_TEMPLATE, config)
            u_final = mean_topk_utility(graph, split, model.embeddings.vectors,
                                        config.k_feedback, unit)
            u_best = best_possible_topk_utility(graph, split, config.k_feedback, unit)
            held_out = held_out_ratios(graph, split, {"askgnn": model.embeddings.vectors,
                                                      "few_knn": graph.features},
                                       config.k_feedback, unit)
            accs = {}
            for strategy in ("askgnn", "few_knn", "mv_askgnn"):
                rows = run_strategy(strategy, graph, split, ORACLE, DEFAULT_TEMPLATE,
                                    model=model, k_icl=config.k_icl, seed=seed,
                                    single_thread=True)
                accs[strategy] = evaluate_accuracy(rows)["accuracy"]
            for k in C5C_K_ICL:
                for strategy in C5C_ORDER:
                    rows = run_strategy(strategy, graph, split, ORACLE, DEFAULT_TEMPLATE,
                                        model=model, k_icl=k, seed=seed, single_thread=True)
                    accs[f"{strategy}@{k}"] = evaluate_accuracy(rows)["accuracy"]
            runs.append({"seed": seed, "u_init": u_init, "u_final": u_final,
                         "u_best": u_best, "held_out": held_out, **accs})
    return {"runs": runs, "elapsed": time.perf_counter() - started}


def test_c5_network_bar_stops_the_http_client():
    # the bar that C5's isolation rests on must stop the scorer's own transport
    client = HttpClient(ScorerSpec(kind="http", endpoint="http://127.0.0.1:9", retries=0))
    with network_barred(), pytest.raises(AssertionError, match="network call attempted"):
        client.token_logprobs("p:", " c")
    assert client.attempts == 1


def test_c5_runtime_and_isolation(synthetic_runs):
    elapsed = synthetic_runs["elapsed"]
    check(
        "C5 runtime-and-isolation",
        elapsed < 300.0,
        f"five seeded runs in {elapsed:.0f}s with network calls barred (limit 300s)",
    )


C5A_MIN_HEADROOM_SHARE = 0.5


def check_headroom_share(runs) -> None:
    """C5a: training closes at least half of the reachable headroom.

    Every retriever returns K distinct labeled nodes other than the query,
    so its mean oracle utility is at most that of the K best such nodes,
    ``u_best``. The gain ``u_final - u_init`` is therefore bounded by the
    headroom ``u_best - u_init``, and an absolute margin means nothing
    without it. The share ``gain / headroom`` is 0 for an untrained
    retriever and 1 at the optimum, whatever the scale of the oracle's
    utilities. The bound 0.5 asks that the median seed end nearer the
    optimum than where it started: training closes at least half the gap.
    A seed with no positive headroom leaves nothing to learn and fails.
    """
    gains = [r["u_final"] - r["u_init"] for r in runs]
    headrooms = [r["u_best"] - r["u_init"] for r in runs]
    amounts = (
        f"per-seed gains {[f'{g:+.4f}' for g in gains]}; "
        f"headrooms {[f'{h:+.4f}' for h in headrooms]}"
    )
    criterion = f"C5a headroom-share >= {C5A_MIN_HEADROOM_SHARE}"
    empty = [r["seed"] for r, h in zip(runs, headrooms) if not h > 0.0]
    if empty:
        check(criterion, False,
              f"the fixture leaves nothing to learn: no positive headroom on seeds {empty}; {amounts}")
    shares = [g / h for g, h in zip(gains, headrooms)]
    median_share = float(np.median(shares))
    check(
        criterion,
        median_share >= C5A_MIN_HEADROOM_SHARE,
        f"median share of headroom closed {median_share:.2f} (required >= {C5A_MIN_HEADROOM_SHARE}); "
        f"per-seed shares {[f'{s:.2f}' for s in shares]}; {amounts}",
    )


def test_c5a_utility_gain_from_training(synthetic_runs):
    runs = synthetic_runs["runs"]
    for name in ("askgnn", "few_knn"):
        ratios = [r["held_out"][name] for r in runs]
        print(f"[acceptance] held-out u/u_best on the test nodes, {name} (not gated): median "
              f"{float(np.median(ratios)):.4f}; per seed {[f'{v:.4f}' for v in ratios]}")
    check_headroom_share(runs)


def test_c5a_headroom_share_check_rejects_and_accepts():
    def run(seed, u_init, u_final, u_best):
        return {"seed": seed, "u_init": u_init, "u_final": u_final, "u_best": u_best}

    untrained = [run(s, 0.25, 0.25, 0.26) for s in (1, 2, 3)]
    with pytest.raises(AssertionError, match="median share of headroom closed 0.00"):
        check_headroom_share(untrained)

    flat = [run(1, 0.25, 0.26, 0.26), run(2, 0.25, 0.25, 0.25), run(3, 0.25, 0.26, 0.26)]
    with pytest.raises(AssertionError, match="nothing to learn.*seeds \\[2\\]"):
        check_headroom_share(flat)

    # shares 0.2, 0.6 and 1.0: the median seed closes 60% of its gap
    partial = [run(1, 0.25, 0.252, 0.26), run(2, 0.20, 0.26, 0.30), run(3, 0.24, 0.25, 0.25)]
    check_headroom_share(partial)


def test_c5a_utility_strictly_improves(synthetic_runs):
    # the qualitative half of the criterion: training moves retrieval toward
    # higher-utility candidates, as the median gain over the seeds
    runs = synthetic_runs["runs"]
    gains = [r["u_final"] - r["u_init"] for r in runs]
    check(
        "C5a' utility-strict-increase",
        float(np.median(gains)) > 0.0,
        f"median gain {float(np.median(gains)):+.4f} > 0; per-seed {[f'{g:+.4f}' for g in gains]}",
    )


def test_c5b_accuracy_at_least_knn(synthetic_runs):
    runs = synthetic_runs["runs"]
    deltas = [r["askgnn"] - r["few_knn"] for r in runs]
    median_delta = float(np.median(deltas))
    check(
        "C5b trained >= few_knn",
        median_delta >= 0.0,
        f"median (askgnn - few_knn) = {median_delta:+.4f}; per-seed "
        f"askgnn {[r['askgnn'] for r in runs]} vs knn {[r['few_knn'] for r in runs]}",
    )


def test_c6_majority_vote_never_beats_llm(synthetic_runs):
    runs = synthetic_runs["runs"]
    violations = [r["seed"] for r in runs if r["mv_askgnn"] > r["askgnn"]]
    check(
        "C6 mv_askgnn <= askgnn per seed",
        not violations,
        f"mv {[r['mv_askgnn'] for r in runs]} vs askgnn {[r['askgnn'] for r in runs]}"
        + (f"; violated on seeds {violations}" if violations else ""),
    )


def test_c5c_small_k_order(synthetic_runs):
    runs = synthetic_runs["runs"]
    medians = {k: [float(np.median([r[f"{s}@{k}"] for r in runs])) for s in C5C_ORDER]
               for k in C5C_K_ICL}
    broken = [k for k, m in medians.items() if not m[0] > m[1] > m[2]]
    check(
        "C5c small-k askgnn > few_knn > few_rand",
        not broken,
        "; ".join(f"k_icl={k}: medians " + " > ".join(f"{s} {v:.3f}" for s, v in zip(C5C_ORDER, m))
                  for k, m in medians.items())
        + (f"; order broken at k_icl {broken}" if broken else ""),
    )


# -------------------------------------------------------------------- 7


def test_c7_cache_contract_zero_calls_and_identical_feedback():
    graph = synth_sbm(n_nodes=120, n_classes=3, p_in=0.3, p_out=0.02, d=8, noise=0.5, seed=9)
    split = sample_label_fraction(graph, 0.25, seed=9)
    config = TrainConfig(k_feedback=6, epochs=1, hidden_dim=16, n_layers=2, seed=9)
    params = init_params(config.encoder_config(graph), config.seed)
    client = make_client(ORACLE, graph)
    cache = FeedbackCache()

    first = collect_feedback_round(graph, split, params, config, ORACLE,
                                   DEFAULT_TEMPLATE, cache, client=client)
    calls_after_first = client.calls
    second = collect_feedback_round(graph, split, params, config, ORACLE,
                                    DEFAULT_TEMPLATE, cache, client=client)
    repeat_calls = client.calls - calls_after_first

    identical = first.by_query.keys() == second.by_query.keys() and all(
        first.by_query[q].example_ids == second.by_query[q].example_ids
        and first.by_query[q].utilities == second.by_query[q].utilities
        for q in first.by_query
    )
    check(
        "C7 cache-contract",
        repeat_calls == 0 and identical,
        f"repeat collection made {repeat_calls} scorer calls; feedback sets "
        f"{'bit-identical' if identical else 'DIFFER'} across {len(first.by_query)} queries",
    )


# -------------------------------------------------------------------- 8


def test_c8_cli_determinism(tmp_path):
    bundle = tmp_path / "bundle"
    code = cli_main(["synth", "--n", "150", "--classes", "3", "--pin", "0.2", "--pout", "0.02",
                     "--dim", "8", "--noise", "0.4", "--seed", "13", "--out", str(bundle)])
    assert code == 0
    outputs = []
    for tag in ("a", "b"):
        model_dir = tmp_path / f"model-{tag}"
        report_dir = tmp_path / f"reports-{tag}"
        assert cli_main(["train", "--bundle", str(bundle), "--out", str(model_dir),
                         "--scorer-kind", "oracle", "--fraction", "0.3", "--seed", "6",
                         "--epochs", "25", "--hidden-dim", "16", "--k-feedback", "5",
                         "--single-thread"]) == 0
        assert cli_main(["infer", "--bundle", str(bundle), "--model", str(model_dir),
                         "--out", str(report_dir), "--scorer-kind", "oracle",
                         "--k-icl", "6", "--single-thread"]) == 0
        csv_path = next(report_dir.glob("report-askgnn-*.csv"))
        json_path = Path(str(csv_path)[:-4] + ".json")
        outputs.append((csv_path.name, csv_path.read_bytes(), json_path.read_bytes()))
    same = outputs[0] == outputs[1]
    check(
        "C8 cli-determinism",
        same,
        f"reports {outputs[0][0]} byte-identical across two train+infer runs: {same}",
    )


# -------------------------------------------------------------------- 9


def test_c9_http_scorer_conformance(clean_sbm):
    prompt, continuation = "Classify.\nAnswer:", " topic-1 end"
    with StubScorerServer() as server:
        spec = ScorerSpec(kind="http", endpoint=server.endpoint, model="m",
                          retries=1, backoff=0.0, max_parallel=1)
        got = token_logprobs(spec, prompt, continuation)
    tokens, offsets = tokenize(prompt + continuation)
    expected = [fake_logprob(t) for t, off in zip(tokens, offsets) if off >= len(prompt)]
    exact = got == expected

    bad = 5
    bad_text = clean_sbm.texts[bad]
    with StubScorerServer(fail_when=lambda body: bad_text in body["prompt"]) as server:
        spec = ScorerSpec(kind="http", endpoint=server.endpoint, model="m",
                          retries=2, backoff=0.0, max_parallel=1)
        client = make_client(spec)
        by_query, n_unscored = rank_candidates(clean_sbm, {0: [1, 2, bad]}, spec, DEFAULT_TEMPLATE,
                                               FeedbackCache(), client=client)
        bad_requests = sum(1 for r in server.requests if bad_text in r["prompt"])
    survived = n_unscored == 1 and set(by_query[0].example_ids) == {1, 2}
    retried = bad_requests == (spec.retries + 1) * clean_sbm.n_classes
    check(
        "C9 http-conformance",
        exact and survived and retried,
        f"echo extraction exact: {exact}; faulty pair isolated without abort: {survived}; "
        f"retry budget exhausted per call: {retried} ({bad_requests} faulty requests)",
    )
