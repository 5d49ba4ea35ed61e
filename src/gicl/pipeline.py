"""End-to-end inference, baselines, evaluation, and sweeps.

Every run is described by a RunManifest whose hash covers the config
(seeds included), data, template, and scorer identity (but not wall-clock
time), so identical manifests in single-thread mode produce byte-identical
reports. Reports are append-only: a rerun writes a new file, never mutates
an old one.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .encoder import classify_logits
from .graphstore import SplitSpec, TagGraph, atomic_write, neighbors
from .prompts import (
    PromptTemplate,
    examples_from_ids,
    icl_request,
    majority_vote,
    parse_answer,
    purify_llm_select,
    purify_minority,
)
from .retrieval import build_index, random_examples, retrieve_topk
from .scoring import FeedbackCache, ScorerError, ScorerSpec, fan_out, make_client
from .training import TrainConfig, TrainedModel, train

# Where a strategy's ICL examples come from
NO_EXAMPLES = "none"
RANDOM = "random"  # k_icl uniform draws from the labeled nodes
RAW_KNN = "raw_knn"  # k_icl nearest labeled nodes by raw feature cosine
TRAINED_KNN = "trained_knn"  # k_icl nearest labeled nodes by trained embedding cosine
HEAD_NEIGHBORS = "head_neighbors"  # graph neighbours, labeled by the trained head
LLM_NEIGHBORS = "llm_neighbors"  # graph neighbours, labeled by zero-shot LLM answers


@dataclass(frozen=True)
class Strategy:
    """One row of the strategy table: every other fact about a strategy is derived from it."""

    examples: str
    vote: bool = False  # answer by majority vote over the examples, not by the LLM

    @property
    def needs_model(self) -> bool:
        return self.examples in (TRAINED_KNN, HEAD_NEIGHBORS)

    @property
    def purifiable(self) -> bool:
        """The paper's method: the LLM answers from trained retrieval, optionally purified."""
        return self.examples == TRAINED_KNN and not self.vote


STRATEGY_TABLE = {
    "askgnn": Strategy(TRAINED_KNN),
    "zero_shot": Strategy(NO_EXAMPLES),
    "few_rand": Strategy(RANDOM),
    "few_knn": Strategy(RAW_KNN),
    "mv_knn": Strategy(RAW_KNN, vote=True),
    "mv_askgnn": Strategy(TRAINED_KNN, vote=True),
    "npg": Strategy(HEAD_NEIGHBORS),
    "npl": Strategy(LLM_NEIGHBORS),
}
STRATEGIES = tuple(STRATEGY_TABLE)
PURIFY_MODES = ("minority", "llm_select")
SWEEP_AXES = ("beta", "k_icl")


@dataclass(frozen=True)
class RunManifest:
    config: dict
    bundle_hash: str
    template_hash: str
    scorer_id: str
    version: str = __version__
    created_at: float = field(default_factory=time.time)

    @property
    def manifest_hash(self) -> str:
        """Digest of everything that determines the run output; excludes
        the creation timestamp so identical runs share a hash."""
        record = asdict(self)
        del record["created_at"]
        payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def save(self, path: str | Path) -> None:
        obj = {**asdict(self), "manifest_hash": self.manifest_hash}
        with atomic_write(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        with open(path, encoding="utf-8") as fh:
            obj = {"version": __version__, "created_at": 0.0, **json.load(fh)}
        return cls(**{f.name: obj[f.name] for f in fields(cls)})


@dataclass(frozen=True)
class EvalRow:
    query_id: int
    gold: int
    predicted: int | None
    strategy: str
    n_icl: int
    parsed: bool
    note: str = ""


def evaluate_accuracy(rows: Sequence[EvalRow]) -> dict:
    """Accuracy with unparsed rows counted as incorrect, plus confusion counts."""
    if not rows:
        raise ValueError("cannot evaluate an empty report")
    n = len(rows)
    correct = sum(1 for r in rows if r.parsed and r.predicted == r.gold)
    unparsed = sum(1 for r in rows if not r.parsed)
    confusion: dict[str, int] = {}
    for r in rows:
        key = f"{r.gold}->{r.predicted if r.parsed else 'unparsed'}"
        confusion[key] = confusion.get(key, 0) + 1
    return {
        "accuracy": correct / n,
        "n": n,
        "correct": correct,
        "unparsed": unparsed,
        "confusion": confusion,
    }


def write_report(
    rows: Sequence[EvalRow],
    summary: dict,
    csv_path: str | Path,
    json_path: str | Path,
    overwrite: bool = False,
) -> None:
    """Emit the per-query CSV and summary JSON; never clobbers an old report.
    Both are renamed into place only once both are written, so a writer
    that dies while writing leaves neither."""
    if not overwrite:
        for path in (csv_path, json_path):
            if Path(path).exists():
                raise FileExistsError(f"{path}: reports are append-only, refusing to overwrite")
    with (atomic_write(csv_path, "w", newline="", encoding="utf-8") as csv_fh,
          atomic_write(json_path, "w", encoding="utf-8") as json_fh):
        writer = csv.writer(csv_fh, lineterminator="\n")
        writer.writerow(["query_id", "gold", "predicted", "strategy", "n_icl", "parsed", "note"])
        for r in rows:
            writer.writerow(
                [r.query_id, r.gold, "" if r.predicted is None else r.predicted,
                 r.strategy, r.n_icl, int(r.parsed), r.note]
            )
        json.dump(summary, json_fh, sort_keys=True, indent=2)
        json_fh.write("\n")


def read_report(csv_path: str | Path) -> list[EvalRow]:
    rows: list[EvalRow] = []
    with open(csv_path, newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            rows.append(
                EvalRow(
                    query_id=int(rec["query_id"]),
                    gold=int(rec["gold"]),
                    predicted=int(rec["predicted"]) if rec["predicted"] != "" else None,
                    strategy=rec["strategy"],
                    n_icl=int(rec["n_icl"]),
                    parsed=bool(int(rec["parsed"])),
                    note=rec["note"],
                )
            )
    return rows


# ---------------------------------------------------------------------------
# strategies


def _llm_row(
    graph: TagGraph,
    template: PromptTemplate,
    client,
    query_id: int,
    examples: Sequence[tuple[int, int]],
    strategy: str,
) -> EvalRow:
    """Render, complete, parse; transport failures become Unparsed rows."""
    gold = int(graph.labels[query_id])
    prompt, meta = icl_request(template, graph, query_id, examples)
    try:
        completion = client.complete(prompt, meta=meta)
    except ScorerError as exc:
        return EvalRow(query_id, gold, None, strategy, len(examples), False, note=str(exc)[:120])
    predicted = parse_answer(completion, graph.label_vocab)
    return EvalRow(
        query_id, gold, predicted, strategy, len(examples), parsed=predicted is not None
    )


def _mv_row(graph: TagGraph, query_id: int, examples: Sequence[tuple[int, int]], strategy: str) -> EvalRow:
    gold = int(graph.labels[query_id])
    if not examples:
        return EvalRow(query_id, gold, None, strategy, 0, False, note="no examples to vote on")
    return EvalRow(query_id, gold, majority_vote(examples), strategy, len(examples), True)


def _apply_purify(
    graph: TagGraph,
    examples: list[tuple[int, int]],
    purify: str | None,
    budget: int | None,
    client,
) -> tuple[list[tuple[int, int]], str]:
    """Keep the (node id, class shown) pairs at the positions the purification mode picks."""
    if purify is None or not examples:
        return examples, ""
    note = ""
    if purify == "minority":
        keep = purify_minority(examples)
    else:
        chosen = budget if budget is not None else max(1, (2 * len(examples)) // 3)
        shown = [(graph.texts[e], graph.label_vocab[c]) for e, c in examples]
        keep, fell_back = purify_llm_select(
            shown, lambda p: client.complete(p, meta=None), min(chosen, len(examples))
        )
        note = "purify fallback" if fell_back else ""
    return [examples[i] for i in keep], note


def run_strategy(
    strategy: str,
    graph: TagGraph,
    split: SplitSpec,
    spec: ScorerSpec,
    template: PromptTemplate,
    model: TrainedModel | None = None,
    k_icl: int = 30,
    seed: int = 0,
    purify: str | None = None,
    purify_budget: int | None = None,
    client=None,
    single_thread: bool = False,
) -> list[EvalRow]:
    """Produce one EvalRow per test query under the chosen strategy."""
    plan = STRATEGY_TABLE.get(strategy)
    if plan is None:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    if plan.needs_model and model is None:
        raise ValueError(f"strategy {strategy!r} needs a trained model")
    if purify is not None and not plan.purifiable:
        raise ValueError(f"strategy {strategy!r} takes no purify mode, got {purify!r}")
    if purify not in (None, *PURIFY_MODES):
        raise ValueError(f"purify mode must be one of {PURIFY_MODES}, got {purify!r}")
    if purify_budget is not None and purify != "llm_select":
        raise ValueError(f"a purify budget needs purify 'llm_select', got {purify!r}")
    if purify_budget is not None and purify_budget < 1:
        raise ValueError(f"purify budget must be at least 1, got {purify_budget}")
    if client is None:
        client = make_client(spec, graph)
    if single_thread or plan.vote:
        spec = replace(spec, max_parallel=1)
    queries = [int(q) for q in split.test_ids]
    source = plan.examples
    if k_icl == 0 and source in (RANDOM, RAW_KNN, TRAINED_KNN):
        # no retrieved examples: an LLM strategy is zero-shot, a vote has nothing to vote on
        source = NO_EXAMPLES

    if source in (RAW_KNN, TRAINED_KNN):
        vectors = model.embeddings.vectors if source == TRAINED_KNN else graph.features
        index = build_index(vectors, split.labeled_ids)
        hits = dict(zip(queries, retrieve_topk(index, vectors[split.test_ids], k_icl,
                                               query_ids=split.test_ids)))
    elif source == HEAD_NEIGHBORS:
        pseudo = np.argmax(classify_logits(model.embeddings, model.params), axis=1).tolist()
    elif source == LLM_NEIGHBORS:
        # each distinct neighbour is labeled once, by a zero-shot answer;
        # neighbours the LLM gives no label are left out of the prompt
        nodes = sorted({int(v) for q in queries for v in neighbors(graph, q)})
        labels = fan_out(spec, lambda v: _llm_row(graph, template, client, v, [], strategy).predicted, nodes)
        pseudo = dict(zip(nodes, labels))

    def examples_for(q: int) -> list[tuple[int, int]]:
        if source == NO_EXAMPLES:
            return []
        if source in (HEAD_NEIGHBORS, LLM_NEIGHBORS):
            return [(v, pseudo[v]) for v in map(int, neighbors(graph, q)) if pseudo[v] is not None]
        if source == RANDOM:
            ids = random_examples(split.labeled_ids, k_icl, seed, query_id=q)
        else:
            ids = hits[q]
        return examples_from_ids(graph, ids)

    def one(q: int) -> EvalRow:
        examples = examples_for(q)
        if plan.vote:
            return _mv_row(graph, q, examples, strategy)
        examples, note = _apply_purify(graph, examples, purify, purify_budget, client)
        row = _llm_row(graph, template, client, q, examples, strategy)
        return replace(row, note=note) if note else row

    return fan_out(spec, one, queries)


def sweep(
    axis: str,
    values: Sequence[float],
    graph: TagGraph,
    split: SplitSpec,
    spec: ScorerSpec,
    template: PromptTemplate,
    base_config: TrainConfig,
    cache: FeedbackCache | None = None,
) -> list[dict]:
    """One (train+)askgnn run per value; per-value failures do not stop the sweep.

    A beta sweep shares the feedback cache across runs; a k_icl sweep trains
    once and only re-runs inference.
    """
    if axis not in SWEEP_AXES:
        raise ValueError("sweep axis must be 'beta' or 'k_icl'")
    if not values:
        raise ValueError("sweep needs at least one value")
    cache = cache if cache is not None else FeedbackCache()
    results: list[dict] = []

    shared_model: TrainedModel | None = None
    if axis == "k_icl":
        shared_model = train(graph, split, spec, template, base_config, cache=cache)

    for value in values:
        try:
            if axis == "beta":
                cfg = replace(base_config, beta=float(value))
                model = train(graph, split, spec, template, cfg, cache=cache)
                k = cfg.k_icl
            else:
                model, cfg, k = shared_model, base_config, int(value)
                if k != value:
                    raise ValueError(f"k_icl must be a whole number, got {value}")
            rows = run_strategy(
                "askgnn", graph, split, spec, template, model=model,
                k_icl=k, seed=cfg.seed,
            )
            summary = evaluate_accuracy(rows)
            results.append({"value": value, "accuracy": summary["accuracy"], "error": ""})
        except Exception as exc:  # noqa: BLE001 - sweep must keep going
            results.append({"value": value, "accuracy": float("nan"), "error": str(exc)[:200]})
    return results


def write_sweep_csv(results: Sequence[dict], path: str | Path) -> None:
    with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["value", "accuracy", "error"], lineterminator="\n")
        writer.writeheader()
        writer.writerows(results)
