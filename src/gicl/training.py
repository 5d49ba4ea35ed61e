"""Retriever optimization: listwise feedback loss + node classification loss.

Each round freezes the encoder, retrieves every training query's top-K
candidates, scores them through the scorer cache, and then runs gradient
steps on

    L = beta * L_feedback + (1 - beta) * L_clf

where L_feedback is a temperature-scaled listwise softmax over each
query's candidate list, its best-scored candidate the positive, and L_clf
is softmax cross-entropy of the linear head over the supervised nodes.
Queries and candidates are labeled nodes too, so both losses read only
the labeled nodes' embeddings. An epoch runs the encoder's MLP on their
propagated rows alone, whatever the size of the graph.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import nncore
from .encoder import (
    EmbeddingTable,
    EncoderConfig,
    encode_all,
    encode_on_tape,
    init_params,
    logits_on_tape,
    propagate,
)
from .graphstore import SplitSpec, TagGraph, atomic_write, check_field_types
from .nncore import ParamSet, Tape, Tensor2
from .prompts import PromptTemplate
from .retrieval import build_index, retrieve_topk
from .scoring import FeedbackCache, FeedbackSet, ScorerSpec, rank_candidates


@dataclass(frozen=True)
class TrainConfig:
    beta: float = 0.2
    k_feedback: int = 20
    k_icl: int = 30
    tau: float = 1.0
    rounds: int = 1
    epochs: int = 200
    lr: float = 0.01
    seed: int = 0
    n_layers: int = 3  # propagation hops
    hidden_dim: int = 64
    dropout: float = 0.5
    fraction: float = 0.1  # of the labeled nodes outside the test set, sampled with seed
    split_fields: ClassVar[tuple[str, str]] = ("fraction", "seed")  # pick the labeled split

    def __post_init__(self) -> None:
        check_field_types(self)
        if not 0 < self.fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")
        if not 0 <= self.beta <= 1:
            raise ValueError("beta must be in [0, 1]")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be finite and positive")
        if min(self.k_feedback, self.rounds, self.n_layers, self.hidden_dim) < 1:
            raise ValueError("k_feedback, rounds, n_layers and hidden_dim must be >= 1")
        if min(self.k_icl, self.epochs) < 0:
            raise ValueError("k_icl and epochs must be >= 0")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError("lr must be finite and positive")
        if not 0 <= self.dropout < 1:
            raise ValueError("dropout must be in [0, 1)")

    def encoder_config(self, graph: TagGraph) -> EncoderConfig:
        return EncoderConfig(
            input_dim=graph.feature_dim,
            n_classes=graph.n_classes,
            n_layers=self.n_layers,
            hidden_dim=self.hidden_dim,
            dropout=self.dropout,
        )


@dataclass
class TrainedModel:
    params: ParamSet
    embeddings: EmbeddingTable
    log: list[dict] = field(default_factory=list)

    def write_log(self, path: str | Path) -> None:
        with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(
                fh,
                fieldnames=["epoch", "round", "loss_total", "loss_feedback", "loss_clf", "lr"],
                lineterminator="\n",
            )
            writer.writeheader()
            writer.writerows(self.log)


@dataclass(frozen=True)
class FeedbackLists:
    """A round's non-empty candidate lists, flat and in query order, on the
    rows of the sorted labeled set: pair j is (``queries[j]``,
    ``candidates[j]``) with positive weight ``weights[j]``, and ``sizes``
    are the lengths of consecutive lists."""

    queries: np.ndarray
    candidates: np.ndarray
    sizes: np.ndarray
    weights: np.ndarray


def feedback_lists(feedback: FeedbackSet, labeled_ids: np.ndarray) -> FeedbackLists:
    """Flatten each query's ranked candidates onto their rows in the sorted
    ``labeled_ids``; each list's first (best-scored) is its positive."""
    lists = [(q, r) for q, r in sorted(feedback.by_query.items()) if len(r) > 0]
    sizes = np.array([len(r) for _, r in lists], dtype=np.int64)
    weights = np.zeros(int(sizes.sum()))
    weights[np.cumsum(sizes) - sizes] = 1.0
    queries = np.repeat(np.array([q for q, _ in lists], dtype=np.int64), sizes)
    candidates = np.array([e for _, r in lists for e in r.example_ids], dtype=np.int64)
    outside = np.setdiff1d(np.concatenate([queries, candidates]), labeled_ids)
    if outside.size:
        raise ValueError(f"feedback names node {outside[0]}, which is not labeled")
    return FeedbackLists(queries=np.searchsorted(labeled_ids, queries),
                         candidates=np.searchsorted(labeled_ids, candidates),
                         sizes=sizes, weights=weights)


def feedback_loss(tape: Tape, embeddings: Tensor2, lists: FeedbackLists, tau: float) -> Tensor2:
    """Listwise softmax loss over each query's candidates at temperature tau.

    For every query the full candidate set forms the softmax denominator and
    its positive the numerator; the loss is the mean over queries. Embedding
    rows must already be L2-normalized so the similarity is a cosine.
    """
    if lists.sizes.size == 0:
        raise ValueError("feedback_loss: no query has a scored candidate")
    sims = nncore.gram_pairs(tape, embeddings, lists.queries, lists.candidates, 1.0 / tau)
    return nncore.listwise_xent(tape, sims, lists.sizes, lists.weights)


def clf_loss(tape: Tape, embeddings: Tensor2, params: ParamSet, labels: np.ndarray) -> Tensor2:
    """Mean softmax cross-entropy of the head over every row, row i labeled ``labels[i]``."""
    if len(labels) == 0:
        raise ValueError("clf_loss needs a non-empty labeled set")
    return nncore.softmax_xent(tape, logits_on_tape(tape, embeddings, params), labels)


def combined_loss(tape: Tape, lf: Tensor2, lc: Tensor2, beta: float) -> Tensor2:
    return nncore.combine_scalars(tape, lf, lc, beta, 1.0 - beta)


def epoch_loss(
    tape: Tape,
    inputs: Tensor2,
    labels: np.ndarray,
    lists: FeedbackLists,
    params: ParamSet,
    enc: EncoderConfig,
    config: TrainConfig,
    training: bool = True,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor2, Tensor2, Tensor2]:
    """(combined, feedback, classification) losses of one forward pass over
    the labeled nodes' propagated rows ``inputs``, their ``labels`` and the
    round's ``lists`` on those rows."""
    emb = encode_on_tape(tape, inputs, params, enc, training=training, rng=rng)
    lf = feedback_loss(tape, emb, lists, config.tau)
    lc = clf_loss(tape, emb, params, labels)
    return combined_loss(tape, lf, lc, config.beta), lf, lc


COVERAGE_FLOOR = 0.5  # a round that scores a smaller share of its candidate pairs aborts


class ScorerCoverageError(Exception):
    """Feedback collection fell below the scored-pair floor."""


def collect_feedback_round(
    graph: TagGraph,
    split: SplitSpec,
    params: ParamSet,
    config: TrainConfig,
    spec: ScorerSpec,
    template: PromptTemplate,
    cache: FeedbackCache,
    client=None,
) -> FeedbackSet:
    """Rank each query's top-K candidates under the frozen encoder ``params``
    by scored utility, in one ``retrieve_topk`` and one ``rank_candidates``
    call. Aborts when scored coverage falls below ``COVERAGE_FLOOR``
    (partial results stay cached)."""
    table = encode_all(graph, params, config.encoder_config(graph))
    queries = split.query_train_ids
    hits = retrieve_topk(build_index(table.vectors, split.labeled_ids), table.vectors[queries],
                         config.k_feedback, query_ids=queries)
    feedback = rank_candidates(graph, {q: ids for q, ids in zip(queries.tolist(), hits) if ids},
                               spec, template, cache, client=client)
    if feedback.coverage < COVERAGE_FLOOR:
        total = feedback.n_scored + feedback.n_unscored
        raise ScorerCoverageError(f"only {feedback.n_scored}/{total} candidate pairs scored, "
                                  f"below the {COVERAGE_FLOOR:.0%} floor")
    return feedback


def train(
    graph: TagGraph,
    split: SplitSpec,
    spec: ScorerSpec,
    template: PromptTemplate,
    config: TrainConfig,
    cache: FeedbackCache | None = None,
    client=None,
) -> TrainedModel:
    """Alternate feedback collection and gradient epochs.

    Feedback is collected once per round against frozen embeddings; the
    gradient loop is single-threaded and deterministic for a given seed.
    """
    cache = cache if cache is not None else FeedbackCache()
    enc = config.encoder_config(graph)
    params = init_params(enc, config.seed)
    dropout_rng = np.random.default_rng([config.seed & 0x7FFFFFFF, 0xD0])
    inputs = Tensor2(propagate(graph, config.n_layers)[split.labeled_ids].astype(params.dtype))
    labels = graph.labels[split.labeled_ids]

    log: list[dict] = []
    for round_index in range(config.rounds):
        try:
            feedback = collect_feedback_round(graph, split, params, config, spec, template, cache, client)
        except ScorerCoverageError as exc:
            raise ScorerCoverageError(f"round {round_index}: {exc}") from exc
        lists = feedback_lists(feedback, split.labeled_ids)
        for epoch in range(config.epochs):
            try:
                tape = Tape()
                loss, lf, lc = epoch_loss(tape, inputs, labels, lists, params, enc, config,
                                          rng=dropout_rng)
            except FloatingPointError as exc:
                raise FloatingPointError(
                    f"non-finite loss at round {round_index} epoch {epoch}: {exc}"
                ) from exc
            grads = nncore.backward(tape, loss, params)
            nncore.adam_step(params, grads, lr=config.lr)
            log.append(
                {
                    "epoch": epoch,
                    "round": round_index,
                    "loss_total": loss.item(),
                    "loss_feedback": lf.item(),
                    "loss_clf": lc.item(),
                    "lr": config.lr,
                }
            )

    return TrainedModel(params=params, embeddings=encode_all(graph, params, enc), log=log)
