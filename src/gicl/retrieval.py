"""Exact top-K retrieval over labeled nodes by cosine similarity.

One brute-force flat index; no approximate structures. Retrieval returns
node ids, ordered by descending score with ties broken by ascending node id;
scores that agree to 12 decimals tie, so equal cosines that rounding left an
ulp apart still do. The query node is never returned as its own candidate,
and asking for more ids than exist returns everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norms > 0, norms, 1.0)


@dataclass(frozen=True)
class Index:
    """Frozen snapshot of labeled node embeddings, rows pre-normalized."""

    ids: np.ndarray
    unit_rows: np.ndarray

    def __post_init__(self) -> None:
        self.ids.setflags(write=False)
        self.unit_rows.setflags(write=False)


def build_index(vectors: np.ndarray, labeled_ids: Iterable[int]) -> Index:
    ids = np.asarray(sorted(set(int(i) for i in labeled_ids)), dtype=np.int64)
    if ids.size == 0:
        raise ValueError("cannot build an index over an empty labeled set")
    if ids.min() < 0 or ids.max() >= vectors.shape[0]:
        raise IndexError("labeled id out of range for the embedding table")
    return Index(ids=ids, unit_rows=_normalize_rows(vectors[ids]))


def retrieve_topk(
    index: Index,
    query_embedding: np.ndarray,
    k: int,
    query_id: int = -1,
) -> list[int]:
    """Ids of the k most cosine-similar labeled nodes, the query itself removed."""
    if k < 1:
        raise ValueError("k must be >= 1")
    q = _normalize_rows(np.asarray(query_embedding, dtype=np.float64).reshape(1, -1))[0]
    scores = index.unit_rows @ q

    keep = index.ids != int(query_id)
    ids = index.ids[keep]
    scores = scores[keep]

    order = np.lexsort((ids, -np.round(scores, 12)))[: min(k, ids.size)]
    return ids[order].tolist()


def random_examples(
    labeled_ids: Iterable[int],
    k: int,
    seed: int,
    query_id: int = -1,
) -> list[int]:
    """K distinct uniform draws, deterministic per (seed, query_id)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ids = np.asarray(sorted(set(int(i) for i in labeled_ids)), dtype=np.int64)
    ids = ids[ids != int(query_id)]
    rng = np.random.default_rng([seed & 0x7FFFFFFF, (int(query_id) + 1) & 0x7FFFFFFF])
    take = min(k, ids.size)
    return rng.choice(ids, size=take, replace=False).tolist()
