"""Exact top-K retrieval over labeled nodes by cosine similarity.

One brute-force flat index; no approximate structures. Retrieval takes a
block of queries and returns, for each, node ids ordered by descending score
with ties broken by ascending node id; scores that agree to 12 decimals tie,
so equal cosines that rounding left an ulp apart still do. A query node is
never returned as its own candidate, and asking for more ids than exist
returns everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

RETRIEVAL_BLOCK_SCORES = 1 << 15  # query-by-row scores per block: 256 kB of float64
MAX_INDEX_ROWS = 9_000_000  # each score's int64 key holds rint(score * 1e12) * rows


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
    if ids.size > MAX_INDEX_ROWS:
        raise ValueError(f"an index holds at most {MAX_INDEX_ROWS} rows, got {ids.size}")
    rows = np.asarray(vectors[ids], dtype=np.float64)
    if not np.isfinite(rows).all():
        raise ValueError("labeled vectors must be finite")
    return Index(ids=ids, unit_rows=_normalize_rows(rows))


def retrieve_topk(
    index: Index,
    query_vectors: np.ndarray,
    k: int,
    query_ids: Sequence[int] | np.ndarray | None = None,
) -> list[list[int]]:
    """Per query row, the ids of its k most cosine-similar labeled nodes,
    the query itself (``query_ids``, one per row) removed.

    Queries are scored a block at a time, one product per block. Each score
    becomes the unique key -rint(score * 1e12) * rows + column, which orders
    as descending 12-decimal rounded score, then ascending id; the query's
    own column gets the largest key. Each row's k smallest keys are
    selected with ``np.partition``, and only those are sorted.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    queries = np.asarray(query_vectors, dtype=np.float64)
    if queries.ndim != 2:
        raise ValueError("query_vectors must be 2-D, one row per query")
    if not np.isfinite(queries).all():
        raise ValueError("query vectors must be finite")
    n, m = queries.shape[0], index.ids.size
    own = np.full(n, m, dtype=np.int64)  # column of each query in the index; m for none
    if query_ids is not None:
        qids = np.asarray(query_ids, dtype=np.int64)
        if qids.shape != (n,):
            raise ValueError(f"{qids.size} query ids for {n} query rows")
        at = np.minimum(np.searchsorted(index.ids, qids), m - 1)
        own = np.where(index.ids[at] == qids, at, m)
    take = min(k, m)
    per_block = max(1, RETRIEVAL_BLOCK_SCORES // m)
    columns = np.arange(m, dtype=np.int64)
    out: list[list[int]] = []
    for lo in range(0, n, per_block):
        scores = _normalize_rows(queries[lo:lo + per_block]) @ index.unit_rows.T
        scores *= 1e12
        keys = np.rint(scores, out=scores).astype(np.int64)
        keys *= -m
        keys += columns
        rows = np.flatnonzero(own[lo:lo + per_block] < m)
        keys[rows, own[lo + rows]] = np.iinfo(np.int64).max
        if take < m:  # a key carries its column, so the k smallest values suffice
            keys = np.partition(keys, take - 1, axis=1)[:, :take]
        keys.sort(axis=1)
        hits = index.ids[keys % m].tolist()
        # a query in the index is among its k smallest keys only when k covers every row
        out += [h[:-1] if take == m and q < m else h for h, q in zip(hits, own[lo:lo + per_block])]
    return out


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
