"""Text-attributed graph data model: loading, validation, synthesis, splits.

A graph bundle on disk is a directory of five files:

    nodes.jsonl    one JSON object per line: {"id": int, "text": str, "label": str|null}
    edges.tsv      two tab-separated integer node ids per line
    features.bin   raw 32-bit little-endian floats, row-major
    features.json  {"rows": int, "cols": int, "dtype": "f32le", "layout": "row-major"}
    labels.json    ordered array of class label strings
    splits.json    optional: {"test": [int]}, a non-empty list; any other key is ignored

Node ids are densely re-indexed to 0..n-1 in nodes.jsonl file order, and split
ids are these indices. Duplicate edges are collapsed and self-loops dropped at
load. Graphs are treated as undirected by default (edge lists are
symmetrized); pass symmetrize=False to keep the stored direction.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

UNLABELED = -1
SBM_BLOCK_DRAWS = 1 << 18  # uniforms per synth_sbm row block: 2 MB of float64

BUNDLE_FILES = ("nodes.jsonl", "edges.tsv", "features.bin", "features.json", "labels.json")


class BundleError(Exception):
    """Raised when a graph bundle or matrix file is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class TagGraph:
    """Immutable text-attributed graph in CSR form.

    ``labels[i]`` is a class index into ``label_vocab`` or ``UNLABELED``.
    Arrays are marked read-only after construction; many readers may share
    one instance.
    """

    n_nodes: int
    csr_offsets: np.ndarray
    csr_targets: np.ndarray
    features: np.ndarray
    texts: tuple[str, ...]
    labels: np.ndarray
    label_vocab: tuple[str, ...]
    directed: bool = False

    def __post_init__(self) -> None:
        offsets = np.ascontiguousarray(self.csr_offsets, dtype=np.int64)
        targets = np.ascontiguousarray(self.csr_targets, dtype=np.int64)
        feats = np.ascontiguousarray(self.features, dtype=np.float32)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "csr_offsets", offsets)
        object.__setattr__(self, "csr_targets", targets)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        self._validate()
        for arr in (offsets, targets, feats, labels):
            arr.setflags(write=False)

    def _validate(self) -> None:
        n = self.n_nodes
        if self.csr_offsets.shape != (n + 1,):
            raise ValueError(f"csr_offsets must have length n_nodes+1, got {self.csr_offsets.shape}")
        if self.csr_offsets[0] != 0 or np.any(np.diff(self.csr_offsets) < 0):
            raise ValueError("csr_offsets must be nondecreasing and start at 0")
        if self.csr_offsets[-1] != len(self.csr_targets):
            raise ValueError("last csr offset must equal number of stored edges")
        if len(self.csr_targets) and (self.csr_targets.min() < 0 or self.csr_targets.max() >= n):
            raise ValueError("edge target index out of range")
        if self.features.shape[0] != n:
            raise ValueError(f"features has {self.features.shape[0]} rows for {n} nodes")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")
        if len(self.texts) != n:
            raise ValueError(f"expected {n} texts, got {len(self.texts)}")
        if self.labels.shape != (n,):
            raise ValueError("labels must have one entry per node")
        labeled = self.labels[self.labels != UNLABELED]
        if len(labeled) and labeled.max() >= len(self.label_vocab):
            raise ValueError("label index exceeds label vocabulary size")

    @property
    def n_edges(self) -> int:
        return int(len(self.csr_targets))

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    @property
    def n_classes(self) -> int:
        return len(self.label_vocab)

    def labeled_node_ids(self) -> np.ndarray:
        return np.flatnonzero(self.labels != UNLABELED)

    @cached_property
    def content_hash(self) -> str:
        """Digest of everything a scorer sees of the graph: texts, labels,
        label vocabulary and features (edges excluded). The texts fix the
        node count, so the two arrays' shapes follow from their lengths."""
        digest = hashlib.sha256(json.dumps([self.texts, self.label_vocab]).encode("utf-8"))
        digest.update(self.labels.tobytes())
        digest.update(self.features.tobytes())
        return digest.hexdigest()[:16]

    @cached_property
    def propagated(self) -> dict[int, np.ndarray]:
        """``encoder.propagate``'s read-only arrays by hop count; only the
        calling thread encodes (fan-out workers never do), so no lock."""
        return {}


@dataclass(frozen=True)
class SplitSpec:
    """Which nodes supervise training and which are held out."""

    labeled_ids: np.ndarray
    test_ids: np.ndarray

    def __post_init__(self) -> None:
        labeled = np.ascontiguousarray(np.sort(self.labeled_ids), dtype=np.int64)
        test = np.ascontiguousarray(np.sort(self.test_ids), dtype=np.int64)
        object.__setattr__(self, "labeled_ids", labeled)
        object.__setattr__(self, "test_ids", test)
        if np.intersect1d(labeled, test).size:
            raise ValueError("labeled_ids and test_ids must be disjoint")
        for arr in (labeled, test):
            arr.setflags(write=False)

    @property
    def query_train_ids(self) -> np.ndarray:
        """The learning-to-retrieve queries: every labeled node is one."""
        return self.labeled_ids


def _build_csr(n_nodes: int, edges: np.ndarray, symmetrize: bool) -> tuple[np.ndarray, np.ndarray]:
    """Dedup, drop self-loops, optionally symmetrize, and pack edges as CSR:
    the sorted unique keys src * n_nodes + dst are the entries in CSR order."""
    src, dst = edges[:, 0].astype(np.int64), edges[:, 1].astype(np.int64)
    if symmetrize:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    keys = np.sort((src * n_nodes + dst)[src != dst])
    keys = keys[np.diff(keys, prepend=-1) != 0]  # keys are >= 0
    offsets = np.zeros(n_nodes + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(np.bincount(keys // n_nodes, minlength=n_nodes))
    return offsets, keys % n_nodes


def neighbors(graph: TagGraph, node: int) -> np.ndarray:
    """Neighbor ids of ``node`` in CSR (ascending id) order."""
    if not 0 <= node < graph.n_nodes:
        raise IndexError(f"node {node} out of range for graph with {graph.n_nodes} nodes")
    lo, hi = graph.csr_offsets[node], graph.csr_offsets[node + 1]
    return graph.csr_targets[lo:hi]


def check_field_types(settings) -> None:
    """Refuse, by name, a dataclass field whose value is not of its default's type (a bool
    is no number), and store each number as a plain int or float: 1 and 1.0 are one value."""
    for f in fields(settings):
        kind, value = type(f.default), getattr(settings, f.name)
        accepted, noun = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
                          str: (str, "a string")}[kind]
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise TypeError(f"{f.name} must be {noun}, got {value!r}")
        object.__setattr__(settings, f.name, kind(value))


@contextmanager
def atomic_write(path: str | Path, mode: str = "w", **open_kwargs):
    """Open a temporary file beside ``path`` for writing; when the block
    ends it replaces ``path`` in one ``os.replace``, so a reader sees the
    old file or the new one, never part of either. If the block raises,
    the temporary file is removed and ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_matrix(prefix: Path, matrix: np.ndarray) -> None:
    """Write ``prefix.bin`` (row-major little-endian float32) and its
    ``prefix.json`` header, each atomically."""
    with atomic_write(prefix.with_suffix(".bin"), "wb") as fh:
        fh.write(matrix.astype("<f4").tobytes())
    header = {"rows": matrix.shape[0], "cols": matrix.shape[1], "dtype": "f32le",
              "layout": "row-major"}
    with atomic_write(prefix.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(header, fh)


def read_matrix(prefix: Path, expected_rows: int | None = None) -> np.ndarray:
    """Read a matrix written by write_matrix, checking its header and size.
    ``expected_rows``, a bundle's nodes.jsonl line count, is checked first."""
    header_path, bin_path = prefix.with_suffix(".json"), prefix.with_suffix(".bin")
    with open(header_path, encoding="utf-8") as fh:
        header = json.load(fh)
    rows, cols = (header.get(key) if isinstance(header, dict) else None for key in ("rows", "cols"))
    for key, value in (("rows", rows), ("cols", cols)):
        if type(value) is not int or value < 0:  # type(), as a bool is an int too
            raise BundleError(f"{header_path}: {key} must be a non-negative integer, got {value!r}")
    if header.get("dtype") != "f32le" or header.get("layout") != "row-major":
        raise BundleError(f"{header_path}: only f32le row-major features are supported")
    if expected_rows is not None and rows != expected_rows:
        raise BundleError(
            f"{header_path.name} declares rows={rows} but nodes.jsonl has {expected_rows} lines"
        )
    raw = np.fromfile(bin_path, dtype="<f4")
    if raw.size != rows * cols:
        raise BundleError(
            f"{bin_path.name} holds {raw.size} values, expected {rows}x{cols}={rows * cols}"
        )
    return raw.reshape(rows, cols)


def _read_lines(path: Path) -> list[str]:
    """The lines of a bundle text file, split only at "\\n" (not splitlines: U+2028)."""
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read().split("\n")


def _read_edges(path: Path, id_map: dict[int, int]) -> np.ndarray:
    """The (src, dst) rows of edges.tsv as node indices, in one pass over its
    lines; ``id_map`` maps the nodes.jsonl ids to them."""
    ends: list[int] = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            src, dst = line.split("\t")
        except ValueError:
            raise BundleError(f"edges.tsv line {lineno}: expected two tab-separated ids") from None
        try:
            src, dst = int(src), int(dst)
        except ValueError as exc:
            raise BundleError(f"edges.tsv line {lineno}: non-integer node id") from exc
        try:
            ends += id_map[src], id_map[dst]
        except KeyError as exc:
            raise BundleError(f"edges.tsv line {lineno}: unknown node id {exc.args[0]}") from None
    return np.array(ends, dtype=np.int64).reshape(-1, 2)


def load_bundle(path: str | Path, symmetrize: bool = True) -> TagGraph:
    """Load and validate a graph bundle directory."""
    root = Path(path)
    for name in BUNDLE_FILES:
        if not (root / name).is_file():
            raise BundleError(f"{root / name}: required bundle file is missing")

    with open(root / "labels.json", encoding="utf-8") as fh:
        vocab = json.load(fh)
    if not isinstance(vocab, list) or not all(isinstance(v, str) for v in vocab):
        raise BundleError(f"{root / 'labels.json'}: expected a JSON array of class strings")
    blank = [i for i, name in enumerate(vocab) if not name.strip()]
    if blank:  # every answer would contain a blank name, at position 0
        raise BundleError(f"{root / 'labels.json'}: class {blank[0]} has a blank name")
    class_index = {name: i for i, name in enumerate(vocab)}
    if len(class_index) != len(vocab):
        twice = next(name for i, name in enumerate(vocab) if class_index[name] != i)
        raise BundleError(f"{root / 'labels.json'}: class {twice!r} is listed twice")

    decode = json.JSONDecoder().raw_decode
    texts: list[str] = []
    labels: list[int] = []
    id_map: dict[int, int] = {}
    for lineno, line in enumerate(_read_lines(root / "nodes.jsonl"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj, end = decode(line)
            if end != len(line):
                json.loads(line)  # raises the "Extra data" error
        except json.JSONDecodeError as exc:
            raise BundleError(f"nodes.jsonl line {lineno}: invalid JSON ({exc.msg})") from exc
        if not isinstance(obj, dict) or "id" not in obj or not isinstance(obj.get("text"), str):
            raise BundleError(f"nodes.jsonl line {lineno}: object needs 'id' and 'text', a string")
        orig, raw_label = obj["id"], obj.get("label")
        if isinstance(orig, (str, float)):  # 3.0 and "3" are integer-valued ids too
            try:
                orig = int(orig) if isinstance(orig, str) or orig.is_integer() else None
            except ValueError:
                orig = None
        if type(orig) is not int:
            raise BundleError(f"nodes.jsonl line {lineno}: node id {obj['id']!r} is not an integer")
        if orig in id_map:
            raise BundleError(f"nodes.jsonl line {lineno}: duplicate node id {orig}")
        if raw_label is not None and not (isinstance(raw_label, str) and raw_label in class_index):
            raise BundleError(f"nodes.jsonl line {lineno}: unknown label {raw_label!r}")
        id_map[orig] = len(texts)
        texts.append(obj["text"])
        labels.append(UNLABELED if raw_label is None else class_index[raw_label])
    n_nodes = len(texts)

    features = read_matrix(root / "features", expected_rows=n_nodes)
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        r, c = bad[0]
        raise BundleError(f"features.bin row {r} col {c}: non-finite value")

    edges = _read_edges(root / "edges.tsv", id_map)
    offsets, targets = _build_csr(n_nodes, edges, symmetrize=symmetrize)

    return TagGraph(
        n_nodes=n_nodes,
        csr_offsets=offsets,
        csr_targets=targets,
        features=features,
        texts=tuple(texts),
        labels=np.array(labels, dtype=np.int64),
        label_vocab=tuple(vocab),
        directed=not symmetrize,
    )


def write_bundle(graph: TagGraph, path: str | Path) -> None:
    """Write a graph back out as a bundle directory.

    For undirected graphs each edge is stored once (low id first), so
    load_bundle(write_bundle(g)) reproduces g exactly. An existing
    splits.json is removed first: its ids named the old graph's nodes.
    features.json is removed before the first file is replaced and written
    last, so a rewrite cut short leaves a directory that load_bundle
    refuses as incomplete, never a mix of two graphs' files.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    (root / "splits.json").unlink(missing_ok=True)
    with atomic_write(root / "nodes.jsonl", "w", encoding="utf-8") as fh:
        for i in range(graph.n_nodes):
            label = None if graph.labels[i] == UNLABELED else graph.label_vocab[graph.labels[i]]
            fh.write(json.dumps({"id": i, "text": graph.texts[i], "label": label}) + "\n")
        # here, not first: a rewrite whose first write fails leaves the old bundle whole
        (root / "features.json").unlink(missing_ok=True)
    src = np.repeat(np.arange(graph.n_nodes), np.diff(graph.csr_offsets))
    keep = slice(None) if graph.directed else src < graph.csr_targets
    with atomic_write(root / "edges.tsv", "w", encoding="utf-8") as fh:
        fh.write("".join(f"{s}\t{d}\n" for s, d in zip(src[keep].tolist(),
                                                      graph.csr_targets[keep].tolist())))
    with atomic_write(root / "labels.json", "w", encoding="utf-8") as fh:
        json.dump(list(graph.label_vocab), fh)
    write_matrix(root / "features", graph.features)  # features.bin, then features.json


def load_split_file(path: str | Path) -> np.ndarray | None:
    """The test ids in a bundle's splits.json, at least one; None if it has no such file."""
    split_path = Path(path) / "splits.json"
    if not split_path.is_file():
        return None
    with open(split_path, encoding="utf-8") as fh:
        obj = json.load(fh)
    test = obj.get("test") if isinstance(obj, dict) else None
    if not isinstance(test, list) or not test or any(type(i) is not int for i in test):
        raise BundleError(f"{split_path}: 'test' must be a non-empty list of integer node ids")
    return np.array(test, dtype=np.int64)


def bundle_hash(path: str | Path) -> str:
    """Stable digest of a bundle's file contents, for run manifests."""
    root = Path(path)
    digest = hashlib.sha256()
    for name in BUNDLE_FILES + ("splits.json",):
        fp = root / name
        if fp.is_file():
            digest.update(name.encode())
            digest.update(fp.read_bytes())
    return digest.hexdigest()[:16]


def _stratified_sample(rng: np.random.Generator, pool: np.ndarray, labels: np.ndarray,
                       fraction: float) -> np.ndarray:
    """Sample ~fraction of pool per class, at least one node from each."""
    chosen: list[np.ndarray] = []
    for cls in np.unique(labels[pool]):
        members = pool[labels[pool] == cls]
        take = max(1, int(round(fraction * len(members))))
        take = min(take, len(members))
        chosen.append(rng.choice(members, size=take, replace=False))
    return np.sort(np.concatenate(chosen))


def sample_label_fraction(
    graph: TagGraph,
    fraction: float,
    seed: int,
    test_ids: np.ndarray | None = None,
) -> SplitSpec:
    """Stratified sample of the labeled nodes to use as supervision.

    When no test set is supplied, one is first carved out of the labeled
    nodes (a fifth per class); the supervision sample is then
    drawn from the remainder. Labeled nodes that land in neither set are
    discarded from supervision. Deterministic for a given seed.
    """
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    all_labeled = graph.labeled_node_ids()
    if all_labeled.size == 0:
        raise ValueError("graph has no labeled nodes")
    counts = np.bincount(graph.labels[all_labeled], minlength=graph.n_classes)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise ValueError(f"class {graph.label_vocab[empty[0]]!r} has zero labeled nodes")

    rng = np.random.default_rng(seed)
    if test_ids is None:
        test_ids = _stratified_sample(rng, all_labeled, graph.labels, 0.2)
    else:
        test_ids = np.asarray(test_ids, dtype=np.int64)
        outside = test_ids[(test_ids < 0) | (test_ids >= graph.n_nodes)]
        if outside.size:
            raise ValueError(f"test id {outside[0]} is out of range for {graph.n_nodes} nodes")
        ids, repeats = np.unique(test_ids, return_counts=True)
        if np.any(repeats > 1):
            raise ValueError(f"test id {ids[repeats > 1][0]} is listed more than once")
        unlabeled = test_ids[graph.labels[test_ids] == UNLABELED]
        if unlabeled.size:
            raise ValueError(f"test id {unlabeled[0]} has no label")
    pool = np.setdiff1d(all_labeled, test_ids)
    if pool.size == 0:
        raise ValueError("no labeled nodes remain outside the test set")
    pool_counts = np.bincount(graph.labels[pool], minlength=graph.n_classes)
    if np.any(pool_counts == 0):
        raise ValueError("a class has no labeled nodes outside the test set")

    labeled_ids = pool if fraction == 1.0 else _stratified_sample(rng, pool, graph.labels, fraction)
    return SplitSpec(labeled_ids=labeled_ids, test_ids=test_ids)


def _sbm_edges(rng: np.random.Generator, labels: np.ndarray, n_classes: int, p_in: float,
               p_out: float) -> np.ndarray:
    """Upper-triangle SBM edges, one uniform per pair i < j in row-major order.

    The draws are those of one ``rng.random(n * (n - 1) // 2)`` over the
    pairs of ``np.triu_indices(n, k=1)``, drawn a block of rows at a time
    into one reused buffer, so memory is O(SBM_BLOCK_DRAWS + n + edges).
    Only a draw below p_in (>= p_out) can make an edge: a candidate (i, j)
    is kept when j is in i's class (classes are contiguous, so j < the end
    of i's class) or its draw is below p_out.
    """
    n = labels.size
    counts = np.arange(n - 1, 0, -1, dtype=np.int64)  # row i pairs with j = i+1 .. n-1
    row_ends = np.cumsum(counts)  # stream position after row i
    row_starts = row_ends - counts
    class_end = np.searchsorted(labels, np.arange(n_classes), side="right")[labels]
    # a block holds at least one row, so at most max(SBM_BLOCK_DRAWS, n - 1) draws
    draws = np.empty(min(n * (n - 1) // 2, max(SBM_BLOCK_DRAWS, n - 1)))
    blocks = [np.zeros((0, 2), dtype=np.int64)]
    lo = 0
    while lo < counts.size:
        start = row_starts[lo]
        hi = max(lo + 1, int(np.searchsorted(row_ends, start + SBM_BLOCK_DRAWS, side="right")))
        u = rng.random(out=draws[:row_ends[hi - 1] - start])
        at = np.flatnonzero(u < p_in)
        pos = start + at
        i = np.searchsorted(row_starts, pos, side="right") - 1
        j = i + 1 + pos - row_starts[i]
        keep = (j < class_end[i]) | (u[at] < p_out)
        blocks.append(np.stack([i[keep], j[keep]], axis=1))
        lo = hi
    return np.concatenate(blocks)


def synth_sbm(
    n_nodes: int,
    n_classes: int,
    p_in: float,
    p_out: float,
    d: int,
    noise: float,
    seed: int,
) -> TagGraph:
    """Stochastic block model with class-correlated features and templated texts.

    Nodes are assigned to classes in contiguous blocks. Each node's feature
    row is its class centroid (orthogonal unit vectors in d dims) plus
    Gaussian noise of the given scale; its text is a templated sentence
    embedding the class name. All nodes are labeled. Edges take one uniform
    draw per node pair (time quadratic in n_nodes), drawn in row blocks, so
    memory is linear in nodes plus edges.
    """
    if n_classes < 1:
        raise ValueError(f"n_classes={n_classes} must be at least 1")
    if n_classes > d:
        raise ValueError(f"n_classes={n_classes} must not exceed feature dim d={d}")
    if not (0 <= p_out <= p_in <= 1):
        raise ValueError(f"need 0 <= p_out <= p_in <= 1, got p_in={p_in}, p_out={p_out}")
    if not (math.isfinite(noise) and noise >= 0):
        raise ValueError(f"noise={noise} must be finite and non-negative")
    if n_nodes < n_classes:
        raise ValueError(f"need at least one node per class, got n_nodes={n_nodes}, "
                         f"n_classes={n_classes}")

    rng = np.random.default_rng(seed)
    labels = (np.arange(n_nodes, dtype=np.int64) * n_classes) // n_nodes
    edges = _sbm_edges(rng, labels, n_classes, p_in, p_out)
    offsets, targets = _build_csr(n_nodes, edges, symmetrize=True)

    centroids = np.eye(n_classes, d, dtype=np.float64)
    features = centroids[labels] + noise * rng.standard_normal((n_nodes, d))

    vocab = tuple(f"topic-{c}" for c in range(n_classes))
    texts = tuple(
        f"Document {i}. A short note discussing {vocab[labels[i]]} and related ideas."
        for i in range(n_nodes)
    )
    return TagGraph(
        n_nodes=n_nodes,
        csr_offsets=offsets,
        csr_targets=targets,
        features=features.astype(np.float32),
        texts=texts,
        labels=labels,
        label_vocab=vocab,
        directed=False,
    )
