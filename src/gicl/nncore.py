"""Minimal dense 2-D tensor math with reverse-mode gradients.

The operator set the encoder's MLP and its losses need: affine maps,
ReLU, inverted dropout, row normalization, row gather, Gram-matrix pair
dots, softmax cross-entropy and a segmented listwise softmax loss.
``RowAggregator`` is the group-mean operator that feature propagation
runs on, in plain numpy: gicl imports no scipy. Every op appends its
output node to a Tape; backward() walks the tape in reverse creation
order, which is a valid topological order by construction.

Values keep the dtype of their inputs (float32 by default, float64 for
gradient checking). Matmuls, group means and elementwise work run in that
dtype; row norms, row-wise dots, bias sums and both losses accumulate in
float64. Any op producing a non-finite value raises immediately.

Backward rules never refer to their own output node, so a tape holds no
reference cycle and reference counting frees it as soon as the caller
drops it.
"""

from __future__ import annotations

import json
from typing import Callable, Sequence

import numpy as np

from .graphstore import atomic_write

Array = np.ndarray


class Tensor2:
    """A 2-D value node. Leaf tensors hold parameters or constants."""

    __slots__ = ("data", "grad", "_parents", "_backward", "name")

    def __init__(self, data: Array, name: str = ""):
        if data.ndim != 2:
            raise ValueError(f"Tensor2 requires 2-D data, got shape {data.shape}")
        self.data = data
        self.grad: Array | None = None
        self._parents: tuple[Tensor2, ...] = ()
        self._backward: Callable[[Array], None] | None = None
        self.name = name

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a 1x1 tensor, got shape {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor2{tag}(shape={self.shape}, dtype={self.data.dtype})"


class Tape:
    """Ordered record of op outputs for one forward pass."""

    def __init__(self) -> None:
        self.nodes: list[Tensor2] = []

    def record(self, out: Tensor2, parents: tuple[Tensor2, ...], backward: Callable[[Array], None]) -> Tensor2:
        """Append an op output; backward(g) receives d(loss)/d(out) and must
        not refer to out itself, or the tape becomes a reference cycle."""
        flat = out.data.reshape(-1)
        # a self dot is inf or nan whenever an entry is; only then (or on
        # overflow of finite entries) is the entry-wise test needed
        if not np.isfinite(np.dot(flat, flat)) and not np.all(np.isfinite(flat)):
            raise FloatingPointError("op produced a non-finite value")
        out._parents = parents
        out._backward = backward
        self.nodes.append(out)
        return out


def backward(tape: Tape, loss: Tensor2, params: "ParamSet | None" = None) -> dict[str, Array] | None:
    """Reverse-mode gradient accumulation seeded with d(loss)/d(loss)=1.

    Clears stale gradients on every tensor the tape can reach, then applies
    the backward rule of each node that received a gradient, in reverse
    creation order. When a ParamSet is given, returns {name: gradient} for
    every entry (zeros for parameters the loss never touched).
    """
    if loss.data.size != 1:
        raise ValueError("loss must be a scalar (1x1) tensor")
    try:
        stop = tape.nodes.index(loss) + 1
    except ValueError:
        raise ValueError("loss was not produced on this tape") from None

    if params is not None:
        for p in params.tensors.values():
            p.grad = None
    for node in tape.nodes:
        node.grad = None
        for parent in node._parents:
            parent.grad = None

    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes[:stop]):
        if node.grad is not None and node._backward is not None:
            node._backward(node.grad)

    if params is None:
        return None
    return {
        name: p.grad if p.grad is not None else np.zeros_like(p.data)
        for name, p in params.tensors.items()
    }


# ---------------------------------------------------------------------------
# primitives


def _accum(t: Tensor2, g: Array) -> None:
    """Add g to t.grad. The first write keeps g itself, so g must be a fresh
    array or the caller's own output gradient, which nothing reads later."""
    g = g.astype(t.data.dtype, copy=False)
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def linear(tape: Tape, x: Tensor2, w: Tensor2, b: Tensor2 | None = None) -> Tensor2:
    """x @ w, plus a row-broadcast bias when given."""
    if x.cols != w.rows:
        raise ValueError(f"linear: x has {x.cols} cols but w has {w.rows} rows")
    if b is not None and (b.rows != 1 or b.cols != w.cols):
        raise ValueError(f"linear: bias shape {b.shape} does not match output width {w.cols}")
    y = x.data @ w.data
    if b is not None:
        y += b.data

    def back(g: Array) -> None:
        _accum(x, g @ w.data.T)
        _accum(w, x.data.T @ g)
        if b is not None:
            _accum(b, g.sum(axis=0, dtype=np.float64).reshape(1, -1))

    parents = (x, w) if b is None else (x, w, b)
    return tape.record(Tensor2(y), parents, back)


def add(tape: Tape, a: Tensor2, b: Tensor2) -> Tensor2:
    if a.shape != b.shape:
        raise ValueError(f"add: shape mismatch {a.shape} vs {b.shape}")

    def back(g: Array) -> None:
        _accum(a, g.copy())
        _accum(b, g)

    return tape.record(Tensor2(a.data + b.data), (a, b), back)


def relu(tape: Tape, x: Tensor2) -> Tensor2:
    def back(g: Array) -> None:
        _accum(x, g * (x.data > 0))

    return tape.record(Tensor2(np.maximum(x.data, 0)), (x,), back)


def scale(tape: Tape, x: Tensor2, alpha: float) -> Tensor2:
    a = x.data.dtype.type(alpha)

    def back(g: Array) -> None:
        _accum(x, g * a)

    return tape.record(Tensor2(x.data * a), (x,), back)


class RowAggregator:
    """Precomputed mean-over-group operator, reusable across calls.

    Row g of ``apply(x)`` is the mean of x[targets[offsets[g]:offsets[g + 1]]],
    zero for an empty group. It sums the (1/size) * x[j] terms in group order
    from zero, as a CSR sparse product does, to the same bits: by falling group
    size, one vectorized step adds the k-th terms of every group that has one.
    """

    def __init__(self, offsets: Array, targets: Array, n_in: int):
        offsets = np.asarray(offsets, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        problem = ("must be 1-D" if offsets.ndim != 1 or targets.ndim != 1
                   else "are empty" if offsets.size == 0
                   else "must start at 0" if offsets[0] != 0
                   else "must not decrease" if np.any(offsets[1:] < offsets[:-1])
                   else f"must end at the {targets.size} targets" if offsets[-1] != targets.size else "")
        if problem:
            raise ValueError(f"RowAggregator: offsets {problem}")
        if targets.size and (targets.min() < 0 or targets.max() >= n_in):
            raise IndexError(f"RowAggregator: row index out of range for {n_in} rows")
        self.targets, self.n_in, self.counts = targets, n_in, np.diff(offsets)
        self.n_groups = self.counts.size
        self.inv = (1.0 / np.maximum(self.counts, 1)).reshape(-1, 1)
        self.order = np.argsort(-self.counts, kind="stable")
        sizes, firsts = self.counts[self.order], offsets[:-1][self.order]
        # step k: the m groups that have a k-th member, and those members
        with_kth = np.searchsorted(-sizes, -np.arange(sizes.max(initial=0)))
        self.steps = [(m, targets[firsts[:m] + k]) for k, m in enumerate(with_kth.tolist())]

    def apply(self, x: Array) -> Array:
        """The group means of x's rows, in x's dtype."""
        if x.shape[0] != self.n_in:
            raise ValueError(f"RowAggregator expects {self.n_in} rows, got {x.shape[0]}")
        inv = self.inv[self.order].astype(x.dtype)
        total = np.zeros((self.n_groups, x.shape[1]), dtype=x.dtype)
        term = np.empty_like(total)
        for m, cols in self.steps:
            np.take(x, cols, axis=0, out=term[:m], mode="clip")  # ids checked in __init__; raise would buffer
            term[:m] *= inv[:m]
            total[:m] += term[:m]
        out = np.empty_like(total)
        out[self.order] = total
        return out


def mean_rows(tape: Tape, x: Tensor2, agg: RowAggregator) -> Tensor2:
    """Group-wise row means; empty groups yield zero rows."""

    def back(g: Array) -> None:
        grad = np.zeros((agg.n_in, g.shape[1]), dtype=g.dtype)
        np.add.at(grad, agg.targets, np.repeat(g * agg.inv.astype(g.dtype), agg.counts, axis=0))
        _accum(x, grad)

    return tape.record(Tensor2(agg.apply(x.data)), (x,), back)


def l2_normalize_rows(tape: Tape, x: Tensor2) -> Tensor2:
    """Rows rescaled to unit Euclidean norm; zero rows pass through as zero.

    Row norms and the backward projections accumulate in float64; the
    elementwise work stays in the input dtype.
    """
    norm = np.sqrt(np.einsum("ij,ij->i", x.data, x.data, dtype=np.float64))
    inv = (1.0 / np.where(norm > 0, norm, 1.0)).astype(x.data.dtype).reshape(-1, 1)
    y = x.data * inv

    def back(g: Array) -> None:
        proj = np.einsum("ij,ij->i", g, y, dtype=np.float64).astype(y.dtype).reshape(-1, 1)
        _accum(x, (g - y * proj) * inv)

    return tape.record(Tensor2(y), (x,), back)


def dropout(tape: Tape, x: Tensor2, rate: float, rng: np.random.Generator) -> Tensor2:
    """Inverted dropout at a rate in (0, 1). The mask covers x's own rows."""
    if not 0 < rate < 1:
        raise ValueError(f"dropout rate must be in (0, 1), got {rate}")
    mask = (rng.random(x.shape) >= rate).astype(x.data.dtype) / x.data.dtype.type(1 - rate)

    def back(g: Array) -> None:
        _accum(x, g * mask)

    return tape.record(Tensor2(x.data * mask), (x,), back)


def gather_rows(tape: Tape, x: Tensor2, ids: Sequence[int]) -> Tensor2:
    idx = np.asarray(ids, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= x.rows):
        raise IndexError("gather_rows: row index out of range")

    def back(g: Array) -> None:
        grad = np.zeros((x.rows, g.shape[1]), dtype=g.dtype)
        np.add.at(grad, idx, g)  # repeated rows sum their gradients in order of occurrence
        _accum(x, grad)

    return tape.record(Tensor2(x.data[idx]), (x,), back)


def rowwise_dot(tape: Tape, a: Tensor2, b: Tensor2) -> Tensor2:
    """Per-row inner products: output column vector of shape (rows, 1)."""
    if a.shape != b.shape:
        raise ValueError(f"rowwise_dot: shape mismatch {a.shape} vs {b.shape}")
    d = np.sum(a.data.astype(np.float64) * b.data.astype(np.float64), axis=1, keepdims=True)

    def back(g: Array) -> None:
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return tape.record(Tensor2(d.astype(a.data.dtype)), (a, b), back)


def gram_pairs(tape: Tape, x: Tensor2, left: Sequence[int], right: Sequence[int], alpha: float = 1.0) -> Tensor2:
    """alpha * <x[left[j]], x[right[j]]> for every pair j, as a column vector.

    Equal to gather_rows on both sides, rowwise_dot and scale, without
    materializing a row per pair: the Gram matrix of all of x's rows is
    computed and indexed at the pairs, and its backward pass is two matmuls.
    That costs rows² · cols whatever the pairs, so it suits an x whose rows
    the pairs mostly cover (training passes the labeled rows only).
    """
    li = np.asarray(left, dtype=np.int64)
    ri = np.asarray(right, dtype=np.int64)
    if li.shape != ri.shape or li.ndim != 1:
        raise ValueError(f"gram_pairs: {li.shape} left ids but {ri.shape} right ids")
    for idx in (li, ri):
        if idx.size and (idx.min() < 0 or idx.max() >= x.rows):
            raise IndexError("gram_pairs: row index out of range")
    dt = x.data.dtype
    gram = (x.data @ x.data.T) * dt.type(alpha)
    flat = li * x.rows + ri

    def back(g: Array) -> None:
        dgram = np.bincount(flat, weights=g.reshape(-1), minlength=gram.size)
        dgram = (dgram * alpha).astype(dt).reshape(gram.shape)
        _accum(x, dgram @ x.data + dgram.T @ x.data)

    return tape.record(Tensor2(gram.reshape(-1)[flat].reshape(-1, 1)), (x,), back)


def softmax_xent(tape: Tape, logits: Tensor2, targets: Sequence[int]) -> Tensor2:
    """Mean of -log softmax(logits)[target] over rows, max-subtracted."""
    t = np.asarray(targets, dtype=np.int64)
    if t.shape != (logits.rows,):
        raise ValueError(f"softmax_xent: expected {logits.rows} targets, got {t.shape}")
    if t.size and (t.min() < 0 or t.max() >= logits.cols):
        raise ValueError("softmax_xent: target class index out of range")
    z = logits.data.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    denom = ez.sum(axis=1, keepdims=True)
    logp = z - np.log(denom)
    n = logits.rows
    loss = -logp[np.arange(n), t].sum() / n
    probs = ez / denom

    def back(g: Array) -> None:
        delta = probs.copy()
        delta[np.arange(n), t] -= 1.0
        _accum(logits, (float(g[0, 0]) / n) * delta)

    return tape.record(Tensor2(np.array([[loss]], dtype=logits.data.dtype)), (logits,), back)


def listwise_xent(tape: Tape, scores: Tensor2, sizes: Sequence[int], weights: Array) -> Tensor2:
    """Weighted softmax cross-entropy within each segment of a score column.

    ``sizes`` are the lengths of consecutive segments that together cover
    the column; each is one candidate list. The softmax runs over a segment
    and every candidate with weight w > 0 contributes w * (-log softmax(score)).
    The total is divided by the sum of weights.
    """
    if scores.cols != 1:
        raise ValueError("listwise_xent expects a column vector of scores")
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if w.shape[0] != scores.rows:
        raise ValueError(f"listwise_xent: {scores.rows} scores but {w.shape[0]} weights")
    sizes = np.asarray(sizes, dtype=np.int64).reshape(-1)
    if sizes.size == 0 or sizes.min() < 1:
        raise ValueError("listwise_xent: needs at least one segment, each non-empty")
    if sizes.sum() != scores.rows:
        raise ValueError(f"listwise_xent: segments cover {sizes.sum()} of {scores.rows} scores")
    firsts = np.cumsum(sizes) - sizes
    seg = np.repeat(np.arange(sizes.size), sizes)
    s = scores.data.astype(np.float64).reshape(-1)
    m = np.maximum.reduceat(s, firsts)
    e = np.exp(s - m[seg])
    esum = np.add.reduceat(e, firsts)
    wsum = np.add.reduceat(w, firsts)
    total_w = float(wsum.sum())
    if total_w <= 0:
        raise ValueError("listwise_xent: total positive weight must be > 0")
    loss = float(np.dot(w, m[seg] + np.log(esum)[seg] - s)) / total_w
    grad_s = wsum[seg] * (e / esum[seg]) - w

    def back(g: Array) -> None:
        _accum(scores, (float(g[0, 0]) / total_w) * grad_s.reshape(-1, 1))

    return tape.record(Tensor2(np.array([[loss]], dtype=scores.data.dtype)), (scores,), back)


def sum_all(tape: Tape, x: Tensor2) -> Tensor2:
    """Sum of every entry, as a 1x1 tensor (float64 accumulation)."""

    def back(g: Array) -> None:
        _accum(x, np.full_like(x.data, g[0, 0]))

    out = np.array([[x.data.sum(dtype=np.float64)]], dtype=x.data.dtype)
    return tape.record(Tensor2(out), (x,), back)


def combine_scalars(tape: Tape, a: Tensor2, b: Tensor2, wa: float, wb: float) -> Tensor2:
    """wa*a + wb*b for two scalar tensors."""
    if a.data.size != 1 or b.data.size != 1:
        raise ValueError("combine_scalars expects 1x1 tensors")
    dt = a.data.dtype

    def back(g: Array) -> None:
        _accum(a, g * dt.type(wa))
        _accum(b, g * dt.type(wb))

    return tape.record(Tensor2(dt.type(wa) * a.data + dt.type(wb) * b.data), (a, b), back)


# ---------------------------------------------------------------------------
# parameters and optimizer


class ParamSet:
    """Named trainable tensors in one flat buffer, with Adam's moments as one
    array each: every tensor's data is a view of ``flat``."""

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self.tensors: dict[str, Tensor2] = {}
        self.flat = self.m = self.v = np.zeros(0, self.dtype)  # add gives each its own array
        self.step = 0

    def add(self, name: str, values: Array) -> Tensor2:
        """Append a tensor; the buffer is reallocated and every view rebound."""
        if name in self.tensors:
            raise ValueError(f"parameter {name!r} already exists")
        t = Tensor2(np.array(values, dtype=self.dtype), name=name)
        self.flat = np.concatenate([self.flat, t.data.reshape(-1)])
        self.m, self.v = (np.concatenate([a, np.zeros(t.data.size, self.dtype)]) for a in (self.m, self.v))
        self.tensors[name] = t
        start = 0
        for p in self.tensors.values():
            p.data = self.flat[start:start + p.data.size].reshape(p.data.shape)
            start += p.data.size
        return t

    def __getitem__(self, name: str) -> Tensor2:
        return self.tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def names(self) -> list[str]:
        return list(self.tensors)

    def save(self, path) -> None:
        """JSON header line followed by raw little-endian float32 payloads."""
        names = self.names()
        header = {
            "names": names,
            "shapes": {n: list(self.tensors[n].shape) for n in names},
            "step": self.step,
            "dtype": "f32le",
        }
        with atomic_write(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            fh.write(self.flat.astype("<f4").tobytes())  # the tensors in name order

    @classmethod
    def load(cls, path) -> "ParamSet":
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode("utf-8"))
            params = cls()
            for n in header["names"]:
                rows, cols = header["shapes"][n]
                raw = fh.read(rows * cols * 4)
                if len(raw) != rows * cols * 4:
                    raise ValueError(f"parameter file truncated while reading {n!r}")
                params.add(n, np.frombuffer(raw, dtype="<f4").reshape(rows, cols))
            params.step = int(header["step"])
        return params


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


def adam_step(params: ParamSet, grads: dict[str, Array], lr: float = 0.01) -> None:
    """One in-place Adam update with bias correction, over the whole buffer.

    Every gradient is checked before any state moves, so a refused step
    leaves the parameters, the moments and ``step`` as they were.
    """
    for name, p in params.tensors.items():
        shape = grads[name].shape if name in grads else "missing"
        if shape != p.data.shape:
            raise ValueError(f"adam_step: gradient shape {shape} != param shape {p.data.shape} for {name!r}")
    g = np.concatenate([grads[name].reshape(-1) for name in params.tensors] or [params.flat])
    params.step += 1
    m, v = params.m, params.v
    m *= BETA1
    m += (1 - BETA1) * g
    v *= BETA2
    v += (1 - BETA2) * g * g
    mhat = m / (1 - BETA1**params.step)
    vhat = v / (1 - BETA2**params.step)
    params.flat -= lr * mhat / (np.sqrt(vhat) + EPS)
