"""GraphSAGE-style encoder: mean neighbor aggregation plus a linear head.

Layer rule (every neighbour, no neighbor sampling):

    h_v <- ReLU( h_v @ W_self + mean_{u in N(v)} h_u @ W_neigh + b )

The last layer skips the ReLU so embeddings are not confined to the
positive orthant, and the output rows are L2-normalized so cosine
similarity downstream reduces to a dot product. Dropout (inverted) sits
between layers and only fires when the training flag is set. Each layer,
dropout included, is one ``nncore.sage_layer`` node on the tape.

An EncodePlan says which rows each layer computes. Evaluation encodes the
whole graph; training computes only the receptive field of the nodes its
losses read: layer l within L-1-l hops of them. Each row it computes is
the same sum, over the same neighbours in the same order, as on the whole
graph. Dropout draws its masks for the computed rows alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nncore
from .graphstore import TagGraph, read_matrix, write_matrix
from .nncore import ParamSet, RowAggregator, Tape, Tensor2


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int
    n_classes: int
    n_layers: int
    hidden_dim: int
    dropout: float


@dataclass
class EmbeddingTable:
    """Final-layer node representations, one row per node."""

    vectors: np.ndarray

    def save(self, path_prefix: str | Path) -> None:
        """Binary + JSON header pair, same layout as bundle features."""
        write_matrix(Path(path_prefix), self.vectors)

    @classmethod
    def load(cls, path_prefix: str | Path) -> "EmbeddingTable":
        return cls(vectors=read_matrix(Path(path_prefix)))


def init_params(config: EncoderConfig, seed: int, dtype=np.float32) -> ParamSet:
    """Glorot-uniform weights, zero biases; deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    params = ParamSet(dtype=dtype)
    d_in, d_out = config.input_dim, config.hidden_dim
    for i in range(config.n_layers):
        a = np.sqrt(6.0 / (d_in + d_out))
        params.add(f"layer{i}.w_self", rng.uniform(-a, a, size=(d_in, d_out)))
        params.add(f"layer{i}.w_neigh", rng.uniform(-a, a, size=(d_in, d_out)))
        params.add(f"layer{i}.b", np.zeros((1, d_out)))
        d_in = d_out
    a = np.sqrt(6.0 / (config.hidden_dim + config.n_classes))
    params.add("head.w", rng.uniform(-a, a, size=(config.hidden_dim, config.n_classes)))
    params.add("head.b", np.zeros((1, config.n_classes)))
    return params


@dataclass(frozen=True)
class EncodePlan:
    """The rows each layer computes.

    ``rows[l]`` holds the ascending ids of the nodes layer l reads and
    ``rows[l + 1]`` those it writes, so ``rows[-1]`` are the embedding rows
    returned. Layer l's aggregator has one group per node of ``rows[l + 1]``
    over positions in ``rows[l]``; ``own[l]`` holds the positions of
    ``rows[l + 1]`` in ``rows[l]``, or None where the two are equal. Every
    group keeps its node's full neighbourhood, so each computed row is the
    sum the full graph computes, in the same order.
    """

    rows: tuple[np.ndarray, ...]
    aggregators: tuple[RowAggregator, ...]
    own: tuple[np.ndarray | None, ...]


def encode_plan(graph: TagGraph, n_layers: int, nodes: np.ndarray | None = None) -> EncodePlan:
    """The plan whose last layer yields the embeddings of ``nodes``; every
    node when None. Layer l then computes the nodes within
    ``n_layers - 1 - l`` hops of them (GraphSAGE's minibatch receptive field)."""
    n = graph.n_nodes
    out = np.arange(n) if nodes is None else np.unique(np.asarray(nodes, dtype=np.int64))
    if out.size and (out[0] < 0 or out[-1] >= n):
        raise ValueError(f"encode_plan: node ids must lie in [0, {n}), got {out[0]}..{out[-1]}")
    offsets, targets = graph.csr_offsets, graph.csr_targets
    rows, aggregators, own = [out], [], []
    agg, self_pos = None, None
    for _ in range(n_layers):
        groups = rows[0]
        # once a layer reads only the rows it writes, every layer below it is the same
        if agg is None or self_pos is not None:
            counts = offsets[groups + 1] - offsets[groups]
            group_offsets = np.concatenate([[0], np.cumsum(counts)])
            edges = np.repeat(offsets[groups] - group_offsets[:-1], counts) + np.arange(group_offsets[-1])
            neigh = targets[edges]
            inputs = groups if groups.size == n else np.union1d(groups, neigh)
            pos = neigh if inputs.size == n else np.searchsorted(inputs, neigh)
            agg = RowAggregator(group_offsets, pos, inputs.size)
            self_pos = None if inputs.size == groups.size else np.searchsorted(inputs, groups)
        rows.insert(0, groups if self_pos is None else inputs)
        aggregators.insert(0, agg)
        own.insert(0, self_pos)
    return EncodePlan(tuple(rows), tuple(aggregators), tuple(own))


def encode_on_tape(
    tape: Tape,
    inputs: Tensor2,
    plan: EncodePlan,
    params: ParamSet,
    config: EncoderConfig,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor2:
    """Forward pass on an existing tape, one ``nncore.sage_layer`` per layer,
    from ``inputs``, the feature rows of ``plan.rows[0]``; returns the
    L2-normalized embeddings of ``plan.rows[-1]``."""
    if inputs.shape != (plan.rows[0].size, config.input_dim):
        raise ValueError(f"feature rows x dim {inputs.shape}: the plan reads {plan.rows[0].size} rows, "
                         f"input_dim is {config.input_dim}")
    if len(plan.aggregators) != config.n_layers:
        raise ValueError(f"plan has {len(plan.aggregators)} layers, config {config.n_layers}")
    rate = config.dropout if training else 0.0
    if rate > 0 and rng is None:
        raise ValueError("training-mode encoding with dropout needs an rng")
    h = inputs
    for i in range(config.n_layers):
        hidden = i < config.n_layers - 1
        h = nncore.sage_layer(
            tape, h, plan.aggregators[i], plan.own[i], params[f"layer{i}.w_self"],
            params[f"layer{i}.w_neigh"], params[f"layer{i}.b"], hidden, rate if hidden else 0.0, rng,
        )
    return nncore.l2_normalize_rows(tape, h)


def encode_all(graph: TagGraph, params: ParamSet, config: EncoderConfig) -> EmbeddingTable:
    """Encode every node in eval mode (no dropout); bitwise repeatable."""
    feats = Tensor2(graph.features.astype(params.dtype))
    out = encode_on_tape(Tape(), feats, encode_plan(graph, config.n_layers), params, config)
    return EmbeddingTable(vectors=out.data)


def logits_on_tape(tape: Tape, embeddings: Tensor2, params: ParamSet) -> Tensor2:
    """Class logits ``embeddings @ head.w + head.b``."""
    if "head.w" not in params:
        raise ValueError("parameter set has no classification head")
    return nncore.linear(tape, embeddings, params["head.w"], params["head.b"])


def classify_logits(embeddings: EmbeddingTable, params: ParamSet) -> np.ndarray:
    """Per-node class logits from the linear head, on a throwaway tape."""
    return logits_on_tape(Tape(), Tensor2(embeddings.vectors), params).data
