"""GraphSAGE-style encoder: mean neighbor aggregation plus a linear head.

Layer rule (full batch, no neighbor sampling):

    h_v <- ReLU( h_v @ W_self + mean_{u in N(v)} h_u @ W_neigh + b )

The last layer skips the ReLU so embeddings are not confined to the
positive orthant, and the output rows are L2-normalized so cosine
similarity downstream reduces to a dot product. Dropout (inverted) sits
between layers and only fires when the training flag is set.
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
    n_layers: int = 3
    hidden_dim: int = 256
    dropout: float = 0.5

    def __post_init__(self) -> None:
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")


@dataclass
class EmbeddingTable:
    """Final-layer node representations, one row per node."""

    vectors: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

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


def neighbor_aggregator(graph: TagGraph) -> RowAggregator:
    return RowAggregator(graph.csr_offsets, graph.csr_targets, graph.n_nodes)


def encode_on_tape(
    tape: Tape,
    features: Tensor2,
    aggregator: RowAggregator,
    params: ParamSet,
    config: EncoderConfig,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor2:
    """Forward pass on an existing tape; returns the L2-normalized embeddings."""
    if features.cols != config.input_dim:
        raise ValueError(f"feature dim {features.cols} != configured input_dim {config.input_dim}")
    if training and config.dropout > 0 and rng is None:
        raise ValueError("training-mode encoding with dropout needs an rng")
    h = features
    for i in range(config.n_layers):
        neigh = nncore.mean_rows(tape, h, aggregator)
        own = nncore.linear(tape, h, params[f"layer{i}.w_self"], params[f"layer{i}.b"])
        agg = nncore.linear(tape, neigh, params[f"layer{i}.w_neigh"])
        h = nncore.add(tape, own, agg)
        if i < config.n_layers - 1:
            h = nncore.relu(tape, h)
            if training and config.dropout > 0:
                h = nncore.dropout(tape, h, config.dropout, rng)
    return nncore.l2_normalize_rows(tape, h)


def encode_all(graph: TagGraph, params: ParamSet, config: EncoderConfig) -> EmbeddingTable:
    """Encode every node in eval mode (no dropout); bitwise repeatable."""
    feats = Tensor2(graph.features.astype(params.dtype))
    out = encode_on_tape(Tape(), feats, neighbor_aggregator(graph), params, config)
    return EmbeddingTable(vectors=out.data.copy())


def logits_on_tape(tape: Tape, embeddings: Tensor2, params: ParamSet) -> Tensor2:
    """Class logits ``embeddings @ head.w + head.b``."""
    if "head.w" not in params:
        raise ValueError("parameter set has no classification head")
    return nncore.linear(tape, embeddings, params["head.w"], params["head.b"])


def classify_logits(embeddings: EmbeddingTable, params: ParamSet) -> np.ndarray:
    """Per-node class logits from the linear head, on a throwaway tape."""
    return logits_on_tape(Tape(), Tensor2(embeddings.vectors), params).data
