"""Decoupled graph encoder: propagate the features once, then a 2-layer MLP.

    Z = (D^-1 (A + I))^h X                            (``propagate``)
    e_v = normalize( ReLU(z_v @ W1 + b1) @ W2 + b2 )

Propagation averages each node's features with its neighbours' h times
(h = ``n_layers``, the number of hops). It has no parameters, so it runs
once per graph in float64, outside the tape. The MLP is the only learned
part: inverted dropout sits after its ReLU and fires only when the
training flag is set, and the output rows are L2-normalized so cosine
similarity downstream reduces to a dot product. This is the SGC / SIGN
member of the GNN family (Wu et al., arXiv 1902.07153; Frasca et al.,
arXiv 2004.11198): a node's embedding depends on its own propagated row
alone, so training reads only the rows its losses use.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nncore
from .graphstore import TagGraph, read_matrix, write_matrix
from .nncore import ParamSet, RowAggregator, Tape, Tensor2

MLP_PARAMS = ("mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2")


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int
    n_classes: int
    n_layers: int  # propagation hops
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
    for i, (d_in, d_out) in enumerate(((config.input_dim, config.hidden_dim),
                                       (config.hidden_dim, config.hidden_dim)), start=1):
        a = np.sqrt(6.0 / (d_in + d_out))
        params.add(f"mlp.w{i}", rng.uniform(-a, a, size=(d_in, d_out)))
        params.add(f"mlp.b{i}", np.zeros((1, d_out)))
    a = np.sqrt(6.0 / (config.hidden_dim + config.n_classes))
    params.add("head.w", rng.uniform(-a, a, size=(config.hidden_dim, config.n_classes)))
    params.add("head.b", np.zeros((1, config.n_classes)))
    return params


def propagate(graph: TagGraph, hops: int) -> np.ndarray:
    """(D^-1 (A + I))^hops X in float64: each hop replaces every row by the
    mean of its own and its stored neighbours' rows, so an isolated node
    keeps its own row. Computed once per graph and hop count: later calls
    return the same read-only array, kept in ``graph.propagated``."""
    if hops < 0:
        raise ValueError(f"hops must be >= 0, got {hops}")
    if hops in graph.propagated:
        return graph.propagated[hops]
    n = graph.n_nodes
    # each node's group is its neighbours followed by itself
    targets = np.insert(graph.csr_targets, graph.csr_offsets[1:], np.arange(n))
    mean = RowAggregator(graph.csr_offsets + np.arange(n + 1), targets, n)
    x = graph.features.astype(np.float64)
    for _ in range(hops):
        x = mean.apply(x)
    x.setflags(write=False)
    graph.propagated[hops] = x
    return x


def encode_on_tape(
    tape: Tape,
    inputs: Tensor2,
    params: ParamSet,
    config: EncoderConfig,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor2:
    """The MLP on an existing tape, from ``inputs``, propagated feature rows;
    returns their L2-normalized embeddings, one per row."""
    missing = [name for name in MLP_PARAMS if name not in params]
    if missing:
        raise ValueError(f"parameter set has no {', '.join(missing)}: it is not a propagate-then-MLP "
                         "encoder (a GraphSAGE model from gicl 0.1 has layer* parameters), so it "
                         "cannot encode; retrain the model")
    if inputs.cols != config.input_dim:
        raise ValueError(f"feature rows have dim {inputs.cols}, input_dim is {config.input_dim}")
    rate = config.dropout if training else 0.0
    if rate > 0 and rng is None:
        raise ValueError("training-mode encoding with dropout needs an rng")
    h = nncore.relu(tape, nncore.linear(tape, inputs, params["mlp.w1"], params["mlp.b1"]))
    if rate > 0:
        h = nncore.dropout(tape, h, rate, rng)
    h = nncore.linear(tape, h, params["mlp.w2"], params["mlp.b2"])
    return nncore.l2_normalize_rows(tape, h)


def encode_all(graph: TagGraph, params: ParamSet, config: EncoderConfig) -> EmbeddingTable:
    """Encode every node in eval mode (no dropout); bitwise repeatable."""
    inputs = Tensor2(propagate(graph, config.n_layers).astype(params.dtype))
    return EmbeddingTable(vectors=encode_on_tape(Tape(), inputs, params, config).data)


def logits_on_tape(tape: Tape, embeddings: Tensor2, params: ParamSet) -> Tensor2:
    """Class logits ``embeddings @ head.w + head.b``."""
    if "head.w" not in params:
        raise ValueError("parameter set has no classification head")
    return nncore.linear(tape, embeddings, params["head.w"], params["head.b"])


def classify_logits(embeddings: EmbeddingTable, params: ParamSet) -> np.ndarray:
    """Per-node class logits from the linear head, on a throwaway tape."""
    return logits_on_tape(Tape(), Tensor2(embeddings.vectors), params).data
