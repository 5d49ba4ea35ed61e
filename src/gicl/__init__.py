"""gicl: graph in-context learning.

Trains a graph retriever over a text-attributed graph so that the labeled
nodes it retrieves make the best in-context examples for an external
language model, using the model's own perplexity feedback as the training
signal. The retriever propagates the node features over the graph once
and trains a two-layer MLP on the propagated rows (the SGC / SIGN branch
of the GNN family, in place of AskGNN's GraphSAGE). Ships the full loop:
graph loading and synthesis, a small reverse-mode tensor core, the
encoder, exact cosine retrieval, perplexity scoring with a persistent
cache, the combined training objective, prompt rendering and answer
parsing, and an evaluation CLI with baselines.
"""

__version__ = "0.2.0"

from .graphstore import SplitSpec, TagGraph, load_bundle, sample_label_fraction, synth_sbm
from .prompts import DEFAULT_TEMPLATE, PromptTemplate, load_template
from .scoring import FeedbackCache, ScorerSpec
from .training import TrainConfig, train

__all__ = [
    "DEFAULT_TEMPLATE",
    "FeedbackCache",
    "PromptTemplate",
    "ScorerSpec",
    "SplitSpec",
    "TagGraph",
    "TrainConfig",
    "__version__",
    "load_bundle",
    "load_template",
    "sample_label_fraction",
    "synth_sbm",
    "train",
]
