"""Attributed network embedding via virtual attribute nodes and biased walks."""

__version__ = "0.1.0"

from .graph import (AttributedGraph, AugmentedGraph, GraphFormatError,
                    build_augmented, load_attributes, load_edge_list,
                    load_labels, stats)
from .walks import (SF, STF, TF, Corpus, TransitionModel, WalkParams,
                    generate_corpus, generate_walk, preprocess_transitions,
                    transition_distribution)
from .sgns import EmbeddingMatrix, TrainParams, build_vocabulary, train

__all__ = [
    "AttributedGraph", "AugmentedGraph", "GraphFormatError",
    "build_augmented", "load_attributes", "load_edge_list", "load_labels",
    "stats",
    "SF", "TF", "STF", "Corpus", "TransitionModel", "WalkParams",
    "generate_corpus", "generate_walk", "preprocess_transitions",
    "transition_distribution",
    "EmbeddingMatrix", "TrainParams", "build_vocabulary", "train",
    "__version__",
]
