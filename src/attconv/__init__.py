"""Attention-augmented convolution for sentence classification."""

from .attention import match_scores, project_text
from .autodiff import Node, GradCheckReport, backward, grad_check, zero_grads
from .data import (
    Dataset,
    Example,
    Vocabulary,
    build_vocab,
    gen_context_match,
    gen_nonlocal_match,
    load_jsonl,
    load_pretrained,
    make_batches,
    save_jsonl,
    tokenize,
)
from .model import (
    AdaGradState,
    Model,
    ModelConfig,
    TrainConfig,
    adagrad_step,
    build_model,
    count_params,
    cross_entropy,
    evaluate,
    forward,
    forward_ids,
    train,
)
from .checkpoint import load_checkpoint, save_checkpoint

__version__ = "0.1.0"

__all__ = [
    "AdaGradState",
    "Dataset",
    "Example",
    "GradCheckReport",
    "Model",
    "ModelConfig",
    "Node",
    "TrainConfig",
    "Vocabulary",
    "adagrad_step",
    "backward",
    "build_model",
    "build_vocab",
    "count_params",
    "cross_entropy",
    "evaluate",
    "forward",
    "forward_ids",
    "gen_context_match",
    "gen_nonlocal_match",
    "grad_check",
    "load_checkpoint",
    "load_jsonl",
    "load_pretrained",
    "make_batches",
    "match_scores",
    "project_text",
    "save_checkpoint",
    "save_jsonl",
    "tokenize",
    "train",
    "zero_grads",
]
