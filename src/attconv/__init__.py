"""Attention-augmented convolution for sentence classification.

One BLAS thread is library policy: OpenBLAS splits a wide matmul across
threads in a way that changes its last bits, so a seed would otherwise give
different checkpoints on hosts with different core counts. The thread
variables are forced to 1 before numpy is first imported; when numpy is
already loaded, the count is set on its loaded OpenBLAS through ctypes.
"""

import os as _os
import sys as _sys

BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# thread setters exported by OpenBLAS builds: numpy's bundled 64-bit-integer
# build, other 64-bit-integer builds, then the plain one
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                 "openblas_set_num_threads")


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process (Linux)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(None, 5)[-1].strip() for line in fh}
    except OSError:
        return []
    return sorted(p for p in paths if "openblas" in _os.path.basename(p))


def _limit_blas_threads() -> None:
    for var in _THREAD_VARS:
        _os.environ[var] = str(BLAS_THREADS)
    if "numpy" not in _sys.modules:
        return  # OpenBLAS reads the variables when numpy first loads it
    import ctypes

    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(BLAS_THREADS)
                break


_limit_blas_threads()

from .attention import match_scores
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
    Model,
    ModelConfig,
    TrainConfig,
    adagrad_step,
    attention_records,
    build_model,
    count_params,
    cross_entropy,
    evaluate,
    forward,
    forward_batch,
    forward_ids,
    train,
)
from .checkpoint import load_checkpoint, save_checkpoint

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "Example",
    "GradCheckReport",
    "Model",
    "ModelConfig",
    "Node",
    "TrainConfig",
    "Vocabulary",
    "adagrad_step",
    "attention_records",
    "backward",
    "build_model",
    "build_vocab",
    "count_params",
    "cross_entropy",
    "evaluate",
    "forward",
    "forward_batch",
    "forward_ids",
    "gen_context_match",
    "gen_nonlocal_match",
    "grad_check",
    "load_checkpoint",
    "load_jsonl",
    "load_pretrained",
    "make_batches",
    "match_scores",
    "save_checkpoint",
    "save_jsonl",
    "tokenize",
    "train",
    "zero_grads",
]
