"""Command line driver: train, eval, gradcheck, attmap, params.

All commands print machine-parseable JSON on stdout (the attention SVG
export writes files instead). Exit codes: 0 success, 1 gradient check
failure, 2 configuration problem or any other library error, 3 data
problem, 4 numeric problem (a non-finite loss, attention weight or
gradient, or nondeterminism).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import autodiff as ad
from .attmap import export_attention
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (SEP_TOKEN, Dataset, Vocabulary, build_vocab, load_jsonl, load_pretrained,
                   parse_json, utf8_text)
from .errors import AttconvError, ConfigError, DataError, DeterminismError, DivergenceError
from .model import (
    Model,
    ModelConfig,
    TrainConfig,
    build_model,
    count_params,
    cross_entropy,
    evaluate,
    forward_batch,
    train,
)

SEED_ENV = "ATTCONV_SEED"

_MODEL_KEYS = set(ModelConfig().to_json())
_TRAIN_KEYS = set(TrainConfig().to_json())
_EXTRA_KEYS = {"embeddings"}  # optional path to pretrained word vectors

# params --config and gradcheck name the classes "0".."K-1" themselves; the
# bound keeps that list (about 60 bytes a name) small before build_model runs
_MAX_UNNAMED_CLASSES = 10**6


def _read_config(path: str) -> tuple[ModelConfig, TrainConfig, dict]:
    try:
        with utf8_text(path, ConfigError) as fh:
            raw = parse_json(fh.read(), path, ConfigError)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(raw) - _MODEL_KEYS - _TRAIN_KEYS - _EXTRA_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    if not isinstance(raw.get("embeddings", ""), str):
        raise ConfigError(f"{path}: embeddings must be a path string")
    model_cfg = ModelConfig.from_json({k: v for k, v in raw.items() if k in _MODEL_KEYS})
    train_cfg = TrainConfig.from_json({k: v for k, v in raw.items() if k in _TRAIN_KEYS})
    extras = {k: v for k, v in raw.items() if k in _EXTRA_KEYS}
    return model_cfg, train_cfg, extras


def _resolve_seed(flag_value: int | None, config_seed: int) -> int:
    """Precedence: --seed flag, then ATTCONV_SEED, then the config file."""
    if flag_value is not None:
        return flag_value
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{SEED_ENV} must be an integer, got {env!r}") from None
    return config_seed


def _load_dataset(path: str, what: str, label_names: list[str] | None = None) -> Dataset:
    if not os.path.exists(path):
        raise DataError(f"{what} file not found: {path}")
    ds = load_jsonl(path, label_names)
    if len(ds) == 0:
        raise DataError(f"{what} file is empty: {path}")
    return ds


def cmd_train(args) -> int:
    model_cfg, train_cfg, extras = _read_config(args.config)
    model_cfg.seed = _resolve_seed(args.seed, model_cfg.seed)
    # checked before any work, so that a trained model is never lost to a bad path
    out_dir = os.path.dirname(args.out) or "."
    if not args.out or os.path.isdir(args.out) or not os.path.isdir(out_dir):
        raise DataError(f"--out must name a file in an existing directory: {args.out}")
    train_ds = _load_dataset(args.train, "--train")
    dev_ds = None
    if args.dev:
        dev_ds = _load_dataset(args.dev, "--dev", train_ds.label_names)

    if model_cfg.num_classes != len(train_ds.label_names):
        raise ConfigError(
            f"config num-classes is {model_cfg.num_classes} but the training data "
            f"has {len(train_ds.label_names)} labels"
        )
    pretrained = None
    if "embeddings" in extras:
        epath = extras["embeddings"]
        if not os.path.exists(epath):
            raise DataError(f"embeddings file not found: {epath}")
        pretrained = load_pretrained(epath, model_cfg.d)

    extra_tokens = (SEP_TOKEN,) if model_cfg.context_mode == "multi-conc" else ()
    vocab = build_vocab(train_ds.examples,
                        pretrained=pretrained[0] if pretrained else None,
                        extra_tokens=extra_tokens)
    model = build_model(model_cfg, vocab, train_ds.label_names, pretrained=pretrained)
    train(model, train_ds, train_cfg, dev_data=dev_ds, emit=print)
    save_checkpoint(args.out, model, train_cfg)
    return 0


def cmd_eval(args) -> int:
    model, _ = load_checkpoint(args.model)
    ds = _load_dataset(args.data, "--data", model.label_names)
    result = evaluate(ds, model)
    print(json.dumps({
        "accuracy": result.accuracy,
        "loss": result.loss,
        "n": result.n,
        "labels": model.label_names,
        "confusion": result.confusion.tolist(),
    }))
    return 0


def _unnamed_labels(num_classes: int) -> list[str]:
    """Class names "0".."K-1" for a model built from a config alone."""
    if num_classes > _MAX_UNNAMED_CLASSES:
        raise ConfigError(
            f"num-classes {num_classes} exceeds {_MAX_UNNAMED_CLASSES} for a model without data"
        )
    return [str(k) for k in range(num_classes)]


def _gradcheck_model(model_cfg: ModelConfig) -> tuple[Model, list[int], list[list[int]]]:
    """A tiny deterministic probe model plus one fixed encoded example."""
    cfg = replace(model_cfg, d=min(model_cfg.d, 8))  # small so the check stays tractable
    vocab = Vocabulary()
    for i in range(12):
        vocab.add(f"t{i}")
    vocab.add(SEP_TOKEN)  # after t0..t11, so multi-conc can join its contexts
    model = build_model(cfg, vocab, _unnamed_labels(cfg.num_classes))
    text_ids = [2, 3, 4, 5, 6]
    if cfg.context_mode == "intra":
        ctx_ids: list[list[int]] = []
    elif cfg.context_mode in ("multi-wise", "multi-conc"):
        ctx_ids = [[7, 8, 9], [10, 11, 12, 13]]
    else:
        ctx_ids = [[7, 8, 9, 10, 11, 12]]
    return model, text_ids, ctx_ids


def cmd_gradcheck(args) -> int:
    model_cfg, _, _ = _read_config(args.config)
    model_cfg.seed = _resolve_seed(args.seed, model_cfg.seed)
    model, text_ids, ctx_ids = _gradcheck_model(model_cfg)
    label = model.config.num_classes - 1

    def build_loss():
        return cross_entropy(forward_batch(model, [(text_ids, ctx_ids)]), [label])

    report = ad.grad_check(build_loss, model.params, tolerance=args.tolerance)
    print(json.dumps({
        "variant": model.config.variant,
        "d": model.config.d,
        "pass": report.passed,
        "tolerance": report.tolerance,
        "step": report.step,
        "worst": {"tensor": report.worst_tensor, "error": report.max_error},
        "errors": report.errors,
    }))
    return 0 if report.passed else 1


def cmd_attmap(args) -> int:
    model, _ = load_checkpoint(args.model)
    ds = _load_dataset(args.input, "--input")
    if model.config.context_mode == "intra" and any(ex.contexts for ex in ds.examples):
        raise ConfigError("intra-context model: input examples must not carry contexts")
    written = export_attention(model, ds, args.format, args.out)
    print(json.dumps({"written": written}))
    return 0


def cmd_params(args) -> int:
    if args.model:
        model, _ = load_checkpoint(args.model)
        note = None
    else:
        model_cfg, _, _ = _read_config(args.config)
        vocab = Vocabulary()  # placeholder: PAD and UNK only
        model = build_model(model_cfg, vocab, _unnamed_labels(model_cfg.num_classes))
        note = "embedding rows reflect a placeholder vocabulary of 2 tokens"
    without = count_params(model.params, include_embeddings=False)
    with_emb = count_params(model.params, include_embeddings=True)
    out = {
        "tensors": [
            {"name": n, "shape": list(s), "size": c} for n, s, c in with_emb.rows
        ],
        "total": without.total,
        "total-with-embeddings": with_emb.total,
    }
    if note:
        out["note"] = note
    print(json.dumps(out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="attconv",
                                     description="attentive convolution text classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--train", required=True, help="training JSONL")
    p.add_argument("--dev", help="optional dev JSONL, evaluated every eval-every epochs")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--seed", type=int, help=f"run seed (falls back to ${SEED_ENV})")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="evaluation JSONL")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check on a tiny model")
    p.add_argument("--config", required=True, help="JSON config file (d is capped at 8)")
    p.add_argument("--seed", type=int, help=f"run seed (falls back to ${SEED_ENV})")
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("attmap", help="export attention heatmaps for a dataset")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--input", required=True, help="input JSONL")
    p.add_argument("--format", choices=("tsv", "svg"), default="tsv")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_attmap)

    p = sub.add_parser("params", help="print the parameter table")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="JSON config file")
    group.add_argument("--model", help="checkpoint path")
    p.set_defaults(func=cmd_params)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a non-finite result exits 4 with one line; numpy's floating-point
        # warnings on the way there would add lines of their own to stderr
        with np.errstate(all="ignore"):
            return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"memory error: the input did not fit in memory{detail}", file=sys.stderr)
        return 3
    except (DivergenceError, DeterminismError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except AttconvError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def script_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    script_main()
