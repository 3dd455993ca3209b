"""Export normalized attention maps as TSV tables or standalone SVG heatmaps.

One file per (example, context, layer) attention pass, as
``model.attention_records`` reads it off the example's forward graph. TSV
rows carry the text token followed by its weights over the context
positions; the header row carries the context tokens. The SVG is
self-contained text: a grayscale grid, darker for heavier weight, with
token labels on both axes.
"""

from __future__ import annotations

import html
import os

import numpy as np

from .data import SEP_TOKEN, Dataset
from .errors import ConfigError, DivergenceError
from .model import Model, attention_records, join_context_ids


def context_tokens_for(model: Model, example, context_index: int) -> list[str]:
    """The token labels of the attention columns for one recorded pass."""
    mode = model.config.context_mode
    if mode == "intra":
        return list(example.text)
    if mode == "multi-conc":
        return join_context_ids(example.contexts, SEP_TOKEN)
    return list(example.contexts[context_index])


def export_attention(model: Model, dataset: Dataset, fmt: str, out_dir: str) -> list[str]:
    """Run the model over a dataset and write one attention file per pass.

    Returns the written paths. Raises ConfigError for variants without an
    attention matrix and for intra-context models fed contexts, and
    DivergenceError for a pass whose weights are not all finite, before its
    file is written.
    """
    if fmt not in ("tsv", "svg"):
        raise ConfigError(f"unknown attention export format {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []
    for ei, example in enumerate(dataset.examples):
        text_ids, ctx_ids, _ = model.vocab.encode_example(example)
        for rec in attention_records(model, text_ids, ctx_ids):
            name = f"ex{ei:04d}_ctx{rec.context_index}_layer{rec.layer_index}.{fmt}"
            if not np.isfinite(rec.weights).all():
                raise DivergenceError(f"{name}: non-finite attention weight")
            x_tokens = list(example.text)
            y_tokens = context_tokens_for(model, example, rec.context_index)
            path = os.path.join(out_dir, name)
            if fmt == "tsv":
                _write_tsv(path, x_tokens, y_tokens, rec.weights)
            else:
                _write_svg(path, x_tokens, y_tokens, rec.weights)
            written.append(path)
    return written


def _write_tsv(path: str, x_tokens: list[str], y_tokens: list[str],
               weights: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join([""] + y_tokens) + "\n")
        for i, tok in enumerate(x_tokens):
            cells = [f"{w:.12g}" for w in weights[i]]
            fh.write("\t".join([tok] + cells) + "\n")


def _write_svg(path: str, x_tokens: list[str], y_tokens: list[str],
               weights: np.ndarray) -> None:
    cell = 26
    label_w = 10 + 7 * max((len(t) for t in x_tokens), default=1)
    label_h = 10 + 7 * max((len(t) for t in y_tokens), default=1)
    m, n = weights.shape
    width = label_w + n * cell + 10
    height = label_h + m * cell + 10
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for j, tok in enumerate(y_tokens):
        x = label_w + j * cell + cell // 2
        parts.append(
            f'<text x="{x}" y="{label_h - 6}" text-anchor="start" '
            f'transform="rotate(-60 {x} {label_h - 6})">{html.escape(tok)}</text>'
        )
    for i, tok in enumerate(x_tokens):
        y = label_h + i * cell + cell // 2 + 4
        parts.append(f'<text x="{label_w - 6}" y="{y}" text-anchor="end">{html.escape(tok)}</text>')
        for j in range(n):
            w = float(weights[i, j])
            shade = int(round(255 * (1.0 - w)))
            parts.append(
                f'<rect x="{label_w + j * cell}" y="{label_h + i * cell}" '
                f'width="{cell}" height="{cell}" fill="rgb({shade},{shade},{shade})" '
                f'stroke="#888" stroke-width="0.5"/>'
            )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
