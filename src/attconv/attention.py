"""Cross-sentence matching and attention-weighted context summaries.

Given hidden states H_x (d x m) for the modeled text and H_y (d x n) for a
context, the matching function scores every position pair, each row of the
score matrix is softmax-normalized over the context positions, and the
weighted average of context states becomes the attentive context C_x
(d x m, one summary column per text position).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DimensionError

MATCH_METHODS = ("dot", "bilinear", "additive")


@dataclass
class MatchParams:
    """Parameters of the matching function.

    ``dot`` has none. ``bilinear`` uses W_e (d x d). ``additive`` scores
    v_e . tanh(W_e h_x + U_e h_y) with W_e, U_e (d x d) and v_e (d).
    """

    method: str = "dot"
    W_e: ad.Node | None = None
    U_e: ad.Node | None = None
    v_e: ad.Node | None = None

    @classmethod
    def create(cls, method: str, size: int, rng: np.random.Generator) -> "MatchParams":
        if method == "dot":
            return cls(method=method)
        if method == "bilinear":
            return cls(method=method, W_e=ad.param(ad.glorot(rng, size, size), "W_e"))
        if method == "additive":
            limit = np.sqrt(6.0 / (size + 1))
            return cls(
                method=method,
                W_e=ad.param(ad.glorot(rng, size, size), "W_e"),
                U_e=ad.param(ad.glorot(rng, size, size), "U_e"),
                v_e=ad.param(rng.uniform(-limit, limit, size=size), "v_e"),
            )
        raise ConfigError(f"unknown match method {method!r}")

    def tensors(self) -> dict[str, ad.Node]:
        out = {}
        for key in ("W_e", "U_e", "v_e"):
            node = getattr(self, key)
            if node is not None:
                out[key] = node
        return out


def match_scores(Hx: ad.Node, Hy: ad.Node, params: MatchParams) -> ad.Node:
    """Score every (text position, context position) pair, giving m x n."""
    if Hx.value.ndim != 2 or Hy.value.ndim != 2:
        raise DimensionError("match_scores: inputs must be 2-d feature maps")
    if Hx.value.shape[0] != Hy.value.shape[0]:
        raise DimensionError(
            f"match_scores: hidden sizes differ, {Hx.value.shape[0]} vs {Hy.value.shape[0]}"
        )
    if params.method == "dot":
        return ad.matmul(ad.transpose(Hx), Hy)
    if params.method == "bilinear":
        return ad.matmul(ad.matmul(ad.transpose(Hx), params.W_e), Hy)
    if params.method == "additive":
        return ad.additive_scores(ad.matmul(params.W_e, Hx), ad.matmul(params.U_e, Hy),
                                  params.v_e)
    raise ConfigError(f"unknown match method {params.method!r}")


def attention_weights(scores: ad.Node, mask=None) -> ad.Node:
    """Normalize each m x n score row over the unmasked context positions."""
    return ad.masked_softmax_rows(scores, mask)


def apply_attention(weights: ad.Node, Hy: ad.Node) -> ad.Node:
    """Weighted average of context states: C_x = H_y A^T, shape d x m."""
    if weights.value.shape[1] != Hy.value.shape[1]:
        raise DimensionError("apply_attention: weight columns must match context positions")
    return ad.matmul(Hy, ad.transpose(weights))
