"""Cross-sentence matching and attention-weighted context summaries.

Given hidden states H_x (d x m) for the modeled text and H_y (d x n) for a
context, the matching function scores every position pair, each row of the
score matrix is softmax-normalized over the context positions, and the
weighted average of context states becomes the attentive context C_x
(d x m, one summary column per text position). Exclude-self, for a text
that is its own context, keeps each position from attending to itself.
"""

from __future__ import annotations

from . import autodiff as ad
from .errors import ConfigError, DimensionError

MATCH_METHODS = ("dot", "bilinear", "additive")


def match_scores(Hx: ad.Node, Hy: ad.Node, method: str,
                 p: dict[str, ad.Node] | None = None, at: str = "") -> ad.Node:
    """Score every (text position, context position) pair, giving m x n.

    ``dot`` has no parameters. ``bilinear`` scores h_x . W_e h_y with
    ``p[at + "W_e"]`` (d x d). ``additive`` scores v_e . tanh(W_e h_x + U_e h_y)
    with W_e, U_e (d x d) and v_e (d), all looked up under ``at``.
    """
    if Hx.value.ndim != 2 or Hy.value.ndim != 2:
        raise DimensionError("match_scores: inputs must be 2-d feature maps")
    if Hx.value.shape[0] != Hy.value.shape[0]:
        raise DimensionError(
            f"match_scores: hidden sizes differ, {Hx.value.shape[0]} vs {Hy.value.shape[0]}"
        )
    if method == "dot":
        return ad.matmul(ad.transpose(Hx), Hy)
    if method == "bilinear":
        return ad.matmul(ad.matmul(ad.transpose(Hx), p[at + "W_e"]), Hy)
    if method == "additive":
        return ad.additive_scores(ad.matmul(p[at + "W_e"], Hx), ad.matmul(p[at + "U_e"], Hy),
                                  p[at + "v_e"])
    raise ConfigError(f"unknown match method {method!r}")


def attention_weights(scores: ad.Node, exclude_self: bool = False) -> ad.Node:
    """Normalize each m x n score row; ``exclude_self`` gives the diagonal weight 0."""
    return ad.masked_softmax_rows(scores, exclude_self)


def apply_attention(weights: ad.Node, Hy: ad.Node) -> ad.Node:
    """Weighted average of context states: C_x = H_y A^T, shape d x m."""
    if weights.value.shape[1] != Hy.value.shape[1]:
        raise DimensionError("apply_attention: weight columns must match context positions")
    return ad.matmul(Hy, ad.transpose(weights))
