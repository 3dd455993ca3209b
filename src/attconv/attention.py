"""Cross-sentence matching: the score of every (text, context) position pair.

Given hidden states H_x (d x m) for the modeled text and H_y (d x n) for a
context, the matching function scores every position pair. An attention
pass then normalizes each score row over the context positions
(``autodiff.masked_softmax_rows``, whose exclude-self keeps a text that is
its own context from attending to itself) and takes the weighted average
of the context states (``autodiff.block_apply``), the attentive context
C_x (d x m, one summary column per text position).

The (text, context) pairs of a batch sit side by side; ``blocks``
(``autodiff.Blocks``) says which text positions each pair's context
positions are scored against, and the scores, weights and summaries of all
pairs are each one node. One pair is one block.
"""

from __future__ import annotations

from . import autodiff as ad
from .errors import ConfigError, DimensionError

MATCH_METHODS = ("dot", "bilinear", "additive")


def match_scores(Hx: ad.Node, Hy: ad.Node, method: str, blocks: ad.Blocks,
                 p: dict[str, ad.Node] | None = None, at: str = "",
                 spread=None) -> ad.Node:
    """Score the (text position, context position) pairs inside each block,
    as a blocked value.

    ``dot`` scores h_x . h_y, ``bilinear`` h_x . W_e h_y with
    ``p[at + "W_e"]`` (d x d), and ``additive`` v_e . tanh(W_e h_x + U_e h_y)
    with U_e (d x d) and v_e (d) also looked up under ``at``. The text half
    (Hx^T, Hx^T W_e or W_e Hx) is built once on Hx; ``spread``, when given,
    lists the text position behind each pair position, and the text half is
    copied out once per pair.
    """
    if Hx.value.ndim != 2 or Hy.value.ndim != 2:
        raise DimensionError("match_scores: inputs must be 2-d feature maps")
    if method not in MATCH_METHODS:
        raise ConfigError(f"unknown match method {method!r}")
    if Hx.value.shape[0] != Hy.value.shape[0]:
        raise DimensionError(
            f"match_scores: hidden sizes differ, {Hx.value.shape[0]} vs {Hy.value.shape[0]}")
    if method == "additive":
        Tx = ad.matmul(p[at + "W_e"], Hx)
        if spread is not None:
            Tx = ad.gather(Tx, spread)
        return ad.additive_scores(Tx, ad.matmul(p[at + "U_e"], Hy), p[at + "v_e"], blocks)
    Tx = ad.transpose(Hx) if method == "dot" else ad.matmul(ad.transpose(Hx), p[at + "W_e"])
    if spread is not None:
        Tx = ad.gather(Tx, spread, axis=0)
    return ad.block_scores(Tx, Hy, blocks)
