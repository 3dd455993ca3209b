"""Cross-sentence matching and attention-weighted context summaries.

Given hidden states H_x (d x m) for the modeled text and H_y (d x n) for a
context, the matching function scores every position pair, each row of the
score matrix is softmax-normalized over the context positions, and the
weighted average of context states becomes the attentive context C_x
(d x m, one summary column per text position). Exclude-self, for a text
that is its own context, keeps each position from attending to itself.
The match is split at its context-free part: ``project_text`` is built once
per text and ``match_scores`` once per context.

The (text, context) pairs of a batch sit side by side; ``blocks``
(``autodiff.Blocks``) says which text positions each pair's context
positions are scored against, and the scores, weights and summaries of all
pairs are each one node. One pair is one block.
"""

from __future__ import annotations

from . import autodiff as ad
from .errors import ConfigError, DimensionError

MATCH_METHODS = ("dot", "bilinear", "additive")


def project_text(Hx: ad.Node, method: str,
                 p: dict[str, ad.Node] | None = None, at: str = "",
                 spread=None) -> ad.Node:
    """The context-free half of the match, built once per text.

    ``dot`` gives Hx^T (m x d), ``bilinear`` Hx^T W_e (m x d) with
    ``p[at + "W_e"]`` (d x d), and ``additive`` W_e Hx (d x m). Every context
    map is then scored against it by ``match_scores``. ``spread``, when
    given, lists the text position behind each pair position: the
    projection is built once and then copied out once per pair.
    """
    if Hx.value.ndim != 2:
        raise DimensionError("match_scores: inputs must be 2-d feature maps")
    if method == "dot":
        Tx = ad.transpose(Hx)
    elif method == "bilinear":
        Tx = ad.matmul(ad.transpose(Hx), p[at + "W_e"])
    elif method == "additive":
        Tx = ad.matmul(p[at + "W_e"], Hx)
    else:
        raise ConfigError(f"unknown match method {method!r}")
    if spread is None:
        return Tx
    return ad.gather(Tx, spread, axis=1 if method == "additive" else 0)


def match_scores(Tx: ad.Node, Hy: ad.Node, method: str, blocks: ad.Blocks,
                 p: dict[str, ad.Node] | None = None, at: str = "") -> ad.Node:
    """Score the (text position, context position) pairs inside each block,
    as a blocked value.

    ``Tx`` is ``project_text`` of the text under the same method and
    tensors. ``dot`` and ``bilinear`` then score Tx H_y, so bilinear scores
    h_x . W_e h_y. ``additive`` scores v_e . tanh(W_e h_x + U_e h_y) with
    U_e (d x d) and v_e (d), also looked up under ``at``.
    """
    if Tx.value.ndim != 2 or Hy.value.ndim != 2:
        raise DimensionError("match_scores: inputs must be 2-d feature maps")
    d_x = Tx.value.shape[0 if method == "additive" else 1]
    if d_x != Hy.value.shape[0]:
        raise DimensionError(f"match_scores: hidden sizes differ, {d_x} vs {Hy.value.shape[0]}")
    if method in ("dot", "bilinear"):
        return ad.block_scores(Tx, Hy, blocks)
    if method == "additive":
        return ad.additive_scores(Tx, ad.matmul(p[at + "U_e"], Hy), p[at + "v_e"], blocks)
    raise ConfigError(f"unknown match method {method!r}")


def attention_weights(scores: ad.Node, blocks: ad.Blocks, exclude_self: bool = False) -> ad.Node:
    """Normalize each score row; ``exclude_self`` gives the diagonal weight 0."""
    return ad.masked_softmax_rows(scores, blocks, exclude_self)


def apply_attention(weights: ad.Node, Hy: ad.Node, blocks: ad.Blocks) -> ad.Node:
    """Weighted averages of context states, C_x = H_y A^T per block: d x Q
    over the pair positions of all ``blocks``."""
    return ad.block_apply(weights, Hy, blocks)
