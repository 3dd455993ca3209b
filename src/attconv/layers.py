"""Attention-augmented convolution layers and the baseline layers they
are compared against.

All layers consume and produce packed feature maps with one column per
sequence position, the sequences side by side; ``starts`` are their segment
starts, and one sequence is the one segment ``[0]``. Width-3 windows are
zero-padded at both ends of every sequence, so output length always equals
input length.

Layer functions take the model's flat parameter dict ``p`` and a name prefix
``at`` and look their tensors up as ``p[at + name]``; ``model.param_shapes``
lists every name and shape. The attentive layers take a packed text map, a
packed context map and their ``Packing``, and return one feature map over
the pair positions, building each text's context-free work once. Their
``exclude_self`` is the intra-mode ``self-mode`` exclude-self: no position
attends to itself. Each attention pass is ``match_scores``, then
``autodiff.masked_softmax_rows`` and ``autodiff.block_apply``; its weights
stay a node of the returned graph, where ``model.attention_records`` reads
them.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .attention import match_scores

SELF_MODES = ("include-self", "exclude-self")
NO_CONV_LAYERS = 4

Params = dict[str, ad.Node]


class Packing(NamedTuple):
    """Where the examples and their (example, context map) pairs sit on the
    position axis of packed feature maps.

    The text map holds every example's text side by side (segment starts
    ``text``). The context map holds every pair's context map, the pairs of
    one example next to each other (``contexts``); in intra mode it is the
    text map. Pair positions repeat each example's text positions once per
    pair (``pairs``); ``spread`` is the text position behind each pair
    position, or None when every example has one pair. ``blocks`` pairs
    each pair's positions with its context positions, and ``examples``
    starts each example's run of pairs. One example with one context map
    has one segment in every field.
    """

    text: list[int]
    contexts: list[int]
    pairs: list[int]
    spread: np.ndarray | None
    blocks: ad.Blocks
    examples: list[int]

    @property
    def pool_maps(self) -> bool:
        """Whether some example has more than one context map to pool over."""
        return self.spread is not None

    def per_pair(self, H: ad.Node) -> ad.Node:
        """A text-side d x M map copied out once per pair, d x Q."""
        return H if self.spread is None else ad.gather(H, self.spread)


def segment_starts(lengths: list[int]) -> list[int]:
    """The first position of each of these sequences, packed side by side."""
    return _offsets(lengths)[:-1]


def _offsets(lengths) -> list[int]:
    return list(accumulate(lengths, initial=0))


def pack(text_lengths: list[int], map_lengths: list[list[int]]) -> Packing:
    """The packing of examples with these text lengths and, for each example,
    the lengths of its context maps (at least one each)."""
    n_maps = [len(lengths) for lengths in map_lengths]
    pair_len = [m for m, k in zip(text_lengths, n_maps) for _ in range(k)]
    pairs = _offsets(pair_len)
    contexts = _offsets([n for lengths in map_lengths for n in lengths])
    text = segment_starts(text_lengths)
    spread = None
    if len(pair_len) > len(text_lengths):
        spread = (np.repeat(text, n_maps) - pairs[:-1]).repeat(pair_len) + np.arange(pairs[-1])
    return Packing(text=text, contexts=contexts[:-1], pairs=pairs[:-1], spread=spread,
                   blocks=ad.Blocks(pairs, contexts), examples=segment_starts(n_maps))


def vanilla_conv(H: ad.Node, p: Params, at: str, starts) -> ad.Node:
    """Width-3 convolution with tanh, the attention-free baseline: W1 (d x 3d), b (d)."""
    return ad.tanh(ad.add_bias(ad.matmul(p[at + "W1"], ad.window3(H, starts)), p[at + "b"]))


def light_attconv(local: ad.Node, Cx: ad.Node, p: Params, at: str) -> ad.Node:
    """Convolve tri-gram windows and attentive context columns jointly.

    Computes tanh(W1 [h_prev; h_cur; h_next] + W2 c + b) per position, with
    W1 (d x 3d) on the local window, W2 (d x d_c) on the context column and
    one bias b shared by both. The W1 term arrives precomputed as ``local``
    (d x m): it does not depend on the context, so it is built once per text.
    The two matmuls are parallel convolutions (width 3 over H_x, width 1
    over C_x) that sum before the nonlinearity, which is algebraically the
    same as one convolution with the joint filter [W1 | W2] over the four
    stacked vectors.
    """
    contextual = ad.matmul(p[at + "W2"], Cx)
    return ad.tanh(ad.add_bias(ad.add(local, contextual), p[at + "b"]))


def gated_conv(H: ad.Node, p: Params, at: str, starts) -> ad.Node:
    """Gated convolution: out = g * h_cur + (1 - g) * tanh(W_h window + b_h).

    The gate g = sigmoid(W_g window + b_g) decides per component whether to
    keep the central unigram state or the convolved candidate. The window is
    one position wide when W_h is square (d x d) and three wide otherwise
    (d x 3d).
    """
    W_h = p[at + "W_h"]
    win = H if W_h.value.shape[0] == W_h.value.shape[1] else ad.window3(H, starts)
    cand = ad.tanh(ad.add_bias(ad.matmul(W_h, win), p[at + "b_h"]))
    gate = ad.sigmoid(ad.add_bias(ad.matmul(p[at + "W_g"], win), p[at + "b_g"]))
    return ad.gate_mix(gate, H, cand)


def mgran(H: ad.Node, p: Params, at: str, starts) -> ad.Node:
    """Concatenate unigram- and trigram-granularity gated states, 2d x m."""
    return ad.concat_rows([gated_conv(H, p, at + "uni.", starts),
                           gated_conv(H, p, at + "tri.", starts)])


def attend_and_convolve(Hx: ad.Node, Hy: ad.Node, p: Params, at: str, method: str,
                        pk: Packing, exclude_self: bool = False) -> ad.Node:
    """Run the light or advanced attentive convolution of Hx against Hy.

    Returns the d x Q feature map over the pair positions of ``pk``. The
    text side (the W1 term, the text half of the match and, in the advanced
    form, the source and beneficiary gated states) is built once per text
    and copied out per pair. The advanced form, chosen when ``p`` holds a
    beneficiary gate, gives the source and focus sides their own
    multi-granular gated convolutions, matches over the resulting 2d
    states, refines the raw text states with the width-1 beneficiary gate,
    and convolves those against the 2d attentive context. ``exclude_self``
    keeps each position of a text that is its own context from attending to
    itself.
    """
    advanced = at + "beneficiary.W_h" in p
    src = mgran(Hx, p, at + "source.", pk.text) if advanced else Hx
    bene = gated_conv(Hx, p, at + "beneficiary.", pk.text) if advanced else Hx
    local = pk.per_pair(ad.matmul(p[at + "conv.W1"], ad.window3(bene, pk.text)))
    foc = mgran(Hy, p, at + "focus.", pk.contexts) if advanced else Hy
    scores = match_scores(src, foc, method, pk.blocks, p, at + "match.", pk.spread)
    weights = ad.masked_softmax_rows(scores, pk.blocks, exclude_self)
    return light_attconv(local, ad.block_apply(weights, foc, pk.blocks), p, at + "conv.")


def attentive_pooling(Hx: ad.Node, Hy: ad.Node, p: Params, at: str, pk: Packing) -> ad.Node:
    """Post-convolution attentive mean pooling of Hx against Hy.

    Both sentences go through the same width-3 convolution, each text once.
    Each state is weighted by the softmax of its summed dot products with
    the other sentence's states, a row (x) or column (y) sum of the m x n
    scores H_x^T H_y. That sum is one dot product with the other side's
    summed states, so each side is pooled by one attention pass with that
    sum as its query, at a cost linear in both lengths. Attention acts only
    on pooling here, never on the convolution itself. Returns the pooled x
    state over the pooled y state, one 2d column per pair.
    """
    Hx2 = pk.per_pair(vanilla_conv(Hx, p, at, pk.text))
    Hy2 = vanilla_conv(Hy, p, at, pk.contexts)
    over_x, over_y = pk.blocks.pooling()
    return ad.concat_rows([_pool_against(Hx2, Hy2, over_x, over_y),
                           _pool_against(Hy2, Hx2, over_y, over_x)])


def _pool_against(H: ad.Node, other: ad.Node, over: ad.Blocks, over_other: ad.Blocks) -> ad.Node:
    """Each pair's states of H pooled by attention queried by its summed ``other`` states."""
    query = ad.block_apply(ad.Node(np.ones(over_other.size)), other, over_other)
    weights = ad.masked_softmax_rows(match_scores(query, H, "dot", over), over)
    return ad.block_apply(weights, H, over)


def no_conv_stack(Hx: ad.Node, Hy: ad.Node, p: Params, at: str, method: str,
                  pk: Packing, exclude_self: bool = False) -> ad.Node:
    """Four layers of attend, add, fully-connected transform; no windows.

    Each layer ``layer<i>.`` matches the current text states against the
    fixed context states, adds the attentive context to the text state, and
    applies its own d x d transform W with bias b and tanh. The first
    layer's text side is built once per text; every later layer matches
    states that depend on the context, so from there on each pair has its
    own. Returns the d x Q feature map over the pair positions;
    ``exclude_self`` is as in ``attend_and_convolve``.
    """
    H = Hx
    for i in range(NO_CONV_LAYERS):
        spread = pk.spread if i == 0 else None
        scores = match_scores(H, Hy, method, pk.blocks, p, f"{at}layer{i}.match.", spread)
        C = ad.block_apply(ad.masked_softmax_rows(scores, pk.blocks, exclude_self), Hy,
                           pk.blocks)
        X = pk.per_pair(H) if i == 0 else H
        H = ad.tanh(ad.add_bias(ad.matmul(p[f"{at}layer{i}.W"], ad.add(X, C)),
                                p[f"{at}layer{i}.b"]))
    return H
