"""Attention-augmented convolution layers and the baseline layers they
are compared against.

All layers consume and produce feature maps with one column per sequence
position. Width-3 windows are zero-padded at both sequence ends, so output
length always equals input length.

Layer functions take the model's flat parameter dict ``p`` and a name prefix
``at`` and look their tensors up as ``p[at + name]``; ``model.param_shapes``
lists every name and shape. The attentive layers take the text and a list
of context maps and return one result per map, building the text's
context-free work once. Their ``exclude_self`` is the intra-mode
``self-mode`` exclude-self: no position attends to itself.
"""

from __future__ import annotations

from . import autodiff as ad
from .attention import apply_attention, attention_weights, match_scores, project_text
from .errors import DimensionError

SELF_MODES = ("include-self", "exclude-self")
NO_CONV_LAYERS = 4

Params = dict[str, ad.Node]


def vanilla_conv(H: ad.Node, p: Params, at: str) -> ad.Node:
    """Width-3 convolution with tanh, the attention-free baseline: W1 (d x 3d), b (d)."""
    return ad.tanh(ad.add_bias(ad.matmul(p[at + "W1"], ad.window3(H)), p[at + "b"]))


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
    if local.value.shape[1] != Cx.value.shape[1]:
        raise DimensionError("light_attconv: H_x and C_x must align per position")
    contextual = ad.matmul(p[at + "W2"], Cx)
    return ad.tanh(ad.add_bias(ad.add(local, contextual), p[at + "b"]))


def gated_conv(H: ad.Node, p: Params, at: str) -> ad.Node:
    """Gated convolution: out = g * h_cur + (1 - g) * tanh(W_h window + b_h).

    The gate g = sigmoid(W_g window + b_g) decides per component whether to
    keep the central unigram state or the convolved candidate. The window is
    one position wide when W_h is square (d x d) and three wide otherwise
    (d x 3d).
    """
    W_h = p[at + "W_h"]
    win = H if W_h.value.shape[0] == W_h.value.shape[1] else ad.window3(H)
    cand = ad.tanh(ad.add_bias(ad.matmul(W_h, win), p[at + "b_h"]))
    gate = ad.sigmoid(ad.add_bias(ad.matmul(p[at + "W_g"], win), p[at + "b_g"]))
    return ad.gate_mix(gate, H, cand)


def mgran(H: ad.Node, p: Params, at: str) -> ad.Node:
    """Concatenate unigram- and trigram-granularity gated states, 2d x m."""
    return ad.concat_rows([gated_conv(H, p, at + "uni."), gated_conv(H, p, at + "tri.")])


def attend_and_convolve(Hx: ad.Node, maps: list[ad.Node], p: Params, at: str, method: str,
                        exclude_self: bool = False,
                        trace: list[list[ad.Node]] | None = None) -> list[ad.Node]:
    """Run the light or advanced attentive convolution of Hx against each map.

    Returns one d x m feature map per context map. The text side (the W1
    term, the text half of the match and, in the advanced form, the source
    and beneficiary gated states) is built once for all maps. The advanced
    form, chosen when ``p`` holds a beneficiary gate, gives the source and
    focus sides their own multi-granular gated convolutions, matches over
    the resulting 2d states, refines the raw text states with the width-1
    beneficiary gate, and convolves those against the 2d attentive context.
    ``exclude_self`` keeps each position of a text that is its own context
    from attending to itself. ``trace``, when given, gets one list per map
    of the m x n weights nodes of its attention passes.
    """
    advanced = at + "beneficiary.W_h" in p
    src = mgran(Hx, p, at + "source.") if advanced else Hx
    text = project_text(src, method, p, at + "match.")
    bene = gated_conv(Hx, p, at + "beneficiary.") if advanced else Hx
    local = ad.matmul(p[at + "conv.W1"], ad.window3(bene))
    fmaps = []
    for Hy in maps:
        foc = mgran(Hy, p, at + "focus.") if advanced else Hy
        weights = attention_weights(match_scores(text, foc, method, p, at + "match."),
                                    exclude_self)
        if trace is not None:
            trace.append([weights])
        fmaps.append(light_attconv(local, apply_attention(weights, foc), p, at + "conv."))
    return fmaps


def attentive_pooling(Hx: ad.Node, maps: list[ad.Node], p: Params, at: str) -> list[ad.Node]:
    """Post-convolution attentive mean pooling of Hx against each context map.

    Both sentences go through the same width-3 convolution; Hx's is built
    once for all maps. Each resulting state is scored against all states of
    the other sentence by dot product; row sums (for x) and column sums (for
    y) are softmax normalized and used as weighted-mean pooling weights.
    Attention acts only on pooling here, never on the convolution itself.
    Returns one 2d vector per map: the pooled x state over the pooled y state.
    """
    Hx2 = vanilla_conv(Hx, p, at)
    reps = []
    for Hy in maps:
        Hy2 = vanilla_conv(Hy, p, at)
        E = ad.matmul(ad.transpose(Hx2), Hy2)
        wx = ad.softmax(ad.row_sums(E))
        wy = ad.softmax(ad.row_sums(ad.transpose(E)))
        reps.append(ad.concat_vec([ad.matmul(Hx2, wx), ad.matmul(Hy2, wy)]))
    return reps


def no_conv_stack(Hx: ad.Node, maps: list[ad.Node], p: Params, at: str, method: str,
                  exclude_self: bool = False,
                  trace: list[list[ad.Node]] | None = None) -> list[ad.Node]:
    """Four layers of attend, add, fully-connected transform; no windows.

    Each layer ``layer<i>.`` matches the current text states against the
    fixed context states, adds the attentive context to the text state, and
    applies its own d x d transform W with bias b and tanh. Every layer past
    the first matches text states that depend on the context, so the stack
    runs once per map. Returns one d x m feature map per map; ``exclude_self``
    and ``trace`` are as in ``attend_and_convolve``.
    """
    fmaps = []
    for Hy in maps:
        H = Hx
        passes = []
        for i in range(NO_CONV_LAYERS):
            match = f"{at}layer{i}.match."
            scores = match_scores(project_text(H, method, p, match), Hy, method, p, match)
            weights = attention_weights(scores, exclude_self)
            passes.append(weights)
            C = apply_attention(weights, Hy)
            H = ad.tanh(ad.add_bias(ad.matmul(p[f"{at}layer{i}.W"], ad.add(H, C)),
                                    p[f"{at}layer{i}.b"]))
        if trace is not None:
            trace.append(passes)
        fmaps.append(H)
    return fmaps
