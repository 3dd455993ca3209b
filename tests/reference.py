"""The unsegmented per-example forward, kept as the reference of the packed one.

The library runs every forward packed, on segment starts and score blocks,
even for one example. This module keeps the arithmetic the per-example
forward had before packing: whole m x n score matrices, 1-d pooled vectors
and 1-d probabilities, as graph ops with their backward, so that tests can
check the packed path against one that never builds a ``Packing`` or a
``Blocks``, and train through it. The ops that do not cross positions
(embed, the matmuls, biases, gates and the one-segment ``window3``) are the
library's own.

``reference_forward`` makes one layer call per context, repeats included,
max-pools each context's feature map, max-pools the contexts and applies
the classifier.
"""

import numpy as np

from attconv import autodiff as ad
from attconv import layers as ly
from attconv.data import SEP_TOKEN
from attconv.model import AttentionRecord, join_context_ids

ONE = [0]  # the segment starts of one sequence alone


def _node(value, op, inputs, backward) -> ad.Node:
    out = ad.Node(value, op, inputs)
    out._backward = backward
    return out


def _accum(node, g):
    if node.grad is None:
        node.grad = np.zeros_like(node.value)
    node.grad += g


def matvec(a, v):
    """(m, k) @ (k,) -> (m,)."""
    va, vv = a.value, v.value

    def bw(g):
        _accum(a, np.outer(g, vv))
        _accum(v, va.T @ g)

    return _node(va @ vv, "matvec", (a, v), bw)


def softmax(s):
    """Softmax of a 1-d score vector."""
    v = s.value
    e = np.exp(v - v.max())
    p = e / e.sum()
    return _node(p, "softmax", (s,), lambda g: _accum(s, p * (g - np.dot(g, p))))


def additive_scores(p, q, v):
    """v . tanh(p_i + q_j) for every column pair, m x n, the tanh held
    C-ordered in m x d x n layout."""
    vp, vq, vv = p.value, q.value, v.value
    t = np.tanh(np.add(vp.T[:, :, None], vq[None, :, :], order="C"))

    def bw(g):
        gt = vv[None, :, None] * g[:, None, :] * (1.0 - t * t)
        _accum(p, gt.sum(axis=2).T)
        _accum(q, gt.sum(axis=0))
        _accum(v, (t * g[:, None, :]).sum(axis=(0, 2)))

    return _node(vv @ t, "additive_scores", (p, q, v), bw)


def softmax_rows(scores, exclude_self=False):
    """Row-wise softmax of an m x n matrix; ``exclude_self`` zeroes the diagonal."""
    v = scores.value
    if exclude_self:
        v = v.copy()
        np.fill_diagonal(v, -np.inf)
    e = np.exp(v - v.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    return _node(p, "softmax_rows", (scores,),
                 lambda g: _accum(scores, p * (g - (g * p).sum(axis=1, keepdims=True))))


def row_sums(a):
    return _node(a.value.sum(axis=1), "row_sums", (a,),
                 lambda g: _accum(a, np.broadcast_to(g[:, None], a.value.shape)))


def max_over_positions(h):
    """The row-wise max of a d x m map as a d-vector; ties go to the lowest column."""
    idx = h.value.argmax(axis=1)
    rows = np.arange(h.value.shape[0])

    def bw(g):
        back = np.zeros_like(h.value)
        np.add.at(back, (rows, idx), g)
        _accum(h, back)

    return _node(h.value.max(axis=1), "max_over_positions", (h,), bw)


def concat_vec(nodes):
    offsets = np.cumsum([0] + [n.value.shape[0] for n in nodes])

    def bw(g):
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            _accum(n, g[lo:hi])

    return _node(np.concatenate([n.value for n in nodes]), "concat_vec", tuple(nodes), bw)


def stack_cols(nodes):
    """Equal-length 1-d nodes as the columns of a matrix."""
    def bw(g):
        for i, n in enumerate(nodes):
            _accum(n, g[:, i])

    return _node(np.stack([n.value for n in nodes], axis=1), "stack_cols", tuple(nodes), bw)


# ---------------------------------------------------------------------------
# layers on one text and one context map


def match(Hx, Hy, method, p=None, at=""):
    """The m x n scores of Hx against Hy."""
    if method == "dot":
        return ad.matmul(ad.transpose(Hx), Hy)
    if method == "bilinear":
        return ad.matmul(ad.matmul(ad.transpose(Hx), p[at + "W_e"]), Hy)
    return additive_scores(ad.matmul(p[at + "W_e"], Hx), ad.matmul(p[at + "U_e"], Hy),
                           p[at + "v_e"])


def apply_attention(weights, Hy):
    """C_x = H_y A^T, d x m."""
    return ad.matmul(Hy, ad.transpose(weights))


def attend_and_convolve(Hx, Hy, p, at, method, exclude_self, passes):
    advanced = at + "beneficiary.W_h" in p
    src = ly.mgran(Hx, p, at + "source.", ONE) if advanced else Hx
    foc = ly.mgran(Hy, p, at + "focus.", ONE) if advanced else Hy
    bene = ly.gated_conv(Hx, p, at + "beneficiary.", ONE) if advanced else Hx
    weights = softmax_rows(match(src, foc, method, p, at + "match."), exclude_self)
    passes.append(weights)
    local = ad.matmul(p[at + "conv.W1"], ad.window3(bene, ONE))
    return ly.light_attconv(local, apply_attention(weights, foc), p, at + "conv.")


def no_conv_stack(Hx, Hy, p, at, method, exclude_self, passes):
    H = Hx
    for i in range(ly.NO_CONV_LAYERS):
        weights = softmax_rows(match(H, Hy, method, p, f"{at}layer{i}.match."), exclude_self)
        passes.append(weights)
        H = ad.tanh(ad.add_bias(ad.matmul(p[f"{at}layer{i}.W"],
                                          ad.add(H, apply_attention(weights, Hy))),
                                p[f"{at}layer{i}.b"]))
    return H


def attentive_pooling(Hx, Hy, p, at):
    """The pooled x state over the pooled y state, a 2d vector."""
    Hx2, Hy2 = ly.vanilla_conv(Hx, p, at, ONE), ly.vanilla_conv(Hy, p, at, ONE)
    E = ad.matmul(ad.transpose(Hx2), Hy2)
    wx = softmax(row_sums(E))
    wy = softmax(row_sums(ad.transpose(E)))
    return concat_vec([matvec(Hx2, wx), matvec(Hy2, wy)])


def reference_forward(model, text_ids, ctx_ids, trace=None):
    """Class probabilities (K) of one well-formed encoded example, with its
    graph attached; ``trace`` gets one m x n record per context and pass."""
    cfg, p = model.config, model.params
    Hx = ad.embed(model.embeddings, text_ids)
    if cfg.variant == "vanilla-cnn":
        rep = max_over_positions(ly.vanilla_conv(Hx, p, "net.", ONE))
    else:
        if cfg.context_mode == "intra":
            maps = [Hx]
        elif cfg.context_mode == "multi-conc":
            maps = [ad.embed(model.embeddings,
                             join_context_ids(ctx_ids, model.vocab.index[SEP_TOKEN]))]
        else:
            maps = [ad.embed(model.embeddings, ids) for ids in ctx_ids]
        exclude_self = cfg.context_mode == "intra" and cfg.self_mode == "exclude-self"
        layer = no_conv_stack if cfg.variant == "no-conv" else attend_and_convolve
        reps = []
        for j, Hy in enumerate(maps):
            if cfg.variant == "attentive-pooling":
                reps.append(attentive_pooling(Hx, Hy, p, "net."))
                continue
            passes = []
            fmap = layer(Hx, Hy, p, "net.", cfg.match_method, exclude_self, passes)
            reps.append(max_over_positions(fmap))
            if trace is not None:
                trace.extend(AttentionRecord(j, li, w.value) for li, w in enumerate(passes))
        rep = reps[0] if len(reps) == 1 else max_over_positions(stack_cols(reps))
    return softmax(ad.add(matvec(p["classifier.W"], rep), p["classifier.b"]))
