"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Graphs are built eagerly: every op below computes its value immediately and
registers a closure that pushes the output gradient back to its inputs.
``backward`` walks the graph once, outputs before inputs, and consumes the
interior nodes it walks; leaves keep accumulating gradients, and a
backward that reaches a consumed node raises ContractError.

Values are numpy float64 arrays throughout: 0-d for scalars (losses),
1-d for vectors (biases) and blocked score values, 2-d for feature maps
laid out with one column per sequence position, and for K x B probability
columns.

Sequences share one feature map, side by side on the position axis. Every
op that crosses positions takes the segment ``starts`` (the first column of
each sequence, beginning at 0) or a ``Blocks`` layout of per-pair score
blocks, and never mixes two segments; one sequence is one segment, ``[0]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    ContractError,
    DeterminismError,
    DimensionError,
    DivergenceError,
    EmptyContextError,
    EmptyInputError,
)


class Node:
    """One vertex of the computation graph.

    ``value`` is a float64 ndarray. ``grad`` is None or an array of the
    same shape, except on a table that ``embed`` reads: there it is None or
    a ``RowGrad`` pair of rows and their block, and no other op may reach
    that table. Leaves (parameters, constants) have no inputs and no
    backward closure; they keep the gradients ``backward`` accumulates into
    them. An interior node holds a gradient only while ``backward`` pushes
    it; then it is consumed: it keeps its value, and a backward reaching it raises.
    """

    __slots__ = ("value", "grad", "op", "inputs", "name", "_backward")

    def __init__(self, value, op: str = "leaf", inputs: tuple = (), name: str | None = None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | RowGrad | None = None
        self.op = op
        self.inputs = tuple(inputs)
        self.name = name
        self._backward = None

    def __repr__(self):
        tag = self.name or self.op
        return f"Node({tag}, shape={self.value.shape})"


class RowGrad(NamedTuple):
    """The row-sparse gradient ``embed`` leaves in its table: ``rows``, the
    sorted distinct row ids the backward reached, and ``block``, their
    ``len(rows) x d`` gradient sums. Every other row's gradient is zero."""

    rows: np.ndarray
    block: np.ndarray


def param(value, name: str | None = None) -> Node:
    """Create a trainable leaf node."""
    return Node(value, op="param", name=name)


def glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    """Fan-balanced uniform init: +/- sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def _accum(node: Node, g) -> None:
    if node.grad is None:
        # 0 + g in one pass, laid out like the value: BLAS sums a later
        # product of this gradient in an order that depends on its layout
        node.grad = np.add(g, 0.0, out=np.empty_like(node.value))
    else:
        node.grad += g


def _require_2d(v: np.ndarray, what: str) -> None:
    if v.ndim != 2:
        raise DimensionError(f"{what}: expected a 2-d array, got shape {v.shape}")


EXCLUDE_SELF_ALONE = "exclude-self with a single position leaves nothing to attend"


def _check_starts(starts, width: int, what: str) -> np.ndarray:
    """Segment starts as an int array: 0 first, strictly increasing, inside ``width``."""
    s = np.asarray(starts, dtype=np.int64)
    at = s.tolist()
    if (s.ndim != 1 or not at or at[0] != 0 or at[-1] >= width
            or any(b <= a for a, b in zip(at, at[1:]))):
        raise ContractError(f"{what}: segment starts {at} do not split {width} positions")
    return s


class Blocks:
    """Layout of the score blocks of several (text, context) pairs.

    Block p pairs the text-side positions ``rows[p]:rows[p+1]`` with the
    context positions ``cols[p]:cols[p+1]``; both offset arrays start at 0
    and end at the position counts. A blocked score matrix is a 1-d value
    holding each block's entries row-major, block after block, so no entry
    outside the blocks is ever stored. ``spans`` lists (row lo, row hi,
    column lo, column hi, entry lo, entry hi) of each block, built once;
    ``row_starts`` and ``row_len`` give the first entry and the length of
    every stored row.
    """

    def __init__(self, rows, cols):
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        r, c = self.rows.tolist(), self.cols.tolist()
        if (self.rows.ndim != 1 or self.rows.shape != self.cols.shape or len(r) < 2
                or r[0] != 0 or c[0] != 0 or any(b <= a for a, b in zip(r, r[1:]))
                or any(b <= a for a, b in zip(c, c[1:]))):
            raise ContractError("Blocks: offsets must start at 0 and give every block a row "
                                "and a column")
        self.spans, row_len, row_starts, f0 = [], [], [], 0
        for r0, r1, c0, c1 in zip(r, r[1:], c, c[1:]):
            f1 = f0 + (r1 - r0) * (c1 - c0)
            self.spans.append((r0, r1, c0, c1, f0, f1))
            row_len += [c1 - c0] * (r1 - r0)
            row_starts += range(f0, f1, c1 - c0)
            f0 = f1
        self.size = f0
        self.row_len, self.row_starts = np.array(row_len), np.array(row_starts)

    def block(self, value: np.ndarray, p: int) -> np.ndarray:
        """Block ``p`` of a blocked value, as a rows x columns view."""
        r0, r1, c0, c1, f0, f1 = self.spans[p]
        return value[f0:f1].reshape(r1 - r0, c1 - c0)

    @cached_property
    def diagonal(self) -> np.ndarray:
        """Entry indices of every block's diagonal; every block must be square."""
        if not np.array_equal(self.rows, self.cols):
            raise DimensionError("exclude-self needs square blocks")
        return np.concatenate([f0 + np.arange(r1 - r0) * (r1 - r0 + 1)
                               for r0, r1, _, _, f0, _ in self.spans])

    def pooling(self) -> tuple["Blocks", "Blocks"]:
        """One-row blocks over each pair's text positions and over its context
        positions: the layouts of per-pair weight vectors on either side."""
        one_each = np.arange(self.rows.size)
        return Blocks(one_each, self.rows), Blocks(one_each, self.cols)


def _check_blocked(v: np.ndarray, blocks: Blocks, what: str) -> None:
    if v.shape != (blocks.size,):
        raise DimensionError(f"{what}: blocked value of shape {v.shape} does not fit "
                             f"{blocks.size} block entries")


# ---------------------------------------------------------------------------
# core ops


def matmul(a: Node, b: Node) -> Node:
    """Matrix product (m,k)@(k,n) -> (m,n)."""
    va, vb = a.value, b.value
    _require_2d(va, "matmul lhs")
    _require_2d(vb, "matmul rhs")
    if va.shape[1] != vb.shape[0]:
        raise DimensionError(f"matmul: inner dims differ, {va.shape} @ {vb.shape}")
    out = Node(va @ vb, "matmul", (a, b))

    def _bw(g):
        _accum(a, g @ vb.T)
        _accum(b, va.T @ g)

    out._backward = _bw
    return out


def add(a: Node, b: Node) -> Node:
    """Elementwise sum of two equal-shape nodes."""
    if a.value.shape != b.value.shape:
        raise DimensionError(f"add: shapes differ, {a.value.shape} vs {b.value.shape}")
    out = Node(a.value + b.value, "add", (a, b))

    def _bw(g):
        _accum(a, g)
        _accum(b, g)

    out._backward = _bw
    return out


def tanh(a: Node) -> Node:
    t = np.tanh(a.value)
    out = Node(t, "tanh", (a,))
    out._backward = lambda g: _accum(a, g * (1.0 - t * t))
    return out


def _sigmoid_stable(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Node) -> Node:
    s = _sigmoid_stable(a.value)
    out = Node(s, "sigmoid", (a,))
    out._backward = lambda g: _accum(a, g * s * (1.0 - s))
    return out


def gate_mix(g_node: Node, u: Node, o: Node) -> Node:
    """Highway-style blend g*u + (1-g)*o with all three operands equal shape."""
    if not (g_node.value.shape == u.value.shape == o.value.shape):
        raise DimensionError("gate_mix: operand shapes must match")
    gv = g_node.value
    out = Node(gv * u.value + (1.0 - gv) * o.value, "gate_mix", (g_node, u, o))

    def _bw(g):
        _accum(g_node, g * (u.value - o.value))
        _accum(u, g * gv)
        _accum(o, g * (1.0 - gv))

    out._backward = _bw
    return out


def add_bias(mat: Node, bias: Node) -> Node:
    """Add a length-d bias vector to every column of a d x m matrix."""
    vm, vb = mat.value, bias.value
    _require_2d(vm, "add_bias matrix")
    if vb.ndim != 1 or vb.shape[0] != vm.shape[0]:
        raise DimensionError(f"add_bias: bias {vb.shape} does not fit matrix {vm.shape}")
    out = Node(vm + vb[:, None], "add_bias", (mat, bias))

    def _bw(g):
        _accum(mat, g)
        _accum(bias, g.sum(axis=1))

    out._backward = _bw
    return out


def additive_scores(p: Node, q: Node, v: Node, blocks: Blocks) -> Node:
    """Additive match scores v . tanh(p_i + q_j) for the column pairs inside
    each block, as a blocked value.

    ``p`` is d x M, ``q`` is d x N and ``v`` has length d. Each block's tanh
    is built in place, C-ordered in rows x d x columns layout, so each score
    row is ``v @ t[i]`` on a contiguous d x columns block: the same product,
    bit for bit, as a loop over the rows. Plain broadcasting picks a strided
    layout when a block is narrow, and numpy's matmul sums strided blocks in
    another order.

    No tanh outlives the block that uses it. The node holds the scores and
    a contiguous p^T, d floats per text-side position, not per score. The
    forward builds each block's tanh into one scratch buffer the size of the
    largest block, and the backward rebuilds it into a scratch of its own
    with the same three steps on the same operands, so the rebuilt tanh
    equals the forward's bit for bit (Chen et al., arXiv 1604.06174, trade
    this recomputation for memory). The backward contracts each tanh with
    the block's gradient g, then squares it in place: ``p``'s column i gets
    v * (sum_j g_ij - t_i^2 @ g_i), ``q``'s column j v * (sum_i g_ij -
    sum_i t_i^2[:, j] g_ij) and ``v`` the sum of ``t_i @ g_i``. These sum in
    another order than the elementwise product v g (1 - t^2) summed
    afterwards, so the gradients match that formula within rounding, not
    bit for bit: the tests hold them to 1e-12 of the largest entry, and the
    worst seen is under 1e-15 of it. The scores keep their bits.
    """
    vp, vq, vv = p.value, q.value, v.value
    _require_2d(vp, "additive_scores p")
    _require_2d(vq, "additive_scores q")
    if vv.ndim != 1 or not (vp.shape[0] == vq.shape[0] == vv.shape[0]):
        raise DimensionError(
            f"additive_scores: p {vp.shape}, q {vq.shape} and v {vv.shape} must share d"
        )
    if blocks.rows[-1] != vp.shape[1] or blocks.cols[-1] != vq.shape[1]:
        raise DimensionError("additive_scores: blocks do not fit p and q")
    d = vv.shape[0]
    pT = np.ascontiguousarray(vp.T)
    widest = max(f1 - f0 for _, _, _, _, f0, f1 in blocks.spans) * d

    def block_tanh(scratch, r0, r1, c0, c1):
        t = scratch[:(r1 - r0) * d * (c1 - c0)].reshape(r1 - r0, d, c1 - c0)
        t[...] = np.ascontiguousarray(vq[:, c0:c1])
        t += pT[r0:r1, :, None]
        return np.tanh(t, out=t)

    flat = np.empty(blocks.size)
    scratch = np.empty(widest)
    for r0, r1, c0, c1, f0, f1 in blocks.spans:
        t = block_tanh(scratch, r0, r1, c0, c1)
        np.matmul(vv, t, out=flat[f0:f1].reshape(r1 - r0, c1 - c0))
    out = Node(flat, "additive_scores", (p, q, v))

    def _bw(g):
        # block rows and columns never overlap, so each block writes its slice
        gpT, gq, gv = np.empty_like(pT), np.empty_like(vq), np.zeros_like(vv)
        scratch = np.empty(widest)
        for r0, r1, c0, c1, f0, f1 in blocks.spans:
            gb = g[f0:f1].reshape(r1 - r0, c1 - c0)
            t = block_tanh(scratch, r0, r1, c0, c1)
            gv += np.matmul(t, gb[:, :, None]).sum(axis=0)[:, 0]
            s = np.square(t, out=t)
            np.subtract(gb.sum(axis=1)[:, None], np.matmul(s, gb[:, :, None])[:, :, 0],
                        out=gpT[r0:r1])
            np.subtract(gb.sum(axis=0), np.einsum("ikj,ij->kj", s, gb), out=gq[:, c0:c1])
        gpT *= vv
        gq *= vv[:, None]
        _accum(p, gpT.T)
        _accum(q, gq)
        _accum(v, gv)

    out._backward = _bw
    return out


def block_scores(a: Node, b: Node, blocks: Blocks) -> Node:
    """The products ``a[rows] @ b[:, cols]`` of every block, as a blocked value.

    ``a`` holds one row per text-side position (Q x d) and ``b`` one column
    per context position (d x N). Each block is its own matmul, of the shape
    a single pair would have; no product across two pairs is formed.
    """
    va, vb = a.value, b.value
    _require_2d(va, "block_scores lhs")
    _require_2d(vb, "block_scores rhs")
    if va.shape[1] != vb.shape[0]:
        raise DimensionError(f"block_scores: inner dims differ, {va.shape} @ {vb.shape}")
    if blocks.rows[-1] != va.shape[0] or blocks.cols[-1] != vb.shape[1]:
        raise DimensionError("block_scores: blocks do not fit the operands")
    flat = np.empty(blocks.size)
    for r0, r1, c0, c1, f0, f1 in blocks.spans:
        flat[f0:f1] = (va[r0:r1] @ vb[:, c0:c1]).ravel()
    out = Node(flat, "block_scores", (a, b))

    def _bw(g):
        ga, gb = np.zeros_like(va), np.zeros_like(vb)
        for r0, r1, c0, c1, f0, f1 in blocks.spans:
            gblock = g[f0:f1].reshape(r1 - r0, c1 - c0)
            ga[r0:r1] += gblock @ vb[:, c0:c1].T
            gb[:, c0:c1] += va[r0:r1].T @ gblock
        _accum(a, ga)
        _accum(b, gb)

    out._backward = _bw
    return out


def block_apply(w: Node, b: Node, blocks: Blocks) -> Node:
    """Weighted sums of context columns: ``b[:, cols] @ w_block^T`` per block.

    ``w`` is a blocked value of weights (one row per text-side position) and
    ``b`` is d x N; the result is d x Q, block p filling columns
    ``rows[p]:rows[p+1]``. It is the blocked form of ``b @ w^T``.
    """
    vw, vb = w.value, b.value
    _check_blocked(vw, blocks, "block_apply")
    _require_2d(vb, "block_apply context")
    if blocks.cols[-1] != vb.shape[1]:
        raise DimensionError("block_apply: block columns do not fit the context positions")
    # built transposed, so that every block product reads and writes
    # contiguous rows; the node holds the d x Q transpose view
    vbT = np.ascontiguousarray(vb.T)
    valueT = np.empty((int(blocks.rows[-1]), vb.shape[0]))
    for r0, r1, c0, c1, f0, f1 in blocks.spans:
        np.matmul(vw[f0:f1].reshape(r1 - r0, c1 - c0), vbT[c0:c1], out=valueT[r0:r1])
    out = Node(valueT.T, "block_apply", (w, b))

    def _bw(g):
        gw, gb = np.empty_like(vw), np.zeros_like(vb)
        for p, (r0, r1, c0, c1, f0, f1) in enumerate(blocks.spans):
            gw[f0:f1] = (g[:, r0:r1].T @ vb[:, c0:c1]).ravel()
            gb[:, c0:c1] += g[:, r0:r1] @ blocks.block(vw, p)
        _accum(w, gw)
        _accum(b, gb)

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# structural ops


def transpose(a: Node) -> Node:
    """Transpose a 2-d node, such as a packed text map."""
    _require_2d(a.value, "transpose")
    out = Node(np.ascontiguousarray(a.value.T), "transpose", (a,))
    out._backward = lambda g: _accum(a, g.T)
    return out


def gather(a: Node, idx, axis: int = 1) -> Node:
    """Copy the positions ``idx`` of a 2-d node along ``axis``, repeats allowed.

    The backward adds each copy's gradient back onto its source position.
    """
    va = a.value
    _require_2d(va, "gather")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1 or (idx.size and (idx.min() < 0 or idx.max() >= va.shape[axis])):
        raise ContractError(f"gather: indices out of range for {va.shape[axis]} positions")
    out = Node(np.take(va, idx, axis=axis), "gather", (a,))

    def _bw(g):
        back = np.zeros_like(va)
        np.add.at(back, (slice(None), idx) if axis == 1 else idx, g)
        _accum(a, back)

    out._backward = _bw
    return out


def window3(h: Node, starts) -> Node:
    """Stack each position's [previous; current; next] columns as 3d x m.

    Every segment of ``starts`` is zero-padded at both of its ends.
    """
    vh = h.value
    _require_2d(vh, "window3")
    d, m = vh.shape
    # the first column of every segment but the first: no previous, and the
    # column before it has no next
    cut = _check_starts(starts, m, "window3")[1:]
    win = np.zeros((3 * d, m))
    win[:d, 1:] = vh[:, :-1]
    win[d:2 * d] = vh
    win[2 * d:, :-1] = vh[:, 1:]
    if cut.size:
        win[:d, cut] = 0.0
        win[2 * d:, cut - 1] = 0.0
    out = Node(win, "window3", (h,))

    def _bw(g):
        # The centre block first, then the sum of both shifted blocks: the
        # order of a pad, slice and concat composition, so gradients and
        # trained checkpoints keep the bits that composition gave them.
        _accum(h, g[d:2 * d])
        to_next, to_prev = g[2 * d:, :-1], g[:d, 1:]
        if cut.size:
            to_next, to_prev = to_next.copy(), to_prev.copy()
            to_next[:, cut - 1] = 0.0
            to_prev[:, cut - 1] = 0.0
        shifted = np.zeros((d, m))
        shifted[:, 1:] += to_next
        shifted[:, :-1] += to_prev
        _accum(h, shifted)

    out._backward = _bw
    return out


def concat_rows(nodes: list[Node]) -> Node:
    """Stack 2-d nodes vertically; all must share the column count."""
    if not nodes:
        raise ContractError("concat_rows: need at least one input")
    cols = nodes[0].value.shape[1] if nodes[0].value.ndim == 2 else None
    for n in nodes:
        _require_2d(n.value, "concat_rows")
        if n.value.shape[1] != cols:
            raise DimensionError("concat_rows: column counts differ")
    out = Node(np.concatenate([n.value for n in nodes], axis=0), "concat_rows", tuple(nodes))
    offsets = np.cumsum([0] + [n.value.shape[0] for n in nodes])

    def _bw(g):
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            _accum(n, g[lo:hi, :])

    out._backward = _bw
    return out


def nll(probs: Node, labels) -> Node:
    """Mean negative log probability of the gold entries of K x B probability
    columns, one label per column, each floored at 1e-12 and summed in
    column order.

    The gradient reaches an entry only where it lies above the floor.
    """
    v = probs.value
    _require_2d(v, "nll")
    k, b = v.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (b,) or (b and (labels.min() < 0 or labels.max() >= k)):
        raise ContractError(f"nll: need one label in [0, {k}) for each of {b} columns")
    cols = np.arange(b)
    p = v[labels, cols]
    floored = np.maximum(p, 1e-12)
    total = 0.0
    for loss in (-np.log(floored)).tolist():
        total += loss
    out = Node(np.asarray(total / b), "nll", (probs,))

    def _bw(g):
        back = np.zeros_like(v)
        back[labels, cols] = ((-g / b) / floored) * (p > 1e-12)
        _accum(probs, back)

    out._backward = _bw
    return out


def embed(table: Node, ids) -> Node:
    """Gather embedding rows for a token id sequence as a d x len feature map.

    The backward costs O(len(ids) * d), not O(V * d), and leaves the
    table's gradient row-sparse, a ``RowGrad``. Each distinct id's columns
    are summed from zero in the order they occur, one pass per occurrence
    rank so that no pass adds to a row twice. A later ``embed`` of the same
    table merges its rows into the gradient, adding its sums after the
    earlier ones. Every row holds the bits a dense V x d zero-started
    scatter gives, and the rows it skips would only have had +0.0 added.
    """
    _require_2d(table.value, "embed table")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise EmptyInputError("embed: need a non-empty 1-d id sequence")
    vocab, d = table.value.shape
    if idx.min() < 0 or idx.max() >= vocab:
        raise ContractError(f"embed: id out of range for vocabulary of {vocab}")
    out = Node(table.value[idx].T, "embed", (table,))

    def _bw(g):
        order = np.argsort(idx, kind="stable")
        ids = idx[order]
        first = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
        uniq, counts = ids[first], np.diff(first, append=ids.size)
        gT = g.T
        # + 0.0: a zero-started sum, so a -0.0 column reads +0.0
        local = np.add(gT[order[first]], 0.0)
        for k in range(1, int(counts.max())):
            has = np.flatnonzero(counts > k)
            local[has] += gT[order[first[has] + k]]
        grad = table.grad
        if grad is None:
            table.grad = RowGrad(uniq, local)
            return
        rows = np.union1d(grad.rows, uniq)
        block = np.zeros((rows.size, d))
        block[np.searchsorted(rows, grad.rows)] = grad.block
        block[np.searchsorted(rows, uniq)] += local
        table.grad = RowGrad(rows, block)

    out._backward = _bw
    return out


def max_over_positions(h: Node, starts) -> Node:
    """Row-wise max over each segment of a d x m feature map: one pooled
    column per segment of ``starts`` (d x S).

    The gradient is routed only to the winning column of each row; ties go
    to the lowest column index of the segment.
    """
    vh = h.value
    _require_2d(vh, "max_over_positions")
    if vh.shape[1] == 0:
        raise EmptyInputError("max_over_positions: empty position axis")
    starts = _check_starts(starts, vh.shape[1], "max_over_positions")
    out = Node(np.maximum.reduceat(vh, starts, axis=1), "max_over_positions", (h,))

    def _bw(g):
        # the winners are found here, so a forward-only pass never looks for them
        ends = np.append(starts[1:], vh.shape[1])
        rows = np.arange(vh.shape[0])[:, None]
        wins = np.stack([lo + vh[:, lo:hi].argmax(axis=1)
                         for lo, hi in zip(starts.tolist(), ends.tolist())], axis=1)
        back = np.zeros_like(vh)
        back[rows, wins] = g
        _accum(h, back)

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# softmax


def softmax(scores: Node) -> Node:
    """Softmax of every column of a 2-d score node, shifted by its max for
    stability."""
    v = scores.value
    _require_2d(v, "softmax")
    e = np.exp(v - v.max(axis=0))
    p = e / e.sum(axis=0)
    out = Node(p, "softmax", (scores,))
    out._backward = lambda g: _accum(scores, p * (g - (g * p).sum(axis=0)))
    return out


def masked_softmax_rows(scores: Node, blocks: Blocks, exclude_self: bool = False) -> Node:
    """Softmax over every row of every block of a blocked score value.

    ``exclude_self`` gives each diagonal entry weight exactly 0; it needs
    square blocks (DimensionError) of at least two rows each
    (EmptyContextError).
    """
    v = scores.value
    _check_blocked(v, blocks, "masked_softmax_rows")
    if exclude_self:
        diagonal = blocks.diagonal
        if any(r1 - r0 < 2 for r0, r1, *_ in blocks.spans):
            raise EmptyContextError(EXCLUDE_SELF_ALONE)
        v = v.copy()
        v[diagonal] = -np.inf
    starts, lens = blocks.row_starts, blocks.row_len
    e = np.exp(v - np.maximum.reduceat(v, starts).repeat(lens))
    p = e / np.add.reduceat(e, starts).repeat(lens)
    out = Node(p, "masked_softmax_rows", (scores,))

    def _bw(g):
        _accum(scores, p * (g - np.add.reduceat(g * p, starts).repeat(lens)))

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# graph traversal


def topo_order(root: Node) -> list[Node]:
    """Inputs-before-outputs ordering of the graph reachable from root."""
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for inp in node.inputs:
            if id(inp) not in seen:
                stack.append((inp, False))
    return order


def _consumed(g) -> None:
    raise ContractError("backward: reached a node an earlier backward consumed")


def backward(loss: Node) -> None:
    """Propagate d(loss)/d(node) to every leaf reachable from ``loss``.

    Leaves accumulate gradients into ``node.grad``; callers zero parameter
    grads between optimization steps. Each interior node is consumed once
    walked: its gradient, closure and inputs are dropped, so the graph
    frees as it goes. A backward that reaches a consumed node, through the
    same loss or a shared subgraph, raises ContractError; what it pushed
    before stays in the leaves. A constant leaf loss has no graph to consume.
    """
    if loss.value.size != 1:
        raise ContractError(f"backward: loss must be a scalar, got shape {loss.value.shape}")
    order = topo_order(loss)
    _accum(loss, np.ones_like(loss.value))
    while order:
        node = order.pop()
        if node._backward is not None:
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node.inputs = None, _consumed, ()


def zero_grads(nodes) -> None:
    for n in nodes:
        n.grad = None


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    """Per-tensor maximum relative errors from a finite-difference check."""

    errors: dict[str, float]
    step: float
    tolerance: float

    @property
    def max_error(self) -> float:
        return max(self.errors.values()) if self.errors else 0.0

    @property
    def worst_tensor(self) -> str:
        if not self.errors:
            return ""
        return max(self.errors, key=self.errors.get)

    @property
    def passed(self) -> bool:
        return all(e < self.tolerance for e in self.errors.values())


GRAD_CHECK_STEP = 1e-5


def _dense_grad(node: Node) -> np.ndarray:
    """``node``'s gradient as a new dense array, zero where it has none."""
    out = np.zeros_like(node.value)
    g = node.grad
    if isinstance(g, RowGrad):
        out[g.rows] = g.block
    elif g is not None:
        out[...] = g
    return out


def grad_check(build_loss, params: dict[str, Node], tolerance: float = 1e-6) -> GradCheckReport:
    """Compare analytic gradients against central finite differences of
    step ``GRAD_CHECK_STEP``.

    ``build_loss`` must be a zero-argument callable that rebuilds the full
    loss graph from the live ``params`` leaves, deterministically. It is
    called twice up front; any bitwise difference raises DeterminismError.

    Each tensor's analytic gradient is compared dense: a ``RowGrad`` is
    scattered into a zero V x d array first, and a tensor the loss never
    reaches has a zero gradient. The relative error for one entry
    is |a - n| / max(|a|, |n|, 1), and the report keeps the per-tensor
    maximum. An entry whose analytic gradient or central difference is not
    finite raises DivergenceError, since no relative error can be taken of
    it.
    """
    if not 0.0 <= tolerance < np.inf:
        raise ContractError(f"grad_check: tolerance must be finite and >= 0, got {tolerance}")
    first = build_loss()
    second = build_loss()
    if not np.array_equal(first.value, second.value):
        raise DeterminismError("grad_check: two forward passes disagreed")

    zero_grads(params.values())
    backward(first)
    analytic = {name: _dense_grad(node) for name, node in params.items()}

    errors: dict[str, float] = {}
    for name, node in params.items():
        flat = node.value.reshape(-1)
        worst = 0.0
        for i in range(flat.shape[0]):
            keep = flat[i]
            flat[i] = keep + GRAD_CHECK_STEP
            up = build_loss().value.item()
            flat[i] = keep - GRAD_CHECK_STEP
            down = build_loss().value.item()
            flat[i] = keep
            numeric = (up - down) / (2.0 * GRAD_CHECK_STEP)
            a = analytic[name].reshape(-1)[i]
            if not (math.isfinite(a) and math.isfinite(numeric)):
                raise DivergenceError(
                    f"grad_check: {name} entry {i} is not finite: analytic {float(a)}, "
                    f"central difference {numeric}"
                )
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
            if rel > worst:
                worst = rel
        errors[name] = worst
    return GradCheckReport(errors=errors, step=GRAD_CHECK_STEP, tolerance=tolerance)
