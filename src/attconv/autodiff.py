"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Graphs are built eagerly: every op below computes its value immediately and
registers a closure that pushes the output gradient back to its inputs.
``backward`` walks the graph once in reverse topological order, so each
closure runs exactly once per call.

Values are numpy float64 arrays throughout: 0-d for scalars (losses),
1-d for vectors (biases, probability vectors), 2-d for feature maps laid
out with one column per sequence position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError,
    DeterminismError,
    DimensionError,
    EmptyContextError,
    EmptyInputError,
)


class Node:
    """One vertex of the computation graph.

    ``value`` is a float64 ndarray. ``grad`` has the same shape once
    ``backward`` has run over a graph containing this node; before that it
    is None. Leaves (parameters, constants) have no inputs and no backward
    closure.
    """

    __slots__ = ("value", "grad", "op", "inputs", "name", "_backward", "_ran")

    def __init__(self, value, op: str = "leaf", inputs: tuple = (), name: str | None = None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.op = op
        self.inputs = tuple(inputs)
        self.name = name
        self._backward = None
        self._ran = False

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        tag = self.name or self.op
        return f"Node({tag}, shape={self.value.shape})"


def param(value, name: str | None = None) -> Node:
    """Create a trainable leaf node."""
    return Node(value, op="param", name=name)


def glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    """Fan-balanced uniform init: +/- sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def _accum(node: Node, g) -> None:
    if node.grad is None:
        node.grad = np.zeros_like(node.value)
    node.grad += g


def _require_2d(v: np.ndarray, what: str) -> None:
    if v.ndim != 2:
        raise DimensionError(f"{what}: expected a 2-d array, got shape {v.shape}")


# ---------------------------------------------------------------------------
# core ops


def matmul(a: Node, b: Node) -> Node:
    """Matrix product. Accepts (m,k)@(k,n) -> (m,n) and (m,k)@(k,) -> (m,)."""
    va, vb = a.value, b.value
    _require_2d(va, "matmul lhs")
    if vb.ndim not in (1, 2):
        raise DimensionError(f"matmul rhs: expected 1-d or 2-d, got shape {vb.shape}")
    if va.shape[1] != vb.shape[0]:
        raise DimensionError(f"matmul: inner dims differ, {va.shape} @ {vb.shape}")
    out = Node(va @ vb, "matmul", (a, b))

    def _bw(g):
        if vb.ndim == 2:
            _accum(a, g @ vb.T)
            _accum(b, va.T @ g)
        else:
            _accum(a, np.outer(g, vb))
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


def additive_scores(p: Node, q: Node, v: Node) -> Node:
    """Additive match scores v . tanh(p_i + q_j) for every column pair, m x n.

    ``p`` is d x m, ``q`` is d x n and ``v`` has length d. The tanh block is
    held C-ordered in m x d x n layout, so each output row is ``v @ t[i]`` on
    a contiguous d x n block: the same product, bit for bit, as a loop over
    the rows. Plain broadcasting picks a strided layout when n is small, and
    numpy's matmul sums strided blocks in another order.
    """
    vp, vq, vv = p.value, q.value, v.value
    _require_2d(vp, "additive_scores p")
    _require_2d(vq, "additive_scores q")
    if vv.ndim != 1 or not (vp.shape[0] == vq.shape[0] == vv.shape[0]):
        raise DimensionError(
            f"additive_scores: p {vp.shape}, q {vq.shape} and v {vv.shape} must share d"
        )
    t = np.tanh(np.add(vp.T[:, :, None], vq[None, :, :], order="C"))
    out = Node(vv @ t, "additive_scores", (p, q, v))

    def _bw(g):
        gt = vv[None, :, None] * g[:, None, :] * (1.0 - t * t)
        _accum(p, gt.sum(axis=2).T)
        _accum(q, gt.sum(axis=0))
        _accum(v, (t * g[:, None, :]).sum(axis=(0, 2)))

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# structural ops


def transpose(a: Node) -> Node:
    _require_2d(a.value, "transpose")
    out = Node(np.ascontiguousarray(a.value.T), "transpose", (a,))
    out._backward = lambda g: _accum(a, g.T)
    return out


def window3(h: Node) -> Node:
    """Stack each position's [previous; current; next] columns as 3d x m.

    Sequence boundaries see zero vectors, matching zero padding.
    """
    vh = h.value
    _require_2d(vh, "window3")
    d, m = vh.shape
    win = np.zeros((3 * d, m))
    win[:d, 1:] = vh[:, :-1]
    win[d:2 * d] = vh
    win[2 * d:, :-1] = vh[:, 1:]
    out = Node(win, "window3", (h,))

    def _bw(g):
        # The centre block first, then the sum of both shifted blocks: the
        # order of a pad, slice and concat composition, so gradients and
        # trained checkpoints keep the bits that composition gave them.
        _accum(h, g[d:2 * d])
        shifted = np.zeros((d, m))
        shifted[:, 1:] += g[2 * d:, :-1]
        shifted[:, :-1] += g[:d, 1:]
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


def concat_vec(nodes: list[Node]) -> Node:
    """Concatenate 1-d nodes into one longer vector."""
    if not nodes:
        raise ContractError("concat_vec: need at least one input")
    for n in nodes:
        if n.value.ndim != 1:
            raise DimensionError("concat_vec: inputs must be 1-d")
    out = Node(np.concatenate([n.value for n in nodes]), "concat_vec", tuple(nodes))
    offsets = np.cumsum([0] + [n.value.shape[0] for n in nodes])

    def _bw(g):
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            _accum(n, g[lo:hi])

    out._backward = _bw
    return out


def stack_cols(nodes: list[Node]) -> Node:
    """Stack equal-length 1-d nodes as the columns of a matrix."""
    if not nodes:
        raise ContractError("stack_cols: need at least one input")
    length = nodes[0].value.shape[0] if nodes[0].value.ndim == 1 else None
    for n in nodes:
        if n.value.ndim != 1 or n.value.shape[0] != length:
            raise DimensionError("stack_cols: inputs must be equal-length 1-d vectors")
    out = Node(np.stack([n.value for n in nodes], axis=1), "stack_cols", tuple(nodes))

    def _bw(g):
        for i, n in enumerate(nodes):
            _accum(n, g[:, i])

    out._backward = _bw
    return out


def row_sums(a: Node) -> Node:
    """Sum a 2-d node along its columns, returning one value per row."""
    _require_2d(a.value, "row_sums")
    out = Node(a.value.sum(axis=1), "row_sums", (a,))
    out._backward = lambda g: _accum(a, np.broadcast_to(g[:, None], a.value.shape))
    return out


def mean_of(nodes: list[Node]) -> Node:
    """Average a list of scalar nodes."""
    if not nodes:
        raise ContractError("mean_of: need at least one input")
    for n in nodes:
        if n.value.size != 1:
            raise ContractError("mean_of: inputs must be scalars")
    k = len(nodes)
    total = 0.0
    for n in nodes:
        total += n.value.item()
    out = Node(np.asarray(total / k), "mean_of", tuple(nodes))

    def _bw(g):
        share = g / k
        for n in nodes:
            _accum(n, np.broadcast_to(share, n.value.shape))

    out._backward = _bw
    return out


def nll(probs: Node, label: int) -> Node:
    """Negative log of one entry of a 1-d probability vector, floored at 1e-12.

    The gradient reaches the entry only where it lies above the floor.
    """
    v = probs.value
    if v.ndim != 1:
        raise DimensionError("nll: probabilities must be 1-d")
    if not (0 <= label < v.shape[0]):
        raise ContractError(f"nll: label {label} out of range for length {v.shape[0]}")
    p = v[label]
    floored = np.maximum(p, 1e-12)
    out = Node(-np.log(floored), "nll", (probs,))

    def _bw(g):
        if probs.grad is None:
            probs.grad = np.zeros_like(v)
        probs.grad[label] += ((-g) / floored) * (p > 1e-12)

    out._backward = _bw
    return out


def embed(table: Node, ids) -> Node:
    """Gather embedding rows for a token id sequence as a d x len feature map.

    The backward costs O(len(ids) * d), not O(V * d): the columns are summed
    per distinct id into a zero-started block, in id order, and the block is
    added to the rows it covers. That is the sum a dense V x d scatter gives,
    bit for bit; the rows it skips would only have had +0.0 added.
    """
    _require_2d(table.value, "embed table")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise EmptyInputError("embed: need a non-empty 1-d id sequence")
    vocab = table.value.shape[0]
    if idx.min() < 0 or idx.max() >= vocab:
        raise ContractError(f"embed: id out of range for vocabulary of {vocab}")
    out = Node(table.value[idx].T, "embed", (table,))

    def _bw(g):
        uniq, inv = np.unique(idx, return_inverse=True)
        local = np.zeros((uniq.shape[0], table.value.shape[1]))
        np.add.at(local, inv, g.T)
        if table.grad is None:
            table.grad = np.zeros_like(table.value)
        table.grad[uniq] += local

    out._backward = _bw
    return out


def max_over_positions(h: Node) -> Node:
    """Row-wise max over the position axis of a d x m feature map.

    Returns the pooled vector. The gradient is routed only to the winning
    column of each row; ties go to the lowest column index.
    """
    _require_2d(h.value, "max_over_positions")
    if h.value.shape[1] == 0:
        raise EmptyInputError("max_over_positions: empty position axis")
    idx = h.value.argmax(axis=1)
    out = Node(h.value.max(axis=1), "max_over_positions", (h,))
    rows = np.arange(h.value.shape[0])

    def _bw(g):
        if h.grad is None:
            h.grad = np.zeros_like(h.value)
        np.add.at(h.grad, (rows, idx), g)

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# softmax


def softmax(scores: Node) -> Node:
    """Softmax of a 1-d score vector, shifted by its max for stability."""
    v = scores.value
    if v.ndim != 1:
        raise DimensionError("softmax: scores must be 1-d")
    e = np.exp(v - v.max())
    p = e / e.sum()
    out = Node(p, "softmax", (scores,))
    out._backward = lambda g: _accum(scores, p * (g - np.dot(g, p)))
    return out


def masked_softmax_rows(scores: Node, exclude_self: bool = False) -> Node:
    """Row-wise softmax over an m x n score matrix.

    ``exclude_self`` gives each diagonal entry weight exactly 0; it needs a
    square matrix (DimensionError) of at least two rows (EmptyContextError).
    """
    v = scores.value
    _require_2d(v, "masked_softmax_rows")
    if exclude_self:
        if v.shape[0] != v.shape[1]:
            raise DimensionError(f"masked_softmax_rows: exclude-self needs m == n, got {v.shape}")
        if v.shape[0] < 2:
            raise EmptyContextError("exclude-self with a single position leaves nothing to attend")
        v = v.copy()
        np.fill_diagonal(v, -np.inf)
    e = np.exp(v - v.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    out = Node(p, "masked_softmax_rows", (scores,))

    def _bw(g):
        _accum(scores, p * (g - (g * p).sum(axis=1, keepdims=True)))

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


def backward(loss: Node) -> None:
    """Propagate d(loss)/d(node) to every node reachable from ``loss``.

    Gradients accumulate into ``node.grad``; callers zero parameter grads
    between optimization steps. Running backward twice on the same loss
    node is an error because the second pass would double-count.
    """
    if loss.value.size != 1:
        raise ContractError(f"backward: loss must be a scalar, got shape {loss.value.shape}")
    if loss._ran:
        raise ContractError("backward: already ran on this loss node; reset gradients and rebuild")
    loss._ran = True
    order = topo_order(loss)
    _accum(loss, np.ones_like(loss.value))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


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


def grad_check(build_loss, params: dict[str, Node], step: float = 1e-5,
               tolerance: float = 1e-6) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``build_loss`` must be a zero-argument callable that rebuilds the full
    loss graph from the live ``params`` leaves, deterministically. It is
    called twice up front; any bitwise difference raises DeterminismError.

    The relative error for one entry is |a - n| / max(|a|, |n|, 1), and the
    report keeps the per-tensor maximum.
    """
    if step <= 0.0:
        raise ContractError("grad_check: step must be positive")
    if not 0.0 <= tolerance < np.inf:
        raise ContractError(f"grad_check: tolerance must be finite and >= 0, got {tolerance}")
    first = build_loss()
    second = build_loss()
    if not np.array_equal(first.value, second.value):
        raise DeterminismError("grad_check: two forward passes disagreed")

    zero_grads(params.values())
    backward(first)
    analytic = {
        name: (node.grad.copy() if node.grad is not None else np.zeros_like(node.value))
        for name, node in params.items()
    }

    errors: dict[str, float] = {}
    for name, node in params.items():
        flat = node.value.reshape(-1)
        worst = 0.0
        for i in range(flat.shape[0]):
            keep = flat[i]
            flat[i] = keep + step
            up = build_loss().value.item()
            flat[i] = keep - step
            down = build_loss().value.item()
            flat[i] = keep
            numeric = (up - down) / (2.0 * step)
            a = analytic[name].reshape(-1)[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
            if rel > worst:
                worst = rel
        errors[name] = worst
    return GradCheckReport(errors=errors, step=step, tolerance=tolerance)
