"""Engine tests: op values, gradients against central differences, graph rules.

One sequence is the segment ``[0]`` and one (text, context) pair is a one-block
``Blocks``: the engine has no unsegmented op bodies.
"""

import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attconv import autodiff as ad
from attconv.errors import (
    ContractError,
    DeterminismError,
    DimensionError,
    DivergenceError,
    EmptyContextError,
    EmptyInputError,
)
from projection import project


def numeric_grad(f, x, step=1e-6):
    """Central-difference gradient of the scalar f() w.r.t. the live array x."""
    g = np.zeros_like(x)
    fx = x.reshape(-1)
    fg = g.reshape(-1)
    for i in range(fx.size):
        keep = fx[i]
        fx[i] = keep + step
        up = f()
        fx[i] = keep - step
        fg[i] = (up - f()) / (2.0 * step)
        fx[i] = keep
    return g


def assert_grads_match(build, leaves, tol=1e-7):
    """Backward once, then compare every leaf gradient to finite differences."""
    ad.zero_grads(leaves)
    loss = build()
    ad.backward(loss)
    analytic = [
        leaf.grad.copy() if leaf.grad is not None else np.zeros_like(leaf.value)
        for leaf in leaves
    ]
    for k, leaf in enumerate(leaves):
        numeric = numeric_grad(lambda: build().value.item(), leaf.value)
        denom = np.maximum(np.maximum(np.abs(analytic[k]), np.abs(numeric)), 1.0)
        err = float(np.max(np.abs(analytic[k] - numeric) / denom))
        assert err < tol, f"leaf {k}: max relative error {err:.3e}"


def one_block(m, n):
    """The layout of one m x n score block: one text against one context."""
    return ad.Blocks([0, m], [0, n])


# ---------------------------------------------------------------------------
# value oracles


def test_matmul_projector_case():
    a = ad.Node(np.array([[1.0, 0.0], [0.0, 0.0]]))
    b = ad.Node(np.array([[5.0], [7.0]]))
    assert ad.matmul(a, b).value.tolist() == [[5.0], [0.0]]


def test_matmul_shape_errors():
    a = ad.Node(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        ad.matmul(a, ad.Node(np.ones((2, 2))))
    with pytest.raises(DimensionError):
        ad.matmul(ad.Node(np.ones(3)), a)
    with pytest.raises(DimensionError):
        ad.matmul(a, ad.Node(np.ones(3)))


def test_sigmoid_at_zero():
    out = ad.sigmoid(ad.Node(np.zeros(3)))
    assert np.array_equal(out.value, np.full(3, 0.5))


def test_sigmoid_extreme_inputs_stay_finite():
    out = ad.sigmoid(ad.Node(np.array([-1000.0, 1000.0])))
    assert np.all(np.isfinite(out.value))
    assert out.value[0] == 0.0 and out.value[1] == 1.0


def test_tanh_derivative_against_finite_differences():
    x = ad.param(np.array(0.5))

    def build():
        return project(ad.tanh(x))

    ad.zero_grads([x])
    loss = build()
    ad.backward(loss)
    step = 1e-5
    x.value[()] = 0.5 + step
    up = build().value.item()
    x.value[()] = 0.5 - step
    down = build().value.item()
    x.value[()] = 0.5
    numeric = (up - down) / (2 * step)
    assert abs(x.grad.item() - numeric) / max(abs(numeric), 1.0) < 1e-7


def test_linear_loss_gradient_is_tiled_input():
    # loss = sum(W x) so dL/dW_ij = x_j for every row i
    W = ad.param(np.zeros((2, 3)))
    x = ad.Node(np.array([[1.0], [-2.0], [3.0]]))
    loss = project(ad.matmul(W, x))
    ad.backward(loss)
    assert np.array_equal(W.grad, np.tile(x.value.T, (2, 1)))


def test_add_shape_mismatch():
    with pytest.raises(DimensionError):
        ad.add(ad.Node(np.ones((2, 2))), ad.Node(np.ones((2, 3))))


def test_embed_gathers_columns():
    table = ad.Node(np.arange(12.0).reshape(4, 3))
    out = ad.embed(table, [2, 0, 2])
    assert out.value.shape == (3, 3)
    assert np.array_equal(out.value[:, 0], table.value[2])
    assert np.array_equal(out.value[:, 1], table.value[0])


def test_embed_repeated_ids_accumulate_gradient():
    table = ad.param(np.zeros((3, 2)))
    loss = project(ad.embed(table, [1, 1]))
    ad.backward(loss)
    assert np.array_equal(table.grad, np.array([[0, 0], [2, 2], [0, 0]], dtype=float))


def _dense_embed_backward(grad, table_value, ids, g):
    """The V x d scatter-then-accumulate backward, kept as the oracle."""
    gt = np.zeros_like(table_value)
    np.add.at(gt, np.asarray(ids), g.T)
    if grad is None:
        grad = np.zeros_like(table_value)
    grad += gt
    return grad


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("preset", [False, True], ids=["fresh", "preset"])
def test_embed_backward_matches_the_dense_scatter_bitwise(seed, preset):
    rng = np.random.default_rng(seed)
    vocab, d = 12, 5
    table = ad.param(rng.standard_normal((vocab, d)))

    def spread(shape):
        # magnitudes over 16 decades, so a changed summation order shows
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)

    start = spread((vocab, d)) if preset else None
    table.grad = None if start is None else start.copy()
    calls = [[7, 2, 7, 0, 11, 2, 2, 7], [3, 7, 9, 7, 0]]  # unsorted, repeated, shared
    embeds = [ad.embed(table, ids) for ids in calls]
    # backward releases each embed node's gradient once pushed, so record
    # what every closure receives, in the order backward runs them
    received = []
    for k, node in enumerate(embeds):
        def recording(g, k=k, push=node._backward):
            received.append((k, g))
            push(g)
        node._backward = recording
    coeffs = [spread(e.value.shape) for e in embeds]
    loss = ad.add(project(embeds[0], coeffs[0]), project(embeds[1], coeffs[1]))
    ad.backward(loss)

    assert sorted(k for k, _ in received) == [0, 1]
    want = start
    for k, g in received:
        want = _dense_embed_backward(want, table.value, calls[k], g)
    assert table.grad.tobytes() == want.tobytes()


def test_embed_backward_allocates_no_table_per_call():
    table = ad.param(np.ones((20_000, 64)))
    calls = [[5, 19_999, 5, 0], [7, 8], [19_999, 3, 3], [12_345]]
    loss = project(ad.embed(table, calls[0]))
    for ids in calls[1:]:
        loss = ad.add(loss, project(ad.embed(table, ids)))
    tracemalloc.start()
    try:
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one V x d gradient is unavoidable; a scratch table per call is not
    assert peak < 1.5 * table.value.nbytes
    assert table.grad[3].tolist() == [2.0] * 64 and table.grad[1].tolist() == [0.0] * 64


def test_embed_input_errors():
    table = ad.Node(np.zeros((3, 2)))
    with pytest.raises(EmptyInputError):
        ad.embed(table, [])
    with pytest.raises(ContractError):
        ad.embed(table, [3])


def test_max_over_positions_values_and_argmax():
    h = ad.param(np.array([[1.0, 3.0, 2.0], [0.0, -1.0, -2.0]]))
    out = ad.max_over_positions(h, [0])
    assert out.value.tolist() == [[3.0], [0.0]]
    # the winner of each row is where its gradient lands
    ad.backward(project(out, np.array([[1.0], [2.0]])))
    assert h.grad.tolist() == [[0.0, 1.0, 0.0], [2.0, 0.0, 0.0]]


def test_max_over_positions_tie_goes_to_lowest_index():
    h = ad.param(np.array([[7.0, 7.0, 7.0]]))
    out = ad.max_over_positions(h, [0])
    assert out.value.tolist() == [[7.0]]
    ad.backward(project(out))
    assert h.grad.tolist() == [[1.0, 0.0, 0.0]]


def test_max_over_positions_routes_gradient_to_winner():
    h = ad.param(np.array([[1.0, 5.0, 2.0]]))
    out = ad.max_over_positions(h, [0])
    ad.backward(project(out))
    assert np.array_equal(h.grad, np.array([[0.0, 1.0, 0.0]]))


def test_max_over_a_single_position_is_that_position():
    h = ad.param(np.array([[4.0], [-3.0]]))
    out = ad.max_over_positions(h, [0])
    assert np.array_equal(out.value, h.value)
    ad.backward(project(out, np.array([[2.0], [5.0]])))
    assert h.grad.tolist() == [[2.0], [5.0]]


def test_max_over_positions_empty_axis():
    with pytest.raises(EmptyInputError):
        ad.max_over_positions(ad.Node(np.zeros((2, 0))), [0])


def test_masked_softmax_symmetric_scores():
    p = ad.softmax(ad.Node(np.zeros((2, 1))))
    assert np.array_equal(p.value, np.array([[0.5], [0.5]]))
    rows = ad.masked_softmax_rows(ad.Node(np.zeros(2)), one_block(1, 2))
    assert np.array_equal(rows.value, np.array([0.5, 0.5]))


def test_masked_softmax_two_score_oracle():
    # independent evaluation of e^1 / (e^1 + e^0)
    want = math.exp(1.0) / (math.exp(1.0) + math.exp(0.0))
    p = ad.softmax(ad.Node(np.array([[1.0], [0.0]]))).value[:, 0]
    assert abs(p[0] - want) < 1e-15
    assert abs(p[0] - 0.7310585786300049) < 1e-12
    assert abs(p.sum() - 1.0) < 1e-15
    # one row of the row softmax is the same arithmetic
    rows = ad.masked_softmax_rows(ad.Node(np.array([1.0, 0.0])), one_block(1, 2))
    assert np.array_equal(rows.value, p)


def test_masked_softmax_rows_names_the_dead_row():
    # exclude-self on one position leaves its only row nothing to attend
    with pytest.raises(EmptyContextError, match="nothing to attend"):
        ad.masked_softmax_rows(ad.Node(np.zeros(1)), one_block(1, 1), exclude_self=True)


def test_masked_softmax_rows_mask_shape_errors():
    # the diagonal is only a mask of a square block
    with pytest.raises(DimensionError, match="square"):
        ad.masked_softmax_rows(ad.Node(np.zeros(6)), one_block(2, 3), exclude_self=True)


def test_masked_softmax_rows_exclude_self_matches_the_submatrix_softmax():
    # each row equals the softmax of that row with its diagonal entry removed
    scores = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 4.0], [2.0, 2.0, 2.0]])
    w = ad.masked_softmax_rows(ad.Node(scores.ravel()), one_block(3, 3), True).value.reshape(3, 3)
    for i in range(3):
        assert w[i, i] == 0.0
        rest = np.delete(scores[i], i)
        assert np.array_equal(np.delete(w[i], i), ad.softmax(ad.Node(rest[:, None])).value[:, 0])


def test_nll_values():
    columns = ad.Node(np.array([[0.1, 0.6], [0.9, 0.4]]))
    assert ad.nll(columns, [1, 0]).value.item() == pytest.approx(
        (-math.log(0.9) - math.log(0.6)) / 2, rel=1e-15)
    for labels in (0, [1], [1, 2], [-1, 0]):
        with pytest.raises(ContractError):
            ad.nll(columns, labels)
    for shape in ((3,), (1, 3, 1)):
        with pytest.raises(DimensionError):
            ad.nll(ad.Node(np.full(shape, 0.5)), [0])
    # the K x B loss is the mean of the columns' own losses, summed in column order
    three = np.array([[0.1, 0.5, 0.25], [0.7, 0.5, 0.75], [0.2, 0.0, 0.0]])
    labels = [1, 0, 2]
    total = 0.0
    for b, label in enumerate(labels):
        total += ad.nll(ad.Node(three[:, b:b + 1]), [label]).value.item()
    assert ad.nll(ad.Node(three), labels).value.item() == total / 3


def test_nll_at_the_floor_has_a_fixed_value_and_zero_gradient():
    probs = ad.param(np.array([[1.0], [0.0], [0.0]]))
    loss = ad.nll(probs, [1])
    assert loss.value.item() == pytest.approx(-math.log(1e-12), rel=1e-15)
    ad.backward(loss)
    assert np.array_equal(probs.grad, np.zeros((3, 1)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_nll_matches_the_stepwise_reference_bitwise(seed):
    # reference: the loss as four elementary steps (select the entry, floor
    # it at 1e-12, take the log, negate), each backward step accumulated into
    # a zero gradient as the engine does, under the upstream gradient 1/3
    # that the mean of 3 losses hands each of them
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(5))
    p[3] = 1e-13  # one entry under the floor
    g = np.asarray(1.0) / 3
    for label in range(5):
        picked = np.asarray(p[label])
        clamped = np.asarray(np.maximum(picked, 1e-12))
        want_value = np.asarray(np.log(clamped)) * -1.0
        g_log = np.zeros(()) + g * -1.0
        g_clamp = np.zeros(()) + g_log / clamped
        g_pick = np.zeros(()) + g_clamp * (picked > 1e-12)
        want_grad = np.zeros((5, 1))
        want_grad[label] += g_pick

        probs = ad.param(p[:, None].copy())
        loss = ad.nll(probs, [label])
        ad.backward(project(loss, 1 / 3))
        assert loss.value.tobytes() == want_value.tobytes()
        assert probs.grad.tobytes() == want_grad.tobytes()


# ---------------------------------------------------------------------------
# segments and blocks: each segment or block as if it stood alone


def test_segmented_window_and_max_equal_each_segment_alone():
    # comparison: bitwise; a segment's window and max read only its own columns
    rng = np.random.default_rng(31)
    h = rng.standard_normal((3, 7))
    starts = [0, 1, 4]
    pieces = np.split(h, starts[1:], axis=1)
    want_win = np.hstack([ad.window3(ad.Node(x), [0]).value for x in pieces])
    assert np.array_equal(ad.window3(ad.Node(h), starts).value, want_win)
    want_max = np.hstack([ad.max_over_positions(ad.Node(x), [0]).value for x in pieces])
    assert np.array_equal(ad.max_over_positions(ad.Node(h), starts).value, want_max)


def test_blocked_ops_equal_each_block_alone():
    # comparison: bitwise; every op runs each block or row on its own
    rng = np.random.default_rng(32)
    blocks = ad.Blocks([0, 2, 5], [0, 3, 4])
    a, b = rng.standard_normal((5, 3)), rng.standard_normal((3, 4))
    scores = ad.block_scores(ad.Node(a), ad.Node(b), blocks).value
    weights = ad.masked_softmax_rows(ad.Node(scores), blocks).value
    applied = ad.block_apply(ad.Node(weights), ad.Node(b), blocks).value
    p, q, v = rng.standard_normal((3, 5)), rng.standard_normal((3, 4)), rng.standard_normal(3)
    additive = ad.additive_scores(ad.Node(p), ad.Node(q), ad.Node(v), blocks).value
    for k, (r0, r1, c0, c1, _, _) in enumerate(blocks.spans):
        alone = one_block(r1 - r0, c1 - c0)
        want = ad.matmul(ad.Node(a[r0:r1]), ad.Node(b[:, c0:c1])).value
        assert np.array_equal(blocks.block(scores, k), want)
        want_w = ad.masked_softmax_rows(ad.Node(want.ravel()), alone).value
        assert np.array_equal(blocks.block(weights, k).ravel(), want_w)
        assert np.array_equal(applied[:, r0:r1], b[:, c0:c1] @ blocks.block(weights, k).T)
        want_a = ad.additive_scores(ad.Node(p[:, r0:r1]), ad.Node(q[:, c0:c1]), ad.Node(v), alone)
        assert np.array_equal(blocks.block(additive, k).ravel(), want_a.value)


def test_block_softmax_exclude_self_zeroes_each_block_diagonal():
    square = ad.Blocks([0, 3, 5], [0, 3, 5])
    w = ad.masked_softmax_rows(ad.Node(np.zeros(square.size)), square, True).value
    for k, half in enumerate((0.5, 1.0)):
        block = square.block(w, k)
        assert np.all(np.diag(block) == 0.0)
        assert np.all(block[~np.eye(len(block), dtype=bool)] == half)
    with pytest.raises(DimensionError):
        ad.masked_softmax_rows(ad.Node(np.zeros(BLOCKS.size)), BLOCKS, True)
    alone = ad.Blocks([0, 3, 4], [0, 3, 4])
    with pytest.raises(EmptyContextError, match="nothing to attend"):
        ad.masked_softmax_rows(ad.Node(np.zeros(alone.size)), alone, True)


def test_segment_and_block_preconditions():
    h = ad.Node(np.zeros((2, 4)))
    for starts in ([], [1], [0, 0], [0, 3, 2], [0, 4]):
        for op in (ad.window3, ad.max_over_positions):
            with pytest.raises(ContractError):
                op(h, starts)
    for rows, cols in (([0], [0]), ([1, 2], [0, 1]), ([0, 1, 1], [0, 1, 2]), ([0, 1], [0, 1, 2]),
                       ([[0, 1], [0, 2]], [[0, 1], [0, 2]])):
        with pytest.raises(ContractError):
            ad.Blocks(rows, cols)
    with pytest.raises(ContractError):
        ad.gather(h, [0, 4])
    with pytest.raises(DimensionError):
        ad.block_scores(ad.Node(np.zeros((4, 3))), ad.Node(np.zeros((3, 4))), BLOCKS)
    with pytest.raises(DimensionError):
        ad.block_apply(ad.Node(np.zeros(BLOCKS.size + 1)), ad.Node(np.zeros((3, 4))), BLOCKS)
    with pytest.raises(DimensionError):
        ad.masked_softmax_rows(ad.Node(np.zeros((2, 5))), BLOCKS)


def test_structural_op_preconditions():
    with pytest.raises(ContractError):
        ad.concat_rows([])
    with pytest.raises(DimensionError):
        ad.concat_rows([ad.Node(np.ones((2, 2))), ad.Node(np.ones((2, 3)))])
    with pytest.raises(DimensionError):
        ad.window3(ad.Node(np.ones(3)), [0])
    p = ad.Node(np.ones((2, 3)))
    q = ad.Node(np.ones((2, 4)))
    pair = one_block(3, 4)
    with pytest.raises(DimensionError):
        ad.additive_scores(p, q, ad.Node(np.ones(3)), pair)
    with pytest.raises(DimensionError):
        ad.additive_scores(p, ad.Node(np.ones((3, 4))), ad.Node(np.ones(2)), pair)
    with pytest.raises(DimensionError):
        ad.additive_scores(p, q, ad.Node(np.ones((2, 1))), pair)
    with pytest.raises(DimensionError):
        ad.additive_scores(ad.Node(np.ones(2)), q, ad.Node(np.ones(2)), pair)
    with pytest.raises(DimensionError):
        ad.additive_scores(p, q, ad.Node(np.ones(2)), one_block(3, 5))


def _per_row_loop(p, q, v, g, blocks):
    """The reference: one row at a time, v @ tanh(p_i + q_block), and its
    elementwise backward v g (1 - t^2) summed afterwards."""
    want = np.empty(blocks.size)
    gp, gq, gv = np.zeros_like(p), np.zeros_like(q), np.zeros_like(v)
    for r0, r1, c0, c1, f0, _ in blocks.spans:
        n = c1 - c0
        for i in range(r0, r1):
            lo = f0 + (i - r0) * n
            gi = g[lo:lo + n]
            t = np.tanh(np.repeat(p[:, i:i + 1], n, axis=1) + q[:, c0:c1])
            want[lo:lo + n] = v @ t
            gv += t @ gi
            gpre = np.outer(v, gi) * (1.0 - t * t)
            gq[:, c0:c1] += gpre
            gp[:, i] = gpre.sum(axis=1)
    return want, (gp, gq, gv)


def _assert_additive_scores_match_the_loop(blocks, d, seed):
    rng = np.random.default_rng(seed)
    p, q = rng.standard_normal((d, blocks.rows[-1])), rng.standard_normal((d, blocks.cols[-1]))
    v, g = rng.standard_normal(d), rng.standard_normal(blocks.size)
    want, grads = _per_row_loop(p, q, v, g, blocks)
    leaves = [ad.param(p), ad.param(q), ad.param(v)]
    scores = ad.additive_scores(*leaves, blocks)
    assert np.array_equal(scores.value, want)
    ad.backward(project(scores, g))
    for leaf, ref in zip(leaves, grads):
        assert np.max(np.abs(leaf.grad - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("rows, cols", [([0, 4], [0, n]) for n in (1, 2, 3, 4, 9)]
                         + [([0, 1, 4, 5, 11], [0, 1, 2, 9, 12])],
                         ids=["1", "2", "3", "4", "9", "ragged"])
def test_additive_scores_match_the_per_row_loop(rows, cols):
    # reference: the per-row loop. The scores keep the loop's arithmetic, so
    # they are compared bitwise, short contexts included; the gradients are
    # contractions that sum in another order, so they are compared to 1e-12
    # of their largest entry. The ragged layout has blocks of 1x1, 3x1, 1x7
    # and 6x3, each writing its own rows and columns of the gradients.
    _assert_additive_scores_match_the_loop(ad.Blocks(rows, cols), 5, cols[-1])


@settings(max_examples=100, deadline=None)
@given(shapes=st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)), min_size=1, max_size=6),
       d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@example(shapes=[(1, 1)], d=1, seed=0)
@example(shapes=[(1, 1), (7, 7), (1, 1)], d=4, seed=1)
def test_additive_scores_match_the_per_row_loop_on_generated_layouts(shapes, d, seed):
    # Clause pinned: a fast path is tested against the reference path,
    # bitwise where the arithmetic order is kept (the scores, and so the
    # tanh the backward rebuilds) and within a stated tolerance where it is
    # not (the gradients, 1e-12 of the largest entry). Layouts are ragged
    # packs of 1-6 blocks of 1-7 rows x 1-7 columns, 1 x 1 blocks included.
    rows, cols = np.cumsum([(0, 0)] + shapes, axis=0).T
    _assert_additive_scores_match_the_loop(ad.Blocks(rows, cols), d, seed)


def test_additive_scores_hold_no_tanh_and_scratch_one_block_at_a_time():
    # Eight 24 x 24 blocks at d=32, the pair size of the no-conv intra bench
    # workload, packed as one call. Measured with numpy 2.4, in units of one
    # block's tanh: the forward peaks at 2.05 (its one scratch block, numpy's
    # fixed 64 KiB ufunc buffer of the broadcast add, the scores and p^T);
    # 0.59 stays held after it (the scores, 1/d of a block per block, and
    # p^T, 1/columns); the backward adds 2.35 (its own scratch block, the
    # p and q gradients and the leaves' gradients). A forward that keeps
    # every tanh for the backward reads 9.05, 8.60 and 2.35. Bounds: each
    # measurement plus 0.2, rounded up.
    rng = np.random.default_rng(5)
    d, m, k = 32, 24, 8
    p, q = ad.param(rng.standard_normal((d, k * m))), ad.param(rng.standard_normal((d, k * m)))
    v = ad.param(rng.standard_normal(d))
    edges = np.arange(k + 1) * m
    blocks = ad.Blocks(edges, edges)
    g = rng.standard_normal(blocks.size)
    tanh_bytes = m * d * m * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scores = ad.additive_scores(p, q, v, blocks)
        held = tracemalloc.get_traced_memory()[0]
        forward_peak = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        scores._backward(g)
        backward_added = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert forward_peak < 2.3 * tanh_bytes
    assert held - before < 0.8 * tanh_bytes
    assert backward_added < 2.6 * tanh_bytes


def test_glorot_bounds_and_determinism():
    limit = math.sqrt(6.0 / (7 + 5))
    a = ad.glorot(np.random.default_rng(9), 5, 7)
    b = ad.glorot(np.random.default_rng(9), 5, 7)
    assert a.shape == (5, 7)
    assert np.all(np.abs(a) <= limit)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# gradients of every op against finite differences


def _case_matmul(rng):
    a = ad.param(rng.standard_normal((3, 4)))
    b = ad.param(rng.standard_normal((4, 2)))
    return [a, b], lambda: project(ad.matmul(a, b))


def _case_matmul_column(rng):
    # the classifier's shape in a batch of one
    a = ad.param(rng.standard_normal((3, 4)))
    v = ad.param(rng.standard_normal((4, 1)))
    return [a, v], lambda: project(ad.matmul(a, v))


def _case_add(rng):
    a = ad.param(rng.standard_normal((2, 3)))
    b = ad.param(rng.standard_normal((2, 3)))
    c = rng.standard_normal((2, 3))
    return [a, b], lambda: project(ad.add(a, b), c)


def _case_tanh(rng):
    a = ad.param(rng.standard_normal((2, 4)))
    return [a], lambda: project(ad.tanh(a))


def _case_sigmoid(rng):
    a = ad.param(rng.standard_normal((3, 3)))
    return [a], lambda: project(ad.sigmoid(a))


def _case_gate_mix(rng):
    g = ad.param(rng.uniform(0.2, 0.8, (2, 3)))
    u = ad.param(rng.standard_normal((2, 3)))
    o = ad.param(rng.standard_normal((2, 3)))
    return [g, u, o], lambda: project(ad.gate_mix(g, u, o))


def _case_add_bias(rng):
    m = ad.param(rng.standard_normal((3, 4)))
    b = ad.param(rng.standard_normal(3))
    return [m, b], lambda: project(ad.tanh(ad.add_bias(m, b)))


def _case_transpose(rng):
    a = ad.param(rng.standard_normal((2, 5)))
    c = rng.standard_normal((5, 2))
    return [a], lambda: project(ad.transpose(a), c)


def _case_concat_rows(rng):
    a = ad.param(rng.standard_normal((2, 3)))
    b = ad.param(rng.standard_normal((1, 3)))
    c = rng.standard_normal((3, 3))
    return [a, b], lambda: project(ad.concat_rows([a, b]), c)


def _case_window3(m):
    def case(rng):
        a = ad.param(rng.standard_normal((3, m)))
        c = rng.standard_normal((9, m))
        return [a], lambda: project(ad.window3(a, [0]), c)

    return case


def _case_additive_scores(rng):
    p = ad.param(rng.standard_normal((3, 4)))
    q = ad.param(rng.standard_normal((3, 5)))
    v = ad.param(rng.standard_normal(3))
    c = rng.standard_normal(20)
    return [p, q, v], lambda: project(ad.additive_scores(p, q, v, one_block(4, 5)), c)


def _case_nll(rng):
    # one column, entries well above the 1e-12 floor, so the step never crosses it
    a = ad.param(rng.uniform(0.1, 0.9, (4, 1)))
    return [a], lambda: ad.nll(a, [2])


def _case_nll_mean(rng):
    # three copies of one column, one label repeated: the K x B mean sums
    # all three losses' gradients into it
    a = ad.param(rng.uniform(0.1, 0.9, (4, 1)))
    return [a], lambda: ad.nll(ad.gather(a, [0, 0, 0]), [0, 2, 2])


def _case_embed(rng):
    table = ad.param(rng.standard_normal((5, 3)))
    c = rng.standard_normal((3, 4))
    return [table], lambda: project(ad.embed(table, [1, 4, 1, 0]), c)


def _case_max_over_positions(rng):
    # distinct entries with a wide margin so the step never flips the argmax
    base = rng.permutation(15).reshape(3, 5).astype(float) * 0.4
    h = ad.param(base + rng.uniform(-0.01, 0.01, (3, 5)))

    c = rng.standard_normal((3, 1))
    return [h], lambda: project(ad.max_over_positions(h, [0]), c)


def _case_softmax(rng):
    s = ad.param(rng.standard_normal((5, 1)))
    c = rng.standard_normal((5, 1))
    return [s], lambda: project(ad.softmax(s), c)


def _case_masked_softmax_rows(rng):
    s = ad.param(rng.standard_normal(16))
    c = rng.standard_normal(16)
    return [s], lambda: project(ad.masked_softmax_rows(s, one_block(4, 4), exclude_self=True), c)


# two pairs: 2 text positions against 3 context positions, then 3 against 1
BLOCKS = ad.Blocks([0, 2, 5], [0, 3, 4])
SQUARE = ad.Blocks([0, 2, 5], [0, 2, 5])


def _case_window3_segments(rng):
    a = ad.param(rng.standard_normal((3, 6)))
    c = rng.standard_normal((9, 6))
    return [a], lambda: project(ad.window3(a, [0, 2, 3]), c)


def _case_max_over_segments(rng):
    base = rng.permutation(15).reshape(3, 5).astype(float) * 0.4
    h = ad.param(base + rng.uniform(-0.01, 0.01, (3, 5)))
    c = rng.standard_normal((3, 2))
    return [h], lambda: project(ad.max_over_positions(h, [0, 2]), c)


def _case_gather(rng):
    a = ad.param(rng.standard_normal((3, 4)))
    b = ad.param(rng.standard_normal((4, 3)))
    c, e = rng.standard_normal((3, 6)), rng.standard_normal((5, 3))
    return [a, b], lambda: ad.add(project(ad.gather(a, [0, 1, 3, 0, 1, 3]), c),
                                  project(ad.gather(b, [2, 2, 0, 1, 3], axis=0), e))


def _case_block_scores(rng):
    a = ad.param(rng.standard_normal((5, 3)))
    b = ad.param(rng.standard_normal((3, 4)))
    c = rng.standard_normal(BLOCKS.size)
    return [a, b], lambda: project(ad.block_scores(a, b, BLOCKS), c)


def _case_block_apply(rng):
    w = ad.param(rng.standard_normal(BLOCKS.size))
    b = ad.param(rng.standard_normal((3, 4)))
    c = rng.standard_normal((3, 5))
    return [w, b], lambda: project(ad.block_apply(w, b, BLOCKS), c)


def _case_additive_blocks(rng):
    p = ad.param(rng.standard_normal((3, 5)))
    q = ad.param(rng.standard_normal((3, 4)))
    v = ad.param(rng.standard_normal(3))
    c = rng.standard_normal(BLOCKS.size)
    return [p, q, v], lambda: project(ad.additive_scores(p, q, v, BLOCKS), c)


def _case_block_softmax_rows(rng):
    s = ad.param(rng.standard_normal(SQUARE.size))
    c = rng.standard_normal(SQUARE.size)
    return [s], lambda: project(ad.masked_softmax_rows(s, SQUARE, exclude_self=True), c)


def _case_softmax_columns(rng):
    s = ad.param(rng.standard_normal((3, 4)))
    c = rng.standard_normal((3, 4))
    return [s], lambda: project(ad.softmax(s), c)


def _case_nll_columns(rng):
    a = ad.param(rng.uniform(0.1, 0.9, (3, 4)))
    return [a], lambda: ad.nll(a, [2, 0, 2, 1])


GRAD_CASES = {
    "matmul": _case_matmul,
    "matmul_column": _case_matmul_column,
    "add": _case_add,
    "tanh": _case_tanh,
    "sigmoid": _case_sigmoid,
    "gate_mix": _case_gate_mix,
    "add_bias": _case_add_bias,
    "transpose": _case_transpose,
    "concat_rows": _case_concat_rows,
    "window3_m1": _case_window3(1),
    "window3_m5": _case_window3(5),
    "additive_scores": _case_additive_scores,
    "nll": _case_nll,
    "nll_mean": _case_nll_mean,
    "embed": _case_embed,
    "max_over_positions": _case_max_over_positions,
    "softmax": _case_softmax,
    "masked_softmax_rows": _case_masked_softmax_rows,
    "window3_segments": _case_window3_segments,
    "max_over_segments": _case_max_over_segments,
    "gather": _case_gather,
    "block_scores": _case_block_scores,
    "block_apply": _case_block_apply,
    "additive_blocks": _case_additive_blocks,
    "block_softmax_rows": _case_block_softmax_rows,
    "softmax_columns": _case_softmax_columns,
    "nll_columns": _case_nll_columns,
}


@pytest.mark.parametrize("name", sorted(GRAD_CASES))
def test_op_gradient_matches_finite_differences(name):
    rng = np.random.default_rng([ord(ch) for ch in name])
    leaves, build = GRAD_CASES[name](rng)
    assert_grads_match(build, leaves)


# public functions of the engine that build no graph node
NON_OPS = {"backward", "topo_order", "grad_check", "zero_grads", "glorot", "param"}


def test_gradient_cases_cover_every_op():
    # every graph-building public function names its nodes' op after itself
    ops = {name for name, fn in vars(ad).items()
           if not name.startswith("_") and name not in NON_OPS and inspect.isfunction(fn)
           and fn.__module__ == ad.__name__}
    built = set()
    for name, case in GRAD_CASES.items():
        _, build = case(np.random.default_rng(0))
        built.update(node.op for node in ad.topo_order(build()))
    assert ops <= built, sorted(ops - built)


# ---------------------------------------------------------------------------
# backward mechanics


def test_backward_requires_scalar_loss():
    with pytest.raises(ContractError):
        ad.backward(ad.param(np.ones(2)))


def test_backward_refuses_to_run_twice():
    loss = project(ad.param(np.ones(3)))
    ad.backward(loss)
    with pytest.raises(ContractError):
        ad.backward(loss)


def test_constant_loss_leaves_params_untouched():
    w = ad.param(np.ones((2, 2)))
    ad.backward(ad.Node(np.asarray(1.0)))
    assert w.grad is None


def test_zero_scaled_loss_gives_exactly_zero_gradients():
    w = ad.param(np.ones((2, 2)))
    loss = project(ad.tanh(w), 0.0)
    ad.backward(loss)
    assert np.array_equal(w.grad, np.zeros((2, 2)))


def test_zero_grads_resets():
    w = ad.param(np.ones(2))
    ad.backward(project(w))
    assert w.grad is not None
    ad.zero_grads([w])
    assert w.grad is None


def test_shared_node_gradient_accumulates():
    # x used twice: d/dx (x + x) . c = 2c
    x = ad.param(np.array([3.0, -2.0]))
    c = np.array([0.5, -1.25])
    ad.backward(project(ad.add(x, x), c))
    assert np.array_equal(x.grad, 2 * c)


@pytest.mark.parametrize("g_order", ["C", "F"])
def test_first_accumulation_is_zero_plus_g_laid_out_like_the_value(g_order):
    # comparison: bitwise, against zeros laid out like the value plus g. The
    # -0.0 entries must come out +0.0, and the gradient must take the
    # value's F order whatever g's: a later BLAS product of it sums in an
    # order that depends on the layout.
    value = np.asfortranarray(np.arange(12.0).reshape(3, 4))
    g = np.array([[-0.0, 1.5, -2.0, 0.0], [3.25, -0.0, 0.5, -1.0], [-0.0, 2.0, -0.0, 4.0]],
                 order=g_order)
    node = ad.param(value)
    ad._accum(node, g)
    want = np.zeros_like(value)
    want += g
    assert node.grad.tobytes("A") == want.tobytes("A")
    assert node.grad.strides == want.strides == value.strides
    ad._accum(node, g)
    assert np.array_equal(node.grad, 2 * g)


def test_a_second_backward_through_a_shared_subgraph_starts_from_zero():
    # two losses over one tanh: the second backward must push only its own
    # gradient through the shared nodes, as on a freshly built graph
    def graph(x):
        probs = ad.softmax(ad.tanh(x))
        return ad.nll(probs, [0]), ad.nll(probs, [1])

    x = ad.param(np.array([[0.3], [-0.8]]))
    first, second = graph(x)
    ad.backward(first)
    ad.zero_grads([x])
    ad.backward(second)

    fresh = ad.param(x.value.copy())
    ad.backward(graph(fresh)[1])
    assert x.grad.tobytes() == fresh.grad.tobytes()


def test_backward_keeps_leaf_gradients_and_releases_interior_ones():
    w = ad.param(np.array([[0.5, -1.0]]))
    c = ad.Node(np.array([[2.0], [3.0]]))
    hidden = ad.tanh(ad.matmul(w, c))
    loss = project(hidden)
    ad.backward(loss)
    assert w.grad is not None and c.grad is not None
    assert hidden.grad is None and loss.grad is None


def test_topo_order_puts_inputs_first():
    a = ad.param(np.ones((2, 2)))
    b = ad.tanh(a)
    c = project(ad.add(b, b))
    order = ad.topo_order(c)
    pos = {id(n): i for i, n in enumerate(order)}
    for node in order:
        for inp in node.inputs:
            assert pos[id(inp)] < pos[id(node)]


# ---------------------------------------------------------------------------
# grad_check harness


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1.0])
def test_grad_check_rejects_a_non_finite_or_negative_tolerance(tolerance):
    w = ad.param(np.ones(1))
    with pytest.raises(ContractError, match="tolerance"):
        ad.grad_check(lambda: project(w), {"w": w}, tolerance=tolerance)


def test_grad_check_detects_nondeterministic_loss():
    w = ad.param(np.ones(1))
    counter = {"n": 0}

    def build():
        counter["n"] += 1
        return project(w, float(counter["n"]))

    with pytest.raises(DeterminismError):
        ad.grad_check(build, {"w": w})


def test_grad_check_linear_regression_is_nearly_exact():
    # quadratic loss, so central differences agree to machine precision
    rng = np.random.default_rng(42)
    X = ad.Node(rng.standard_normal((6, 4)))
    y = rng.standard_normal((6, 1))
    w = ad.param(rng.standard_normal((4, 1)))

    def build():
        err = ad.add(ad.matmul(X, w), ad.Node(-y))
        # 0.5 * err . err, the dot product as a 1 x 6 by 6 x 1 matmul
        return project(ad.matmul(ad.transpose(err), err), 0.5)

    report = ad.grad_check(build, {"w": w}, tolerance=1e-9)
    assert report.passed, report.errors
    assert report.max_error < 1e-9


def _one_op_loss(w, value, grad):
    """A one-op graph over ``w``: its value is ``value(w)``, and its
    backward pushes the fixed array ``grad``."""
    out = ad.Node(value(w.value), "probe", (w,))

    def _bw(g):
        w.grad = grad.copy()

    out._backward = _bw
    return out


@pytest.mark.parametrize("value, grad, entry", [
    # a backward that pushes NaN into the second entry
    (lambda v: v.sum(), np.array([1.0, np.nan]), 1),
    # a loss that is finite at w but not a step away, so its central
    # difference is inf - inf
    (lambda v: 0.0 if v[0] == 0.5 else np.inf, np.zeros(2), 0),
], ids=["analytic", "central-difference"])
def test_grad_check_raises_on_a_non_finite_gradient(value, grad, entry):
    # NaN compares false against the worst error so far, so it must not be
    # left to the comparison: the check would pass with error 0.0
    w = ad.param(np.array([0.5, 1.5]))
    with pytest.raises(DivergenceError, match=f"w entry {entry} is not finite"):
        ad.grad_check(lambda: _one_op_loss(w, value, grad), {"w": w})


def test_grad_check_report_surface():
    w = ad.param(np.array([2.0]))
    report = ad.grad_check(lambda: project(ad.tanh(w)), {"w": w})
    assert report.worst_tensor == "w"
    assert report.step == 1e-5
    assert list(report.errors) == ["w"]
    assert not ad.GradCheckReport(errors={"w": 1.0}, step=1e-5, tolerance=1e-6).passed
