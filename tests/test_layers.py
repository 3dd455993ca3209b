"""Convolution layers: windowing, the split filter against its joint-filter
oracle, gating, multi-granular states, pooling, and the convolution-free stack.

Each test runs one sequence (the segment ``[0]``) or one text against one
context map (a packing of one pair).
"""

import numpy as np
import pytest

from attconv import autodiff as ad
from attconv import layers as ly
from attconv.attention import match_scores
from attconv.errors import DimensionError
from attconv.model import ModelConfig, init_tensor, param_shapes
from reference import attentive_pooling as reference_pooling

ONE = [0]  # the segment starts of one sequence alone


def np_window3(H):
    """Independent numpy rendering of the zero-padded tri-gram stack."""
    m = H.shape[1]
    padded = np.pad(H, ((0, 0), (1, 1)))
    return np.vstack([padded[:, 0:m], H, padded[:, 2:m + 2]])


def draw(rng, shapes):
    """Param nodes for ``shapes``, drawn in order as ``build_model`` draws them."""
    return {name: ad.param(init_tensor(rng, name, shape)) for name, shape in shapes.items()}


def light(H, C, params, at=""):
    """``light_attconv`` with its W1 term built from H, as the attentive layers build it."""
    return ly.light_attconv(ad.matmul(params[at + "W1"], ad.window3(H, ONE)), C, params, at)


def _conv_params(d, rng):
    return draw(rng, {"W1": (d, 3 * d), "b": (d,)})


def _light_conv_params(d, d_c, rng):
    return draw(rng, {"W1": (d, 3 * d), "W2": (d, d_c), "b": (d,)})


def _gated_shapes(d, width, at=""):
    return {at + "W_h": (d, width * d), at + "b_h": (d,),
            at + "W_g": (d, width * d), at + "b_g": (d,)}


def _mgran_params(d, rng):
    return draw(rng, {**_gated_shapes(d, 1, "uni."), **_gated_shapes(d, 3, "tri.")})


def one_pair(Hx, Hy):
    """The packing of one text against one context map."""
    return ly.pack([Hx.value.shape[1]], [[Hy.value.shape[1]]])


def passes_of(out):
    """The attention weights nodes in a layer's output graph, in layer order."""
    return [node for node in ad.topo_order(out) if node.op == "masked_softmax_rows"]


def weights_of(pk, out):
    """The first attention pass behind a layer's output, one pair's m x n matrix."""
    return pk.blocks.block(passes_of(out)[0].value, 0)


def _net_params(variant, d, method, rng):
    """The ``net.`` tensors of a variant, in ``param_shapes`` order."""
    shapes = param_shapes(ModelConfig(variant=variant, d=d, match_method=method), 1)
    return draw(rng, {k: v for k, v in shapes.items() if k.startswith("net.")})


def test_window3_matches_numpy_oracle():
    rng = np.random.default_rng(0)
    H = ad.Node(rng.standard_normal((3, 5)))
    assert np.array_equal(ad.window3(H, ONE).value, np_window3(H.value))


def test_vanilla_conv_hand_check_scalar_case():
    # W1 = [1 1 1], H = [1 2 3]: windows sum to 3, 6, 5
    params = {"W1": ad.param(np.ones((1, 3))), "b": ad.param(np.zeros(1))}
    out = ly.vanilla_conv(ad.Node(np.array([[1.0, 2.0, 3.0]])), params, "", ONE)
    assert np.allclose(out.value, np.tanh([[3.0, 6.0, 5.0]]), atol=1e-15)


def test_vanilla_conv_translation_covariance_in_the_interior():
    rng = np.random.default_rng(1)
    d, m = 4, 9
    params = _conv_params(d, rng)
    H = rng.standard_normal((d, m))
    out = ly.vanilla_conv(ad.Node(H), params, "", ONE).value
    rolled = ly.vanilla_conv(ad.Node(np.roll(H, 1, axis=1)), params, "", ONE).value
    # away from both boundaries the shifted input just shifts the output
    assert np.array_equal(rolled[:, 2:m - 1], out[:, 1:m - 2])


def test_split_filter_equals_joint_filter_on_random_instances():
    rng = np.random.default_rng(2)
    for trial in range(20):
        d = int(rng.integers(1, 9))
        m = int(rng.integers(1, 11))
        d_c = int(rng.integers(1, 17))
        params = _light_conv_params(d, d_c, rng)
        H = rng.standard_normal((d, m))
        C = rng.standard_normal((d_c, m))
        got = light(ad.Node(H), ad.Node(C), params).value
        joint = np.hstack([params["W1"].value, params["W2"].value])
        stacked = np.vstack([np_window3(H), C])
        want = np.tanh(joint @ stacked + params["b"].value[:, None])
        assert np.max(np.abs(got - want)) < 1e-12


def test_light_attconv_with_zero_context_is_vanilla():
    rng = np.random.default_rng(3)
    params = _light_conv_params(4, 6, rng)
    H = ad.Node(rng.standard_normal((4, 7)))
    C = ad.Node(np.zeros((6, 7)))
    got = light(H, C, params).value
    plain = ly.vanilla_conv(H, params, "", ONE).value
    assert np.array_equal(got, plain)


def test_light_attconv_single_position_boundary():
    rng = np.random.default_rng(4)
    d = 3
    params = _light_conv_params(d, d, rng)
    h = rng.standard_normal((d, 1))
    c = rng.standard_normal((d, 1))
    got = light(ad.Node(h), ad.Node(c), params).value
    window = np.vstack([np.zeros((d, 1)), h, np.zeros((d, 1))])
    want = np.tanh(params["W1"].value @ window + params["W2"].value @ c
                   + params["b"].value[:, None])
    assert np.allclose(got, want, atol=1e-15)


def test_light_attconv_rejects_misaligned_context():
    rng = np.random.default_rng(5)
    params = _light_conv_params(3, 3, rng)
    with pytest.raises(DimensionError):
        light(ad.Node(np.zeros((3, 4))), ad.Node(np.zeros((3, 5))), params)


# ---------------------------------------------------------------------------
# gated convolution


def test_gated_conv_all_zero_parameters_halve_the_input():
    H = ad.Node(np.random.default_rng(6).standard_normal((3, 4)))
    params = {name: ad.param(np.zeros(shape)) for name, shape in _gated_shapes(3, 3).items()}
    out = ly.gated_conv(H, params, "", ONE)
    assert np.allclose(out.value, 0.5 * H.value, atol=1e-15)


@pytest.mark.parametrize("width", [1, 3])
def test_gated_conv_saturated_gate_passes_input_through(width):
    rng = np.random.default_rng(7)
    params = draw(rng, _gated_shapes(4, width))
    params["b_g"].value[:] = 30.0
    H = ad.Node(rng.standard_normal((4, 5)) * 0.1)
    out = ly.gated_conv(H, params, "", ONE)
    assert np.max(np.abs(out.value - H.value)) < 1e-9


def test_gated_conv_open_gate_yields_the_candidate():
    rng = np.random.default_rng(8)
    params = draw(rng, _gated_shapes(3, 3))
    params["b_g"].value[:] = -30.0
    H = rng.standard_normal((3, 6)) * 0.1
    out = ly.gated_conv(ad.Node(H), params, "", ONE).value
    cand = np.tanh(params["W_h"].value @ np_window3(H) + params["b_h"].value[:, None])
    assert np.max(np.abs(out - cand)) < 1e-9


def test_gated_conv_output_between_input_and_candidate():
    rng = np.random.default_rng(9)
    for trial in range(10):
        params = draw(rng, _gated_shapes(3, 3))
        H = rng.standard_normal((3, 5))
        out = ly.gated_conv(ad.Node(H), params, "", ONE).value
        cand = np.tanh(params["W_h"].value @ np_window3(H) + params["b_h"].value[:, None])
        lo = np.minimum(H, cand) - 1e-12
        hi = np.maximum(H, cand) + 1e-12
        assert np.all(out >= lo) and np.all(out <= hi)


# ---------------------------------------------------------------------------
# multi-granular states and the beneficiary gate


def test_mgran_shape_and_composition():
    rng = np.random.default_rng(11)
    params = _mgran_params(4, rng)
    H = ad.Node(rng.standard_normal((4, 5)))
    out = ly.mgran(H, params, "", ONE)
    assert out.value.shape == (8, 5)
    uni = ly.gated_conv(H, params, "uni.", ONE).value
    tri = ly.gated_conv(H, params, "tri.", ONE).value
    assert np.array_equal(out.value, np.vstack([uni, tri]))


def test_mgran_locality_of_the_two_granularities():
    rng = np.random.default_rng(12)
    d, m, j = 3, 7, 3
    params = _mgran_params(d, rng)
    H = rng.standard_normal((d, m))
    base = ly.mgran(ad.Node(H), params, "", ONE).value
    bumped = H.copy()
    bumped[:, j] += 0.5
    out = ly.mgran(ad.Node(bumped), params, "", ONE).value
    changed = np.flatnonzero(np.any(out != base, axis=0))
    # the uni half may move only column j, the tri half only j-1, j, j+1
    uni_changed = np.flatnonzero(np.any(out[:d] != base[:d], axis=0))
    tri_changed = np.flatnonzero(np.any(out[d:] != base[d:], axis=0))
    assert uni_changed.tolist() == [j]
    assert set(tri_changed.tolist()) <= {j - 1, j, j + 1}
    assert set(changed.tolist()) <= {j - 1, j, j + 1}


def test_beneficiary_keeps_shape():
    rng = np.random.default_rng(13)
    params = draw(rng, _gated_shapes(4, 1))
    H = ad.Node(rng.standard_normal((4, 6)))
    assert ly.gated_conv(H, params, "", ONE).value.shape == (4, 6)


def test_beneficiary_saturated_gate_is_near_identity():
    rng = np.random.default_rng(14)
    params = draw(rng, _gated_shapes(4, 1))
    params["b_g"].value[:] = 30.0
    H = ad.Node(rng.standard_normal((4, 6)) * 0.1)
    assert np.max(np.abs(ly.gated_conv(H, params, "", ONE).value - H.value)) < 1e-9


# ---------------------------------------------------------------------------
# the full attend-and-convolve paths


def test_attend_and_convolve_light_equals_manual_composition():
    rng = np.random.default_rng(15)
    params = _net_params("light", 4, "dot", rng)
    Hx = ad.Node(rng.standard_normal((4, 5)))
    Hy = ad.Node(rng.standard_normal((4, 6)))
    pk = one_pair(Hx, Hy)
    got = ly.attend_and_convolve(Hx, Hy, params, "net.", "dot", pk)

    scores = match_scores(Hx, Hy, "dot", pk.blocks)
    Cx = ad.block_apply(ad.masked_softmax_rows(scores, pk.blocks), Hy, pk.blocks)
    want = light(Hx, Cx, params, "net.conv.").value
    assert np.array_equal(got.value, want)
    assert len(passes_of(got)) == 1
    assert weights_of(pk, got).shape == (5, 6)


def test_attend_and_convolve_advanced_shapes_and_weights():
    rng = np.random.default_rng(16)
    params = _net_params("advanced", 3, "dot", rng)
    Hx = ad.Node(rng.standard_normal((3, 5)))
    pk = one_pair(Hx, Hx)
    out = ly.attend_and_convolve(Hx, Hx, params, "net.", "dot", pk)
    assert out.value.shape == (3, 5)
    # matching runs over the multi-granular states, one row/column per position
    assert weights_of(pk, out).shape == (5, 5)


def test_attend_and_convolve_rejects_unknown_bundles():
    # the tensors of another variant lack the attentive filter, named in full
    rng = np.random.default_rng(17)
    params = _net_params("vanilla-cnn", 2, "dot", rng)
    H = ad.Node(np.zeros((2, 2)))
    with pytest.raises(KeyError, match="net.conv.W1"):
        ly.attend_and_convolve(H, H, params, "net.", "dot", one_pair(H, H))


# ---------------------------------------------------------------------------
# intra-context masking


def test_intra_attconv_single_position_attends_to_itself():
    rng = np.random.default_rng(18)
    params = _net_params("light", 3, "dot", rng)
    h = rng.standard_normal((3, 1))
    Hx = ad.Node(h)
    out = ly.attend_and_convolve(Hx, Hx, params, "net.", "dot", one_pair(Hx, Hx))
    assert np.array_equal(passes_of(out)[0].value, np.array([1.0]))
    # with weight 1.0 the attentive context is the position's own state
    want = light(ad.Node(h), ad.Node(h), params, "net.conv.").value
    assert np.array_equal(out.value, want)


def test_intra_attconv_exclude_self_zeroes_the_diagonal():
    rng = np.random.default_rng(19)
    params = _net_params("light", 3, "dot", rng)
    H = ad.Node(rng.standard_normal((3, 5)))
    pk = one_pair(H, H)
    out = ly.attend_and_convolve(H, H, params, "net.", "dot", pk, exclude_self=True)
    w = weights_of(pk, out)
    assert np.all(np.diag(w) == 0.0)
    assert np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-12)


# ---------------------------------------------------------------------------
# attentive pooling baseline


def pool_pair(Hx, Hy, params):
    """The pooled x and y states of ``attentive_pooling`` on one context map."""
    rep = ly.attentive_pooling(Hx, Hy, params, "", one_pair(Hx, Hy))
    d = Hx.value.shape[0]
    return rep.value[:d, 0], rep.value[d:, 0]


def test_attentive_pooling_is_symmetric_in_its_arguments():
    rng = np.random.default_rng(20)
    params = _conv_params(4, rng)
    Hx = ad.Node(rng.standard_normal((4, 5)))
    Hy = ad.Node(rng.standard_normal((4, 7)))
    rx, ry = pool_pair(Hx, Hy, params)
    ry2, rx2 = pool_pair(Hy, Hx, params)
    assert np.max(np.abs(rx - rx2)) <= 1e-12
    assert np.max(np.abs(ry - ry2)) <= 1e-12


def test_attentive_pooling_identical_sentences_give_equal_outputs():
    rng = np.random.default_rng(21)
    params = _conv_params(3, rng)
    H = ad.Node(rng.standard_normal((3, 5)))
    rx, ry = pool_pair(H, H, params)
    assert np.array_equal(rx, ry)


def test_attentive_pooling_single_positions_return_their_states():
    rng = np.random.default_rng(22)
    params = _conv_params(3, rng)
    Hx = ad.Node(rng.standard_normal((3, 1)))
    Hy = ad.Node(rng.standard_normal((3, 1)))
    rx, ry = pool_pair(Hx, Hy, params)
    assert np.array_equal(rx, ly.vanilla_conv(Hx, params, "", ONE).value[:, 0])
    assert np.array_equal(ry, ly.vanilla_conv(Hy, params, "", ONE).value[:, 0])


def test_attentive_pooling_outputs_stay_in_their_own_hull():
    rng = np.random.default_rng(23)
    params = _conv_params(3, rng)
    Hx = ad.Node(rng.standard_normal((3, 6)))
    Hy = ad.Node(rng.standard_normal((3, 4)))
    rx, ry = pool_pair(Hx, Hy, params)
    cx = ly.vanilla_conv(Hx, params, "", ONE).value
    cy = ly.vanilla_conv(Hy, params, "", ONE).value
    assert np.all(rx >= cx.min(axis=1) - 1e-12)
    assert np.all(rx <= cx.max(axis=1) + 1e-12)
    assert np.all(ry >= cy.min(axis=1) - 1e-12)
    assert np.all(ry <= cy.max(axis=1) + 1e-12)


@pytest.mark.parametrize("text_lengths,map_lengths", [
    ([5], [[8]]),  # unequal lengths
    ([1], [[1]]),  # one position on either side
    ([1], [[6]]),
    ([7], [[1]]),
    ([4, 1, 6], [[3, 1, 5], [2], [6, 4]]),  # multi-wise: several maps per text
], ids=["unequal", "one-one", "one-x", "one-y", "multi-wise"])
def test_attentive_pooling_equals_the_explicit_score_matrix_oracle(text_lengths, map_lengths):
    # comparison: 1e-12; the oracle sums the rows and columns of the whole
    # m x n score matrix, the layer dots each side with the other's sum
    rng = np.random.default_rng(25)
    params = _conv_params(4, rng)
    texts = [rng.standard_normal((4, m)) for m in text_lengths]
    maps = [[rng.standard_normal((4, n)) for n in lengths] for lengths in map_lengths]
    got = ly.attentive_pooling(ad.Node(np.hstack(texts)),
                               ad.Node(np.hstack([Y for ys in maps for Y in ys])), params, "",
                               ly.pack(text_lengths, map_lengths)).value
    want = np.stack([reference_pooling(ad.Node(X), ad.Node(Y), params, "").value
                     for X, ys in zip(texts, maps) for Y in ys], axis=1)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12


# ---------------------------------------------------------------------------
# convolution-free stack


def test_no_conv_stack_zero_context_reduces_to_mlp():
    rng = np.random.default_rng(24)
    params = _net_params("no-conv", 3, "dot", rng)
    Hx = ad.Node(rng.standard_normal((3, 4)))
    Hy = ad.Node(np.zeros((3, 2)))
    out = ly.no_conv_stack(Hx, Hy, params, "net.", "dot", one_pair(Hx, Hy))
    got = out.value
    want = Hx.value
    for i in range(ly.NO_CONV_LAYERS):
        want = np.tanh(params[f"net.layer{i}.W"].value @ want
                       + params[f"net.layer{i}.b"].value[:, None])
    assert np.allclose(got, want, atol=1e-15)
    assert len(passes_of(out)) == 4
    assert got.shape == (3, 4)


def _net_sizes(variant, d, method="dot"):
    """Element count of each ``net.`` tensor, keyed by the name after ``net.``."""
    shapes = param_shapes(ModelConfig(variant=variant, d=d, match_method=method), 1)
    return {k[len("net."):]: int(np.prod(v)) for k, v in shapes.items() if k.startswith("net.")}


def test_no_conv_weight_matrix_parity_with_light():
    d = 6
    stack = _net_sizes("no-conv", d)
    light = _net_sizes("light", d)
    stack_w = sum(n for k, n in stack.items() if ".W" in k)
    light_w = light["conv.W1"] + light["conv.W2"]
    assert stack_w == light_w == 4 * d * d
    stack_b = sum(n for k, n in stack.items() if ".b" in k)
    assert (stack_b, light["conv.b"]) == (4 * d, d)


def test_advanced_parameter_count_matches_symbolic_formula():
    d = 5
    total = sum(_net_sizes("advanced", d).values())
    # two mgran pairs (8d^2+4d each), the width-1 beneficiary (2d^2+2d),
    # and the joint filter with a 2d-wide context branch (5d^2+d)
    assert total == 23 * d * d + 11 * d
    assert total > sum(_net_sizes("light", d).values())


def test_advanced_bilinear_matching_runs_at_doubled_width():
    d = 3
    rng = np.random.default_rng(27)
    params = _net_params("advanced", d, "bilinear", rng)
    assert params["net.match.W_e"].value.shape == (2 * d, 2 * d)
    Hx = ad.Node(rng.standard_normal((d, 4)))
    pk = one_pair(Hx, Hx)
    out = ly.attend_and_convolve(Hx, Hx, params, "net.", "bilinear", pk)
    assert out.value.shape == (d, 4) and weights_of(pk, out).shape == (4, 4)
