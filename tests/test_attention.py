"""Matching functions, attention normalization, and attentive context vectors.

Each test scores one text against one context: one block, whose blocked
values are read back as m x n matrices. An attention pass is the match,
``ad.masked_softmax_rows`` and ``ad.block_apply``, as the layers build it.
"""

import math

import numpy as np
import pytest

from attconv import autodiff as ad
from attconv.attention import MATCH_METHODS, match_scores
from attconv.errors import ConfigError, DimensionError
from attconv.model import ModelConfig, init_tensor, param_shapes


def _hx_hy(rng, d=5, m=4, n=6):
    return ad.Node(rng.standard_normal((d, m))), ad.Node(rng.standard_normal((d, n)))


def pair(Hx, Hy):
    """The one block of Hx's positions against Hy's."""
    return ad.Blocks([0, Hx.value.shape[1]], [0, Hy.value.shape[1]])


def match(Hx, Hy, method, p=None):
    """The blocked scores of one pair."""
    return match_scores(Hx, Hy, method, pair(Hx, Hy), p)


def weights_of(Hx, Hy, scores):
    """The attention weights of one pair's blocked scores."""
    return ad.masked_softmax_rows(scores, pair(Hx, Hy))


def matrix(Hx, Hy, node):
    """A blocked value of one pair as its m x n matrix."""
    return pair(Hx, Hy).block(node.value, 0)


def attend(Hx, Hy, scores):
    """The attentive context C_x (d x m) of one pair's blocked scores."""
    return ad.block_apply(weights_of(Hx, Hy, scores), Hy, pair(Hx, Hy))


def _params(method, d, rng):
    """The match tensors of a light model of width d, drawn as ``build_model`` draws them."""
    shapes = param_shapes(ModelConfig(variant="light", d=d, match_method=method), 1)
    return {k[len("net.match."):]: ad.param(init_tensor(rng, k, shape))
            for k, shape in shapes.items() if k.startswith("net.match.")}


def test_dot_scores_on_orthonormal_basis():
    hx = ad.Node(np.array([[1.0], [0.0]]))
    hy = ad.Node(np.eye(2))
    scores = match(hx, hy, "dot")
    assert matrix(hx, hy, scores).tolist() == [[1.0, 0.0]]


def test_dot_scores_match_numpy_oracle():
    rng = np.random.default_rng(0)
    Hx, Hy = _hx_hy(rng)
    scores = match(Hx, Hy, "dot")
    assert np.allclose(matrix(Hx, Hy, scores), Hx.value.T @ Hy.value, atol=1e-15)


def test_bilinear_with_identity_equals_dot():
    rng = np.random.default_rng(1)
    Hx, Hy = _hx_hy(rng)
    a = match(Hx, Hy, "bilinear", {"W_e": ad.param(np.eye(5))}).value
    b = match(Hx, Hy, "dot").value
    assert np.array_equal(a, b)


def test_bilinear_scores_match_numpy_oracle():
    rng = np.random.default_rng(2)
    Hx, Hy = _hx_hy(rng)
    params = _params("bilinear", 5, rng)
    scores = match(Hx, Hy, "bilinear", params)
    want = Hx.value.T @ params["W_e"].value @ Hy.value
    assert np.allclose(matrix(Hx, Hy, scores), want, atol=1e-12)


def test_additive_scores_match_numpy_oracle():
    rng = np.random.default_rng(3)
    Hx, Hy = _hx_hy(rng, d=4, m=3, n=5)
    params = _params("additive", 4, rng)
    scores = matrix(Hx, Hy, match(Hx, Hy, "additive", params))
    We, Ue, ve = params["W_e"].value, params["U_e"].value, params["v_e"].value
    for i in range(3):
        for j in range(5):
            want = ve @ np.tanh(We @ Hx.value[:, i] + Ue @ Hy.value[:, j])
            assert abs(scores[i, j] - want) < 1e-12


def test_additive_with_zero_vector_gives_uniform_attention():
    rng = np.random.default_rng(4)
    Hx, Hy = _hx_hy(rng, d=3, m=2, n=4)
    params = _params("additive", 3, rng)
    params["v_e"].value[:] = 0.0
    weights = weights_of(Hx, Hy, match(Hx, Hy, "additive", params))
    assert np.array_equal(weights.value, np.full(8, 0.25))


def test_match_scores_input_validation():
    rng = np.random.default_rng(6)
    Hx = ad.Node(rng.standard_normal((4, 3)))
    Hy = ad.Node(rng.standard_normal((5, 3)))
    for method in MATCH_METHODS:
        params = _params(method, 4, rng)
        with pytest.raises(DimensionError, match="hidden sizes differ, 4 vs 5"):
            match(Hx, Hy, method, params)
        with pytest.raises(DimensionError, match="2-d feature maps"):
            match_scores(ad.Node(np.ones(4)), Hy, method, pair(Hx, Hy), params)
        with pytest.raises(DimensionError, match="2-d feature maps"):
            match_scores(Hx, ad.Node(np.ones(4)), method, pair(Hx, Hx), params)
    # one check each, up front: 2-d maps, then the method, then the hidden sizes
    with pytest.raises(DimensionError, match="2-d feature maps"):
        match_scores(ad.Node(np.ones(4)), Hy, "cosine", pair(Hx, Hy))
    with pytest.raises(ConfigError, match="cosine"):
        match_scores(Hx, Hx, "cosine", pair(Hx, Hx))
    with pytest.raises(ConfigError, match="cosine"):
        match_scores(Hx, Hy, "cosine", pair(Hx, Hy))


@pytest.mark.parametrize("method", MATCH_METHODS)
def test_rows_are_stochastic_for_every_method(method):
    rng = np.random.default_rng(7)
    for trial in range(20):
        d, m, n = rng.integers(1, 7), rng.integers(1, 8), rng.integers(1, 8)
        Hx = ad.Node(rng.standard_normal((d, m)))
        Hy = ad.Node(rng.standard_normal((d, n)))
        params = _params(method, int(d), rng)
        weights = matrix(Hx, Hy, weights_of(Hx, Hy, match(Hx, Hy, method, params)))
        sums = weights.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-12)
        assert np.all(weights >= 0.0)


def test_two_column_context_oracle():
    # scores [1, 0] over basis columns blends them with softmax weights
    hx = ad.Node(np.array([[1.0], [0.0]]))
    hy = ad.Node(np.eye(2))
    scores = match(hx, hy, "dot")
    c = attend(hx, hy, scores)
    w1 = math.exp(1.0) / (math.exp(1.0) + 1.0)
    assert abs(c.value[0, 0] - w1) < 1e-12
    assert abs(c.value[1, 0] - (1.0 - w1)) < 1e-12


def test_uniform_scores_give_column_means():
    rng = np.random.default_rng(9)
    Hx = ad.Node(np.zeros((4, 3)))
    Hy = ad.Node(rng.standard_normal((4, 6)))
    c = attend(Hx, Hy, ad.Node(np.zeros(18)))
    want = Hy.value.mean(axis=1)
    for i in range(3):
        assert np.allclose(c.value[:, i], want, atol=1e-15)


def test_single_context_column_passes_through():
    rng = np.random.default_rng(10)
    Hx = ad.Node(rng.standard_normal((4, 5)))
    Hy = ad.Node(rng.standard_normal((4, 1)))
    scores = match(Hx, Hy, "dot")
    c = attend(Hx, Hy, scores)
    for i in range(5):
        assert np.array_equal(c.value[:, i], Hy.value[:, 0])


def test_context_vectors_lie_in_convex_hull():
    rng = np.random.default_rng(11)
    for trial in range(60):
        d, m, n = rng.integers(1, 6), rng.integers(1, 6), rng.integers(1, 7)
        Hx = ad.Node(rng.standard_normal((d, m)))
        Hy = ad.Node(rng.standard_normal((d, n)))
        scores = match(Hx, Hy, "dot")
        c = attend(Hx, Hy, scores)
        lo = Hy.value.min(axis=1, keepdims=True) - 1e-12
        hi = Hy.value.max(axis=1, keepdims=True) + 1e-12
        assert np.all(c.value >= lo) and np.all(c.value <= hi)


def test_permuting_context_columns_leaves_context_vectors_unchanged():
    rng = np.random.default_rng(12)
    Hx = ad.Node(rng.standard_normal((4, 3)))
    Hy = ad.Node(rng.standard_normal((4, 6)))
    perm = rng.permutation(6)
    Hyp = ad.Node(Hy.value[:, perm])
    sa = match(Hx, Hy, "dot")
    sb = match(Hx, Hyp, "dot")
    a = attend(Hx, Hy, sa)
    b = attend(Hx, Hyp, sb)
    assert np.allclose(a.value, b.value, atol=1e-12)
    # and the weights themselves permute along for the ride
    wa = matrix(Hx, Hy, weights_of(Hx, Hy, sa))
    wb = matrix(Hx, Hyp, weights_of(Hx, Hyp, sb))
    assert np.allclose(wa[:, perm], wb, atol=1e-12)


def test_block_apply_checks_column_agreement():
    rng = np.random.default_rng(13)
    weights = ad.Node(np.full(6, 1 / 3))
    Hy = ad.Node(rng.standard_normal((4, 5)))
    with pytest.raises(DimensionError):
        ad.block_apply(weights, Hy, ad.Blocks([0, 2], [0, 3]))
