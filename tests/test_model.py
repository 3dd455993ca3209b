"""Model assembly, forward contracts, the optimizer, training, evaluation."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import attconv
from attconv import autodiff as ad
from attconv.attention import MATCH_METHODS
from attconv.data import (PAD_ID, PAD_TOKEN, UNK_ID, Dataset, Example, Vocabulary,
                          gen_context_match, make_batches)
from attconv.errors import (
    AttconvError,
    ConfigError,
    ContractError,
    DivergenceError,
    EmptyContextError,
    EmptyInputError,
    FormatError,
)
from attconv.model import (
    CONTEXT_MODES,
    EVAL_CHUNK,
    EXPORTABLE_VARIANTS,
    MAX_SCORE_ENTRIES,
    VARIANTS,
    ModelConfig,
    TrainConfig,
    adagrad_step,
    attention_records,
    build_model,
    count_params,
    cross_entropy,
    encode_checked,
    evaluate,
    forward,
    forward_batch,
    forward_ids,
    join_context_ids,
    param_shapes,
    predict,
    train,
)


def make_vocab(tokens):
    v = Vocabulary()
    for t in tokens:
        v.add(t)
    return v


VOCAB = make_vocab([f"t{i}" for i in range(10)] + ["</s>"])
LABELS = ["0", "1"]


def test_every_public_name_resolves():
    assert attconv.__all__
    for name in attconv.__all__:
        assert getattr(attconv, name) is not None, name


def small_config(**overrides):
    base = dict(variant="light", context_mode="single", d=6, num_classes=2, seed=3)
    base.update(overrides)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# configuration


def test_model_config_json_roundtrip_uses_hyphens():
    cfg = small_config(match_method="bilinear", self_mode="exclude-self")
    data = cfg.to_json()
    assert set(data) == {"variant", "context-mode", "d", "num-classes",
                         "match-method", "self-mode", "seed"}
    assert ModelConfig.from_json(data) == cfg


def test_train_config_json_roundtrip():
    cfg = TrainConfig(learning_rate=0.05, batch_size=10, epochs=3)
    data = cfg.to_json()
    assert set(data) == {"learning-rate", "batch-size", "epochs",
                         "adagrad-epsilon", "eval-every"}
    assert TrainConfig.from_json(data) == cfg


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown ModelConfig field 'depth'"):
        ModelConfig.from_json({"depth": 9})
    with pytest.raises(ConfigError):
        TrainConfig.from_json({"momentum": 0.9})
    # only the checkpoint loader accepts the key, from files written before it went
    with pytest.raises(ConfigError, match="unknown TrainConfig field 'filter-width'"):
        TrainConfig.from_json({"filter-width": 3})


@pytest.mark.parametrize("overrides", [
    {"variant": "transformer"},
    {"context_mode": "global"},
    {"match_method": "cosine"},
    {"self_mode": "sometimes"},
    {"d": 0},
    {"num_classes": 1},
    {"d": "8"},
    {"d": True},
    {"seed": "x"},
    {"num_classes": "2"},
    {"seed": -1},
])
def test_model_config_validation(overrides):
    with pytest.raises(ConfigError):
        small_config(**overrides).validate()


@pytest.mark.parametrize("overrides", [
    {"learning_rate": 0.0},
    {"batch_size": 0},
    {"epochs": 0},
    {"adagrad_epsilon": 0.0},
    {"eval_every": 0},
    {"batch_size": None},
    {"learning_rate": "0.1"},
    {"learning_rate": True},
    {"epochs": 1.5},
    {"learning_rate": math.nan},
    {"learning_rate": math.inf},
    {"adagrad_epsilon": math.nan},
    {"learning_rate": 10**400},  # an int beyond float range
])
def test_train_config_validation(overrides):
    with pytest.raises(ConfigError):
        TrainConfig(**overrides).validate()


# ---------------------------------------------------------------------------
# building


def test_build_model_is_deterministic():
    a = build_model(small_config(), VOCAB, LABELS)
    b = build_model(small_config(), VOCAB, LABELS)
    assert list(a.params) == list(b.params)
    for name in a.params:
        assert np.array_equal(a.params[name].value, b.params[name].value), name


def test_build_model_seed_changes_parameters():
    a = build_model(small_config(), VOCAB, LABELS)
    b = build_model(small_config(seed=4), VOCAB, LABELS)
    assert not np.array_equal(a.params["net.conv.W1"].value, b.params["net.conv.W1"].value)


def test_build_model_rejects_label_count_mismatch():
    with pytest.raises(ConfigError):
        build_model(small_config(), VOCAB, ["only-one"])


def test_build_model_rejects_a_label_named_twice():
    # two columns of one class would make a confusion with a phantom class
    with pytest.raises(ConfigError, match="names class 'p' twice"):
        build_model(small_config(), VOCAB, ["p", "p"])


def test_attentive_pooling_head_is_twice_as_wide():
    model = build_model(small_config(variant="attentive-pooling"), VOCAB, LABELS)
    assert model.params["classifier.W"].value.shape == (2, 12)


def _gated(at, d, width):
    return [(at + "W_h", (d, width * d)), (at + "b_h", (d,)),
            (at + "W_g", (d, width * d)), (at + "b_g", (d,))]


def test_param_shapes_golden_advanced_additive():
    # the checkpoint order: every saved file lists its tensors in this order
    shapes = param_shapes(ModelConfig(variant="advanced", match_method="additive", d=3), 10)
    assert list(shapes.items()) == [
        ("embeddings", (10, 3)),
        *_gated("net.source.uni.", 3, 1), *_gated("net.source.tri.", 3, 3),
        *_gated("net.focus.uni.", 3, 1), *_gated("net.focus.tri.", 3, 3),
        *_gated("net.beneficiary.", 3, 1),
        ("net.match.W_e", (6, 6)), ("net.match.U_e", (6, 6)), ("net.match.v_e", (6,)),
        ("net.conv.W1", (3, 9)), ("net.conv.W2", (3, 6)), ("net.conv.b", (3,)),
        ("classifier.W", (2, 3)), ("classifier.b", (2,)),
    ]


def test_param_shapes_golden_no_conv_bilinear():
    shapes = param_shapes(ModelConfig(variant="no-conv", match_method="bilinear", d=3,
                                      num_classes=4), 10)
    layers = [(f"net.layer{i}.{name}", shape) for i in range(4)
              for name, shape in (("W", (3, 3)), ("b", (3,)), ("match.W_e", (3, 3)))]
    assert list(shapes.items()) == [
        ("embeddings", (10, 3)), *layers, ("classifier.W", (4, 3)), ("classifier.b", (4,)),
    ]


# ---------------------------------------------------------------------------
# forward contracts


def test_probabilities_sum_to_one():
    model = build_model(small_config(context_mode="intra"), VOCAB, LABELS)
    probs = forward_ids(model, [2, 3, 4], [])
    assert abs(probs.value.sum() - 1.0) <= 1e-12
    assert np.all(probs.value > 0)


def test_zero_classifier_gives_uniform_distribution():
    model = build_model(small_config(num_classes=4, context_mode="intra"),
                        VOCAB, ["a", "b", "c", "d"])
    model.params["classifier.W"].value[:] = 0.0
    model.params["classifier.b"].value[:] = 0.0
    probs = forward_ids(model, [2, 3], [])
    assert np.array_equal(probs.value, np.full(4, 0.25))


def test_unseen_tokens_fall_back_to_unk():
    model = build_model(small_config(context_mode="intra"), VOCAB, LABELS)
    a = forward(model, Example(text=["zzz", "t1"], contexts=[], label=0))
    b = forward_ids(model, [1, VOCAB.index["t1"]], [])
    assert np.array_equal(a.value, b.value)


def test_empty_text_is_rejected():
    model = build_model(small_config(context_mode="intra"), VOCAB, LABELS)
    with pytest.raises(ContractError):
        forward_ids(model, [], [])


def test_intra_model_rejects_contexts():
    model = build_model(small_config(context_mode="intra"), VOCAB, LABELS)
    with pytest.raises(ConfigError):
        forward_ids(model, [2, 3], [[4]])


def test_single_mode_needs_exactly_one_context():
    model = build_model(small_config(), VOCAB, LABELS)
    with pytest.raises(ConfigError):
        forward_ids(model, [2, 3], [])
    with pytest.raises(ConfigError):
        forward_ids(model, [2, 3], [[4], [5]])


def test_multi_wise_needs_at_least_one_context():
    model = build_model(small_config(context_mode="multi-wise"), VOCAB, LABELS)
    with pytest.raises(EmptyContextError):
        forward_ids(model, [2, 3], [])


def test_multi_conc_needs_separator_in_vocab():
    bare = make_vocab(["t0", "t1", "t2"])
    model = build_model(small_config(context_mode="multi-conc"), bare, LABELS)
    with pytest.raises(ConfigError):
        forward_ids(model, [2, 3], [[4], [3]])


@pytest.mark.parametrize("variant", ["light", "advanced", "no-conv"])
def test_exclude_self_leaves_a_one_token_text_nothing_to_attend(variant):
    model = build_model(small_config(variant=variant, context_mode="intra",
                                     self_mode="exclude-self"), VOCAB, LABELS)
    with pytest.raises(EmptyContextError, match="nothing to attend"):
        forward_ids(model, [2], [])


def test_attentive_pooling_builds_no_score_matrix():
    # each side is pooled against the other's summed states: no graph node
    # holds one entry per (text, context) position pair
    model = build_model(small_config(variant="attentive-pooling", d=4), VOCAB, LABELS)
    text, context = [2 + i % 10 for i in range(40)], [2 + i % 7 for i in range(45)]
    probs = forward_batch(model, [(text, [context])])
    big = [node for node in ad.topo_order(probs)
           if node is not model.embeddings and node.value.size >= 40 * 45]
    assert big == []


def test_attentive_pooling_ignores_exclude_self():
    # its attention only weights the pooling, so there is no diagonal to drop
    excluding = build_model(small_config(variant="attentive-pooling", context_mode="intra",
                                         self_mode="exclude-self"), VOCAB, LABELS)
    including = build_model(small_config(variant="attentive-pooling", context_mode="intra"),
                            VOCAB, LABELS)
    for text in ([2], [2, 3, 4]):
        assert np.array_equal(forward_ids(excluding, text, []).value,
                              forward_ids(including, text, []).value)


def test_vanilla_cnn_ignores_contexts():
    model = build_model(small_config(variant="vanilla-cnn", context_mode="intra"),
                        VOCAB, LABELS)
    a = forward_ids(model, [2, 3, 4], [])
    b = forward_ids(model, [2, 3, 4], [[5, 6]])
    assert np.array_equal(a.value, b.value)


def test_single_context_of_itself_matches_intra_include_self():
    text = [2, 3, 4, 5]
    intra = build_model(small_config(context_mode="intra"), VOCAB, LABELS)
    single = build_model(small_config(context_mode="single"), VOCAB, LABELS)
    a = forward_ids(intra, text, [])
    b = forward_ids(single, text, [text])
    assert np.array_equal(a.value, b.value)


def test_multi_wise_with_one_context_equals_single():
    text, ctx = [2, 3, 4], [5, 6, 7]
    single = build_model(small_config(), VOCAB, LABELS)
    multi = build_model(small_config(context_mode="multi-wise"), VOCAB, LABELS)
    a = forward_ids(single, text, [ctx])
    b = forward_ids(multi, text, [ctx])
    assert np.array_equal(a.value, b.value)


def test_multi_wise_is_exactly_permutation_and_duplication_invariant():
    model = build_model(small_config(context_mode="multi-wise"), VOCAB, LABELS)
    text = [2, 3, 4]
    ctxs = [[5, 6], [7], [8, 9, 2]]
    base = forward_ids(model, text, ctxs).value
    permuted = forward_ids(model, text, [ctxs[2], ctxs[0], ctxs[1]]).value
    duplicated = forward_ids(model, text, ctxs + [ctxs[1]]).value
    assert np.array_equal(base, permuted)
    assert np.array_equal(base, duplicated)


@st.composite
def _multi_wise_case(draw):
    """A multi-wise config of d 1-16, a text of 1-12 tokens, and 2-4 contexts
    of 1-40 tokens in two orders: a drawn permutation, and its reverse with
    1-3 of the contexts repeated after it."""
    variant = draw(st.sampled_from(["light", "advanced", "no-conv", "attentive-pooling"]))
    cfg = small_config(variant=variant, context_mode="multi-wise",
                       match_method=draw(st.sampled_from(MATCH_METHODS)),
                       d=draw(st.sampled_from(range(1, 17))), seed=draw(st.integers(0, 2**31)))

    def tokens(most):
        n = draw(st.sampled_from(range(1, most + 1)))
        return [f"t{b % 10}" for b in draw(st.binary(min_size=n, max_size=n))]

    ctxs = draw(st.permutations([tokens(40) for _ in range(draw(st.integers(2, 4)))]))
    again = draw(st.lists(st.sampled_from(ctxs), min_size=1, max_size=3))
    return cfg, tokens(12), ctxs, ctxs[::-1] + again


@settings(max_examples=200, deadline=None)
@given(case=_multi_wise_case())
def test_multi_wise_probabilities_ignore_context_order_and_repeats(case):
    # contract clause: multi-wise results do not depend on context order.
    # Comparison: bitwise, between the two orders, on four models (seeds s
    # to s + 3): a one-ulp change only shows when it reaches a pooled
    # maximum, so one model misses most order-dependent packings
    cfg, text, ctxs, other = case
    for k in range(4):
        model = build_model(replace(cfg, seed=cfg.seed + k), VOCAB, LABELS)
        assert (forward(model, Example(text, ctxs, 0)).value.tobytes()
                == forward(model, Example(text, other, 0)).value.tobytes())


def test_join_context_ids_inserts_separators():
    assert join_context_ids([[1, 2], [3], [4]], sep_id=9) == [1, 2, 9, 3, 9, 4]


def test_multi_conc_order_moves_attention_columns_not_their_mass():
    """Concatenation order permutes the attention columns; for dot matching
    the per-position context vectors, and hence the output, barely move."""
    model = build_model(small_config(context_mode="multi-conc"), VOCAB, LABELS)
    text = [2, 3, 4]
    c1, c2 = [5, 6], [7, 8, 9]
    a = forward_ids(model, text, [c1, c2]).value
    b = forward_ids(model, text, [c2, c1]).value
    w1 = attention_records(model, text, [c1, c2])[0].weights
    w2 = attention_records(model, text, [c2, c1])[0].weights
    perm = (list(range(len(c1) + 1, len(c1) + 1 + len(c2)))
            + [len(c1)] + list(range(len(c1))))
    assert np.allclose(w2, w1[:, perm], atol=1e-12)
    assert np.allclose(a, b, atol=1e-9)
    joined_len = len(c1) + len(c2) + 1
    assert w1.shape == (len(text), joined_len)


@pytest.mark.parametrize("variant,mode", [
    ("light", "single"),
    ("advanced", "single"),
    ("no-conv", "single"),
    ("attentive-pooling", "single"),
    ("light", "multi-conc"),
])
def test_every_contextual_variant_produces_a_distribution(variant, mode):
    model = build_model(small_config(variant=variant, context_mode=mode), VOCAB, LABELS)
    probs = forward_ids(model, [2, 3, 4], [[5, 6, 7]])
    assert probs.value.shape == (2,)
    assert abs(probs.value.sum() - 1.0) <= 1e-12


def test_no_conv_records_one_attention_pass_per_layer():
    model = build_model(small_config(variant="no-conv"), VOCAB, LABELS)
    records = attention_records(model, [2, 3], [[4, 5]])
    assert [r.layer_index for r in records] == [0, 1, 2, 3]


@st.composite
def _attention_case(draw):
    """An exportable model and one encoded example: text and contexts of 1-6
    tokens, a text of at least 2 under intra exclude-self."""
    mode = draw(st.sampled_from(CONTEXT_MODES))
    self_mode = draw(st.sampled_from(["include-self", "exclude-self"]))
    cfg = small_config(variant=draw(st.sampled_from(EXPORTABLE_VARIANTS)), context_mode=mode,
                       match_method=draw(st.sampled_from(MATCH_METHODS)), self_mode=self_mode,
                       d=draw(st.integers(1, 4)), seed=draw(st.integers(0, 2**32)))
    ids = st.integers(1, len(VOCAB) - 1)
    shortest = 2 if mode == "intra" and self_mode == "exclude-self" else 1
    text = draw(st.lists(ids, min_size=shortest, max_size=6))
    n_ctx = {"intra": 0, "single": 1}.get(mode, draw(st.integers(1, 3)))
    ctxs = [draw(st.lists(ids, min_size=1, max_size=6)) for _ in range(n_ctx)]
    return cfg, text, ctxs


@settings(max_examples=100, deadline=None)
@given(case=_attention_case())
def test_attention_rows_sum_to_one_and_exclude_self_zeroes_the_diagonal(case):
    # contract clause: attention rows sum to 1, and the exclude-self diagonal
    # is exactly 0. Comparison: the exact sum of each stored row (fsum)
    # within 1e-15 of 1; the diagonal compared to 0.0 exactly
    cfg, text, ctxs = case
    model = build_model(cfg, VOCAB, LABELS)
    records = attention_records(model, text, ctxs)
    assert records
    for record in records:
        for row in record.weights:
            assert abs(math.fsum(row) - 1.0) <= 1e-15
        if cfg.context_mode == "intra" and cfg.self_mode == "exclude-self":
            assert np.all(np.diagonal(record.weights) == 0.0)


@pytest.mark.parametrize("variant", ["attentive-pooling", "vanilla-cnn"])
def test_attention_records_refuse_variants_without_an_attention_matrix(variant):
    model = build_model(small_config(variant=variant), VOCAB, LABELS)
    with pytest.raises(ConfigError, match="no attention matrix"):
        attention_records(model, [2, 3], [[4, 5]])


@pytest.mark.parametrize("variant,mode,text_len,map_lens,allowed", [
    ("light", "intra", 1000, [], True),
    ("light", "intra", 1001, [], False),
    ("light", "single", 500, [2000], True),
    ("light", "single", 500, [2001], False),
    # a repeated multi-wise context is one map, scored once
    ("light", "multi-wise", 500, [2000, 2000], True),
    ("light", "multi-wise", 500, [1000, 1001], False),
    # the joined map counts its separator
    ("light", "multi-conc", 500, [1000, 999], True),
    ("light", "multi-conc", 500, [1000, 1000], False),
    # attentive pooling builds no score matrix, so the bound does not apply
    ("attentive-pooling", "intra", 1001, [], True),
])
def test_an_example_over_the_score_bound_is_refused_before_any_op(
        monkeypatch, variant, mode, text_len, map_lens, allowed):
    # comparison: which error; the bound counts text length times the summed
    # lengths of the context maps, and is checked before the first op
    assert MAX_SCORE_ENTRIES == 10**6
    model = build_model(small_config(variant=variant, context_mode=mode, d=1), VOCAB, LABELS)

    def first_op(*args):
        raise RuntimeError("an op was built")

    monkeypatch.setattr(ad, "embed", first_op)
    text = [2 + i % 9 for i in range(text_len)]
    ctxs = [[2] * n for n in map_lens]
    example = Example(text=[VOCAB.tokens[i] for i in text],
                      contexts=[[VOCAB.tokens[i] for i in c] for c in ctxs], label=0)
    data = Dataset(examples=[example], label_names=LABELS)
    for run in (lambda: forward_ids(model, text, ctxs), lambda: forward(model, example),
                lambda: forward_batch(model, [(text, ctxs)]), lambda: evaluate(data, model),
                lambda: train(model, data, TrainConfig(epochs=1))):
        with pytest.raises(RuntimeError if allowed else FormatError, match="op|too large"):
            run()


@pytest.mark.parametrize("variant,mode,holder", [
    ("light", "single", "text"), ("light", "single", 0),
    ("light", "intra", "text"), ("vanilla-cnn", "single", "text"),
    ("light", "multi-wise", "text"), ("light", "multi-wise", 1), ("light", "multi-wise", 2),
    ("no-conv", "multi-conc", "text"), ("no-conv", "multi-conc", 0),
    ("no-conv", "multi-conc", 2), ("attentive-pooling", "single", 0),
])
def test_an_example_holding_the_pad_id_is_refused_before_any_op(
        monkeypatch, variant, mode, holder):
    # contract clause: the PAD row stays zero, because no graph ever takes
    # it. Comparison: which error; an id 0 in the text or in any context is
    # refused before the first op, on every path that reaches a forward
    model = build_model(small_config(variant=variant, context_mode=mode, d=2), VOCAB, LABELS)

    def first_op(*args):
        raise RuntimeError("an op was built")

    monkeypatch.setattr(ad, "embed", first_op)
    n_ctx = {"intra": 0, "single": 1}.get(mode, 3)
    text, ctxs = [2, 3, 4], [[5 + k, 6] for k in range(n_ctx)]
    (text if holder == "text" else ctxs[holder]).insert(1, PAD_ID)
    for run in (lambda: forward_ids(model, text, ctxs),
                lambda: forward_batch(model, [([2, 3], [[5]] * n_ctx), (text, ctxs)])):
        with pytest.raises(ContractError, match="PAD id"):
            run()
    if variant in EXPORTABLE_VARIANTS:
        with pytest.raises(ContractError, match="PAD id"):
            attention_records(model, text, ctxs)

    # Vocabulary.encode gives UNK for <pad>; a vocabulary that let the id
    # through would still be refused before train's first update
    monkeypatch.setattr(Vocabulary, "encode",
                        lambda self, tokens: [self.index.get(t, UNK_ID) for t in tokens])
    example = Example(text=[VOCAB.tokens[i] for i in text],
                      contexts=[[VOCAB.tokens[i] for i in c] for c in ctxs], label=0)
    assert VOCAB.tokens[PAD_ID] == PAD_TOKEN
    data = Dataset(examples=[example], label_names=LABELS)
    for run in (lambda: encode_checked(model, [example]),
                lambda: train(model, data, TrainConfig(epochs=1))):
        with pytest.raises(ContractError, match="PAD id"):
            run()


# ---------------------------------------------------------------------------
# loss and prediction


def test_cross_entropy_perfect_prediction_is_zero():
    probs = ad.Node(np.array([[0.0], [1.0]]))
    assert cross_entropy(probs, [1]).value.item() == 0.0


def test_cross_entropy_uniform_five_way():
    probs = ad.Node(np.full((5, 1), 0.2))
    assert abs(cross_entropy(probs, [3]).value.item() - math.log(5.0)) < 1e-12


def test_cross_entropy_floors_vanishing_probabilities():
    probs = ad.Node(np.array([[1.0], [0.0]]))
    assert abs(cross_entropy(probs, [1]).value.item() - (-math.log(1e-12))) < 1e-9


def test_cross_entropy_adds_one_node_to_the_forward_graph():
    model = build_model(small_config(), VOCAB, LABELS)
    probs = forward_batch(model, [([2, 3, 4], [[5, 6]])])
    loss = cross_entropy(probs, [1])
    assert len(ad.topo_order(loss)) == len(ad.topo_order(probs)) + 1
    assert loss.op == "nll" and loss.inputs == (probs,)


def test_predict_breaks_ties_toward_the_lowest_class():
    assert predict(np.array([0.4, 0.4, 0.2])) == 0
    assert predict(np.array([0.1, 0.2, 0.7])) == 2


# ---------------------------------------------------------------------------
# AdaGrad


def test_adagrad_first_step_oracle():
    p = ad.param(np.zeros(1), "p")
    acc = {"p": np.zeros(1)}
    p.grad = np.ones(1)
    adagrad_step({"p": p}, acc, lr=0.01, eps=1e-8)
    assert acc["p"][0] == 1.0
    assert abs(p.value[0] - (-0.01 / (1.0 + 1e-8))) < 1e-15


def test_adagrad_second_step_shrinks_by_sqrt_two():
    p = ad.param(np.zeros(1), "p")
    acc = {"p": np.zeros(1)}
    p.grad = np.ones(1)
    adagrad_step({"p": p}, acc, lr=0.01, eps=1e-8)
    before = p.value[0]
    adagrad_step({"p": p}, acc, lr=0.01, eps=1e-8)
    second = before - p.value[0]
    assert abs(second - 0.01 / math.sqrt(2.0)) < 1e-9
    assert abs(second - 0.0070711) < 1e-6


def test_adagrad_zero_gradient_changes_nothing():
    p = ad.param(np.array([0.5]), "p")
    acc = {"p": np.full(1, 4.0)}
    p.grad = np.zeros(1)
    adagrad_step({"p": p}, acc, lr=0.1, eps=1e-8)
    assert p.value[0] == 0.5 and acc["p"][0] == 4.0
    # a tensor whose grad is None is skipped entirely
    p.grad = None
    adagrad_step({"p": p}, acc, lr=0.1, eps=1e-8)
    assert p.value[0] == 0.5 and acc["p"][0] == 4.0


def test_adagrad_accumulators_never_decrease():
    rng = np.random.default_rng(0)
    p = ad.param(np.zeros(4), "p")
    acc = {"p": np.zeros(4)}
    last = acc["p"].copy()
    for _ in range(5):
        p.grad = rng.standard_normal(4)
        adagrad_step({"p": p}, acc, lr=0.01, eps=1e-8)
        assert np.all(acc["p"] >= last)
        last = acc["p"].copy()


# ---------------------------------------------------------------------------
# training


def separable_dataset(n=40):
    """Class is announced by the first token; the rest is shared filler."""
    rng = np.random.default_rng(17)
    examples = []
    for i in range(n):
        label = i % 2
        filler = [f"f{int(k)}" for k in rng.integers(6, size=3)]
        examples.append(Example(text=[f"k{label}"] + filler, contexts=[], label=label))
    return Dataset(examples=examples, label_names=["neg", "pos"])


def _toy_model(data, **overrides):
    cfg = small_config(variant="vanilla-cnn", context_mode="intra", d=8, **overrides)
    vocab = make_vocab(sorted({t for ex in data for t in ex.text}))
    return build_model(cfg, vocab, data.label_names)


def test_train_reaches_perfect_accuracy_on_separable_data():
    data = separable_dataset()
    model = _toy_model(data)
    metrics = train(model, data, TrainConfig(epochs=20, learning_rate=0.05, batch_size=10))
    accs = [m["accuracy"] for m in metrics if m["split"] == "train"]
    assert max(accs) == 1.0
    assert evaluate(data, model).accuracy == 1.0


def test_train_loss_decreases_over_the_first_epochs():
    data = separable_dataset()
    model = _toy_model(data)
    metrics = train(model, data, TrainConfig(epochs=5, learning_rate=0.05, batch_size=10))
    losses = [m["loss"] for m in metrics if m["split"] == "train"]
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_train_is_deterministic_end_to_end():
    data = separable_dataset()
    cfg = TrainConfig(epochs=3, learning_rate=0.05, batch_size=10)
    m1 = _toy_model(data)
    m2 = _toy_model(data)
    r1 = train(m1, data, cfg, dev_data=data)
    r2 = train(m2, data, cfg, dev_data=data)
    assert r1 == r2
    for name in m1.params:
        assert np.array_equal(m1.params[name].value, m2.params[name].value), name


def test_train_records_dev_metrics_on_schedule():
    data = separable_dataset()
    model = _toy_model(data)
    cfg = TrainConfig(epochs=4, learning_rate=0.05, batch_size=10, eval_every=2)
    metrics = train(model, data, cfg, dev_data=data)
    dev = [m for m in metrics if m["split"] == "dev"]
    assert [m["epoch"] for m in dev] == [2, 4]
    # the last dev record was taken on the final weights
    assert dev[-1]["loss"] == evaluate(data, model).loss


def test_train_early_stops_on_dev_accuracy():
    data = separable_dataset()
    model = _toy_model(data)
    cfg = TrainConfig(epochs=20, learning_rate=0.05, batch_size=10)
    metrics = train(model, data, cfg, dev_data=data, stop_at_dev_accuracy=0.9)
    dev = [m for m in metrics if m["split"] == "dev"]
    assert dev[-1]["accuracy"] >= 0.9
    assert dev[-1]["epoch"] < 20


def test_train_pad_row_stays_zero():
    data = separable_dataset()
    model = _toy_model(data)
    train(model, data, TrainConfig(epochs=2, learning_rate=0.05, batch_size=10))
    assert np.all(model.embeddings.value[0] == 0.0)


@st.composite
def _one_batch(draw):
    """A context mode and 1-4 examples that fit it, over ``t0``..``t9``, the
    PAD token and a token outside the vocabulary."""
    mode = draw(st.sampled_from(CONTEXT_MODES))
    words = [f"t{i}" for i in range(10)] + [PAD_TOKEN, "oov"]
    tokens = st.lists(st.sampled_from(words), min_size=1, max_size=4)
    contexts = {"intra": st.just(0), "single": st.just(1)}.get(mode, st.integers(1, 3))
    examples = [Example(draw(tokens), [draw(tokens) for _ in range(draw(contexts))],
                        draw(st.integers(0, 1))) for _ in range(draw(st.integers(1, 4)))]
    return mode, examples


@settings(max_examples=100, deadline=None)
@given(variant=st.sampled_from(VARIANTS), match=st.sampled_from(MATCH_METHODS),
       d=st.sampled_from([2, 3]), batch=_one_batch())
def test_one_training_step_leaves_pad_zero_and_unused_rows_bitwise(variant, match, d, batch):
    # contract clause: the PAD row stays zero. Comparison: bitwise, after one
    # epoch of one batch, against the rows as built; a row counts as used
    # when any text or context of the batch holds it, or it is the separator
    mode, examples = batch
    cfg = small_config(variant=variant, context_mode=mode, match_method=match, d=d)
    model = build_model(cfg, VOCAB, LABELS)
    before = model.embeddings.value.copy()
    train(model, Dataset(examples=examples, label_names=LABELS),
          TrainConfig(epochs=1, batch_size=len(examples), learning_rate=0.5))
    used = {VOCAB.index["</s>"]} if mode == "multi-conc" else set()
    for ex in examples:
        text, ctx, _ = model.vocab.encode_example(ex)
        used.update(text, *ctx)
    unused = [i for i in range(len(VOCAB)) if i not in used]
    assert model.embeddings.value[PAD_ID].tobytes() == np.zeros(d).tobytes()
    assert model.embeddings.value[unused].tobytes() == before[unused].tobytes()


def test_train_moves_used_embedding_rows():
    data = separable_dataset()
    model = _toy_model(data)
    used = model.vocab.index["k0"]
    before = model.embeddings.value[used].copy()
    train(model, data, TrainConfig(epochs=1, learning_rate=0.05, batch_size=10))
    assert not np.array_equal(model.embeddings.value[used], before)


def test_multi_conc_training_step_moves_the_separator_row():
    # </s> reaches the graph only through join_context_ids
    model = build_model(small_config(context_mode="multi-conc"), VOCAB, LABELS)
    sep = model.vocab.index["</s>"]
    before = model.embeddings.value[sep].copy()
    data = Dataset(examples=[
        Example(text=["t2", "t3", "t4"], contexts=[["t5", "t6"], ["t7", "t8", "t9"]], label=0),
        Example(text=["t1", "t3"], contexts=[["t6"], ["t2", "t5"]], label=1),
    ], label_names=LABELS)
    train(model, data, TrainConfig(epochs=1, batch_size=2, learning_rate=0.05))
    assert not np.array_equal(model.embeddings.value[sep], before)


def test_train_aborts_on_non_finite_loss():
    data = separable_dataset(8)
    model = _toy_model(data)
    model.params["classifier.W"].value[:] = np.inf
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError, match="epoch 1"):
            train(model, data, TrainConfig(epochs=1, batch_size=8))


def _valid_example(mode):
    contexts = {"intra": [], "single": [["t4", "t5"]]}.get(mode, [["t4"], ["t5", "t6"]])
    return Example(text=["t2", "t3"], contexts=contexts, label=1)


NO_SEPARATOR = make_vocab([f"t{i}" for i in range(10)])


@pytest.mark.parametrize("overrides, vocab, bad, error", [
    ({"context_mode": "multi-wise"}, VOCAB, Example(["t2", "t3"], [["t1"], []], 0),
     EmptyInputError),
    ({"context_mode": "intra"}, VOCAB, Example(["t2", "t3"], [[]], 0), ConfigError),
    ({"context_mode": "intra"}, VOCAB, Example([], [], 0), ContractError),
    ({"context_mode": "single"}, VOCAB, Example(["t2"], [["t1"], ["t3"]], 0), ConfigError),
    ({"context_mode": "multi-wise"}, VOCAB, Example(["t2"], [], 0), EmptyContextError),
    ({"context_mode": "multi-conc"}, NO_SEPARATOR, Example(["t2"], [["t1"]], 0), ConfigError),
    ({"context_mode": "single"}, VOCAB, Example(["t2"], [[]], 0), EmptyInputError),
] + [({"context_mode": "intra", "self_mode": "exclude-self", "variant": variant}, VOCAB,
      Example(["t2"], [], 0), EmptyContextError) for variant in ("light", "advanced", "no-conv")])
@pytest.mark.parametrize("where", [0, EVAL_CHUNK // 2, EVAL_CHUNK - 1],
                         ids=["first", "middle", "last"])
def test_train_and_evaluate_encode_contexts_alike(overrides, vocab, bad, error, where):
    # a malformed example raises the same error in training, in evaluation
    # (wherever it sits in a chunk) and in its own forward
    model = build_model(small_config(**overrides), vocab, LABELS)
    examples = [_valid_example(model.config.context_mode) for _ in range(EVAL_CHUNK + 2)]
    examples[where] = bad
    data = Dataset(examples=examples, label_names=LABELS)
    raised = []
    for run in (lambda: forward(model, bad), lambda: evaluate(data, model),
                lambda: train(model, data, TrainConfig(epochs=1))):
        with pytest.raises(AttconvError) as err:
            run()
        raised.append((type(err.value), str(err.value)))
    assert raised[0][0] is error
    assert raised == [raised[0]] * 3


def test_evaluate_raises_for_the_first_malformed_example_of_a_chunk():
    # the one-token text fails only at the attention softmax when run alone,
    # the empty text before any op; evaluate reports the one that comes first
    model = build_model(small_config(context_mode="intra", self_mode="exclude-self"),
                        VOCAB, LABELS)
    one_token = Example(text=["t2"], contexts=[], label=0)
    examples = [_valid_example("intra"), one_token, Example(text=[], contexts=[], label=0)]
    with pytest.raises(EmptyContextError, match="nothing to attend"):
        evaluate(Dataset(examples=examples, label_names=LABELS), model)


@pytest.mark.parametrize("label", [-1, 2])
def test_evaluate_rejects_a_label_outside_the_classes(label):
    model = build_model(small_config(context_mode="intra"), VOCAB, LABELS)
    data = Dataset(examples=[_valid_example("intra"), Example(["t2", "t3"], [], label)],
                   label_names=LABELS)
    with pytest.raises(ContractError, match="label"):
        evaluate(data, model)


@pytest.mark.parametrize("split", ["train", "dev"])
@pytest.mark.parametrize("label", [-1, 2])
def test_train_rejects_a_bad_label_before_any_update(split, label):
    # the bad label sits in the last batch of the first epoch, or in the dev
    # data that is scored after it; either way no parameter moves
    data = separable_dataset(12)
    model = _toy_model(data)
    tcfg = TrainConfig(epochs=2, learning_rate=0.05, batch_size=5)
    encoded = [model.vocab.encode_example(ex) for ex in data.examples]
    last = make_batches(encoded, tcfg.batch_size, [model.config.seed, 2, 1])[-1][-1]
    bad = Dataset(examples=list(data.examples), label_names=data.label_names)
    at = next(i for i, ex in enumerate(encoded) if ex is last)
    bad.examples[at] = Example(bad.examples[at].text, [], label)
    before = {name: node.value.copy() for name, node in model.params.items()}
    train_data, dev_data = (bad, data) if split == "train" else (data, bad)
    with pytest.raises(ContractError, match="label"):
        train(model, train_data, tcfg, dev_data=dev_data)
    for name, node in model.params.items():
        assert node.value.tobytes() == before[name].tobytes(), name


LONG_TEXT = [f"t{i % 10}" for i in range(math.isqrt(MAX_SCORE_ENTRIES) + 1)]
MALFORMED_EXAMPLES = pytest.mark.parametrize("mode, bad, error, message", [
    ("single", Example(["t2"], [["t1"], ["t3"]], 0), ConfigError, "exactly 1 context"),
    ("intra", Example(["t2", "t3"], [["t1"]], 0), ConfigError, "given contexts"),
    ("intra", Example(LONG_TEXT, [], 0), FormatError, "too large"),
], ids=["context-count", "intra-contexts", "score-bound"])


@MALFORMED_EXAMPLES
def test_train_rejects_a_malformed_dev_example_before_any_update(mode, bad, error, message):
    # the dev data is scored only after the first epoch; its malformed last
    # example is refused before the first update all the same
    model = build_model(small_config(context_mode=mode, d=1), VOCAB, LABELS)
    data = Dataset(examples=[_valid_example(mode)] * 4, label_names=LABELS)
    dev = Dataset(examples=[_valid_example(mode), bad], label_names=LABELS)
    before = {name: node.value.copy() for name, node in model.params.items()}
    with pytest.raises(error, match=message):
        train(model, data, TrainConfig(epochs=1, batch_size=2), dev_data=dev)
    for name, node in model.params.items():
        assert node.value.tobytes() == before[name].tobytes(), name


@MALFORMED_EXAMPLES
def test_train_rejects_a_malformed_training_example_before_any_update(mode, bad, error, message):
    # the malformed example sits in the last batch of the first epoch, after
    # two batches that would already have updated every tensor
    model = build_model(small_config(context_mode=mode, d=1), VOCAB, LABELS)
    tcfg = TrainConfig(epochs=1, batch_size=2)
    # the shuffle depends only on the example count, so where it puts a
    # probe is where it puts that position of the real data
    probe = [model.vocab.encode_example(Example([f"t{i}"], [], 0)) for i in range(6)]
    last = make_batches(probe, tcfg.batch_size, [model.config.seed, 2, 1])[-1][-1]
    at = next(i for i, ex in enumerate(probe) if ex is last)
    examples = [_valid_example(mode)] * len(probe)
    examples[at] = bad
    before = {name: node.value.copy() for name, node in model.params.items()}
    with pytest.raises(error, match=message):
        train(model, Dataset(examples=examples, label_names=LABELS), tcfg)
    for name, node in model.params.items():
        assert node.value.tobytes() == before[name].tobytes(), name


@pytest.mark.parametrize("epochs", [1, 2, 3])
def test_train_encodes_each_example_once(monkeypatch, epochs):
    # every training and dev text and context is encoded once, up front;
    # each dev pass encodes the dev examples again, as ``evaluate`` does
    model = build_model(small_config(context_mode="multi-wise", d=2), VOCAB, LABELS)
    examples = [Example(["t1", "t2"], [["t3"]] * (1 + i % 3), i % 2) for i in range(7)]
    data = Dataset(examples=examples[:5], label_names=LABELS)
    dev = Dataset(examples=examples[5:], label_names=LABELS)
    calls = []
    encode = Vocabulary.encode
    monkeypatch.setattr(Vocabulary, "encode",
                        lambda self, tokens: calls.append(tokens) or encode(self, tokens))
    train(model, data, TrainConfig(epochs=epochs, batch_size=2), dev_data=dev)

    def texts_and_contexts(ds):
        return sum(1 + len(ex.contexts) for ex in ds)

    assert len(calls) == texts_and_contexts(data) + (1 + epochs) * texts_and_contexts(dev)


def test_train_rejects_empty_dataset():
    model = _toy_model(separable_dataset(4))
    with pytest.raises(ContractError):
        train(model, Dataset(examples=[], label_names=["neg", "pos"]), TrainConfig())


def traced_peak(fn) -> int:
    """The peak of traced allocations while ``fn()`` runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_train_holds_one_batch_graph_at_a_time():
    # 3 batches of 4 sixteen-token texts through a no-conv/additive/intra
    # d=8 model. One batch's forward plus backward peaks at 256-264 KB; a
    # whole epoch of train peaks at 1.04-1.06x that. backward consumes each
    # batch's graph, so neither it nor its interior gradients live through
    # the step and batch k+1's forward; when they did, the ratio read 1.68x.
    rng = np.random.default_rng(5)
    examples = [Example([f"t{i}" for i in rng.integers(0, 10, 16)], [], k % 2)
                for k in range(12)]
    data = Dataset(examples=examples, label_names=LABELS)
    cfg = small_config(variant="no-conv", context_mode="intra", match_method="additive", d=8)
    tcfg = TrainConfig(epochs=1, batch_size=4)
    model = build_model(cfg, VOCAB, LABELS)
    encoded = [model.vocab.encode_example(ex) for ex in data.examples]
    batch = make_batches(encoded, tcfg.batch_size, [cfg.seed, 2, 1])[0]

    def one_batch():
        loss = cross_entropy(forward_batch(model, batch), [label for *_, label in batch])
        ad.backward(loss)

    one = traced_peak(one_batch)
    fresh = build_model(cfg, VOCAB, LABELS)
    assert traced_peak(lambda: train(fresh, data, tcfg)) < 1.25 * one


def _grad_bytes(params) -> int:
    grads = [p.grad for p in params.values() if p.grad is not None]
    return sum(sum(a.nbytes for a in g) if isinstance(g, ad.RowGrad) else g.nbytes
               for g in grads)


# the held probs and loss nodes, their values and the gradients' array
# headers: 1.8-5.2 KB measured. A backward that left the graph alive held
# 43-610 KB more on these batches
BACKWARD_HELD_SLACK = 8 * 1024


@pytest.mark.parametrize("match", MATCH_METHODS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_backward_frees_the_graph_it_walks(variant, match):
    # contract clause: backward consumes the interior nodes it walks. With
    # probs and loss still referenced, the traced memory left after it is
    # the parameters' new gradients plus BACKWARD_HELD_SLACK, on a ragged
    # multi-wise batch of five texts of 1-40 tokens and 1-3 contexts each
    rng = np.random.default_rng(7)
    ids = lambda n: rng.integers(1, len(VOCAB), n).tolist()
    batch = [(ids(n), [ids(2 + (11 * j + 7 * k) % 30) for j in range(1 + k % 3)], k % 2)
             for k, n in enumerate([1, 9, 40, 23, 5])]
    model = build_model(small_config(variant=variant, context_mode="multi-wise",
                                     match_method=match, d=8), VOCAB, LABELS)
    labels = [label for *_, label in batch]
    # one untraced pass first, so that one-time allocations are not counted
    ad.backward(cross_entropy(forward_batch(model, batch), labels))
    tracemalloc.start()
    try:
        probs = forward_batch(model, batch)
        loss = cross_entropy(probs, labels)
        ad.zero_grads(model.params.values())
        ad.backward(loss)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= _grad_bytes(model.params) + BACKWARD_HELD_SLACK
    assert probs.value.shape == (2, 5) and loss.inputs == ()


def test_grad_check_sees_an_error_of_the_size_its_tolerance_names(monkeypatch):
    # contract clause: grad_check is the oracle of every gradient. An
    # absolute error of 1e-5 planted in entry 0 of the classifier bias's
    # gradient fails the check at 1e-6 and is named; every other tensor
    # stays under the tolerance
    model = build_model(small_config(d=2), VOCAB, LABELS)
    bias, add_bias = model.params["classifier.b"], ad.add_bias

    def planted(mat, b):
        out = add_bias(mat, b)
        if b is bias:
            push = out._backward

            def _bw(g):
                push(g)
                bias.grad[0] += 1e-5

            out._backward = _bw
        return out

    monkeypatch.setattr(ad, "add_bias", planted)
    report = ad.grad_check(
        lambda: cross_entropy(forward_batch(model, [([2, 3, 4], [[5, 6]])]), [1]), model.params)
    assert not report.passed and report.worst_tensor == "classifier.b"
    assert all(e < 1e-6 for name, e in report.errors.items() if name != "classifier.b")


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_majority_predictor_measures_the_split():
    # a zero classifier predicts class 0 everywhere (uniform probs, lowest id)
    examples = [Example(text=["t1"], contexts=[], label=0)] * 6 \
             + [Example(text=["t2"], contexts=[], label=1)] * 4
    data = Dataset(examples=examples, label_names=LABELS)
    model = build_model(small_config(variant="vanilla-cnn", context_mode="intra"),
                        VOCAB, LABELS)
    model.params["classifier.W"].value[:] = 0.0
    model.params["classifier.b"].value[:] = 0.0
    result = evaluate(data, model)
    assert result.accuracy == 0.6
    assert result.confusion.tolist() == [[6, 0], [4, 0]]


def test_evaluate_accuracy_matches_confusion_recomputation():
    data = gen_context_match(60, 5, 5, 15, seed=2)
    model = build_model(small_config(d=4), make_vocab(
        sorted({t for ex in data for t in ex.text + ex.contexts[0]})), LABELS)
    result = evaluate(data, model)
    conf = result.confusion
    weighted_recall = sum(
        (conf[k].sum() / result.n) * (conf[k, k] / conf[k].sum())
        for k in range(2) if conf[k].sum()
    )
    assert abs(result.accuracy - weighted_recall) < 1e-12
    assert conf.sum() == result.n == 60


def test_evaluate_loss_is_the_mean_cross_entropy():
    # comparison: within 1e-12 of the per-example forward's mean loss, with
    # identical predictions, since packed matmuls sum in another order; and
    # bitwise the mean of the packed columns' losses, summed in dataset order
    data = gen_context_match(3 * EVAL_CHUNK + 2, 5, 5, 15, seed=6)
    model = build_model(small_config(d=4), make_vocab(
        sorted({t for ex in data for t in ex.text + ex.contexts[0]})), LABELS)
    result = evaluate(data, model)
    per_example = [forward(model, ex).value for ex in data.examples]
    want = sum(cross_entropy(ad.Node(p[:, None]), [ex.label]).value.item()
               for ex, p in zip(data.examples, per_example)) / len(data)
    assert abs(result.loss - want) <= 1e-12
    confusion = np.zeros((2, 2), dtype=np.int64)
    for ex, p in zip(data.examples, per_example):
        confusion[ex.label, predict(p)] += 1
    assert np.array_equal(result.confusion, confusion)
    encoded = [model.vocab.encode_example(ex) for ex in data.examples]
    total = 0.0
    for lo in range(0, len(data), EVAL_CHUNK):
        chunk = encoded[lo:lo + EVAL_CHUNK]
        probs = forward_batch(model, chunk).value
        for b, (_, _, label) in enumerate(chunk):
            total += cross_entropy(ad.Node(probs[:, b:b + 1]), [label]).value.item()
    assert result.loss == total / len(data)


def test_evaluate_raises_on_a_non_finite_mean_loss():
    data = separable_dataset(8)
    model = _toy_model(data)
    model.params["classifier.W"].value[:] = np.inf
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError, match="non-finite mean loss"):
            evaluate(data, model)


def test_evaluate_preconditions():
    model = build_model(small_config(), VOCAB, LABELS)
    with pytest.raises(ContractError):
        evaluate(Dataset(examples=[], label_names=LABELS), model)


# ---------------------------------------------------------------------------
# parameter accounting


def test_count_params_logistic_head_oracle():
    head = {
        "W": ad.param(np.zeros((3, 300))),
        "b": ad.param(np.zeros(3)),
    }
    assert count_params(head).total == 903


@pytest.mark.parametrize("d", [4, 50, 300])
def test_light_exceeds_vanilla_by_exactly_the_context_filter(d):
    light = build_model(small_config(d=d, context_mode="intra"), VOCAB, LABELS)
    vanilla = build_model(small_config(variant="vanilla-cnn", context_mode="intra", d=d),
                          VOCAB, LABELS)
    delta = count_params(light.params).total - count_params(vanilla.params).total
    assert delta == d * d


def test_advanced_strictly_exceeds_light():
    light = build_model(small_config(context_mode="intra"), VOCAB, LABELS)
    advanced = build_model(small_config(variant="advanced", context_mode="intra"),
                           VOCAB, LABELS)
    assert count_params(advanced.params).total > count_params(light.params).total


def test_count_params_rows_sum_to_total_and_embeddings_are_optional():
    model = build_model(small_config(), VOCAB, LABELS)
    without = count_params(model.params)
    with_emb = count_params(model.params, include_embeddings=True)
    assert without.total == sum(size for _, _, size in without.rows)
    assert with_emb.total - without.total == model.embeddings.value.size
    assert all(name != "embeddings" for name, _, _ in without.rows)
