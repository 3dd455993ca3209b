"""The text side of each attentive layer is built once per example.

The oracle is the per-context forward ``reference_forward``: the unsegmented
layer called with one context map at a time, each map's feature map
max-pooled, the maps max-pooled, then the classifier. The forward packs its
context maps side by side and sums its row softmaxes and wider matmuls in
another order, so it is compared within FORWARD_TOLERANCE, with identical
predictions. Training is compared with a tolerance too: ``train`` packs
each batch into one graph, and a node shared by several contexts also sums
their gradients before its one backward, where the oracle, the per-example
loop of ``oracle_train`` on the per-context forward, sums them at the
parameter.
"""

import numpy as np
import pytest

from attconv import autodiff as ad
from attconv.attention import MATCH_METHODS
from attconv.data import SEP_TOKEN, Dataset, Example, Vocabulary
from attconv.model import (
    EXPORTABLE_VARIANTS,
    ModelConfig,
    TrainConfig,
    attention_records,
    build_model,
    evaluate,
    forward_batch,
    forward_ids,
    predict,
    train,
)
from oracle_train import oracle_train
from reference import reference_forward

VOCAB = Vocabulary()
for _tok in [f"t{i}" for i in range(12)] + [SEP_TOKEN]:
    VOCAB.add(_tok)
LABELS = ["a", "b"]
CONTEXTUAL = ("light", "advanced", "attentive-pooling", "no-conv")
# (context mode, self mode): intra in both self modes, then the context modes
MODES = (("intra", "include-self"), ("intra", "exclude-self"), ("single", "include-self"),
         ("multi-wise", "include-self"), ("multi-conc", "include-self"))
TRAIN_TOLERANCE = 1e-12  # relative to each tensor's largest entry
FORWARD_TOLERANCE = 1e-12  # absolute, on probabilities and attention weights


def _example_ids(rng, mode):
    def sent(lo):
        return [int(i) for i in rng.integers(2, 14, size=int(rng.integers(lo, 7)))]
    text = sent(2)
    n_ctx = {"intra": 0, "single": 1}.get(mode, 3)
    return text, [sent(1) for _ in range(n_ctx)]


def _record_shapes(records):
    return [(r.context_index, r.layer_index, r.weights.shape) for r in records]


@pytest.mark.parametrize("method", MATCH_METHODS)
@pytest.mark.parametrize("mode,self_mode", MODES)
@pytest.mark.parametrize("variant", CONTEXTUAL)
def test_forward_is_within_tolerance_of_the_per_context_oracle(variant, mode, self_mode, method):
    # comparison: FORWARD_TOLERANCE on probabilities and every recorded
    # weight, identical predictions, and one record per context and pass
    cfg = ModelConfig(variant=variant, context_mode=mode, self_mode=self_mode, d=8,
                      match_method=method, seed=4)
    model = build_model(cfg, VOCAB, LABELS)
    rng = np.random.default_rng(11)
    for _ in range(6):
        text, ctxs = _example_ids(rng, mode)
        if mode == "multi-wise":
            ctxs = ctxs + [ctxs[0]]  # a repeated context shares its map's block
        want_records = []
        got = forward_ids(model, text, ctxs).value
        want = reference_forward(model, text, ctxs, trace=want_records).value
        assert np.max(np.abs(got - want)) <= FORWARD_TOLERANCE
        assert predict(got) == predict(want)
        if variant not in EXPORTABLE_VARIANTS:
            assert want_records == []
            continue
        got_records = attention_records(model, text, ctxs)
        assert _record_shapes(got_records) == _record_shapes(want_records)
        for a, b in zip(got_records, want_records):
            assert np.max(np.abs(a.weights - b.weights)) <= FORWARD_TOLERANCE
        passes = 4 if variant == "no-conv" else 1
        assert len(got_records) == passes * (len(ctxs) if mode == "multi-wise" else 1)


def _multiwise_data(seed, n=20):
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        text, ctxs = _example_ids(rng, "multi-wise")
        examples.append(Example(text=[VOCAB.tokens[t] for t in text],
                                contexts=[[VOCAB.tokens[t] for t in c] for c in ctxs],
                                label=i % 2))
    return Dataset(examples=examples, label_names=LABELS)


@pytest.mark.parametrize("method", MATCH_METHODS)
@pytest.mark.parametrize("variant", CONTEXTUAL)
def test_multiwise_training_stays_within_tolerance_of_the_oracle(variant, method):
    # comparison: parameters within TRAIN_TOLERANCE of each tensor's largest
    # entry, and identical predictions (equal confusion matrices)
    data = _multiwise_data(5)
    cfg = ModelConfig(variant=variant, context_mode="multi-wise", d=8, match_method=method,
                      seed=2)
    tcfg = TrainConfig(learning_rate=0.1, batch_size=5, epochs=2)
    shared = build_model(cfg, VOCAB, LABELS)
    train(shared, data, tcfg)
    oracle = build_model(cfg, VOCAB, LABELS)
    oracle_train(oracle, data, tcfg)
    for name, node in shared.params.items():
        want = oracle.params[name].value
        scale = max(float(np.max(np.abs(want))), 1e-300)
        assert float(np.max(np.abs(node.value - want))) <= TRAIN_TOLERANCE * scale, name
    a, b = evaluate(data, shared), evaluate(data, oracle)
    assert np.array_equal(a.confusion, b.confusion)
    for ex in data.examples:
        text = VOCAB.encode(ex.text)
        ctxs = [VOCAB.encode(c) for c in ex.contexts]
        assert (predict(forward_ids(shared, text, ctxs).value)
                == predict(forward_ids(oracle, text, ctxs).value))


def _multiwise_graph(variant):
    cfg = ModelConfig(variant=variant, context_mode="multi-wise", d=8,
                      match_method="bilinear", seed=1)
    model = build_model(cfg, VOCAB, LABELS)
    probs = forward_batch(model, [([2, 3, 4, 5], [[6, 7], [8, 9, 10], [11]])])
    return ad.topo_order(probs)


def _matmuls_reading(nodes, prefix):
    """How many matmul nodes take a parameter named under ``prefix``, by parameter."""
    counts = {}
    for node in nodes:
        if node.op == "matmul":
            for inp in node.inputs:
                if inp.name is not None and inp.name.startswith(prefix):
                    counts[inp.name] = counts.get(inp.name, 0) + 1
    return counts


def _ops(nodes, op):
    return sum(node.op == op for node in nodes)


def test_light_builds_its_text_side_once_per_example():
    nodes = _multiwise_graph("light")
    # Hx^T W_e and W1 window3(Hx) once for the text, W2 once for the three
    # packed contexts, then the classifier; the scores and the attentive
    # contexts of all three pairs are one node each
    assert _ops(nodes, "matmul") == 4
    assert _matmuls_reading(nodes, "net.conv.W1") == {"net.conv.W1": 1}
    assert _matmuls_reading(nodes, "net.match.W_e") == {"net.match.W_e": 1}
    assert _matmuls_reading(nodes, "net.conv.W2") == {"net.conv.W2": 1}
    assert (_ops(nodes, "block_scores"), _ops(nodes, "block_apply"),
            _ops(nodes, "masked_softmax_rows")) == (1, 1, 1)


def test_advanced_builds_source_and_beneficiary_gates_once_per_example():
    nodes = _multiwise_graph("advanced")
    # source 4, beneficiary 2, focus 4 over the packed contexts, W_e, W1, W2
    # and the classifier
    assert _ops(nodes, "matmul") == 14
    for side in ("net.source.", "net.beneficiary."):
        counts = _matmuls_reading(nodes, side)
        assert counts and set(counts.values()) == {1}, side
    focus = _matmuls_reading(nodes, "net.focus.")
    assert len(focus) == 4 and set(focus.values()) == {1}
