"""``forward_batch`` runs a chunk of examples as one packed graph.

The oracle is ``reference_forward``, the unsegmented forward of one example
at a time. Packing puts several examples' columns into one matmul, and BLAS
sums a wider matmul in another order, so the comparison is a tolerance:
every probability within BATCH_TOLERANCE (absolute) of the oracle's, and
identical predictions. ``forward`` is the batch of one, bit for bit.
"""

import numpy as np
import pytest

from attconv import autodiff as ad
from attconv.attention import MATCH_METHODS
from attconv.data import SEP_TOKEN, Dataset, Example, Vocabulary
from attconv.errors import ContractError
from attconv.model import (
    CONTEXT_MODES,
    EVAL_CHUNK,
    ModelConfig,
    build_model,
    cross_entropy,
    evaluate,
    forward,
    forward_batch,
    forward_ids,
)
from reference import reference_forward

BATCH_TOLERANCE = 1e-12

VOCAB = Vocabulary()
for _tok in [f"t{i}" for i in range(12)] + [SEP_TOKEN]:
    VOCAB.add(_tok)
LABELS = ["a", "b", "c"]

ATTENDING = ("light", "advanced", "no-conv")
# (variant, context mode, self mode, match method): every variant and mode,
# every method where there is a match, and exclude-self where it applies
GRID = [
    (variant, mode, "include-self", method)
    for variant in ATTENDING + ("vanilla-cnn", "attentive-pooling") for mode in CONTEXT_MODES
    for method in (MATCH_METHODS if variant in ATTENDING else ("dot",))
] + [(variant, "intra", "exclude-self", method)
     for variant in ATTENDING for method in MATCH_METHODS]


def _ids(rng, lo, hi):
    return [int(i) for i in rng.integers(2, 14, size=int(rng.integers(lo, hi + 1)))]


def _encoded(mode, n, seed):
    """Ragged examples: texts of 2-7 tokens, contexts of 1-6, and in the
    multi-context modes from one to four contexts, sometimes repeated."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        text = _ids(rng, 2, 7)
        count = {"intra": 0, "single": 1}.get(mode, 1 + i % 4)
        ctxs = [_ids(rng, 1, 6) for _ in range(count)]
        if count > 2 and i % 3 == 0:
            ctxs[-1] = list(ctxs[0])
        out.append((text, ctxs, i % len(LABELS)))
    return out


def _model(variant, mode, self_mode, method, d=5):
    cfg = ModelConfig(variant=variant, context_mode=mode, self_mode=self_mode, d=d,
                      num_classes=len(LABELS), match_method=method, seed=6)
    return build_model(cfg, VOCAB, LABELS)


@pytest.mark.parametrize("variant,mode,self_mode,method", GRID)
def test_forward_batch_matches_per_example_forward(variant, mode, self_mode, method):
    # comparison: BATCH_TOLERANCE on every probability, identical predictions
    model = _model(variant, mode, self_mode, method)
    encoded = _encoded(mode, 2 * EVAL_CHUNK + 3, seed=len(variant) + len(mode))
    got = forward_batch(model, encoded).value
    want = np.stack([reference_forward(model, text, ctxs).value for text, ctxs, _ in encoded],
                    axis=1)
    assert got.shape == want.shape == (len(LABELS), len(encoded))
    assert np.max(np.abs(got - want)) <= BATCH_TOLERANCE
    assert np.array_equal(got.argmax(axis=0), want.argmax(axis=0))

    # evaluate runs the same examples in chunks of EVAL_CHUNK
    data = Dataset(examples=[Example(text=[VOCAB.tokens[i] for i in text],
                                     contexts=[[VOCAB.tokens[i] for i in c] for c in ctxs],
                                     label=label) for text, ctxs, label in encoded],
                   label_names=LABELS)
    result = evaluate(data, model)
    confusion = np.zeros((len(LABELS), len(LABELS)), dtype=np.int64)
    for (_, _, label), column in zip(encoded, want.T):
        confusion[label, column.argmax()] += 1
    assert np.array_equal(result.confusion, confusion)
    want_loss = np.mean([-np.log(column[label]) for (_, _, label), column in zip(encoded, want.T)])
    assert abs(result.loss - want_loss) <= BATCH_TOLERANCE


@pytest.mark.parametrize("variant,mode,self_mode,method", GRID)
def test_forward_is_the_batch_of_one(variant, mode, self_mode, method):
    # comparison: bitwise; forward and forward_ids give column 0 of a
    # forward_batch of one, as a detached K-vector
    model = _model(variant, mode, self_mode, method)
    for text, ctxs, label in _encoded(mode, 6, seed=3):
        column = forward_batch(model, [(text, ctxs)]).value
        assert column.shape == (len(LABELS), 1)
        got = forward_ids(model, text, ctxs)
        assert got.value.shape == (len(LABELS),) and got.inputs == ()
        assert np.array_equal(got.value, column[:, 0])
        example = Example(text=[VOCAB.tokens[i] for i in text],
                          contexts=[[VOCAB.tokens[i] for i in c] for c in ctxs], label=label)
        assert np.array_equal(forward(model, example).value, column[:, 0])


@pytest.mark.parametrize("variant,mode,self_mode,method", GRID)
def test_forward_batch_gradients_match_finite_differences(variant, mode, self_mode, method):
    model = _model(variant, mode, self_mode, method, d=2)
    encoded = _encoded(mode, 3, seed=7)
    labels = [label for _, _, label in encoded]

    def build_loss():
        return cross_entropy(forward_batch(model, encoded), labels)

    report = ad.grad_check(build_loss, model.params, tolerance=1e-6)
    assert report.passed, (report.worst_tensor, report.max_error)


def test_forward_batch_needs_examples():
    with pytest.raises(ContractError):
        forward_batch(_model("light", "single", "include-self", "dot"), [])
