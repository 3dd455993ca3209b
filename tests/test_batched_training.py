"""``train`` runs each batch as one packed ``forward_batch`` graph.

The oracle is the per-example loop in ``oracle_train``: one unsegmented
``reference_forward`` per example, the arithmetic training had before
batches were packed.
Packing sums wider matmuls in another order, so losses and parameters are
compared within TRAIN_BATCH_TOLERANCE (absolute), while train accuracies
and the predictions after every epoch must be identical.
"""

import json

import numpy as np
import pytest

from attconv.checkpoint import save_checkpoint
from attconv.data import Dataset, Example
from attconv.model import ModelConfig, TrainConfig, build_model, forward_ids, predict, train
from oracle_train import oracle_train
from test_forward_batch import GRID, LABELS, VOCAB

TRAIN_BATCH_TOLERANCE = 1e-12
TRAIN_CONFIG = TrainConfig(learning_rate=0.1, batch_size=3, epochs=2)


def _ragged_data(mode, n=8, seed=4):
    """Texts of 2-6 tokens, contexts of 1-5, one to three contexts in the
    multi-context modes (sometimes a repeat); 8 examples make batches of
    3, 3 and 2."""
    rng = np.random.default_rng(seed)

    def sent(lo, hi):
        ids = rng.integers(2, 14, size=int(rng.integers(lo, hi)))
        return [VOCAB.tokens[int(i)] for i in ids]

    examples = []
    for i in range(n):
        count = {"intra": 0, "single": 1}.get(mode, 1 + i % 3)
        contexts = [sent(1, 6) for _ in range(count)]
        if count == 3 and i % 2 == 0:
            contexts[2] = list(contexts[0])
        examples.append(Example(text=sent(2, 7), contexts=contexts, label=i % len(LABELS)))
    return Dataset(examples=examples, label_names=LABELS)


def _predictions(model, data):
    return [predict(forward_ids(model, model.vocab.encode(ex.text),
                                [model.vocab.encode(c) for c in ex.contexts]).value)
            for ex in data.examples]


def _run(run, config, data):
    """Train a fresh model with ``run``; the model, its records and the
    predictions on ``data`` after every epoch."""
    model = build_model(config, VOCAB, LABELS)
    after_epoch = []
    records = run(model, data, TRAIN_CONFIG,
                  emit=lambda line: after_epoch.append(_predictions(model, data)))
    return model, records, after_epoch


@pytest.mark.parametrize("variant,mode,self_mode,method", GRID)
def test_batched_training_matches_the_per_example_loop(variant, mode, self_mode, method):
    # comparison: TRAIN_BATCH_TOLERANCE on losses and parameters; identical
    # train accuracies and per-epoch predictions
    config = ModelConfig(variant=variant, context_mode=mode, self_mode=self_mode, d=4,
                         num_classes=len(LABELS), match_method=method, seed=2)
    data = _ragged_data(mode)
    batched, got, got_preds = _run(train, config, data)
    oracle, want, want_preds = _run(oracle_train, config, data)
    assert [r["accuracy"] for r in got] == [r["accuracy"] for r in want]
    assert got_preds == want_preds
    for a, b in zip(got, want):
        assert abs(a["loss"] - b["loss"]) <= TRAIN_BATCH_TOLERANCE
    for name, node in batched.params.items():
        gap = np.max(np.abs(node.value - oracle.params[name].value))
        assert gap <= TRAIN_BATCH_TOLERANCE, name
    assert not batched.embeddings.value[0].any()


@pytest.mark.parametrize("variant,mode,method", [
    ("light", "multi-wise", "bilinear"), ("advanced", "multi-conc", "dot"),
    ("no-conv", "intra", "additive"), ("attentive-pooling", "single", "dot"),
])
def test_one_seed_gives_byte_identical_checkpoints(tmp_path, variant, mode, method):
    # comparison: bytes of the checkpoint and of the metric stream, under the
    # package's one-BLAS-thread policy
    config = ModelConfig(variant=variant, context_mode=mode, d=4, num_classes=len(LABELS),
                         match_method=method, seed=9)
    data = _ragged_data(mode, n=10, seed=1)
    files, streams = [], []
    for run in range(2):
        model = build_model(config, VOCAB, LABELS)
        stream = []
        train(model, data, TRAIN_CONFIG, dev_data=data, emit=stream.append)
        path = tmp_path / f"run{run}.ckpt"
        save_checkpoint(str(path), model, TRAIN_CONFIG)
        files.append(path.read_bytes())
        streams.append(stream)
    assert files[0] == files[1]
    assert streams[0] == streams[1]
    assert [json.loads(line)["split"] for line in streams[0]] == ["train", "dev"] * 2
