"""The per-example training loop, kept as the oracle of batched training.

``train`` runs each batch as one ``forward_batch`` graph. This loop runs one
forward per example instead (the unsegmented ``reference_forward`` unless a
test passes another), stacks the probability columns and scores them with
the K x B ``nll``, which is the arithmetic of the mean of per-example losses. The
shuffles, the AdaGrad step and the frozen PAD row are ``train``'s. It
emits the train records ``train`` emits; it runs no dev passes.
"""

import json

import numpy as np

from attconv import autodiff as ad
from attconv.data import PAD_ID, make_batches
from attconv.model import adagrad_step, predict
from reference import reference_forward, stack_cols


def oracle_train(model, data, train_config, forward=reference_forward, emit=None) -> list[dict]:
    acc = {name: np.zeros_like(node.value) for name, node in model.params.items()}
    metrics = []
    encoded = [model.vocab.encode_example(ex) for ex in data.examples]
    for epoch in range(1, train_config.epochs + 1):
        batches = make_batches(encoded, train_config.batch_size, [model.config.seed, 2, epoch])
        loss_sum = 0.0
        correct = 0
        for batch in batches:
            columns = []
            for text_ids, ctx_ids, label in batch:
                probs = forward(model, text_ids, ctx_ids)
                correct += predict(probs.value) == label
                columns.append(probs)
            loss = ad.nll(stack_cols(columns), [label for _, _, label in batch])
            assert np.isfinite(loss.value)
            loss_sum += loss.value.item() * len(batch)
            ad.zero_grads(model.params.values())
            ad.backward(loss)
            model.embeddings.grad[PAD_ID] = 0.0
            adagrad_step(model.params, acc, train_config.learning_rate,
                         train_config.adagrad_epsilon)
        rec = {"epoch": epoch, "split": "train", "loss": loss_sum / len(data),
               "accuracy": correct / len(data)}
        metrics.append(rec)
        if emit is not None:
            emit(json.dumps(rec))
    return metrics
