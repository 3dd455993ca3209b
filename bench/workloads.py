"""The three benchmark workloads, driven through the public attconv API.

Each workload is a round run in a closed loop: set up (timed as set-up),
then the timed phases, one library call after another. Every round starts
from a fresh seeded model, so repeated rounds do the same work and must give
the same numbers. Library functions are always looked up on the package at
call time, so the tracer's wrappers see every call the benchmark makes.

Only the stable public API is called in the timed phases: ``train``,
``evaluate(ds, model)``, ``forward``, ``save_checkpoint``,
``load_checkpoint`` and ``cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time

import numpy as np

import attconv as A
import attconv.cli

CHECKPOINT_REPS = 8  # checkpoint save and timed loads per round
BLOCK_S = 0.02  # a load sample repeats its call for at least this long
PROBE_EXAMPLES = 20  # examples whose probabilities are compared bitwise


class Recorder:
    """Samples and operation counts of one benchmark run."""

    def __init__(self):
        self.setup_s: list[float] = []
        self.main_wall_s: list[float] = []
        self.examples_per_s: list[float] = []
        self.loss: list[float] = []
        self.metric_streams: list[str] = []
        self.predict_ms: list[float] = []
        self.load_s: list[float] = []
        self.attempted = 0
        self.checks: list[tuple[str, bool]] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        self.checks.append((name, bool(ok)))

    @property
    def failed(self) -> int:
        return sum(1 for _, ok in self.checks if not ok)


def _split(ds, *sizes):
    out, lo = [], 0
    for n in sizes:
        out.append(A.Dataset(examples=ds.examples[lo:lo + n], label_names=list(ds.label_names)))
        lo += n
    return out


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def _timed_block(fn, *args):
    """Repeat ``fn(*args)`` for at least ``BLOCK_S``; returns (last result,
    mean seconds per call, calls). Sub-millisecond calls are timed as a
    block so that one sample is not one clock reading of a single short
    call."""
    clock = time.perf_counter
    calls = 0
    t0 = clock()
    while True:
        result = fn(*args)
        calls += 1
        elapsed = clock() - t0
        if elapsed >= BLOCK_S:
            return result, elapsed / calls, calls


def _mean_loss(examples, probs) -> float:
    """Mean cross-entropy of ``probs`` against the examples' labels."""
    return float(np.mean(
        [-math.log(max(p[ex.label], 1e-12)) for ex, p in zip(examples, probs)]))


def predict_phase(model, examples, train_config, workdir: str, rec: Recorder):
    """Per-example ``forward`` latency over ``examples``, with checkpoint I/O.

    The examples run in ``CHECKPOINT_REPS`` chunks; before each chunk
    ``model`` is saved and the file loaded again, the load timed as a block
    of calls, so forward and load are each sampled across the whole phase
    rather than in one burst. The last loaded model is saved once more for
    the byte-identity check. Records the mean cross-entropy of the predictions,
    the held-out loss. Returns (probabilities, loaded model, first file,
    re-saved file).
    """
    first = os.path.join(workdir, "model.ckpt")
    again = os.path.join(workdir, "resaved.ckpt")
    probs = []
    clock = time.perf_counter
    n = len(examples)
    calls = 0
    for i in range(CHECKPOINT_REPS):
        A.save_checkpoint(first, model, train_config)
        (loaded, _), dt, n_load = _timed_block(A.load_checkpoint, first)
        rec.load_s.append(dt)
        calls += 1 + n_load
        for ex in examples[i * n // CHECKPOINT_REPS:(i + 1) * n // CHECKPOINT_REPS]:
            t0 = clock()
            p = A.forward(model, ex).value
            rec.predict_ms.append((clock() - t0) * 1e3)
            probs.append(p)
    A.save_checkpoint(again, loaded, train_config)
    rec.attempted += n + calls + 1
    rec.loss.append(_mean_loss(examples, probs))
    return probs, loaded, first, again


def check_checkpoint(rec: Recorder, model, loaded, first: str, again: str, probes) -> None:
    with open(first, "rb") as fa, open(again, "rb") as fb:
        rec.check("checkpoint save-load-save is byte-identical", fa.read() == fb.read())
    same = all(
        np.array_equal(A.forward(model, ex).value, A.forward(loaded, ex).value)
        for ex in probes
    )
    rec.check("loaded model probabilities are bitwise equal", same)
    rec.check("PAD row of the loaded model is zero", not loaded.embeddings.value[0].any())


def check_loss(rec: Recorder) -> None:
    rec.check("held-out loss is finite", math.isfinite(rec.loss[-1]))
    rec.check("held-out loss is identical in every round", len(set(rec.loss)) == 1)


def check_confusion(rec: Recorder, result, examples, probs, k: int) -> None:
    confusion = np.zeros((k, k), dtype=np.int64)
    for ex, p in zip(examples, probs):
        confusion[ex.label, int(np.argmax(p))] += 1
    rec.check("evaluate confusion matches per-example forward",
              np.array_equal(result.confusion, confusion))


# ---------------------------------------------------------------------------


class TrainWorkload:
    """Train a fresh model, then checkpoint it and time its predictions.

    ``max_fit_ratio`` guards that training learns: the trained model's loss
    on its own training set must be below that share of the untrained
    model's. A model that stops learning keeps a ratio of 1, while the
    held-out loss of a model at chance (ln 2 for two labels) would read as
    a gain.
    """

    def __init__(self, name, config, gen, n_train, n_dev, n_probe, train_config,
                 max_fit_ratio, gradcheck=False):
        self.name = name
        self.config = config
        self.gen = gen
        self.sizes = (n_train, n_dev, n_probe)
        self.train_config = train_config
        self.max_fit_ratio = max_fit_ratio
        self.gradcheck = gradcheck

    @property
    def dev_examples_per_round(self) -> int:
        """Dev examples scored by ``train``'s dev passes in one round."""
        return self.sizes[1] * (self.train_config["epochs"] // self.train_config["eval_every"])

    def setup(self, seed: int, workdir: str) -> dict:
        ds = self.gen(sum(self.sizes), seed)
        train, dev, probe = _split(ds, *self.sizes)
        vocab = A.build_vocab(train.examples)
        config = A.ModelConfig(**self.config, seed=seed)
        model = A.build_model(config, vocab, train.label_names)
        return {"seed": seed, "workdir": workdir, "train": train, "dev": dev,
                "probe": probe, "model": model}

    def round(self, state: dict, rec: Recorder) -> float:
        """Run the timed phases; returns the wall time of ``train``."""
        model = state["model"]
        tc = A.TrainConfig(**self.train_config)
        metrics, wall = _timed(A.train, model, state["train"], tc, state["dev"])
        rec.attempted += 1
        state["metrics"] = metrics
        rec.metric_streams.append(json.dumps(metrics))
        rec.examples_per_s.append(len(state["train"]) * tc.epochs / wall)
        _, state["loaded"], state["first"], state["again"] = predict_phase(
            model, state["probe"].examples, tc, state["workdir"], rec)
        if self.gradcheck:
            state["gradcheck"] = self._gradcheck(state)
            rec.attempted += 1
        return wall

    def _gradcheck(self, state: dict):
        path = os.path.join(state["workdir"], "gradcheck.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({k.replace("_", "-"): v for k, v in self.config.items()}, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = A.cli.main(["gradcheck", "--config", path, "--seed", str(state["seed"]),
                               "--tolerance", "1e-6"])
        return code, out.getvalue()

    def check(self, state: dict, rec: Recorder) -> None:
        model = state["model"]
        values = [v for m in state["metrics"] for v in (m["loss"], m["accuracy"])]
        rec.check("metric stream is finite", all(math.isfinite(v) for v in values))
        rec.check("PAD row stays zero after training", not model.embeddings.value[0].any())
        rec.check("metric stream is identical in every round", len(set(rec.metric_streams)) == 1)
        train = state["train"].examples
        untrained = self.setup(state["seed"], state["workdir"])["model"]
        before = _mean_loss(train, [A.forward(untrained, ex).value for ex in train])
        after = _mean_loss(train, [A.forward(model, ex).value for ex in train])
        rec.check(f"training-set loss falls below {self.max_fit_ratio} of the untrained model's",
                  after < self.max_fit_ratio * before)
        check_loss(rec)
        check_checkpoint(rec, model, state["loaded"], state["first"], state["again"],
                         state["probe"].examples[:PROBE_EXAMPLES])
        dev = state["dev"]
        result = A.evaluate(dev, model)
        probs = [A.forward(model, ex).value for ex in dev.examples]
        check_confusion(rec, result, dev.examples, probs, model.config.num_classes)
        if self.gradcheck:
            code, out = state["gradcheck"]
            passed = code == 0 and json.loads(out.strip().splitlines()[-1])["pass"] is True
            rec.check("gradcheck passes at 1e-6", passed)


class EvalWorkload:
    """Forward-only: load an untrained multi-wise model, evaluate and predict."""

    name = "eval-multiwise-d300"
    n_examples = 1000
    extra_contexts = 2
    dev_examples_per_round = 0

    def setup(self, seed: int, workdir: str) -> dict:
        ds = A.gen_context_match(self.n_examples, 20, 30, 20000, seed)
        rng = np.random.default_rng([seed, 1])
        examples = []
        for i, ex in enumerate(ds.examples):
            others = rng.choice(self.n_examples - 1, size=self.extra_contexts, replace=False)
            contexts = ex.contexts + [ds.examples[j + (j >= i)].contexts[0] for j in others]
            order = rng.permutation(len(contexts))
            examples.append(A.Example(text=ex.text, contexts=[contexts[j] for j in order],
                                      label=ex.label))
        ds = A.Dataset(examples=examples, label_names=list(ds.label_names))
        vocab = A.build_vocab(ds.examples)
        config = A.ModelConfig(variant="light", context_mode="multi-wise", d=300,
                               match_method="bilinear", seed=seed)
        model = A.build_model(config, vocab, ds.label_names)
        tc = A.TrainConfig()
        path = os.path.join(workdir, "model.ckpt")
        A.save_checkpoint(path, model, tc)
        return {"workdir": workdir, "ds": ds, "model": model, "train_config": tc,
                "path": path}

    def round(self, state: dict, rec: Recorder) -> float:
        """Run the timed phases; returns the wall time of ``evaluate``."""
        ds = state["ds"]
        (served, _), dt = _timed(A.load_checkpoint, state["path"])
        rec.load_s.append(dt)
        result, wall = _timed(A.evaluate, ds, served)
        rec.attempted += 2
        rec.examples_per_s.append(len(ds) / wall)
        probs, _, first, again = predict_phase(
            served, ds.examples, state["train_config"], state["workdir"], rec)
        state.update(served=served, result=result, probs=probs, first=first, again=again)
        return wall

    def check(self, state: dict, rec: Recorder) -> None:
        ds = state["ds"]
        check_loss(rec)
        check_checkpoint(rec, state["model"], state["served"], state["first"], state["again"],
                         ds.examples[:PROBE_EXAMPLES])
        check_confusion(rec, state["result"], ds.examples, state["probs"],
                        state["model"].config.num_classes)


WORKLOADS = {
    w.name: w for w in (
        TrainWorkload(
            "train-ctx-d300",
            dict(variant="light", context_mode="single", d=300, match_method="dot"),
            lambda n, seed: A.gen_context_match(n, 20, 30, 7500, seed),
            300, 100, 2000,
            dict(batch_size=50, epochs=2, eval_every=2),
            # 0.040-0.054 on seeds 1-10; 0.125-0.157 on seeds 1-3 with frozen embeddings
            max_fit_ratio=0.08,
        ),
        TrainWorkload(
            "train-intra-additive-d32",
            dict(variant="no-conv", context_mode="intra", d=32, match_method="additive"),
            lambda n, seed: A.gen_nonlocal_match(n, 24, 40, seed),
            400, 100, 1000,
            dict(batch_size=20, epochs=1, eval_every=1),
            # one epoch: 0.946-0.981 on seeds 1-10, so this checks only that it learns
            max_fit_ratio=1.0,
            gradcheck=True,
        ),
        EvalWorkload(),
    )
}
