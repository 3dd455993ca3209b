"""Acceptance suite: one check per headline property, each printing a
[PASS]/[FAIL] line with the measured numbers (run with -s to see them all).

The two training checks are real experiments on the bundled synthetic
tasks and dominate the runtime; everything together stays inside a few
minutes on one core.
"""

import json
import time

import numpy as np
import pytest

from attconv import autodiff as ad
from attconv import layers as ly
from attconv.attention import MATCH_METHODS, match_scores
from attconv.checkpoint import load_checkpoint, save_checkpoint
from attconv.cli import main
from attconv.data import (
    Dataset,
    Vocabulary,
    build_vocab,
    gen_context_match,
    gen_nonlocal_match,
    save_jsonl,
)
from attconv.attmap import export_attention
from attconv.model import (
    CONTEXT_MODES,
    VARIANTS,
    ModelConfig,
    TrainConfig,
    attention_records,
    build_model,
    count_params,
    evaluate,
    forward,
    forward_ids,
    init_tensor,
    predict,
    train,
)


def check(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def pair(Hx, Hy):
    """The one block of Hx's positions against Hy's."""
    return ad.Blocks([0, Hx.value.shape[1]], [0, Hy.value.shape[1]])


def match(Hx, Hy, method, p=None):
    """The blocked scores of one pair."""
    return match_scores(Hx, Hy, method, pair(Hx, Hy), p)


def attend(Hx, Hy):
    """The attentive context of Hx over Hy under dot matching, d x m."""
    blocks = pair(Hx, Hy)
    return ad.block_apply(ad.masked_softmax_rows(match(Hx, Hy, "dot"), blocks), Hy, blocks)


def probe_row(model, ex):
    """The last text position's attention weights on the example's first pass."""
    text_ids, ctx_ids, _ = model.vocab.encode_example(ex)
    records = attention_records(model, text_ids, ctx_ids)
    return records[0].weights[-1]


def np_window3(H):
    m = H.shape[1]
    padded = np.pad(H, ((0, 0), (1, 1)))
    return np.vstack([padded[:, 0:m], H, padded[:, 2:m + 2]])


# ---------------------------------------------------------------------------
# 1. the split convolution equals one joint filter over the stacked window


def test_joint_filter_equivalence():
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        d = int(rng.integers(1, 9))
        m = int(rng.integers(1, 11))
        d_c = int(rng.integers(1, 17))
        params = {name: ad.param(init_tensor(rng, name, shape))
                  for name, shape in (("W1", (d, 3 * d)), ("W2", (d, d_c)), ("b", (d,)))}
        H = rng.standard_normal((d, m))
        C = rng.standard_normal((d_c, m))
        local = ad.matmul(params["W1"], ad.window3(ad.Node(H), [0]))
        got = ly.light_attconv(local, ad.Node(C), params, "").value
        joint = np.hstack([params["W1"].value, params["W2"].value])
        want = np.tanh(joint @ np.vstack([np_window3(H), C]) + params["b"].value[:, None])
        worst = max(worst, float(np.max(np.abs(got - want))))
    dt = time.perf_counter() - t0
    check("joint-filter equivalence",
          worst < 1e-12 and dt < 5.0,
          f"max abs diff {worst:.2e} over 100 instances in {dt:.2f}s")


# ---------------------------------------------------------------------------
# 2. finite-difference gradient suite across the variants


def test_gradient_suite(tmp_path, capsys):
    # every variant x context mode; every match method where there is a
    # match; intra attention with exclude-self
    cases = [
        (variant, mode, method, "include-self")
        for variant in VARIANTS for mode in CONTEXT_MODES
        for method in (MATCH_METHODS if variant in ("light", "advanced", "no-conv") else ("dot",))
    ]
    cases += [(variant, "intra", "dot", "exclude-self")
              for variant in ("light", "advanced", "no-conv")]
    t0 = time.perf_counter()
    results = []
    for variant, mode, method, self_mode in cases:
        config = tmp_path / "gradcheck.json"
        config.write_text(json.dumps({
            "variant": variant, "context-mode": mode, "d": 4, "num-classes": 2,
            "match-method": method, "self-mode": self_mode, "seed": 5,
        }), encoding="utf-8")
        code = main(["gradcheck", "--config", str(config), "--tolerance", "1e-6"])
        report = json.loads(capsys.readouterr().out)
        results.append((f"{variant}/{mode}/{method}/{self_mode}", code, report["worst"]["error"]))
    dt = time.perf_counter() - t0
    ok = all(code == 0 for _, code, _ in results) and dt < 120.0
    failed = [name for name, code, _ in results if code != 0]
    worst = max(results, key=lambda r: r[2])
    detail = (f"{len(results)} configs, failed {failed}, worst {worst[0]} {worst[2]:.1e}; "
              f"{dt:.1f}s")
    check("gradient suite", ok, detail)


# ---------------------------------------------------------------------------
# 3. attention invariants on random instances


def test_attention_invariants():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    ok = True
    notes = []
    for trial in range(50):
        d = int(rng.integers(1, 7))
        m = int(rng.integers(1, 8))
        n = int(rng.integers(2, 9))
        Hx = ad.Node(rng.standard_normal((d, m)))
        Hy = ad.Node(rng.standard_normal((d, n)))
        # exclude-self: the context attends to itself, m = n
        self_pair = pair(Hy, Hy)
        w = self_pair.block(
            ad.masked_softmax_rows(match(Hy, Hy, "dot"), self_pair, exclude_self=True).value, 0)
        if np.max(np.abs(w.sum(axis=1) - 1.0)) > 1e-12:
            ok, _ = False, notes.append(f"trial {trial}: rows not stochastic")
        if np.any(np.diag(w) != 0.0):
            ok, _ = False, notes.append(f"trial {trial}: self weight nonzero")

        bil = match(Hx, Hy, "bilinear", {"W_e": ad.Node(np.eye(d))})
        if not np.array_equal(bil.value, match(Hx, Hy, "dot").value):
            ok, _ = False, notes.append(f"trial {trial}: bilinear identity differs")

        c = attend(Hx, Hy)
        perm = rng.permutation(n)
        Hyp = ad.Node(Hy.value[:, perm])
        cp = attend(Hx, Hyp)
        if np.max(np.abs(c.value - cp.value)) > 1e-12:
            ok, _ = False, notes.append(f"trial {trial}: permutation moved context")

        lo = Hy.value.min(axis=1, keepdims=True) - 1e-12
        hi = Hy.value.max(axis=1, keepdims=True) + 1e-12
        if np.any(c.value < lo) or np.any(c.value > hi):
            ok, _ = False, notes.append(f"trial {trial}: context left the hull")
    dt = time.perf_counter() - t0
    ok = ok and dt < 10.0
    check("attention invariants", ok,
          "; ".join(notes) if notes else f"5 properties x 50 instances in {dt:.2f}s")


# ---------------------------------------------------------------------------
# 4. the attentive filter adds exactly one d x d_c matrix


def test_parameter_delta():
    vocab = Vocabulary()
    vocab.add("t0")
    t0 = time.perf_counter()
    deltas = {}
    for d in (4, 50, 300):
        light = build_model(ModelConfig(variant="light", context_mode="intra", d=d),
                            vocab, ["0", "1"])
        vanilla = build_model(ModelConfig(variant="vanilla-cnn", context_mode="intra", d=d),
                              vocab, ["0", "1"])
        deltas[d] = count_params(light.params).total - count_params(vanilla.params).total
    dt = time.perf_counter() - t0
    ok = all(deltas[d] == d * d for d in deltas) and dt < 1.0
    check("parameter delta", ok,
          ", ".join(f"d={d}: {v}" for d, v in deltas.items()) + f"; {dt:.2f}s")


# ---------------------------------------------------------------------------
# 5. nonlocal separation: attention solves what a local window cannot


@pytest.fixture(scope="module")
def nonlocal_run():
    data = gen_nonlocal_match(5000, 20, 30, seed=7)
    train_ds = Dataset(examples=data.examples[:4000], label_names=data.label_names)
    test_ds = Dataset(examples=data.examples[4000:], label_names=data.label_names)
    vocab = build_vocab(train_ds.examples)
    budget = TrainConfig(epochs=30, learning_rate=0.03, batch_size=50)

    def run(variant, self_mode, stop):
        cfg = ModelConfig(variant=variant, context_mode="intra", d=32,
                          num_classes=2, self_mode=self_mode, seed=7)
        model = build_model(cfg, vocab, train_ds.label_names)
        t0 = time.perf_counter()
        metrics = train(model, train_ds, budget, dev_data=test_ds,
                        stop_at_dev_accuracy=stop)
        dt = time.perf_counter() - t0
        best = max(m["accuracy"] for m in metrics if m["split"] == "dev")
        return model, best, dt

    light, light_acc, light_t = run("light", "exclude-self", stop=0.92)
    _, vanilla_acc, vanilla_t = run("vanilla-cnn", "include-self", stop=None)
    return {
        "light": light, "light_acc": light_acc,
        "vanilla_acc": vanilla_acc,
        "seconds": light_t + vanilla_t,
        "test": test_ds,
    }


def test_nonlocal_separation(nonlocal_run):
    r = nonlocal_run
    ok = r["light_acc"] >= 0.90 and r["vanilla_acc"] <= 0.65 and r["seconds"] < 300.0
    check("nonlocal separation", ok,
          f"light {r['light_acc']:.3f} >= 0.90, width-3 baseline "
          f"{r['vanilla_acc']:.3f} <= 0.65, {r['seconds']:.0f}s < 300s")


def test_probe_row_attends_to_the_marker(nonlocal_run):
    """On correctly classified positives the last position's attention row
    peaks on the marker's token, the token it has to match. It sits at
    position 0 and at the planted echo, whose weights tie to the last bits,
    so a peak on either counts."""
    model = nonlocal_run["light"]
    hits = seen = 0
    for ex in nonlocal_run["test"]:
        if ex.label != 1:
            continue
        probs = forward(model, ex)
        if predict(probs.value) != 1:
            continue
        seen += 1
        row = probe_row(model, ex)
        hits += int(ex.text[np.argmax(row)] == ex.text[0])
    rate = hits / seen
    check("probe-row attention", rate >= 0.80 and seen > 100,
          f"argmax on the marker's token for {rate:.3f} of {seen} correct positives")


def test_attention_export_carries_the_alignment(nonlocal_run, tmp_path):
    model = nonlocal_run["light"]
    chosen = None
    for ex in nonlocal_run["test"]:
        if ex.label != 1:
            continue
        probs = forward(model, ex)
        peak = np.argmax(probe_row(model, ex))
        if predict(probs.value) == 1 and ex.text[peak] == ex.text[0]:
            chosen = ex
            break
    assert chosen is not None
    ckpt = tmp_path / "nonlocal.ckpt"
    save_checkpoint(str(ckpt), model, TrainConfig())
    loaded, _ = load_checkpoint(str(ckpt))
    paths = export_attention(loaded, Dataset(examples=[chosen], label_names=["0", "1"]),
                             "tsv", str(tmp_path / "maps"))
    lines = open(paths[0], encoding="utf-8").read().splitlines()
    probe_cells = lines[-1].split("\t")
    weights = [float(v) for v in probe_cells[1:]]
    ok = (chosen.text[int(np.argmax(weights))] == chosen.text[0]
          and abs(sum(weights) - 1.0) <= 1e-9)
    check("attention export", ok,
          f"held-out probe row peaks on the marker's token with weight {max(weights):.3f}")


# ---------------------------------------------------------------------------
# 6. multi-context forward is exactly order- and duplication-invariant


def test_multi_context_invariance():
    rng = np.random.default_rng(102)
    vocab = Vocabulary()
    for i in range(40):
        vocab.add(f"t{i}")
    model = build_model(ModelConfig(variant="light", context_mode="multi-wise", d=8, seed=1),
                        vocab, ["0", "1"])
    exact = True
    for trial in range(50):
        text = [int(i) for i in rng.integers(2, 42, size=rng.integers(2, 8))]
        ctxs = [[int(i) for i in rng.integers(2, 42, size=rng.integers(1, 6))]
                for _ in range(3)]
        base = forward_ids(model, text, ctxs).value
        order = [int(k) for k in rng.permutation(3)]
        permuted = forward_ids(model, text, [ctxs[k] for k in order]).value
        duplicated = forward_ids(model, text, ctxs + [ctxs[int(rng.integers(3))]]).value
        exact = exact and np.array_equal(base, permuted) and np.array_equal(base, duplicated)
    check("multi-context invariance", exact,
          "permutation and duplication exact on 50 random 3-context examples")


# ---------------------------------------------------------------------------
# 7. training is reproducible through the command line


def test_training_determinism(tmp_path, capsys):
    data = gen_context_match(200, 8, 8, 20, seed=11)
    data_path = tmp_path / "train.jsonl"
    save_jsonl(data, str(data_path))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "variant": "light", "context-mode": "single", "d": 8, "num-classes": 2,
        "seed": 11, "epochs": 5, "batch-size": 10, "learning-rate": 0.1,
    }), encoding="utf-8")
    blobs, streams = [], []
    for name in ("first.ckpt", "second.ckpt"):
        out = tmp_path / name
        code = main(["train", "--config", str(config), "--train", str(data_path),
                     "--out", str(out)])
        assert code == 0
        streams.append(capsys.readouterr().out)
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1] and streams[0] == streams[1]
    check("training determinism", ok,
          f"two runs, {len(blobs[0])} byte checkpoints identical, metric streams identical")


# ---------------------------------------------------------------------------
# 8. checkpoints restore models exactly


def test_checkpoint_round_trip(tmp_path):
    data = gen_context_match(200, 6, 6, 18, seed=3)
    train_ds = Dataset(examples=data.examples[:150], label_names=data.label_names)
    test_ds = Dataset(examples=data.examples[150:], label_names=data.label_names)
    vocab = build_vocab(data.examples)
    model = build_model(ModelConfig(variant="light", context_mode="single", d=16, seed=3),
                        vocab, data.label_names)
    train(model, train_ds, TrainConfig(epochs=2, batch_size=10, learning_rate=0.1))
    before = evaluate(test_ds, model).accuracy

    first = tmp_path / "a.ckpt"
    save_checkpoint(str(first), model, TrainConfig())
    loaded, tcfg = load_checkpoint(str(first))
    after = evaluate(test_ds, loaded).accuracy
    second = tmp_path / "b.ckpt"
    save_checkpoint(str(second), loaded, tcfg)
    ok = before == after and first.read_bytes() == second.read_bytes()
    check("checkpoint round trip", ok,
          f"accuracy {before:.3f} reproduced exactly; save-load-save byte-identical")


# ---------------------------------------------------------------------------
# 9. the answer lives in the context: attention finds it, text alone cannot


@pytest.fixture(scope="module")
def entailment_run():
    data = gen_context_match(500, 8, 8, 20, seed=11)
    train_ds = Dataset(examples=data.examples[:200], label_names=data.label_names)
    test_ds = Dataset(examples=data.examples[200:], label_names=data.label_names)
    vocab = build_vocab(train_ds.examples)
    budget = TrainConfig(epochs=30, learning_rate=0.1, batch_size=10)

    def run(variant, stop):
        cfg = ModelConfig(variant=variant, context_mode="single", d=32, seed=11)
        model = build_model(cfg, vocab, train_ds.label_names)
        t0 = time.perf_counter()
        metrics = train(model, train_ds, budget, dev_data=test_ds,
                        stop_at_dev_accuracy=stop)
        dt = time.perf_counter() - t0
        return max(m["accuracy"] for m in metrics if m["split"] == "dev"), dt

    light_acc, light_t = run("light", stop=0.96)
    blind_acc, blind_t = run("vanilla-cnn", stop=None)
    return {"light": light_acc, "blind": blind_acc, "seconds": light_t + blind_t}


def test_context_entailment_probe(entailment_run):
    r = entailment_run
    ok = r["light"] >= 0.95 and r["blind"] <= 0.6 and r["seconds"] < 120.0
    check("context entailment probe", ok,
          f"light {r['light']:.3f} >= 0.95, text-only {r['blind']:.3f} <= 0.6, "
          f"{r['seconds']:.0f}s < 120s")
