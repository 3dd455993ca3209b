"""End-to-end command line flows and exit code mapping."""

import contextlib
import io
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attconv import cli, errors
from attconv import model as model_module
from attconv.attmap import export_attention
from attconv.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from attconv.cli import SEED_ENV, main
from attconv.data import (SEP_TOKEN, Dataset, Example, Vocabulary, gen_context_match, load_jsonl,
                          load_pretrained, save_jsonl)
from attconv.model import MAX_SCORE_ENTRIES, ModelConfig, TrainConfig, build_model

BASE_CONFIG = {
    "variant": "light",
    "context-mode": "single",
    "d": 4,
    "num-classes": 2,
    "seed": 1,
    "epochs": 2,
    "batch-size": 10,
    "learning-rate": 0.05,
}


def write_config(tmp_path, name="config.json", **overrides):
    cfg = dict(BASE_CONFIG)
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def write_data(tmp_path, name="data.jsonl", n=30, seed=9):
    ds = gen_context_match(n, 5, 4, 15, seed=seed)
    path = tmp_path / name
    save_jsonl(ds, str(path))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# train


DEEP = "[" * 200_000 + "]" * 200_000  # deeper than any recursion limit
HUGE = "1" * 5000  # longer than Python's 4300-digit int conversion limit


def test_train_writes_checkpoint_and_metric_stream(tmp_path, capsys):
    config = write_config(tmp_path)
    data = write_data(tmp_path)
    out = tmp_path / "model.ckpt"
    code, stdout, _ = run(capsys, [
        "train", "--config", config, "--train", data, "--dev", data,
        "--out", str(out),
    ])
    assert code == 0
    assert out.exists()
    records = [json.loads(line) for line in stdout.splitlines()]
    assert {r["split"] for r in records} == {"train", "dev"}
    assert all({"epoch", "split", "loss", "accuracy"} <= set(r) for r in records)


def test_train_missing_train_file(tmp_path, capsys):
    config = write_config(tmp_path)
    code, _, err = run(capsys, [
        "train", "--config", config, "--train", str(tmp_path / "nope.jsonl"),
        "--out", str(tmp_path / "m.ckpt"),
    ])
    assert code == 3
    assert "nope.jsonl" in err


def test_train_missing_config_file(tmp_path, capsys):
    code, _, err = run(capsys, [
        "train", "--config", str(tmp_path / "absent.json"),
        "--train", write_data(tmp_path), "--out", str(tmp_path / "m.ckpt"),
    ])
    assert code == 2
    assert "config file not found" in err


def test_train_invalid_config_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    code, _, err = run(capsys, [
        "train", "--config", str(bad), "--train", write_data(tmp_path),
        "--out", str(tmp_path / "m.ckpt"),
    ])
    assert code == 2
    assert "invalid JSON" in err


def test_train_unknown_config_key(tmp_path, capsys):
    config = write_config(tmp_path, dropout=0.5)
    code, _, err = run(capsys, [
        "train", "--config", config, "--train", write_data(tmp_path),
        "--out", str(tmp_path / "m.ckpt"),
    ])
    assert code == 2
    assert "dropout" in err


def test_train_wrongly_typed_config_value(tmp_path, capsys):
    config = write_config(tmp_path, epochs=1.5)
    code, _, err = run(capsys, [
        "train", "--config", config, "--train", write_data(tmp_path),
        "--out", str(tmp_path / "m.ckpt"),
    ])
    assert code == 2
    assert "epochs must be an integer" in err


def test_train_unallocatable_d_exits_2(tmp_path, capsys):
    # 10**15 fails at once; a smaller d could really be allocated
    config = write_config(tmp_path, d=10**15)
    code, _, err = run(capsys, [
        "train", "--config", config, "--train", write_data(tmp_path),
        "--out", str(tmp_path / "m.ckpt"),
    ])
    assert code == 2
    assert "d=1000000000000000" in err and "vocabulary of" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("vectors, want_code, want", [
    ("x 1 2\n", 3, "line 1: expected 1000000000000000 values, got 2"),
    ("", 2, "d=1000000000000000 does not fit in memory"),
], ids=["one-line", "empty"])
def test_train_unallocatable_d_with_a_vectors_file(tmp_path, capsys, vectors, want_code, want):
    # the lines are checked before the d-wide table is allocated
    path = tmp_path / "vec.txt"
    path.write_text(vectors, encoding="utf-8")
    config = write_config(tmp_path, d=10**15, embeddings=str(path))
    code, _, err = run(capsys, [
        "train", "--config", config, "--train", write_data(tmp_path),
        "--out", str(tmp_path / "m.ckpt"),
    ])
    assert code == want_code
    assert want in err
    assert "Traceback" not in err


def test_train_class_count_must_match_data(tmp_path, capsys):
    config = write_config(tmp_path, **{"num-classes": 3})
    code, _, err = run(capsys, [
        "train", "--config", config, "--train", write_data(tmp_path),
        "--out", str(tmp_path / "m.ckpt"),
    ])
    assert code == 2
    assert "num-classes" in err


def test_train_reruns_are_byte_identical(tmp_path, capsys):
    config = write_config(tmp_path)
    data = write_data(tmp_path)
    outs = []
    logs = []
    for name in ("a.ckpt", "b.ckpt"):
        out = tmp_path / name
        code, stdout, _ = run(capsys, [
            "train", "--config", config, "--train", data, "--out", str(out),
        ])
        assert code == 0
        outs.append(out.read_bytes())
        logs.append(stdout)
    assert outs[0] == outs[1]
    assert logs[0] == logs[1]


@pytest.mark.parametrize("numpy_first", [False, True], ids=["cli", "numpy-imported-first"])
def test_checkpoint_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, numpy_first):
    # at d=200 a two-thread OpenBLAS splits the W1 gemm differently and
    # changes its last bits; the package pins one thread whichever of it and
    # numpy is imported first
    config = write_config(tmp_path, d=200, epochs=1, **{"batch-size": 50})
    data = tmp_path / "data.jsonl"
    save_jsonl(gen_context_match(100, 20, 30, 500, seed=1), str(data))
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys\n" + ("import numpy\n" if numpy_first else "")
            + "from attconv.cli import main\nsys.exit(main(sys.argv[1:]))")
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.ckpt"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-c", code, "train", "--config", config, "--train", str(data),
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_seed_precedence_flag_env_config(tmp_path, capsys, monkeypatch):
    data = write_data(tmp_path)

    def ckpt(name, argv, env=None):
        monkeypatch.delenv(SEED_ENV, raising=False)
        if env is not None:
            monkeypatch.setenv(SEED_ENV, env)
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        return out.read_bytes()

    base = ["train", "--train", data]
    config1 = write_config(tmp_path, "seed1.json", seed=1)
    config2 = write_config(tmp_path, "seed2.json", seed=2)
    from_config = ckpt("c.ckpt", base + ["--config", config2])
    from_env = ckpt("e.ckpt", base + ["--config", config1], env="2")
    from_flag = ckpt("f.ckpt", base + ["--config", config1, "--seed", "2"], env="7")
    assert from_config == from_env == from_flag
    different = ckpt("g.ckpt", base + ["--config", config1])
    assert different != from_config


def test_unparseable_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV, "not-a-number")
    code, _, err = run(capsys, [
        "train", "--config", write_config(tmp_path), "--train", write_data(tmp_path),
        "--out", str(tmp_path / "m.ckpt"),
    ])
    assert code == 2
    assert SEED_ENV in err


@pytest.mark.parametrize("command", ["train", "gradcheck", "params"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    if command == "train":
        argv = ["train", "--config", write_config(tmp_path), "--train", write_data(tmp_path),
                "--out", str(tmp_path / "m.ckpt"), "--seed", "-1"]
    elif command == "gradcheck":
        argv = ["gradcheck", "--config", write_config(tmp_path), "--seed", "-3"]
    else:
        argv = ["params", "--config", write_config(tmp_path, seed=-1)]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "seed must be a non-negative integer" in err


def test_deeply_nested_jsonl_line_exits_3(tmp_path, capsys):
    data = tmp_path / "deep.jsonl"
    data.write_text(json.dumps({"label": "0", "text": "a"}) + "\n"
                    + '{"label": "1", "text": "b", "extra": ' + DEEP + "}\n", encoding="utf-8")
    code, _, err = run(capsys, ["train", "--config", write_config(tmp_path),
                                "--train", str(data), "--out", str(tmp_path / "m.ckpt")])
    assert code == 3
    assert "line 2" in err and "nested" in err
    assert err.count("\n") == 1


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    config = tmp_path / "deep.json"
    config.write_text('{"d": ' + DEEP + "}", encoding="utf-8")
    code, _, err = run(capsys, ["params", "--config", str(config)])
    assert code == 2
    assert "nested" in err and err.count("\n") == 1


def test_deeply_nested_checkpoint_manifest_exits_3(tmp_path, capsys):
    manifest = ('{"format-version": ' + DEEP + "}").encode("utf-8")
    path = tmp_path / "deep.ckpt"
    path.write_bytes(MAGIC + struct.pack("<Q", len(manifest)) + manifest)
    code, _, err = run(capsys, ["params", "--model", str(path)])
    assert code == 3
    assert "corrupt manifest" in err and err.count("\n") == 1


def test_huge_jsonl_integer_exits_3(tmp_path, capsys):
    data = tmp_path / "huge.jsonl"
    data.write_text(json.dumps({"label": "0", "text": "a"}) + "\n"
                    + '{"label": "1", "text": "b", "n": ' + HUGE + "}\n", encoding="utf-8")
    code, _, err = run(capsys, ["train", "--config", write_config(tmp_path),
                                "--train", str(data), "--out", str(tmp_path / "m.ckpt")])
    assert code == 3
    assert "line 2" in err and "invalid JSON" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_huge_config_integer_exits_2(tmp_path, capsys):
    config = tmp_path / "huge.json"
    config.write_text('{"d": ' + HUGE + "}", encoding="utf-8")
    code, _, err = run(capsys, ["params", "--config", str(config)])
    assert code == 2
    assert "invalid JSON" in err and err.count("\n") == 1 and "Traceback" not in err


def test_huge_checkpoint_manifest_integer_exits_3(tmp_path, capsys):
    manifest = ('{"format-version": ' + HUGE + "}").encode("utf-8")
    path = tmp_path / "huge.ckpt"
    path.write_bytes(MAGIC + struct.pack("<Q", len(manifest)) + manifest)
    code, _, err = run(capsys, ["params", "--model", str(path)])
    assert code == 3
    assert "corrupt manifest" in err and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("record", [
    {"label": 1, "text": "a"},
    {"label": "1", "text": None},
    {"label": "1", "text": "a", "contexts": [["b"]]},
], ids=["label-int", "text-null", "context-list"])
def test_non_string_jsonl_field_exits_3(tmp_path, capsys, record):
    # integer labels included: 1 and "1" would otherwise be one class
    data = tmp_path / "typed.jsonl"
    data.write_text(json.dumps({"label": "0", "text": "a", "contexts": ["b"]}) + "\n"
                    + json.dumps(record) + "\n", encoding="utf-8")
    code, _, err = run(capsys, ["train", "--config", write_config(tmp_path),
                                "--train", str(data), "--out", str(tmp_path / "m.ckpt")])
    assert code == 3
    assert "line 2" in err and "must be a string" in err
    assert not (tmp_path / "m.ckpt").exists()


def test_exclude_self_on_a_one_token_text_exits_2(tmp_path, capsys):
    data = tmp_path / "short.jsonl"
    data.write_text(json.dumps({"label": "0", "text": "a b"}) + "\n"
                    + json.dumps({"label": "1", "text": "c"}) + "\n", encoding="utf-8")
    config = write_config(tmp_path, **{"context-mode": "intra", "self-mode": "exclude-self"})
    code, _, err = run(capsys, ["train", "--config", config, "--train", str(data),
                                "--out", str(tmp_path / "m.ckpt")])
    assert code == 2
    assert "nothing to attend" in err and err.count("\n") == 1
    assert not (tmp_path / "m.ckpt").exists()


def _long_text(n):
    return " ".join(f"w{i % 40}" for i in range(n))


def test_an_example_over_the_score_bound_exits_3(tmp_path, capsys):
    # a text one token longer than the square root of the bound, scored
    # against itself at d=1: small enough to run where nothing refuses it
    n = math.isqrt(MAX_SCORE_ENTRIES) + 1
    data = tmp_path / "long.jsonl"
    data.write_text(json.dumps({"label": "0", "text": "a b"}) + "\n"
                    + json.dumps({"label": "1", "text": _long_text(n)}) + "\n", encoding="utf-8")
    config = write_config(tmp_path, **{"context-mode": "intra", "d": 1, "epochs": 1})
    code, _, err = run(capsys, ["train", "--config", config, "--train", str(data),
                                "--out", str(tmp_path / "m.ckpt")])
    assert code == 3
    assert "too large" in err and str(n * n) in err and err.count("\n") == 1
    assert not (tmp_path / "m.ckpt").exists()


def test_eval_of_an_example_over_the_score_bound_exits_3(trained, tmp_path, capsys):
    n = math.isqrt(MAX_SCORE_ENTRIES)
    data = tmp_path / "long.jsonl"
    data.write_text(json.dumps({"label": "1", "text": _long_text(n + 1),
                                "contexts": [_long_text(n)]}) + "\n", encoding="utf-8")
    code, _, err = run(capsys, ["eval", "--model", trained["model"], "--data", str(data)])
    assert code == 3
    assert "too large" in err and err.count("\n") == 1


REFUSED_RECORDS = pytest.mark.parametrize("mode, bad_record, want_code, want", [
    ("single", {"label": "0", "text": "q0", "contexts": ["c0", "c1"]}, 2, "exactly 1 context"),
    ("intra", {"label": "0", "text": "w0 w1", "contexts": ["w2"]}, 2, "given contexts"),
    ("intra", {"label": "0", "text": _long_text(math.isqrt(MAX_SCORE_ENTRIES) + 1)}, 3,
     "too large"),
], ids=["context-count", "intra-contexts", "score-bound"])


def _write_train_data(tmp_path, mode):
    train_path = write_data(tmp_path)
    if mode == "intra":
        Path(train_path).write_text("".join(
            json.dumps({"label": str(k % 2), "text": _long_text(4 + k)}) + "\n"
            for k in range(6)), encoding="utf-8")
    return train_path


@REFUSED_RECORDS
def test_a_dev_example_the_model_refuses_exits_before_training(
        tmp_path, capsys, mode, bad_record, want_code, want):
    # the dev file is first scored after epoch 1; its refusal must come
    # before any training, so no metric record is printed
    train_path = _write_train_data(tmp_path, mode)
    dev = tmp_path / "dev.jsonl"
    dev.write_text(json.dumps({"label": "1", "text": "w1 w2"} if mode == "intra" else
                              {"label": "1", "text": "q1", "contexts": ["c1"]}) + "\n"
                   + json.dumps(bad_record) + "\n", encoding="utf-8")
    config = write_config(tmp_path, **{"context-mode": mode, "d": 1, "epochs": 1})
    out = tmp_path / "m.ckpt"
    code, stdout, err = run(capsys, ["train", "--config", config, "--train", train_path,
                                     "--dev", str(dev), "--out", str(out)])
    assert (code, stdout) == (want_code, "")
    assert want in err and err.count("\n") == 1
    assert not out.exists()


@REFUSED_RECORDS
def test_a_training_example_the_model_refuses_exits_before_training(
        tmp_path, capsys, mode, bad_record, want_code, want):
    # the refused example is the training file's last line; it is found
    # before any update, so no metric record is printed
    train_path = _write_train_data(tmp_path, mode)
    with open(train_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(bad_record) + "\n")
    config = write_config(tmp_path, **{"context-mode": mode, "d": 1, "epochs": 1})
    out = tmp_path / "m.ckpt"
    code, stdout, err = run(capsys, ["train", "--config", config, "--train", train_path,
                                     "--out", str(out)])
    assert (code, stdout) == (want_code, "")
    assert want in err and err.count("\n") == 1
    assert not out.exists()


def test_negative_env_seed_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV, "-1")
    code, _, err = run(capsys, [
        "train", "--config", write_config(tmp_path), "--train", write_data(tmp_path),
        "--out", str(tmp_path / "m.ckpt"),
    ])
    assert code == 2
    assert "seed must be a non-negative integer" in err


@pytest.mark.parametrize("bad_file, want_code", [("config", 2), ("train", 3), ("embeddings", 3)])
def test_undecodable_input_file_exits_with_its_code(tmp_path, capsys, bad_file, want_code):
    data = write_data(tmp_path)
    vectors = tmp_path / "vec.txt"
    vectors.write_text("t0 0.1 0.2 0.3 0.4\n", encoding="utf-8")
    config = write_config(tmp_path, embeddings=str(vectors))
    target = {"config": config, "train": data, "embeddings": str(vectors)}[bad_file]
    with open(target, "ab") as fh:
        fh.write(b"\xff\n")
    code, _, err = run(capsys, [
        "train", "--config", config, "--train", data, "--out", str(tmp_path / "m.ckpt"),
    ])
    assert code == want_code
    assert f"{target}: not UTF-8 text" in err


BOM = "\ufeff"


@pytest.mark.parametrize("marked", ["config", "train", "embeddings"])
def test_input_file_with_a_byte_order_mark_trains(tmp_path, capsys, marked):
    data = write_data(tmp_path)
    vectors = tmp_path / "vec.txt"
    vectors.write_text("1 4\nt0 0.1 0.2 0.3 0.4\n", encoding="utf-8")
    config = write_config(tmp_path, embeddings=str(vectors))
    target = Path({"config": config, "train": data, "embeddings": str(vectors)}[marked])
    target.write_text(BOM + target.read_text(encoding="utf-8"), encoding="utf-8")
    code, _, err = run(capsys, [
        "train", "--config", config, "--train", data, "--out", str(tmp_path / "m.ckpt"),
    ])
    assert (code, err) == (0, "")


def test_jsonl_file_with_a_byte_order_mark_loads_the_same_dataset(tmp_path):
    plain = write_data(tmp_path)
    marked = tmp_path / "marked.jsonl"
    marked.write_text(BOM + Path(plain).read_text(encoding="utf-8"), encoding="utf-8")
    assert load_jsonl(str(marked)) == load_jsonl(plain)
    assert load_jsonl(str(marked), ["1", "0"]) == load_jsonl(plain, ["1", "0"])


@pytest.mark.parametrize("header", ["2 3\n", ""], ids=["header", "no-header"])
def test_vectors_file_with_a_byte_order_mark_loads_every_row(tmp_path, header):
    path = tmp_path / "vec.txt"
    path.write_text(BOM + header + "the 1 2 3\ncat 4 5 6\n", encoding="utf-8")
    vocab, table = load_pretrained(str(path), 3)
    assert vocab.tokens[2:] == ["the", "cat"]
    assert table[2:].tolist() == [[1, 2, 3], [4, 5, 6]]


@pytest.mark.parametrize("value", ["1_0", "\u0661"], ids=["underscore", "arabic-indic-digit"])
def test_vector_value_that_is_not_an_ascii_decimal_exits_3(tmp_path, capsys, value):
    # float() reads both, as 10.0 and 1.0
    vectors = tmp_path / "vec.txt"
    vectors.write_text(f"t0 0.1 0.2 0.3 0.4\nt1 0.1 {value} 0.3 0.4\n", encoding="utf-8")
    out = tmp_path / "m.ckpt"
    code, _, err = run(capsys, [
        "train", "--config", write_config(tmp_path, embeddings=str(vectors)),
        "--train", write_data(tmp_path), "--out", str(out),
    ])
    assert code == 3
    assert f"{vectors}: line 2: bad float ({value!r} is not an ASCII decimal number)" in err
    assert not out.exists()


@pytest.mark.parametrize("out", ["missing/m.ckpt", ".", ""], ids=["missing-directory", "directory",
                                                                 "empty"])
def test_unwritable_out_exits_3_before_training(tmp_path, capsys, out):
    # a malformed training file shows that no data is read before --out is checked
    config = write_config(tmp_path)
    data = tmp_path / "bad.jsonl"
    data.write_text("{oops\n", encoding="utf-8")
    before = sorted(os.listdir(tmp_path))
    code, stdout, err = run(capsys, [
        "train", "--config", config, "--train", str(data), "--out", out and str(tmp_path / out),
    ])
    assert (code, stdout) == (3, "")
    assert "--out must name a file in an existing directory" in err and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("value", [None, True, 5, ["vec.txt"]], ids=repr)
def test_embeddings_must_be_a_path_string(tmp_path, capsys, value):
    config = write_config(tmp_path, embeddings=value)
    code, _, err = run(capsys, [
        "train", "--config", config, "--train", write_data(tmp_path),
        "--out", str(tmp_path / "m.ckpt"),
    ])
    assert code == 2
    assert "embeddings must be a path string" in err


def test_train_missing_embeddings_file(tmp_path, capsys):
    config = write_config(tmp_path, embeddings=str(tmp_path / "vec.txt"))
    code, _, err = run(capsys, [
        "train", "--config", config, "--train", write_data(tmp_path),
        "--out", str(tmp_path / "m.ckpt"),
    ])
    assert code == 3
    assert "embeddings file not found" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_vector_exits_3_even_for_an_unused_token(tmp_path, capsys, value):
    vectors = tmp_path / "vec.txt"
    vectors.write_text(f"t0 0.1 0.2 0.3 0.4\nunused 0.1 {value} 0.3 0.4\n", encoding="utf-8")
    out = tmp_path / "m.ckpt"
    code, _, err = run(capsys, [
        "train", "--config", write_config(tmp_path, embeddings=str(vectors)),
        "--train", write_data(tmp_path), "--out", str(out),
    ])
    assert code == 3
    assert f"{vectors}: line 2: non-finite" in err
    assert not out.exists()


# numbers the parser accepts, kept small so that a file that loads trains
# without diverging, and fields it must refuse: malformed, non-finite, or
# spelled with an underscore or a non-ASCII digit
_NUMBERS = st.floats(-2.0, 2.0).map(repr) | st.sampled_from(["1", "-0", "1e-3"])
_MALFORMED = st.sampled_from(["abc", "1.2.3", "0x10", "--1", "1e", "1\x00", "nan", "-inf",
                              "Infinity", "1e999", "9" * 400, "1_0", "\u0661"])
# tokens repeat, hit the reserved and the data tokens, and carry NUL or a BOM
_TOKENS = st.sampled_from(["t0", "t1", "q0", "<pad>", "<unk>", "</s>", "a\x00b", "\ufeffx",
                           "3"]) | st.text(st.characters(blacklist_categories=["Z", "C"]),
                                           min_size=1, max_size=3)


@st.composite
def _vectors_files(draw, d: int) -> bytes:
    """A vectors file for dimension d: perhaps a BOM and a header, then
    lines that mostly carry d values, some of them a wrong count or a bad
    field, and perhaps bytes that are not UTF-8."""
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.integers(0, 7))  # 0 header, 1 blank, 2-6 d values, 7 any count
        if kind == 0:
            lines.append(f"{draw(st.integers(0, 10**6))} {draw(st.integers(0, 4))}")
        elif kind == 1:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        else:
            n = d if d <= 4 and kind < 7 else draw(st.integers(0, 4))
            values = draw(st.lists(_NUMBERS, min_size=n, max_size=n))
            if values and draw(st.integers(0, 3)) == 0:
                values[draw(st.integers(0, n - 1))] = draw(_MALFORMED)
            lines.append(" ".join([draw(_TOKENS), *values]))
    text = draw(st.sampled_from(["", "\ufeff"])) + "\n".join(lines)
    raw = (text + draw(st.sampled_from(["", "\n"]))).encode("utf-8")
    if draw(st.integers(0, 7)) == 7:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80"])) + raw[at:]
    return raw


def _run_quietly(argv: list[str]) -> tuple[int, str]:
    """Runs ``main`` in-process; returns the exit code and what went to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _exits_cleanly(code: int, err: str) -> None:
    # an input that loads runs (exit 0, nothing on stderr); any other ends
    # in one line on stderr with a config (2) or data (3) exit code
    assert code in (0, 2, 3)
    assert len(err.splitlines()) == (0 if code == 0 else 1)
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def vectors_run(tmp_path_factory):
    """Runs ``train`` in-process on a tiny dataset with the given vectors
    file and d; returns the exit code and what went to stderr."""
    workdir = tmp_path_factory.mktemp("vectors")
    data = write_data(workdir, n=6)
    vectors, out = workdir / "vec.txt", workdir / "m.ckpt"

    def run_with(raw: bytes, d: int) -> tuple[int, str]:
        vectors.write_bytes(raw)
        config = write_config(workdir, d=d, epochs=1, embeddings=str(vectors))
        return _run_quietly(["train", "--config", config, "--train", data, "--out", str(out)])

    return run_with


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from([1, 2, 3, 10**15]).flatmap(
    lambda d: st.tuples(st.just(d), _vectors_files(d))))
def test_fuzzed_vectors_file_exits_cleanly(vectors_run, case):
    _exits_cleanly(*vectors_run(case[1], case[0]))


@pytest.mark.parametrize("line", ["t0 nan x 0.3 0.4", "<unk> 1 zz 1 1"])
def test_bad_vector_of_a_skipped_token_exits_3(tmp_path, capsys, line):
    # a repeated token and a reserved one are skipped, but only after their values parse
    vectors = tmp_path / "vec.txt"
    vectors.write_text(f"t0 0.1 0.2 0.3 0.4\n{line}\n", encoding="utf-8")
    out = tmp_path / "m.ckpt"
    code, _, err = run(capsys, [
        "train", "--config", write_config(tmp_path, embeddings=str(vectors)),
        "--train", write_data(tmp_path), "--out", str(out),
    ])
    assert code == 3
    assert f"{vectors}: line 2: bad float" in err
    assert not out.exists()


# raw JSON of every type, nested past any recursion limit, or holding an
# integer past the digit limit
_JSON_VALUES = st.sampled_from(["null", "true", "0", "-1.5", "1e400", "[]", '["q0"]', "{}",
                                '""', '"q0 t1"', '"a\\u0000b"', DEEP, HUGE])
# strings that load, among them a NUL, a BOM and the reserved tokens inside
# a text, and strings that must be refused: no token at all, or any text
_CLEAN = st.sampled_from(["q0 t1", "c2 q1 c0", "t0 q1", "a\x00b", "\ufeffq0", "<pad> <unk>"])
_HOSTILE = st.sampled_from(["", " ", "maybe"]) | st.text(max_size=6)
_SIDE = math.isqrt(MAX_SCORE_ENTRIES)


def _raw_object(fields: dict) -> str:
    return "{" + ", ".join(f"{json.dumps(key)}: {raw}" for key, raw in fields.items()) + "}"


def _encode(draw, text: str) -> bytes:
    """``text`` as UTF-8, perhaps after a BOM and perhaps with bytes that do not decode."""
    raw = (draw(st.sampled_from(["", BOM])) + text).encode("utf-8")
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80"])) + raw[at:]
    return raw


@st.composite
def _jsonl_files(draw) -> bytes:
    """A few records of one context, some with a text scored near the bound
    of ``MAX_SCORE_ENTRIES`` (against a context of its square root), and at
    most one hostile line: no record at all, a field of another JSON type,
    missing or extra, a string that must be refused, NUL written raw, or a
    wrong number of contexts."""
    lines = []
    count = draw(st.integers(1, 4))
    hostile = draw(st.integers(0, 2 * count))  # no hostile line when past the end
    for k in range(count):
        if draw(st.integers(0, 7)) == 0:
            text = _long_text(draw(st.integers(_SIDE - 1, _SIDE + 1)))
            contexts = [_long_text(_SIDE)]
        else:
            text, contexts = draw(_CLEAN), [draw(_CLEAN)]
        values = {"label": draw(st.sampled_from(["0", "1"])), "text": text, "contexts": contexts}
        how = draw(st.integers(0, 5)) if k == hostile else None
        if how == 0:
            lines.append(draw(_JSON_VALUES))
            continue
        if how == 3:
            values[draw(st.sampled_from(["label", "text"]))] = draw(_HOSTILE)
        elif how == 4:
            values["contexts"] = draw(st.lists(_CLEAN, max_size=3))
        fields = {key: json.dumps(value, ensure_ascii=how != 5) for key, value in values.items()}
        if how == 1:
            key = draw(st.sampled_from(["label", "text", "contexts", "extra"]))
            fields[key] = draw(_JSON_VALUES)
        elif how == 2:
            del fields[draw(st.sampled_from(sorted(fields)))]
        lines.append(_raw_object(fields))
    return _encode(draw, "\n".join(lines) + "\n")


# values each config key may validly hold, kept small so that training stays
# quick and cannot diverge, plus values validation must refuse
_CONFIG_VALUES = {
    "variant": ["light", "advanced", "vanilla-cnn", "attentive-pooling", "no-conv", "cnn"],
    "context-mode": ["intra", "single", "multi-wise", "multi-conc", "light\x00"],
    "match-method": ["dot", "bilinear", "additive", "cosine"],
    "self-mode": ["include-self", "exclude-self", ""],
    "d": [1, 2, 0, -1, 10**15],
    "num-classes": [2, 1, 3, 10**15],
    "seed": [0, 7, -1],
    "epochs": [1, 0],
    "batch-size": [1, 4, 0],
    "learning-rate": [0.05, 0.0, -1.0],
    "adagrad-epsilon": [1e-8, 0.0],
    "eval-every": [1, 0],
    "embeddings": ["missing.txt"],
    "dropout": [0.5],
}


@st.composite
def _config_files(draw) -> bytes:
    """A config object: the base config with keys changed to other valid or
    invalid values, to raw JSON of another type, or removed; or a file that
    holds no object at all."""
    if draw(st.integers(0, 9)) == 0:
        return _encode(draw, draw(_JSON_VALUES))
    fields = {key: json.dumps(value) for key, value in BASE_CONFIG.items()}
    fields.update({"epochs": "1", "d": "2"})
    for key in draw(st.lists(st.sampled_from(sorted(_CONFIG_VALUES)), max_size=3)):
        if draw(st.integers(0, 3)) == 0:
            fields[key] = draw(_JSON_VALUES)
        else:
            fields[key] = json.dumps(draw(st.sampled_from(_CONFIG_VALUES[key])))
    if draw(st.integers(0, 5)) == 0:
        del fields[draw(st.sampled_from(sorted(fields)))]
    return _encode(draw, _raw_object(fields))


@pytest.fixture(scope="module")
def fuzz_run(tmp_path_factory):
    """Runs ``argv`` in-process, with ``{fuzzed}`` in it the path of a file
    holding ``raw``, and ``{config}``, ``{data}`` and ``{model}`` those of a
    good config, dataset and checkpoint; returns the exit code and what went
    to stderr."""
    workdir = tmp_path_factory.mktemp("fuzz")
    paths = {"config": write_config(workdir, epochs=1, d=2), "data": write_data(workdir, n=6),
             "model": str(workdir / "model.ckpt"), "out": str(workdir / "out.ckpt"),
             "fuzzed": str(workdir / "fuzzed")}
    assert main(["train", "--config", paths["config"], "--train", paths["data"],
                 "--out", paths["model"]]) == 0

    def run_with(argv: list[str], raw: bytes) -> tuple[int, str]:
        Path(paths["fuzzed"]).write_bytes(raw)
        return _run_quietly([arg.format(**paths) for arg in argv])

    return run_with


_TRAIN = ["train", "--config", "{config}", "--out", "{out}"]


@settings(max_examples=40, deadline=None)
@given(raw=_jsonl_files(), role=st.sampled_from(["train", "dev", "eval"]))
def test_fuzzed_jsonl_file_exits_cleanly(fuzz_run, raw, role):
    # as training data, as dev data in the training data's class order, and
    # as eval data in the checkpoint's
    argv = {"train": _TRAIN + ["--train", "{fuzzed}"],
            "dev": _TRAIN + ["--train", "{data}", "--dev", "{fuzzed}"],
            "eval": ["eval", "--model", "{model}", "--data", "{fuzzed}"]}[role]
    _exits_cleanly(*fuzz_run(argv, raw))


@settings(max_examples=40, deadline=None)
@given(raw=_config_files(), command=st.sampled_from(["train", "params"]))
def test_fuzzed_config_file_exits_cleanly(fuzz_run, raw, command):
    argv = [command, "--config", "{fuzzed}"]
    if command == "train":
        argv += ["--train", "{data}", "--out", "{out}"]
    _exits_cleanly(*fuzz_run(argv, raw))


@pytest.mark.parametrize("overrides", [
    {"learning-rate": math.nan},
    {"learning-rate": math.inf},
    {"adagrad-epsilon": math.nan},
], ids=["lr-nan", "lr-inf", "eps-nan"])
def test_non_finite_step_size_exits_2_without_a_checkpoint(tmp_path, capsys, overrides):
    config = write_config(tmp_path, epochs=1, **{"batch-size": 30}, **overrides)
    out = tmp_path / "m.ckpt"
    code, _, err = run(capsys, [
        "train", "--config", config, "--train", write_data(tmp_path), "--out", str(out),
    ])
    assert code == 2
    assert "must be finite and positive" in err
    assert not out.exists()


def test_train_divergence_exits_4(tmp_path, capsys):
    # gigantic pretrained vectors blow the matching scores up to non-finite
    data = tmp_path / "tiny.jsonl"
    data.write_text(
        json.dumps({"label": "0", "text": "a b", "contexts": ["c d"]}) + "\n"
        + json.dumps({"label": "1", "text": "b a", "contexts": ["d c"]}) + "\n",
        encoding="utf-8",
    )
    vec = tmp_path / "vec.txt"
    vec.write_text(
        "".join(f"{t} 1e200 1e200 1e200 1e200\n" for t in "abcd"),
        encoding="utf-8",
    )
    config = write_config(tmp_path, embeddings=str(vec), **{"batch-size": 2})
    with np.errstate(all="ignore"):
        code, _, err = run(capsys, [
            "train", "--config", config, "--train", str(data),
            "--out", str(tmp_path / "m.ckpt"),
        ])
    assert code == 4
    assert "numeric error" in err


# One batch, one epoch: the AdaGrad step at this learning rate leaves every
# weight finite, near +-1e300, and the next forward overflows to NaN. The
# tests turn warnings into errors, so a numpy warning that would reach
# stderr outside pytest fails them.
OVERFLOWING = {"learning-rate": 1e300, "epochs": 1, "batch-size": 30}


def _numeric_exit(code, stdout, err):
    assert code == 4
    assert len(err.splitlines()) == 1 and err.startswith("numeric error: ")
    assert "Traceback" not in err
    assert "NaN" not in stdout


@pytest.mark.filterwarnings("error")
def test_train_whose_dev_pass_overflows_exits_4_without_a_checkpoint(tmp_path, capsys):
    data = write_data(tmp_path)
    out = tmp_path / "m.ckpt"
    code, stdout, err = run(capsys, [
        "train", "--config", write_config(tmp_path, **OVERFLOWING), "--train", data,
        "--dev", data, "--out", str(out),
    ])
    _numeric_exit(code, stdout, err)
    assert "non-finite mean loss" in err
    assert not out.exists()


@pytest.fixture
def overflowing_model(tmp_path, capsys):
    """A checkpoint trained without --dev at learning rate 1e300, and its data."""
    data = write_data(tmp_path)
    out = tmp_path / "m.ckpt"
    code, _, _ = run(capsys, ["train", "--config", write_config(tmp_path, **OVERFLOWING),
                              "--train", data, "--out", str(out)])
    assert code == 0
    model, _ = load_checkpoint(str(out))
    values = [node.value for node in model.params.values()]
    assert all(np.isfinite(v).all() for v in values)
    assert max(float(np.abs(v).max()) for v in values) > 1e299
    return str(out), data


@pytest.mark.filterwarnings("error")
def test_eval_of_overflowing_weights_exits_4(overflowing_model, capsys):
    path, data = overflowing_model
    code, stdout, err = run(capsys, ["eval", "--model", path, "--data", data])
    _numeric_exit(code, stdout, err)
    assert "non-finite mean loss" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fmt", ["tsv", "svg"])
def test_attmap_of_overflowing_weights_exits_4(overflowing_model, tmp_path, capsys, fmt):
    path, data = overflowing_model
    maps = tmp_path / "maps"
    code, stdout, err = run(capsys, ["attmap", "--model", path, "--input", data,
                                     "--format", fmt, "--out", str(maps)])
    _numeric_exit(code, stdout, err)
    assert "non-finite attention weight" in err
    assert not any(maps.iterdir())


def _labelled_files(tmp_path):
    """A training file whose first label is ``pos`` and a dev file, the same
    records in another order, whose first label is ``neg``."""
    ds = gen_context_match(40, 5, 4, 15, seed=9)
    first_pos = sorted(ds.examples, key=lambda ex: ex.label)
    paths = []
    for name, examples in (("train.jsonl", first_pos), ("dev.jsonl", first_pos[::-1])):
        save_jsonl(Dataset(examples=examples, label_names=["pos", "neg"]), str(tmp_path / name))
        paths.append(str(tmp_path / name))
    return paths


def test_train_dev_records_score_labels_in_the_training_order(tmp_path, capsys):
    train_path, dev_path = _labelled_files(tmp_path)
    config = write_config(tmp_path, epochs=8)
    out = str(tmp_path / "model.ckpt")
    code, stdout, _ = run(capsys, ["train", "--config", config, "--train", train_path,
                                   "--dev", dev_path, "--out", out])
    assert code == 0
    dev = [json.loads(line) for line in stdout.splitlines()][-1]
    assert dev["split"] == "dev"
    code, stdout, _ = run(capsys, ["eval", "--model", out, "--data", dev_path])
    assert code == 0
    evaluated = json.loads(stdout)
    assert evaluated["accuracy"] > 0.5
    assert (dev["accuracy"], dev["loss"]) == (evaluated["accuracy"], evaluated["loss"])


def test_train_dev_label_unseen_in_training_exits_2(tmp_path, capsys):
    train_path, dev_path = _labelled_files(tmp_path)
    with open(dev_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"label": "maybe", "text": "q0", "contexts": ["c0"]}) + "\n")
    out = tmp_path / "model.ckpt"
    code, _, err = run(capsys, ["train", "--config", write_config(tmp_path), "--train",
                                train_path, "--dev", dev_path, "--out", str(out)])
    assert code == 2
    assert "maybe" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("after, want_code, want", [
    ("{oops", 3, "line 2: invalid JSON"),
    (json.dumps({"label": "other", "text": "q1", "contexts": ["c1"]}), 2,
     "label 'maybe' is not among the model's classes"),
], ids=["malformed", "unknown"])
def test_an_unknown_label_is_reported_after_the_whole_file_is_read(
        trained, tmp_path, capsys, command, after, want_code, want):
    # line 1's label is unknown: a malformed line after it still wins (exit 3),
    # and a file of unknown labels names the first (exit 2)
    data = tmp_path / "labels.jsonl"
    data.write_text(json.dumps({"label": "maybe", "text": "q0", "contexts": ["c0"]}) + "\n"
                    + after + "\n", encoding="utf-8")
    if command == "train":
        argv = ["train", "--config", write_config(tmp_path), "--train", trained["data"],
                "--dev", str(data), "--out", str(tmp_path / "m.ckpt")]
    else:
        argv = ["eval", "--model", trained["model"], "--data", str(data)]
    code, stdout, err = run(capsys, argv)
    assert (code, stdout) == (want_code, "")
    assert f"{data}: {want}" in err and err.count("\n") == 1


# ---------------------------------------------------------------------------
# eval


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trained")
    config = write_config(tmp, epochs=8)
    data = write_data(tmp, n=40)
    out = tmp / "model.ckpt"
    assert main(["train", "--config", config, "--train", data, "--out", str(out)]) == 0
    return {"dir": tmp, "config": config, "data": data, "model": str(out)}


@pytest.mark.parametrize("command", ["train", "eval"])
def test_an_input_that_does_not_fit_in_memory_exits_3(trained, tmp_path, capsys, monkeypatch,
                                                        command):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 GiB for an array")

    monkeypatch.setattr(model_module, "forward_batch", out_of_memory)
    out = tmp_path / "m.ckpt"
    argv = (["train", "--config", trained["config"], "--train", trained["data"],
             "--out", str(out)] if command == "train" else
            ["eval", "--model", trained["model"], "--data", trained["data"]])
    code, stdout, err = run(capsys, argv)
    assert (code, stdout) == (3, "")
    assert "did not fit in memory" in err and "8.00 GiB" in err and err.count("\n") == 1
    assert not out.exists()


def test_eval_reports_accuracy_and_confusion(trained, capsys):
    code, stdout, _ = run(capsys, [
        "eval", "--model", trained["model"], "--data", trained["data"],
    ])
    assert code == 0
    result = json.loads(stdout)
    assert 0.0 <= result["accuracy"] <= 1.0
    assert result["loss"] > 0.0
    assert result["n"] == 40
    assert np.sum(result["confusion"]) == 40


def test_eval_of_a_non_finite_result_prints_no_json_and_exits_4(trained, capsys, monkeypatch):
    # strict JSON has no spelling for NaN, so the result is a numeric error
    def nan_loss(dataset, model):
        k = model.config.num_classes
        return model_module.EvalResult(accuracy=0.5, n=len(dataset), loss=float("nan"),
                                       confusion=np.zeros((k, k), dtype=np.int64))

    monkeypatch.setattr(cli, "evaluate", nan_loss)
    code, stdout, err = run(capsys, ["eval", "--model", trained["model"],
                                     "--data", trained["data"]])
    assert (code, stdout) == (4, "")
    assert err.startswith("numeric error:") and err.count("\n") == 1


def test_eval_has_no_workers_option(trained, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--model", trained["model"], "--data", trained["data"],
              "--workers", "3"])
    assert exc.value.code == 2


def test_eval_remaps_label_order_by_name(trained, tmp_path, capsys):
    # the same records with flipped appearance order must score identically
    lines = [
        json.dumps({"label": "1", "text": "q0 t1 t2", "contexts": ["c0 q0"]}),
        json.dumps({"label": "0", "text": "q1 t1 t2", "contexts": ["c0 q0"]}),
    ]
    fwd = tmp_path / "fwd.jsonl"
    fwd.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rev = tmp_path / "rev.jsonl"
    rev.write_text("\n".join(reversed(lines)) + "\n", encoding="utf-8")
    _, out1, _ = run(capsys, ["eval", "--model", trained["model"], "--data", str(fwd)])
    _, out2, _ = run(capsys, ["eval", "--model", trained["model"], "--data", str(rev)])
    assert json.loads(out1)["accuracy"] == json.loads(out2)["accuracy"]


def test_eval_unknown_label_name(trained, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"label": "maybe", "text": "q0", "contexts": ["c0"]}) + "\n",
                   encoding="utf-8")
    code, _, err = run(capsys, ["eval", "--model", trained["model"], "--data", str(bad)])
    assert code == 2
    assert "maybe" in err


def test_eval_empty_data_file(trained, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    code, _, err = run(capsys, ["eval", "--model", trained["model"], "--data", str(empty)])
    assert code == 3
    assert "empty" in err


def test_eval_missing_checkpoint(tmp_path, capsys):
    code, _, err = run(capsys, [
        "eval", "--model", str(tmp_path / "ghost.ckpt"), "--data", write_data(tmp_path),
    ])
    assert code == 3


def test_eval_version_mismatch_exits_2(trained, tmp_path, capsys):
    manifest = json.dumps({"format-version": 99}).encode("utf-8")
    stale = tmp_path / "stale.ckpt"
    stale.write_bytes(MAGIC + struct.pack("<Q", len(manifest)) + manifest)
    code, _, err = run(capsys, ["eval", "--model", str(stale), "--data", trained["data"]])
    assert code == 2
    assert "99" in err and "1" in err


def test_eval_of_a_checkpoint_naming_a_label_twice_exits_2(trained, tmp_path, capsys):
    raw = Path(trained["model"]).read_bytes()
    (mlen,) = struct.unpack("<Q", raw[8:16])
    manifest = json.loads(raw[16:16 + mlen].decode("utf-8"))
    manifest["labels"] = ["p", "p"]
    out = json.dumps(manifest).encode("utf-8")
    bad = tmp_path / "twice.ckpt"
    bad.write_bytes(MAGIC + struct.pack("<Q", len(out)) + out + raw[16 + mlen:])
    code, stdout, err = run(capsys, ["eval", "--model", str(bad), "--data", trained["data"]])
    assert code == 2
    assert stdout == "" and "names class 'p' twice" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_light_passes_at_default_tolerance(tmp_path, capsys):
    code, stdout, _ = run(capsys, ["gradcheck", "--config", write_config(tmp_path)])
    assert code == 0
    report = json.loads(stdout)
    assert report["pass"] is True
    assert report["worst"]["error"] < 1e-6
    assert report["d"] == 4


def test_gradcheck_zero_tolerance_always_fails(tmp_path, capsys):
    code, stdout, _ = run(capsys, [
        "gradcheck", "--config", write_config(tmp_path), "--tolerance", "0",
    ])
    assert code == 1
    report = json.loads(stdout)
    assert report["pass"] is False
    assert report["worst"]["tensor"]


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
def test_gradcheck_non_finite_or_negative_tolerance_exits_2(tmp_path, capsys, tolerance):
    code, stdout, err = run(capsys, [
        "gradcheck", "--config", write_config(tmp_path), "--tolerance", tolerance,
    ])
    assert code == 2
    assert stdout == ""
    assert "tolerance must be finite and >= 0" in err


def test_gradcheck_is_seed_stable(tmp_path, capsys):
    config = write_config(tmp_path)
    _, a, _ = run(capsys, ["gradcheck", "--config", config, "--seed", "5"])
    _, b, _ = run(capsys, ["gradcheck", "--config", config, "--seed", "5"])
    assert a == b


# ---------------------------------------------------------------------------
# attmap


def test_attmap_tsv_rows_are_distributions(trained, tmp_path, capsys):
    out_dir = tmp_path / "maps"
    code, stdout, _ = run(capsys, [
        "attmap", "--model", trained["model"], "--input", trained["data"],
        "--format", "tsv", "--out", str(out_dir),
    ])
    assert code == 0
    written = json.loads(stdout)["written"]
    assert len(written) == 40
    for path in written[:5]:
        lines = open(path, encoding="utf-8").read().splitlines()
        header = lines[0].split("\t")
        for row in lines[1:]:
            cells = row.split("\t")
            assert len(cells) == len(header)
            weights = [float(c) for c in cells[1:]]
            assert abs(sum(weights) - 1.0) <= 1e-9


def test_attmap_single_token_pair_is_a_unit_cell(tmp_path, capsys):
    vocab = Vocabulary()
    vocab.add("hello")
    vocab.add("there")
    cfg = ModelConfig(variant="light", context_mode="single", d=4, seed=0)
    model = build_model(cfg, vocab, ["0", "1"])
    ckpt = tmp_path / "one.ckpt"
    save_checkpoint(str(ckpt), model, TrainConfig())
    inp = tmp_path / "one.jsonl"
    inp.write_text(json.dumps({"label": "0", "text": "hello", "contexts": ["there"]}) + "\n",
                   encoding="utf-8")
    out_dir = tmp_path / "maps"
    code, stdout, _ = run(capsys, [
        "attmap", "--model", str(ckpt), "--input", str(inp), "--out", str(out_dir),
    ])
    assert code == 0
    path = json.loads(stdout)["written"][0]
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0].split("\t") == ["", "there"]
    token, weight = lines[1].split("\t")
    assert token == "hello"
    assert float(weight) == 1.0


def test_attmap_svg_export(trained, tmp_path, capsys):
    out_dir = tmp_path / "svg"
    code, stdout, _ = run(capsys, [
        "attmap", "--model", trained["model"], "--input", trained["data"],
        "--format", "svg", "--out", str(out_dir),
    ])
    assert code == 0
    path = json.loads(stdout)["written"][0]
    content = open(path, encoding="utf-8").read()
    assert content.startswith("<svg ") and content.rstrip().endswith("</svg>")


def test_attmap_rejects_variants_without_attention(tmp_path, capsys):
    # refused before --out is made, as a refused example is
    vocab = Vocabulary()
    vocab.add("x")
    inp = tmp_path / "in.jsonl"
    inp.write_text(json.dumps({"label": "0", "text": "x"}) + "\n", encoding="utf-8")
    for variant in ("vanilla-cnn", "attentive-pooling"):
        cfg = ModelConfig(variant=variant, context_mode="intra", d=4, seed=0)
        ckpt = tmp_path / f"{variant}.ckpt"
        save_checkpoint(str(ckpt), build_model(cfg, vocab, ["0", "1"]), TrainConfig())
        out_dir = tmp_path / f"{variant}-out"
        code, stdout, err = run(capsys, [
            "attmap", "--model", str(ckpt), "--input", str(inp), "--out", str(out_dir),
        ])
        assert (code, stdout) == (2, "")
        assert len(err.splitlines()) == 1 and "no attention matrix" in err
        assert not out_dir.exists()


def test_attmap_intra_model_refuses_context_examples(tmp_path, capsys):
    vocab = Vocabulary()
    for t in ("x", "y"):
        vocab.add(t)
    cfg = ModelConfig(variant="light", context_mode="intra", d=4, seed=0)
    model = build_model(cfg, vocab, ["0", "1"])
    ckpt = tmp_path / "intra.ckpt"
    save_checkpoint(str(ckpt), model, TrainConfig())
    inp = tmp_path / "in.jsonl"
    inp.write_text(json.dumps({"label": "0", "text": "x", "contexts": ["y"]}) + "\n",
                   encoding="utf-8")
    code, _, err = run(capsys, [
        "attmap", "--model", str(ckpt), "--input", str(inp), "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "must not carry contexts" in err


def test_attmap_refused_input_writes_nothing(tmp_path, capsys):
    # the second example is refused, so not even the first one's file appears
    vocab = Vocabulary()
    for t in ("x", "y", "z"):
        vocab.add(t)
    model = build_model(ModelConfig(variant="light", context_mode="single", d=4, seed=0),
                        vocab, ["0", "1"])
    ckpt = tmp_path / "single.ckpt"
    save_checkpoint(str(ckpt), model, TrainConfig())
    inp = tmp_path / "in.jsonl"
    inp.write_text(json.dumps({"label": "0", "text": "x", "contexts": ["y"]}) + "\n"
                   + json.dumps({"label": "1", "text": "x", "contexts": ["y", "z"]}) + "\n",
                   encoding="utf-8")
    out_dir = tmp_path / "o"
    code, stdout, err = run(capsys, [
        "attmap", "--model", str(ckpt), "--input", str(inp), "--out", str(out_dir),
    ])
    assert (code, stdout) == (2, "")
    assert "exactly 1 context" in err
    assert not out_dir.exists()


def _attmap_headers(tmp_path, capsys, context_mode, contexts):
    """The TSV header rows attmap writes for one example with ``contexts``."""
    vocab = Vocabulary()
    for t in ("q", "a", "b", "c", SEP_TOKEN):
        vocab.add(t)
    model = build_model(ModelConfig(variant="light", context_mode=context_mode, d=4, seed=0),
                        vocab, ["0", "1"])
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(str(ckpt), model, TrainConfig())
    inp = tmp_path / "in.jsonl"
    inp.write_text(json.dumps({"label": "0", "text": "q a", "contexts": contexts}) + "\n",
                   encoding="utf-8")
    code, stdout, _ = run(capsys, [
        "attmap", "--model", str(ckpt), "--input", str(inp), "--out", str(tmp_path / "o"),
    ])
    assert code == 0
    written = json.loads(stdout)["written"]
    return [os.path.basename(path) for path in written], [
        open(path, encoding="utf-8").readline().rstrip("\n").split("\t")[1:]
        for path in written]


def test_attmap_multi_conc_header_is_the_joined_contexts(tmp_path, capsys):
    names, headers = _attmap_headers(tmp_path, capsys, "multi-conc", ["a b", "c"])
    assert names == ["ex0000_ctx0_layer0.tsv"]
    assert headers == [["a", "b", SEP_TOKEN, "c"]]


def test_attmap_multi_wise_writes_each_context_with_its_own_header(tmp_path, capsys):
    # the repeated context shares one map but still gets a file of its own
    names, headers = _attmap_headers(tmp_path, capsys, "multi-wise", ["a b", "c", "a b"])
    assert names == [f"ex0000_ctx{j}_layer0.tsv" for j in range(3)]
    assert headers == [["a", "b"], ["c"], ["a", "b"]]


def test_export_attention_refuses_an_unknown_format(tmp_path):
    vocab = Vocabulary()
    vocab.add("x")
    model = build_model(ModelConfig(variant="light", context_mode="intra", d=4, seed=0),
                        vocab, ["0", "1"])
    ds = Dataset(examples=[Example(["x", "x"], [], 0)], label_names=["0", "1"])
    with pytest.raises(errors.ConfigError, match="unknown attention export format 'png'"):
        export_attention(model, ds, "png", str(tmp_path / "o"))
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# params


def test_params_from_config_reports_totals(tmp_path, capsys):
    code, stdout, _ = run(capsys, ["params", "--config", write_config(tmp_path)])
    assert code == 0
    report = json.loads(stdout)
    assert report["total"] == sum(
        t["size"] for t in report["tensors"] if t["name"] != "embeddings"
    )
    assert report["total-with-embeddings"] > report["total"]
    assert "placeholder" in report["note"]


def test_params_light_vs_vanilla_delta_at_d300(tmp_path, capsys):
    light = write_config(tmp_path, "light300.json", d=300, **{"context-mode": "intra"})
    vanilla = write_config(tmp_path, "vanilla300.json", d=300,
                           variant="vanilla-cnn", **{"context-mode": "intra"})
    _, out1, _ = run(capsys, ["params", "--config", light])
    _, out2, _ = run(capsys, ["params", "--config", vanilla])
    assert json.loads(out1)["total"] - json.loads(out2)["total"] == 90_000


def test_params_from_checkpoint(trained, capsys):
    code, stdout, _ = run(capsys, ["params", "--model", trained["model"]])
    assert code == 0
    report = json.loads(stdout)
    assert "note" not in report
    names = [t["name"] for t in report["tensors"]]
    assert "embeddings" in names and "classifier.W" in names


def test_params_unallocatable_d_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, ["params", "--config", write_config(tmp_path, d=10**15)])
    assert code == 2
    assert "d=1000000000000000 with a vocabulary of 2 tokens" in err


@pytest.mark.parametrize("command", ["params", "gradcheck"])
def test_huge_num_classes_exits_2_before_naming_the_classes(tmp_path, capsys, command):
    config = write_config(tmp_path, **{"num-classes": 10**15})
    code, _, err = run(capsys, [command, "--config", config])
    assert code == 2
    assert "num-classes 1000000000000000" in err


def test_params_needs_exactly_one_source(capsys):
    with pytest.raises(SystemExit):
        main(["params"])
    capsys.readouterr()


# ---------------------------------------------------------------------------
# exit codes: every library error maps to a documented code


_LIBRARY_ERRORS = sorted(
    (e for e in vars(errors).values() if isinstance(e, type) and issubclass(e, errors.AttconvError)),
    key=lambda e: e.__name__,
)


@pytest.mark.parametrize("error", _LIBRARY_ERRORS, ids=lambda e: e.__name__)
def test_every_library_error_has_a_documented_exit_code(monkeypatch, capsys, error):
    def fail(args):
        raise error("injected failure")

    monkeypatch.setattr(cli, "cmd_params", fail)
    code, _, err = run(capsys, ["params", "--config", "unused.json"])
    assert code in (2, 3, 4)
    assert "injected failure" in err and "Traceback" not in err
