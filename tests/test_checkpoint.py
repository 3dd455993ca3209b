"""Checkpoint format: byte-stable round trips and corruption handling."""

import contextlib
import io
import json
import os
import re
import struct
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attconv import autodiff as ad
from attconv import data as data_module
from attconv import model as model_module
from attconv.attention import MATCH_METHODS
from attconv.checkpoint import FORMAT_VERSION, MAGIC, load_checkpoint, save_checkpoint
from attconv.cli import main
from attconv.data import Example, Vocabulary, gen_context_match
from attconv.errors import ConfigError, FormatError
from attconv.layers import SELF_MODES
from attconv.model import (CONTEXT_MODES, VARIANTS, ModelConfig, TrainConfig, build_model,
                           evaluate, forward, train)


def trained_model():
    data = gen_context_match(30, 5, 4, 15, seed=9)
    vocab = Vocabulary()
    for ex in data:
        for t in ex.text:
            vocab.add(t)
        for t in ex.contexts[0]:
            vocab.add(t)
    cfg = ModelConfig(variant="light", context_mode="single", d=5, seed=2)
    tcfg = TrainConfig(epochs=2, batch_size=10, learning_rate=0.05)
    model = build_model(cfg, vocab, data.label_names)
    train(model, data, tcfg)
    return model, tcfg, data


def test_round_trip_restores_everything(tmp_path):
    model, tcfg, data = trained_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), model, tcfg)
    loaded, loaded_tcfg = load_checkpoint(str(path))
    assert loaded.config == model.config
    assert loaded_tcfg == tcfg
    assert loaded.vocab.tokens == model.vocab.tokens
    assert loaded.label_names == model.label_names
    for name in model.params:
        assert np.array_equal(loaded.params[name].value, model.params[name].value), name
    # a restored model therefore scores a dataset identically
    assert evaluate(data, loaded).accuracy == evaluate(data, model).accuracy


def test_save_load_save_is_byte_identical(tmp_path):
    model, tcfg, _ = trained_model()
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    save_checkpoint(str(first), model, tcfg)
    loaded, loaded_tcfg = load_checkpoint(str(first))
    save_checkpoint(str(second), loaded, loaded_tcfg)
    assert first.read_bytes() == second.read_bytes()
    # and onto the file the model was loaded from, which the save replaces
    save_checkpoint(str(first), loaded, loaded_tcfg)
    assert first.read_bytes() == second.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["a.ckpt", "b.ckpt"]


def _not(default, values):
    return values.filter(lambda v: v != default)


@st.composite
def _saved_model(draw):
    """A drawn config and train config, a model built from it and one example
    its forward takes."""
    mode = draw(st.sampled_from(CONTEXT_MODES))
    config = ModelConfig(
        variant=draw(st.sampled_from(VARIANTS)), context_mode=mode, d=draw(st.integers(1, 4)),
        num_classes=draw(st.integers(2, 4)), match_method=draw(st.sampled_from(MATCH_METHODS)),
        self_mode=draw(st.sampled_from(SELF_MODES)), seed=draw(st.integers(0, 2**63)))
    train_config = TrainConfig(
        learning_rate=draw(_not(0.01, st.floats(1e-300, 1e300))),
        batch_size=draw(_not(50, st.integers(1, 10**6))),
        epochs=draw(_not(10, st.integers(1, 10**6))),
        adagrad_epsilon=draw(_not(1e-8, st.floats(1e-300, 1.0))),
        eval_every=draw(_not(1, st.integers(1, 10**6))))
    words = ["a", "b", "c", "</s>"]
    vocab = Vocabulary()
    for t in words:
        vocab.add(t)
    model = build_model(config, vocab, [f"k{i}" for i in range(config.num_classes)])
    seq = st.lists(st.sampled_from(words), min_size=1, max_size=4)
    n_ctx = {"intra": 0, "single": 1}.get(mode, draw(st.integers(1, 3)))
    example = Example(text=draw(seq) + ["a"], contexts=[draw(seq) for _ in range(n_ctx)],
                      label=0)
    return model, train_config, example


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("drawn")


@settings(max_examples=60, deadline=None)
@given(drawn=_saved_model())
def test_save_load_save_is_byte_identical_for_every_drawn_config(scratch_dir, drawn):
    # contract clause: save, load, save is byte-identical for the drawn
    # config. Comparison: bitwise, the two files, and the loaded model's
    # forward against the original's on a drawn example
    model, train_config, example = drawn
    first, second = scratch_dir / "first.ckpt", scratch_dir / "second.ckpt"
    save_checkpoint(str(first), model, train_config)
    loaded, loaded_train = load_checkpoint(str(first))
    assert loaded.config == model.config and loaded_train == train_config
    save_checkpoint(str(second), loaded, loaded_train)
    assert first.read_bytes() == second.read_bytes()
    assert forward(loaded, example).value.tobytes() == forward(model, example).value.tobytes()


def test_a_failed_save_keeps_the_previous_file_and_leaves_no_other(tmp_path):
    model, tcfg, _ = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), model, tcfg)
    before = path.read_bytes()
    # the last tensor cannot be converted to float64, so the save fails
    # after the header, the manifest and the other tensors are written
    last = list(model.params.values())[-1]
    last.value = np.full(last.value.shape, "x")
    with pytest.raises(ValueError, match="could not convert"):
        save_checkpoint(str(path), model, tcfg)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["m.ckpt"]


def test_a_saved_file_has_the_mode_a_plain_open_gives(tmp_path):
    model, tcfg, _ = trained_model()
    save_checkpoint(str(tmp_path / "m.ckpt"), model, tcfg)
    with open(tmp_path / "plain", "wb"):
        pass
    assert os.stat(tmp_path / "m.ckpt").st_mode == os.stat(tmp_path / "plain").st_mode


def test_loaded_model_trains_like_the_model_it_was_saved_from(tmp_path):
    # loaded tensors are writable views, so AdaGrad updates them in place
    model, tcfg, data = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), model, tcfg)
    loaded, _ = load_checkpoint(str(path))
    one_epoch = TrainConfig(epochs=1, batch_size=10, learning_rate=0.05)
    train(model, data, one_epoch)
    train(loaded, data, one_epoch)
    in_memory, reloaded = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(str(in_memory), model, one_epoch)
    save_checkpoint(str(reloaded), loaded, one_epoch)
    assert reloaded.read_bytes() == in_memory.read_bytes()
    assert reloaded.read_bytes() != path.read_bytes()


def test_load_builds_and_draws_nothing(tmp_path, monkeypatch):
    model, tcfg, _ = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), model, tcfg)

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint initialized a tensor")

    monkeypatch.setattr(model_module, "build_model", refuse)
    monkeypatch.setattr(model_module, "init_embeddings", refuse)
    monkeypatch.setattr(data_module, "init_embeddings", refuse)
    monkeypatch.setattr(ad, "glorot", refuse)
    loaded, _ = load_checkpoint(str(path))
    assert list(loaded.params) == list(model.params)
    for name in model.params:
        assert np.array_equal(loaded.params[name].value, model.params[name].value), name


def test_loaded_tensors_are_separate_writable_float64_arrays(tmp_path):
    # the tensors are views of one buffer: each must own its bytes alone
    model, tcfg, _ = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), model, tcfg)
    loaded, _ = load_checkpoint(str(path))
    values = {name: node.value for name, node in loaded.params.items()}
    for name, arr in values.items():
        assert arr.dtype == np.float64, name
        assert arr.flags.writeable and arr.flags.aligned and arr.flags.c_contiguous, name
    for name, arr in values.items():
        arr.fill(np.nan)
        for other, node in model.params.items():
            if other != name:
                assert values[other].tobytes() == node.value.tobytes(), (name, other)
        arr[...] = model.params[name].value


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_checkpoint_io_holds_no_second_copy_of_the_tensors(tmp_path):
    vocab = Vocabulary()
    for i in range(2000):
        vocab.add(f"w{i}")
    model = build_model(ModelConfig(variant="light", context_mode="single", d=64, seed=3),
                        vocab, ["0", "1"])
    tensor_bytes = sum(node.value.nbytes for node in model.params.values())
    path = str(tmp_path / "m.ckpt")
    # save writes each tensor from its own memory; load keeps one buffer
    assert _traced_peak(save_checkpoint, path, model, TrainConfig()) < 0.5 * tensor_bytes
    assert _traced_peak(load_checkpoint, path) < 1.5 * tensor_bytes


def test_file_that_ends_before_its_blob_is_a_format_error(tmp_path, monkeypatch):
    # the file shrank after its size was taken: one read cannot fill the buffer
    model, tcfg, _ = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), model, tcfg)
    size = path.stat().st_size
    monkeypatch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(st_size=size + 8))
    with pytest.raises(FormatError, match="ended before"):
        load_checkpoint(str(path))


def test_file_starts_with_magic(tmp_path):
    model, tcfg, _ = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), model, tcfg)
    assert path.read_bytes()[:8] == MAGIC


def test_bad_magic_is_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(FormatError, match="bad magic"):
        load_checkpoint(str(path))


def _rewrite_manifest(raw, mutate):
    """Apply ``mutate`` to the parsed manifest and rebuild the file bytes."""
    (mlen,) = struct.unpack("<Q", raw[8:16])
    manifest = json.loads(raw[16:16 + mlen].decode("utf-8"))
    mutate(manifest)
    blob = raw[16 + mlen:]
    out = json.dumps(manifest, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    return MAGIC + struct.pack("<Q", len(out)) + out + blob


def test_version_mismatch_names_both_versions(tmp_path):
    model, tcfg, _ = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), model, tcfg)

    def bump(manifest):
        manifest["format-version"] = FORMAT_VERSION + 1

    path.write_bytes(_rewrite_manifest(path.read_bytes(), bump))
    with pytest.raises(ConfigError) as err:
        load_checkpoint(str(path))
    assert str(FORMAT_VERSION + 1) in str(err.value)
    assert str(FORMAT_VERSION) in str(err.value)


def test_corrupt_manifest_is_a_format_error(tmp_path):
    model, tcfg, _ = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), model, tcfg)
    raw = bytearray(path.read_bytes())
    raw[20] = 0xFF  # stomp on the JSON
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="corrupt manifest"):
        load_checkpoint(str(path))


def test_missing_tensor_entry_is_detected(tmp_path):
    model, tcfg, _ = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), model, tcfg)

    def drop_one(manifest):
        del manifest["tensors"]["classifier.b"]

    path.write_bytes(_rewrite_manifest(path.read_bytes(), drop_one))
    with pytest.raises(FormatError, match="tensor directory"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("edit", [
    lambda vocab: vocab.reverse(),  # <pad> and <unk> no longer first
    lambda vocab: vocab.pop(1),  # no <unk>
    lambda vocab: vocab.append(vocab[2]),  # a token listed twice
], ids=["reordered", "no-unk", "duplicate"])
def test_vocab_must_begin_with_the_reserved_tokens_and_list_each_once(tmp_path, edit):
    # encoding relies on <pad> holding id 0, <unk> id 1 and no other token either
    model, tcfg, _ = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), model, tcfg)
    path.write_bytes(_rewrite_manifest(path.read_bytes(), lambda m: edit(m["vocab"])))
    with pytest.raises(FormatError, match="vocab"):
        load_checkpoint(str(path))


def test_a_label_named_twice_is_a_config_error(tmp_path):
    model, tcfg, _ = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), model, tcfg)

    def repeat_first(manifest):
        manifest["labels"] = [manifest["labels"][0]] * len(manifest["labels"])

    path.write_bytes(_rewrite_manifest(path.read_bytes(), repeat_first))
    with pytest.raises(ConfigError, match="names class .* twice"):
        load_checkpoint(str(path))


def test_shape_mismatch_names_the_tensor(tmp_path):
    model, tcfg, _ = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), model, tcfg)

    def stretch(manifest):
        manifest["tensors"]["classifier.W"]["shape"] = [2, 999]

    path.write_bytes(_rewrite_manifest(path.read_bytes(), stretch))
    with pytest.raises(FormatError, match="classifier.W"):
        load_checkpoint(str(path))


def test_oversized_d_is_rejected_before_building(tmp_path):
    model, tcfg, _ = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), model, tcfg)

    def inflate(manifest):
        manifest["model-config"]["d"] = 10**15  # a table no machine could allocate

    path.write_bytes(_rewrite_manifest(path.read_bytes(), inflate))
    with pytest.raises(FormatError, match="tensor embeddings has shape"):
        load_checkpoint(str(path))


# ---------------------------------------------------------------------------
# malformed files through `attconv params --model`: exit 3 for a data error,
# 2 for a version or config mismatch, never a traceback


def _params_exit_code(path) -> int:
    """Exit code of the command; an uncaught exception fails the test."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["params", "--model", str(path)])


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """A d=2 checkpoint and a scratch path to write corrupted copies to."""
    vocab = Vocabulary()
    for t in ("a", "b", "c"):
        vocab.add(t)
    model = build_model(ModelConfig(variant="light", context_mode="single", d=2, seed=1),
                        vocab, ["0", "1"])
    workdir = tmp_path_factory.mktemp("fuzz")
    path = workdir / "tiny.ckpt"
    save_checkpoint(str(path), model, TrainConfig())
    assert _params_exit_code(path) == 0
    return path.read_bytes(), workdir / "bad.ckpt"


def test_truncation_at_every_byte_is_a_data_error(tiny_checkpoint):
    raw, bad = tiny_checkpoint
    for n in range(len(raw)):
        bad.write_bytes(raw[:n])
        assert _params_exit_code(bad) == 3, n


@pytest.mark.parametrize("moves, name", [
    (lambda at: {"classifier.W": at["net.conv.W2"]}, "classifier.W"),
    (lambda at: {"net.conv.W2": at["net.conv.W2"] + 4}, "net.conv.W2"),
    # the two 2 x 2 tensors of the d=2 model trade places
    (lambda at: {"net.conv.W2": at["classifier.W"], "classifier.W": at["net.conv.W2"]},
     "net.conv.W2"),
], ids=["shared", "shifted", "swapped"])
def test_offset_off_the_saved_layout_names_the_tensor(tiny_checkpoint, moves, name):
    # views of one buffer may not overlap, so only the saved layout loads
    raw, bad = tiny_checkpoint

    def move(manifest):
        tensors = manifest["tensors"]
        for moved, offset in moves({n: e["offset"] for n, e in tensors.items()}).items():
            tensors[moved]["offset"] = offset

    bad.write_bytes(_rewrite_manifest(raw, move))
    with pytest.raises(FormatError, match=re.escape(f"tensor {name} starts at byte")):
        load_checkpoint(str(bad))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["params", "--model", str(bad)]) == 3
    assert len(err.getvalue().splitlines()) == 1


@pytest.mark.parametrize("extra", [1, 8, 4096])
def test_bytes_after_the_last_tensor_are_a_data_error(tiny_checkpoint, extra):
    # a loaded model re-saves byte for byte, so a file that holds more than
    # its tensors does not load
    raw, bad = tiny_checkpoint
    bad.write_bytes(raw + b"\x00" * extra)
    with pytest.raises(FormatError, match=f"{extra} bytes trail"):
        load_checkpoint(str(bad))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["params", "--model", str(bad)]) == 3
    assert len(err.getvalue().splitlines()) == 1


def test_a_long_trailing_tail_is_refused_without_being_read(tiny_checkpoint):
    # a sparse 64 MiB tail: loading reads at most one byte past the tensors,
    # so its peak is the tensors plus 1 MiB of slack for the manifest and
    # the objects around it, whatever the tail's length
    raw, bad = tiny_checkpoint
    bad.write_bytes(raw)
    model, _ = load_checkpoint(str(bad))
    tensor_bytes = sum(node.value.nbytes for node in model.params.values())
    tail = 64 << 20
    with open(bad, "r+b") as fh:
        fh.truncate(len(raw) + tail)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=f"{tail} bytes trail the tensor blob"):
            load_checkpoint(str(bad))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tensor_bytes + (1 << 20)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["params", "--model", str(bad)]) == 3
    assert len(err.getvalue().splitlines()) == 1


@pytest.mark.parametrize("name, key, spell", [
    ("embeddings", "offset", lambda v: False),  # 0
    ("classifier.W", "offset", float),
    ("embeddings", 0, float),
    ("embeddings", 1, lambda v: True),  # 1, as d=1
], ids=["offset-false", "offset-float", "shape-float", "shape-true"])
def test_a_directory_number_spelled_otherwise_is_refused(tmp_path, name, key, spell):
    # in Python True == 1 and 5.0 == 5, but save spells every number as an int
    vocab = Vocabulary()
    vocab.add("a")
    model = build_model(ModelConfig(variant="light", context_mode="single", d=1, seed=1),
                        vocab, ["0", "1"])
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), model, TrainConfig())

    def respell(manifest):
        entry = manifest["tensors"][name]
        if key == "offset":
            entry["offset"] = spell(entry["offset"])
        else:
            entry["shape"][key] = spell(entry["shape"][key])

    path.write_bytes(_rewrite_manifest(path.read_bytes(), respell))
    what = "starts at byte" if key == "offset" else "has shape"
    with pytest.raises(FormatError, match=f"tensor {name} {what}"):
        load_checkpoint(str(path))


def test_a_directory_entry_with_another_key_is_refused(tiny_checkpoint):
    raw, bad = tiny_checkpoint
    bad.write_bytes(_rewrite_manifest(
        raw, lambda manifest: manifest["tensors"]["net.conv.b"].update(dtype="<f8")))
    with pytest.raises(FormatError, match="tensor net.conv.b has a malformed directory entry"):
        load_checkpoint(str(bad))


@pytest.mark.parametrize("manifest", [[], "x", 1, None])
def test_a_manifest_that_is_not_an_object_exits_3(tmp_path, manifest):
    text = json.dumps(manifest).encode("utf-8")
    path = tmp_path / "m.ckpt"
    path.write_bytes(MAGIC + struct.pack("<Q", len(text)) + text)
    with pytest.raises(FormatError, match="manifest must be a JSON object"):
        load_checkpoint(str(path))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["params", "--model", str(path)]) == 3
    assert len(err.getvalue().splitlines()) == 1


def _manifest_of(raw):
    (mlen,) = struct.unpack("<Q", raw[8:16])
    return json.loads(raw[16:16 + mlen].decode("utf-8"))


def _field_paths(manifest):
    """Key/index paths to every manifest field, and whether deleting it is
    an error (a config key may be left out and take its default)."""
    paths = [((key,), True) for key in manifest]
    for section in ("model-config", "train-config"):
        paths += [((section, key), False) for key in manifest[section]]
    for key in ("vocab", "labels"):
        paths += [((key, i), True) for i in range(len(manifest[key]))]
    for name, entry in manifest["tensors"].items():
        paths += [(("tensors", name), True)]
        paths += [(("tensors", name, key), True) for key in entry]
        paths += [(("tensors", name, "shape", i), True) for i in range(len(entry["shape"]))]
    return paths


def _kind(value):
    """JSON kinds as the loader sees them: an int is also a valid float."""
    if isinstance(value, bool):
        return bool
    return float if isinstance(value, (int, float)) else type(value)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_corrupted_manifest_fields_exit_2_or_3(tiny_checkpoint, data):
    raw, bad = tiny_checkpoint
    path, deletable = data.draw(st.sampled_from(_field_paths(_manifest_of(raw))))
    delete = deletable and data.draw(st.booleans())

    def corrupt(manifest):
        parent = manifest
        for key in path[:-1]:
            parent = parent[key]
        if delete:
            del parent[path[-1]]
        else:
            old = parent[path[-1]]
            parent[path[-1]] = data.draw(_JSON.filter(lambda v: _kind(v) != _kind(old)))

    bad.write_bytes(_rewrite_manifest(raw, corrupt))
    assert _params_exit_code(bad) in (2, 3)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_flipped_header_or_manifest_byte_never_crashes(tiny_checkpoint, data):
    raw, bad = tiny_checkpoint
    end = 16 + struct.unpack("<Q", raw[8:16])[0]
    at = data.draw(st.integers(0, end - 1))
    flipped = bytearray(raw)
    flipped[at] ^= data.draw(st.integers(1, 255))
    bad.write_bytes(bytes(flipped))
    assert _params_exit_code(bad) in (0, 2, 3)


# ---------------------------------------------------------------------------
# names that only older versions wrote: the `no-context` alias of vanilla-cnn
# and the one-valued `filter-width`; a stored config is read as a config
# file is, so both are configuration errors


@pytest.mark.parametrize("model_edit, train_edit", [
    ({"variant": "no-context"}, {}),
    *(({}, {"filter-width": width}) for width in (3, 5, 3.0, True, "3")),
])
def test_legacy_names_in_a_checkpoint_exit_2(tmp_path, model_edit, train_edit):
    vocab = Vocabulary()
    for t in ("a", "b", "c", "d"):
        vocab.add(t)
    model = build_model(ModelConfig(variant="vanilla-cnn", context_mode="single", d=3, seed=4),
                        vocab, ["0", "1"])
    path = tmp_path / "legacy.ckpt"
    save_checkpoint(str(path), model, TrainConfig(epochs=2))

    def age(manifest):
        manifest["model-config"].update(model_edit)
        manifest["train-config"].update(train_edit)

    path.write_bytes(_rewrite_manifest(path.read_bytes(), age))
    with pytest.raises(ConfigError):
        load_checkpoint(str(path))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["params", "--model", str(path)]) == 2
    assert len(err.getvalue().splitlines()) == 1
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("legacy", [{"variant": "no-context"}, {"filter-width": 3}])
def test_legacy_names_in_a_config_file_exit_2(tmp_path, legacy):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"d": 4, **legacy}))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["params", "--config", str(path)]) == 2
