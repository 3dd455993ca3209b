"""Single-file binary checkpoints.

Layout: the 8-byte magic ``ATTCONV1``, an 8-byte little-endian manifest
length, the UTF-8 JSON manifest, then one little-endian float64 blob per
tensor in manifest order, each starting where the one before it ends. The
manifest records the format version, both configs, the vocabulary token
list, the label order, and a tensor directory of shapes and byte offsets.
Loading reads the tensor blobs once into one buffer and hands out views of
it. Save, load, save again reproduces the file byte for byte. A save
replaces the file atomically.
"""

from __future__ import annotations

import json
import math
import os
import struct
from itertools import repeat

import numpy as np

from . import autodiff as ad
from .data import PAD_TOKEN, UNK_TOKEN, Vocabulary
from .errors import ConfigError, FormatError
from .model import Model, ModelConfig, TrainConfig, check_labels, param_shapes

MAGIC = b"ATTCONV1"
FORMAT_VERSION = 1
_HEADER_BYTES = len(MAGIC) + 8
_MANIFEST_KEYS = ("model-config", "train-config", "vocab", "labels", "tensors")


def _directory(shapes: dict) -> tuple[dict, int]:
    """The tensor directory for tensors of these shapes, and the blob's length:
    the tensors in ``shapes`` order, 8 bytes a value, each starting where the
    one before it ends. Save writes this layout and load accepts only it."""
    directory, offset = {}, 0
    for name, shape in shapes.items():
        directory[name] = {"shape": list(shape), "offset": offset}
        offset += 8 * math.prod(shape)
    return directory, offset


def _manifest(model: Model, train_config: TrainConfig) -> dict:
    tensors, _ = _directory({name: node.value.shape for name, node in model.params.items()})
    return {
        "format-version": FORMAT_VERSION,
        "model-config": model.config.to_json(),
        "train-config": train_config.to_json(),
        "vocab": list(model.vocab.tokens),
        "labels": list(model.label_names),
        "tensors": tensors,
    }


def save_checkpoint(path: str, model: Model, train_config: TrainConfig) -> None:
    """Write the file under a new name next to ``path``, then move it onto
    ``path``: a save that fails removes its own file and leaves any earlier
    checkpoint at ``path`` as it was."""
    manifest = json.dumps(_manifest(model, train_config),
                          ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "xb")  # "x": never another file; the mode a plain open gives
    try:
        with fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(manifest)))
            fh.write(manifest)
            for node in model.params.values():
                fh.write(np.ascontiguousarray(node.value, dtype="<f8").data)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _check_layout(path: str, manifest: dict) -> Vocabulary:
    """Reject missing or wrongly typed manifest fields; returns the vocabulary."""
    missing = [key for key in _MANIFEST_KEYS if key not in manifest]
    if missing:
        raise FormatError(f"{path}: manifest lacks {missing}")
    for key in ("model-config", "train-config", "tensors"):
        if not isinstance(manifest[key], dict):
            raise FormatError(f"{path}: manifest {key} must be an object")
    for key in ("vocab", "labels"):
        if not isinstance(manifest[key], list) or not all(
                map(isinstance, manifest[key], repeat(str))):
            raise FormatError(f"{path}: manifest {key} must be a list of strings")
    vocab = Vocabulary(tokens=manifest["vocab"])
    if vocab.tokens[:2] != [PAD_TOKEN, UNK_TOKEN] or len(vocab.index) != len(vocab):
        raise FormatError(f"{path}: manifest vocab must begin with {PAD_TOKEN} and "
                          f"{UNK_TOKEN} and hold each token once")
    return vocab


def load_checkpoint(path: str) -> tuple[Model, TrainConfig]:
    """Rebuild a model from a checkpoint file.

    The layout is checked before any tensor is read: a malformed file raises
    FormatError. The stored directory must be exactly the one saving writes
    for ``param_shapes`` of the stored config, every entry spelled the same
    (``5.0`` or ``true`` is not ``5`` or ``1``), and the file must end where
    the last tensor ends; at most one byte past the tensors is read to see
    that more follow. The tensor blobs are then read once into one buffer,
    and each tensor is a writable view of its own bytes there, so nothing
    is initialized, drawn or copied again. Version mismatches name
    both versions in the error, and a stored config that a config file
    could not hold (an unknown key or value) is a ConfigError.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER_BYTES)
        if header[: len(MAGIC)] != MAGIC:
            raise FormatError(f"{path}: not an attconv checkpoint (bad magic)")
        if len(header) < _HEADER_BYTES:
            raise FormatError(f"{path}: truncated header ({len(header)} bytes)")
        (mlen,) = struct.unpack("<Q", header[len(MAGIC):])
        size = os.fstat(fh.fileno()).st_size
        if mlen > size - _HEADER_BYTES:
            raise FormatError(f"{path}: manifest length {mlen} exceeds the {size}-byte file")
        try:
            manifest = json.loads(fh.read(mlen).decode("utf-8"))
        # ValueError covers bad UTF-8, bad JSON and an integer past Python's digit limit
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{path}: corrupt manifest ({exc})") from None
        if not isinstance(manifest, dict):
            raise FormatError(f"{path}: manifest must be a JSON object")
        version = manifest.get("format-version")
        if version != FORMAT_VERSION or isinstance(version, bool):
            raise ConfigError(
                f"{path}: checkpoint format version {version} is not the supported {FORMAT_VERSION}"
            )
        vocab = _check_layout(path, manifest)
        config = ModelConfig.from_json(manifest["model-config"])
        train_config = TrainConfig.from_json(manifest["train-config"])
        labels = list(manifest["labels"])
        check_labels(config, labels)
        directory, nbytes = _directory(param_shapes(config, len(vocab)))
        if manifest["tensors"].keys() != directory.keys():
            raise FormatError(f"{path}: tensor directory does not match the architecture")
        for name, want in directory.items():
            entry = manifest["tensors"][name]
            if not isinstance(entry, dict) or entry.keys() != want.keys():
                raise FormatError(f"{path}: tensor {name} has a malformed directory entry")
            shape, offset = entry["shape"], entry["offset"]
            if shape != want["shape"] or not all(type(n) is int for n in shape):
                raise FormatError(f"{path}: tensor {name} has shape {json.dumps(shape)}, "
                                  f"expected {want['shape']}")
            if offset != want["offset"] or type(offset) is not int:
                raise FormatError(f"{path}: tensor {name} starts at byte {json.dumps(offset)}, "
                                  f"not at {want['offset']} where the tensors before it end")
        stored = size - _HEADER_BYTES - mlen
        # one byte past the tensors shows that more follow, without reading them
        blob = np.empty(min(stored, nbytes + 1), dtype=np.uint8)
        if fh.readinto(blob) != blob.size or blob.size < nbytes:
            raise FormatError(f"{path}: file ended before its {nbytes}-byte tensor blob")
        if blob.size > nbytes:
            raise FormatError(f"{path}: {stored - nbytes} bytes trail the tensor blob")
    values = blob.view("<f8")
    params = {}
    for name, entry in directory.items():
        start, shape = entry["offset"] // 8, entry["shape"]
        params[name] = ad.param(values[start:start + math.prod(shape)].reshape(shape), name)
    return Model(config=config, vocab=vocab, label_names=labels, params=params), train_config
