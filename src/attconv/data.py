"""Text pipeline: vocabulary, embeddings, dataset loading, batching.

Datasets are JSON Lines files. Each record holds a ``label`` string, a
``text`` string, and an optional ``contexts`` list of strings; a value of
any other JSON type is a FormatError. Tokenization is lowercase whitespace
splitting throughout.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import AttconvError, ConfigError, ContractError, FormatError

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
SEP_TOKEN = "</s>"
PAD_ID = 0
UNK_ID = 1

# independent substreams of the run seed
_EMBED_STREAM = 0
# rows per uniform draw in init_embeddings: one draw for a whole 16k x 300
# table would hold a second table-sized array while it is scattered
_DRAW_ROWS = 1024


def tokenize(text: str) -> list[str]:
    return text.lower().split()


@dataclass
class Vocabulary:
    """Token/id bijection with PAD pinned to 0 and UNK pinned to 1."""

    tokens: list[str] = field(default_factory=lambda: [PAD_TOKEN, UNK_TOKEN])
    index: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.index:
            self.index = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def add(self, token: str) -> int:
        """Add a token if new; reserved surface forms are never added."""
        if token in (PAD_TOKEN, UNK_TOKEN):
            return UNK_ID
        got = self.index.get(token)
        if got is None:
            got = len(self.tokens)
            self.tokens.append(token)
            self.index[token] = got
        return got

    def encode(self, tokens: list[str]) -> list[int]:
        """Map tokens to ids; unknown tokens and reserved forms become UNK.

        One lookup per token: ``<unk>`` is UNK already, and ``<pad>`` holds
        the one falsy id, PAD's 0, which ``or`` turns into UNK.
        """
        get = self.index.get
        return [get(t, UNK_ID) or UNK_ID for t in tokens]

    def copy(self) -> "Vocabulary":
        return Vocabulary(tokens=list(self.tokens), index=dict(self.index))


@dataclass
class Example:
    text: list[str]
    contexts: list[list[str]]
    label: int


@dataclass
class Dataset:
    examples: list[Example]
    label_names: list[str]

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)


@contextmanager
def utf8_text(path: str, error: type[AttconvError] = FormatError):
    """Open a config, dataset or vectors file for reading, dropping a leading
    byte-order mark; bytes that do not decode raise ``error``."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise error(f"{path}: not UTF-8 text") from None


def parse_json(text: str, where: str, error: type[AttconvError]):
    """Decode one JSON value; bad JSON, nesting past the recursion limit and
    integers past the digit limit raise ``error`` naming ``where``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where}: invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise error(f"{where}: JSON nested too deeply") from None
    except ValueError as exc:  # an integer past Python's digit limit
        raise error(f"{where}: invalid JSON ({exc})") from None


def _ascii_number(field: str) -> bool:
    """Whether a field may hold a number in a vectors file: ``int`` and
    ``float`` also read ``1_0`` and non-ASCII digits, which no vectors
    format writes."""
    return field.isascii() and "_" not in field


def load_pretrained(path: str, expected_dim: int) -> tuple[Vocabulary, np.ndarray]:
    """Read word vectors in the text format ``token v1 ... vd``.

    An optional first line holding exactly two integers (count and dim) is
    detected and skipped. Every data line must carry exactly
    ``expected_dim`` finite values, spelled in ASCII without underscores;
    violations raise FormatError with the line number. This holds for the
    lines of the reserved tokens and of repeated tokens too, which are
    checked and then skipped, so a repeated token keeps its first vector.
    Returns a vocabulary of the file's tokens (after PAD and UNK) plus a
    V x d float64 matrix whose PAD and UNK rows are zero; randomized UNK/OOV
    rows are filled in later, under the run seed, by ``init_embeddings``.
    The matrix is allocated once, after every line is checked; an
    ``expected_dim`` too large to allocate is a ConfigError.
    """
    vocab = Vocabulary()
    rows = []
    with utf8_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.rstrip("\n").split()
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2 and all(map(_ascii_number, parts)):
                try:
                    int(parts[0]), int(parts[1])
                    continue  # header line
                except ValueError:
                    pass
            token, values = parts[0], parts[1:]
            if len(values) != expected_dim:
                raise FormatError(
                    f"{path}: line {lineno}: expected {expected_dim} values, got {len(values)}"
                )
            bad = next((v for v in values if not _ascii_number(v)), None)
            if bad is not None:
                raise FormatError(f"{path}: line {lineno}: bad float ({bad!r} is not "
                                  f"an ASCII decimal number)")
            try:
                vec = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError as exc:
                raise FormatError(f"{path}: line {lineno}: bad float ({exc})") from None
            if not np.isfinite(vec).all():
                raise FormatError(f"{path}: line {lineno}: non-finite value")
            if token in (PAD_TOKEN, UNK_TOKEN) or token in vocab:
                continue
            vocab.add(token)
            rows.append(vec)
    try:
        table = np.zeros((len(vocab), expected_dim))
    except MemoryError:
        raise ConfigError(f"d={expected_dim} does not fit in memory") from None
    for i, vec in enumerate(rows, start=UNK_ID + 1):
        table[i] = vec
    return vocab, table


def build_vocab(examples: list[Example], pretrained: Vocabulary | None = None,
                extra_tokens: tuple[str, ...] = ()) -> Vocabulary:
    """Collect corpus tokens in first-appearance order.

    Starts from the pretrained vocabulary when given, so file tokens keep
    their ids and corpus-only tokens are appended after them.
    """
    if not examples:
        raise ContractError("build_vocab: empty corpus")
    vocab = pretrained.copy() if pretrained is not None else Vocabulary()
    for tok in extra_tokens:
        vocab.add(tok)
    for ex in examples:
        for tok in ex.text:
            vocab.add(tok)
        for ctx in ex.contexts:
            for tok in ctx:
                vocab.add(tok)
    return vocab


def init_embeddings(vocab: Vocabulary, dim: int, seed: int,
                    pretrained: tuple[Vocabulary, np.ndarray] | None = None) -> np.ndarray:
    """Build the V x d embedding table for a run.

    Tokens found in the pretrained file keep their vectors bit for bit.
    Everything else (UNK included) draws i.i.d. uniform [-0.25, 0.25]
    components from the run seed, in ascending id order, so two runs with
    the same seed produce identical tables. The PAD row is zero.
    """
    rng = np.random.default_rng([seed, _EMBED_STREAM])
    table = np.zeros((len(vocab), dim), dtype=np.float64)
    pvocab, pmat = pretrained if pretrained is not None else (Vocabulary(), None)
    src = np.array([pvocab.index.get(tok, PAD_ID) for tok in vocab.tokens], dtype=np.int64)
    copied = src > UNK_ID
    if copied.any():
        if pmat.shape[1] != dim:
            raise ContractError(
                f"init_embeddings: pretrained dim {pmat.shape[1]} does not match {dim}"
            )
        table[copied] = pmat[src[copied]]
    # consecutive draws continue one stream, so blocks of rows in ascending
    # id order get the bits that one draw per row gives them
    ids = np.flatnonzero(~copied & (np.arange(len(vocab)) != PAD_ID))
    for lo in range(0, len(ids), _DRAW_ROWS):
        block = ids[lo:lo + _DRAW_ROWS]
        table[block] = rng.uniform(-0.25, 0.25, size=(len(block), dim))
    return table


def load_jsonl(path: str, label_names: list[str] | None = None) -> Dataset:
    """Load a JSONL dataset; labels get contiguous ids in appearance order.

    Given ``label_names`` (a model's class order), each label gets its index
    there instead; the first label missing from it is a ConfigError, raised
    after the whole file is read so that a malformed line is reported first.
    """
    examples: list[Example] = []
    names = list(label_names or ())
    label_ids = {name: k for k, name in enumerate(names)}
    unknown = None
    with utf8_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            rec = parse_json(line, f"{path}: line {lineno}", FormatError)
            if not isinstance(rec, dict):
                raise FormatError(f"{path}: line {lineno}: record must be an object")
            for key in ("text", "label"):
                if key not in rec:
                    raise FormatError(f"{path}: line {lineno}: missing {key!r}")
                if not isinstance(rec[key], str):
                    raise FormatError(f"{path}: line {lineno}: {key!r} must be a string")
            text = tokenize(rec["text"])
            if not text:
                raise FormatError(f"{path}: line {lineno}: empty text")
            raw_ctx = rec.get("contexts", [])
            if not isinstance(raw_ctx, list):
                raise FormatError(f"{path}: line {lineno}: 'contexts' must be a list")
            contexts = []
            for k, c in enumerate(raw_ctx):
                if not isinstance(c, str):
                    raise FormatError(f"{path}: line {lineno}: context {k} must be a string")
                toks = tokenize(c)
                if not toks:
                    raise FormatError(f"{path}: line {lineno}: context {k} is empty")
                contexts.append(toks)
            name = rec["label"]
            label = label_ids.get(name)
            if label is None and label_names is None:
                label = label_ids[name] = len(names)
                names.append(name)
            elif label is None and unknown is None:
                unknown = name
            examples.append(Example(text=text, contexts=contexts, label=label))
    if unknown is not None:
        raise ConfigError(f"{path}: label {unknown!r} is not among the model's classes {names}")
    return Dataset(examples=examples, label_names=names)


def save_jsonl(dataset: Dataset, path: str) -> None:
    """Write a dataset back out in the JSONL input format."""
    with open(path, "w", encoding="utf-8") as fh:
        for ex in dataset.examples:
            rec = {
                "label": dataset.label_names[ex.label],
                "text": " ".join(ex.text),
            }
            if ex.contexts:
                rec["contexts"] = [" ".join(c) for c in ex.contexts]
            fh.write(json.dumps(rec) + "\n")


EncodedExample = tuple[list[int], list[list[int]], int]  # (text_ids, ctx_ids, label)


def make_batches(examples: list[Example], batch_size: int, seed,
                 vocab: Vocabulary) -> list[list[EncodedExample]]:
    """Shuffle under ``seed`` and chunk into batches of encoded examples.

    ``seed`` may be an int or a sequence of ints (numpy Generator entropy).
    Every example lands in exactly one batch; only the final batch may be
    short.
    """
    if batch_size < 1:
        raise ContractError("make_batches: batch_size must be at least 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(examples))
    batches = []
    for lo in range(0, len(examples), batch_size):
        chunk = [examples[i] for i in order[lo:lo + batch_size]]
        batches.append([
            (vocab.encode(ex.text), [vocab.encode(c) for c in ex.contexts], ex.label)
            for ex in chunk
        ])
    return batches


def gen_nonlocal_match(n_examples: int, seq_len: int, vocab_size: int, seed: int) -> Dataset:
    """Synthetic single-sentence task that defeats width-3 convolution.

    Position 0 carries a marker token, the last position a probe token, and
    the label is 1 iff they are equal. The marker/probe pair is always more
    than two positions apart, so no width-3 window ever sees both.

    The intervening distractors are random filler tokens plus two planted
    marker-alphabet tokens at random interior positions (at least three away
    from either end): one echo of the marker, and one balancing token that is
    a fresh marker for positives but a copy of the probe for negatives. The
    plants make the per-token presence profile identical across classes
    (both carry one marker-alphabet token that appears twice and one that
    appears once, with matching position-role patterns), so a model whose
    pooled features only record which tokens occur where gets no signal and
    the label is only recoverable by comparing the two ends.

    Exactly half the examples (rounding down) are positive, shuffled under
    the seed, so the label balance is deterministic.
    """
    if seq_len < 8:
        raise ContractError("gen_nonlocal_match: seq_len must be at least 8")
    if vocab_size < 10:
        raise ContractError("gen_nonlocal_match: vocab_size must be at least 10")
    if n_examples < 2:
        raise ContractError("gen_nonlocal_match: need at least 2 examples")
    n_markers = max(2, 2 * vocab_size // 5)
    markers = [f"m{i}" for i in range(n_markers)]
    fillers = [f"w{i}" for i in range(vocab_size - n_markers)]
    rng = np.random.default_rng(seed)
    labels = np.zeros(n_examples, dtype=np.int64)
    labels[: n_examples // 2] = 1
    rng.shuffle(labels)
    examples = []
    for lab in labels:
        mi = int(rng.integers(n_markers))
        marker = markers[mi]
        other = markers[(mi + 1 + int(rng.integers(n_markers - 1))) % n_markers]
        if lab == 1:
            probe, balance = marker, other
        else:
            probe, balance = other, other
        middle = [fillers[int(k)] for k in rng.integers(len(fillers), size=seq_len - 2)]
        slots = rng.choice(np.arange(3, seq_len - 3), size=2, replace=False)
        middle[int(slots[0]) - 1] = marker
        middle[int(slots[1]) - 1] = balance
        examples.append(Example(text=[marker] + middle + [probe], contexts=[], label=int(lab)))
    return Dataset(examples=examples, label_names=["0", "1"])


def gen_context_match(n_examples: int, text_len: int, ctx_len: int,
                      vocab_size: int, seed: int) -> Dataset:
    """Synthetic pair task whose label is unrecoverable from the text alone.

    The text carries one query token from a small query alphabet among text
    fillers; the context carries exactly one query-alphabet token (the
    answer) among context fillers. Label 1 iff answer equals query. The two
    filler alphabets are disjoint, so the query/answer pair is the only
    token that can ever match across the sentence boundary; the text side
    on its own is label-independent by construction. Balanced the same way
    as gen_nonlocal_match.
    """
    if text_len < 2 or ctx_len < 2:
        raise ContractError("gen_context_match: text_len and ctx_len must be at least 2")
    if vocab_size < 6:
        raise ContractError("gen_context_match: vocab_size must be at least 6")
    n_query = max(2, vocab_size // 5)
    rest = vocab_size - n_query
    queries = [f"q{i}" for i in range(n_query)]
    text_fillers = [f"t{i}" for i in range(rest // 2)]
    ctx_fillers = [f"c{i}" for i in range(rest - rest // 2)]
    rng = np.random.default_rng(seed)
    labels = np.zeros(n_examples, dtype=np.int64)
    labels[: n_examples // 2] = 1
    rng.shuffle(labels)
    examples = []
    for lab in labels:
        qi = int(rng.integers(n_query))
        query = queries[qi]
        if lab == 1:
            answer = query
        else:
            answer = queries[(qi + 1 + int(rng.integers(n_query - 1))) % n_query]
        text = [text_fillers[int(k)] for k in rng.integers(len(text_fillers), size=text_len)]
        text[int(rng.integers(text_len))] = query
        ctx = [ctx_fillers[int(k)] for k in rng.integers(len(ctx_fillers), size=ctx_len)]
        ctx[int(rng.integers(ctx_len))] = answer
        examples.append(Example(text=text, contexts=[ctx], label=int(lab)))
    return Dataset(examples=examples, label_names=["0", "1"])
