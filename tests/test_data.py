"""Vocabulary, embedding loader, JSONL datasets, batching, synthetic generators."""

import json

import numpy as np
import pytest

from attconv import autodiff as ad
from attconv.data import (
    PAD_ID,
    PAD_TOKEN,
    SEP_TOKEN,
    UNK_ID,
    UNK_TOKEN,
    Example,
    Vocabulary,
    build_vocab,
    gen_context_match,
    gen_nonlocal_match,
    init_embeddings,
    load_jsonl,
    load_pretrained,
    make_batches,
    save_jsonl,
    tokenize,
)
from attconv.errors import ConfigError, ContractError, FormatError


def test_tokenize_lowercases_and_splits():
    assert tokenize("Good  Food\tTonight") == ["good", "food", "tonight"]
    assert tokenize("") == []


# ---------------------------------------------------------------------------
# vocabulary


def test_vocabulary_reserved_ids():
    v = Vocabulary()
    assert v.tokens[PAD_ID] == PAD_TOKEN
    assert v.tokens[UNK_ID] == UNK_TOKEN
    assert len(v) == 2


def test_vocabulary_add_and_roundtrip():
    v = Vocabulary()
    ids = [v.add(t) for t in ["a", "b", "a", "c"]]
    assert ids == [2, 3, 2, 4]
    content = list(range(2, len(v)))
    assert v.encode([v.tokens[i] for i in content]) == content


def test_vocabulary_never_adds_reserved_surface_forms():
    v = Vocabulary()
    assert v.add(PAD_TOKEN) == UNK_ID
    assert v.add(UNK_TOKEN) == UNK_ID
    assert len(v) == 2
    assert v.encode([PAD_TOKEN, UNK_TOKEN, "zzz"]) == [UNK_ID, UNK_ID, UNK_ID]


def _oracle_encode(vocab, tokens):
    """The two-test encoding loop: reserved forms first, then the index."""
    out = []
    for t in tokens:
        if t in (PAD_TOKEN, UNK_TOKEN):
            out.append(UNK_ID)
        else:
            out.append(vocab.index.get(t, UNK_ID))
    return out


@pytest.mark.parametrize("with_separator", [True, False])
def test_encode_equals_the_oracle_loop(with_separator):
    # comparison: equal id lists, over known, unknown, reserved and separator forms
    v = Vocabulary()
    for t in ["a", "b", "c"] + ([SEP_TOKEN] if with_separator else []):
        v.add(t)
    forms = ["a", "b", "c", "zzz", "A", "", PAD_TOKEN, UNK_TOKEN, SEP_TOKEN]
    rng = np.random.default_rng(5)
    for vocab in (v, v.copy(), Vocabulary(tokens=list(v.tokens))):
        assert vocab.encode([]) == []
        for _ in range(50):
            picks = rng.integers(len(forms), size=int(rng.integers(1, 9)))
            tokens = [forms[int(i)] for i in picks]
            assert vocab.encode(tokens) == _oracle_encode(vocab, tokens), tokens


def test_vocabulary_index_is_built_from_its_tokens():
    v = Vocabulary(tokens=[PAD_TOKEN, UNK_TOKEN, "a", "b"])
    assert v.index == {PAD_TOKEN: 0, UNK_TOKEN: 1, "a": 2, "b": 3}
    assert v.copy().index == v.index
    with pytest.raises(TypeError):
        Vocabulary(tokens=[PAD_TOKEN, UNK_TOKEN, "a"], index={"a": 5})


def test_encode_example_is_the_text_then_each_context():
    v = build_vocab([Example(text=["a", "b"], contexts=[["c"], ["a", "d"]], label=0)])
    ex = Example(text=["b", "zzz"], contexts=[["d", "a"], [], ["c"]], label=1)
    assert v.encode_example(ex) == (v.encode(ex.text), [v.encode(c) for c in ex.contexts], 1)
    assert v.encode_example(ex) == ([3, UNK_ID], [[5, 2], [], [4]], 1)
    assert v.encode_example(Example(text=["a"], contexts=[], label=0)) == ([2], [], 0)


def test_vocabulary_copy_is_independent():
    v = Vocabulary()
    v.add("a")
    w = v.copy()
    w.add("b")
    assert "b" in w and "b" not in v


def test_build_vocab_counts_and_order():
    examples = [
        Example(text=["a", "b"], contexts=[], label=0),
        Example(text=["b", "c"], contexts=[], label=0),
    ]
    v = build_vocab(examples)
    assert len(v) == 5  # pad, unk, a, b, c
    assert v.tokens[2:] == ["a", "b", "c"]


def test_build_vocab_includes_contexts_and_extras():
    examples = [Example(text=["x"], contexts=[["y", "z"]], label=0)]
    v = build_vocab(examples, extra_tokens=("</s>",))
    assert v.tokens[2:] == ["</s>", "x", "y", "z"]
    with pytest.raises(ContractError):
        build_vocab([])


# ---------------------------------------------------------------------------
# pretrained vectors


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_load_pretrained_basic(tmp_path):
    path = _write(tmp_path / "vec.txt", [
        "cat 1 2 3 4",
        "dog 5 6 7 8",
        "fox 0 0 0 1",
    ])
    vocab, mat = load_pretrained(path, 4)
    assert len(vocab) == 5 and mat.shape == (5, 4)
    assert np.array_equal(mat[vocab.index["dog"]], [5, 6, 7, 8])
    assert np.all(mat[PAD_ID] == 0) and np.all(mat[UNK_ID] == 0)


def test_load_pretrained_skips_count_header(tmp_path):
    path = _write(tmp_path / "vec.txt", ["2 3", "cat 1 2 3", "dog 4 5 6"])
    vocab, mat = load_pretrained(path, 3)
    assert "cat" in vocab and mat.shape == (4, 3)


def test_load_pretrained_dim_mismatch_names_the_line(tmp_path):
    path = _write(tmp_path / "vec.txt", ["cat 1 2 3 4", "dog 5 6 7"])
    with pytest.raises(FormatError, match="line 2"):
        load_pretrained(path, 4)


def test_load_pretrained_bad_float_names_the_line(tmp_path):
    path = _write(tmp_path / "vec.txt", ["cat 1 2", "dog x 3"])
    with pytest.raises(FormatError, match="line 2"):
        load_pretrained(path, 2)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_load_pretrained_non_finite_value_names_the_line(tmp_path, value):
    path = _write(tmp_path / "vec.txt", ["cat 1 2", f"dog 3 {value}"])
    with pytest.raises(FormatError, match="vec.txt: line 2: non-finite"):
        load_pretrained(path, 2)


def test_load_pretrained_duplicate_keeps_first(tmp_path):
    path = _write(tmp_path / "vec.txt", ["cat 1 1", "cat 9 9"])
    vocab, mat = load_pretrained(path, 2)
    assert len(vocab) == 3
    assert np.array_equal(mat[vocab.index["cat"]], [1, 1])


@pytest.mark.parametrize("line, error", [
    ("cat nan 1", "line 2: non-finite"),  # a repeated token
    ("cat 1 x", "line 2: bad float"),
    ("<unk> 1 zz", "line 2: bad float"),  # a reserved token
])
def test_load_pretrained_checks_lines_it_skips(tmp_path, line, error):
    path = _write(tmp_path / "vec.txt", ["cat 1 1", line])
    with pytest.raises(FormatError, match=error):
        load_pretrained(path, 2)


@pytest.mark.parametrize("count", ["1_0", "\u0661"], ids=["underscore", "arabic-indic-digit"])
def test_load_pretrained_header_holds_ascii_decimals_only(tmp_path, count):
    # int() reads both spellings, which made the line a header and skipped it
    path = _write(tmp_path / "vec.txt", [f"{count} 1", "b 2"])
    vocab, mat = load_pretrained(path, 1)
    assert vocab.tokens[2:] == [count, "b"]
    assert mat[2:].tolist() == [[1], [2]]


# ---------------------------------------------------------------------------
# embedding init


def test_init_embeddings_pad_row_zero_and_bounds():
    v = Vocabulary()
    for t in "abcde":
        v.add(t)
    emb = init_embeddings(v, 6, seed=3)
    assert emb.shape == (7, 6)
    assert np.all(emb[PAD_ID] == 0)
    assert np.all(np.abs(emb[1:]) <= 0.25)


def test_init_embeddings_same_seed_identical():
    v = Vocabulary()
    v.add("a")
    a = init_embeddings(v, 4, seed=11)
    b = init_embeddings(v, 4, seed=11)
    c = init_embeddings(v, 4, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_init_embeddings_pretrained_rows_kept_bit_for_bit(tmp_path):
    path = _write(tmp_path / "vec.txt", ["cat 0.125 -0.5 0.75"])
    pre = load_pretrained(str(path), 3)
    v = build_vocab([Example(text=["cat", "new"], contexts=[], label=0)], pretrained=pre[0])
    emb = init_embeddings(v, 3, seed=0, pretrained=pre)
    assert np.array_equal(emb[v.index["cat"]], [0.125, -0.5, 0.75])
    # the out-of-file token draws from the seed stream instead
    assert np.all(np.abs(emb[v.index["new"]]) <= 0.25)
    assert not np.array_equal(emb[v.index["new"]], np.zeros(3))


def test_init_embeddings_pretrained_dim_mismatch(tmp_path):
    path = _write(tmp_path / "vec.txt", ["cat 1 2 3"])
    pre = load_pretrained(str(path), 3)
    v = build_vocab([Example(text=["cat"], contexts=[], label=0)], pretrained=pre[0])
    with pytest.raises(ContractError):
        init_embeddings(v, 4, seed=0, pretrained=pre)


def _per_row_init(vocab, dim, seed, pretrained=None):
    # reference: one uniform draw per non-pretrained row, in ascending id order
    rng = np.random.default_rng([seed, 0])
    table = np.zeros((len(vocab), dim))
    pvocab, pmat = pretrained if pretrained is not None else (None, None)
    for i, tok in enumerate(vocab.tokens):
        if i == PAD_ID:
            continue
        if pvocab is not None and tok in pvocab and pvocab.index[tok] > UNK_ID:
            table[i] = pmat[pvocab.index[tok]]
        else:
            table[i] = rng.uniform(-0.25, 0.25, size=dim)
    return table


@pytest.mark.parametrize("with_file", [False, True])
def test_init_embeddings_matches_the_per_row_draws_bitwise(tmp_path, with_file):
    pre = None
    if with_file:
        path = _write(tmp_path / "vec.txt", ["cat 0.125 -0.5 0.75", "x 1 2 3", "dog 4 5 6"])
        pre = load_pretrained(path, 3)
    # enough rows for several blocks of draws
    text = ["new", "dog", "<unk>", "cat"] + [f"w{i}" for i in range(2500)]
    v = build_vocab([Example(text=text, contexts=[], label=0)],
                    pretrained=pre[0] if pre else None, extra_tokens=("</s>",))
    got = init_embeddings(v, 3, seed=7, pretrained=pre)
    assert got.tobytes() == _per_row_init(v, 3, 7, pre).tobytes()


def test_embed_shape_and_pad_column():
    v = Vocabulary()
    for t in "abcdefg":
        v.add(t)
    emb = init_embeddings(v, 300, seed=5)
    table = ad.Node(emb)
    H = ad.embed(table, v.encode(list("abcdefg")))
    assert H.value.shape == (300, 7)
    pad_col = ad.embed(table, [PAD_ID]).value
    assert np.all(pad_col == 0)


# ---------------------------------------------------------------------------
# JSONL datasets


def test_load_jsonl_basic(tmp_path):
    path = _write(tmp_path / "d.jsonl", [
        json.dumps({"label": "pos", "text": "Good Food"}),
        json.dumps({"label": "neg", "text": "bad", "contexts": ["c d", "e"]}),
        json.dumps({"label": "pos", "text": "fine"}),
    ])
    ds = load_jsonl(path)
    assert ds.label_names == ["pos", "neg"]
    assert [ex.label for ex in ds] == [0, 1, 0]
    assert ds.examples[0].text == ["good", "food"]
    assert ds.examples[0].contexts == []
    assert ds.examples[1].contexts == [["c", "d"], ["e"]]


@pytest.mark.parametrize("line,fragment", [
    ("{broken", "invalid JSON"),
    (json.dumps(["not", "an", "object"]), "must be an object"),
    (json.dumps({"label": "a"}), "missing 'text'"),
    (json.dumps({"text": "a"}), "missing 'label'"),
    (json.dumps({"label": "a", "text": "   "}), "empty text"),
    (json.dumps({"label": "a", "text": "x", "contexts": "y"}), "must be a list"),
    (json.dumps({"label": "a", "text": "x", "contexts": [""]}), "context 0 is empty"),
])
def test_load_jsonl_format_errors(tmp_path, line, fragment):
    path = _write(tmp_path / "bad.jsonl", [json.dumps({"label": "a", "text": "ok"}), line])
    with pytest.raises(FormatError) as err:
        load_jsonl(path)
    assert "line 2" in str(err.value)
    assert fragment in str(err.value)


@pytest.mark.parametrize("record,fragment", [
    ({"label": "a", "text": None}, "'text' must be a string"),
    ({"label": "a", "text": ["x"]}, "'text' must be a string"),
    ({"label": ["y"], "text": "x"}, "'label' must be a string"),
    ({"label": 1, "text": "x"}, "'label' must be a string"),
    ({"label": None, "text": "x"}, "'label' must be a string"),
    ({"label": "a", "text": "x", "contexts": ["c", 3]}, "context 1 must be a string"),
    ({"label": "a", "text": "x", "contexts": [None]}, "context 0 must be a string"),
], ids=["text-null", "text-list", "label-list", "label-int", "label-null", "context-int",
        "context-null"])
def test_load_jsonl_fields_must_be_json_strings(tmp_path, record, fragment):
    path = _write(tmp_path / "bad.jsonl", [json.dumps({"label": "a", "text": "ok"}),
                                           json.dumps(record)])
    with pytest.raises(FormatError) as err:
        load_jsonl(path)
    assert "line 2" in str(err.value)
    assert fragment in str(err.value)


def test_load_jsonl_numbers_labels_in_a_given_class_order(tmp_path):
    lines = [json.dumps({"label": name, "text": "t"}) for name in ("pos", "neg", "pos")]
    path = _write(tmp_path / "d.jsonl", lines)
    ds = load_jsonl(path, ["neg", "pos", "other"])
    assert ds.label_names == ["neg", "pos", "other"]
    assert [ex.label for ex in ds] == [1, 0, 1]


def test_load_jsonl_names_the_first_label_missing_from_the_class_order(tmp_path):
    # the empty string is a label like any other
    lines = [json.dumps({"label": name, "text": "t"}) for name in ("a", "", "x")]
    path = _write(tmp_path / "d.jsonl", lines)
    with pytest.raises(ConfigError, match=r"d.jsonl: label '' is not among the model's "
                                          r"classes \['a'\]$"):
        load_jsonl(path, ["a"])


def test_save_load_jsonl_roundtrip(tmp_path):
    ds = gen_context_match(20, 5, 4, 12, seed=3)
    path = tmp_path / "rt.jsonl"
    save_jsonl(ds, str(path))
    back = load_jsonl(str(path))
    assert back.label_names == ds.label_names
    assert [ex.text for ex in back] == [ex.text for ex in ds]
    assert [ex.contexts for ex in back] == [ex.contexts for ex in ds]
    assert [ex.label for ex in back] == [ex.label for ex in ds]


# ---------------------------------------------------------------------------
# batching


def _tiny_corpus(n):
    examples = []
    for i in range(n):
        text = [f"w{i % 7}"] * (1 + i % 4)
        ctxs = [[f"c{i % 3}"]] if i % 2 else []
        examples.append(Example(text=text, contexts=ctxs, label=i % 2))
    return examples


def _tiny_encoded(n):
    examples = _tiny_corpus(n)
    vocab = build_vocab(examples)
    return [vocab.encode_example(ex) for ex in examples]


def test_make_batches_sizes():
    batches = make_batches(_tiny_encoded(103), 50, seed=0)
    assert [len(b) for b in batches] == [50, 50, 3]


def test_make_batches_partition_and_masks():
    # every encoded example lands in exactly one batch, as itself, not a copy
    encoded = _tiny_encoded(23)
    batches = make_batches(encoded, 5, seed=4)
    seen = [id(ex) for b in batches for ex in b]
    assert sorted(seen) == sorted(id(ex) for ex in encoded)


def test_make_batches_deterministic_and_seed_sensitive():
    encoded = _tiny_encoded(30)
    a = make_batches(encoded, 7, seed=9)
    b = make_batches(encoded, 7, seed=9)
    c = make_batches(encoded, 7, seed=[9, 2, 1])
    assert a == b
    assert any([ex[2] for ex in x] != [ex[2] for ex in y] for x, y in zip(a, c))
    # the order is the seed's permutation, chunked in turn
    order = np.random.default_rng([9, 2, 1]).permutation(len(encoded))
    assert [ex for batch in c for ex in batch] == [encoded[i] for i in order]


def test_make_batches_rejects_bad_batch_size():
    with pytest.raises(ContractError):
        make_batches(_tiny_encoded(3), 0, seed=0)


# ---------------------------------------------------------------------------
# synthetic task: ends must be compared


def test_gen_nonlocal_match_regeneration_is_identical():
    a = gen_nonlocal_match(200, 12, 20, seed=7)
    b = gen_nonlocal_match(200, 12, 20, seed=7)
    assert [ex.text for ex in a] == [ex.text for ex in b]
    assert [ex.label for ex in a] == [ex.label for ex in b]
    c = gen_nonlocal_match(200, 12, 20, seed=8)
    assert [ex.text for ex in a] != [ex.text for ex in c]


def test_gen_nonlocal_match_label_balance():
    ds = gen_nonlocal_match(10_000, 20, 30, seed=7)
    frac = sum(ex.label for ex in ds) / len(ds)
    assert 0.48 <= frac <= 0.52


def test_gen_nonlocal_match_structure():
    ds = gen_nonlocal_match(300, 20, 30, seed=1)
    for ex in ds:
        assert len(ex.text) == 20 and ex.contexts == []
        marker, probe = ex.text[0], ex.text[-1]
        assert marker.startswith("m") and probe.startswith("m")
        assert ex.label == int(marker == probe)
        # the marker echoes once somewhere in the interior
        assert marker in ex.text[1:-1]
        # both ends sit in windows of plain filler: no marker-alphabet token
        # within two positions of either end, so no width-3 window pairs an
        # endpoint with anything informative
        for tok in ex.text[1:3] + ex.text[-3:-1]:
            assert tok.startswith("w")


def test_gen_nonlocal_match_ends_never_share_a_window():
    ds = gen_nonlocal_match(50, 8, 12, seed=2)
    for ex in ds:
        n = len(ex.text)
        for start in range(n - 2):
            window = range(start, start + 3)
            assert not (0 in window and n - 1 in window)


def test_gen_nonlocal_match_preconditions():
    with pytest.raises(ContractError):
        gen_nonlocal_match(10, 7, 30, seed=0)
    with pytest.raises(ContractError):
        gen_nonlocal_match(10, 20, 9, seed=0)
    with pytest.raises(ContractError):
        gen_nonlocal_match(1, 20, 30, seed=0)


# ---------------------------------------------------------------------------
# synthetic task: answer lives in the context


def test_gen_context_match_regeneration_is_identical():
    a = gen_context_match(150, 8, 8, 20, seed=11)
    b = gen_context_match(150, 8, 8, 20, seed=11)
    assert [ex.text for ex in a] == [ex.text for ex in b]
    assert [ex.contexts for ex in a] == [ex.contexts for ex in b]
    assert [ex.label for ex in a] == [ex.label for ex in b]


def test_gen_context_match_label_balance():
    ds = gen_context_match(10_000, 8, 8, 20, seed=5)
    frac = sum(ex.label for ex in ds) / len(ds)
    assert 0.48 <= frac <= 0.52


def test_gen_context_match_structure():
    ds = gen_context_match(300, 8, 6, 20, seed=4)
    for ex in ds:
        assert len(ex.text) == 8 and len(ex.contexts) == 1
        ctx = ex.contexts[0]
        assert len(ctx) == 6
        queries_in_text = [t for t in ex.text if t.startswith("q")]
        answers_in_ctx = [t for t in ctx if t.startswith("q")]
        assert len(queries_in_text) == 1 and len(answers_in_ctx) == 1
        assert ex.label == int(queries_in_text[0] == answers_in_ctx[0])
        # filler alphabets are disjoint across the sentence boundary
        assert all(t.startswith(("q", "t")) for t in ex.text)
        assert all(t.startswith(("q", "c")) for t in ctx)


def test_gen_context_match_preconditions():
    with pytest.raises(ContractError):
        gen_context_match(10, 1, 4, 20, seed=0)
    with pytest.raises(ContractError):
        gen_context_match(10, 4, 4, 5, seed=0)
