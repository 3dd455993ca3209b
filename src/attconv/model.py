"""Model assembly, training, and evaluation.

The stack is fixed: embeddings feed one representation layer (which layer
depends on the variant), max-over-positions pooling produces the sentence
vector, and a logistic regression head produces class probabilities.
``param_shapes`` is the one list of a variant's tensors: ``build_model``
initializes along it, checkpoints store and load along it, and a model
holds its tensors in one flat dict under those dotted names.
``forward_batch`` builds every graph: it packs examples side by side on
the position axis and runs them as one graph. ``forward`` is its batch of
one, and ``attention_records`` reads one example's attention weights off
that graph. Training is plain AdaGrad on the averaged cross-entropy of
each batch, one packed graph per batch; ``evaluate`` scores a dataset in
packed chunks of ``EVAL_CHUNK``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from . import layers as ly
from .attention import MATCH_METHODS
from .data import (
    PAD_ID,
    SEP_TOKEN,
    Dataset,
    Example,
    Vocabulary,
    init_embeddings,
    make_batches,
)
from .errors import (
    ConfigError,
    ContractError,
    DivergenceError,
    EmptyContextError,
    EmptyInputError,
    FormatError,
)

VARIANTS = ("light", "advanced", "vanilla-cnn", "attentive-pooling", "no-conv")
CONTEXT_MODES = ("intra", "single", "multi-wise", "multi-conc")

_PARAM_STREAM = 1
# examples per packed forward in ``evaluate``: wide enough for BLAS to pay
# off, small enough that a chunk's graph stays in cache (see CHANGES.md)
EVAL_CHUNK = 8
# attention scores of one example, its text length times the summed lengths
# of its context maps: a 1000-token text in intra mode. Each score costs a
# few float64 copies in the graph (and the additive match a scratch of d per
# score of its largest block while it runs), so a larger example is refused
# before anything is built.
MAX_SCORE_ENTRIES = 10**6
EMBEDDINGS_KEY = "embeddings"


def _json_key(name: str) -> str:
    return name.replace("_", "-")


@dataclass
class ModelConfig:
    """Architecture switches. Serialized with hyphenated field names."""

    variant: str = "light"
    context_mode: str = "single"
    d: int = 300
    num_classes: int = 2
    match_method: str = "dot"
    self_mode: str = "include-self"
    seed: int = 0

    def validate(self) -> None:
        _check_types(self)
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if self.context_mode not in CONTEXT_MODES:
            raise ConfigError(
                f"unknown context-mode {self.context_mode!r}; choose from {CONTEXT_MODES}"
            )
        if self.match_method not in MATCH_METHODS:
            raise ConfigError(f"unknown match-method {self.match_method!r}")
        if self.self_mode not in ly.SELF_MODES:
            raise ConfigError(f"unknown self-mode {self.self_mode!r}")
        if self.d < 1:
            raise ConfigError("d must be at least 1")
        if self.num_classes < 2:
            raise ConfigError("num-classes must be at least 2")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")

    def to_json(self) -> dict:
        return {_json_key(f.name): getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, data: dict) -> "ModelConfig":
        return _config_from_json(cls, data)


@dataclass
class TrainConfig:
    """Optimization knobs."""

    learning_rate: float = 0.01
    batch_size: int = 50
    epochs: int = 10
    adagrad_epsilon: float = 1e-8
    eval_every: int = 1

    def validate(self) -> None:
        _check_types(self)
        if not 0 < self.learning_rate <= sys.float_info.max:
            raise ConfigError(
                f"learning-rate must be finite and positive, got {self.learning_rate}"
            )
        if self.batch_size < 1:
            raise ConfigError("batch-size must be at least 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if not 0 < self.adagrad_epsilon <= sys.float_info.max:
            raise ConfigError(
                f"adagrad-epsilon must be finite and positive, got {self.adagrad_epsilon}"
            )
        if self.eval_every < 1:
            raise ConfigError("eval-every must be at least 1")

    def to_json(self) -> dict:
        return {_json_key(f.name): getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, data: dict) -> "TrainConfig":
        return _config_from_json(cls, data)


# what a field of each annotated type accepts; bool is excluded separately
_FIELD_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
                "str": ((str,), "a string")}


def _check_types(cfg) -> None:
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        accepted, what = _FIELD_TYPES[f.type]
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ConfigError(f"{_json_key(f.name)} must be {what}, got {value!r}")


def _config_from_json(cls, data: dict):
    known = {_json_key(f.name): f.name for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        attr = known.get(key)
        if attr is None:
            raise ConfigError(f"unknown {cls.__name__} field {key!r}")
        kwargs[attr] = value
    cfg = cls(**kwargs)
    cfg.validate()
    return cfg


@dataclass
class Model:
    """A built network: config, vocabulary, label order, and live tensors.

    ``params`` maps the dotted names of ``param_shapes`` to the leaf nodes,
    in that order; the checkpoint format and the parameter report both
    follow it.
    """

    config: ModelConfig
    vocab: Vocabulary
    label_names: list[str]
    params: dict[str, ad.Node]

    @property
    def embeddings(self) -> ad.Node:
        """The V x d embedding table; row 0 (PAD) stays zero."""
        return self.params[EMBEDDINGS_KEY]


def param_shapes(config: ModelConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Every tensor of the configured network: dotted name -> shape, in order.

    The order is the checkpoint order and the order ``build_model`` draws
    the weights in. ``net.`` holds the representation layer of the variant,
    ``classifier.`` the logistic regression head over the sentence vector.
    """
    d = config.d
    shapes: dict[str, tuple[int, ...]] = {EMBEDDINGS_KEY: (vocab_size, d)}

    def match(at: str, size: int) -> None:
        if config.match_method in ("bilinear", "additive"):
            shapes[at + "W_e"] = (size, size)
        if config.match_method == "additive":
            shapes[at + "U_e"] = (size, size)
            shapes[at + "v_e"] = (size,)

    def gated(at: str, width: int) -> None:
        shapes.update({at + "W_h": (d, width * d), at + "b_h": (d,),
                       at + "W_g": (d, width * d), at + "b_g": (d,)})

    def conv(at: str, d_c: int) -> None:
        shapes.update({at + "W1": (d, 3 * d), at + "W2": (d, d_c), at + "b": (d,)})

    if config.variant == "light":
        match("net.match.", d)
        conv("net.conv.", d)
    elif config.variant == "advanced":
        for side in ("source", "focus"):
            gated(f"net.{side}.uni.", 1)
            gated(f"net.{side}.tri.", 3)
        gated("net.beneficiary.", 1)
        match("net.match.", 2 * d)
        conv("net.conv.", 2 * d)
    elif config.variant in ("vanilla-cnn", "attentive-pooling"):
        shapes.update({"net.W1": (d, 3 * d), "net.b": (d,)})
    elif config.variant == "no-conv":
        for i in range(ly.NO_CONV_LAYERS):
            shapes[f"net.layer{i}.W"] = (d, d)
            shapes[f"net.layer{i}.b"] = (d,)
            match(f"net.layer{i}.match.", d)
    else:  # pragma: no cover - validate() guards this
        raise ConfigError(f"unknown variant {config.variant!r}")
    rep_dim = 2 * d if config.variant == "attentive-pooling" else d
    shapes["classifier.W"] = (config.num_classes, rep_dim)
    shapes["classifier.b"] = (config.num_classes,)
    return shapes


def init_tensor(rng: np.random.Generator, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Initial value of one non-embedding tensor, drawn from ``rng``.

    Matrices are fan-balanced uniform, the additive match vector v_e is
    uniform with the bound of a 1 x d matrix, and biases start at zero
    without drawing.
    """
    if len(shape) == 2:
        return ad.glorot(rng, *shape)
    if name.endswith("v_e"):
        return ad.glorot(rng, 1, shape[0])[0]
    return np.zeros(shape)


def check_labels(config: ModelConfig, label_names: list[str]) -> None:
    """Reject a label list whose length is not the configured class count, or
    that names a class twice."""
    if len(label_names) != config.num_classes:
        raise ConfigError(
            f"label list has {len(label_names)} entries but num-classes is {config.num_classes}"
        )
    seen: set[str] = set()
    for name in label_names:
        if name in seen:
            raise ConfigError(f"label list names class {name!r} twice")
        seen.add(name)


def build_model(config: ModelConfig, vocab: Vocabulary, label_names: list[str],
                pretrained: tuple[Vocabulary, np.ndarray] | None = None) -> Model:
    """Initialize every tensor of ``param_shapes``, deterministically.

    The embedding table follows the pretrained/OOV rules in
    ``init_embeddings``; every other tensor comes from ``init_tensor`` on
    one substream of config.seed, in ``param_shapes`` order, so equal
    configs build bitwise-equal models. A ``d`` too large to allocate is a
    ConfigError.
    """
    config.validate()
    check_labels(config, label_names)
    rng = np.random.default_rng([config.seed, _PARAM_STREAM])
    params: dict[str, ad.Node] = {}
    try:
        for name, shape in param_shapes(config, len(vocab)).items():
            if name == EMBEDDINGS_KEY:
                value = init_embeddings(vocab, config.d, config.seed, pretrained)
            else:
                value = init_tensor(rng, name, shape)
            params[name] = ad.param(value, name)
    except MemoryError:
        raise ConfigError(
            f"d={config.d} with a vocabulary of {len(vocab)} tokens does not fit in memory"
        ) from None
    return Model(config=config, vocab=vocab, label_names=list(label_names), params=params)


# ---------------------------------------------------------------------------
# forward


# variants that produce a text-by-context attention matrix
EXPORTABLE_VARIANTS = ("light", "advanced", "no-conv")


@dataclass
class AttentionRecord:
    """One exported attention pass: which context, which layer, what weights."""

    context_index: int
    layer_index: int
    weights: np.ndarray  # m x n, rows sum to 1


def join_context_ids(ctx_ids: list[list], sep_id) -> list:
    """Concatenate context sequences (of ids or tokens) with a separator between them."""
    joined: list = []
    for k, ids in enumerate(ctx_ids):
        if k > 0:
            joined.append(sep_id)
        joined.extend(ids)
    return joined


def _example_maps(model: Model, text_ids: list[int], ctx_ids: list[list[int]]) -> list:
    """Check one encoded example and list the id sequences of its context maps.

    The maps are the text itself in intra mode, the joined contexts in
    multi-conc mode and one per context otherwise; multi-wise takes each
    distinct context once, in sorted order, so that its max over the maps
    is exactly invariant to context order and repetition. Vanilla-cnn
    ignores contexts and has no maps. Every malformed example raises here,
    before any op is built, so a packed chunk fails on its first malformed
    example just as one forward per example would. So does an example of a
    variant in ``EXPORTABLE_VARIANTS`` with more than ``MAX_SCORE_ENTRIES``
    attention scores, a FormatError.
    """
    cfg = model.config
    mode = cfg.context_mode
    if not text_ids:
        raise ContractError("forward: empty text")
    if cfg.variant == "vanilla-cnn":
        return []
    if mode == "intra":
        if ctx_ids:
            raise ConfigError("intra-context model was given contexts")
        if (cfg.self_mode == "exclude-self" and cfg.variant != "attentive-pooling"
                and len(text_ids) < 2):
            raise EmptyContextError(ad.EXCLUDE_SELF_ALONE)
        maps = [text_ids]
    elif mode == "single" and len(ctx_ids) != 1:
        raise ConfigError(f"single-context model expects exactly 1 context, got {len(ctx_ids)}")
    elif not ctx_ids:
        raise EmptyContextError(f"{mode} forward needs at least one context")
    elif mode == "multi-conc":
        sep = model.vocab.index.get(SEP_TOKEN)
        if sep is None:
            raise ConfigError(f"multi-conc needs {SEP_TOKEN!r} in the vocabulary")
        maps = [join_context_ids(ctx_ids, sep)]
    elif mode == "multi-wise":
        maps = sorted({tuple(ids) for ids in ctx_ids})
    else:
        maps = ctx_ids
    if not all(maps):
        raise EmptyInputError("forward: empty context")
    m, n = len(text_ids), sum(len(ids) for ids in maps)
    if cfg.variant in EXPORTABLE_VARIANTS and m * n > MAX_SCORE_ENTRIES:
        raise FormatError(f"example too large: a text of {m} tokens against context maps of "
                          f"{n} tokens needs {m * n} attention scores, over the bound of "
                          f"{MAX_SCORE_ENTRIES}")
    return maps


def forward_ids(model: Model, text_ids: list[int], ctx_ids: list[list[int]]) -> ad.Node:
    """Class probabilities (K) for one encoded example, as a detached node.

    The batch of one: column 0 of ``forward_batch``, bit for bit, with no
    graph behind it; train through ``forward_batch``.
    """
    return ad.Node(forward_batch(model, [(text_ids, ctx_ids)]).value[:, 0])


def forward_batch(model: Model, encoded) -> ad.Node:
    """Class probabilities (K x B) of B encoded examples, one column each.

    ``encoded`` holds (text ids, context ids, ...) tuples, such as the
    batches of ``make_batches``; labels are ignored. ``train`` runs each
    batch through it, ``evaluate`` each chunk. The examples and their
    context maps are packed side by side on the position axis and run as
    one graph, so every matmul serves the whole chunk; an example with
    several context maps max-pools the sentence vectors of its pairs. Each
    column equals ``forward_ids`` of its example within rounding (wider
    matmuls sum in another order), bit for bit in a batch of one, and the
    first malformed example raises what its own forward would.
    """
    if not encoded:
        raise ContractError("forward_batch: no examples")
    cfg, p = model.config, model.params
    texts = [ex[0] for ex in encoded]
    maps = [_example_maps(model, ex[0], ex[1]) for ex in encoded]
    Hx = ad.embed(model.embeddings, [i for t in texts for i in t])

    if cfg.variant == "vanilla-cnn":
        starts = ly.segment_starts([len(t) for t in texts])
        rep = ad.max_over_positions(ly.vanilla_conv(Hx, p, "net.", starts), starts)
    else:
        pk = ly.pack([len(t) for t in texts], [[len(ids) for ids in m] for m in maps])
        Hy = Hx if cfg.context_mode == "intra" else ad.embed(
            model.embeddings, [i for m in maps for ids in m for i in ids])
        if cfg.variant == "attentive-pooling":
            rep = ly.attentive_pooling(Hx, Hy, p, "net.", pk)
        else:
            exclude_self = cfg.context_mode == "intra" and cfg.self_mode == "exclude-self"
            layer = ly.no_conv_stack if cfg.variant == "no-conv" else ly.attend_and_convolve
            fmap = layer(Hx, Hy, p, "net.", cfg.match_method, pk, exclude_self)
            rep = ad.max_over_positions(fmap, pk.pairs)
        if pk.pool_maps:
            rep = ad.max_over_positions(rep, pk.examples)

    logits = ad.add_bias(ad.matmul(p["classifier.W"], rep), p["classifier.b"])
    return ad.softmax(logits)


def forward(model: Model, example: Example) -> ad.Node:
    """Encode one Example through the vocabulary and run forward_ids."""
    text_ids, ctx_ids, _ = model.vocab.encode_example(example)
    return forward_ids(model, text_ids, ctx_ids)


def attention_records(model: Model, text_ids: list[int],
                      ctx_ids: list[list[int]]) -> list[AttentionRecord]:
    """Every attention pass of one encoded example, read off its forward graph.

    One record per context and pass, context by context: light and advanced
    have one pass, the no-conv stack one per layer. The passes are the
    graph's ``masked_softmax_rows`` nodes in topological order, which is
    layer order. Each record holds its context map's m x n block of the
    weights; the repeats of a multi-wise context share one map. A variant
    outside ``EXPORTABLE_VARIANTS`` is a ConfigError.
    """
    cfg = model.config
    if cfg.variant not in EXPORTABLE_VARIANTS:
        raise ConfigError(f"variant {cfg.variant!r} has no attention matrix to export")
    probs = forward_batch(model, [(text_ids, ctx_ids)])
    passes = [node for node in ad.topo_order(probs) if node.op == "masked_softmax_rows"]
    maps = _example_maps(model, text_ids, ctx_ids)
    blocks = ly.pack([len(text_ids)], [[len(ids) for ids in maps]]).blocks
    index = [0]
    if cfg.context_mode == "multi-wise":
        index = [maps.index(tuple(ids)) for ids in ctx_ids]
    return [AttentionRecord(j, li, blocks.block(weights.value, k))
            for j, k in enumerate(index) for li, weights in enumerate(passes)]


def cross_entropy(probs: ad.Node, labels) -> ad.Node:
    """Mean negative log probability of the gold classes, each floored at
    1e-12, over the K x B probabilities of ``forward_batch``, with one
    label per column."""
    return ad.nll(probs, labels)


def predict(probs: np.ndarray) -> int:
    """Argmax class; ties resolve to the lowest class id."""
    return int(np.argmax(probs))


# ---------------------------------------------------------------------------
# optimization


def adagrad_step(params: dict[str, ad.Node], acc: dict[str, np.ndarray],
                 lr: float, eps: float) -> None:
    """One AdaGrad update of every tensor that has a gradient:
    acc += g^2; p -= lr * g / (sqrt(acc) + eps), with g the tensor's
    ``grad``. A tensor whose ``grad`` is None is skipped, its value and
    its accumulator unchanged."""
    for name, node in params.items():
        g = node.grad
        if g is None:
            continue
        acc[name] += g * g
        node.value -= lr * g / (np.sqrt(acc[name]) + eps)


# ---------------------------------------------------------------------------
# training and evaluation


@dataclass
class EvalResult:
    accuracy: float
    n: int
    confusion: np.ndarray  # (K, K), gold rows, predicted columns
    loss: float  # mean cross-entropy


def _check_dataset(dataset: Dataset, model: Model, caller: str) -> None:
    """Reject an empty dataset or a label outside the model's classes."""
    if len(dataset) == 0:
        raise ContractError(f"{caller}: empty dataset")
    k = model.config.num_classes
    for ex in dataset.examples:
        if not 0 <= ex.label < k:
            raise ContractError(f"{caller}: label {ex.label} outside the model's {k} classes")


def evaluate(dataset: Dataset, model: Model) -> EvalResult:
    """Accuracy, a gold-by-predicted confusion matrix and the mean loss.

    The examples run through ``forward_batch`` in consecutive chunks of
    ``EVAL_CHUNK``, so each probability vector equals the one ``forward``
    gives within rounding, and the first malformed example raises what its
    own ``forward`` would. The loss is the mean of ``cross_entropy`` over
    the examples, summed in dataset order. A label outside the model's
    classes is a ContractError, and a mean loss that is not finite (weights
    so large that the forward overflows) a DivergenceError.
    """
    _check_dataset(dataset, model, "evaluate")
    k = model.config.num_classes
    confusion = np.zeros((k, k), dtype=np.int64)
    total = 0.0
    encode = model.vocab.encode_example
    for lo in range(0, len(dataset), EVAL_CHUNK):
        chunk = [encode(ex) for ex in dataset.examples[lo:lo + EVAL_CHUNK]]
        probs = forward_batch(model, chunk)
        for b, (_, _, label) in enumerate(chunk):
            confusion[label, predict(probs.value[:, b])] += 1
            total += cross_entropy(ad.Node(probs.value[:, b:b + 1]), [label]).value.item()
    loss = total / len(dataset)
    if not np.isfinite(loss):
        raise DivergenceError(f"non-finite mean loss {loss!r} over {len(dataset)} examples")
    accuracy = float(np.trace(confusion)) / len(dataset)
    return EvalResult(accuracy=accuracy, n=len(dataset), confusion=confusion, loss=loss)


def train(model: Model, train_data: Dataset, train_config: TrainConfig,
          dev_data: Dataset | None = None, emit=None,
          stop_at_dev_accuracy: float | None = None) -> list[dict]:
    """AdaGrad training loop; returns the emitted metric records.

    Each epoch reshuffles under a seed derived from the model seed and the
    epoch index, so reruns with equal configs produce identical loss
    trajectories. Each batch runs as one ``forward_batch`` graph, whose
    columns equal the per-example forwards within rounding. Train accuracy
    is the running accuracy of those columns during the epoch; dev metrics
    come from a full evaluation every ``eval_every`` epochs. A label outside
    the model's classes, in the training or the dev data, is a
    ContractError before any update, and a training or dev example that its
    own ``forward`` would refuse raises that error before any update too.
    The training examples are encoded once, for that check, and every
    epoch batches those ids. A non-finite training loss, or dev loss, aborts
    with diagnostics. Each batch's graph is dropped after its backward, so
    it is not held through the update or the next batch's forward.
    """
    train_config.validate()
    _check_dataset(train_data, model, "train")
    dev_examples = []
    if dev_data is not None:
        _check_dataset(dev_data, model, "evaluate")
        dev_examples = dev_data.examples
    encode = model.vocab.encode_example
    encoded = [encode(ex) for ex in train_data.examples]
    for text_ids, ctx_ids, _ in encoded + [encode(ex) for ex in dev_examples]:
        _example_maps(model, text_ids, ctx_ids)
    acc = {name: np.zeros_like(node.value) for name, node in model.params.items()}
    metrics: list[dict] = []

    def record(rec: dict) -> None:
        metrics.append(rec)
        if emit is not None:
            emit(json.dumps(rec))

    for epoch in range(1, train_config.epochs + 1):
        batches = make_batches(encoded, train_config.batch_size, [model.config.seed, 2, epoch])
        loss_sum = 0.0
        correct = 0
        for bi, batch in enumerate(batches):
            labels = [label for _, _, label in batch]
            probs = forward_batch(model, batch)
            correct += sum(predict(column) == label
                           for column, label in zip(probs.value.T, labels))
            loss = cross_entropy(probs, labels)
            if not np.isfinite(loss.value):
                raise DivergenceError(
                    f"non-finite loss {loss.value!r} at epoch {epoch}, batch {bi}"
                )
            loss_sum += loss.value.item() * len(batch)
            ad.zero_grads(model.params.values())
            ad.backward(loss)
            del probs, loss
            model.embeddings.grad[PAD_ID] = 0.0  # PAD row stays frozen at zero
            adagrad_step(model.params, acc, train_config.learning_rate,
                         train_config.adagrad_epsilon)
        record({
            "epoch": epoch,
            "split": "train",
            "loss": loss_sum / len(train_data),
            "accuracy": correct / len(train_data),
        })
        if dev_data is not None and epoch % train_config.eval_every == 0:
            dev = evaluate(dev_data, model)
            record({
                "epoch": epoch,
                "split": "dev",
                "loss": dev.loss,
                "accuracy": dev.accuracy,
            })
            if stop_at_dev_accuracy is not None and dev.accuracy >= stop_at_dev_accuracy:
                break
    return metrics


# ---------------------------------------------------------------------------
# parameter accounting


@dataclass
class ParamCount:
    total: int
    rows: list[tuple[str, tuple[int, ...], int]]


def count_params(params: dict[str, ad.Node], include_embeddings: bool = False) -> ParamCount:
    """Tensor-by-tensor parameter table plus the total.

    The default convention excludes the embedding table, since its size
    tracks the vocabulary rather than the architecture; pass
    include_embeddings=True for the full footprint.
    """
    rows = []
    total = 0
    for name, node in params.items():
        if name == EMBEDDINGS_KEY and not include_embeddings:
            continue
        size = int(node.value.size)
        rows.append((name, tuple(node.value.shape), size))
        total += size
    return ParamCount(total=total, rows=rows)
