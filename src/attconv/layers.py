"""Attention-augmented convolution layers and the baseline layers they
are compared against.

All layers consume and produce feature maps with one column per sequence
position. Width-3 windows are zero-padded at both sequence ends, so output
length always equals input length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .attention import MatchParams, apply_attention, attention_weights, match_scores
from .errors import ContractError, DimensionError, EmptyContextError

SELF_MODES = ("include-self", "exclude-self")


# ---------------------------------------------------------------------------
# parameter containers


@dataclass
class ConvParams:
    """Plain width-3 convolution: W1 (d x 3d) and bias b (d)."""

    W1: ad.Node
    b: ad.Node

    @classmethod
    def create(cls, d: int, rng: np.random.Generator) -> "ConvParams":
        return cls(
            W1=ad.param(ad.glorot(rng, d, 3 * d), "W1"),
            b=ad.param(np.zeros(d), "b"),
        )

    def tensors(self) -> dict[str, ad.Node]:
        return {"W1": self.W1, "b": self.b}


@dataclass
class LightAttConvParams:
    """Attentive convolution in divide-then-compose form.

    W1 (d x 3d) filters the local tri-gram window, W2 (d x d_c) filters the
    attentive context column, and the single bias b is shared by both
    branches. Concatenating [W1 | W2] recovers the joint filter over the
    stacked window [h_prev; h_cur; h_next; c].
    """

    W1: ad.Node
    W2: ad.Node
    b: ad.Node

    @classmethod
    def create(cls, d: int, d_c: int, rng: np.random.Generator) -> "LightAttConvParams":
        return cls(
            W1=ad.param(ad.glorot(rng, d, 3 * d), "W1"),
            W2=ad.param(ad.glorot(rng, d, d_c), "W2"),
            b=ad.param(np.zeros(d), "b"),
        )

    def tensors(self) -> dict[str, ad.Node]:
        return {"W1": self.W1, "W2": self.W2, "b": self.b}


@dataclass
class GatedConvParams:
    """One gated convolution: candidate filter W_h, gate filter W_g.

    ``width`` is the window size (1 or 3); both filters map the stacked
    window (width * d) to d.
    """

    W_h: ad.Node
    b_h: ad.Node
    W_g: ad.Node
    b_g: ad.Node
    width: int = 3

    @classmethod
    def create(cls, d: int, width: int, rng: np.random.Generator) -> "GatedConvParams":
        if width not in (1, 3):
            raise ContractError(f"gated conv width must be 1 or 3, got {width}")
        return cls(
            W_h=ad.param(ad.glorot(rng, d, width * d), "W_h"),
            b_h=ad.param(np.zeros(d), "b_h"),
            W_g=ad.param(ad.glorot(rng, d, width * d), "W_g"),
            b_g=ad.param(np.zeros(d), "b_g"),
            width=width,
        )

    def tensors(self) -> dict[str, ad.Node]:
        return {"W_h": self.W_h, "b_h": self.b_h, "W_g": self.W_g, "b_g": self.b_g}


@dataclass
class MgranParams:
    """Multi-granular pair: a width-1 and a width-3 gated convolution."""

    uni: GatedConvParams
    tri: GatedConvParams

    @classmethod
    def create(cls, d: int, rng: np.random.Generator) -> "MgranParams":
        return cls(uni=GatedConvParams.create(d, 1, rng), tri=GatedConvParams.create(d, 3, rng))

    def tensors(self) -> dict[str, ad.Node]:
        out = {}
        for pname, part in (("uni", self.uni), ("tri", self.tri)):
            for k, v in part.tensors().items():
                out[f"{pname}.{k}"] = v
        return out


@dataclass
class LightParams:
    """Light attentive convolution bundle: matching plus the conv filters."""

    match: MatchParams
    conv: LightAttConvParams

    @classmethod
    def create(cls, d: int, method: str, rng: np.random.Generator) -> "LightParams":
        return cls(match=MatchParams.create(method, d, rng),
                   conv=LightAttConvParams.create(d, d, rng))

    def tensors(self) -> dict[str, ad.Node]:
        out = {f"match.{k}": v for k, v in self.match.tensors().items()}
        out.update({f"conv.{k}": v for k, v in self.conv.tensors().items()})
        return out


@dataclass
class AdvancedParams:
    """Advanced attentive convolution bundle.

    Source and focus sides each get their own multi-granular gated
    convolutions; matching runs over the resulting 2d states; the
    beneficiary gate refines the raw text states; and the final conv
    combines the beneficiary window (W1, d x 3d) with the 2d attentive
    context (W2, d x 2d).
    """

    source: MgranParams
    focus: MgranParams
    beneficiary: GatedConvParams
    match: MatchParams
    conv: LightAttConvParams

    @classmethod
    def create(cls, d: int, method: str, rng: np.random.Generator) -> "AdvancedParams":
        return cls(
            source=MgranParams.create(d, rng),
            focus=MgranParams.create(d, rng),
            beneficiary=GatedConvParams.create(d, 1, rng),
            match=MatchParams.create(method, 2 * d, rng),
            conv=LightAttConvParams.create(d, 2 * d, rng),
        )

    def tensors(self) -> dict[str, ad.Node]:
        out = {}
        for pname, part in (("source", self.source), ("focus", self.focus)):
            for k, v in part.tensors().items():
                out[f"{pname}.{k}"] = v
        out.update({f"beneficiary.{k}": v for k, v in self.beneficiary.tensors().items()})
        out.update({f"match.{k}": v for k, v in self.match.tensors().items()})
        out.update({f"conv.{k}": v for k, v in self.conv.tensors().items()})
        return out


@dataclass
class NoConvLayerParams:
    """One layer of the convolution-free stack: matching plus a d x d FC."""

    W: ad.Node
    b: ad.Node
    match: MatchParams

    def tensors(self) -> dict[str, ad.Node]:
        out = {"W": self.W, "b": self.b}
        out.update({f"match.{k}": v for k, v in self.match.tensors().items()})
        return out


@dataclass
class NoConvParams:
    """Four stacked attend-add-transform layers, each owning its weights.

    The designed parameter parity with the light layer holds for weight
    matrices: 4 * d*d here versus 3d*d + d*d_c there, equal when d_c == d.
    Bias counts differ (4d versus d).
    """

    layers: list[NoConvLayerParams] = field(default_factory=list)

    @classmethod
    def create(cls, d: int, method: str, rng: np.random.Generator) -> "NoConvParams":
        layers = [
            NoConvLayerParams(
                W=ad.param(ad.glorot(rng, d, d), f"W{i}"),
                b=ad.param(np.zeros(d), f"b{i}"),
                match=MatchParams.create(method, d, rng),
            )
            for i in range(4)
        ]
        return cls(layers=layers)

    def tensors(self) -> dict[str, ad.Node]:
        out = {}
        for i, layer in enumerate(self.layers):
            for k, v in layer.tensors().items():
                out[f"layer{i}.{k}"] = v
        return out


# ---------------------------------------------------------------------------
# layer functions


def vanilla_conv(H: ad.Node, params: ConvParams) -> ad.Node:
    """Width-3 convolution with tanh, the attention-free baseline."""
    return ad.tanh(ad.add_bias(ad.matmul(params.W1, ad.window3(H)), params.b))


def light_attconv(Hx: ad.Node, Cx: ad.Node, params: LightAttConvParams) -> ad.Node:
    """Convolve tri-gram windows and attentive context columns jointly.

    Computes tanh(W1 [h_prev; h_cur; h_next] + W2 c + b) per position. The
    two matmuls run as parallel convolutions (width 3 over H_x, width 1
    over C_x) and sum before the nonlinearity, which is algebraically the
    same as one convolution over the four stacked vectors.
    """
    if Hx.value.shape[1] != Cx.value.shape[1]:
        raise DimensionError("light_attconv: H_x and C_x must align per position")
    local = ad.matmul(params.W1, ad.window3(Hx))
    contextual = ad.matmul(params.W2, Cx)
    return ad.tanh(ad.add_bias(ad.add(local, contextual), params.b))


def gated_conv(H: ad.Node, params: GatedConvParams) -> ad.Node:
    """Gated convolution: out = g * h_cur + (1 - g) * tanh(W_h window + b_h).

    The gate g = sigmoid(W_g window + b_g) decides per component whether to
    keep the central unigram state or the convolved candidate.
    """
    if params.width == 1:
        win = H
    elif params.width == 3:
        win = ad.window3(H)
    else:
        raise ContractError(f"gated conv width must be 1 or 3, got {params.width}")
    cand = ad.tanh(ad.add_bias(ad.matmul(params.W_h, win), params.b_h))
    gate = ad.sigmoid(ad.add_bias(ad.matmul(params.W_g, win), params.b_g))
    return ad.gate_mix(gate, H, cand)


def mgran(H: ad.Node, params: MgranParams) -> ad.Node:
    """Concatenate unigram- and trigram-granularity gated states, 2d x m."""
    return ad.concat_rows([gated_conv(H, params.uni), gated_conv(H, params.tri)])


def beneficiary(H: ad.Node, params: GatedConvParams) -> ad.Node:
    """Unigram-granularity gated refinement of the states receiving context."""
    if params.width != 1:
        raise ContractError("beneficiary: expected a width-1 gated conv")
    return gated_conv(H, params)


def attend_and_convolve(Hx: ad.Node, Hy: ad.Node, params, mask=None,
                        trace: list[ad.Node] | None = None) -> ad.Node:
    """Run the light or advanced attentive convolution of Hx against Hy.

    Dispatches on the parameter bundle type. ``trace``, when given,
    collects the m x n weights node of every attention pass for export.
    """
    if isinstance(params, LightParams):
        weights = attention_weights(match_scores(Hx, Hy, params.match), mask)
        if trace is not None:
            trace.append(weights)
        Cx = apply_attention(weights, Hy)
        return light_attconv(Hx, Cx, params.conv)
    if isinstance(params, AdvancedParams):
        src = mgran(Hx, params.source)
        foc = mgran(Hy, params.focus)
        weights = attention_weights(match_scores(src, foc, params.match), mask)
        if trace is not None:
            trace.append(weights)
        Cx = apply_attention(weights, foc)
        bene = beneficiary(Hx, params.beneficiary)
        return light_attconv(bene, Cx, params.conv)
    raise ContractError(f"attend_and_convolve: unsupported bundle {type(params).__name__}")


def intra_mask(m: int, self_mode: str) -> np.ndarray | None:
    """Build the attention mask for a text attending to itself."""
    if self_mode == "include-self":
        return None
    if self_mode == "exclude-self":
        if m == 1:
            raise EmptyContextError(
                "exclude-self with a single position leaves nothing to attend"
            )
        return ~np.eye(m, dtype=bool)
    raise ContractError(f"unknown self mode {self_mode!r}")


def attentive_pooling(Hx: ad.Node, Hy: ad.Node, params: ConvParams) -> tuple[ad.Node, ad.Node]:
    """Post-convolution attentive mean pooling over a sentence pair.

    Both sentences go through the same width-3 convolution. Each resulting
    state is scored against all states of the other sentence by dot
    product; row sums (for x) and column sums (for y) are softmax
    normalized and used as weighted-mean pooling weights. Attention acts
    only on pooling here, never on the convolution itself.
    """
    Hx2 = vanilla_conv(Hx, params)
    Hy2 = vanilla_conv(Hy, params)
    E = ad.matmul(ad.transpose(Hx2), Hy2)
    wx = ad.softmax(ad.row_sums(E))
    wy = ad.softmax(ad.row_sums(ad.transpose(E)))
    return ad.matmul(Hx2, wx), ad.matmul(Hy2, wy)


def no_conv_stack(Hx: ad.Node, Hy: ad.Node, params: NoConvParams, mask=None,
                  trace: list[ad.Node] | None = None) -> ad.Node:
    """Four layers of attend, add, fully-connected transform; no windows.

    Each layer matches the current text states against the fixed context
    states, adds the attentive context to the text state, and applies its
    own d x d transform with tanh.
    """
    H = Hx
    for layer in params.layers:
        weights = attention_weights(match_scores(H, Hy, layer.match), mask)
        if trace is not None:
            trace.append(weights)
        C = apply_attention(weights, Hy)
        H = ad.tanh(ad.add_bias(ad.matmul(layer.W, ad.add(H, C)), layer.b))
    return H
