"""Outside-in span tracer for the attconv layers.

The tracer replaces library functions with timing wrappers at every place a
module looks them up: the defining module, every ``from .x import y`` binding
in the other attconv modules, and the package namespace. Nothing inside the
library changes, so the traced run executes the same code as the untraced
one plus the wrappers.

Spans are aggregated as they close rather than stored: per span name the
tracer keeps the call count, the total time and the time covered by child
spans, so self time is total minus child time. Autodiff ops get two spans:
``autodiff.<op>.fwd`` around the op call, and ``autodiff.<op>.bw`` around the
``_backward`` closure of the node it returns, keyed by ``Node.op``.
"""

from __future__ import annotations

import sys
import time

# Layer functions traced as plain spans, as (module, attribute path). A name
# the library no longer defines is skipped and reported, not an error.
LAYER_FUNCTIONS = (
    ("data", "make_batches"),
    ("data", "Vocabulary.encode"),
    ("autodiff", "backward"),
    ("autodiff", "topo_order"),
    ("autodiff", "grad_check"),
    ("attention", "match_scores"),
    ("attention", "attention_weights"),
    ("attention", "apply_attention"),
    ("attention", "attentive_context"),
    ("layers", "window3"),
    ("layers", "light_attconv"),
    ("layers", "vanilla_conv"),
    ("layers", "gated_conv"),
    ("layers", "mgran"),
    ("layers", "beneficiary"),
    ("layers", "attend_and_convolve"),
    ("layers", "intra_attconv"),
    ("layers", "attentive_pooling"),
    ("layers", "no_conv_stack"),
    ("model", "build_model"),
    ("model", "forward_ids"),
    ("model", "forward"),
    ("model", "cross_entropy"),
    ("model", "adagrad_step"),
    ("model", "evaluate"),
    ("model", "train"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
    ("cli", "main"),
)

# Public autodiff functions that build no graph node. Every other public
# function defined in autodiff is traced as an op, so ops added later are
# picked up without editing this file.
NON_OPS = frozenset({
    "backward", "topo_order", "grad_check", "zero_grads", "assert_finite",
    "glorot", "param", "constant",
})

# Spans whose nesting is counted: ops built inside a forward pass, and
# example-level forwards made by the trainer's dev passes.
FORWARD_IDS = "model.forward_ids"
TRAIN = "model.train"
FORWARD = "model.forward"


class Tracer:
    """Install with ``install(package)``; undo with ``uninstall()``.

    The wrappers are kept lean because the autodiff ops are called hundreds
    of times per example: a row per span name is bound into each wrapper, and
    the span stack holds only the child time of each open span.
    """

    def __init__(self):
        self.rows: dict[str, list] = {}  # name -> [calls, total_s, child_s]
        self.ops_in_forward = 0
        self.forwards_in_train = 0
        self.skipped: list[str] = []
        self._stack: list[float] = []
        self._depth = {FORWARD_IDS: 0, TRAIN: 0}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _row(self, name: str) -> list:
        row = self.rows.get(name)
        if row is None:
            row = self.rows[name] = [0, 0.0, 0.0]
        return row

    def _timed(self, name: str, fn):
        row = self._row(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                row[2] += stack.pop()
                row[0] += 1
                row[1] += dt
                if stack:
                    stack[-1] += dt

        return wrapper

    def _layer_span(self, name: str, fn):
        timed = self._timed(name, fn)
        depth = self._depth
        if name in depth:
            def nested(*args, **kwargs):
                depth[name] += 1
                try:
                    return timed(*args, **kwargs)
                finally:
                    depth[name] -= 1

            return nested
        if name == FORWARD:
            def forward(*args, **kwargs):
                if depth[TRAIN]:
                    self.forwards_in_train += 1
                return timed(*args, **kwargs)

            return forward
        return timed

    def _op_span(self, op: str, fn):
        timed = self._timed(f"autodiff.{op}.fwd", fn)
        depth = self._depth

        def op_wrapper(*args, **kwargs):
            if depth[FORWARD_IDS]:
                self.ops_in_forward += 1
            out = timed(*args, **kwargs)
            node = out[0] if type(out) is tuple else out
            bw = getattr(node, "_backward", None)
            if bw is not None:
                key = getattr(node, "op", op)
                node._backward = self._timed(f"autodiff.{key}.bw", bw)
            return out

        return op_wrapper

    # -- patching ----------------------------------------------------------

    def install(self, package) -> None:
        prefix = package.__name__
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == prefix or n.startswith(prefix + "."))]
        autodiff = sys.modules.get(f"{prefix}.autodiff")
        if autodiff is not None:
            for attr, value in sorted(vars(autodiff).items()):
                if (attr.startswith("_") or attr in NON_OPS or not callable(value)
                        or getattr(value, "__module__", None) != autodiff.__name__
                        or isinstance(value, type)):
                    continue
                self._rebind(modules, autodiff, attr, self._op_span(attr, value))
        for mod_name, path in LAYER_FUNCTIONS:
            owner = sys.modules.get(f"{prefix}.{mod_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            value = getattr(owner, attr, None) if owner is not None else None
            if value is None:
                self.skipped.append(f"{mod_name}.{path}")
                continue
            self._rebind(modules, owner, attr,
                         self._layer_span(f"{mod_name}.{path}", value))

    def _rebind(self, modules, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._set(owner, attr, wrapper)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """Every span called at least once: calls, total seconds and self seconds."""
        return {
            name: {"calls": calls, "total_s": total, "self_s": total - child}
            for name, (calls, total, child) in sorted(self.rows.items())
            if calls
        }
