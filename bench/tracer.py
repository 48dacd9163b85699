"""Span tracing for the benchmark, installed from outside the package.

The tracer replaces public rotprox functions with wrappers that record one span
per call: name, start, end, parent span and the kind of benchmark op running.
Callers look functions up in their own module (``rotprox.solver.correlate_stack``,
``rotprox.training.forward``), so every rotprox module-global alias of a wrapped
function is patched, not only its defining module. Spans stay in memory and are
written once, when the run ends. A span's self time is its duration minus the
durations of its direct children; the benchmark runs one thread, so children
never overlap.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field


def _file_bytes(path) -> int:
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


def _correlate_counts(args, kwargs, result):
    # Computed from the operand shapes, not measured: (H, W, Cin) image and a
    # (Cin, p, p, Cout) bank give 2*H*W*Cin*p^2*Cout flops and an im2col patch
    # matrix of H*W*Cin*p^2 float64 values.
    h, w, cin = args[0].shape
    p, cout = args[1].shape[1], args[1].shape[3]
    return {"flop": 2 * h * w * cin * p * p * cout, "patch_bytes": 8 * h * w * cin * p * p}


def _tv_counts(args, kwargs, result):
    return {
        "iters": getattr(result, "iterations", 0),
        "converged": int(bool(getattr(result, "converged", False))),
    }


def _saved_bytes(args, kwargs, result):
    return {"bytes": _file_bytes(result)}


def _read_bytes(args, kwargs, result):
    return {"bytes": _file_bytes(args[0])}


# (span name, module, attribute, counter hook). Names follow <module>.<function>;
# one name may cover several functions (both weight builders, apply+adjoint).
TARGETS = (
    ("layers.forward", "rotprox.layers", "forward", None),
    ("layers.lift_conv", "rotprox.layers", "lift_conv", None),
    ("layers.group_conv", "rotprox.layers", "group_conv", None),
    ("layers.weights", "rotprox.layers", "Lift.weights", None),
    ("layers.weights", "rotprox.layers", "GroupConv.weights", None),
    ("layers.correlate_stack", "rotprox.layers", "correlate_stack", _correlate_counts),
    ("filters.basis_stack", "rotprox.filters", "basis_stack", None),
    ("filters.image_bounds", "rotprox.filters", "image_bounds", None),
    ("filters.bounds_from_coefficients", "rotprox.filters", "bounds_from_coefficients", None),
    ("grids.rotate_image", "rotprox.grids", "rotate_image", None),
    ("grids.relative_difference", "rotprox.grids", "relative_difference", None),
    ("audit.measure_equivariance", "rotprox.audit", "measure_equivariance", None),
    ("audit.bound_inputs_for", "rotprox.audit", "bound_inputs_for", None),
    ("prox.tv_prox", "rotprox.prox", "tv_prox", _tv_counts),
    ("prox.neural_prox", "rotprox.prox", "neural_prox", None),
    ("prox.soft_threshold", "rotprox.prox", "soft_threshold", None),
    ("solver.estimate_lipschitz", "rotprox.solver", "estimate_lipschitz", None),
    ("solver.blur_downsample", "rotprox.solver", "BlurDownsample.apply", None),
    ("solver.blur_downsample", "rotprox.solver", "BlurDownsample.adjoint", None),
    ("solver.ista_step", "rotprox.solver", "ista_step", None),
    ("training.epoch", "rotprox.training", "train_denoiser", None),
    ("training.forward_with_tape", "rotprox.training", "forward_with_tape", None),
    ("training.backward", "rotprox.training", "backward", None),
    ("training.mse_loss", "rotprox.training", "mse_loss", None),
    ("training.optimizer", "rotprox.training", "Adam.apply", None),
    ("training.optimizer", "rotprox.training", "SGD.apply", None),
    ("checkpoint.save", "rotprox.checkpoint", "save", _saved_bytes),
    ("checkpoint.load", "rotprox.checkpoint", "load", _read_bytes),
    ("synthetic", "rotprox.synthetic", "ring_stack", None),
    ("synthetic", "rotprox.synthetic", "synthetic_stack", None),
    ("synthetic", "rotprox.synthetic", "synthetic_image", None),
    ("tensorio.write_eqt1", "rotprox.tensorio", "write_eqt1", _read_bytes),
)


class Tracer:
    """Records spans of wrapped calls while active; `tag` labels the running op kind."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, tag, counters]
        self.active = False
        self.tag = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.tag, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                rec[5] = hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Patch every target that exists; returns the targets this rotprox lacks."""
        missing = []
        modules = [m for n, m in list(sys.modules.items()) if n == "rotprox" or n.startswith("rotprox.")]
        for name, module_name, attr, hook in TARGETS:
            owner = sys.modules.get(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(name, original, hook)
            if path:
                self._patch(owner, leaf, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)
        return missing

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        self.active = False
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Write the recorded spans as JSON, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": n, "start": s - origin, "end": e - origin, "parent": p, "op": t, "counters": c}
            for n, s, e, p, t, c in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


@dataclass
class SpanStats:
    """Per-name aggregate: call count, self time, inclusive durations, counter sums."""

    calls: int = 0
    self_s: float = 0.0
    op_self_s: float = 0.0  # self time spent inside benchmark ops
    durations: dict = field(default_factory=dict)  # op kind -> [inclusive seconds]
    counters: dict = field(default_factory=dict)
    patch_bytes_max: int = 0


def summarize(spans: list[list]) -> dict[str, SpanStats]:
    self_time = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    stats: dict[str, SpanStats] = {}
    for i, (name, start, end, _, tag, counters) in enumerate(spans):
        st = stats.setdefault(name, SpanStats())
        st.calls += 1
        st.self_s += self_time[i]
        if tag is not None:
            st.op_self_s += self_time[i]
        st.durations.setdefault(tag, []).append(end - start)
        for key, value in (counters or {}).items():
            st.counters[key] = st.counters.get(key, 0) + value
            if key == "patch_bytes":
                st.patch_bytes_max = max(st.patch_bytes_max, value)
    return stats
