"""Span tracing around moekit's public functions, installed from outside.

``Tracer.install`` wraps every public function of each moekit module (the
names in its ``__all__`` that the module itself defines) plus the two
methods that split a training step, ``ToyModel.logits`` and
``GradTape.backward``. Each wrapper is rebound at every name a caller looks
it up by: the defining module's attribute, and every other moekit module
that imported the function by name (``from .arch import forward_layer``).
``Tracer.remove`` puts every original back, and ``Tracer.unrestored`` checks
that it did.

A span is (name, start, end, parent). Spans are recorded only inside a root
span opened with ``Tracer.root`` (one per op, or one for set-up), so calls
the benchmark makes to check results stay out of the trace. Spans are kept
in memory and written out once, by ``Tracer.write``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import inspect
import time
from collections import Counter, defaultdict

WRAPPED = "__perfbench_original__"

# Methods traced in addition to module functions: (module, class, method).
METHODS = (("distill", "ToyModel", "logits"), ("tensor", "GradTape", "backward"))

# How much longer a root span may be than the op timer read inside it.
CLOCK_SLACK_S = 0.005


def _logits_name(args, kwargs) -> str:
    # ToyModel.logits(self, x, tape=None): a tape means a training forward,
    # no tape means the held-out evaluation.
    tape = args[2] if len(args) > 2 else kwargs.get("tape")
    return "distill.ToyModel.logits_tape" if tape is not None else "distill.ToyModel.logits_eval"


class Tracer:
    """Collects spans and boundary counts for calls made inside root spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._last_root = -1
        self._clocked: dict[int, float] = {}  # root index -> the op's own timer reading
        self._bindings: list[tuple[object, str, object]] = []  # (owner, attr, original)

    # -- installing and removing -------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap and rebind; ``modules`` maps layer name to imported module."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._bind(mod, attr, wrappers[value])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = vars(cls)[meth]
            name = _logits_name if meth == "logits" else f"{layer}.{cls_name}.{meth}"
            self._bind(cls, meth, self._wrap(name, fn))

    def _bind(self, owner, attr: str, wrapper) -> None:
        self._bindings.append((owner, attr, getattr(wrapper, WRAPPED)))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    @staticmethod
    def snapshot(modules: dict) -> dict:
        """Every binding a traced caller can look up: module and traced-class attributes."""
        owners = list(modules.values())
        owners += [getattr(modules[layer], cls) for layer, cls, _ in METHODS]
        return {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}

    @classmethod
    def unrestored(cls, modules: dict, before: dict) -> list[str]:
        """Bindings that differ from ``before`` or still hold a wrapper."""
        after = cls.snapshot(modules)
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for (owner, attr) in before.keys() | after.keys()
            if before.get((owner, attr)) is not after.get((owner, attr))
            or hasattr(after.get((owner, attr)), WRAPPED)
        ]

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            span = [label, 0.0, 0.0, stack[-1]]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result

        setattr(traced, WRAPPED, fn)
        return traced

    def clock(self, seconds: float) -> None:
        """Record the op's own timer reading, taken inside the last root span."""
        self._clocked[self._last_root] = seconds

    @contextlib.contextmanager
    def root(self, name: str):
        """Open a root span; wrapped calls inside it are recorded as its descendants."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        idx = self._last_root = len(self.spans)
        span = [name, time.perf_counter(), 0.0, -1]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> tuple[list[float], list[int]]:
        """Per-span self time (duration minus child durations) and root index."""
        self_s = [end - start for _, start, end, _ in self.spans]
        root = list(range(len(self.spans)))
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                self_s[parent] -= end - start
                root[i] = root[parent]
        return self_s, root

    def summary(self, root_name: str) -> dict:
        """Totals over the spans under roots called ``root_name``.

        Returns roots (count), wall_s (sum of root durations), other_s (root
        self time: time in the op outside every traced call), and per span
        name its self_s, total_s (inclusive) and calls.
        """
        self_s, root = self.self_times()
        per = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        out = {"roots": 0, "wall_s": 0.0, "other_s": 0.0, "names": per}
        for i, (name, start, end, parent) in enumerate(self.spans):
            if self.spans[root[i]][0] != root_name:
                continue
            if parent < 0:
                out["roots"] += 1
                out["wall_s"] += end - start
                out["other_s"] += self_s[i]
                continue
            rec = per[name]
            rec["self_s"] += self_s[i]
            rec["total_s"] += end - start
            rec["calls"] += 1
        return out

    def check(self) -> list[str]:
        """Checks on the recorded spans.

        Every child lies inside its parent, siblings do not overlap and no
        self time is negative. Summed over a root's tree, the self times
        plus the root's own remainder ("other") equal the root's duration by
        construction, so they are compared with an independent reading
        instead: the op's own timer (``clock``), read inside the root. The
        sum may exceed it only by the few statements between the two clocks.
        """
        problems = []
        self_s, root = self.self_times()
        last_child_end: dict[int, float] = {}
        tree_self: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            tree_self[root[i]] += self_s[i]
            if end < start:
                problems.append(f"span {i} {name} ends before it starts")
            if self_s[i] < -1e-9:
                problems.append(f"span {i} {name} has negative self time {self_s[i]:.3g} s")
            if parent < 0:
                continue
            p_start, p_end = self.spans[parent][1], self.spans[parent][2]
            if start < p_start or end > p_end:
                problems.append(f"span {i} {name} is not inside its parent {parent}")
            if start < last_child_end.get(parent, p_start):
                problems.append(f"span {i} {name} overlaps a sibling")
            last_child_end[parent] = end
        for r, timed in self._clocked.items():
            gap = tree_self[r] - timed
            if not -1e-9 <= gap <= CLOCK_SLACK_S:
                problems.append(
                    f"root {r}: self times sum to {tree_self[r]!r} s, the op timed {timed!r} s"
                )
        return problems[:10]

    def write(self, path) -> None:
        """Write every span as gzipped CSV, times in seconds from the first span."""
        with gzip.open(path, "wt", newline="", compresslevel=1) as f:
            w = csv.writer(f)
            w.writerow(["span", "parent", "name", "start_s", "end_s"])
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent) in enumerate(self.spans):
                w.writerow([i, parent, name, f"{start - t0:.9f}", f"{end - t0:.9f}"])


# -- counts taken at layer boundaries ---------------------------------------


def _observe_plan(counts, args, plan) -> None:
    counts["plan_calls"] += 1
    counts["plan_attempted"] += plan.num_tokens * plan.k
    counts["plan_kept"] += int(plan.expert_load.sum())
    counts["plan_slots"] += plan.num_experts * plan.capacity


def _observe_scatter(counts, args, buffers) -> None:
    e, c, m = buffers.data.shape
    counts["scatter_calls"] += 1
    counts["buffer_bytes"] += e * c * m * 8  # computed from the (E, c, M) float64 shape


def _observe_backward(counts, args, result) -> None:
    counts["backward_calls"] += 1
    counts["tape_nodes"] += len(args[0])


_OBSERVERS = {
    "gating.build_dispatch_plan": _observe_plan,
    "gating.scatter_tokens": _observe_scatter,
    "tensor.GradTape.backward": _observe_backward,
}
