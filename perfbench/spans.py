"""In-memory span recorder for the traced benchmark run.

A span is (op index, name, start, end, parent). Spans are recorded only
while an op root is open, so calls made outside the measured op (output
checks, warm-up) leave no trace. With ``enabled=False`` every method is a
no-op, which is how the untraced run measures the end-to-end metrics.

Calls the benchmark makes itself are wrapped with :meth:`Tracer.span`.
Calls that happen *inside* a ``repro`` function (for example the plan
walk inside ``AutoExecutorRule.apply``) are wrapped by
:meth:`Tracer.patch`, which swaps the function for a timing wrapper in
every loaded ``repro`` module that refers to it, and restores it on
:meth:`Tracer.restore`.
"""
from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    op: int
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []
        #: op index -> host factor applied to that op's span times
        self.scale: dict[int, float] = {}

    @contextmanager
    def root(self, op: int, name: str = "op"):
        """Open the root span of op ``op``; nested spans attach to it."""
        if not self.enabled:
            yield
            return
        self._op = op
        with self._open(name):
            yield
        self._op = -1

    @contextmanager
    def span(self, name: str):
        if not self.enabled or not self._stack:
            yield
            return
        with self._open(name):
            yield

    @contextmanager
    def _open(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(self._op, name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def patch(self, owner, attr: str, name_of) -> None:
        """Wrap ``owner.attr`` in a span named ``name_of(*args, **kwargs)``.

        ``owner`` is a class (the method is replaced on it) or a module, in
        which case every loaded ``repro`` module holding the same function
        object is patched too, so ``from x import f`` call sites are covered.
        """
        if not self.enabled:
            return
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name_of(*args, **kwargs)):
                return orig(*args, **kwargs)

        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod_name.split(".")[0] == "repro" and mod is not None
                for key, val in vars(mod).items()
                if val is orig
            ]
        for obj, key in targets:
            self._patches.append((obj, key, getattr(obj, key)))
            setattr(obj, key, wrapper)

    def restore(self) -> None:
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches.clear()

    # ------------------------------------------------------------------
    # aggregation

    def self_times(self) -> list[float]:
        """Self time (seconds) of every span: duration minus its children."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def per_op_self(self) -> dict[int, dict[str, float]]:
        """op index -> span name -> summed self time in seconds, scaled."""
        out: dict[int, dict[str, float]] = {}
        for s, st in zip(self.spans, self.self_times()):
            d = out.setdefault(s.op, {})
            d[s.name] = d.get(s.name, 0.0) + st * self.scale.get(s.op, 1.0)
        return out

    def durations(self, name: str) -> list[float]:
        """Scaled duration of every span called ``name``."""
        return [
            (s.end - s.start) * self.scale.get(s.op, 1.0) for s in self.spans if s.name == name
        ]

    def check_nesting(self) -> None:
        """Every child lies inside its parent and belongs to the same op."""
        for s in self.spans:
            if s.parent < 0:
                continue
            p = self.spans[s.parent]
            if not (p.op == s.op and p.start <= s.start and s.end <= p.end):
                raise AssertionError(f"span {s.name} escapes its parent {p.name}")


def median_per_op(per_op: dict[int, dict[str, float]], name: str) -> float:
    """Median over ops of a span's per-op self time, in ms (0 if absent)."""
    vals = [d.get(name, 0.0) for d in per_op.values()]
    return 1e3 * statistics.median(vals) if vals else 0.0
