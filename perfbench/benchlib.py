"""Helpers of the pafit benchmark: in-memory spans, self time, percentiles
and output-tree digests.

Spans are recorded around calls into the package from the benchmark's own
files: :class:`Tracer` swaps a wrapper into every module namespace (and
class) that binds a traced function, so callers that imported the function
by name are traced too. Per-edge and per-trial callables must never be
traced; they run hundreds of thousands of times per pass.
"""

from __future__ import annotations

import functools
import hashlib
import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, [])):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


def outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called ``name`` with no ancestor of the same name (no recursion
    double counting)."""
    result = []
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name != name:
            parent = spans[parent].parent
        if parent < 0:
            result.append(span)
    return result


def tail_percentile(samples: list[float], min_beyond: int = 10):
    """(median, sample count, p, p-th percentile) for the highest p in
    (90, 99, 99.9) with at least ``min_beyond`` samples beyond it; p and the
    percentile are None when no such p exists."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    best_p = best_value = None
    for p in (90.0, 99.0, 99.9):
        beyond = math.floor(n * (100.0 - p) / 100.0 + 1e-9)
        if beyond >= min_beyond:
            best_p, best_value = p, ordered[n - beyond - 1]
    return statistics.median(ordered), n, best_p, best_value


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


class Tracer:
    """Records spans (name, start, end, parent) in memory while installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn: Callable, name: str, before=None, after=None) -> Callable:
        """Wrap ``fn`` in a span. ``before(args, kwargs)`` runs first and its
        value goes to ``after(pre, args, kwargs, result)``, which returns the
        span's counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = before(args, kwargs) if before else None
            index = len(self.spans)
            span = Span(name, self.clock(), 0.0, self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = self.clock()
            if after:
                span.counts = after(pre, args, kwargs, result)
            return result

        return traced

    def install(self, owner, attr: str, name: str, *, package: str, before=None, after=None) -> None:
        """Trace ``owner.attr`` and every module-level binding of the same
        function object inside ``package``."""
        original = getattr(owner, attr)
        wrapper = self.wrap(original, name, before, after)
        targets = [owner] + [
            module
            for key, module in list(sys.modules.items())
            if module is not None
            and module is not owner
            and (key == package or key.startswith(package + "."))
        ]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)
                    self._undo.append((target, key, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def reset(self) -> None:
        self.spans = []
        self._stack = []
