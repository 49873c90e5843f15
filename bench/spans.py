"""In-memory spans for the traced run, and the wrappers that record them.

A span holds a name, its start and end (``time.perf_counter_ns``), the span
that was open when it started, the op it belongs to and a few counts.
Spans stay in a list and are summarised when the run ends, so nothing is
written while timing.

To see nesting across modules the traced run temporarily replaces names
that one ``mdwindow`` module looks up in another, for example
``mdwindow.oracles.iter_sums``.  ``Patches.restore`` puts every original
object back; no file of the package is touched.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Optional

_NULL = nullcontext()


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    name: str
    op: Optional[str]
    start: int
    end: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Collects spans while ``enabled``; otherwise every call is a no-op.

    Ops run one at a time from the main thread.  A span opened on another
    thread (the Monte Carlo shards) with nothing open on that thread takes
    the innermost open span of the main thread as its parent.
    """

    def __init__(self):
        self.enabled = False
        self.op: Optional[str] = None
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main: list[Span] = []

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str, **attrs) -> Optional[Span]:
        if not self.enabled:
            return None
        stack = self._stack()
        outer = stack or self._main
        parent = outer[-1].sid if outer else None
        span = Span(next(self._ids), parent, name, self.op,
                    time.perf_counter_ns(), attrs=attrs)
        stack.append(span)
        return span

    def finish(self, span: Optional[Span], keep: bool = True) -> None:
        if span is None:
            return
        span.end = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if keep:
            self.spans.append(span)

    def span(self, name: str, **attrs):
        """Context manager yielding the open span, or None when disabled."""
        if not self.enabled:
            return _NULL
        return _SpanContext(self, name, attrs)


class _SpanContext:
    __slots__ = ("tracer", "name", "attrs", "span")

    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self) -> Optional[Span]:
        self.span = self.tracer.start(self.name, **self.attrs)
        return self.span

    def __exit__(self, *exc) -> None:
        self.tracer.finish(self.span)


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> its duration minus the time its child spans cover.

    Children may overlap (parallel shards); their union is subtracted once.
    """
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - covered_ns(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }


def traced(tracer: Tracer, name: str, fn: Callable,
           attrs: Optional[Callable] = None) -> Callable:
    """`fn` wrapped in a span; `attrs(args, result)` adds counts to it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.start(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.finish(span)
        if span is not None and attrs is not None:
            span.attrs.update(attrs(args, kwargs, out))
        return out

    return wrapper


def traced_generator(tracer: Tracer, name: str, fn: Callable,
                     attrs: Optional[Callable] = None) -> Callable:
    """Generator function `fn` with one span per ``next()`` of its result,
    so time the consumer spends between items is not charged to `fn`."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)

        def items():
            while True:
                span = tracer.start(name)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer.finish(span, keep=False)
                    return
                except BaseException:
                    tracer.finish(span)
                    raise
                tracer.finish(span)
                if span is not None and attrs is not None:
                    span.attrs.update(attrs(args, kwargs, item))
                yield item

        return items()

    return wrapper


class Patches:
    """Attribute replacements on modules and classes, undone by restore()."""

    def __init__(self):
        self._saved: list = []

    def replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)
