"""Hierarchical spans with monotonic timings.

A :class:`Tracer` collects a forest of :class:`Span` trees.  The current
span stack lives in a :mod:`contextvars` variable, so nesting is tracked
per thread (and per async task) without locks; only attaching a finished
root to the tracer takes the tracer's lock.

The one instrumentation primitive is :func:`span`:

* with **no tracer active and no** ``collect`` **dict** it returns a
  shared no-op context manager — the untraced hot path pays one
  contextvar read and two trivial method calls, and reads no clock;
* with a tracer active it opens a child of the current span (or a new
  root) and closes it on exit, exception or not;
* with a ``collect`` dict it adds the elapsed seconds under the span
  name — which is how a caller times one phase without a tracer
  (a migration's ``blocked_ms``).

The tracer is the one timer in the package: metrics count, and
``repro trace`` and ``repro stats`` read their timings off a tracer.

Exportable as a JSON span tree via :meth:`Tracer.to_json`.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter
from typing import Any, Iterator, Optional

_tracer_var: ContextVar[Optional["Tracer"]] = ContextVar(
    "repro_obs_tracer", default=None
)
_stack_var: ContextVar[tuple["Span", ...]] = ContextVar(
    "repro_obs_span_stack", default=()
)


class Span:
    """One timed operation; children are operations it performed."""

    __slots__ = ("name", "attrs", "start", "end", "children", "status",
                 "error")

    def __init__(self, name: str, attrs: Optional[dict] = None) -> None:
        self.name = name
        self.attrs = attrs or {}
        self.start = perf_counter()
        self.end: Optional[float] = None
        self.children: list["Span"] = []
        self.status = "open"
        self.error: Optional[str] = None

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration_seconds(self) -> float:
        return ((self.end if self.end is not None else perf_counter())
                - self.start)

    @property
    def duration_ms(self) -> float:
        return self.duration_seconds * 1000.0

    def iter_spans(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def leaves(self) -> list["Span"]:
        return [s for s in self.iter_spans() if not s.children]

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "name": self.name,
            "duration_ms": round(self.duration_ms, 4),
            "status": self.status,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.error is not None:
            out["error"] = self.error
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out


class Tracer:
    """Collects span trees; activate with :func:`tracing`."""

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._lock = threading.Lock()
        self._open = 0

    # -- bookkeeping (called by the span context manager) ------------------

    def _opened(self, span: Span, parent: Optional[Span]) -> None:
        with self._lock:
            self._open += 1
            if parent is None:
                self.roots.append(span)
        if parent is not None:
            parent.children.append(span)

    def _closed(self, span: Span) -> None:
        with self._lock:
            self._open -= 1

    # -- inspection --------------------------------------------------------

    def open_span_count(self) -> int:
        """Spans entered but not yet exited (0 after a balanced run)."""
        with self._lock:
            return self._open

    def iter_spans(self) -> Iterator[Span]:
        for root in list(self.roots):
            yield from root.iter_spans()

    def total_ms(self) -> float:
        return sum(root.duration_ms for root in self.roots)

    def aggregate(self) -> dict[str, dict]:
        """Per-name totals: ``{name: {"count": n, "total_ms": x}}``."""
        out: dict[str, dict] = {}
        for span in self.iter_spans():
            entry = out.setdefault(
                span.name, {"count": 0, "total_ms": 0.0}
            )
            entry["count"] += 1
            entry["total_ms"] += span.duration_ms
        for entry in out.values():
            entry["total_ms"] = round(entry["total_ms"], 4)
        return out

    def to_dict(self) -> dict:
        return {"spans": [root.to_dict() for root in self.roots]}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def current_tracer() -> Optional[Tracer]:
    return _tracer_var.get()


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Activate *tracer* (or a fresh one) for the enclosed block."""
    tracer = tracer if tracer is not None else Tracer()
    token = _tracer_var.set(tracer)
    try:
        yield tracer
    finally:
        _tracer_var.reset(token)


class _NullSpan:
    """Shared no-op context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    __slots__ = ("tracer", "name", "attrs", "collect", "span", "started",
                 "token")

    def __init__(self, tracer, name, attrs, collect):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.collect = collect
        self.span: Optional[Span] = None
        self.token = None

    def __enter__(self) -> Optional[Span]:
        self.started = perf_counter()
        tracer = self.tracer
        if tracer is not None:
            stack = _stack_var.get()
            parent = stack[-1] if stack else None
            self.span = Span(self.name, self.attrs)
            self.span.start = self.started
            tracer._opened(self.span, parent)
            self.token = _stack_var.set(stack + (self.span,))
        return self.span

    def __exit__(self, exc_type, exc_value, _tb) -> bool:
        ended = perf_counter()
        elapsed = ended - self.started
        span = self.span
        if span is not None:
            span.end = ended
            if exc_type is None:
                span.status = "ok"
            else:
                span.status = "error"
                span.error = f"{exc_type.__name__}: {exc_value}"
            if self.token is not None:
                _stack_var.reset(self.token)
            self.tracer._closed(span)
        if self.collect is not None:
            self.collect[self.name] = (
                self.collect.get(self.name, 0.0) + elapsed
            )
        return False


def span(name: str, collect: Optional[dict] = None, **attrs):
    """Time one operation under *name*.

    Returns a context manager.  See the module docstring for what it
    does under each observability mode; with no tracer active and no
    *collect* dict given, it is a shared no-op.
    """
    tracer = _tracer_var.get()
    if tracer is None and collect is None:
        return _NULL_SPAN
    return _ActiveSpan(tracer, name, attrs, collect)
