"""A lightweight span tracer with Chrome ``trace_event`` export.

Training code marks regions with the module-level :func:`span` helper::

    from repro.telemetry import trace

    with trace.span("sweep", sweep=iteration):
        ...

Spans nest per thread (a thread-local stack records parent/child links),
carry arbitrary JSON-able attributes, and are buffered in memory until
:meth:`Tracer.save` writes them as Chrome ``trace_event`` JSON — load the
file in ``chrome://tracing`` (or Perfetto) to see the fit/sweep/cache/
merge/checkpoint waterfall across the parent and worker processes.

When no tracer is active (the default), :func:`span` returns a shared
no-op context manager: one global read and two no-op calls per region,
cheap enough to leave instrumentation in hot paths at sweep granularity.
Worker processes run their own :class:`Tracer` and ship drained events
back over the pool's reply pipe; the parent absorbs them with
:meth:`Tracer.extend`, so one trace file covers the whole cluster.  The
same spans feed ``cold profile``'s phase attribution
(:mod:`repro.telemetry.profiler`).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from .context import get_request_id


class _NullSpan:
    """Shared no-op context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager recording one complete ('X') trace event."""

    __slots__ = ("_tracer", "name", "args", "span_id", "parent_id", "_wall", "_perf")

    def __init__(self, tracer: "Tracer", name: str, args: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args
        self.span_id = 0
        self.parent_id: int | None = None
        self._wall = 0.0
        self._perf = 0.0

    def __enter__(self) -> "_SpanContext":
        tracer = self._tracer
        self.span_id = tracer._next_id()
        stack = tracer._stack()
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        self._wall = time.time()
        self._perf = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        duration = time.perf_counter() - self._perf
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        tracer._record(self, duration)
        return False


class Tracer:
    """Thread- and fork-safe buffered span recorder.

    Events are plain dicts in Chrome ``trace_event`` "X" (complete-event)
    form — ``ts``/``dur`` in microseconds, ``pid``/``tid`` identifying the
    process and thread — plus ``id`` / ``parent`` span links in ``args``
    so nesting survives even when timestamps tie.  ``max_events`` bounds
    memory on very long runs (the oldest half is dropped and counted in
    :attr:`dropped_events`, never silently).
    """

    def __init__(self, max_events: int = 200_000) -> None:
        self._events: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._id = 0
        self._dropped = 0
        self.max_events = max_events

    # -- span bookkeeping --------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _next_id(self) -> int:
        with self._lock:
            self._id += 1
            return self._id

    def span(self, name: str, **args: object) -> _SpanContext:
        return _SpanContext(self, name, args)

    def _record(self, span: _SpanContext, duration: float) -> None:
        args = {
            "id": span.span_id,
            "parent": span.parent_id,
            **span.args,
        }
        # Stamp the ambient request id so one Chrome-trace filter (or a
        # grep of the exported JSON) reconstructs a request's whole path.
        request_id = get_request_id()
        if request_id is not None:
            args.setdefault("request_id", request_id)
        event = {
            "name": span.name,
            "cat": "repro",
            "ph": "X",
            "ts": round(span._wall * 1e6, 1),
            "dur": round(duration * 1e6, 1),
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "args": args,
        }
        with self._lock:
            self._events.append(event)
            self._trim()

    def _trim(self) -> None:
        """Enforce ``max_events`` (caller holds the lock).

        Drops the oldest half of the buffer, or more when an absorbed
        batch overshot the bound by more than that, and counts the drop.
        """
        excess = len(self._events) - self.max_events
        if excess > 0:
            drop = max(excess, len(self._events) // 2)
            del self._events[:drop]
            self._dropped += drop

    # -- export ------------------------------------------------------------

    def drain(self) -> list[dict]:
        """Remove and return all buffered events (workers ship these home)."""
        with self._lock:
            events, self._events = self._events, []
            return events

    def extend(self, events: list[dict]) -> None:
        """Absorb events drained from another tracer (a worker process)."""
        with self._lock:
            self._events.extend(events)
            self._trim()

    @property
    def events(self) -> list[dict]:
        with self._lock:
            return list(self._events)

    @property
    def dropped_events(self) -> int:
        """Events discarded by the ``max_events`` bound (0: nothing lost)."""
        return self._dropped

    def to_chrome_trace(self) -> dict:
        """The full buffer as a ``chrome://tracing``-loadable object."""
        with self._lock:
            events = sorted(self._events, key=lambda e: e["ts"])
            metadata = {
                "harness": "repro.telemetry",
                "dropped_events": self._dropped,
            }
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": metadata,
        }

    def save(self, path: str | Path) -> Path:
        """Write the Chrome trace JSON to ``path`` and return it."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome_trace(), indent=1) + "\n")
        return path


#: The process-wide active tracer; ``None`` keeps every span() a no-op.
#: A plain module global (not a contextvar) on purpose: the engine's
#: dispatch threads must see the tracer the fit loop activated, and
#: contextvars do not flow into already-running pool threads.
_active: Tracer | None = None
_active_lock = threading.Lock()


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` as the process-wide tracer; returns the old one."""
    global _active
    with _active_lock:
        previous = _active
        _active = tracer
        return previous


def get_tracer() -> Tracer | None:
    return _active


def span(name: str, **args: object):
    """A span on the active tracer, or a shared no-op when tracing is off."""
    tracer = _active
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **args)
