"""In-memory span recorder for the traced benchmark run.

A span is ``(id, name, start, end, parent, request_id)``.  The first
dotted component of ``name`` is the layer (``datasets``, ``core``,
``parallel``, ``streaming``, ``serving`` or ``bench``).  Spans are
recorded from the benchmark's own files around calls into each layer's
public functions; nothing inside ``repro`` is instrumented.  They stay in
memory and are written out once, when the run ends.

A disabled tracer still runs the wrapped calls; it records nothing, so
the untraced run pays one attribute check per call site.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("datasets", "core", "parallel", "streaming", "serving", "bench")


class Tracer:
    """Collects spans; parents come from a per-thread stack of open spans."""

    def __init__(self, enabled: bool, prefix: str = "") -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._prefix = prefix
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: str | None = None,
        request_id: str | None = None,
    ) -> str | None:
        """Add a span timed by the caller; returns its id."""
        if not self.enabled:
            return None
        if parent is None:
            stack = self._stack()
            parent = stack[-1] if stack else None
        span_id = f"{self._prefix}{next(self._ids)}"
        with self._lock:
            self.spans.append(
                {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "request_id": request_id,
                }
            )
        return span_id

    @contextmanager
    def span(
        self,
        name: str,
        request_id: str | None = None,
        parent: str | None = None,
    ):
        """Time the body as one span; yields its id (``None`` when disabled).

        The parent is the thread's innermost open span unless ``parent``
        names one, as when a span in another process caused this one.
        """
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else None
        span_id = f"{self._prefix}{next(self._ids)}"
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    {
                        "id": span_id,
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": parent,
                        "request_id": request_id,
                    }
                )

    def wrap(self, owner: object, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a traced wrapper until :meth:`unwrap`."""
        if not self.enabled:
            return
        original = getattr(owner, attribute)
        # A classmethod/staticmethod is re-wrapped as one so the patched
        # attribute binds like the original.
        raw = owner.__dict__.get(attribute) if isinstance(owner, type) else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        if isinstance(raw, classmethod):
            original = raw.__func__

            def traced_cls(cls, *args, **kwargs):
                with self.span(name):
                    return original(cls, *args, **kwargs)

            setattr(owner, attribute, classmethod(traced_cls))
            self._undo.append((owner, attribute, raw))
            return
        setattr(owner, attribute, traced)
        self._undo.append((owner, attribute, raw))

    def unwrap(self) -> None:
        """Restore every attribute :meth:`wrap` replaced (last first)."""
        while self._undo:
            owner, attribute, raw = self._undo.pop()
            if raw is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, raw)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


def durations(spans: list[dict], name: str) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def layer_of(name: str) -> str:
    layer = name.split(".", 1)[0]
    return layer if layer in LAYERS else "bench"


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_seconds(spans: list[dict]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus its children's cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    totals = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        own = span["end"] - span["start"]
        own -= _covered(span["start"], span["end"], children.get(span["id"], []))
        totals[layer_of(span["name"])] += max(own, 0.0)
    return totals
