"""One object tying a fit's telemetry together: registry + tracer + files.

A :class:`TelemetrySession` is created per fit from the configured output
paths (``metrics_out`` / ``trace_out``).  With neither set the session is
*disabled*: every call is a cheap no-op and the training loops pay only
an attribute check per sweep — the off-by-default-cheap contract the
telemetry overhead gate (``benchmarks/perf``) enforces.

Enabled, the session owns:

* a :class:`~repro.telemetry.metrics.MetricsRegistry` plus a
  :class:`~repro.telemetry.metrics.JsonlWriter` appending to
  ``metrics.jsonl``;
* a :class:`~repro.telemetry.tracing.Tracer`, installed process-wide for
  the duration of the ``with`` block so :func:`repro.telemetry.trace.span`
  markers anywhere in the package (fast kernels, engine, checkpointing)
  land in the same buffer, saved as Chrome ``trace_event`` JSON on exit;
* the run manifest (``run.json`` next to the metrics file) written on
  :meth:`begin` so every artefact is attributable to an exact config.

Telemetry never touches the sampler's RNG, so draws are bit-identical
with the session enabled or disabled (also enforced by the perf gate).
"""

from __future__ import annotations

import math
import time
from pathlib import Path

from . import logconfig, tracing
from .manifest import MANIFEST_NAME, write_run_manifest
from .metrics import JsonlWriter, MetricsRegistry

_log = logconfig.get_logger(__name__)


class TelemetrySession:
    """Per-fit telemetry bundle; use as a context manager around the fit.

    Parameters
    ----------
    metrics_path:
        Destination for JSONL metric records; ``None`` disables metric
        emission (the in-memory registry still works when ``trace_path``
        keeps the session enabled).
    trace_path:
        Destination for the Chrome trace JSON; ``None`` disables tracing.
    """

    def __init__(
        self,
        metrics_path: str | Path | None = None,
        trace_path: str | Path | None = None,
    ) -> None:
        self.metrics_path = None if metrics_path is None else Path(metrics_path)
        self.trace_path = None if trace_path is None else Path(trace_path)
        self.enabled = metrics_path is not None or trace_path is not None
        self.metrics = MetricsRegistry()
        self.tracer = tracing.Tracer() if trace_path is not None else None
        self._writer = (
            JsonlWriter(self.metrics_path) if metrics_path is not None else None
        )
        self._previous_tracer: tracing.Tracer | None = None
        self._started = 0.0
        self._closed = False

    @classmethod
    def create(
        cls,
        metrics_path: str | Path | None = None,
        trace_path: str | Path | None = None,
    ) -> "TelemetrySession":
        return cls(metrics_path=metrics_path, trace_path=trace_path)

    @classmethod
    def disabled(cls) -> "TelemetrySession":
        return cls()

    # -- lifecycle ---------------------------------------------------------

    def begin(
        self,
        config: dict,
        seed: int,
        executor: str = "simulated",
        num_nodes: int = 1,
        num_workers: int | None = None,
        **fields: object,
    ) -> None:
        """Write the run manifest and the ``fit_start`` record.

        ``config`` must be JSON-able; it is hashed into the manifest so a
        metrics file can always be traced back to its exact settings.
        """
        self._started = time.perf_counter()
        if not self.enabled:
            return
        manifest_dir = (
            self.metrics_path.parent
            if self.metrics_path is not None
            else self.trace_path.parent  # type: ignore[union-attr]
        )
        # Address the run.json explicitly: the directory may not exist yet
        # and may carry a suffix (e.g. a `model.ckpt/` checkpoint dir),
        # which would defeat write_run_manifest's dir-vs-file heuristic.
        manifest = write_run_manifest(
            manifest_dir / MANIFEST_NAME,
            config,
            seed=seed,
            executor=executor,
            num_nodes=num_nodes,
            num_workers=num_workers,
        )
        _log.info("telemetry enabled: manifest -> %s", manifest)
        self.emit(
            "fit_start",
            seed=seed,
            executor=executor,
            num_nodes=num_nodes,
            num_workers=num_workers,
            **fields,
        )

    def activate(self) -> "TelemetrySession":
        """Install the session's tracer process-wide (undone by :meth:`close`).

        Equivalent to entering the context manager; offered for call sites
        whose fit loop is too deeply nested for another ``with`` level.
        """
        return self.__enter__()

    def __enter__(self) -> "TelemetrySession":
        if self.tracer is not None:
            self._previous_tracer = tracing.set_tracer(self.tracer)
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Restore the tracer, save the trace file, close the writer."""
        if self._closed:
            return
        self._closed = True
        if self.tracer is not None:
            tracing.set_tracer(self._previous_tracer)
            saved = self.tracer.save(self.trace_path)
            _log.info("wrote trace -> %s", saved)
        if self._writer is not None:
            self._writer.close()

    # -- emission ----------------------------------------------------------

    def emit(self, kind: str, **fields: object) -> None:
        """Append one JSONL record (no-op without a metrics file)."""
        if self._writer is not None:
            self._writer.write(kind, **fields)

    def emit_snapshot(self, **fields: object) -> None:
        """Append the registry aggregate as a ``metrics`` record."""
        if self._writer is not None:
            self._writer.write("metrics", **fields, **self.metrics.snapshot())

    def set_gauges(self, **values: object) -> None:
        """Set several registry gauges at once, skipping ``None`` values.

        The convenience behind stride-gated quality streaming
        (:mod:`repro.diagnostics.quality`): its signals are optional per
        record — ``None`` means "not measured this sweep" and leaves the
        gauge at its previous value.
        """
        for name, value in values.items():
            if value is not None:
                self.metrics.gauge(name).set(float(value))  # type: ignore[arg-type]

    def end(self, **fields: object) -> None:
        """Emit the terminal ``fit_end`` record (monitor's stop signal)."""
        if not self.enabled:
            return
        elapsed = time.perf_counter() - self._started if self._started else None
        self.emit_snapshot()
        self.emit("fit_end", elapsed_seconds=elapsed, **fields)

    # -- convergence-monitor integration -----------------------------------

    def likelihood_sink(self, num_tokens: int):
        """A ``ConvergenceMonitor.attach``-able callback feeding the registry.

        Sets the ``log_likelihood`` gauge and a ``perplexity`` gauge
        (``exp(-ll / num_tokens)`` — the collapsed-joint proxy; the joint
        includes the non-word blocks, so treat it as a trend signal, not a
        held-out perplexity).  The monitor's own evaluation is reused —
        the likelihood is never computed twice.
        """
        log_likelihood = self.metrics.gauge("log_likelihood")
        perplexity = self.metrics.gauge("perplexity")
        tokens = max(int(num_tokens), 1)

        def sink(value: float) -> None:
            log_likelihood.set(value)
            try:
                perplexity.set(math.exp(-value / tokens))
            except OverflowError:
                perplexity.set(math.inf)

        return sink

    # -- worker-process integration -----------------------------------------

    def _span_sink(self) -> tracing.Tracer | None:
        """This session's tracer, else the process-wide one (``cold profile``
        installs a bare tracer with no metrics/trace files at all)."""
        return self.tracer if self.tracer is not None else tracing.get_tracer()

    def worker_config(self) -> dict:
        """The picklable knobs a worker process needs to mirror telemetry."""
        import logging

        root = logconfig.get_logger(logconfig.ROOT_LOGGER_NAME)
        level = root.getEffectiveLevel()
        return {
            "enabled": self.enabled,
            "trace": self._span_sink() is not None,
            "log_level": level if level != logging.NOTSET else logging.WARNING,
        }

    def absorb_worker_payload(self, payload: dict) -> None:
        """Fold a worker reply's logs and spans into this session."""
        records = payload.get("logs")
        if records:
            logconfig.replay_records(records)
        spans = payload.get("spans")
        tracer = self._span_sink()
        if spans and tracer is not None:
            tracer.extend(spans)


#: Shared disabled session for call sites that want a never-None default.
NULL_SESSION = TelemetrySession.disabled()
