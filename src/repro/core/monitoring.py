"""Runtime performance monitoring (paper Section II.G).

Measurement points at all levels of the FlexIO stack record the timing of
data movement and DC plug-in execution, transferred data volumes, and
memory allocations.  Records serve two consumers:

* **offline tuning** — the full trace can be dumped to a file (JSON lines)
  for post-mortem analysis;
* **runtime management** — online aggregates (per-category totals, rates,
  high-water marks) feed the data-movement scheduler and DC plug-in
  placement decisions.

Built on top of these flat records is the causal layer from
:mod:`repro.obs`: ``monitor.span(...)`` opens a span whose finished form
lands in the same trace buffer as an ordinary record carrying
``trace_id``/``span_id``/``parent_id`` extras, and ``monitor.metrics``
is a registry of counters/gauges/histograms the transports feed.
Tracing is disabled by default and costs one boolean test when off.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.names import F_LATENCY, metric_name
from repro.obs.tracing import CURRENT, Span, Tracer

#: Core field names of a serialized record; ``extra`` keys colliding with
#: one of these are namespaced under an ``x.`` prefix on dump so they can
#: never clobber a core field and the round trip stays lossless.
_CORE_FIELDS = frozenset({"category", "name", "start", "duration", "bytes"})

#: Capacity of :attr:`PerfMonitor.trace`: the newest records are kept, so
#: observing a long run never grows without bound.
TRACE_CAPACITY = 32768


@dataclass(frozen=True)
class TraceRecord:
    """One monitored event."""

    category: str       # e.g. "data_movement", "dc_plugin", "handshake"
    name: str           # e.g. variable or plug-in name
    start: float        # seconds (simulated or wall, caller's choice)
    duration: float
    bytes: int = 0
    extra: tuple = ()   # ((key, value), ...) — hashable for frozen dataclass

    def as_dict(self) -> dict:
        d = {
            "category": self.category,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "bytes": self.bytes,
        }
        for k, v in self.extra:
            if k in _CORE_FIELDS or k.startswith("x."):
                k = f"x.{k}"
            d[k] = v
        return d

    @staticmethod
    def from_dict(d: dict) -> "TraceRecord":
        """Inverse of :meth:`as_dict` (lossless round trip)."""
        extra = []
        for k, v in d.items():
            if k in _CORE_FIELDS:
                continue
            extra.append((k[2:] if k.startswith("x.") else k, v))
        return TraceRecord(
            category=d["category"],
            name=d["name"],
            start=d["start"],
            duration=d["duration"],
            bytes=d.get("bytes", 0),
            extra=tuple(sorted(extra)),
        )


@dataclass
class CategoryAggregate:
    """Online rollup for one category."""

    count: int = 0
    total_time: float = 0.0
    total_bytes: int = 0
    max_duration: float = 0.0

    def observe(self, rec: TraceRecord) -> None:
        self.count += 1
        self.total_time += rec.duration
        self.total_bytes += rec.bytes
        self.max_duration = max(self.max_duration, rec.duration)

    @property
    def mean_duration(self) -> float:
        return self.total_time / self.count if self.count else 0.0

    @property
    def throughput(self) -> float:
        """Bytes per second over the recorded busy time."""
        return self.total_bytes / self.total_time if self.total_time > 0 else 0.0


class MeasurementPoint:
    """A context manager instrumenting one operation.

    ``clock`` defaults to wall time; DES components pass ``lambda:
    env.now`` so records carry simulated time.
    """

    def __init__(
        self,
        monitor: "PerfMonitor",
        category: str,
        name: str,
        nbytes: int = 0,
        **extra: Any,
    ) -> None:
        self._monitor = monitor
        self._category = category
        self._name = name
        self._bytes = nbytes
        self._extra = extra
        self._start: Optional[float] = None

    def __enter__(self) -> "MeasurementPoint":
        self._start = self._monitor.clock()
        return self

    def add_bytes(self, n: int) -> None:
        self._bytes += n

    def __exit__(self, *exc: Any) -> None:
        assert self._start is not None
        end = self._monitor.clock()
        self._monitor.record(
            self._category,
            self._name,
            start=self._start,
            duration=end - self._start,
            nbytes=self._bytes,
            **self._extra,
        )


class PerfMonitor:
    """Per-process monitor: trace buffer + online aggregates + telemetry.

    ``trace`` is a ring of the newest :data:`TRACE_CAPACITY` records.
    ``tracing`` defaults to the process-wide setting from
    :func:`repro.obs.default_tracing` (off unless ``FLEXIO_TRACE`` is set
    or :func:`repro.obs.set_default_tracing` was called).
    """

    def __init__(
        self,
        clock=None,
        keep_trace: bool = True,
        tracing: Optional[bool] = None,
        sample_rate: Optional[float] = None,
    ) -> None:
        self.clock = clock or time.perf_counter
        self.keep_trace = keep_trace
        self.trace: deque[TraceRecord] = deque(maxlen=TRACE_CAPACITY)
        self.aggregates: dict[str, CategoryAggregate] = defaultdict(CategoryAggregate)
        #: Instrumented allocation tracking (Section II.G: "dynamic memory
        #: allocation points within FlexIO are also instrumented").
        self.current_alloc_bytes = 0
        self.peak_alloc_bytes = 0
        #: Counters / gauges / histograms (transport stats land here).
        self.metrics = MetricsRegistry()
        default_enabled, default_rate = obs.default_tracing()
        self.tracer = Tracer(
            sink=self._span_sink,
            clock=self.clock,
            enabled=default_enabled if tracing is None else bool(tracing),
            sample_rate=default_rate if sample_rate is None else float(sample_rate),
        )

    # -- tracing -----------------------------------------------------------
    @property
    def tracing_enabled(self) -> bool:
        return self.tracer.enabled

    def enable_tracing(self, sample_rate: float = 1.0) -> None:
        """Turn on span collection (``sample_rate`` keeps that fraction
        of traces, decided deterministically per root)."""
        self.tracer.enable(sample_rate)

    def disable_tracing(self) -> None:
        self.tracer.disable()

    def span(self, category: str, name: str, parent: Any = CURRENT, nbytes: int = 0, **attrs: Any):
        """Open a span (context manager).  No-op when tracing is off.

        ``parent`` joins an existing trace (a ``SpanContext``), inherits
        the current span (default), or suppresses the span and all its
        descendants (``None`` — the upstream trace was sampled out).
        """
        return self.tracer.span(category, name, parent=parent, nbytes=nbytes, **attrs)

    def begin_span(self, category: str, name: str, parent: Any = CURRENT, nbytes: int = 0, **attrs: Any):
        """Open a manual span: caller calls ``.finish()`` — for
        event-driven code (DES events) whose end is in another stack."""
        return self.tracer.begin(category, name, parent=parent, nbytes=nbytes, **attrs)

    def current_span(self):
        """The active :class:`SpanContext`, or None."""
        return self.tracer.current()

    def _span_sink(self, span: Span) -> None:
        extra = dict(span.attrs)
        extra["trace_id"] = span.trace_id
        extra["span_id"] = span.span_id
        extra["parent_id"] = span.parent_id or ""
        self.record(
            span.category,
            span.name,
            start=span.start,
            duration=(span.end or span.start) - span.start,
            nbytes=span.nbytes,
            **extra,
        )

    # ------------------------------------------------------------------
    def record(
        self,
        category: str,
        name: str,
        start: float,
        duration: float,
        nbytes: int = 0,
        **extra: Any,
    ) -> TraceRecord:
        """Record one measured duration (a finished span or ``measure()``);
        point-in-time facts go through :func:`repro.obs.emit` instead."""
        rec = TraceRecord(
            category, name, start, duration, nbytes, tuple(sorted(extra.items()))
        )
        if self.keep_trace:
            self.trace.append(rec)
        self.aggregates[category].observe(rec)
        self.metrics.histogram(metric_name(F_LATENCY, category)).observe(duration)
        return rec

    def instant(self, code: str, name: str, **attrs: Any) -> None:
        """Append an instant event (see :func:`repro.obs.emit`): stamped
        now, zero duration, kept out of the aggregates and histograms."""
        nbytes = int(attrs.pop("nbytes", 0))
        self.trace.append(TraceRecord(
            code, name, self.clock(), 0.0, nbytes, tuple(sorted(attrs.items())),
        ))

    def measure(self, category: str, name: str, nbytes: int = 0, **extra: Any) -> MeasurementPoint:
        return MeasurementPoint(self, category, name, nbytes, **extra)

    # -- memory instrumentation -------------------------------------------
    def alloc(self, nbytes: int) -> None:
        self.current_alloc_bytes += nbytes
        self.peak_alloc_bytes = max(self.peak_alloc_bytes, self.current_alloc_bytes)

    def free(self, nbytes: int) -> None:
        self.current_alloc_bytes -= nbytes
        if self.current_alloc_bytes < 0:
            raise ValueError("free() exceeds tracked allocations")

    # -- consumption --------------------------------------------------------
    def aggregate(self, category: str) -> CategoryAggregate:
        return self.aggregates[category]

    def categories(self) -> list[str]:
        return sorted(self.aggregates)

    def dump(self, path: str) -> int:
        """Write the trace as JSON lines; returns record count."""
        records = list(self.trace)  # snapshot: writers may still append
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec.as_dict()) + "\n")
        return len(records)

    @staticmethod
    def load(path: str) -> list[dict]:
        with open(path, "r", encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]

    @staticmethod
    def load_records(path: str) -> list[TraceRecord]:
        """Load a dump back into :class:`TraceRecord` objects (the exact
        inverse of :meth:`dump`)."""
        return [TraceRecord.from_dict(d) for d in PerfMonitor.load(path)]

    def export_perfetto(self, path: str, process_name: str = "flexio") -> int:
        """Write the trace as Chrome/Perfetto ``trace_event`` JSON
        (loadable in ``ui.perfetto.dev``); returns the event count."""
        from repro.obs.export import write_perfetto

        return write_perfetto(
            (rec.as_dict() for rec in list(self.trace)), path,
            process_name=process_name,
        )

    def merge_from(self, other: "PerfMonitor") -> None:
        """Online gathering: fold a remote monitor's state into ours.

        Models the paper's shipping of simulation-side monitoring data to
        the analytics side for runtime management.  Folds aggregates,
        the instrumented memory counters, and the metrics registry.
        """
        for category, agg in other.aggregates.items():
            mine = self.aggregates[category]
            mine.count += agg.count
            mine.total_time += agg.total_time
            mine.total_bytes += agg.total_bytes
            mine.max_duration = max(mine.max_duration, agg.max_duration)
        # Memory instrumentation: outstanding allocations add up; the
        # combined peak is at least each side's own peak and at least the
        # combined current level.
        self.current_alloc_bytes += other.current_alloc_bytes
        self.peak_alloc_bytes = max(
            self.peak_alloc_bytes, other.peak_alloc_bytes, self.current_alloc_bytes
        )
        self.metrics.merge_from(other.metrics)

    def report(self) -> str:
        """Human-readable per-category summary (for logs and examples)."""
        lines = [
            f"{'category':20s} {'count':>7s} {'time(s)':>10s} "
            f"{'bytes':>14s} {'mean(s)':>10s} {'MB/s':>10s}"
        ]
        for cat in self.categories():
            agg = self.aggregates[cat]
            mbps = agg.throughput / 1e6
            lines.append(
                f"{cat:20s} {agg.count:7d} {agg.total_time:10.4f} "
                f"{agg.total_bytes:14d} {agg.mean_duration:10.6f} {mbps:10.2f}"
            )
        if self.peak_alloc_bytes:
            lines.append(f"peak tracked allocation: {self.peak_alloc_bytes} bytes")
        metric_lines = self.metrics.render()
        if metric_lines:
            lines.append("-- metrics --")
            lines.extend(metric_lines)
        return "\n".join(lines)

    def summary(self) -> dict[str, dict]:
        return {
            cat: {
                "count": agg.count,
                "total_time": agg.total_time,
                "total_bytes": agg.total_bytes,
                "mean_duration": agg.mean_duration,
                "throughput": agg.throughput,
            }
            for cat, agg in self.aggregates.items()
        }
