"""Unified observability layer for the FlexIO stack (Section II.G, grown up).

The post-hoc pieces, all feeding one record stream:

* :mod:`repro.obs.tracing` — span-based tracing with trace/span/parent
  IDs propagated writer → handshake → redistribution → transport → DC
  plug-in, so one timestep can be followed end to end;
* :mod:`repro.obs.metrics` — counters, gauges, and log-bucketed
  histograms with percentile queries (per-stream/per-tenant labels);
* :mod:`repro.obs.export` — JSONL (via ``PerfMonitor.dump``) and
  Chrome/Perfetto ``trace_event`` JSON, loadable in ``ui.perfetto.dev``;
* :mod:`repro.obs.analysis` — per-stage breakdowns, critical-path
  extraction, and bottleneck hints for the advisor and the adaptive
  controllers.

And the always-on telemetry plane (DESIGN.md §12):

* :mod:`repro.obs.events` — the central event table and :func:`emit`,
  the one call per telemetry fact: each entry declares the counters an
  event bumps and whether it lands in the flight ring and the trace
  (enforced at run time and statically by FlexLint FXL007);
* :mod:`repro.obs.recorder` — the flight recorder: a fixed-capacity
  ring of compact events, dumped to a JSON artifact on any fault;
* :mod:`repro.obs.snapshot` / :mod:`repro.obs.health` — periodic delta
  snapshots of the metrics registry feeding per-stream SLO verdicts;
* :mod:`repro.obs.live` — loopback HTTP export: Prometheus text
  exposition, flight-event JSONL tail, health/stream JSON.

Tracing is off by default (the hot path pays one boolean test).  Enable
it per monitor (``monitor.enable_tracing()``), per stream via the XML
hint ``trace=true``, globally via :func:`set_default_tracing`, or with
the ``FLEXIO_TRACE=1`` environment variable.  The flight recorder is
the opposite: on by default, disabled with ``FLEXIO_FLIGHT=0``.
"""

from __future__ import annotations

import os

from repro.obs.tracing import (
    CURRENT,
    NOOP_SPAN,
    Span,
    SpanContext,
    Tracer,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.export import is_span_record, to_perfetto, write_perfetto
from repro.obs.analysis import (
    BottleneckHint,
    CriticalHop,
    FaultSummary,
    SpanNode,
    StageStat,
    build_traces,
    critical_path,
    fault_summary,
    find_bottleneck,
    longest_trace,
    stage_breakdown,
)
from repro.obs.events import EVENT_CODES, EventSpec, UnknownEventError, emit
from repro.obs.recorder import FlightEvent, FlightRecorder, load_dump
from repro.obs.snapshot import DeltaSnapshot, SnapshotCollector
from repro.obs.health import (
    HealthBoard,
    HealthReport,
    SLOPolicy,
    StreamHealthModel,
    Verdict,
)
from repro.obs.live import (
    LiveTelemetryServer,
    render_prometheus,
    validate_exposition,
)

_DEFAULT = {"enabled": False, "sample_rate": 1.0}

_TRUTHY = ("1", "true", "yes", "on")


def set_default_tracing(enabled: bool, sample_rate: float = 1.0) -> None:
    """Process-wide default applied to monitors created afterwards."""
    _DEFAULT["enabled"] = bool(enabled)
    _DEFAULT["sample_rate"] = float(sample_rate)


def default_tracing() -> tuple[bool, float]:
    """(enabled, sample_rate) for a new monitor; honours ``FLEXIO_TRACE``."""
    env = os.environ.get("FLEXIO_TRACE", "").strip().lower()
    if env in _TRUTHY:
        return True, float(_DEFAULT["sample_rate"])
    return bool(_DEFAULT["enabled"]), float(_DEFAULT["sample_rate"])


__all__ = [
    "BottleneckHint",
    "Counter",
    "CriticalHop",
    "CURRENT",
    "DeltaSnapshot",
    "EVENT_CODES",
    "EventSpec",
    "FaultSummary",
    "fault_summary",
    "FlightEvent",
    "FlightRecorder",
    "Gauge",
    "HealthBoard",
    "HealthReport",
    "Histogram",
    "LiveTelemetryServer",
    "MetricsRegistry",
    "NOOP_SPAN",
    "SLOPolicy",
    "SnapshotCollector",
    "Span",
    "SpanContext",
    "SpanNode",
    "StageStat",
    "StreamHealthModel",
    "Tracer",
    "UnknownEventError",
    "Verdict",
    "build_traces",
    "critical_path",
    "default_tracing",
    "emit",
    "find_bottleneck",
    "is_span_record",
    "load_dump",
    "longest_trace",
    "render_prometheus",
    "set_default_tracing",
    "stage_breakdown",
    "to_perfetto",
    "validate_exposition",
    "write_perfetto",
]
