"""Central event table: every telemetry fact, declared once with what it does.

One fact — a step committed, a fault injected, a session resumed — is
emitted by exactly one call::

    emit(monitor, EV_STEP_COMMIT, stream, step=7, nbytes=4096)

and this table says everything that call does.  Each :class:`EventSpec`
declares

* **counters** — the metric series the event bumps, each a
  :class:`Bump` naming the metric (from :mod:`repro.obs.names`), the
  attribute that gives the increment (``None`` = 1), and, for a metric
  family, the attribute naming the member;
* **flight** — whether the event lands in the always-on flight ring
  (:mod:`repro.obs.recorder`);
* **trace** — whether it lands in the monitor's trace buffer as an
  *instant*: a record stamped with ``monitor.clock()``, category = the
  event code, name = the ``stream`` argument, zero duration.  Instants never feed the
  per-category aggregates or the ``latency.<category>`` histograms —
  those stay for measured durations (spans and ``measure()``).

Producers import the ``EV_*`` constant; an unregistered code raises
:class:`UnknownEventError` at run time, and FlexLint FXL007 rejects
unregistered literals and computed codes in ``emit()`` calls statically.
"""

from __future__ import annotations

import difflib
from typing import Any, NamedTuple, Optional

from repro.obs import names as m


class Bump(NamedTuple):
    """One counter an event increments."""

    metric: str
    #: Attribute whose value is the increment; None counts 1.
    by: Optional[str] = None
    #: For a metric family: the attribute naming the member series.
    member: Optional[str] = None


class EventSpec(NamedTuple):
    """Declaration of one telemetry event and what emitting it does."""

    code: str
    description: str
    counters: tuple = ()
    flight: bool = True
    trace: bool = False


class UnknownEventError(ValueError):
    """An event code that the central table does not declare."""

    def __init__(self, code: str, suggestion: Optional[str] = None) -> None:
        msg = f"unknown event code {code!r}"
        if suggestion:
            msg += f"; did you mean {suggestion!r}?"
        super().__init__(msg)
        self.code = code
        self.suggestion = suggestion


#: The event registry, keyed by code; filled by :func:`_event` below.
EVENTS: dict[str, EventSpec] = {}


def _event(code: str, description: str, counters: tuple = (), *,
           flight: bool = True, trace: bool = False) -> str:
    """Declare one event; returns its code for the ``EV_*`` constant."""
    if code in EVENTS:
        raise ValueError(f"duplicate event code {code!r}")
    for bump in counters:
        m.validate_metric(bump.metric)
    EVENTS[code] = EventSpec(code, description, counters, flight, trace)
    return code


# ---------------------------------------------------------------------------
# The table — the only place these strings are spelled.
# ---------------------------------------------------------------------------

# Data plane (core/stream.py)
EV_STEP_BEGIN = _event("step.begin", "a timestep was sealed and handed to the drainer")
EV_STEP_COMMIT = _event(
    "step.commit", "a step cleared the transport and became readable",
    (Bump(m.M_DRAIN_STEPS_COMMITTED), Bump(m.M_DRAIN_BYTES_COMMITTED, "nbytes")))
EV_STEP_LOST = _event(
    "step.lost", "retries exhausted; the step's payload was discarded",
    (Bump(m.M_DRAIN_STEPS_LOST),), trace=True)
EV_STEP_ABORTED = _event(
    "step.aborted", "the step's transaction aborted; payload discarded",
    (Bump(m.M_DRAIN_STEPS_LOST),), trace=True)
EV_RETRY = _event(
    "drain.retry", "a drain attempt is being retried after a fault",
    (Bump(m.M_DRAIN_RETRIES),))
EV_DRAIN_FAULT = _event(
    "drain.fault", "one drain attempt failed (will retry or fail)",
    (Bump(m.M_DRAIN_FAULTS),), flight=False, trace=True)
EV_DRAIN_RECOVERED = _event(
    "drain.recovered", "a retried send eventually succeeded",
    (Bump(m.M_DRAIN_RECOVERED),), flight=False, trace=True)
EV_DRAIN_ERROR = _event(
    "drain.error", "a step's drain failed for good",
    (Bump(m.M_DRAIN_ERRORS),), flight=False, trace=True)
EV_DRAIN_WEDGED = _event(
    "drain.wedged", "a drainer thread failed to join at stop()",
    (Bump(m.M_DRAIN_WEDGED),), trace=True)
EV_DEGRADE = _event(
    "transport.degrade", "the stream fell down the transport ladder",
    (Bump(m.M_TRANSPORT_DEGRADATIONS),), trace=True)
EV_BACKPRESSURE = _event(
    "queue.backpressure", "the writer blocked on a full drain queue",
    (Bump(m.M_BACKPRESSURE_WAITS),))
EV_QUEUE_HIGH_WATER = _event(
    "queue.high_water", "the drain queue reached a new high-water depth")
EV_STREAM_FAILED = _event(
    "stream.failed", "a stream ended abnormally (writer death)",
    (Bump(m.M_STREAM_FAILURES),), trace=True)
EV_HANDSHAKE = _event(
    "handshake.round", "one handshake-protocol accounting round",
    (Bump(m.M_HANDSHAKE_MESSAGES, "messages"),
     Bump(m.M_HANDSHAKE_CONTROL_BYTES, "nbytes")), flight=False, trace=True)
# Transports, MxN redistribution, placement
EV_FAULT = _event(
    "transport.fault", "the fault injector (or a real fault) hit one send",
    (Bump(m.F_FAULTS_INJECTED, member="kind"), Bump(m.M_FAULTS_INJECTED_TOTAL)),
    trace=True)
EV_REDIST_MOVE = _event(
    "redistribution.move", "one MxN redistribution engine move",
    (Bump(m.M_REDIST_BYTES_MOVED, "nbytes"), Bump(m.M_REDIST_STRIDE_MESSAGES, "pairs")),
    flight=False)
EV_DC_MIGRATION = _event(
    "dc.migration", "the placement controller migrated a codelet",
    flight=False, trace=True)
# Directory, sanitizer, health, recorder
EV_LEASE_REAP = _event("lease.reap", "the directory evicted an expired writer lease")
EV_ADMISSION_REJECT = _event(
    "tenant.admission.reject", "admission control rejected a tenant request",
    (Bump(m.M_TENANT_ADMISSION_REJECTED),))
EV_SANITIZER = _event(
    "sanitizer.violation", "the concurrency sanitizer recorded a violation")
EV_HEALTH = _event("health.verdict", "a stream's health verdict changed")
EV_FLIGHT_DUMP = _event("flight.dump", "the recorder wrote a dump artifact")
# Network plane (net/client.py, net/server.py)
EV_NET_CONNECT = _event("net.connect", "a client authenticated to the directory daemon")
EV_NET_DISCONNECT = _event("net.disconnect", "a client connection to the daemon ended")
EV_NET_STREAM_OPEN = _event(
    "net.stream.open", "a named stream was opened through the daemon")
EV_NET_STEP_PUBLISH = _event(
    "net.step.publish", "a writer published one step to the daemon broker",
    (Bump(m.M_NET_STEPS_PUBLISHED), Bump(m.M_NET_BYTES_PUBLISHED, "nbytes")))
EV_NET_STEP_FETCH = _event(
    "net.step.fetch", "a reader fetched one step from the daemon broker",
    (Bump(m.M_NET_STEPS_FETCHED), Bump(m.M_NET_BYTES_FETCHED, "nbytes")))
EV_NET_RECONNECT = _event(
    "net.reconnect", "a client rebuilt a connection after a network fault",
    (Bump(m.M_NET_RECONNECTS),))
EV_NET_RESUME = _event(
    "net.resume", "a client's session was resumed via its resume token",
    (Bump(m.M_NET_RESUME),))
EV_NET_SESSION_RESUMED = _event(
    "net.session.resumed", "the daemon re-bound a session to a resume token",
    (Bump(m.M_NET_RESUMES),))
EV_NET_SESSION_LOST = _event(
    "net.session_lost", "reconnect retries were exhausted; session lost",
    (Bump(m.M_NET_SESSIONS_LOST),))
EV_NET_RETRY_AFTER = _event(
    "net.retry_after", "the daemon asked a peer to back off (draining)")
EV_NET_DRAIN = _event(
    "net.drain", "the daemon entered graceful drain", (Bump(m.M_NET_DRAINS),))
EV_NET_CHECKPOINT = _event(
    "net.checkpoint", "the daemon wrote a durability checkpoint",
    (Bump(m.M_NET_CHECKPOINTS),))
EV_NET_RESTORE = _event(
    "net.restore", "the daemon restored state from a checkpoint",
    (Bump(m.M_NET_RESTORES),))
EV_NET_DUP_PUBLISH = _event(
    "net.dup_publish", "the broker suppressed a duplicate republish",
    (Bump(m.M_NET_DUP_PUBLISHES),))

#: The vocabulary FXL007 and the flight recorder validate codes against.
EVENT_CODES: frozenset[str] = frozenset(EVENTS)


def suggest(code: str) -> Optional[str]:
    """The closest registered code to a misspelled one, if any."""
    matches = difflib.get_close_matches(code, sorted(EVENT_CODES), n=1)
    return matches[0] if matches else None


def emit(monitor, code: str, stream: str = "", *, labels=None, **attrs: Any) -> None:
    """Emit one telemetry fact: everything its table entry declares.

    ``monitor`` is the :class:`~repro.core.monitoring.PerfMonitor` whose
    metrics (and, for ``trace`` events, trace buffer) the fact lands in;
    a bare :class:`~repro.obs.metrics.MetricsRegistry` for processes that
    keep no trace (the daemon, the tenant directory); or None to reach
    the flight ring only.  ``stream`` names what the fact is about (the
    flight event's stream, the trace instant's name).  ``labels`` label
    every counter the event bumps; ``attrs`` travel with the flight and
    trace records and feed the counters' ``by``/``member`` attributes.
    """
    spec = EVENTS.get(code)
    if spec is None:
        raise UnknownEventError(code, suggest(code))
    if monitor is not None:
        metrics = getattr(monitor, "metrics", monitor)
        for bump in spec.counters:
            name = bump.metric
            if bump.member is not None:
                name = m.metric_name(name, attrs[bump.member])
            metrics.counter(name, labels).inc(1 if bump.by is None else attrs[bump.by])
        if spec.trace and getattr(monitor, "keep_trace", False):
            monitor.instant(code, stream, **attrs)
    if spec.flight:
        ring = _flight.get()
        if ring is not None:
            ring.record(code, stream, **attrs)


# The recorder validates codes against EVENT_CODES above, so it is
# imported only once this module's table exists.
from repro.obs import recorder as _flight  # noqa: E402
