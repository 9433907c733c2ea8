"""Live telemetry export: loopback HTTP server + Prometheus exposition.

The first brick of the ROADMAP's networked control plane: while streams
are running, a tiny asyncio server on the loopback interface serves the
process's telemetry to scrapers and the ``repro.tools.monitor`` CLI —
no third-party dependency, just ``asyncio.start_server`` speaking
enough HTTP/1.1 for ``curl`` and a Prometheus scraper.

Endpoints:

* ``GET /metrics`` — Prometheus text exposition (version 0.0.4) of
  every live stream's metrics registry; series carry a ``stream``
  label, histograms render as summaries (quantiles + ``_sum`` +
  ``_count``);
* ``GET /events?n=100`` — JSONL tail of the flight recorder ring;
* ``GET /health`` — per-stream SLO verdicts as JSON;
* ``GET /streams`` — the monitor CLI's per-stream table rows;
* ``GET /`` — endpoint index.

The server runs its event loop in a daemon thread so the data plane
never awaits it; every request reads a point-in-time snapshot.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
from typing import Callable, Mapping, Optional
from urllib.parse import parse_qs, urlsplit

from repro.obs import recorder as flight_recorder
from repro.obs.health import HealthBoard, SLOPolicy
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

#: Prometheus metric-name alphabet; anything else becomes ``_``.
_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
#: Sample line shape checked by :func:`validate_exposition`.
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? "
    r"[-+]?([0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|[Nn]a[Nn]|[Ii]nf)$"
)
_TYPES = ("counter", "gauge", "summary", "histogram", "untyped")

#: Quantiles a histogram exposes when rendered as a summary.
_QUANTILES = ((0.5, 50.0), (0.95, 95.0), (0.99, 99.0))


def metric_name(name: str, prefix: str = "flexio_") -> str:
    """Sanitize a dotted instrument name to the Prometheus alphabet."""
    safe = _NAME_OK.sub("_", name)
    if not re.match(r"^[a-zA-Z_:]", safe):
        safe = "_" + safe
    return prefix + safe


def _label_str(labels: Mapping[str, object]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_NAME_OK.sub("_", k)}="{_escape(v)}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _escape(v: object) -> str:
    return str(v).replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def render_prometheus(
    registries: Mapping[str, MetricsRegistry], prefix: str = "flexio_"
) -> str:
    """Text exposition of several registries, one ``stream`` label each.

    ``registries`` maps a stream name (or ``""`` for process-level
    series, which then get no ``stream`` label) to its registry.  Series
    of the same metric across streams group under a single ``# TYPE``
    family, as the format requires.
    """
    counters: dict[str, list[tuple[dict, Counter]]] = {}
    gauges: dict[str, list[tuple[dict, Gauge]]] = {}
    histograms: dict[str, list[tuple[dict, Histogram]]] = {}
    for stream, registry in sorted(registries.items()):
        base = {"stream": stream} if stream else {}
        for c in registry.counters():
            counters.setdefault(metric_name(c.name, prefix), []).append(
                ({**base, **c.labels}, c)
            )
        for g in registry.gauges():
            gauges.setdefault(metric_name(g.name, prefix), []).append(
                ({**base, **g.labels}, g)
            )
        for h in registry.histograms():
            histograms.setdefault(metric_name(h.name, prefix), []).append(
                ({**base, **h.labels}, h)
            )
    lines: list[str] = []
    for name in sorted(counters):
        lines.append(f"# TYPE {name} counter")
        for labels, c in counters[name]:
            lines.append(f"{name}{_label_str(labels)} {float(c.value):g}")
    for name in sorted(gauges):
        lines.append(f"# TYPE {name} gauge")
        for labels, g in gauges[name]:
            lines.append(f"{name}{_label_str(labels)} {float(g.value):g}")
    for name in sorted(histograms):
        lines.append(f"# TYPE {name} summary")
        for labels, h in histograms[name]:
            for q, pct in _QUANTILES:
                ql = {**labels, "quantile": f"{q:g}"}
                v = h.percentile(pct) if h.count else 0.0
                lines.append(f"{name}{_label_str(ql)} {v:g}")
            lines.append(f"{name}_sum{_label_str(labels)} {h.total:g}")
            lines.append(f"{name}_count{_label_str(labels)} {h.count:g}")
    return "\n".join(lines) + "\n"


def validate_exposition(text: str) -> list[str]:
    """Check Prometheus text-format rules; returns problems (empty = OK).

    Covers what a scraper actually rejects: malformed sample lines,
    unknown or duplicate ``# TYPE`` declarations, samples whose family
    was never typed, and non-comment garbage.
    """
    problems: list[str] = []
    typed: set[str] = set()
    for i, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in _TYPES:
                    problems.append(f"line {i}: malformed TYPE comment: {line!r}")
                elif parts[2] in typed:
                    problems.append(f"line {i}: duplicate TYPE for {parts[2]}")
                else:
                    typed.add(parts[2])
            continue
        if not _SAMPLE_RE.match(line):
            problems.append(f"line {i}: malformed sample: {line!r}")
            continue
        name = re.split(r"[{ ]", line, maxsplit=1)[0]
        family = re.sub(r"_(sum|count|bucket|total)$", "", name)
        if name not in typed and family not in typed:
            problems.append(f"line {i}: sample {name!r} has no TYPE declaration")
    return problems


def _default_states() -> Mapping[str, object]:
    """Live streams of the in-process registry (imported lazily: core
    imports obs, so obs.live must not import core at module load)."""
    from repro.core.stream import stream_registry

    return dict(stream_registry._states)


class LiveTelemetryServer:
    """Loopback asyncio HTTP server over the process's telemetry.

    ``states`` is a zero-argument callable returning the streams to
    expose (name → object with ``monitor``/``closed``/``error``);
    defaults to the process-wide stream registry.
    """

    def __init__(
        self,
        states: Optional[Callable[[], Mapping[str, object]]] = None,
        policy: Optional[SLOPolicy] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._states = states or _default_states
        self.board = HealthBoard(policy=policy)
        self.host = host
        self.port = port          # 0 → ephemeral; fixed after start()
        self.requests = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Bind and serve in a daemon thread; returns (host, port)."""
        if self._thread is not None:
            return self.host, self.port
        self._thread = threading.Thread(
            target=self._serve, name="flexio-live", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._startup_error is not None:
            raise RuntimeError(
                f"live server failed to start: {self._startup_error!r}"
            )
        if not self._ready.is_set():
            raise RuntimeError("live server did not start within 10s")
        return self.host, self.port

    def _serve(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                asyncio.start_server(self._handle, self.host, self.port)
            )
        # flexlint: ok(FXL001) any bind/loop failure must unblock start(), whatever its type
        except Exception as exc:
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._server = server
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            server.close()
            loop.run_until_complete(server.wait_closed())
            loop.close()

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
        self._loop = None
        self._server = None
        self._thread = None
        self._ready.clear()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- request handling --------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        try:
            request_line = await reader.readline()
            while True:  # drain headers; loopback peers send few
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2 or parts[0] != "GET":
                body, ctype, status = b"method not allowed\n", "text/plain", 405
            else:
                body, ctype, status = self._route(parts[1])
            self.requests += 1
            head = (
                f"HTTP/1.1 {status} {'OK' if status == 200 else 'ERR'}\r\n"
                f"Content-Type: {ctype}; charset=utf-8\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away mid-request; nothing to clean up
        finally:
            writer.close()

    def _route(self, target: str) -> tuple[bytes, str, int]:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)
        if path == "/metrics":
            return self._metrics()
        if path == "/events":
            return self._events(query)
        if path == "/health":
            return self._health()
        if path == "/streams":
            return self._streams()
        if path == "/":
            index = {"endpoints": ["/metrics", "/events", "/health", "/streams"]}
            return json.dumps(index).encode(), "application/json", 200
        return b"not found\n", "text/plain", 404

    def _registries(self) -> dict[str, MetricsRegistry]:
        return {
            name: state.monitor.metrics
            for name, state in sorted(self._states().items())
        }

    def _metrics(self) -> tuple[bytes, str, int]:
        text = render_prometheus(self._registries())
        return text.encode(), "text/plain", 200

    def _events(self, query) -> tuple[bytes, str, int]:
        rec = flight_recorder.get()
        if rec is None:
            return b"", "application/x-ndjson", 200
        try:
            n = int(query.get("n", ["256"])[0])
        except ValueError:
            return b"bad n\n", "text/plain", 400
        stream = query.get("stream", [None])[0]
        events = rec.events(stream=stream, limit=max(0, n))
        body = "".join(json.dumps(e.as_dict()) + "\n" for e in events)
        return body.encode(), "application/x-ndjson", 200

    def _health(self) -> tuple[bytes, str, int]:
        reports = self.board.sample(self._states())
        doc = {name: r.as_dict() for name, r in reports.items()}
        return json.dumps(doc).encode(), "application/json", 200

    def _streams(self) -> tuple[bytes, str, int]:
        states = self._states()
        reports = self.board.sample(states)
        rows = []
        for name, state in sorted(states.items()):
            r = reports.get(name)
            if state.error is not None:
                status = "failed"
            elif state.closed:
                status = "closed"
            else:
                status = "open"
            log = getattr(state, "log", None)  # the stream's StepLog
            rows.append({
                "stream": name,
                "state": status,
                "transport": getattr(state, "active_transport", ""),
                "steps_per_s": r.steps_per_s if r else 0.0,
                "bytes_per_s": r.bytes_per_s if r else 0.0,
                "p99_latency": r.p99_latency if r else 0.0,
                "loss_rate": r.loss_rate if r else 0.0,
                "queue_depth": r.queue_depth if r else 0.0,
                "retained": len(log) if log is not None else 0,
                "reader_lag": log.lag() if log is not None else 0,
                "health": r.verdict.value if r else "healthy",
                "reasons": list(r.reasons) if r else [],
            })
        return json.dumps({"streams": rows}).encode(), "application/json", 200
