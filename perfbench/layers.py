"""Per-layer timing from outside the program.

The traced run wraps the public entry points of each layer, patching
every name where its callers look it up (a class attribute, or the
module global a caller imported by name).  Each wrapped call becomes a
span; a span's *self* time is its duration minus the time its child
spans cover, so the per-layer self times partition the wrapped time.

Spans are written in :meth:`repro.core.monitoring.PerfMonitor.dump`
JSONL form (``category``/``name``/``start``/``duration`` plus
``trace_id``/``span_id``/``parent_id``), which ``python -m
repro.tools.trace`` and its ``--perfetto`` flag load.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Optional

#: Spans kept for the dump; later spans still count toward the totals.
MAX_DUMP_SPANS = 100_000


class SpanTracer:
    """Thread-aware span recorder with streaming self-time totals.

    Totals count the spans that start while a timed window is open
    (:meth:`open_window` .. :meth:`close_window`, possibly several per
    run); the dump keeps the first :data:`MAX_DUMP_SPANS` spans.
    """

    def __init__(self, prefix: str = "b") -> None:
        self.prefix = prefix
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        #: (name, layer, start, duration, self, trace_id, span_id,
        #: parent_id, step) — appended under the lock.
        self.spans: list[tuple] = []
        #: Step the main thread is working on (set by the workload loop).
        self.step: Optional[int] = None
        #: Timed windows as [open, close] pairs; close is +inf while open.
        self.windows: list[list] = []
        #: name -> [calls, self seconds, inclusive seconds] in the window.
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        #: (name, step) -> self seconds in the window (main thread only).
        self.step_self: dict[tuple, float] = defaultdict(float)
        #: name -> summed count attribute (rows in/out and the like),
        #: added by ``on_result`` callbacks while the window is open.
        self.counts: dict[str, float] = defaultdict(float)
        #: Program objects seen by the wrappers (e.g. the stream state).
        self.objects: dict[str, object] = {}

    def open_window(self) -> None:
        self.windows.append([time.perf_counter(), float("inf")])

    def close_window(self) -> None:
        self.windows[-1][1] = time.perf_counter()

    def in_window(self, t: float) -> bool:
        return in_windows(self.windows, t)

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def begin_step(self, step: int) -> None:
        """Open the root span of one benchmark step (main thread)."""
        self.step = step
        self._stack().append(
            [f"{self.prefix}s{step:06d}", f"{self.prefix}{next(self._ids)}",
             time.perf_counter(), 0.0, "bench.step"]
        )

    def end_step(self) -> None:
        st = self._stack()
        trace_id, span_id, t0, child, _ = st.pop()
        self._finish(st, "bench.step", "bench", t0, child, trace_id, span_id)

    def _finish(self, st, name, layer, t0, child, trace_id, span_id) -> None:
        dur = time.perf_counter() - t0
        parent_id = ""
        # A span inside a span of the same name (encode_frame calling
        # encode_var, get_step calling step_available) adds to its self
        # time only, so inclusive totals count each interval once.
        nested = False
        if st:
            st[-1][3] += dur
            parent_id = st[-1][1]
            nested = st[-1][4] == name
        step = (self.step if threading.current_thread() is threading.main_thread()
                else None)
        self_t = dur - child
        with self._lock:
            if len(self.spans) < MAX_DUMP_SPANS:
                self.spans.append((name, layer, t0, dur, self_t, trace_id,
                                   span_id, parent_id, step))
            if in_windows(self.windows, t0):
                tot = self.totals[name]
                tot[0] += 1
                tot[1] += self_t
                tot[2] += 0.0 if nested else dur
                if step is not None:
                    self.step_self[(name, step)] += self_t

    def wrap(self, name: str, layer: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name`` of ``layer``; ``on_result(args,
        result)`` may add to :attr:`counts` (called outside the span)."""
        tracer = self

        def traced(*args, **kwargs):
            st = tracer._stack()
            span_id = f"{tracer.prefix}{next(tracer._ids)}"
            trace_id = st[-1][0] if st else f"{tracer.prefix}t{span_id}"
            frame = [trace_id, span_id, time.perf_counter(), 0.0, name]
            st.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                st.pop()
                tracer._finish(st, name, layer, frame[2], frame[3],
                               trace_id, span_id)
            if on_result is not None and tracer.in_window(frame[2]):
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path: str) -> int:
        with self._lock:
            rows = list(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for s in rows:
                fh.write(json.dumps(span_record(s)) + "\n")
        return len(rows)


def in_windows(windows: list, t: float) -> bool:
    return any(a <= t <= b for a, b in windows)


def span_record(s: tuple) -> dict:
    name, layer, t0, dur, self_t, trace_id, span_id, parent_id, step = s[:9]
    rec = {
        "category": layer, "name": name, "start": t0, "duration": dur,
        "bytes": 0, "trace_id": trace_id, "span_id": span_id,
        "parent_id": parent_id, "self": self_t,
    }
    if step is not None:
        rec["step"] = step
    return rec


def load_spans(path: str) -> list[tuple]:
    """Inverse of :meth:`SpanTracer.dump` (daemon-side spans)."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            d = json.loads(line)
            out.append((d["name"], d["category"], d["start"], d["duration"],
                        d["self"], d["trace_id"], d["span_id"], d["parent_id"],
                        d.get("step")))
    return out


# ---------------------------------------------------------------------------
# Wrapper installation
# ---------------------------------------------------------------------------

def _patch(owner, attr: str, tracer: SpanTracer, name: str, layer: str,
           on_result=None) -> None:
    fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(fn, property):
        setattr(owner, attr, property(tracer.wrap(name, layer, fn.fget)))
        return
    setattr(owner, attr, tracer.wrap(name, layer, fn, on_result))


def _rows(value) -> int:
    shape = getattr(value, "shape", None)
    return int(shape[0]) if shape else 0


def install_client_wrappers(tracer: SpanTracer) -> None:
    """Wrap the layers the benchmark process runs (both planes)."""
    import repro.adios.selection as selection
    import repro.core.redistribution as redistribution
    import repro.core.stream as stream
    import repro.net.client as client
    from repro.adios.api import ReadHandle, WriteHandle
    from repro.core.monitoring import PerfMonitor
    from repro.core.plugins import PluginManager, _ChainCursor
    from repro.marshal.format import Format
    from repro.transport.shm import ShmChannel
    from repro.transport.tcp import TcpChannel

    counts = tracer.counts

    def chain_rows(args, result):
        counts["plugins.rows_in"] += _rows(args[1])
        counts["plugins.rows_out"] += _rows(result)

    def side_rows(args, result):
        # apply_side(side, record): only the reader chain carries rows here.
        counts["plugins.rows_in"] += sum(_rows(v) for v in args[2].values())
        counts["plugins.rows_out"] += sum(_rows(v) for v in result.values())

    def plan_hit(args, result):
        counts["redistribution.plan_get.hits"] += 1 if result[1] else 0
        counts["redistribution.plan_get.calls"] += 1

    def stream_state(args, result):
        tracer.objects["stream"] = args[0]

    p = _patch
    p(stream.StreamState, "end_rank_step", tracer, "stream.end_rank_step",
      "core.stream", stream_state)
    p(stream.StreamState, "get_step", tracer, "stream.get_step", "core.stream")
    p(stream.StreamState, "step_available", tracer, "stream.get_step", "core.stream")
    p(ShmChannel, "sendv", tracer, "transport.shm.sendv", "transport")
    p(ShmChannel, "recv", tracer, "transport.shm.recv", "transport")
    p(TcpChannel, "sendv", tracer, "transport.tcp.sendv", "transport")
    p(TcpChannel, "recv", tracer, "transport.tcp.recv", "transport")
    for fn in ("encode_frame", "encode_var"):
        p(client, fn, tracer, "protocol.encode", "net.protocol")
    for fn in ("decode_frame", "decode_var"):
        p(client, fn, tracer, "protocol.decode", "net.protocol")
    p(Format, "format_id", tracer, "marshal.format_id", "marshal")
    # The net handles inherit begin_step/end_step from the ABCs: wrap
    # them on the subclasses only, so the in-process handles stay bare.
    client.NetWriteHandle.write = tracer.wrap(
        "net.client.write", "net.client", client.NetWriteHandle.write)
    client.NetWriteHandle.end_step = tracer.wrap(
        "net.client.publish_rtt", "net.client", WriteHandle.end_step)
    client.NetReadHandle.begin_step = tracer.wrap(
        "net.client.fetch_rtt", "net.client", ReadHandle.begin_step)
    p(redistribution.PlanCache, "get", tracer, "redistribution.plan_get",
      "core.redistribution", plan_hit)
    p(redistribution.CompiledPlan, "execute", tracer, "redistribution.execute",
      "core.redistribution")
    p(redistribution.FusedPlan, "execute", tracer, "redistribution.execute",
      "core.redistribution")
    for mod in (stream, client, selection):
        p(mod, "assemble", tracer, "redistribution.execute", "core.redistribution")
    p(redistribution.RedistributionEngine, "handshake", tracer,
      "redistribution.handshake", "core.redistribution")
    for mod in (redistribution, stream):
        p(mod, "compute_plan", tracer, "redistribution.handshake",
          "core.redistribution")
    p(_ChainCursor, "apply_block", tracer, "plugins.chain", "core.plugins", chain_rows)
    p(PluginManager, "apply_side", tracer, "plugins.chain", "core.plugins", side_rows)
    p(PerfMonitor, "record", tracer, "obs.record", "obs")


def install_server_wrappers(tracer: SpanTracer) -> None:
    """Wrap the broker's entry points (run inside the daemon process)."""
    import repro.net.server as server

    _patch(server.HostedStream, "publish", tracer, "net.server.publish", "net.server")
    _patch(server.HostedStream, "fetch", tracer, "net.server.fetch", "net.server")
    _patch(server, "prune_step_payload", tracer, "net.server.prune", "net.server")
