"""The directory daemon: FlexIO's control plane as a real socket server.

Two asyncio listeners share one event loop (run in a daemon thread via
:meth:`DirectoryDaemon.start`, or in the foreground via the
``python -m repro.net.server`` CLI):

* the **control port** speaks the :mod:`repro.net.protocol` frames for
  session setup (HELLO → WELCOME with a bearer-token check against the
  tenant table), directory traffic (REGISTER / LOOKUP / HEARTBEAT),
  and named-stream OPEN/CLOSE;
* the **data port** is a store-and-forward step broker: a writer's
  connection ATTACHes to an open stream and PUBLISHes steps, a
  reader's connection FETCHes them — so two unrelated OS processes
  exchange multi-step data without ever sharing memory.

Every hosted stream carries its own
:class:`~repro.core.monitoring.PerfMonitor` whose series are labeled
with the owning tenant, and the embedded
:class:`~repro.obs.live.LiveTelemetryServer` exposes them at
``/metrics`` next to per-stream health verdicts — admission-control
rejections (bad token, quota exceeded) are typed
:class:`~repro.core.directory.AdmissionError` values on the Python
side and ``ERROR`` frames with the taxonomy kind on the wire.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import os
import secrets
import signal
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.directory import (
    AdmissionError,
    CoordinatorInfo,
    DirectoryError,
    TenantDirectory,
    TenantSpec,
)
from repro.core.monitoring import PerfMonitor
from repro.core.plugins import CodeletError, combine_predicates, parse_predicate
from repro.net.protocol import (
    CKPT_HEAD,
    CKPT_REG,
    CKPT_SESSION,
    CKPT_STEP,
    CKPT_STREAM,
    CKPT_TENANT,
    CKPT_VERSION,
    Frame,
    MsgType,
    ProtocolError,
    decode_frame,
    decode_record,
    decode_var,
    encode_frame,
    encode_record,
)
from repro.obs import events as ev
from repro.obs.events import emit
from repro.obs.live import LiveTelemetryServer
from repro.obs.metrics import MetricsRegistry
from repro.obs.names import M_PLUGIN_BLOCKS_SKIPPED
from repro.transport.faults import (
    FaultKind,
    TransportFaultInjector,
    parse_fault_spec,
)

__all__ = ["HostedStream", "DirectoryDaemon", "parse_tenant_arg", "main"]

_PREFIX = struct.Struct("<Q")

#: Server banner sent in WELCOME frames.
SERVER_VERSION = "flexio-directoryd/3"

#: Bound on retained steps per hosted stream (oldest dropped first).
DEFAULT_RETAIN_STEPS = 64

#: Back-off the daemon suggests in RETRY_AFTER frames while draining.
DEFAULT_RETRY_AFTER_S = 0.25


class HostedStream:
    """One named stream brokered by the daemon.

    Duck-typed like an in-process stream state (``monitor``, ``closed``,
    ``error``, ``active_transport``) so the live-telemetry server and
    :class:`~repro.obs.health.HealthBoard` sample it unchanged; the
    ``tenant`` attribute labels every metric series.
    """

    def __init__(self, tenant: str, name: str, retain_steps: int = DEFAULT_RETAIN_STEPS) -> None:
        self.tenant = tenant
        self.name = name
        self.stream_id = f"{tenant}/{name}"
        self.monitor = PerfMonitor()
        self.closed = False
        self.error: Optional[str] = None
        self.active_transport = "tcp"
        self.retain_steps = int(retain_steps)
        #: step -> raw frame tail (the net.var run) + its var count.
        self._steps: dict[int, tuple[int, bytes]] = {}
        self.last_step = -1
        #: Highest publish sequence number applied; republished frames
        #: with seq <= last_seq are acknowledged but not re-stored, so a
        #: writer that resends after a lost OK never duplicates a step.
        self.last_seq = 0
        self.eos_step: Optional[int] = None  # first step index past the end
        self._labels = {"tenant": tenant}
        #: Attached-reader pushdown predicates, keyed per data connection
        #: (None = reader attached without one, which disables pruning).
        self._reader_preds: dict[int, object] = {}

    # ------------------------------------------------------------------
    def publish(self, step: int, count: int, payload: bytes, eos: bool,
                seq: int = 0) -> bool:
        """Store one step; returns False for a suppressed duplicate."""
        if seq > 0:
            if seq <= self.last_seq:
                emit(
                    self.monitor, ev.EV_NET_DUP_PUBLISH, self.stream_id,
                    labels=self._labels, step=step, seq=seq,
                )
                return False
            self.last_seq = seq
        self._steps[step] = (count, payload)
        self.last_step = max(self.last_step, step)
        if eos:
            self.eos_step = step + 1
        while len(self._steps) > self.retain_steps:
            del self._steps[min(self._steps)]
        self.monitor.metrics.gauge(
            "net.retained_steps", labels=self._labels
        ).set(len(self._steps))
        emit(
            self.monitor, ev.EV_NET_STEP_PUBLISH, self.stream_id,
            labels=self._labels, step=step, nbytes=len(payload),
        )
        return True

    def fetch(self, step: int) -> Optional[tuple[int, bytes]]:
        got = self._steps.get(step)
        if got is not None:
            emit(
                self.monitor, ev.EV_NET_STEP_FETCH, self.stream_id,
                labels=self._labels, step=step, nbytes=len(got[1]),
            )
        return got

    def ended(self, step: int) -> bool:
        """True when ``step`` is past the writer's end of stream."""
        if self.error is not None:
            return True
        return self.eos_step is not None and step >= self.eos_step

    # -- reader predicate pushdown -------------------------------------
    def register_reader(self, key: int, predicate) -> None:
        """Track one attached reader's pushdown predicate (or None)."""
        self._reader_preds[key] = predicate

    def drop_reader(self, key: int) -> None:
        self._reader_preds.pop(key, None)

    def prune_predicate(self):
        """The combined block predicate the broker may prune against.

        None — i.e. never prune — unless at least one reader is attached
        and *every* attached reader registered a predicate: a block is a
        safe drop only when each consumer proves it empty.
        """
        if not self._reader_preds:
            return None
        preds = list(self._reader_preds.values())
        if any(p is None for p in preds):
            return None
        return combine_predicates(preds)

    def fail(self, reason: str) -> None:
        """Directory eviction callback: lease expired → typed stream end."""
        self.error = reason
        self.closed = True


def prune_step_payload(raw: np.ndarray, offset: int, count: int,
                       predicate, stream: HostedStream) -> tuple[int, bytes]:
    """Drop ``net.var`` spans the combined reader predicate proves empty.

    Walks the PUBLISH frame's var run by ``decode_var`` offsets and
    rebuilds the stored payload from the surviving spans — the payload
    is sliced, never re-encoded, so kept blocks stay byte-identical.  A
    span without writer-stamped stats is always kept.  Each dropped span
    counts toward the stream's ``plugin.blocks_skipped`` series.
    """
    kept: list[np.ndarray] = []
    skipped = 0
    start = offset
    for _ in range(count):
        rec, end = decode_var(raw, offset)
        if rec["has_stats"] and not predicate.might_match(
            rec["name"], float(rec["vmin"]), float(rec["vmax"])
        ):
            skipped += 1
        else:
            kept.append(raw[offset:end])
        offset = end
    if not skipped:
        return count, raw[start:].tobytes()  # flexlint: ok(FXL006) brokered steps outlive the receive buffer
    stream.monitor.metrics.counter(
        M_PLUGIN_BLOCKS_SKIPPED, labels=stream._labels
    ).inc(skipped)
    return count - skipped, b"".join(
        s.tobytes() for s in kept  # flexlint: ok(FXL006) store of store-and-forward
    )


@dataclass
class _Session:
    session_id: str
    tenant: str
    spec: TenantSpec
    client: str = ""
    #: Server-issued resume token: a reconnecting client presents it in
    #: HELLO to adopt this session instead of minting a fresh one.
    resume: str = ""
    streams: list[str] = field(default_factory=list)


class DirectoryDaemon:
    """The asyncio control+data daemon behind ``flexio://`` URIs.

    ``tenants`` seeds the tenant table; with none given a single open
    tenant ``"public"`` (no token, no quotas) is created so
    single-tenant deployments work out of the box.  ``clock`` threads
    through to every per-tenant :class:`DirectoryServer` so lease reap
    stays deterministic under test.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        control_port: int = 0,
        data_port: int = 0,
        tenants: Optional[list[TenantSpec]] = None,
        clock: Optional[Callable[[], float]] = None,
        lease_interval: float = 0.2,
        retain_steps: int = DEFAULT_RETAIN_STEPS,
        telemetry: bool = True,
        checkpoint_path: Optional[str] = None,
        checkpoint_interval: float = 0.0,
        checkpoint_sync: bool = False,
        injector: Optional[TransportFaultInjector] = None,
    ) -> None:
        self.host = host
        self.control_port = control_port  # 0 → ephemeral; fixed after start
        self.data_port = data_port
        self.metrics = MetricsRegistry()
        self.directory = TenantDirectory(clock=clock, metrics=self.metrics)
        for spec in tenants if tenants is not None else [TenantSpec("public")]:
            self.directory.add_tenant(spec)
        self.lease_interval = lease_interval
        self.retain_steps = retain_steps
        self.checkpoint_path = checkpoint_path
        self.checkpoint_interval = float(checkpoint_interval)
        #: Synchronous durability: checkpoint before acking each PUBLISH,
        #: so an acked step survives even a hard daemon kill.
        self.checkpoint_sync = bool(checkpoint_sync)
        #: Frame-layer fault source for the daemon's *outbound* frames
        #: (replies, STEP_DATA) — the server half of the chaos taxonomy.
        self.injector = injector
        self._streams: dict[str, HostedStream] = {}
        self._sessions: dict[str, _Session] = {}
        self._resume: dict[str, str] = {}  # resume token -> session_id
        self._session_counter = itertools.count(1)
        self._draining = False
        self._attached: set[asyncio.StreamWriter] = set()
        self.telemetry: Optional[LiveTelemetryServer] = (
            LiveTelemetryServer(states=self._stream_states) if telemetry else None
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._servers: list[asyncio.AbstractServer] = []
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        #: One-thread pool for checkpoint file I/O; lazily created so
        #: daemons that never checkpoint pay nothing.
        self._ckpt_executor: Optional[ThreadPoolExecutor] = None
        self._ckpt_tmp_seq = itertools.count()

    # -- telemetry plumbing ------------------------------------------------
    def _stream_states(self) -> dict[str, object]:
        states: dict[str, object] = dict(self._streams)
        states[""] = _DaemonState(self.metrics)  # process-level series
        return states

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "DirectoryDaemon":
        """Bind both listeners and serve from a daemon thread."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._serve_thread, name="flexio-directoryd", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._startup_error is not None:
            raise RuntimeError(f"daemon failed to start: {self._startup_error!r}")
        if not self._ready.is_set():
            raise RuntimeError("daemon did not start within 10s")
        if self.telemetry is not None:
            self.telemetry.start()
        return self

    def _serve_thread(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._bind())
        # flexlint: ok(FXL001) any bind failure must unblock start(), whatever its type
        except Exception as exc:
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        tasks = [loop.create_task(self._reap_loop())]
        if self.checkpoint_path and self.checkpoint_interval > 0:
            tasks.append(loop.create_task(self._checkpoint_loop()))
        try:
            loop.run_forever()
        finally:
            for task in tasks:
                task.cancel()
            for server in self._servers:
                server.close()
                loop.run_until_complete(server.wait_closed())
            loop.close()

    async def _bind(self) -> None:
        control = await asyncio.start_server(
            self._handle_control, self.host, self.control_port
        )
        self.control_port = control.sockets[0].getsockname()[1]
        data = await asyncio.start_server(self._handle_data, self.host, self.data_port)
        self.data_port = data.sockets[0].getsockname()[1]
        self._servers = [control, data]

    async def _reap_loop(self) -> None:
        while True:
            await asyncio.sleep(self.lease_interval)
            reaped = self.directory.reap_all()
            for tenant, names in reaped.items():
                for name in names:
                    self.metrics.counter(
                        "net.lease_evictions", labels={"tenant": tenant}
                    ).inc()

    async def _checkpoint_loop(self) -> None:
        while True:
            await asyncio.sleep(self.checkpoint_interval)
            await self.checkpoint_async()

    def stop(self) -> None:
        if self.telemetry is not None:
            self.telemetry.stop()
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
        self._loop = None
        self._servers = []
        self._thread = None
        self._ready.clear()
        if self._ckpt_executor is not None:
            self._ckpt_executor.shutdown(wait=True)
            self._ckpt_executor = None

    # -- frame I/O ---------------------------------------------------------
    @staticmethod
    async def _read_frame(reader: asyncio.StreamReader) -> Optional[np.ndarray]:
        try:
            prefix = await reader.readexactly(_PREFIX.size)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        (length,) = _PREFIX.unpack(prefix)
        try:
            body = await reader.readexactly(int(length))
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        return np.frombuffer(body, dtype=np.uint8)

    async def _write_frame(self, writer: asyncio.StreamWriter, *parts) -> None:
        total = sum(p.nbytes if hasattr(p, "nbytes") else len(p) for p in parts)
        if self.injector is not None:
            kind = self.injector.next_fault()
            if kind is not None and await self._inject_outbound(writer, kind, total, parts):
                return
        writer.write(_PREFIX.pack(total))
        for part in parts:
            if hasattr(part, "as_array"):
                part = part.as_array()
            if isinstance(part, np.ndarray):
                part = part.data  # asyncio wants bytes-like; a view, no copy
            writer.write(part)
        await writer.drain()

    async def _inject_outbound(self, writer, kind: FaultKind, total: int,
                               parts) -> bool:
        """Act out one injected fault on an outbound frame.

        Returns True when the frame must NOT be written normally (it was
        dropped, torn, or the connection was killed); False for kinds
        that only perturb timing.
        """
        emit(
            self.metrics, ev.EV_FAULT,
            kind=kind.value, transport="daemon", nbytes=total,
        )
        if kind is FaultKind.DROPPED_FRAME:
            return True  # the reply silently never leaves; peer times out
        if kind is FaultKind.DELAYED_FRAME:
            await asyncio.sleep(0.05)
            return False
        if kind is FaultKind.TORN_FRAME:
            blob = b"".join(
                bytes(p.as_array().data) if hasattr(p, "as_array")
                else (p.tobytes() if isinstance(p, np.ndarray) else bytes(p))
                for p in parts
            )
            writer.write(_PREFIX.pack(total) + blob[: max(1, total // 2)])
            writer.close()  # torn mid-frame: peer sees a truncated stream
            return True
        # CONN_RESET / HALF_OPEN and any send-side kind: kill the
        # connection; the peer observes a disconnect and reconnects.
        writer.close()
        return True

    async def _send_error(self, writer, kind: str, message: str) -> None:
        await self._write_frame(
            writer, encode_frame(MsgType.ERROR, {"kind": kind, "message": message})
        )

    async def _send_admission_error(self, writer, exc: AdmissionError) -> None:
        kind = exc.kind.value if exc.kind is not None else "admission"
        await self._send_error(writer, kind, str(exc))

    async def _send_retry_after(self, writer, reason: str,
                                delay: float = DEFAULT_RETRY_AFTER_S) -> None:
        emit(None, ev.EV_NET_RETRY_AFTER, reason=reason, delay=delay)
        await self._write_frame(
            writer, encode_frame(MsgType.RETRY_AFTER, {"delay": delay, "reason": reason})
        )

    # -- control plane -----------------------------------------------------
    async def _handle_control(self, reader, writer) -> None:
        # A session is NOT bound to this socket: it dies only on a clean
        # BYE (or daemon restart without a checkpoint).  A socket that
        # drops mid-session leaves the session resumable via its token.
        session: Optional[_Session] = None
        clean_bye = False
        try:
            session = await self._control_hello(reader, writer)
            if session is None:
                return
            while True:
                raw = await self._read_frame(reader)
                if raw is None:
                    break
                try:
                    frame = decode_frame(raw)
                except ProtocolError as exc:
                    await self._send_error(writer, "protocol", str(exc))
                    break
                if frame.msg_type is MsgType.BYE:
                    clean_bye = True
                    break
                await self._dispatch_control(session, frame, writer)
        except ConnectionError:
            pass
        finally:
            if session is not None:
                if clean_bye:
                    self._sessions.pop(session.session_id, None)
                    self._resume.pop(session.resume, None)
                emit(None, ev.EV_NET_DISCONNECT, tenant=session.tenant)
            writer.close()

    async def _control_hello(self, reader, writer) -> Optional[_Session]:
        raw = await self._read_frame(reader)
        if raw is None:
            return None
        try:
            frame = decode_frame(raw)
        except ProtocolError as exc:
            await self._send_error(writer, "protocol", str(exc))
            return None
        if frame.msg_type is not MsgType.HELLO:
            await self._send_error(writer, "protocol", "expected HELLO")
            return None
        if self._draining:
            await self._send_retry_after(writer, "draining")
            return None
        tenant = frame.record["tenant"]
        token = frame.record["token"] or None
        try:
            spec = self.directory.authenticate(tenant, token)
        except AdmissionError as exc:
            await self._send_admission_error(writer, exc)
            return None
        resume_token = frame.record["resume"]
        resumed = False
        session = None
        if resume_token:
            sid = self._resume.get(resume_token)
            if sid is not None:
                candidate = self._sessions.get(sid)
                if candidate is not None and candidate.tenant == tenant:
                    session = candidate
                    resumed = True
        if session is None:
            session = _Session(
                session_id=f"s{next(self._session_counter)}",
                tenant=tenant,
                spec=spec,
                client=frame.record["client"],
                resume=secrets.token_hex(8),
            )
            self._sessions[session.session_id] = session
            self._resume[session.resume] = session.session_id
            self.metrics.counter("net.sessions", labels={"tenant": tenant}).inc()
        else:
            emit(
                self.metrics, ev.EV_NET_SESSION_RESUMED, labels={"tenant": tenant},
                session=session.session_id, tenant=tenant,
            )
        emit(None, ev.EV_NET_CONNECT, tenant=tenant, client=session.client)
        await self._write_frame(writer, encode_frame(MsgType.WELCOME, {
            "session": session.session_id,
            "server": SERVER_VERSION,
            "data_port": self.data_port,
            "resume": session.resume,
            "resumed": resumed,
        }))
        return session

    async def _dispatch_control(self, session: _Session, frame: Frame, writer) -> None:
        rec = frame.record
        tenant = session.tenant
        if self._draining and frame.msg_type in (MsgType.OPEN, MsgType.REGISTER):
            # Drain refuses *new* work but still serves lookups, closes
            # and heartbeats so in-flight sessions can wind down.
            await self._send_retry_after(writer, "draining")
            return
        try:
            if frame.msg_type is MsgType.REGISTER:
                info = CoordinatorInfo(
                    program=rec["program"],
                    coordinator_rank=int(rec["rank"]),
                    num_ranks=int(rec["num_ranks"]),
                )
                lease = rec["lease"] if rec["lease"] > 0 else None
                self.directory.register(tenant, rec["stream"], info, lease=lease)
                await self._write_frame(
                    writer, encode_frame(MsgType.OK, {"detail": "registered"})
                )
            elif frame.msg_type is MsgType.LOOKUP:
                info = self.directory.lookup(tenant, rec["stream"])
                await self._write_frame(writer, encode_frame(MsgType.LOOKUP_REPLY, {
                    "program": info.program,
                    "rank": info.coordinator_rank,
                    "num_ranks": info.num_ranks,
                }))
            elif frame.msg_type is MsgType.HEARTBEAT:
                try:
                    self.directory.heartbeat(tenant, rec["stream"])
                    detail = "heartbeat"
                except DirectoryError:
                    # Tolerant: reader-side and already-closed streams
                    # heartbeat too (the client's background thread does
                    # not know which names hold leases).
                    detail = "idle"
                await self._write_frame(
                    writer, encode_frame(MsgType.OK, {"detail": detail})
                )
            elif frame.msg_type is MsgType.OPEN:
                await self._control_open(session, rec, writer)
            elif frame.msg_type is MsgType.CLOSE:
                stream = self._streams.get(rec["stream_id"])
                if stream is None:
                    await self._send_error(writer, "unknown_stream", rec["stream_id"])
                    return
                stream.eos_step = stream.last_step + 1
                stream.closed = True
                try:
                    self.directory.unregister(stream.tenant, stream.name)
                except DirectoryError:
                    pass  # already reaped or never leased-registered
                await self._write_frame(
                    writer, encode_frame(MsgType.OK, {"detail": "closed"})
                )
            else:
                await self._send_error(
                    writer, "protocol", f"unexpected {frame.msg_type.name} on control port"
                )
        except AdmissionError as exc:
            await self._send_admission_error(writer, exc)
        except DirectoryError as exc:
            await self._send_error(writer, "directory", str(exc))

    async def _control_open(self, session: _Session, rec: dict, writer) -> None:
        tenant = session.tenant
        name = rec["stream"]
        mode = rec["mode"]
        stream_id = f"{tenant}/{name}"
        if mode == "w":
            existing = self._streams.get(stream_id)
            if (existing is not None and not existing.closed
                    and stream_id in session.streams):
                # Idempotent re-OPEN: this session already owns the live
                # stream — a retried OPEN (lost reply) or a post-resume
                # re-attach must not hit the duplicate-registration check.
                pass
            else:
                info = CoordinatorInfo(
                    program=rec["program"],
                    coordinator_rank=int(rec["rank"]),
                    num_ranks=int(rec["num_ranks"]),
                )
                lease = rec["lease"] if rec["lease"] > 0 else None
                stream = HostedStream(tenant, name, retain_steps=self.retain_steps)
                info = CoordinatorInfo(
                    info.program, info.coordinator_rank, info.num_ranks, contact=stream
                )
                # Admission (quota + duplicate check) happens before the
                # stream becomes visible to readers.
                self.directory.register(tenant, name, info, lease=lease)
                self._streams[stream_id] = stream
                session.streams.append(stream_id)
        elif mode == "r":
            hosted = self._streams.get(stream_id)
            if hosted is None:
                # Raises the typed not-found the client retry loop expects.
                self.directory.lookup(tenant, name)
                await self._send_error(writer, "unknown_stream", stream_id)
                return
            if not hosted.closed:
                # Live stream: count the reader in the directory.  A
                # closed stream stays openable while steps are retained —
                # late analytics drain the store-and-forward tail to EOS.
                self.directory.lookup(tenant, name)
        else:
            await self._send_error(writer, "protocol", f"bad open mode {mode!r}")
            return
        emit(None, ev.EV_NET_STREAM_OPEN, stream_id, mode=mode, tenant=tenant)
        await self._write_frame(writer, encode_frame(MsgType.OPEN_REPLY, {
            "stream_id": stream_id,
            "data_port": self.data_port,
        }))

    # -- data plane --------------------------------------------------------
    async def _handle_data(self, reader, writer) -> None:
        try:
            raw = await self._read_frame(reader)
            if raw is None:
                return
            try:
                frame = decode_frame(raw)
            except ProtocolError as exc:
                await self._send_error(writer, "protocol", str(exc))
                return
            if frame.msg_type is not MsgType.ATTACH:
                await self._send_error(writer, "protocol", "expected ATTACH")
                return
            session = self._sessions.get(frame.record["session"])
            if session is None:
                await self._send_error(writer, "auth", "unknown session")
                return
            stream = self._streams.get(frame.record["stream_id"])
            if stream is None or stream.tenant != session.tenant:
                await self._send_error(
                    writer, "unknown_stream", frame.record["stream_id"]
                )
                return
            if self._draining:
                await self._send_retry_after(writer, "draining")
                return
            role = frame.record["role"]
            try:
                predicate = parse_predicate(frame.record["predicate"])
            except CodeletError as exc:
                await self._send_error(
                    writer, "protocol", f"bad predicate spec: {exc}"
                )
                return
            await self._write_frame(
                writer, encode_frame(MsgType.OK, {"detail": "attached"})
            )
            self._attached.add(writer)
            reader_key = id(writer)
            try:
                if role == "w":
                    await self._serve_writer(session, stream, reader, writer)
                else:
                    stream.register_reader(reader_key, predicate)
                    await self._serve_reader(stream, reader, writer)
            finally:
                if role != "w":
                    stream.drop_reader(reader_key)
                self._attached.discard(writer)
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def _serve_writer(self, session: _Session, stream: HostedStream,
                            reader, writer) -> None:
        while True:
            raw = await self._read_frame(reader)
            if raw is None:
                return
            try:
                frame = decode_frame(raw)
            except ProtocolError as exc:
                await self._send_error(writer, "protocol", str(exc))
                return
            if frame.msg_type is not MsgType.PUBLISH:
                await self._send_error(writer, "protocol", "writer must PUBLISH")
                return
            if self._draining:
                await self._send_retry_after(writer, "draining")
                continue
            try:
                self.directory.charge_bytes(session.tenant, raw.nbytes)
            except AdmissionError as exc:
                await self._send_admission_error(writer, exc)
                continue
            count = int(frame.record["count"])
            predicate = stream.prune_predicate()
            if predicate is not None and count:
                try:
                    count, payload = prune_step_payload(
                        raw, frame.consumed, count, predicate, stream
                    )
                except ProtocolError:
                    # Malformed var run: store verbatim; the reader's
                    # decode surfaces the real error.
                    count = int(frame.record["count"])
                    payload = raw[frame.consumed:].tobytes()  # flexlint: ok(FXL006) brokered steps outlive the receive buffer
            else:
                payload = raw[frame.consumed:].tobytes()  # flexlint: ok(FXL006) brokered steps outlive the receive buffer; this is the store of store-and-forward
            stored = stream.publish(
                int(frame.record["step"]), count,
                payload, bool(frame.record["eos"]),
                seq=int(frame.record["seq"]),
            )
            try:  # publishing is the writer's liveness signal
                self.directory.heartbeat(session.tenant, stream.name)
            except DirectoryError:
                pass  # unleased or already closed registration
            if stored and self.checkpoint_sync and self.checkpoint_path:
                # Durability before acknowledgement: once the writer sees
                # OK, the step survives even a hard daemon kill.  Async so
                # the fsync+rename doesn't stall other sessions' frames.
                await self.checkpoint_async()
            await self._write_frame(
                writer, encode_frame(
                    MsgType.OK, {"detail": "published" if stored else "duplicate"}
                )
            )

    async def _serve_reader(self, stream: HostedStream, reader, writer) -> None:
        while True:
            raw = await self._read_frame(reader)
            if raw is None:
                return
            try:
                frame = decode_frame(raw)
            except ProtocolError as exc:
                await self._send_error(writer, "protocol", str(exc))
                return
            if frame.msg_type is not MsgType.FETCH:
                await self._send_error(writer, "protocol", "reader must FETCH")
                return
            step = int(frame.record["step"])
            got = stream.fetch(step)
            if got is not None:
                count, payload = got
                await self._write_frame(
                    writer,
                    encode_frame(MsgType.STEP_DATA, {"step": step, "count": count}),
                    np.frombuffer(payload, dtype=np.uint8),
                )
            elif stream.ended(step):
                await self._write_frame(
                    writer, encode_frame(MsgType.EOS, {"step": step})
                )
            elif self._draining:
                # No new publishes will land here; tell the reader to
                # back off and retry against the restarted daemon.
                await self._send_retry_after(writer, "draining")
            else:
                await self._write_frame(
                    writer, encode_frame(MsgType.NOT_READY, {"step": step})
                )

    # -- graceful drain ----------------------------------------------------
    def drain(self, delay: float = DEFAULT_RETRY_AFTER_S) -> None:
        """Enter drain mode: refuse new work, tell attached peers to back
        off for ``delay`` seconds.  Thread-safe; idempotent."""
        if self._loop is None or not self._thread:
            self._draining = True
            return
        fut = asyncio.run_coroutine_threadsafe(self._drain_async(delay), self._loop)
        fut.result(timeout=10.0)

    async def _drain_async(self, delay: float) -> None:
        if self._draining:
            return
        self._draining = True
        peers = list(self._attached)
        emit(self.metrics, ev.EV_NET_DRAIN, peers=len(peers), delay=delay)
        frame = encode_frame(
            MsgType.RETRY_AFTER, {"delay": delay, "reason": "draining"}
        )
        for writer in peers:
            try:
                await self._write_frame(writer, frame)
            except (ConnectionError, OSError):
                pass  # peer already gone; nothing to notify

    # -- checkpoint / restore ----------------------------------------------
    def checkpoint(self, path: Optional[str] = None) -> str:
        """Write directory + tenant + broker state to ``path`` atomically.

        Synchronous shape for non-loop callers (the CLI's SIGTERM
        handler, tests).  Coroutines must use :meth:`checkpoint_async`
        instead: the ``fsync``/``os.replace`` here block, and FXL010
        flags any call to this from an ``async def``.
        """
        target = self._checkpoint_target(path)
        blob = self._checkpoint_blob()
        self._write_checkpoint_blob(blob, target)
        self._note_checkpoint(target, len(blob))
        return target

    async def checkpoint_async(self, path: Optional[str] = None) -> str:
        """Checkpoint from a coroutine without stalling the event loop.

        The state walk runs on the loop (so the snapshot is consistent —
        broker dicts are only mutated by the loop); the blocking
        write+fsync+rename runs on a dedicated one-thread executor,
        which also serializes concurrent checkpoints in FIFO order so an
        older snapshot can never overwrite a newer one.
        """
        target = self._checkpoint_target(path)
        blob = self._checkpoint_blob()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            self._checkpoint_executor(), self._write_checkpoint_blob, blob, target
        )
        self._note_checkpoint(target, len(blob))
        return target

    def _checkpoint_target(self, path: Optional[str]) -> str:
        target = path or self.checkpoint_path
        if not target:
            raise ValueError("no checkpoint path configured")
        return target

    def _checkpoint_executor(self) -> ThreadPoolExecutor:
        if self._ckpt_executor is None:
            self._ckpt_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="flexio-ckpt"
            )
        return self._ckpt_executor

    def _write_checkpoint_blob(self, blob: bytes, target: str) -> None:
        """Blocking half: atomic tmp+fsync+rename.  The tmp name carries
        a sequence number so overlapping checkpoints (sync-on-publish
        racing the interval loop) never share a scratch file."""
        tmp = f"{target}.tmp.{os.getpid()}.{next(self._ckpt_tmp_seq)}"
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)

    def _note_checkpoint(self, target: str, nbytes: int) -> None:
        emit(
            self.metrics, ev.EV_NET_CHECKPOINT, path=target, nbytes=nbytes,
            streams=len(self._streams), sessions=len(self._sessions),
        )

    def _checkpoint_blob(self) -> bytes:
        """The state walk: every tenant/session/registration/stream as
        bare codec messages (the same marshal plane the wire uses).
        Pure in-memory work — safe on the event loop."""
        parts: list[np.ndarray] = [encode_record(CKPT_HEAD, {
            "version": CKPT_VERSION, "wall": time.time(), "server": SERVER_VERSION,
        })]
        for spec in self.directory.specs():
            parts.append(encode_record(CKPT_TENANT, {
                "name": spec.name,
                "token": spec.token or "",
                "has_token": spec.token is not None,
                "max_streams": -1 if spec.max_streams is None else spec.max_streams,
                "bytes_per_s": (
                    -1.0 if spec.max_bytes_per_s is None else spec.max_bytes_per_s
                ),
                "max_leases": -1 if spec.max_leases is None else spec.max_leases,
            }))
        for sess in self._sessions.values():
            parts.append(encode_record(CKPT_SESSION, {
                "session": sess.session_id, "tenant": sess.tenant,
                "client": sess.client, "resume": sess.resume,
                "streams": ",".join(sess.streams),
            }))
        for tenant in self.directory.tenants():
            server = self.directory.server_for(tenant)
            for name, info, lease, remaining in server.entries():
                parts.append(encode_record(CKPT_REG, {
                    "tenant": tenant, "stream": name,
                    "program": info.program,
                    "rank": info.coordinator_rank,
                    "num_ranks": info.num_ranks,
                    "lease": 0.0 if lease is None else lease,
                    "remaining": 0.0 if remaining is None else remaining,
                }))
        for stream in self._streams.values():
            steps = sorted(stream._steps.items())
            parts.append(encode_record(CKPT_STREAM, {
                "stream_id": stream.stream_id, "tenant": stream.tenant,
                "name": stream.name, "last_step": stream.last_step,
                "eos_step": -1 if stream.eos_step is None else stream.eos_step,
                "last_seq": stream.last_seq, "closed": stream.closed,
                "retain": stream.retain_steps, "count": len(steps),
            }))
            for step, (count, payload) in steps:
                parts.append(encode_record(CKPT_STEP, {
                    "step": step, "count": count,
                    "payload": np.frombuffer(payload, dtype=np.uint8),
                }))
        return b"".join(p.tobytes() for p in parts)

    def restore(self, path: Optional[str] = None) -> None:
        """Load a checkpoint written by :meth:`checkpoint`.

        Call before :meth:`start`.  Tenants already configured keep
        their (possibly newer) specs; checkpointed sessions become
        resumable again; leased registrations resume with their
        *remaining* TTL, not a fresh lease period.
        """
        source = path or self.checkpoint_path
        if not source:
            raise ValueError("no checkpoint path configured")
        with open(source, "rb") as fh:
            data = np.frombuffer(fh.read(), dtype=np.uint8)
        fmt, head, offset = decode_record(data, 0)
        if fmt.name != CKPT_HEAD.name or int(head["version"]) != CKPT_VERSION:
            raise ProtocolError(
                f"bad checkpoint head {fmt.name!r} v{head.get('version')}"
            )
        regs: list[dict] = []
        max_sid = 0
        while offset < data.nbytes:
            fmt, rec, offset = decode_record(data, offset)
            if fmt.name == CKPT_TENANT.name:
                if rec["name"] in self.directory.tenants():
                    continue  # live config wins over the checkpointed spec
                self.directory.add_tenant(TenantSpec(
                    rec["name"],
                    token=rec["token"] if rec["has_token"] else None,
                    max_streams=(
                        None if rec["max_streams"] < 0 else int(rec["max_streams"])
                    ),
                    max_bytes_per_s=(
                        None if rec["bytes_per_s"] < 0 else float(rec["bytes_per_s"])
                    ),
                    max_leases=(
                        None if rec["max_leases"] < 0 else int(rec["max_leases"])
                    ),
                ))
            elif fmt.name == CKPT_SESSION.name:
                sess = _Session(
                    session_id=rec["session"], tenant=rec["tenant"],
                    spec=self.directory.spec(rec["tenant"]),
                    client=rec["client"], resume=rec["resume"],
                    streams=[s for s in rec["streams"].split(",") if s],
                )
                self._sessions[sess.session_id] = sess
                if sess.resume:
                    self._resume[sess.resume] = sess.session_id
                sid = sess.session_id
                if sid.startswith("s") and sid[1:].isdigit():
                    max_sid = max(max_sid, int(sid[1:]))
            elif fmt.name == CKPT_REG.name:
                regs.append(dict(rec))  # applied after streams exist
            elif fmt.name == CKPT_STREAM.name:
                stream = HostedStream(
                    rec["tenant"], rec["name"], retain_steps=int(rec["retain"])
                )
                stream.last_step = int(rec["last_step"])
                stream.last_seq = int(rec["last_seq"])
                stream.eos_step = (
                    None if rec["eos_step"] < 0 else int(rec["eos_step"])
                )
                stream.closed = bool(rec["closed"])
                for _ in range(int(rec["count"])):
                    sfmt, srec, offset = decode_record(data, offset)
                    if sfmt.name != CKPT_STEP.name:
                        raise ProtocolError(
                            f"expected {CKPT_STEP.name}, got {sfmt.name}"
                        )
                    stream._steps[int(srec["step"])] = (
                        int(srec["count"]),
                        np.asarray(srec["payload"], dtype=np.uint8).tobytes(),
                    )
                self._streams[stream.stream_id] = stream
            else:
                raise ProtocolError(f"unknown checkpoint record {fmt.name!r}")
        for rec in regs:
            contact = self._streams.get(f"{rec['tenant']}/{rec['stream']}")
            info = CoordinatorInfo(
                rec["program"], int(rec["rank"]), int(rec["num_ranks"]),
                contact=contact,
            )
            self.directory.register(
                rec["tenant"], rec["stream"], info,
                lease=rec["lease"] if rec["lease"] > 0 else None,
                remaining=rec["remaining"] if rec["lease"] > 0 else None,
            )
        self._session_counter = itertools.count(max_sid + 1)
        emit(
            self.metrics, ev.EV_NET_RESTORE, path=source,
            streams=len(self._streams), sessions=len(self._sessions),
        )


class _DaemonState:
    """Process-level pseudo-stream so daemon-wide series (sessions,
    admission rejections, lease evictions) render without a stream label."""

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.monitor = _MetricsOnly(metrics)
        self.closed = False
        self.error = None
        self.active_transport = ""


class _MetricsOnly:
    __slots__ = ("metrics",)

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.metrics = metrics


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def parse_tenant_arg(arg: str) -> TenantSpec:
    """Parse ``name[,token=...][,max_streams=N][,bytes_per_s=R][,max_leases=N]``."""
    name, _, rest = arg.partition(",")
    if not name:
        raise ValueError("tenant spec needs a name")
    token = None
    max_streams = None
    max_bytes = None
    max_leases = None
    for piece in rest.split(","):
        piece = piece.strip()
        if not piece:
            continue
        key, sep, value = piece.partition("=")
        if not sep:
            raise ValueError(f"bad tenant spec piece {piece!r} (expected key=value)")
        key = key.strip()
        if key == "token":
            token = value
        elif key == "max_streams":
            max_streams = int(value)
        elif key == "bytes_per_s":
            max_bytes = float(value)
        elif key == "max_leases":
            max_leases = int(value)
        else:
            raise ValueError(f"unknown tenant spec key {key!r}")
    return TenantSpec(name, token=token, max_streams=max_streams,
                      max_bytes_per_s=max_bytes, max_leases=max_leases)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.net.server", description="FlexIO directory daemon"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--control-port", type=int, default=0)
    parser.add_argument("--data-port", type=int, default=0)
    parser.add_argument(
        "--tenant", action="append", default=[],
        help="tenant spec: name[,token=...][,max_streams=N]"
             "[,bytes_per_s=R][,max_leases=N]; repeatable",
    )
    parser.add_argument("--lease-interval", type=float, default=0.2)
    parser.add_argument("--retain-steps", type=int, default=DEFAULT_RETAIN_STEPS)
    parser.add_argument("--no-telemetry", action="store_true")
    parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="checkpoint file for durability (written on SIGTERM drain)",
    )
    parser.add_argument(
        "--checkpoint-interval", type=float, default=0.0, metavar="S",
        help="also checkpoint every S seconds (0 = only on drain)",
    )
    parser.add_argument(
        "--checkpoint-sync", action="store_true",
        help="checkpoint before acking every PUBLISH (hard-kill durability)",
    )
    parser.add_argument(
        "--restore", action="store_true",
        help="restore state from --checkpoint at startup if the file exists",
    )
    parser.add_argument(
        "--drain-grace", type=float, default=DEFAULT_RETRY_AFTER_S, metavar="S",
        help="RETRY_AFTER delay broadcast to peers during SIGTERM drain",
    )
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject faults on outbound frames: rate=R,seed=N,kinds=a|b",
    )
    args = parser.parse_args(argv)

    tenants = [parse_tenant_arg(a) for a in args.tenant] or None
    daemon = DirectoryDaemon(
        host=args.host,
        control_port=args.control_port,
        data_port=args.data_port,
        tenants=tenants,
        lease_interval=args.lease_interval,
        retain_steps=args.retain_steps,
        telemetry=not args.no_telemetry,
        checkpoint_path=args.checkpoint,
        checkpoint_interval=args.checkpoint_interval,
        checkpoint_sync=args.checkpoint_sync,
        injector=parse_fault_spec(args.faults),
    )
    if args.restore and args.checkpoint and os.path.exists(args.checkpoint):
        daemon.restore(args.checkpoint)
    daemon.start()
    telemetry_url = daemon.telemetry.url if daemon.telemetry is not None else "-"
    # Machine-parseable ready line: subprocess harnesses block on it.
    print(
        f"FLEXIO-DAEMON READY control={daemon.host}:{daemon.control_port} "
        f"data={daemon.host}:{daemon.data_port} telemetry={telemetry_url}",
        flush=True,
    )
    stop = threading.Event()
    drain_requested = threading.Event()

    def on_sigterm(*_):
        drain_requested.set()
        stop.set()

    try:
        signal.signal(signal.SIGINT, lambda *_: stop.set())
        signal.signal(signal.SIGTERM, on_sigterm)
    except ValueError:  # pragma: no cover - non-main thread
        pass
    try:
        stop.wait()
    finally:
        if drain_requested.is_set():
            # Graceful SIGTERM: tell peers to back off, persist state,
            # then go down — a restarted daemon with --restore resumes.
            try:
                daemon.drain(args.drain_grace)
                if args.checkpoint:
                    daemon.checkpoint()
            except (OSError, RuntimeError) as exc:  # pragma: no cover
                print(f"FLEXIO-DAEMON DRAIN-ERROR {exc!r}", flush=True)
        daemon.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
