"""``connect()``: the client face of the FlexIO service.

One entry point covers both deployment shapes the paper's
location-flexible placement implies:

* ``connect("local://")`` — everything in-process.  The returned
  :class:`LocalClient` wraps the :class:`~repro.core.api.FlexIO`
  façade with a stream-mode configuration, so ``open(name, "w")`` /
  ``open(name, "r")`` hand back the familiar step-API handles backed
  by the in-process data plane (shm/rdma models, drainer, plan cache).

* ``connect("flexio://host:port/tenant", token=...)`` — a
  :class:`RemoteClient` session against a running
  :class:`~repro.net.server.DirectoryDaemon`.  The control socket
  authenticates the tenant (HELLO → WELCOME) and opens named streams;
  each open dials the daemon's data port through a
  :class:`~repro.transport.tcp.TcpChannel` and exchanges steps with
  the store-and-forward broker (PUBLISH / FETCH frames).  Admission
  rejections — bad token, unknown tenant, quota exceeded — come back
  as the *same* typed :class:`~repro.core.directory.AdmissionError`
  values the daemon raised, rebuilt from the wire kind.

Either way the handles subclass the redesigned
:class:`~repro.adios.api.WriteHandle` / :class:`~repro.adios.api.ReadHandle`
ABCs, so application step loops are identical in-process and over the
network::

    import repro as flexio

    with flexio.connect("flexio://127.0.0.1:7700/acme", token="s3cret") as c:
        with c.open("gts.stream", "w") as w:
            w.begin_step()
            w.write("temperature", field, box=box, global_shape=shape)
            w.end_step()
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional
from urllib.parse import urlsplit

import numpy as np

from repro.adios.api import (
    AdiosError,
    EndOfStream,
    RankContext,
    ReadHandle,
    StepNotReady,
    VariableNotFound,
    WriteHandle,
    resolve_read_args,
)
from repro.adios.selection import BoundingBox, resolve_selection
# Unused here; perfbench/layers.py times reads by patching this name.
from repro.adios.selection import assemble  # noqa: F401
from repro.core.directory import admission_exception
from repro.core.monitoring import PerfMonitor
from repro.core.plugins import (
    BlockPredicate,
    PluginManager,
    PluginSide,
    parse_predicate,
)
from repro.core.redistribution import PlanCache, execute_read
from repro.core.resilience import RetryPolicy, retry_call
from repro.net.protocol import (
    Frame,
    MsgType,
    ProtocolError,
    decode_frame,
    decode_var,
    encode_frame,
    encode_var,
)
from repro.obs import events as ev
from repro.obs.events import emit
from repro.transport.faults import (
    PeerDisconnected,
    SessionLost,
    TornSend,
    TransportFault,
    TransportFaultInjector,
    TransportTimeout,
)
from repro.transport.tcp import TcpChannel, recv_frame, send_frame
from repro.util import rng

__all__ = [
    "connect",
    "parse_flexio_uri",
    "ParsedUri",
    "NetError",
    "RetryAfter",
    "SessionLost",
    "Client",
    "LocalClient",
    "RemoteClient",
]


class NetError(TransportFault):
    """A non-admission ERROR frame from the daemon (kind + message).

    Subclasses :class:`~repro.transport.faults.TransportFault` (itself a
    ``RuntimeError``), so daemon-side failures sit in the same typed
    family as socket-level faults — one ``except TransportFault`` covers
    the whole client path, satisfying the FXL001 discipline.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.error_kind = kind

    # Back-compat alias: earlier releases exposed the wire kind as .kind,
    # which TransportFault now uses for its FaultKind slot.
    @property
    def kind(self):  # type: ignore[override]
        return self.error_kind


class RetryAfter(NetError):
    """The daemon asked us to back off (drain/restart in progress)."""

    def __init__(self, delay: float, reason: str) -> None:
        super().__init__("retry_after", f"retry in {delay}s: {reason}")
        self.delay = float(delay)
        self.reason = reason


#: Faults a reconnect-and-retry attempt can cure: socket-level faults
#: and explicit daemon back-pressure.  Application-level errors (bad
#: mode, unknown stream, admission rejections, protocol bugs) are NOT
#: retried — they would fail identically on a fresh connection.
RECONNECT_FAULTS = (PeerDisconnected, TransportTimeout, TornSend, RetryAfter)

#: Wire error kinds that rebuild as typed AdmissionError subclasses.
_ADMISSION_KINDS = frozenset(
    {"unknown_tenant", "auth", "streams", "bytes_per_s", "leases"}
)


def raise_wire_error(frame: Frame) -> None:
    """Re-raise an ERROR or RETRY_AFTER frame as its typed exception."""
    if frame.msg_type is MsgType.RETRY_AFTER:
        raise RetryAfter(float(frame.record["delay"]), frame.record["reason"])
    kind = frame.record["kind"]
    message = frame.record["message"]
    if kind in _ADMISSION_KINDS:
        raise admission_exception(kind, message)
    if kind == "protocol":
        raise ProtocolError(message)
    raise NetError(kind, message)


# ---------------------------------------------------------------------------
# URI grammar:  flexio://host:port/tenant   |   local://
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParsedUri:
    """One parsed ``flexio://`` / ``local://`` service URI."""

    scheme: str
    host: str = ""
    port: int = 0
    tenant: str = "public"


def parse_flexio_uri(uri: str) -> ParsedUri:
    """Parse a service URI.

    Grammar::

        uri    := "local://" | "flexio://" host ":" port [ "/" tenant ]
        tenant := path segment (defaults to "public")

    Rejections are always ``ValueError`` (never a raw parsing artifact):
    userinfo (``user@host``) is refused — authentication travels in the
    HELLO token, not the URI — and an out-of-range or non-numeric port
    is reported with the offending URI.  A trailing slash after the
    tenant is tolerated.
    """
    parts = urlsplit(uri)
    if parts.scheme == "local":
        return ParsedUri(scheme="local")
    if parts.scheme != "flexio":
        raise ValueError(
            f"unsupported URI scheme {parts.scheme!r} (expected flexio:// or local://)"
        )
    if parts.username is not None or parts.password is not None:
        raise ValueError(
            f"flexio:// URIs carry no userinfo (use token=...), got {uri!r}"
        )
    try:
        port = parts.port
    except ValueError as exc:
        raise ValueError(f"bad port in flexio:// URI {uri!r}: {exc}") from exc
    if not parts.hostname or port is None:
        raise ValueError(f"flexio:// URI needs host:port, got {uri!r}")
    tenant = parts.path.strip("/") or "public"
    if "/" in tenant:
        raise ValueError(f"tenant must be one path segment, got {parts.path!r}")
    return ParsedUri(
        scheme="flexio", host=parts.hostname, port=port, tenant=tenant
    )


# ---------------------------------------------------------------------------
# Local client
# ---------------------------------------------------------------------------

#: Group the local client binds stream opens to; variables are declared
#: at write time (the stream method needs no static var list).
LOCAL_GROUP = "flexio"

_LOCAL_CONFIG = """
<adios-config>
  <adios-group name="flexio"/>
  <method group="flexio" method="FLEXPATH">{params}</method>
</adios-config>
"""


class Client:
    """Common context-manager surface of both client kinds."""

    def open(self, name: str, mode: str, **kwargs: Any):
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - overridden
        pass

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class LocalClient(Client):
    """``local://``: the in-process service, same ``open()`` surface.

    ``config`` overrides the generated single-group stream
    configuration (an :class:`~repro.adios.config.AdiosConfig` or XML
    text); ``params`` sets the stream method's hint string when the
    default configuration is used.
    """

    def __init__(self, config=None, machine=None, params: str = "") -> None:
        from repro.adios.config import AdiosConfig
        from repro.core.api import FlexIO

        if config is None:
            config = _LOCAL_CONFIG.format(params=params)
        if isinstance(config, str):
            config = AdiosConfig.from_xml(config)
        self.flexio = FlexIO(config, machine=machine)
        self._group_default = next(iter(config.groups), LOCAL_GROUP)

    def open(
        self,
        name: str,
        mode: str,
        *,
        group: Optional[str] = None,
        rank: int = 0,
        num_ranks: int = 1,
        **_ignored: Any,
    ):
        ctx = RankContext(rank, num_ranks)
        group = group or self._group_default
        if mode == "w":
            return self.flexio.open_write(group, name, ctx)
        if mode == "r":
            return self.flexio.open_read(group, name, ctx)
        raise ValueError(f"bad open mode {mode!r} (expected 'w' or 'r')")


# ---------------------------------------------------------------------------
# Remote client
# ---------------------------------------------------------------------------

#: Default reconnect schedule: 4 attempts, short exponential backoff
#: with seeded jitter (the backoff base is ``timeout``, NOT the socket
#: timeout — reconnects should hammer fast, then give up fast).
DEFAULT_RETRY = RetryPolicy(max_retries=3, timeout=0.05, backoff_factor=2.0,
                            jitter=0.25)


class RemoteClient(Client):
    """One authenticated control-plane session against the daemon.

    The session is *resumable*: the daemon's WELCOME carries a resume
    token, and every RPC and data exchange runs inside a bounded
    reconnect loop (``retry`` policy, seeded jitter via ``seed``) that
    re-dials, re-HELLOs with the token, and replays the frame.  Only
    when the whole schedule is exhausted does a typed
    :class:`~repro.transport.faults.SessionLost` escape.
    """

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str,
        token: Optional[str] = None,
        client_name: str = "",
        timeout: float = 5.0,
        retry: Optional[RetryPolicy] = None,
        seed: int = 0,
        faults: Optional[TransportFaultInjector] = None,
        heartbeat_interval: float = 0.0,
        clock: Optional[Callable[[], float]] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.tenant = tenant
        self._token = token
        self._client_name = client_name
        self.timeout = timeout
        self.retry = retry or DEFAULT_RETRY
        self.faults = faults
        self.monitor = PerfMonitor()
        self._rng = rng(seed)
        self._clock = clock or time.monotonic
        self._sleep = sleep or time.sleep
        self._closed = False
        self._sock: Optional[socket.socket] = None
        self._lock = threading.RLock()
        self._frame_seq = itertools.count(1)
        self.resume_token = ""
        self.resumed = False
        self._retry_exhausted(self._dial, "connect")
        emit(None, ev.EV_NET_CONNECT, tenant=tenant, client=client_name)
        # -- background heartbeat (writer leases + reader liveness) --------
        self._hb_interval = float(heartbeat_interval)
        self._hb_streams: set[str] = set()
        self._hb_stop = threading.Event()
        self._hb_thread: Optional[threading.Thread] = None
        if self._hb_interval > 0:
            self._hb_thread = threading.Thread(
                target=self._hb_loop, name="flexio-heartbeat", daemon=True
            )
            self._hb_thread.start()

    # -- connection management ---------------------------------------------
    def _dial(self) -> None:
        """(Re)build the control socket and HELLO, resuming if we can."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        try:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        except socket.timeout as exc:
            raise TransportTimeout(
                f"connect to flexio daemon at {self.host}:{self.port} "
                f"timed out after {self.timeout}s"
            ) from exc
        except OSError as exc:
            raise PeerDisconnected(
                f"cannot reach flexio daemon at {self.host}:{self.port}: {exc}"
            ) from exc
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        welcome = self._rpc_once(MsgType.HELLO, {
            "tenant": self.tenant, "token": self._token or "",
            "client": self._client_name, "resume": self.resume_token,
        }, MsgType.WELCOME)
        self.session_id = welcome.record["session"]
        self.server_version = welcome.record["server"]
        self.data_port = int(welcome.record["data_port"])
        self.resumed = bool(welcome.record["resumed"])
        self.resume_token = welcome.record["resume"]
        if self.resumed:
            emit(
                self.monitor, ev.EV_NET_RESUME,
                session=self.session_id, tenant=self.tenant,
            )

    def _reconnect(self, attempt: int, exc: Exception) -> None:
        """One reconnect: honor daemon back-pressure, re-dial, re-HELLO.

        The socket may be desynced (a reply half-read, a frame half
        sent), so a retried RPC must never reuse it — every retry runs
        on a fresh connection.
        """
        if isinstance(exc, RetryAfter) and exc.delay > 0:
            self._sleep(exc.delay)
        emit(
            self.monitor, ev.EV_NET_RECONNECT, attempt=attempt, tenant=self.tenant,
            cause=type(exc).__name__,
        )
        self._dial()

    def _retry_exhausted(self, op: Callable[[], Any], what: str,
                         on_retry: Optional[Callable] = None) -> Any:
        """Run ``op`` under the reconnect schedule; exhaustion raises the
        typed :class:`SessionLost` (itself a ``TransportFault``)."""
        try:
            return retry_call(
                op, self.retry, RECONNECT_FAULTS,
                on_retry=on_retry, rng=self._rng, sleep=self._sleep,
            )
        except RECONNECT_FAULTS as exc:
            emit(
                self.monitor, ev.EV_NET_SESSION_LOST, tenant=self.tenant, what=what,
                cause=type(exc).__name__,
            )
            raise SessionLost(
                f"{what} against {self.host}:{self.port} failed after "
                f"{self.retry.max_retries + 1} attempts: {exc}"
            ) from exc

    # -- control-plane RPC -------------------------------------------------
    def _rpc_once(self, msg_type: MsgType, record: dict, expect: MsgType) -> Frame:
        """One attempt on the current socket; raw socket errors are
        already mapped to typed faults inside send_frame/recv_frame."""
        if self._sock is None:
            # A previous reconnect died mid-dial; retriable — the retry
            # loop's on_retry re-dials before the next attempt.
            raise PeerDisconnected("control socket is down")
        send_frame(
            self._sock,
            encode_frame(msg_type, record, seq=next(self._frame_seq)),
            timeout=self.timeout,
        )
        raw = recv_frame(self._sock, timeout=self.timeout)
        if raw is None:
            raise PeerDisconnected("daemon closed the control connection")
        frame = decode_frame(raw)
        if frame.msg_type in (MsgType.ERROR, MsgType.RETRY_AFTER):
            raise_wire_error(frame)
        if frame.msg_type is not expect:
            raise ProtocolError(
                f"expected {expect.name}, daemon sent {frame.msg_type.name}"
            )
        return frame

    def _rpc(self, msg_type: MsgType, record: dict, expect: MsgType) -> Frame:
        if self._closed:
            raise PeerDisconnected("rpc on closed client session")
        with self._lock:
            return self._retry_exhausted(
                lambda: self._rpc_once(msg_type, record, expect),
                msg_type.name, on_retry=self._reconnect,
            )

    # -- directory surface -------------------------------------------------
    def register(self, stream: str, *, program: str = "writer", rank: int = 0,
                 num_ranks: int = 1, lease: float = 0.0) -> None:
        self._rpc(MsgType.REGISTER, {
            "stream": stream, "program": program, "rank": rank,
            "num_ranks": num_ranks, "lease": float(lease),
        }, MsgType.OK)

    def lookup(self, stream: str) -> dict:
        return self._rpc(MsgType.LOOKUP, {"stream": stream}, MsgType.LOOKUP_REPLY).record

    def heartbeat(self, stream: str) -> None:
        self._rpc(MsgType.HEARTBEAT, {"stream": stream}, MsgType.OK)

    # -- background heartbeat ----------------------------------------------
    def heartbeat_tick(self) -> int:
        """One heartbeat round over every open stream (writer leases AND
        reader liveness — the daemon answers ``idle`` for unleased
        names).  The background thread calls this; tests drive it
        directly for determinism.  Returns the number of beats sent."""
        sent = 0
        for name in sorted(self._hb_streams):
            if self._closed:
                break
            try:
                self.heartbeat(name)
                sent += 1
            except (TransportFault, ProtocolError):
                # The next RPC on this stream surfaces the real failure;
                # liveness pings must never kill the session themselves.
                break
        if sent:
            self.monitor.metrics.counter("net.heartbeats").inc(sent)
        return sent

    def _hb_loop(self) -> None:
        while not self._hb_stop.wait(self._hb_interval):
            if self._closed:
                return
            self.heartbeat_tick()

    # -- streams -----------------------------------------------------------
    def open(
        self,
        name: str,
        mode: str,
        *,
        rank: int = 0,
        num_ranks: int = 1,
        lease: float = 0.0,
        timeout: Optional[float] = None,
        **_ignored: Any,
    ):
        """Open a named stream for write or read.

        Readers may race the writer's open: with ``timeout`` (seconds)
        the open retries until the name resolves or the deadline
        passes; without it an unknown name raises immediately.
        """
        if mode not in ("w", "r"):
            raise ValueError(f"bad open mode {mode!r} (expected 'w' or 'r')")
        pushdown = bool(_ignored.pop("pushdown", False))
        record = {
            "stream": name, "mode": mode,
            "program": "writer" if mode == "w" else "reader",
            "rank": rank, "num_ranks": num_ranks, "lease": float(lease),
        }
        deadline = None if timeout is None else self._clock() + timeout
        while True:
            try:
                reply = self._rpc(MsgType.OPEN, record, MsgType.OPEN_REPLY)
                break
            except NetError:
                if deadline is None or self._clock() >= deadline:
                    raise
                self._sleep(0.02)
        stream_id = reply.record["stream_id"]
        channel = self._attach(stream_id, mode)
        self._hb_streams.add(name)
        emit(None, ev.EV_NET_STREAM_OPEN, stream_id, mode=mode, tenant=self.tenant)
        if mode == "w":
            return NetWriteHandle(self, stream_id, channel, rank=rank, name=name)
        return NetReadHandle(self, stream_id, channel, name=name,
                             pushdown=pushdown)

    def _attach(self, stream_id: str, role: str,
                predicate: str = "") -> TcpChannel:
        channel = TcpChannel.connect(
            self.host, self.data_port, monitor=self.monitor,
            injector=self.faults, timeout=self.timeout,
        )
        try:
            channel.sendv([encode_frame(MsgType.ATTACH, {
                "session": self.session_id, "stream_id": stream_id, "role": role,
                "predicate": predicate,
            }, seq=next(self._frame_seq))], timeout=self.timeout)
            frame = decode_frame(channel.recv(timeout=self.timeout))
        except (TransportFault, ProtocolError, OSError):
            # A half-attached socket is a leak: the daemon holds the
            # accept side until its idle reaper fires, and the client
            # would dial a fresh one on retry anyway.
            channel.close()
            raise
        if frame.msg_type in (MsgType.ERROR, MsgType.RETRY_AFTER):
            channel.close()
            raise_wire_error(frame)
        if frame.msg_type is not MsgType.OK:
            channel.close()
            raise ProtocolError(f"expected OK after ATTACH, got {frame.msg_type.name}")
        return channel

    def _reattach(self, attempt: int, exc: Exception, stream_id: str,
                  role: str, old: TcpChannel,
                  predicate: str = "") -> TcpChannel:
        """Data-path recovery: reconnect the control session (fresh
        socket + resume HELLO), then re-ATTACH the data channel.

        Holds the control lock like :meth:`_rpc`, so a heartbeat RPC
        never interleaves its frames with the resume HELLO on the fresh
        socket."""
        try:
            old.close()
        except (TransportFault, OSError):
            pass
        with self._lock:
            self._reconnect(attempt, exc)
            return self._attach(stream_id, role, predicate=predicate)

    def _close_stream(self, stream_id: str, name: str) -> None:
        self._hb_streams.discard(name)
        self._rpc(MsgType.CLOSE, {"stream_id": stream_id}, MsgType.OK)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._hb_stop.set()
        if self._hb_thread is not None:
            self._hb_thread.join(timeout=5.0)
            self._hb_thread = None
        if self._sock is not None:
            try:
                send_frame(
                    self._sock,
                    encode_frame(MsgType.BYE, {"reason": "client close"},
                                 seq=next(self._frame_seq)),
                    timeout=self.timeout,
                )
            except TransportFault:
                pass  # daemon already gone: nothing to say goodbye to
            try:
                self._sock.close()
            except OSError:
                pass
        emit(None, ev.EV_NET_DISCONNECT, tenant=self.tenant)


# ---------------------------------------------------------------------------
# Network step handles
# ---------------------------------------------------------------------------

def _stamp_stats(rec: dict, arr: np.ndarray) -> None:
    """Writer-stamped whole-block bounds (the ADIOS per-block statistics
    idiom) — what the broker's predicate pushdown prunes against.  Empty
    and non-numeric payloads carry no stats and are never pruned."""
    if arr.size and arr.dtype.kind in "fiu":
        rec["vmin"] = float(arr.min())
        rec["vmax"] = float(arr.max())
        rec["has_stats"] = True
    else:
        rec["vmin"] = 0.0
        rec["vmax"] = 0.0
        rec["has_stats"] = False


class NetWriteHandle(WriteHandle):
    """Writer side of one remote stream: steps become PUBLISH frames.

    ``write`` buffers this rank's variables; ``end_step`` gathers the
    PUBLISH header and one ``net.var`` message per variable into a
    single vectored frame (no client-side join) and waits for the
    broker's acknowledgement — a quota rejection surfaces as the typed
    :class:`~repro.core.directory.QuotaExceeded` right at the step
    boundary that exceeded it.
    """

    def __init__(self, client: RemoteClient, stream_id: str,
                 channel: TcpChannel, rank: int = 0, name: str = "") -> None:
        self._client = client
        self.stream_id = stream_id
        self.name = name or stream_id.rsplit("/", 1)[-1]
        self._channel = channel
        self._rank = rank
        self._step = 0
        #: Monotonic per-stream publish sequence: the daemon suppresses
        #: any republished seq it has already applied, so a retried
        #: PUBLISH (lost ack) never duplicates a step.
        self._publish_seq = 0
        self._pending: list[dict] = []
        self._closed = False
        #: Writer-side plug-in chain: codelets deployed here condition
        #: each variable before the step leaves the client (the paper's
        #: writer-placed analytics for the network deployment shape).
        self.plugins = PluginManager(client.monitor)

    @property
    def current_step(self) -> int:
        return self._step

    def write(self, name, data, box=None, global_shape=None):
        if self._closed:
            raise AdiosError("write after close")
        arr = np.ascontiguousarray(data)
        if box is not None and tuple(arr.shape) != tuple(box.count):
            raise ValueError(f"data shape {arr.shape} != box count {box.count}")
        rec = {
            "name": name,
            "writer_rank": self._rank,
            "start": list(box.start) if box is not None else [],
            "shape": list(arr.shape),
            "gshape": list(global_shape) if global_shape is not None else [],
            "data": arr,
        }
        _stamp_stats(rec, arr)
        self._pending.append(rec)

    def _condition_pending(self) -> None:
        """Run the writer-side chain over every buffered variable,
        re-stamping shape and stats for whatever comes out."""
        for rec in self._pending:
            out = self.plugins.apply_side(
                PluginSide.WRITER, {rec["name"]: rec["data"]}
            )
            arr = np.ascontiguousarray(out[rec["name"]])
            rec["data"] = arr
            rec["shape"] = list(arr.shape)
            _stamp_stats(rec, arr)

    def _publish_once(self, record: dict) -> None:
        parts = [encode_frame(MsgType.PUBLISH, record,
                              seq=next(self._client._frame_seq))]
        parts.extend(encode_var(rec) for rec in self._pending)
        self._channel.sendv(parts, timeout=self._client.timeout)
        frame = decode_frame(self._channel.recv(timeout=self._client.timeout))
        if frame.msg_type in (MsgType.ERROR, MsgType.RETRY_AFTER):
            raise_wire_error(frame)
        if frame.msg_type is not MsgType.OK:
            raise ProtocolError(
                f"expected OK after PUBLISH, got {frame.msg_type.name}"
            )

    def _advance(self, eos: bool = False):
        if self._closed:
            raise AdiosError("end_step after close")
        if self.plugins.has_side(PluginSide.WRITER):
            self._condition_pending()
        seq = self._publish_seq + 1
        record = {
            "step": self._step, "count": len(self._pending), "eos": eos,
            "seq": seq,
        }

        def reattach(attempt: int, exc: Exception) -> None:
            self._channel = self._client._reattach(
                attempt, exc, self.stream_id, "w", self._channel
            )

        self._client._retry_exhausted(
            lambda: self._publish_once(record),
            f"PUBLISH step {self._step}", on_retry=reattach,
        )
        self._publish_seq = seq
        self._pending = []
        self._step += 1

    def close(self):
        if self._closed:
            return
        self._closed = True
        self._channel.close()
        self._client._close_stream(self.stream_id, self.name)


class _CachedStep:
    """One fetched step, decoded lazily-ish: var records + backing span."""

    __slots__ = ("step", "vars", "_wb")

    def __init__(self, step: int, count: int, wb, offset: int) -> None:
        self.step = step
        self.vars: list[dict] = []
        # Keep the receive span alive: every array below views into it.
        self._wb = wb
        for _ in range(count):
            rec, offset = decode_var(wb, offset)
            self.vars.append(rec)

    def var_names(self) -> list[str]:
        seen: dict[str, None] = {}
        for rec in self.vars:
            seen.setdefault(rec["name"], None)
        return list(seen)


class NetReadHandle(ReadHandle):
    """Reader side of one remote stream: FETCH → assemble locally.

    ``begin_step`` polls the broker (NOT_READY maps to
    :attr:`~repro.adios.api.StepStatus.NotReady`, EOS to
    :attr:`~repro.adios.api.StepStatus.EndOfStream`); global-array
    reads run the fetched blocks through the same read engine as the
    in-process reader (:func:`~repro.core.redistribution.execute_read`,
    with a per-handle plan cache), so MxN redistribution and fused
    plug-ins work across the network hop unchanged.
    """

    def __init__(self, client: RemoteClient, stream_id: str,
                 channel: TcpChannel, name: str = "",
                 pushdown: bool = False) -> None:
        self._client = client
        self.stream_id = stream_id
        self.name = name or stream_id.rsplit("/", 1)[-1]
        self._channel = channel
        self._cursor = 0
        self._cache: dict[int, _CachedStep] = {}
        self._closed = False
        #: Reader-side plug-in chain, run by
        #: :func:`~repro.core.redistribution.execute_read`: compilable
        #: chains fuse into the cached plan, free-form codelets run
        #: interpreted after the scatter.
        self.plugins = PluginManager(client.monitor)
        self._pushdown = bool(pushdown)
        #: Predicate spec the current data channel ATTACHed with; the
        #: channel is re-ATTACHed whenever the chain's predicate changes.
        self._attached_pred = ""
        #: The parsed :attr:`_attached_pred` (``None`` without pushdown).
        self._pruning: Optional[BlockPredicate] = None
        self._plans = PlanCache(maxsize=64)

    @property
    def current_step(self) -> int:
        return self._cursor

    # -- step movement -----------------------------------------------------
    def _fetch_once(self, step: int) -> _CachedStep:
        self._channel.sendv(
            [encode_frame(MsgType.FETCH, {"step": step},
                          seq=next(self._client._frame_seq))],
            timeout=self._client.timeout,
        )
        wb = self._channel.recv(timeout=self._client.timeout)
        frame = decode_frame(wb)
        if frame.msg_type is MsgType.STEP_DATA:
            got = _CachedStep(
                step, int(frame.record["count"]), wb, frame.consumed
            )
            # Retain only the current neighborhood; old steps are gone.
            self._cache = {k: v for k, v in self._cache.items() if k >= step - 1}
            self._cache[step] = got
            return got
        if frame.msg_type is MsgType.NOT_READY:
            raise StepNotReady(f"step {step} of {self.stream_id} not yet published")
        if frame.msg_type is MsgType.EOS:
            raise EndOfStream(self.stream_id)
        if frame.msg_type in (MsgType.ERROR, MsgType.RETRY_AFTER):
            raise_wire_error(frame)
        raise ProtocolError(f"unexpected {frame.msg_type.name} after FETCH")

    def _fetch(self, step: int) -> _CachedStep:
        cached = self._cache.get(step)
        if cached is not None:
            return cached
        self._sync_predicate()

        def reattach(attempt: int, exc: Exception) -> None:
            self._channel = self._client._reattach(
                attempt, exc, self.stream_id, "r", self._channel,
                predicate=self._attached_pred,
            )

        return self._client._retry_exhausted(
            lambda: self._fetch_once(step),
            f"FETCH step {step}", on_retry=reattach,
        )

    # -- predicate pushdown ------------------------------------------------
    def _pred_spec(self) -> str:
        if not self._pushdown:
            return ""
        pred = self.plugins.block_predicate(PluginSide.READER)
        return pred.spec() if pred is not None else ""

    def _sync_predicate(self) -> None:
        """Keep the broker's view of this reader's predicate current.

        The chain can change between steps (deploy/undeploy), and the
        predicate rides the ATTACH frame — so a change re-ATTACHes the
        data channel with the new spec before the next FETCH."""
        spec = self._pred_spec()
        if spec == self._attached_pred:
            return
        channel = self._client._attach(self.stream_id, "r", predicate=spec)
        old, self._channel = self._channel, channel
        self._attached_pred = spec
        self._pruning = parse_predicate(spec)
        try:
            old.close()
        except (TransportFault, OSError):
            pass

    def _probe_step(self):
        self._fetch(self._cursor)

    def _advance(self):
        self._fetch(self._cursor + 1)
        self._cursor += 1

    # -- reads -------------------------------------------------------------
    def available_vars(self):
        return self._fetch(self._cursor).var_names()

    def _blocks(self, name: str):
        """The current step's ``(box, data)`` blocks of global array
        ``name``, with the array's global shape and dtype."""
        recs = [r for r in self._fetch(self._cursor).vars if r["name"] == name]
        if not recs:
            raise VariableNotFound(f"no variable {name!r} at step {self._cursor}")
        gshapes = [tuple(r["gshape"]) for r in recs if r["gshape"]]
        if not gshapes:
            raise AdiosError(
                f"variable {name!r} is not a global array; use read_block()"
            )
        blocks = [
            (BoundingBox(tuple(r["start"]), tuple(r["data"].shape)), r["data"])
            for r in recs if r["start"]
        ]
        return blocks, gshapes[-1], recs[-1]["data"].dtype

    def read(self, name, *, start=None, count=None, selection=None):
        return self._read(name, None, start, count, selection)

    def read_into(self, name, out, *, start=None, count=None, selection=None):
        return self._read(name, out, start, count, selection)

    def _read(self, name, out, start, count, selection):
        start, count = resolve_read_args(selection, start, count)
        blocks, gshape, dtype = self._blocks(name)
        # The broker prunes only blocks of variables the attached
        # predicate has a range term for; others arrive whole.
        pruned = self._pruning is not None and self._pruning.prunes(name)
        return execute_read(
            name, blocks, gshape, dtype, resolve_selection(start, count, gshape),
            plugins=self.plugins,
            chain=self.plugins.compiled_chain(PluginSide.READER), cache=self._plans,
            monitor=self._client.monitor, out=out, pruned=pruned,
            step=self._cursor,
        )

    def read_block(self, name, writer_rank):
        for rec in self._fetch(self._cursor).vars:
            if rec["name"] == name and int(rec["writer_rank"]) == writer_rank:
                data = np.asarray(rec["data"])
                if self.plugins.has_side(PluginSide.READER):
                    data = self.plugins.apply_side(
                        PluginSide.READER, {name: data}
                    )[name]
                return data
        raise VariableNotFound(
            f"no block for var {name!r} from writer {writer_rank} "
            f"at step {self._cursor}"
        )

    def close(self):
        if self._closed:
            return
        self._closed = True
        self._client._hb_streams.discard(self.name)
        self._channel.close()


# ---------------------------------------------------------------------------
# The front door
# ---------------------------------------------------------------------------

def connect(
    uri: str,
    *,
    token: Optional[str] = None,
    config=None,
    machine=None,
    params: str = "",
    client_name: str = "",
    timeout: float = 5.0,
    retry: Optional[RetryPolicy] = None,
    seed: int = 0,
    faults: Optional[TransportFaultInjector] = None,
    heartbeat_interval: float = 0.0,
) -> Client:
    """Connect to a FlexIO service and return a :class:`Client`.

    ``local://`` builds an in-process :class:`LocalClient` (``config``,
    ``machine`` and ``params`` configure it); ``flexio://host:port/tenant``
    dials a directory daemon and authenticates with the bearer
    ``token``, returning a :class:`RemoteClient` session.

    Remote resilience knobs: ``retry`` bounds the reconnect loop every
    RPC and data exchange runs under (``seed`` feeds its jitter),
    ``heartbeat_interval`` > 0 starts a background thread that beats
    every open stream, and ``faults`` installs a seeded injector on the
    data channels for chaos runs.
    """
    parsed = parse_flexio_uri(uri)
    if parsed.scheme == "local":
        return LocalClient(config=config, machine=machine, params=params)
    return RemoteClient(
        parsed.host, parsed.port, parsed.tenant,
        token=token, client_name=client_name, timeout=timeout,
        retry=retry, seed=seed, faults=faults,
        heartbeat_interval=heartbeat_interval,
    )
