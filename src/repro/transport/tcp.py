"""TCP inter-process transport: the fourth rung of the degradation ladder.

The SHM and RDMA channels simulate intra-node movement inside one
process; :class:`TcpChannel` is the first transport that crosses a real
OS boundary.  It implements the same
:class:`~repro.transport.buffers.Channel` ABC over a stream socket:

* **framing** — each message is a little-endian ``u64`` length prefix
  followed by the payload bytes; scatter-gather parts go out through
  ``socket.sendmsg`` so the producer never joins them into an
  intermediate ``bytes``;
* **delivery** — ``recv`` reads the frame straight into a freshly
  allocated uint8 array (one kernel→user copy after the user→kernel
  copy on the sending side), wraps it in a
  :class:`~repro.transport.buffers.WireBuffer` with ``copies=2``, and
  reports it into the ``transport.copies`` histogram like every other
  rung;
* **faults** — socket timeouts surface as
  :class:`~repro.transport.faults.TransportTimeout`, resets and broken
  pipes as :class:`~repro.transport.faults.PeerDisconnected`, and a
  connection that dies mid-frame as
  :class:`~repro.transport.faults.TornSend`, so the stream layer's
  bounded-retry/degradation machinery treats TCP exactly like SHM and
  RDMA.  A seeded :class:`TransportFaultInjector` is consulted before
  each send for chaos runs.

Constructed without a socket the channel wraps a ``socket.socketpair``
— real kernel sockets, but loopback within one process — which is how
it slots into the rdma→tcp→shm→buffered ladder for single-process
runs; :meth:`TcpChannel.connect` dials a daemon's data port for the
genuinely multi-process path.
"""

from __future__ import annotations

import socket
import struct
import time
from typing import Optional, Sequence, Union

import numpy as np

from repro.obs.events import EV_FAULT, emit
from repro.transport.buffers import (
    Channel,
    Ownership,
    WireBuffer,
    WireVector,
    as_byte_view,
)
from repro.transport.faults import (
    FaultKind,
    PeerDisconnected,
    TornSend,
    TransportFaultInjector,
    TransportTimeout,
    fault_exception,
)

__all__ = ["TcpChannel", "COPIES_TCP", "FRAME_PREFIX"]

#: A TCP delivery always pays two copies: producer memory → kernel
#: socket buffer, kernel socket buffer → the consumer-side frame array.
COPIES_TCP = 2

#: Little-endian u64 payload-length prefix in front of every frame.
FRAME_PREFIX = struct.Struct("<Q")

#: Refuse absurd frame lengths before allocating (corrupt prefix guard).
MAX_FRAME = 1 << 34  # 16 GiB


#: How long an injected DELAYED_FRAME holds the frame back.
DELAY_INJECT_S = 0.05


def _set_timeout(sock: socket.socket, timeout: float) -> None:
    """``settimeout`` with the typed-fault mapping: on an already-dead
    socket it raises ``OSError``, which must not leak raw to callers."""
    try:
        sock.settimeout(timeout)
    except OSError as exc:
        raise PeerDisconnected(f"tcp socket unusable: {exc}") from exc


def _recv_exact(sock: socket.socket, out: memoryview, timeout: float) -> int:
    """Fill ``out`` completely from ``sock``; returns bytes read (may be
    short only when the peer closed the connection)."""
    _set_timeout(sock, timeout)
    got = 0
    total = len(out)
    while got < total:
        try:
            n = sock.recv_into(out[got:], total - got)
        except socket.timeout as exc:
            raise TransportTimeout(
                f"tcp recv timed out after {timeout}s ({got}/{total} B)"
            ) from exc
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            raise PeerDisconnected(f"tcp peer vanished mid-recv: {exc}") from exc
        if n == 0:
            break
        got += n
    return got


class TcpChannel(Channel):
    """One bidirectional stream-socket data channel.

    ``TcpChannel()`` (no socket) wraps a connected ``socketpair`` —
    sends land on one end and ``recv`` drains the other, which is the
    loopback shape the step drainer expects when TCP is just a ladder
    rung inside a single process.  ``TcpChannel(sock)`` adopts an
    already connected socket (daemon side / after ``connect``), where
    sends and receives share the one socket.
    """

    def __init__(
        self,
        sock: Optional[socket.socket] = None,
        monitor=None,
        injector: Optional[TransportFaultInjector] = None,
    ) -> None:
        self.monitor = monitor
        self.injector = injector
        self._closed = False
        if sock is None:
            # Loopback rung: real kernel sockets, one process.
            self._send_sock, self._recv_sock = socket.socketpair()
            self.loopback = True
        else:
            self._send_sock = self._recv_sock = sock
            self.loopback = False
        self.messages_sent = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        monitor=None,
        injector: Optional[TransportFaultInjector] = None,
        timeout: float = 5.0,
    ) -> "TcpChannel":
        """Dial a daemon's data port and wrap the connection."""
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except socket.timeout as exc:
            raise TransportTimeout(
                f"tcp connect to {host}:{port} timed out after {timeout}s"
            ) from exc
        except OSError as exc:
            raise PeerDisconnected(f"tcp connect to {host}:{port} failed: {exc}") from exc
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            # setsockopt can fail if the peer already reset the fresh
            # connection; without the close the descriptor leaks.
            sock.close()
            raise PeerDisconnected(
                f"tcp connect to {host}:{port} failed: {exc}"
            ) from exc
        return cls(sock, monitor=monitor, injector=injector)

    # -- producer ---------------------------------------------------------
    def send(
        self,
        payload: Union[bytes, memoryview, np.ndarray, WireBuffer],
        timeout: float = 5.0,
    ) -> None:
        wb = WireBuffer.wrap(payload)
        if self.monitor is not None:
            with self.monitor.span("transport", "tcp.send", nbytes=wb.nbytes):
                self._sendv((wb.as_array(),), wb.nbytes, timeout)
            self.monitor.metrics.counter("tcp.bytes_sent").inc(wb.nbytes)
            self.monitor.metrics.counter("tcp.messages_sent").inc()
        else:
            self._sendv((wb.as_array(),), wb.nbytes, timeout)

    def sendv(
        self,
        parts: Union[WireVector, Sequence[Union[bytes, np.ndarray, WireBuffer]]],
        timeout: float = 5.0,
    ) -> None:
        """Vectored send: one frame, every part gathered by ``sendmsg``
        (no intermediate join on the producer side)."""
        vec = parts if isinstance(parts, WireVector) else WireVector(parts)
        total = vec.nbytes
        views = tuple(p.as_array() for p in vec)
        if self.monitor is not None:
            with self.monitor.span(
                "transport", "tcp.sendv", nbytes=total, parts=len(views)
            ):
                self._sendv(views, total, timeout)
            self.monitor.metrics.counter("tcp.bytes_sent").inc(total)
            self.monitor.metrics.counter("tcp.messages_sent").inc()
        else:
            self._sendv(views, total, timeout)

    def _maybe_inject_fault(self, total: int) -> Optional[FaultKind]:
        """Consult the injector; raises for immediate faults, returns a
        kind the send path itself must act out (torn/dropped/delayed
        frames need real socket effects, not just an exception)."""
        if self.injector is None:
            return None
        kind = self.injector.next_fault()
        if kind is None:
            return None
        emit(self.monitor, EV_FAULT, kind=kind.value, transport="tcp", nbytes=total)
        if kind in (
            FaultKind.TORN_FRAME, FaultKind.DROPPED_FRAME, FaultKind.DELAYED_FRAME
        ):
            return kind
        if kind is FaultKind.TORN_SEND:
            raise TornSend(f"injected torn send after {total // 2}/{total} B")
        if kind is FaultKind.CONN_RESET:
            # A real reset: the socket dies under us, both directions.
            self._abort_sockets()
            raise PeerDisconnected(f"injected connection reset ({total} B frame)")
        if kind is FaultKind.HALF_OPEN:
            # Half-open: our writes appear to succeed but nothing will
            # ever come back — stop reading so the caller's reply recv
            # times out, the way a silently-dead WAN peer behaves.
            try:
                self._recv_sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass
            return None
        raise fault_exception(kind, f"injected {kind.value} on tcp send ({total} B)")

    def _abort_sockets(self) -> None:
        for sock in {self._send_sock, self._recv_sock}:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def _sendv(self, views: Sequence[np.ndarray], total: int, timeout: float) -> None:
        if self._closed:
            raise PeerDisconnected("send on closed TcpChannel")
        frame_kind = self._maybe_inject_fault(total)
        if frame_kind is FaultKind.DROPPED_FRAME:
            # The frame "leaves" but never arrives; the peer's reply
            # (which will never come) is the caller's timeout.
            return
        if frame_kind is FaultKind.DELAYED_FRAME:
            time.sleep(DELAY_INJECT_S)
        prefix = FRAME_PREFIX.pack(total)
        parts = [memoryview(prefix)]
        parts.extend(memoryview(v) for v in views)
        if frame_kind is FaultKind.TORN_FRAME:
            # Put the prefix and roughly half the payload on the wire,
            # then kill the connection: the receiver sees a genuinely
            # torn frame, not just a client-side exception.
            torn = b"".join(bytes(p) for p in parts)[: FRAME_PREFIX.size + total // 2]  # flexlint: ok(FXL006) chaos-only path; the copy IS the fault being injected
            try:
                self._send_sock.sendall(torn)
            except OSError:
                pass
            self._abort_sockets()
            raise TornSend(
                f"injected torn frame after {total // 2}/{total} B"
            )
        _set_timeout(self._send_sock, timeout)
        sent = 0
        frame_len = FRAME_PREFIX.size + total
        try:
            while parts:
                n = self._send_sock.sendmsg(parts)
                sent += n
                # Drop fully sent parts, trim a partially sent head.
                while parts and n >= len(parts[0]):
                    n -= len(parts[0])
                    parts.pop(0)
                if parts and n:
                    parts[0] = parts[0][n:]
        except socket.timeout as exc:
            raise TransportTimeout(
                f"tcp send timed out after {timeout}s ({sent}/{frame_len} B)"
            ) from exc
        except (ConnectionResetError, BrokenPipeError) as exc:
            if sent:
                raise TornSend(
                    f"tcp peer vanished after {sent}/{frame_len} B: {exc}"
                ) from exc
            raise PeerDisconnected(f"tcp peer vanished before send: {exc}") from exc
        except OSError as exc:
            raise PeerDisconnected(f"tcp send failed: {exc}") from exc
        self.messages_sent += 1
        self.bytes_sent += total

    # -- consumer ---------------------------------------------------------
    def recv(self, timeout: float = 5.0) -> WireBuffer:
        """The next frame as a heap-owned :class:`WireBuffer`."""
        if self.monitor is not None:
            with self.monitor.span("transport", "tcp.recv") as sp:
                wb = self._recv(timeout)
                sp.add_bytes(wb.nbytes)
                sp.set_attr("path", "tcp")
                sp.set_attr("copies", wb.copies)
            return wb
        return self._recv(timeout)

    def _recv(self, timeout: float) -> WireBuffer:
        if self._closed:
            raise PeerDisconnected("recv on closed TcpChannel")
        prefix = bytearray(FRAME_PREFIX.size)  # flexlint: ok(FXL006) 8-byte length-prefix scratch, not payload
        got = _recv_exact(self._recv_sock, memoryview(prefix), timeout)
        if got == 0:
            raise PeerDisconnected("tcp peer closed the connection")
        if got < FRAME_PREFIX.size:
            raise TornSend(
                f"tcp peer closed mid-prefix ({got}/{FRAME_PREFIX.size} B)"
            )
        (length,) = FRAME_PREFIX.unpack(prefix)
        if length > MAX_FRAME:
            raise PeerDisconnected(f"corrupt tcp frame length {length}")
        payload = np.empty(int(length), dtype=np.uint8)
        got = _recv_exact(self._recv_sock, memoryview(payload), timeout)
        if got < length:
            raise TornSend(f"tcp peer closed mid-frame ({got}/{length} B)")
        wb = WireBuffer(payload, ownership=Ownership.HEAP, copies=COPIES_TCP)
        self.observe_delivery(wb, "tcp")
        return wb

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for sock in {self._send_sock, self._recv_sock}:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def emit_stats(self, monitor=None) -> None:
        """Publish send counters into a monitor's metrics registry."""
        mon = monitor or self.monitor
        if mon is None:
            raise ValueError("no monitor bound to this channel")
        mon.metrics.gauge("tcp.channel.messages_sent").set(self.messages_sent)
        mon.metrics.gauge("tcp.channel.bytes_sent").set(self.bytes_sent)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = "loopback" if self.loopback else "remote"
        state = "closed" if self._closed else "open"
        return f"<TcpChannel {mode} {state} sent={self.messages_sent}>"


def send_frame(sock: socket.socket, payload, timeout: float = 5.0) -> None:
    """Module-level one-shot frame send over a raw socket (control-plane
    helper shared with :mod:`repro.net`).  Every socket-layer failure —
    including a dead socket at ``settimeout`` — surfaces as a typed
    :class:`~repro.transport.faults.TransportFault`, never a raw
    ``OSError``."""
    view = as_byte_view(payload)
    _set_timeout(sock, timeout)
    try:
        sock.sendall(FRAME_PREFIX.pack(view.nbytes))
        sock.sendall(view)
    except socket.timeout as exc:
        raise TransportTimeout(f"frame send timed out after {timeout}s") from exc
    except (ConnectionResetError, BrokenPipeError, OSError) as exc:
        raise PeerDisconnected(f"frame send failed: {exc}") from exc


def recv_frame(sock: socket.socket, timeout: float = 5.0) -> Optional[np.ndarray]:
    """Module-level one-shot frame receive; None on orderly peer close."""
    prefix = bytearray(FRAME_PREFIX.size)  # flexlint: ok(FXL006) 8-byte length-prefix scratch, not payload
    got = _recv_exact(sock, memoryview(prefix), timeout)
    if got == 0:
        return None
    if got < FRAME_PREFIX.size:
        raise TornSend(f"peer closed mid-prefix ({got}/{FRAME_PREFIX.size} B)")
    (length,) = FRAME_PREFIX.unpack(prefix)
    if length > MAX_FRAME:
        raise PeerDisconnected(f"corrupt frame length {length}")
    payload = np.empty(int(length), dtype=np.uint8)
    got = _recv_exact(sock, memoryview(payload), timeout)
    if got < length:
        raise TornSend(f"peer closed mid-frame ({got}/{length} B)")
    return payload
