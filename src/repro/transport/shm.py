"""Shared-memory intra-node transport (paper Section II.D).

Three pieces:

1. :class:`SPSCQueue` — a FastForward-inspired single-producer
   single-consumer, circular, lock-free FIFO.  Producer and consumer keep
   *separate* head/tail indices (never shared), each entry occupies its own
   cache-line-aligned region, and a per-entry status flag (EMPTY/FULL) is
   the only coordination: the producer stores payload then flips the flag
   to FULL; the consumer polls the flag, copies out, and flips it back to
   EMPTY.  The layout math (alignment, padding, flag placement) follows the
   paper even though Python's GIL supplies the memory-ordering guarantees a
   C implementation would need fences for.

2. :class:`ShmBufferPool` — producer-owned pool of reusable buffers indexed
   by a per-size free list; large messages are gathered into a leased pool
   buffer and announced via a small control message through the queue, and
   the consumer receives a :class:`~repro.transport.buffers.WireBuffer`
   view over the shared buffer (one staging copy; releasing the span
   returns the buffer).  The XPMEM path instead "maps" the producer's
   source buffer into the consumer (zero-copy handoff of a read-only
   view), so the transport itself performs no copy at all.

3. :class:`ShmCostModel` — prices the same operations for discrete-event
   runs: per-message queue latencies by NUMA relationship, and per-copy
   memcpy costs from the node's memory bandwidth.
"""

from __future__ import annotations

import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.analysis import sanitize
from repro.machine.topology import NodeType
from repro.obs.events import EV_FAULT, emit
from repro.obs.names import F_SHM_POOL, F_SHM_QUEUE, metric_name
from repro.transport.buffers import (
    COPIES_INLINE,
    COPIES_POOL,
    COPIES_XPMEM,
    BufferLease,
    Channel,
    LeasePool,
    Ownership,
    WireBuffer,
    WireVector,
    as_byte_view,
)
from repro.transport.faults import (
    FaultKind,
    TornSend,
    TransportFaultInjector,
    TransportTimeout,
    fault_exception,
)
from repro.util import CACHE_LINE, align_up

#: Back-compat alias; ``np.frombuffer(part)`` is copy-free for any
#: bytes-like (the old local helper round-tripped through ``bytes(part)``
#: and paid a needless copy per memoryview part).
_as_byte_view = as_byte_view

_EMPTY = 0
_FULL = 1

# Per-entry header: 1-byte status flag + 3 pad + 4-byte payload length.
_HDR = struct.Struct("<B3xI")


class QueueFull(TransportTimeout):
    """Blocking enqueue found no EMPTY entry before its deadline.

    A :class:`~repro.transport.faults.TransportTimeout`, so retry code
    catches SHM enqueue and dequeue timeouts (and RDMA timeouts) as one
    type; still a ``RuntimeError`` for pre-existing callers.
    """


class QueueEmpty(TransportTimeout):
    """Blocking dequeue found no FULL entry before its deadline."""


class QueueClosed(RuntimeError):
    """Operation on a queue whose producer has closed it."""


@dataclass
class QueueStats:
    """Instrumentation counters (feed the performance-monitoring layer)."""

    enqueued: int = 0
    dequeued: int = 0
    bytes_enqueued: int = 0
    producer_spins: int = 0
    consumer_spins: int = 0

    def emit(self, monitor, prefix: str = F_SHM_QUEUE) -> None:
        """Publish a snapshot of these counters into ``monitor.metrics``."""
        m = monitor.metrics
        m.gauge(metric_name(prefix, "enqueued")).set(self.enqueued)
        m.gauge(metric_name(prefix, "dequeued")).set(self.dequeued)
        m.gauge(metric_name(prefix, "bytes_enqueued")).set(self.bytes_enqueued)
        m.gauge(metric_name(prefix, "producer_spins")).set(self.producer_spins)
        m.gauge(metric_name(prefix, "consumer_spins")).set(self.consumer_spins)


class SPSCQueue:
    """Lock-free single-producer single-consumer circular byte queue.

    ``slots`` entries of ``payload_size`` bytes each; every entry is padded
    to a multiple of the cache-line size and starts on a cache-line
    boundary so adjacent entries never share a line (no false sharing
    between the producer writing entry *i* and the consumer reading entry
    *i-1*).
    """

    def __init__(self, slots: int = 64, payload_size: int = 240) -> None:
        if slots < 2:
            raise ValueError("need at least 2 slots")
        if payload_size < 1:
            raise ValueError("payload_size must be positive")
        self.slots = int(slots)
        self.payload_size = int(payload_size)
        #: Bytes per entry: header + payload, padded out to full cache lines.
        self.entry_size = align_up(_HDR.size + payload_size, CACHE_LINE)
        self._buf = np.zeros(self.slots * self.entry_size, dtype=np.uint8)
        self._mv = memoryview(self._buf)
        # Producer-private and consumer-private cursors (deliberately NOT
        # shared state — FastForward's key idea).
        self._head = 0  # next entry to enqueue (producer only)
        self._tail = 0  # next entry to dequeue (consumer only)
        self._closed = False
        self.stats = QueueStats()
        # Concurrency sanitizer, captured at construction so the disabled
        # path costs one None check per operation (FLEXIO_SANITIZE=1).
        # It learns producer/consumer thread ownership from the first
        # try_enqueue/try_dequeue and flags SPSC-discipline violations.
        self._san = sanitize.get()

    # ------------------------------------------------------------------
    def _entry(self, idx: int) -> int:
        return idx * self.entry_size

    def _flag(self, idx: int) -> int:
        return self._buf[self._entry(idx)]

    # -- producer side ----------------------------------------------------
    def try_enqueue(self, data: Union[bytes, bytearray, memoryview]) -> bool:
        """Enqueue without blocking; returns False if the next entry is FULL.

        The payload is sliced straight into the slot — no ``bytes(...)``
        coercion, so memoryviews and contiguous arrays enqueue with the
        single producer→slot copy (only non-contiguous arrays are
        compacted first by :func:`as_byte_view`).
        """
        view = as_byte_view(data)
        return self.try_enqueuev((view,), view.nbytes)

    def try_enqueuev(self, views: Sequence[np.ndarray], total: Optional[int] = None) -> bool:
        """Vectored enqueue: gather ``views`` (flat uint8 arrays) into one
        slot with one copy per part and no intermediate join."""
        if self._san is not None:
            self._san.note_spsc(self, "producer")
        if self._closed:
            raise QueueClosed("enqueue on closed queue")
        if total is None:
            total = sum(v.nbytes for v in views)
        if total > self.payload_size:
            raise ValueError(
                f"message of {total} B exceeds slot payload {self.payload_size} B"
            )
        base = self._entry(self._head)
        if self._buf[base] != _EMPTY:
            self.stats.producer_spins += 1
            return False
        # Write payload first, status flag last (release ordering).
        _HDR.pack_into(self._mv, base, _EMPTY, total)
        off = base + _HDR.size
        for v in views:
            n = v.nbytes
            self._buf[off : off + n] = v
            off += n
        self._buf[base] = _FULL
        self._head = (self._head + 1) % self.slots
        self.stats.enqueued += 1
        self.stats.bytes_enqueued += total
        return True

    def enqueue(self, data: Union[bytes, bytearray, memoryview], timeout: float = 5.0) -> None:
        """Blocking enqueue; spins (with micro-sleeps) until an entry frees."""
        view = as_byte_view(data)
        self.enqueuev((view,), view.nbytes, timeout=timeout)

    def enqueuev(
        self,
        views: Sequence[np.ndarray],
        total: Optional[int] = None,
        timeout: float = 5.0,
    ) -> None:
        """Blocking vectored enqueue; spins until an entry frees."""
        if total is None:
            total = sum(v.nbytes for v in views)
        deadline = time.monotonic() + timeout
        while not self.try_enqueuev(views, total):
            if time.monotonic() > deadline:
                raise QueueFull(f"queue full for {timeout}s")
            time.sleep(1e-6)

    def close(self) -> None:
        """Producer signals End-of-Stream; pending entries remain readable."""
        self._closed = True

    # -- consumer side ----------------------------------------------------
    def try_dequeue(self) -> Optional[bytes]:
        """Dequeue without blocking; None if the next entry is EMPTY."""
        if self._san is not None:
            self._san.note_spsc(self, "consumer")
        base = self._entry(self._tail)
        if self._buf[base] != _FULL:
            self.stats.consumer_spins += 1
            if self._closed:
                raise QueueClosed("end of stream")
            return None
        _, length = _HDR.unpack_from(self._mv, base)
        pstart = base + _HDR.size
        out = bytes(self._mv[pstart : pstart + length])  # flexlint: ok(FXL006) the slot must be copied out before it is handed back to the producer (inline path's second copy)
        # Copy out first, then release the entry to the producer.
        self._buf[base] = _EMPTY
        self._tail = (self._tail + 1) % self.slots
        self.stats.dequeued += 1
        return out

    def dequeue(self, timeout: float = 5.0) -> bytes:
        """Blocking dequeue; raises :class:`QueueClosed` at end of stream."""
        deadline = time.monotonic() + timeout
        while True:
            item = self.try_dequeue()
            if item is not None:
                return item
            if time.monotonic() > deadline:
                raise QueueEmpty(f"queue empty for {timeout}s")
            time.sleep(1e-6)

    def __len__(self) -> int:
        """Entries currently FULL (approximate under concurrency)."""
        return int(np.count_nonzero(self._buf[:: self.entry_size] == _FULL))

    def emit_stats(self, monitor, prefix: str = F_SHM_QUEUE) -> None:
        """Snapshot counters + current depth into ``monitor.metrics``."""
        self.stats.emit(monitor, prefix)
        monitor.metrics.gauge(metric_name(prefix, "depth")).set(len(self))


# ---------------------------------------------------------------------------
# Buffer pool
# ---------------------------------------------------------------------------

@dataclass
class _PoolBuffer:
    buffer_id: int
    data: np.ndarray
    in_use: bool = False

    @property
    def size(self) -> int:
        return self.data.nbytes


@dataclass
class PoolStats:
    allocations: int = 0
    reuses: int = 0
    reclaimed: int = 0
    peak_bytes: int = 0


class ShmBufferPool(LeasePool):
    """Producer-owned pool of large-message buffers with per-size free lists.

    ``acquire`` rounds the request up to the next power of two and serves
    from the free list when possible (the "closest size" search of the
    paper); ``release`` returns a buffer for reuse.  ``max_bytes`` is the
    configurable threshold that triggers reclamation of idle buffers.
    :meth:`lease` wraps the same acquire/release cycle in the buffer
    plane's :class:`~repro.transport.buffers.BufferLease` protocol (shared
    with the RDMA registration cache).
    """

    def __init__(self, max_bytes: int = 256 * 1024 * 1024) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        LeasePool.__init__(self)
        self.max_bytes = int(max_bytes)
        self._buffers: dict[int, _PoolBuffer] = {}
        self._free: dict[int, list[int]] = {}  # size -> [buffer_id]
        self._next_id = 0
        self._total_bytes = 0
        self._lock = sanitize.make_lock("shm.pool")
        self.stats = PoolStats()

    @staticmethod
    def _bucket(nbytes: int) -> int:
        size = 1
        while size < nbytes:
            size <<= 1
        return size

    @property
    def total_bytes(self) -> int:
        return self._total_bytes

    def acquire(self, nbytes: int) -> _PoolBuffer:
        """Get a buffer of at least ``nbytes`` (reuse before allocate)."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        size = self._bucket(nbytes)
        with self._lock:
            free = self._free.get(size)
            if free:
                buf = self._buffers[free.pop()]
                buf.in_use = True
                self.stats.reuses += 1
                return buf
            buf = _PoolBuffer(self._next_id, np.zeros(size, dtype=np.uint8), in_use=True)
            self._next_id += 1
            self._buffers[buf.buffer_id] = buf
            self._total_bytes += size
            self.stats.allocations += 1
            self.stats.peak_bytes = max(self.stats.peak_bytes, self._total_bytes)
            if self._total_bytes > self.max_bytes:
                self._reclaim_locked()
            return buf

    def release(self, buffer_id: int) -> None:
        """Return a buffer to its free list."""
        with self._lock:
            buf = self._buffers.get(buffer_id)
            if buf is None:
                raise KeyError(f"unknown buffer id {buffer_id}")
            if not buf.in_use:
                raise ValueError(f"buffer {buffer_id} already free")
            buf.in_use = False
            self._free.setdefault(buf.size, []).append(buffer_id)

    def get(self, buffer_id: int) -> _PoolBuffer:
        return self._buffers[buffer_id]

    # -- BufferLease protocol ----------------------------------------------
    def lease(self, nbytes: int) -> BufferLease:
        """Acquire a pool buffer under a lease (release via the lease)."""
        buf = self.acquire(nbytes)  # flexlint: ok(FXL012) ownership transfers by buffer_id into the constructed lease; its release() returns the buffer
        return self._make_lease(
            buf.buffer_id, buf.data, nbytes, label=f"shm.pool#{buf.buffer_id}"
        )

    def _return_buffer(self, lease: BufferLease) -> None:
        self.release(lease.buffer_id)

    def _reclaim_locked(self) -> None:
        """Drop idle buffers (largest first) until under the threshold."""
        idle = sorted(
            (b for b in self._buffers.values() if not b.in_use),
            key=lambda b: -b.size,
        )
        for buf in idle:
            if self._total_bytes <= self.max_bytes:
                break
            self._free[buf.size].remove(buf.buffer_id)
            del self._buffers[buf.buffer_id]
            self._total_bytes -= buf.size
            self.stats.reclaimed += 1

    def emit_stats(self, monitor, prefix: str = F_SHM_POOL) -> None:
        """Snapshot pool counters + occupancy into ``monitor.metrics``."""
        m = monitor.metrics
        m.gauge(metric_name(prefix, "occupancy_bytes")).set(self._total_bytes)
        m.gauge(metric_name(prefix, "peak_bytes")).set(self.stats.peak_bytes)
        m.gauge(metric_name(prefix, "allocations")).set(self.stats.allocations)
        m.gauge(metric_name(prefix, "reuses")).set(self.stats.reuses)
        m.gauge(metric_name(prefix, "reclaimed")).set(self.stats.reclaimed)


# ---------------------------------------------------------------------------
# Channel: small messages through the queue, large ones through the pool
# ---------------------------------------------------------------------------

_CTRL = struct.Struct("<BQQ")  # path, buffer_id/token, length
_PATH_INLINE = 0
_PATH_POOL = 1
_PATH_XPMEM = 2


#: Span/counter path names per control-message path constant.
_PATH_NAMES = {_PATH_INLINE: "inline", _PATH_POOL: "pool", _PATH_XPMEM: "xpmem"}


class ShmChannel(Channel):
    """One-directional intra-node data channel (producer → consumer).

    Small payloads ride inline in queue entries (copied into the slot,
    copied out of it: 2 copies).  Large payloads take one of two paths:

    * **pool** (default): the producer gathers straight into a leased
      pool buffer (the single staging copy), sends a control message,
      and the consumer receives a :class:`WireBuffer` *view* over the
      shared buffer — releasing the span returns the lease.  One copy,
      fully asynchronous.
    * **xpmem**: the producer publishes a read-only view of its source
      buffer (modelling ``xpmem_make``/``xpmem_attach`` page mapping);
      the consumer's :class:`WireBuffer` maps those pages directly —
      zero transport copies — and releasing the span detaches, so the
      producer must not reuse the source until then (synchronous
      semantics).

    Every delivery reports its copy count (inline=2, pool=1, xpmem=0)
    into the ``transport.copies`` histogram of the bound monitor.
    """

    def __init__(
        self,
        queue: Optional[SPSCQueue] = None,
        pool: Optional[ShmBufferPool] = None,
        use_xpmem: bool = False,
        monitor=None,
        injector: Optional[TransportFaultInjector] = None,
    ) -> None:
        self.queue = queue or SPSCQueue()
        self.pool = pool or ShmBufferPool()
        self.use_xpmem = use_xpmem
        #: Optional PerfMonitor: send/recv become spans (when tracing is
        #: on) and the queue/pool counters are published on close().
        self.monitor = monitor
        #: Optional deterministic fault source consulted before sends.
        self.injector = injector
        self._inline_max = self.queue.payload_size - _CTRL.size
        self._xpmem_segments: dict[int, np.ndarray] = {}
        self._xpmem_done: dict[int, threading.Event] = {}
        self._next_token = 0
        self._token_lock = sanitize.make_lock("shm.xpmem_token")
        #: Pool leases announced to the consumer but not yet received:
        #: buffer_id -> lease (handed over to the consumer's WireBuffer).
        self._in_flight: dict[int, BufferLease] = {}
        #: Copies performed per large message on each path (observable).
        self.copies_per_large_message = COPIES_XPMEM if use_xpmem else COPIES_POOL
        self.large_sends = 0
        self.inline_sends = 0

    # -- producer ---------------------------------------------------------
    def send(
        self,
        payload: Union[bytes, memoryview, np.ndarray, WireBuffer],
        timeout: float = 5.0,
    ) -> None:
        """Move one payload; accepts any wire span shape without copying."""
        wb = WireBuffer.wrap(payload)
        if self.monitor is not None:
            with self.monitor.span("transport", "shm.send", nbytes=wb.nbytes):
                self._send(wb, timeout)
            self.monitor.metrics.counter("shm.bytes_sent").inc(wb.nbytes)
            self.monitor.metrics.counter("shm.messages_sent").inc()
        else:
            self._send(wb, timeout)

    def sendv(
        self,
        parts: Union[WireVector, Sequence[Union[bytes, np.ndarray, WireBuffer]]],
        timeout: float = 5.0,
    ) -> None:
        """Vectored send: gather ``parts`` into one message.

        One control round and one pool lease service the whole step —
        each part is copied straight into the shared buffer (or, inline,
        straight into the queue slot alongside the control header), with
        no intermediate join on the producer side.  Always takes the
        pool path for large payloads (the xpmem path's synchronous
        consumer-detach handshake would deadlock a caller that also
        drives ``recv`` from the same thread).
        """
        vec = parts if isinstance(parts, WireVector) else WireVector(parts)
        total = vec.nbytes
        if self.monitor is not None:
            with self.monitor.span(
                "transport", "shm.sendv", nbytes=total, parts=len(vec)
            ):
                self._sendv(vec, total, timeout)
            self.monitor.metrics.counter("shm.bytes_sent").inc(total)
            self.monitor.metrics.counter("shm.messages_sent").inc()
        else:
            self._sendv(vec, total, timeout)

    def _maybe_inject_fault(self, total: int) -> None:
        """Consult the injector; raise the scheduled typed fault, if any.

        A torn send is modeled faithfully for the pool path: part of the
        payload is really written into a leased pool buffer, but the
        control message never goes out — so the consumer can never
        observe the partial bytes, and the producer sees a typed
        :class:`TornSend`.  The lease is released before raising (no
        leak across retries).
        """
        if self.injector is None:
            return
        kind = self.injector.next_fault()
        if kind is None:
            return
        emit(self.monitor, EV_FAULT, kind=kind.value, transport="shm", nbytes=total)
        if kind is FaultKind.TORN_SEND and total > self._inline_max:
            with self.pool.lease(total) as lease:
                torn = max(1, total // 2)
                lease.data[:torn] = 0
            raise TornSend(f"injected torn send after {total // 2}/{total} B")
        raise fault_exception(kind, f"injected {kind.value} on shm send ({total} B)")

    def _sendv(self, vec: WireVector, total: int, timeout: float) -> None:
        self._maybe_inject_fault(total)
        if total <= self._inline_max:
            # One gather write: control header + every view, straight
            # into the queue slot (no join, no intermediate bytes).
            hdr = as_byte_view(_CTRL.pack(_PATH_INLINE, 0, total))
            self.queue.enqueuev(
                (hdr, *(p.as_array() for p in vec)),
                _CTRL.size + total,
                timeout=timeout,
            )
            self.inline_sends += 1
            return
        self._send_pool(vec, total, timeout)
        self.large_sends += 1

    def _send(self, wb: WireBuffer, timeout: float) -> None:
        self._maybe_inject_fault(wb.nbytes)
        if wb.nbytes <= self._inline_max:
            hdr = as_byte_view(_CTRL.pack(_PATH_INLINE, 0, wb.nbytes))
            self.queue.enqueuev(
                (hdr, wb.as_array()), _CTRL.size + wb.nbytes, timeout=timeout
            )
            self.inline_sends += 1
            return
        if self.use_xpmem:
            self._send_xpmem(wb, timeout)
        else:
            self._send_pool(WireVector((wb,)), wb.nbytes, timeout)
        self.large_sends += 1

    def _send_pool(self, vec: WireVector, total: int, timeout: float) -> None:
        lease = self.pool.lease(total)
        # Publish the lease before the control message goes out so the
        # consumer can never observe a buffer_id we don't know about.
        self._in_flight[lease.buffer_id] = lease
        try:
            vec.copy_into(lease.data)  # gather: the single staging copy
            self.queue.enqueue(
                _CTRL.pack(_PATH_POOL, lease.buffer_id, total), timeout=timeout
            )
        except BaseException:  # flexlint: ok(FXL001) lease cleanup must cover every raise, then re-raises
            # The control message never went out: reclaim the lease so a
            # failed or timed-out send cannot leak the pool buffer
            # (retries re-lease from the free list).
            self._in_flight.pop(lease.buffer_id, None)
            lease.release()
            raise

    def _send_xpmem(self, wb: WireBuffer, timeout: float) -> None:
        with self._token_lock:
            token = self._next_token
            self._next_token += 1
        # "Map" the source pages: expose the producer's view, no copy.
        self._xpmem_segments[token] = wb.as_array()
        done = threading.Event()
        self._xpmem_done[token] = done
        try:
            self.queue.enqueue(
                _CTRL.pack(_PATH_XPMEM, token, wb.nbytes), timeout=timeout
            )
            # Synchronous large-message semantics: wait for consumer detach.
            if not done.wait(timeout):
                raise TimeoutError("xpmem consumer did not detach in time")
        finally:
            self._xpmem_segments.pop(token, None)
            self._xpmem_done.pop(token, None)

    def close(self) -> None:
        self.queue.close()
        # A producer shutting down with announcements never consumed must
        # not leak leases or wedge xpmem waiters.
        for buffer_id in list(self._in_flight):
            lease = self._in_flight.pop(buffer_id, None)
            if lease is not None and not lease.released:
                lease.release()
        for done in list(self._xpmem_done.values()):
            done.set()
        if self.monitor is not None:
            self.emit_stats()

    def emit_stats(self, monitor=None) -> None:
        """Publish queue/pool counters into a monitor's metrics registry
        (so ``report()`` shows the transport instead of it being a set of
        write-only fields)."""
        mon = monitor or self.monitor
        if mon is None:
            raise ValueError("no monitor bound to this channel")
        self.queue.emit_stats(mon)
        self.pool.emit_stats(mon)
        mon.metrics.gauge("shm.channel.inline_sends").set(self.inline_sends)
        mon.metrics.gauge("shm.channel.large_sends").set(self.large_sends)

    # -- consumer ---------------------------------------------------------
    def recv(self, timeout: float = 5.0) -> WireBuffer:
        """Receive one message as a :class:`WireBuffer` span; raises
        :class:`QueueClosed` at end of stream.

        Pool- and xpmem-backed spans stay valid until the consumer calls
        :meth:`WireBuffer.release` — releasing returns the pool lease /
        detaches the mapping.  Inline spans are heap-owned.
        """
        if self.monitor is not None:
            with self.monitor.span("transport", "shm.recv") as sp:
                out = self._recv(timeout)
                sp.add_bytes(out.nbytes)
                sp.set_attr(
                    "path",
                    "inline" if out.ownership is Ownership.HEAP else out.ownership.value,
                )
                sp.set_attr("copies", out.copies)
            return out
        return self._recv(timeout)

    def _recv(self, timeout: float) -> WireBuffer:
        msg = self.queue.dequeue(timeout=timeout)  # inline copy-out lives in the queue
        path, token, length = _CTRL.unpack_from(msg, 0)
        if path == _PATH_INLINE:
            payload = np.frombuffer(
                msg, dtype=np.uint8, count=length, offset=_CTRL.size
            )  # view over the dequeued copy — no third copy
            wb = WireBuffer(payload, ownership=Ownership.HEAP, copies=COPIES_INLINE)
        elif path == _PATH_POOL:
            lease = self._in_flight.pop(int(token))
            wb = WireBuffer.from_lease(
                lease, length, ownership=Ownership.POOL, copies=COPIES_POOL
            )
        elif path == _PATH_XPMEM:
            seg = self._xpmem_segments[int(token)]
            done = self._xpmem_done[int(token)]
            # Attach to the producer's pages; release() detaches.
            wb = WireBuffer(
                seg[:length], ownership=Ownership.XPMEM,
                copies=COPIES_XPMEM, on_release=done.set,
            )
        else:
            raise ValueError(f"corrupt control message path {path}")
        self.observe_delivery(wb, _PATH_NAMES[path])
        return wb


# ---------------------------------------------------------------------------
# Cost model (for discrete-event runs)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShmCostModel:
    """Prices intra-node movement for the simulator.

    Parameters default to the transport's measured behaviour class: a
    cache-speed hop inside one L3, a slower hop across NUMA domains, and
    memcpy throughput set by the node's memory bandwidth.
    """

    node_type: NodeType
    #: Queue message latency when producer and consumer share an L3 (s).
    latency_same_numa: float = 0.2e-6
    #: Queue message latency across NUMA domains (coherence traffic) (s).
    latency_cross_numa: float = 0.6e-6

    def copy_bw(self, cross_numa: bool) -> float:
        """Effective single-stream memcpy bandwidth (bytes/s)."""
        bw = self.node_type.mem_bw_local
        if cross_numa:
            bw *= self.node_type.numa_remote_factor
        return bw

    def small_msg_time(self, cross_numa: bool) -> float:
        return self.latency_cross_numa if cross_numa else self.latency_same_numa

    def transfer_time(
        self, nbytes: int, cross_numa: bool = False, xpmem: bool = False
    ) -> float:
        """Time to move ``nbytes`` producer → consumer.

        Classic path: control message + two memcpys.  XPMEM path: control
        message + segment attach + one memcpy.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        t = self.small_msg_time(cross_numa)
        copies = 1 if xpmem else 2
        if xpmem:
            t += 1.5e-6  # xpmem_make/attach page-mapping cost
        t += copies * (nbytes / self.copy_bw(cross_numa))
        return t
