"""The FLEXPATH stream I/O method (paper Section II.B).

Stream mode keeps the file metaphor: the simulation *creates a file* with
a unique name, the analytics *opens* it — but underneath, the open
resolves the name at the directory server and connects to the writing
program.  Writers then emit timesteps; readers consume them (process-group
or global-array pattern); when the writer closes the file, readers receive
End-of-Stream from their next read.  Because the API is the ADIOS file
API, stream and file modes interchange without code changes.

The data plane behind ``end_step`` is pipelined: sealing a
step (running writer-side DC plug-ins) happens on the writer's thread,
then the step is handed to a bounded background **drainer** that pushes
the payload through the selected SHM/RDMA channel.  With ``sync=false``
(the default) the writer-visible span covers only the seal + buffer
hand-off; ``sync=true`` blocks until the transport drain completes —
so ``writer_visible`` is a *measured* span, not a formula.

Reads are served from a **plan cache**: with CACHING_LOCAL/CACHING_ALL
the (writer boxes, selection) overlap geometry is compiled once to bare
numpy slice assignments and replayed on subsequent steps.
"""

from __future__ import annotations

import queue
import threading
import time
import zlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from repro.adios.api import (
    EndOfStream,
    IoMethod,
    RankContext,
    ReadHandle,
    StepLost,
    StepNotReady,
    StreamFailure,
    VariableNotFound,
    WriteHandle,
    register_method,
    resolve_read_args,
)
from repro.adios.config import MethodSpec
from repro.adios.model import Group, ProcessGroupData, WrittenVar
from repro.adios.selection import BoundingBox, resolve_selection
# Unused here; perfbench/layers.py times reads by patching this name.
from repro.adios.selection import assemble  # noqa: F401
from repro.analysis import sanitize
from repro.core.directory import CoordinatorInfo, DirectoryError, DirectoryServer
from repro.core.hints import (
    BATCHING,
    BUFFER_STEPS,
    CACHING,
    CACHING_ALL,
    CACHING_LOCAL,
    CACHING_NONE,
    DEGRADE_AFTER,
    FAULTS,
    FUSED,
    LEASE,
    PUSHDOWN,
    MAX_RETRIES,
    QUEUE_DEPTH,
    RETRY_BACKOFF,
    RETRY_JITTER,
    RETRY_TIMEOUT,
    STREAM_METHODS,
    SYNC,
    TRACE,
    TRANSACTIONAL,
    TRANSPORT,
    TRANSPORT_RDMA,
    TRANSPORT_SHM,
    TRANSPORT_TCP,
    XPMEM,
    validate_spec,
)
from repro.core.redistribution import (
    CachingOption,
    PlanCache,
    RedistributionEngine,
    execute_read,
    global_plan_cache,
)
# Unused here; perfbench/layers.py times handshakes by patching this name.
from repro.core.redistribution import compute_plan  # noqa: F401
from repro.core.monitoring import PerfMonitor
from repro.core.plugins import (
    CodeletError,
    PluginManager,
    PluginSide,
    combine_predicates,
    parse_predicate,
)
from repro.obs import recorder as flight
from repro.obs import events as ev
from repro.obs.events import emit
from repro.core.resilience import (
    MovementFailed,
    Participant,
    RetryPolicy,
    TransactionAborted,
    TransactionCoordinator,
)
from repro.transport.buffers import WireBuffer, WireVector
from repro.transport.faults import (
    TransportFault,
    injector_from_env,
    parse_fault_spec,
)
from repro.util import rng


class StreamStalled(StepNotReady):
    """No published step is available yet (writer still running)."""


class StreamError(RuntimeError):
    """Protocol misuse on a stream."""


class StepState(Enum):
    """Delivery state of one published step."""

    PENDING = "pending"      # sealed, still in the drain pipeline
    COMMITTED = "committed"  # drained successfully; readable
    LOST = "lost"            # retries exhausted; payload discarded
    ABORTED = "aborted"      # its transaction aborted; payload discarded


#: Graceful-degradation ladder: on repeated drain failure the stream falls
#: back to the next transport down, ending at buffered-only (no channel).
_DEGRADE_LADDER: dict[str, Optional[str]] = {
    TRANSPORT_RDMA: TRANSPORT_TCP,
    TRANSPORT_TCP: TRANSPORT_SHM,
    TRANSPORT_SHM: None,
}

#: Methods that run on (or in lock-step with) the drainer thread.  The
#: FlexLint FXL005 rule checks every ``self.<attr>`` assignment inside
#: these against :data:`DRAINER_SHARED_STATE` — an attribute mutated from
#: the drainer without being declared here fails the lint, forcing the
#: author to think about its synchronization.
DRAINER_METHODS = frozenset({
    "_run",
    "_drain_one",
    "_send_with_retries",
    "_drain_transactional",
    "_mark_lost",
    "_maybe_degrade",
    "_commit",
})

#: Attributes the drainer thread is allowed to mutate.  ``_published`` /
#: ``_buffered_bytes`` / ``peak_buffered_bytes`` / ``backpressure_events``
#: are guarded by ``_publish_lock``; ``_pending`` by ``_pending_lock``;
#: ``_channel`` / ``active_transport`` / ``_consecutive_failures`` are
#: drainer-private (the drainer is their only writer after pipeline start).
DRAINER_SHARED_STATE = frozenset({
    "_pending",
    "_published",
    "_buffered_bytes",
    "_consecutive_failures",
    "_channel",
    "active_transport",
    "peak_buffered_bytes",
    "backpressure_events",
})


@dataclass(frozen=True)
class StreamHints:
    """Transport tuning hints parsed from the XML ``<method>`` parameters.

    The paper's Section IV.B.1 knobs: handshake caching, variable
    batching, synchronous vs asynchronous writes, the XPMEM path, and the
    buffering depth (backpressure threshold).  ``queue_depth`` bounds the
    async drainer's hand-off queue (steps in flight before the writer
    blocks); ``transport`` picks the drain channel (``shm``/``rdma``).
    """

    caching: CachingOption = CachingOption.NO_CACHING
    batching: bool = False
    sync: bool = False
    xpmem: bool = False
    buffer_steps: int = 4
    #: Enable span tracing on the stream's monitor (``trace=true``).
    trace: bool = False
    #: Bounded depth of the async publication queue (back-pressure point).
    queue_depth: int = 2
    #: Drain channel: ``shm`` (intra-node) or ``rdma`` (inter-node).
    transport: str = "shm"
    #: All-or-nothing step visibility via two-phase commit across ranks.
    transactional: bool = False
    #: Bounded retries per step drain (paper's timeout-and-retry).
    max_retries: int = 3
    #: Per-send timeout (seconds); also the backoff base delay.
    retry_timeout: float = 0.25
    #: Exponential backoff multiplier between retries.
    retry_backoff: float = 2.0
    #: Jitter fraction added to backoff delays (decorrelates ranks).
    retry_jitter: float = 0.1
    #: Fault-injection schedule for the drain channel (chaos testing),
    #: e.g. ``rate=0.1,seed=7,kinds=timeout|torn``.
    faults: str = ""
    #: Consecutive failed steps before degrading to the next transport
    #: down the ladder (0 disables degradation).
    degrade_after: int = 2
    #: Directory lease in seconds; the writer must heartbeat within it or
    #: the failure detector ends the stream for readers (0 = no lease).
    lease: float = 0.0
    #: Fuse compilable plug-in chains into the redistribution plan so
    #: reads run the chain while scattering (single pass); ``false``
    #: keeps the classic interpreted pass over materialized arrays.
    fused: bool = True
    #: Register reader block predicates with the directory so the drain
    #: skips sending blocks the chain provably drops.
    pushdown: bool = False

    @classmethod
    def from_spec(cls, spec: MethodSpec) -> "StreamHints":
        # Unknown keys are a hard error with a suggestion (the registry
        # is the single source of hint truth), not a silently-ignored
        # parameter as in the old scattered-literal days.
        validate_spec(spec)
        raw = (spec.param(CACHING, CACHING_NONE) or CACHING_NONE).strip().lower()
        mapping = {
            CACHING_NONE: CachingOption.NO_CACHING,
            CACHING_LOCAL: CachingOption.CACHING_LOCAL,
            CACHING_ALL: CachingOption.CACHING_ALL,
        }
        if raw not in mapping:
            raise StreamError(
                f"unknown caching hint {raw!r}; expected none/local/all"
            )
        transport = (
            spec.param(TRANSPORT, TRANSPORT_SHM) or TRANSPORT_SHM
        ).strip().lower()
        if transport not in (TRANSPORT_SHM, TRANSPORT_RDMA):
            raise StreamError(
                f"unknown transport hint {transport!r}; expected shm/rdma"
            )
        return cls(
            caching=mapping[raw],
            batching=spec.param_bool(BATCHING, False),
            sync=spec.param_bool(SYNC, False),
            xpmem=spec.param_bool(XPMEM, False),
            buffer_steps=spec.param_int(BUFFER_STEPS, 4),
            trace=spec.param_bool(TRACE, False),
            queue_depth=spec.param_int(QUEUE_DEPTH, 2),
            transport=transport,
            transactional=spec.param_bool(TRANSACTIONAL, False),
            max_retries=spec.param_int(MAX_RETRIES, 3),
            retry_timeout=spec.param_float(RETRY_TIMEOUT, 0.25),
            retry_backoff=spec.param_float(RETRY_BACKOFF, 2.0),
            retry_jitter=spec.param_float(RETRY_JITTER, 0.1),
            faults=spec.param(FAULTS, "") or "",
            degrade_after=spec.param_int(DEGRADE_AFTER, 2),
            lease=spec.param_float(LEASE, 0.0),
            fused=spec.param_bool(FUSED, True),
            pushdown=spec.param_bool(PUSHDOWN, False),
        )


@dataclass
class _PublishedStep:
    """One completed timestep: every writer rank's process group."""

    step: int
    groups: dict[int, ProcessGroupData] = field(default_factory=dict)
    #: Span context of the publish (write) span; readers parent their
    #: spans on it so the whole timestep shares one trace ID.  ``None``
    #: when tracing is off or this step's trace was sampled out.
    trace_ctx: Optional[object] = None
    #: Delivery state; only COMMITTED steps are readable.
    status: StepState = StepState.PENDING
    #: Why a LOST/ABORTED step failed (repr of the final exception).
    error: Optional[str] = None

    @property
    def nbytes(self) -> int:
        return sum(g.nbytes for g in self.groups.values())

    def var_names(self) -> list[str]:
        seen: dict[str, None] = {}
        for g in self.groups.values():
            for name in g.variables:
                seen.setdefault(name, None)
        return list(seen)


class _StepDrainer:
    """Bounded background thread pushing sealed steps through a channel.

    The writer hands each :class:`_PublishedStep` to :meth:`submit`;
    once the queue holds ``queue_depth`` undrained steps the writer
    blocks (back-pressure, counted in ``dataplane.backpressure_waits``).
    Every step ends up in the stream's published list exactly once —
    COMMITTED when the drain succeeded, LOST/ABORTED when it did not —
    so readers never hang on a failed step and never see torn data.
    """

    def __init__(self, state: "StreamState", queue_depth: int) -> None:
        self._state = state
        self._queue: queue.Queue = queue.Queue(maxsize=max(1, int(queue_depth)))
        self._pending = 0
        self._pending_lock = sanitize.make_lock("drain.pending")
        self._idle = threading.Event()
        self._idle.set()
        self._stopped = False
        #: Highest queue depth seen so far (writer thread only).
        self._high_water = 0
        #: True when stop() timed out joining a stuck drain thread.
        self.wedged = False
        # Captured at construction: near-zero overhead when disabled.
        self._san = sanitize.get()
        self._thread = threading.Thread(
            target=self._run, name=f"flexio-drain-{state.name}", daemon=True
        )
        self._thread.start()
        if self._san is not None:
            self._san.note_thread_started(self._thread, f"drainer:{state.name}")

    def submit(self, step: _PublishedStep, rank_parts: dict) -> None:
        mon = self._state.monitor
        with self._pending_lock:
            self._pending += 1
            self._idle.clear()
        item = (step, rank_parts)
        try:
            self._queue.put_nowait(item)
        except queue.Full:
            self._state.backpressure_waits += 1
            emit(mon, ev.EV_BACKPRESSURE, self._state.name, step=step.step)
            self._queue.put(item)
        depth = mon.metrics.gauge("dataplane.drain.queue_depth")
        depth.inc()
        if depth.value > self._high_water:
            self._high_water = depth.value
            emit(
                mon, ev.EV_QUEUE_HIGH_WATER, self._state.name,
                depth=int(self._high_water),
            )

    def wait_idle(self) -> None:
        """Block until every submitted step has been drained + committed."""
        self._idle.wait()

    def stop(self, timeout: float = 10.0) -> bool:
        """Stop the drain thread; returns False if it is wedged.

        Idempotent: repeat calls (double-close, registry reset after an
        explicit shutdown) are no-ops.  A thread still alive after the
        join timeout is marked ``wedged`` and left behind (it is a
        daemon), counted in ``dataplane.drain.wedged`` so the hang is
        observable instead of silently blocking close forever.
        """
        if self._stopped:
            return not self.wedged
        self._stopped = True
        try:
            self._queue.put_nowait(None)
        except queue.Full:
            pass  # the polling loop sees _stopped once the queue drains
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            self.wedged = True
            mon = self._state.monitor
            emit(mon, ev.EV_DRAIN_WEDGED, self._state.name, timeout=timeout)
            flight.dump_on_fault(
                "drain wedged", stream=self._state.name, monitor=mon
            )
            return False
        if self._san is not None:
            self._san.note_thread_joined(self._thread)
        return True

    def _run(self) -> None:
        while True:
            try:
                item = self._queue.get(timeout=0.2)
            except queue.Empty:
                if self._stopped:
                    return
                continue
            if item is None:
                return
            step, rank_parts = item
            try:
                self._state._drain_one(step, rank_parts)
            finally:
                self._state.monitor.metrics.gauge(
                    "dataplane.drain.queue_depth"
                ).dec()
                with self._pending_lock:
                    self._pending -= 1
                    if self._pending == 0:
                        self._idle.set()


class StreamState:
    """Shared state of one named stream: buffered steps + membership."""

    def __init__(
        self,
        name: str,
        monitor: Optional[PerfMonitor] = None,
        hints: Optional[StreamHints] = None,
    ) -> None:
        self.name = name
        self.monitor = monitor or PerfMonitor()
        self.hints = hints or StreamHints()
        if self.hints.trace:
            self.monitor.enable_tracing()
        #: Times a publish exceeded the hinted buffering depth.
        self.backpressure_events = 0
        #: Times the writer blocked on a full drain queue (async pipeline).
        self.backpressure_waits = 0
        self.plugins = PluginManager(self.monitor)
        self._published: list[_PublishedStep] = []
        self._publish_lock = sanitize.make_lock("stream.publish")
        self._current: dict[int, ProcessGroupData] = {}
        self._step = 0
        self.writer_ranks: set[int] = set()
        self._advanced: set[int] = set()
        self._closed_ranks: set[int] = set()
        self.closed = False
        #: Why the stream ended abnormally (writer death, lease expiry);
        #: None for a clean close.
        self.error: Optional[str] = None
        #: High-water mark of buffered bytes (backpressure visibility).
        self.peak_buffered_bytes = 0
        #: Running byte total of the published steps (kept on commit).
        self._buffered_bytes = 0
        self._drainer: Optional[_StepDrainer] = None
        self._channel = None
        #: Transport currently draining steps; degrades down the ladder
        #: (rdma → shm → "buffered") on repeated failure.
        self.active_transport = self.hints.transport
        #: Directory this stream is registered at (set by the registry);
        #: heartbeats and reader-side failure detection go through it.
        self._directory: Optional[DirectoryServer] = None
        # Fault schedule: the per-stream hint wins over FLEXIO_FAULTS.
        self._injector = parse_fault_spec(self.hints.faults) or injector_from_env()
        self._retry_policy = RetryPolicy(
            max_retries=self.hints.max_retries,
            timeout=self.hints.retry_timeout,
            backoff_factor=self.hints.retry_backoff,
            jitter=self.hints.retry_jitter,
        )
        # Per-stream deterministic jitter source (stable across runs).
        self._retry_rng = rng(zlib.crc32(name.encode("utf-8")))
        self._consecutive_failures = 0

    # -- async pipeline -----------------------------------------------------
    @property
    def published(self) -> list[_PublishedStep]:
        """Committed steps; waits for in-flight drains first so callers
        observe the same ordering the synchronous data plane had."""
        self._quiesce()
        return self._published

    def _quiesce(self) -> None:
        if self._drainer is not None:
            self._drainer.wait_idle()

    def _ensure_pipeline(self) -> None:
        if self._drainer is None:
            from repro.core.runtime import make_stream_channel

            self._channel = make_stream_channel(
                self.active_transport, monitor=self.monitor,
                injector=self._injector,
            )
            self._drainer = _StepDrainer(self, self.hints.queue_depth)

    def shutdown_pipeline(self) -> None:
        """Stop the drainer thread and close the drain channel.

        Idempotent: the drainer/channel references are swapped out before
        teardown, so a double close (or a close racing a registry reset)
        finds nothing left to do.
        """
        drainer, self._drainer = self._drainer, None
        if drainer is not None:
            drainer.stop()
        channel, self._channel = self._channel, None
        if channel is not None:
            close = getattr(channel, "close", None)
            try:
                if close is not None:
                    close()
            # flexlint: ok(FXL001) best-effort close of an arbitrary channel during teardown
            except Exception:
                pass

    # -- writer side --------------------------------------------------------
    def writer_join(self, rank: int) -> None:
        if self.closed:
            raise StreamError(f"stream {self.name!r} already closed")
        self.writer_ranks.add(rank)

    def write(self, rank: int, wv: WrittenVar) -> None:
        if self.closed or rank in self._closed_ranks:
            raise StreamError("write on a closed stream handle")
        pg = self._current.get(rank)
        if pg is None:
            pg = ProcessGroupData(rank=rank, step=self._step)
            self._current[rank] = pg
        pg.add(wv)

    def end_rank_step(self, rank: int, sync: Optional[bool] = None) -> None:
        if self.closed:
            raise StreamError(f"end_step on ended stream {self.name!r}: {self.error}")
        if rank not in self.writer_ranks:
            raise StreamError(f"rank {rank} never joined stream {self.name!r}")
        self._advanced.add(rank)
        live = self.writer_ranks - self._closed_ranks
        if self._advanced >= live:
            self._publish(sync=sync)

    def _publish(self, sync: Optional[bool] = None) -> None:
        """Seal the current step, hand it to the drain pipeline.

        ``sync=True`` blocks until the step has cleared the transport
        (paper's synchronous writes); ``sync=False`` returns as soon as
        the step is queued.  ``None`` defers to the stream hint.  Either
        way the elapsed wall time lands in the ``writer_visible``
        measurement category.
        """
        if sync is None:
            sync = self.hints.sync
        step = _PublishedStep(self._step)
        with self.monitor.measure(
            "writer_visible", self.name, step=self._step, sync=bool(sync)
        ) as vis:
            # Root span of this timestep's trace: everything downstream
            # (the reader's redistribute/transport/plug-in spans and the
            # drainer's channel spans) parents on it.
            with self.monitor.span("write", self.name, step=self._step) as wspan:
                if not self.plugins.has_side(PluginSide.WRITER):
                    # No writer-side conditioning: the sealed step reuses
                    # the written groups directly (no dict round-trip, no
                    # per-variable rewrap).
                    for rank, pg in sorted(self._current.items()):
                        step.groups[rank] = pg
                else:
                    for rank, pg in sorted(self._current.items()):
                        record = {name: wv.data for name, wv in pg.variables.items()}
                        conditioned = self.plugins.apply_side(PluginSide.WRITER, record)
                        out = ProcessGroupData(rank=rank, step=pg.step)
                        for name, data in conditioned.items():
                            orig = pg.variables.get(name)
                            out.add(
                                WrittenVar(
                                    name=name,
                                    data=np.asarray(data),
                                    box=orig.box if orig is not None and _same_shape(orig, data) else None,
                                    global_shape=orig.global_shape if orig is not None else None,
                                )
                            )
                        step.groups[rank] = out
                wspan.add_bytes(step.nbytes)
                step.trace_ctx = wspan.context
            vis.add_bytes(step.nbytes)
            self._ensure_pipeline()
            emit(
                self.monitor, ev.EV_STEP_BEGIN, self.name,
                step=step.step, nbytes=step.nbytes,
            )
            self._drainer.submit(
                step,
                _rank_parts(
                    step,
                    predicate=self._pushdown_predicate(),
                    metrics=self.monitor.metrics,
                ),
            )
            if sync:
                self._drainer.wait_idle()
        self._current = {}
        self._advanced = set()
        self._step += 1
        if self._directory is not None:
            # Liveness signal for the lease-based failure detector; a
            # concurrently-unregistered name is not the writer's problem.
            try:
                self._directory.heartbeat(self.name)
            except DirectoryError:
                pass
        if sync and step.status is not StepState.COMMITTED:
            # Synchronous writes surface the loss to the writer (the
            # paper's error-reporting contract); the step is already in
            # the published list as LOST/ABORTED so readers see the gap.
            if step.status is StepState.ABORTED:
                raise TransactionAborted(
                    f"step {step.step} of {self.name!r} aborted: {step.error}"
                )
            raise MovementFailed(
                f"step {step.step} of {self.name!r} lost: {step.error}"
            )

    def _pushdown_predicate(self):
        """The combined reader block predicate for this step's drain.

        Only consulted with ``pushdown=true``: readers register their
        chain's serialized predicate at the directory, and a block is
        skipped only when *every* registered predicate provably drops it
        (no predicate registered → everything is sent).
        """
        if not self.hints.pushdown or self._directory is None:
            return None
        try:
            specs = self._directory.predicates_of(self.name)
        except DirectoryError:
            return None
        preds = []
        for spec in specs:
            try:
                pred = parse_predicate(spec)
            except CodeletError:
                return None  # unintelligible predicate: never skip
            if pred is None:
                return None  # a reader with no predicate needs everything
            preds.append(pred)
        return combine_predicates(preds)

    def _drain_one(self, step: _PublishedStep, rank_parts: dict) -> None:
        """Drainer-thread body: push one step's payload, then commit it.

        A step is committed **only** when its payload cleared the
        transport (or its transaction committed); a step whose retries
        were exhausted is marked LOST/ABORTED with its buffers discarded,
        so readers get a typed gap instead of torn or silently-dropped
        data.
        """
        mon = self.monitor
        err: Optional[Exception] = None
        with mon.measure("drain", self.name, step=step.step) as mp:
            mp.add_bytes(step.nbytes)
            with mon.span(
                "drain", self.name, parent=step.trace_ctx, step=step.step
            ):
                if self.hints.transactional and step.groups:
                    err = self._drain_transactional(step, rank_parts)
                else:
                    parts = WireVector(
                        p for r in sorted(rank_parts) for p in rank_parts[r]
                    )
                    err = self._send_with_retries(step, parts)
        if err is None:
            self._consecutive_failures = 0
            self._commit(step)
        else:
            emit(mon, ev.EV_DRAIN_ERROR, self.name, step=step.step, error=repr(err))
            self._mark_lost(step, err)
            self._consecutive_failures += 1
            self._maybe_degrade()

    def _send_with_retries(self, step: _PublishedStep, parts: WireVector):
        """Push one payload under the stream's retry policy.

        Returns None on success, the final exception on failure.  Only
        transport faults and timeouts are retriable — anything else
        (a programming error in the channel) fails the step immediately.
        Each failed attempt emits ``drain.fault`` and each retry
        ``drain.retry``; a send that eventually succeeds emits
        ``drain.recovered``.
        """
        if not parts or self._channel is None:
            return None
        mon = self.monitor
        policy = self._retry_policy
        last: Optional[Exception] = None
        for attempt in range(policy.max_retries + 1):
            if attempt > 0:
                emit(mon, ev.EV_RETRY, self.name, step=step.step, attempt=attempt)
                delay = policy.delay_before(attempt, rng=self._retry_rng)
                if delay > 0:
                    time.sleep(delay)
            try:
                with mon.span(
                    "drain_attempt", self.name, parent=step.trace_ctx,
                    step=step.step, attempt=attempt,
                ):
                    self._channel.sendv(parts, timeout=policy.timeout)
                    ack = self._channel.recv(timeout=policy.timeout)
                    if isinstance(ack, WireBuffer) and not ack.released:
                        # The drain is its own consumer (the DC plugin
                        # side already observed the data): releasing the
                        # span returns the pool/registration lease.
                        ack.release()
                if attempt > 0:
                    emit(
                        mon, ev.EV_DRAIN_RECOVERED, self.name,
                        step=step.step, attempts=attempt + 1,
                    )
                return None
            except (TransportFault, TimeoutError) as exc:
                last = exc
                emit(
                    mon, ev.EV_DRAIN_FAULT, self.name,
                    step=step.step, attempt=attempt, error=repr(exc),
                )
            # flexlint: ok(FXL001) deliberate non-retriable classifier: any non-fault error fails the step
            except Exception as exc:
                last = exc
                emit(
                    mon, ev.EV_DRAIN_FAULT, self.name,
                    step=step.step, attempt=attempt, error=repr(exc),
                )
                break  # non-retriable
        return last

    def _drain_transactional(self, step: _PublishedStep, rank_parts: dict):
        """All-or-nothing step visibility: 2PC across the writer ranks.

        Each rank's prepare vote is its own reliable send; only when
        every rank's payload cleared the transport does the coordinator
        commit (and the caller flips the step COMMITTED).  Any abort
        discards the whole step.  Returns None on commit, the abort
        exception otherwise.
        """
        ranks = sorted(step.groups)

        def make_prepare(r: int):
            def prepare(_step: int, _payload: dict) -> bool:
                return self._send_with_retries(step, rank_parts.get(r, [])) is None

            return prepare

        participants = [
            Participant(r, lambda _s, _p: None, prepare_fn=make_prepare(r))
            for r in ranks
        ]
        coordinator = TransactionCoordinator(participants)
        mon = self.monitor
        try:
            coordinator.run(step.step, {r: {} for r in ranks})
        except TransactionAborted as exc:
            mon.metrics.counter("dataplane.tx.aborted").inc()
            return exc
        mon.metrics.counter("dataplane.tx.committed").inc()
        return None

    def _mark_lost(self, step: _PublishedStep, exc: Exception) -> None:
        """Record a failed step: payload discarded, typed gap published."""
        step.status = (
            StepState.ABORTED
            if isinstance(exc, TransactionAborted)
            else StepState.LOST
        )
        step.error = repr(exc)
        step.groups.clear()  # free the buffers; never torn-visible
        mon = self.monitor
        code = (
            ev.EV_STEP_ABORTED if step.status is StepState.ABORTED else ev.EV_STEP_LOST
        )
        emit(mon, code, self.name, step=step.step, error=step.error)
        flight.dump_on_fault(
            f"step {step.step} {step.status.value}",
            stream=self.name, monitor=mon,
        )
        with self._publish_lock:
            self._published.append(step)

    def _maybe_degrade(self) -> None:
        """Graceful degradation: fall down the transport ladder.

        After ``degrade_after`` consecutive failed steps the stream
        closes its channel and rebuilds the next transport down
        (rdma → shm → buffered-only).  Runs on the drainer thread, which
        is the only user of the channel, so the swap is race-free.
        """
        threshold = self.hints.degrade_after
        if threshold <= 0 or self._consecutive_failures < threshold:
            return
        nxt = _DEGRADE_LADDER.get(self.active_transport)
        previous = self.active_transport
        channel, self._channel = self._channel, None
        if channel is not None:
            close = getattr(channel, "close", None)
            try:
                if close is not None:
                    close()
            # flexlint: ok(FXL001) best-effort close of the failing channel before falling back
            except Exception:
                pass
        if nxt is None:
            self.active_transport = "buffered"
        else:
            from repro.core.runtime import make_stream_channel

            self._channel = make_stream_channel(
                nxt, monitor=self.monitor, injector=self._injector
            )
            self.active_transport = nxt
        self._consecutive_failures = 0
        emit(
            self.monitor, ev.EV_DEGRADE, self.name,
            src=previous, dst=self.active_transport,
        )

    def _commit(self, step: _PublishedStep) -> None:
        step.status = StepState.COMMITTED
        nbytes = step.nbytes
        with self._publish_lock:
            self._published.append(step)
            self._buffered_bytes += nbytes
            self.peak_buffered_bytes = max(
                self.peak_buffered_bytes, self._buffered_bytes
            )
            if len(self._published) > self.hints.buffer_steps:
                # In the real transport the writer would stall here; in the
                # in-process harness we surface it through monitoring.
                self.backpressure_events += 1
        emit(self.monitor, ev.EV_STEP_COMMIT, self.name, step=step.step, nbytes=nbytes)

    def writer_close(self, rank: int) -> None:
        self._closed_ranks.add(rank)
        self._advanced.discard(rank)
        if self._closed_ranks >= self.writer_ranks:
            # Publish any partial step implicitly, then end the stream.
            if self._current:
                try:
                    self._publish()
                except (MovementFailed, TransactionAborted):
                    pass  # close never raises; the loss is already recorded
            self._quiesce()
            self.closed = True
            self.shutdown_pipeline()

    def fail(self, reason: str) -> None:
        """End the stream abnormally (writer death / lease expiry).

        Any partially-written step is discarded — readers must never see
        torn data — and the stream closes with ``error`` set, so their
        next ``begin_step`` reports :attr:`StepStatus.OtherError` through
        :class:`~repro.adios.api.StreamFailure` instead of stalling
        forever on a dead writer.
        """
        if self.closed:
            return
        self.error = reason
        self._current = {}
        self._advanced = set()
        self.closed = True
        emit(self.monitor, ev.EV_STREAM_FAILED, self.name, reason=reason)
        flight.dump_on_fault(
            f"stream failed: {reason}", stream=self.name, monitor=self.monitor
        )
        self.shutdown_pipeline()

    # -- reader side --------------------------------------------------------
    def step_available(self, index: int) -> bool:
        return index < len(self.published)

    def get_step(self, index: int) -> _PublishedStep:
        if not self.step_available(index):
            if not self.closed and self._directory is not None:
                # A stall may really be a dead writer: run the failure
                # detector before deciding what to tell the reader.
                try:
                    self._directory.reap()
                except DirectoryError:
                    pass
            if self.closed:
                if self.error is not None:
                    raise StreamFailure(f"stream {self.name!r} failed: {self.error}")
                raise EndOfStream(self.name)
            raise StreamStalled(f"step {index} of {self.name!r} not yet published")
        step = self._published[index]
        if step.status is not StepState.COMMITTED:
            raise StepLost(
                f"step {index} of {self.name!r} {step.status.value}: {step.error}"
            )
        return step


def _same_shape(orig: WrittenVar, data) -> bool:
    return tuple(np.shape(data)) == tuple(orig.data.shape)


def _step_parts(step: _PublishedStep) -> WireVector:
    """Flatten a step's variables to one scatter-gather vector for the
    channel (views over the written arrays — no copies here)."""
    vec = WireVector()
    for rank in sorted(step.groups):
        for wv in step.groups[rank].variables.values():
            if wv.data.nbytes:
                vec.append(wv.data)
    return vec


def _provably_dropped(predicate, wv: WrittenVar) -> bool:
    """True when the reader predicate proves no row of this block
    survives the chain — judged on conservative whole-block bounds."""
    data = wv.data
    if data.size == 0 or data.dtype.kind not in "fiu":
        return False
    return not predicate.might_match(
        wv.name, float(data.min()), float(data.max())
    )


def _rank_parts(
    step: _PublishedStep, predicate=None, metrics=None
) -> dict[int, WireVector]:
    """Per-rank scatter-gather vectors of a step's payload.

    The transactional drain sends each rank's vector as that rank's
    prepare; the plain drain flattens them (rank order) into one send.
    Parts are :class:`WireBuffer` views over the step's written arrays —
    the step holds those arrays until commit/loss, so the views stay
    valid across retries.

    With a reader ``predicate`` (pushdown), blocks the reader chain
    provably drops never enter the vectors — analytics placed on the
    I/O path saving the movement itself.  The step's buffered copy is
    untouched, so in-process reads stay exact.
    """
    out: dict[int, WireVector] = {}
    for rank in sorted(step.groups):
        vec = WireVector()
        for wv in step.groups[rank].variables.values():
            if not wv.data.nbytes:
                continue
            if predicate is not None and _provably_dropped(predicate, wv):
                if metrics is not None:
                    metrics.counter("plugin.blocks_skipped").inc()
                continue
            vec.append(wv.data)
        out[rank] = vec
    return out


class StreamRegistry:
    """Directory server + live stream states for one process."""

    def __init__(self, clock=None) -> None:
        self._clock = clock
        self.directory = DirectoryServer(clock=clock)
        self._states: dict[str, StreamState] = {}

    def set_clock(self, clock) -> None:
        """Swap the injectable clock (tests) — propagates to the
        directory server so lease reaping is deterministic."""
        self._clock = clock
        self.directory.set_clock(clock)

    def create(
        self, name: str, ctx: RankContext, monitor=None, hints=None
    ) -> StreamState:
        state = self._states.get(name)
        if state is None or state.closed:
            if state is not None and state.closed:
                # Recycle a finished stream's name for a new run.
                self.directory.unregister(name)
            state = StreamState(name, monitor, hints)
            state._directory = self.directory
            self._states[name] = state
            # Coordinator (rank 0 by election) registers the name, with a
            # liveness lease when the stream hints ask for one.
            self.directory.register(
                name,
                CoordinatorInfo(
                    program="writer", coordinator_rank=0, num_ranks=ctx.size, contact=state
                ),
                lease=state.hints.lease or None,
            )
        return state

    def open(self, name: str, ctx: RankContext) -> StreamState:
        info = self.directory.lookup(
            name,
            CoordinatorInfo(program="reader", coordinator_rank=0, num_ranks=ctx.size),
        )
        return info.contact

    def close_stream(self, name: str) -> None:
        if name in self._states:
            self._states[name].shutdown_pipeline()
            try:
                self.directory.unregister(name)
            except DirectoryError:
                pass  # already unregistered (recycled name)

    def reset(self) -> None:
        for state in getattr(self, "_states", {}).values():
            try:
                state.shutdown_pipeline()
            # flexlint: ok(FXL001) reset must tear every stream down even if one close misbehaves
            except Exception:
                pass
        self.__init__(self._clock)


#: Process-global registry (the "network" all in-process programs share).
stream_registry = StreamRegistry()


# ---------------------------------------------------------------------------
# Handles
# ---------------------------------------------------------------------------

class FlexpathWriteHandle(WriteHandle):
    """Stream-mode writer for one rank.

    Step-oriented usage: ``begin_step() … write() … end_step()``;
    ``end_step(sync=True)`` forces one synchronous publish regardless of
    the stream's ``sync`` hint.
    """

    def __init__(self, state: StreamState, ctx: RankContext) -> None:
        self._state = state
        self._ctx = ctx
        self._closed = False
        state.writer_join(ctx.rank)

    @property
    def plugins(self) -> PluginManager:
        return self._state.plugins

    @property
    def monitor(self) -> PerfMonitor:
        """The stream's shared monitor (enable tracing / dump here)."""
        return self._state.monitor

    def write(self, name, data, box=None, global_shape=None):
        if self._closed:
            raise StreamError("write after close")
        arr = np.asarray(data)
        if box is not None and tuple(arr.shape) != tuple(box.count):
            raise ValueError(f"data shape {arr.shape} != box count {box.count}")
        self._state.write(
            self._ctx.rank,
            WrittenVar(
                name=name,
                data=arr,
                box=box,
                global_shape=tuple(global_shape) if global_shape is not None else None,
            ),
        )

    def _advance(self, sync: Optional[bool] = None):
        if self._closed:
            raise StreamError("end_step after close")
        self._state.end_rank_step(self._ctx.rank, sync=sync)

    def close(self):
        if self._closed:
            return
        self._closed = True
        # The name stays registered so readers can still resolve the
        # stream and drain buffered steps; EndOfStream tells them it ended.
        self._state.writer_close(self._ctx.rank)


class FlexpathReadHandle(ReadHandle):
    """Stream-mode reader for one rank; End-of-Stream when writers close.

    Step-oriented usage: ``begin_step()`` returns
    :class:`~repro.adios.api.StepStatus` (``NotReady`` instead of a
    :class:`StreamStalled` raise), reads address the positioned step,
    ``end_step()`` releases it.
    """

    def __init__(self, state: StreamState, ctx: RankContext) -> None:
        self._state = state
        self._ctx = ctx
        self._cursor = 0
        # Handshake-protocol accounting per global-array variable: the
        # engine carries the caching state the XML hints select.
        self._hs_engines: dict[str, RedistributionEngine] = {}
        self._hs_boxes: dict[str, tuple] = {}
        #: Last step whose batched handshake round is paid.
        self._hs_paid_step: Optional[int] = None
        self._local_plan_cache: Optional[PlanCache] = None
        # Chain hash last pushed to the directory (predicate pushdown).
        self._registered_pred_hash: Optional[str] = None

    @property
    def plugins(self) -> PluginManager:
        return self._state.plugins

    @property
    def monitor(self) -> PerfMonitor:
        """The stream's shared monitor (enable tracing / dump here)."""
        return self._state.monitor

    @property
    def current_step(self) -> int:
        return self._cursor

    def _step(self) -> _PublishedStep:
        return self._state.get_step(self._cursor)

    def _probe_step(self) -> None:
        # begin_step() readiness check for the handle's current cursor.
        self._state.get_step(self._cursor)

    def available_vars(self):
        return self._step().var_names()

    def _plan_cache(self) -> Optional[PlanCache]:
        """The plan cache the stream's caching hint selects.

        CACHING_ALL shares the process-wide cache (both sides keep every
        distribution), CACHING_LOCAL keeps a per-handle cache, NO_CACHING
        re-derives overlap geometry every read — the paper's protocol
        levels mapped onto the data plane.
        """
        caching = self._state.hints.caching
        if caching is CachingOption.CACHING_ALL:
            return global_plan_cache
        if caching is CachingOption.CACHING_LOCAL:
            if self._local_plan_cache is None:
                self._local_plan_cache = PlanCache(maxsize=64)
            return self._local_plan_cache
        return None

    def _reader_chain(self):
        """The compiled reader-side chain when the ``fused`` hint allows
        fusion — else ``None`` (interpreted fallback).  Also the hook
        where pushdown predicates reach the directory."""
        state = self._state
        if not state.plugins.has_side(PluginSide.READER):
            return None
        chain = state.plugins.compiled_chain(PluginSide.READER)
        if state.hints.pushdown:
            self._maybe_register_predicate(chain)
        return chain if state.hints.fused else None

    def _maybe_register_predicate(self, chain) -> None:
        """Publish the chain's block predicate at the directory so the
        writer-side drain can skip blocks it provably drops.  Idempotent
        per chain generation; a chain without a predicate withdraws."""
        state = self._state
        if state._directory is None:
            return
        chain_hash = chain.chain_hash if chain is not None else ""
        if chain_hash == self._registered_pred_hash:
            return
        pred = chain.block_predicate() if chain is not None else None
        spec = pred.spec() if pred is not None else ""
        try:
            state._directory.register_predicate(
                state.name, f"reader-{id(self)}", spec
            )
        except DirectoryError:
            return
        self._registered_pred_hash = chain_hash

    def _blocks(self, name: str):
        """The current step, plus its ``(box, data)`` blocks of global
        array ``name`` with the array's global shape and dtype."""
        step = self._step()
        wvs = [pg.variables[name] for pg in step.groups.values() if name in pg.variables]
        if not wvs:
            raise VariableNotFound(f"no variable {name!r} at step {self._cursor}")
        gshapes = [wv.global_shape for wv in wvs if wv.global_shape is not None]
        if not gshapes:
            raise StreamError(
                f"variable {name!r} is not a global array; use read_block()"
            )
        blocks = [(wv.box, wv.data) for wv in wvs if wv.box is not None]
        return step, blocks, gshapes[-1], wvs[-1].data.dtype

    def read_block(self, name: str, writer_rank: int) -> np.ndarray:
        step = self._step()
        pg = step.groups.get(writer_rank)
        if pg is None or name not in pg.variables:
            raise VariableNotFound(
                f"no block for var {name!r} from writer {writer_rank} "
                f"at step {self._cursor}"
            )
        mon = self._state.monitor
        with mon.span(
            "read", name, parent=step.trace_ctx,
            step=self._cursor, writer_rank=writer_rank,
        ):
            with mon.span("transport", name, writer_rank=writer_rank) as tspan:
                record = {n: wv.data for n, wv in pg.variables.items()}
                tspan.add_bytes(sum(int(wv.data.nbytes) for wv in pg.variables.values()))
            if self._state.plugins.has_side(PluginSide.READER):
                record = self._state.plugins.apply_side(PluginSide.READER, record)
        return np.asarray(record[name])

    def read(self, name, *, start=None, count=None, selection=None) -> np.ndarray:
        return self._read(name, None, start, count, selection)

    def read_into(
        self, name, out: np.ndarray, *, start=None, count=None, selection=None
    ) -> np.ndarray:
        """Like :meth:`read`, but land the selection in the preallocated
        ``out`` array — the steady-state zero-allocation read path
        (incoming spans scatter into the reader's own buffer, no per-step
        ``np.empty``).  ``out`` must match the result's shape and the
        variable's dtype; returns ``out``.
        """
        return self._read(name, out, start, count, selection)

    def _read(self, name, out, start, count, selection) -> np.ndarray:
        start, count = resolve_read_args(selection, start, count)
        step, blocks, gshape, dtype = self._blocks(name)
        state = self._state
        return execute_read(
            name, blocks, gshape, dtype, resolve_selection(start, count, gshape),
            plugins=state.plugins, chain=self._reader_chain(),
            cache=self._plan_cache(), monitor=state.monitor, out=out,
            parent=step.trace_ctx, step=self._cursor,
            handshake=lambda: self._account_handshake(
                name, gshape, [b for b, _ in blocks]
            ),
        )

    def read_all(
        self, names=None, *, start=None, count=None, selection=None
    ) -> dict[str, np.ndarray]:
        """Read several global-array variables of the current step.

        With ``batching=true`` one aggregated handshake round services
        every variable (paper's variable batching); without it each
        variable pays its own round, exactly as per-variable ``read``
        calls would.  ``names=None`` selects every global-array variable.
        """
        step = self._step()
        if names is None:
            names = [
                n for n in step.var_names()
                if any(
                    pg.variables.get(n) is not None
                    and pg.variables[n].global_shape is not None
                    for pg in step.groups.values()
                )
            ]
        names = list(names)
        if not names:
            return {}
        if self._state.hints.batching:
            # Pay the aggregated round up-front so the per-variable reads
            # of this step ride on it.
            _, blocks, gshape, _ = self._blocks(names[0])
            self._account_handshake(
                names[0], gshape, [b for b, _ in blocks], num_variables=len(names)
            )
        return {
            n: self.read(n, start=start, count=count, selection=selection)
            for n in names
        }

    def _account_handshake(
        self, name, gshape, writer_boxes, num_variables: int = 1
    ) -> None:
        """Run the 4-step handshake protocol accounting for one exchange.

        Honors the stream's caching and batching hints: with CACHING_ALL
        and unchanged distributions the steady-state cost is zero; with
        batching only the first variable of each step pays a round.
        """
        hints = self._state.hints
        boxes_key = tuple((b.start, b.count) for b in writer_boxes)
        eng = self._hs_engines.get(name)
        if eng is None:
            reader_box = BoundingBox((0,) * len(gshape), tuple(gshape))
            eng = RedistributionEngine(
                writer_boxes, [reader_box],
                caching=hints.caching, batching=hints.batching,
                plan_cache=self._plan_cache(),
            )
            self._hs_engines[name] = eng
            self._hs_boxes[name] = boxes_key
        elif self._hs_boxes.get(name) != boxes_key:
            # Distribution changed (e.g. particle movement): caches drop.
            eng.update_writer_boxes(writer_boxes)
            self._hs_boxes[name] = boxes_key
        if hints.batching and self._hs_paid_step == self._cursor:
            return  # aggregated into this step's earlier round
        cost = eng.handshake(num_variables)
        self._hs_paid_step = self._cursor
        emit(
            self._state.monitor, ev.EV_HANDSHAKE, name,
            nbytes=cost.control_bytes, messages=cost.messages,
        )

    def handshake_messages(self) -> int:
        """Total handshake messages accounted on this stream (monitoring).

        Served straight from the metrics registry counter — O(1), no
        trace scan.
        """
        return int(self._state.monitor.metrics.counter("handshake.messages").value)

    def _advance(self):
        nxt = self._cursor + 1
        state = self._state
        if not state.step_available(nxt):
            if not state.closed and state._directory is not None:
                # Stalled? Let the failure detector rule out a dead writer.
                try:
                    state._directory.reap()
                except DirectoryError:
                    pass
            if state.closed:
                if state.error is not None:
                    raise StreamFailure(
                        f"stream {state.name!r} failed: {state.error}"
                    )
                raise EndOfStream(state.name)
            raise StreamStalled(
                f"step {nxt} of {state.name!r} not yet published"
            )
        # Move first, then surface a lost step: begin_step() marks it
        # consumed, so the following begin_step() skips past the gap.
        self._cursor = nxt
        step = state._published[nxt]
        if step.status is not StepState.COMMITTED:
            raise StepLost(
                f"step {nxt} of {state.name!r} {step.status.value}: {step.error}"
            )

    def close(self):
        pass


class FlexpathMethod(IoMethod):
    """The stream method registered under ``FLEXPATH`` in the config."""

    def open_write(self, name: str, group: Group, ctx: RankContext, spec: MethodSpec):
        state = stream_registry.create(name, ctx, hints=StreamHints.from_spec(spec))
        return FlexpathWriteHandle(state, ctx)

    def open_read(self, name: str, group: Group, ctx: RankContext, spec: MethodSpec):
        state = stream_registry.open(name, ctx)
        return FlexpathReadHandle(state, ctx)


for _stream_method in STREAM_METHODS:
    register_method(_stream_method, FlexpathMethod)
