"""The step log: the one store of published steps, for both stream planes.

The paper's stream mode (Section II.B) hands readers every timestep until
End-of-Stream.  An in-process stream (:class:`~repro.core.stream.StreamState`)
and a daemon-brokered one (:class:`~repro.net.server.HostedStream`) keep
their steps in the same structure, a :class:`StepLog`, indexed by absolute
step number.  It holds

* each retained step's payload and delivery state (COMMITTED, or
  LOST/ABORTED when the data plane could not deliver it);
* a running byte total and its peak;
* the stream's end state: the End-of-Stream step, or the failure reason;
* one cursor per attached reader: the step that reader is positioned on.

Retention follows the ADIOS2 SST queue model.  A step is freed once every
attached reader's cursor has moved past it.  Memory is bounded by
:data:`CAPACITY`: when the log is full, the oldest step is discarded
whether or not it was read.  A reader whose cursor falls before the
oldest retained step gets one :class:`~repro.adios.api.StepLost` for the
whole lost range, and its next step is the oldest retained one.

:meth:`StepLog.get` is the only place that decides whether a step is
ready, lost, past the end of the stream, or failed.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Hashable, Iterator, NamedTuple, Optional

from repro.adios.api import EndOfStream, StepLost, StepNotReady, StreamFailure
from repro.analysis import sanitize
from repro.obs import events as ev
from repro.obs.events import emit

#: Steps a log retains at most; the oldest is discarded beyond it.
CAPACITY = 64


class StepState(Enum):
    """Delivery state of one published step."""

    PENDING = "pending"      # sealed, still in the drain pipeline
    COMMITTED = "committed"  # delivered; readable
    LOST = "lost"            # retries exhausted; payload discarded
    ABORTED = "aborted"      # its transaction aborted; payload discarded


class StreamStalled(StepNotReady):
    """No published step is available yet (writer still running)."""


class _Entry(NamedTuple):
    payload: Any
    nbytes: int
    state: StepState
    error: Optional[str]


class StepLog:
    """Retained steps of one stream, with per-reader cursors.

    Thread-safe: an in-process stream's drainer appends while reader
    threads call :meth:`get`.  ``monitor`` (a PerfMonitor, a bare
    MetricsRegistry or None) receives the retention levels and evictions,
    labeled with ``labels``.  The writer side sets :attr:`eos` when it
    closes and :attr:`error` when the stream fails.
    """

    def __init__(self, name: str, monitor=None, labels=None) -> None:
        self.name = name
        self._monitor = monitor
        self._labels = labels
        #: Retained steps, oldest first (steps are appended in order).
        self._entries: dict[int, _Entry] = {}
        #: Attached reader -> the step it is positioned on.
        self._cursors: dict[Hashable, int] = {}
        self._lock = sanitize.make_lock("steplog")
        #: One past the newest step ever appended.
        self.head = 0
        #: Payload bytes of the retained steps, and the peak of that total.
        self.nbytes = 0
        self.peak_nbytes = 0
        #: Steps discarded because the log was full.
        self.evicted = 0
        #: First step index past the End-of-Stream (None while open).
        self.eos: Optional[int] = None
        #: Why the stream ended abnormally (None unless it failed).
        self.error: Optional[str] = None

    # -- container view ------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Any]:
        """Payloads of the retained steps, oldest first."""
        return iter([payload for _, payload in self.items()])

    def __getitem__(self, index: int) -> Any:
        """The payload of retained step ``index`` (KeyError if not retained)."""
        return self._entries[index].payload

    def items(self) -> list[tuple[int, Any]]:
        """``(step, payload)`` of the retained steps, oldest first."""
        with self._lock:
            return [(i, e.payload) for i, e in self._entries.items()]

    def lag(self) -> int:
        """Steps the slowest attached reader has yet to reach (0 if none)."""
        # One C-level copy: safe against a concurrent attach without the lock.
        cursors = list(self._cursors.values())
        return max(0, self.head - 1 - min(cursors)) if cursors else 0

    # -- writer side ---------------------------------------------------
    def append(self, index: int, payload: Any, nbytes: int = 0,
               state: StepState = StepState.COMMITTED,
               error: Optional[str] = None) -> None:
        """Retain step ``index``; discard the oldest step if the log is full."""
        with self._lock:
            self._entries[index] = _Entry(payload, nbytes, state, error)
            self.head = max(self.head, index + 1)
            self.nbytes += nbytes
            self.peak_nbytes = max(self.peak_nbytes, self.nbytes)
            if len(self._entries) > CAPACITY:
                self._pop_oldest()
                self.evicted += 1
                emit(self._monitor, ev.EV_STEPLOG_EVICT, self.name,
                     labels=self._labels)
            self._publish_levels()

    # -- reader side ---------------------------------------------------
    def attach(self, reader: Hashable, cursor: int = 0) -> None:
        """Register ``reader`` positioned on step ``cursor``; it pins every
        retained step from there on until it moves or detaches."""
        with self._lock:
            self._cursors[reader] = cursor
            self._publish_levels()

    def detach(self, reader: Hashable) -> None:
        """Forget ``reader``; steps only it was pinning are freed."""
        with self._lock:
            if self._cursors.pop(reader, None) is not None:
                self._free_passed()
                self._publish_levels()

    def get(self, index: int, reader: Optional[Hashable] = None) -> Any:
        """The payload of step ``index``, or the typed reason there is none.

        Raises :class:`StreamStalled` (not yet published),
        :class:`~repro.adios.api.EndOfStream` (past the writer's end),
        :class:`~repro.adios.api.StreamFailure` (the stream failed), or
        :class:`~repro.adios.api.StepLost` (the step was lost in movement,
        or discarded before this reader got to it; ``last`` is the final
        step of the lost range).  An attached ``reader`` that gets a step,
        or a loss, has its cursor moved there, freeing what it passed.
        """
        with self._lock:
            entry = self._entries.get(index)
            if entry is None and index >= self.head:
                if self.error is not None:
                    raise StreamFailure(f"stream {self.name!r} failed: {self.error}")
                if self.eos is not None and index >= self.eos:
                    raise EndOfStream(self.name)
                raise StreamStalled(f"step {index} of {self.name!r} not yet published")
            if entry is None:
                resume = next((i for i in self._entries if i > index), self.head)
                self._move(reader, resume)
                raise StepLost(
                    f"steps {index}..{resume - 1} of {self.name!r} were "
                    f"discarded before this reader got to them",
                    last=resume - 1,
                )
            self._move(reader, index)
            if entry.state is not StepState.COMMITTED:
                raise StepLost(
                    f"step {index} of {self.name!r} {entry.state.value}: "
                    f"{entry.error}",
                    last=index,
                )
            return entry.payload

    # -- internals (caller holds the lock) -----------------------------
    def _move(self, reader: Optional[Hashable], index: int) -> None:
        """Advance an attached reader's cursor to ``index``."""
        if reader is not None and self._cursors.get(reader, index) < index:
            self._cursors[reader] = index
            self._free_passed()
            self._publish_levels()

    def _free_passed(self) -> None:
        if not self._cursors:
            return  # no reader attached: a late reader may still come
        low = min(self._cursors.values())
        while self._entries and next(iter(self._entries)) < low:
            self._pop_oldest()

    def _pop_oldest(self) -> None:
        index = next(iter(self._entries))
        self.nbytes -= self._entries.pop(index).nbytes

    def _publish_levels(self) -> None:
        emit(self._monitor, ev.EV_STEPLOG_LEVELS, self.name, labels=self._labels,
             steps=len(self._entries), nbytes=self.nbytes, lag=self.lag())
