"""The four workloads: inputs, oracle, closed-loop drivers.

Every step's inputs are a pure function of (seed, step): a run draws
``POOL`` distinct inputs (and their oracle results) from the seed before
it starts, and step ``s`` uses entry ``s % POOL``, so the closed loop
spends its time in the system rather than in the random generator.  The
system is driven only through its public surface: ``repro.connect``,
the ADIOS step handles, and ``repro.net.server`` in its own process.
One single-threaded generator issues every call; a step's writes, reads
and oracle comparisons run on it in a closed loop.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Optional

import numpy as np

import repro
from daemon import TOKEN, Daemon
from repro.adios import BoundingBox, StepStatus
from repro.core.plugins import range_select_plugin, sampling_plugin

#: Distinct inputs per run (more than LAG, so a lagged read of step s
#: and the writers' current step s + LAG hold different values).
POOL = 16

# -- field: 128x128 float64, 16 writer blocks (4x4), 4 reader row bands ----
FIELD_N = 128
FIELD_SHAPE = (FIELD_N, FIELD_N)
FIELD_WRITERS = 16
FIELD_READERS = 4
_FB = FIELD_N // 4
BAND_ROWS = FIELD_N // FIELD_READERS

# -- particles: GTS-like zion (8 x 1024, 7), writer r's slab [r/8, (r+1)/8) --
PART_WRITERS = 8
PART_ROWS = 1024
PART_COLS = 7
PART_SHAPE = (PART_WRITERS * PART_ROWS, PART_COLS)
SAMPLE_STRIDE = 16
SELECT = (0, 0.3, 0.7)  # column, lo, hi
LAG = 8

#: A begin_step that is not ready after this long counts as failed.
BEGIN_TIMEOUT_S = 10.0


def field_at(seed: int, step: int) -> np.ndarray:
    return np.random.default_rng((seed, step, 0)).random(FIELD_SHAPE)


def particles_at(seed: int, step: int, rank: int) -> np.ndarray:
    """Writer ``rank``'s particles: every column in its slab."""
    u = np.random.default_rng((seed, step, 1 + rank)).random((PART_ROWS, PART_COLS))
    return (u + rank) / PART_WRITERS


def chain_oracle(zion: np.ndarray) -> np.ndarray:
    """The range-select then sample(16) chain, computed independently."""
    col, lo, hi = SELECT
    keep = (zion[:, col] >= lo) & (zion[:, col] <= hi)
    return zion[keep][::SAMPLE_STRIDE]


def deploy_chain(plugins) -> None:
    # Range first: a stride filter ends the chain's block predicate, so
    # only this order gives the broker something to prune against.
    plugins.deploy(range_select_plugin("zion", *SELECT))
    plugins.deploy(sampling_plugin(SAMPLE_STRIDE))


# ---------------------------------------------------------------------------
# Planes: set-up and tear-down of one session's handles
# ---------------------------------------------------------------------------

class Session:
    """Handles of one set-up; ``writers``/``readers`` are lists."""

    def __init__(self) -> None:
        self.client = None
        self.daemon: Optional[Daemon] = None
        self.writers: list = []
        self.readers: list = []

    def monitor(self):
        """The program's monitor on this plane's client side."""
        return self.writers[0].monitor if self.daemon is None else self.client.monitor

    def close(self) -> None:
        for h in self.writers + self.readers:
            h.close()
        if self.daemon is not None:
            self.client.close()
            self.daemon.stop()


def setup_inproc(name: str, writers: int, readers: int, chain: bool) -> Session:
    s = Session()
    s.client = repro.connect("local://", params="caching=all")
    s.writers = [s.client.open(name, "w", rank=r, num_ranks=writers)
                 for r in range(writers)]
    s.readers = [s.client.open(name, "r", rank=r, num_ranks=readers)
                 for r in range(readers)]
    if chain:
        deploy_chain(s.readers[0].plugins)
    return s


def setup_net(name: str, chain: bool, src_dir: str, out_dir: str,
              trace_out: Optional[str]) -> Session:
    s = Session()
    s.daemon = Daemon(src_dir, f"{out_dir}/daemon.log", trace_out=trace_out)
    s.daemon.pin_apart()
    try:
        s.client = repro.connect(s.daemon.uri, token=TOKEN)
        s.writers = [s.client.open(name, "w")]
        s.readers = [s.client.open(name, "r", timeout=5.0, pushdown=chain)]
        if chain:
            deploy_chain(s.readers[0].plugins)
    except BaseException:
        s.close()
        raise
    return s


# ---------------------------------------------------------------------------
# Per-run accounting
# ---------------------------------------------------------------------------

class Tally:
    """Per-step samples and read accounting of the timed window."""

    def __init__(self) -> None:
        self.write_us: list[float] = []
        self.read_us: list[float] = []
        self.e2e_us: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.steps_ok = 0
        self.blocks_written = 0
        self.errors: dict[str, int] = {}

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        self.errors[why] = self.errors.get(why, 0) + n

    def check(self, got, want: np.ndarray) -> bool:
        """Count one read against its oracle; True when it matches."""
        self.attempted += 1
        if isinstance(got, Exception):
            self.fail(1, f"read raised {type(got).__name__}")
            return False
        if got.shape == want.shape and np.array_equal(got, want):
            return True
        self.fail(1, "read differs from oracle")
        return False


def _begin(reader, tally: Optional[Tally], n_reads: int) -> bool:
    st = reader.begin_step(timeout=BEGIN_TIMEOUT_S)
    if st is StepStatus.OK:
        return True
    if tally is not None:
        tally.attempted += n_reads
        tally.fail(n_reads, f"begin_step {st.name}")
    return False


def _try_read(reader, name, start, count):
    """A read's result, or the exception it raised (counted as failed)."""
    try:
        return reader.read(name, start=start, count=count)
    except Exception as exc:  # any raise is a failed read; the run goes on
        return exc


def _corrupt(arr):
    out = np.array(arr, copy=True)
    out.flat[0] += 1.0
    return out


def _write_step(s: Session, net: bool, var: str, arrays, boxes, gshape):
    """Every writer rank writes its block, then every rank ends the step
    (ranks run in parallel in a real job; the first ``end_step`` is
    where the step's end-to-end clock starts).  On the network plane one
    handle writes every block.  Returns (seconds inside FlexIO, time of
    the first ``end_step``)."""
    pc = time.perf_counter
    ranks = ([(s.writers[0], range(len(arrays)))] if net
             else [(w, (r,)) for r, w in enumerate(s.writers)])
    acc = 0.0
    for w, rs in ranks:
        t = pc()
        w.begin_step()
        for r in rs:
            w.write(var, arrays[r], box=boxes[r], global_shape=gshape)
        acc += pc() - t
    t_first = None
    for w, _ in ranks:
        t = pc()
        if t_first is None:
            t_first = t
        w.end_step()
        acc += pc() - t
    return acc, t_first


# ---------------------------------------------------------------------------
# Workload drivers: one closed-loop iteration each
# ---------------------------------------------------------------------------

class FieldLockstep:
    """Write step s on every writer rank, then read every band of s."""

    def __init__(self, session: Session, seed: int, net: bool,
                 corrupt_step: Optional[int]) -> None:
        self.s = session
        self.net = net
        self.corrupt_step = corrupt_step
        self.boxes = [BoundingBox((_FB * (r // 4), _FB * (r % 4)), (_FB, _FB))
                      for r in range(FIELD_WRITERS)]
        self.fields = [field_at(seed, k) for k in range(POOL)]
        self.n_blocks = FIELD_WRITERS

    def step(self, i: int, tally: Optional[Tally]) -> None:
        pc = time.perf_counter
        f = self.fields[i % POOL]
        # A freshly made array per block and step, as a solver produces.
        blocks = [f[b.start[0]:b.start[0] + _FB, b.start[1]:b.start[1] + _FB].copy()
                  for b in self.boxes]
        w_acc, t_first_end = _write_step(self.s, self.net, "T", blocks,
                                         self.boxes, FIELD_SHAPE)
        r_acc = 0.0
        got: list = [None] * FIELD_READERS
        t_last = None
        band = (BAND_ROWS, FIELD_N)
        if self.net:
            rd = self.s.readers[0]
            t = pc()
            if _begin(rd, tally, FIELD_READERS):
                for k in range(FIELD_READERS):
                    got[k] = _try_read(rd, "T", (BAND_ROWS * k, 0), band)
                t_last = pc()
                rd.end_step()
            r_acc += pc() - t
        else:
            for k, rd in enumerate(self.s.readers):
                t = pc()
                if _begin(rd, tally, 1):
                    got[k] = _try_read(rd, "T", (BAND_ROWS * k, 0), band)
                    t_last = pc()
                    rd.end_step()
                r_acc += pc() - t
        if tally is None:
            return
        tally.write_us.append(w_acc * 1e6)
        tally.read_us.append(r_acc * 1e6)
        tally.blocks_written += self.n_blocks
        if i == self.corrupt_step and isinstance(got[0], np.ndarray):
            got[0] = _corrupt(got[0])
        ok = sum(tally.check(arr, f[BAND_ROWS * k:BAND_ROWS * (k + 1)])
                 for k, arr in enumerate(got)
                 if arr is not None)  # None: begin_step already counted it
        if ok == FIELD_READERS:
            tally.steps_ok += 1
            tally.e2e_us.append((t_last - t_first_end) * 1e6)


class ParticlesLagged:
    """Write step i in place; read step i - LAG through the fused chain."""

    def __init__(self, session: Session, seed: int, net: bool,
                 corrupt_step: Optional[int]) -> None:
        self.s = session
        self.net = net
        self.corrupt_step = corrupt_step
        self.boxes = [BoundingBox((r * PART_ROWS, 0), (PART_ROWS, PART_COLS))
                      for r in range(PART_WRITERS)]
        self.inputs = [[particles_at(seed, k, r) for r in range(PART_WRITERS)]
                       for k in range(POOL)]
        self.expected = [chain_oracle(np.concatenate(p)) for p in self.inputs]
        # The simulation's particle arrays: updated in place every step.
        self.bufs = [np.empty((PART_ROWS, PART_COLS)) for _ in range(PART_WRITERS)]
        self.pending: deque = deque()  # (step, t_first_end)
        self.n_blocks = PART_WRITERS

    def step(self, i: int, tally: Optional[Tally]) -> None:
        pc = time.perf_counter
        for buf, src in zip(self.bufs, self.inputs[i % POOL]):
            buf[...] = src  # the particle push
        w_acc, t_first_end = _write_step(self.s, self.net, "zion", self.bufs,
                                         self.boxes, PART_SHAPE)
        self.pending.append((i, t_first_end))
        if tally is not None:
            tally.write_us.append(w_acc * 1e6)
            tally.blocks_written += self.n_blocks
        if i < LAG:
            return
        step, t_end = self.pending.popleft()
        rd = self.s.readers[0]
        t = pc()
        got = None
        t_last = None
        if _begin(rd, tally, 1):
            got = _try_read(rd, "zion", (0, 0), PART_SHAPE)
            t_last = pc()
            rd.end_step()
        r_acc = pc() - t
        if tally is None or got is None:
            return
        tally.read_us.append(r_acc * 1e6)
        if step == self.corrupt_step and isinstance(got, np.ndarray):
            got = _corrupt(got)
        if tally.check(got, self.expected[step % POOL]):
            tally.steps_ok += 1
            tally.e2e_us.append((t_last - t_end) * 1e6)


def make(workload: str, src_dir: str, out_dir: str,
         trace_out: Optional[str], tag: str):
    """``(session, driver class)`` for one set-up of ``workload``."""
    field = workload.startswith("field-")
    net = workload.endswith("-net")
    name = f"bench.{workload}.{tag}"
    if net:
        session = setup_net(name, not field, src_dir, out_dir, trace_out)
    elif field:
        session = setup_inproc(name, FIELD_WRITERS, FIELD_READERS, chain=False)
    else:
        session = setup_inproc(name, PART_WRITERS, 1, chain=True)
    return session, (FieldLockstep if field else ParticlesLagged)
