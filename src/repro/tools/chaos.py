"""Chaos harness: coupled pipelines under seeded fault schedules.

Replays GTS-like (process-group particle) and S3D-like (global-array
field) coupled pipelines through the **live** FLEXPATH data plane with a
deterministic transport fault schedule (the ``faults=`` stream hint), and
asserts the resiliency invariants end to end:

1. **Exactly-once, never torn** — every written step is either committed
   and byte-identical on the reader, or surfaced as a typed loss on BOTH
   sides; no step is silently dropped, duplicated, or partially visible.
2. **No deadlock** — the writer finishes and the reader reaches
   End-of-Stream within a wall-clock bound; a reader never waits forever
   on a lost step.
3. **Observability** — injected faults and retry recoveries are counted
   in the metrics registry and visible as records in the trace dump.
4. **Fused == interpreted** — with ``--plugins`` a reader-side DC
   plug-in chain (units, sampling, range-select) is deployed on the s3d
   stream, and every committed step read through the compiled fused
   plan must be byte-identical to the interpreted chain applied to the
   assembled oracle array; the run also fails if no read actually took
   the fused path.

Usage::

    python -m repro.tools.chaos --scenario gts --seed 7 --rate 0.1
    python -m repro.tools.chaos --scenario all --steps 30 --transactional
    python -m repro.tools.chaos --scenario s3d --transport rdma --json
    python -m repro.tools.chaos --scenario s3d --plugins

Exit status 1 when any invariant is violated — wired into CI as the
``chaos-smoke`` job.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.adios import Adios, RankContext, StepStatus, block_decompose
from repro.analysis import sanitize
from repro.core.hints import stream_params
from repro.core.plugins import (
    PluginManager,
    PluginSide,
    range_select_plugin,
    sampling_plugin,
    unit_conversion_plugin,
)
from repro.core.resilience import MovementFailed, TransactionAborted
from repro.core.stream import StepState, stream_registry
from repro.obs import recorder as flight
from repro.obs.analysis import fault_summary
from repro.obs.events import EV_FLIGHT_DUMP
from repro.obs.names import M_PLUGIN_FUSED_READS
from repro.util import rng

SCENARIOS = ("gts", "s3d")

#: Distinguishes streams of repeated in-process runs (tests, --scenario all).
_RUN_IDS = itertools.count()

_GTS_XML = """
<adios-config>
  <adios-group name="particles">
    <var name="zion" type="float64" dimensions="n,7"/>
  </adios-group>
  <method group="particles" method="FLEXPATH">{params}</method>
</adios-config>
"""

_S3D_XML = """
<adios-config>
  <adios-group name="field">
    <var name="temp" type="float64" dimensions="32,32"/>
  </adios-group>
  <method group="field" method="FLEXPATH">{params}</method>
</adios-config>
"""

_S3D_SHAPE = (32, 32)


def _chaos_chain() -> list:
    """Fresh instances of the reader-side chain used by ``--plugins``.

    Called once to deploy on the live stream and once to build the
    interpreted oracle, so the two sides never share kernel state.
    """
    return [
        unit_conversion_plugin("temp", 1.5),
        sampling_plugin(stride=2, only=("temp",)),
        range_select_plugin("temp", 0, 0.15, 1.35),
    ]


@dataclass
class ChaosReport:
    """Outcome of one chaos run; ``ok`` iff no invariant was violated."""

    scenario: str
    seed: int
    rate: float
    transport: str
    transactional: bool
    steps: int
    #: A reader-side DC plug-in chain was deployed (``--plugins``).
    plugins: bool = False
    #: Reads that took the compiled fused path (plug-in runs only).
    fused_reads: int = 0
    committed: list = field(default_factory=list)
    lost: list = field(default_factory=list)
    writer_failures: int = 0
    faults_injected: int = 0
    retries: int = 0
    recovered: int = 0
    degradations: int = 0
    invariant_violations: list = field(default_factory=list)
    #: Concurrency-sanitizer findings (FLEXIO_SANITIZE=1); also folded
    #: into ``invariant_violations`` so they fail the run.
    sanitizer_violations: list = field(default_factory=list)
    #: Flight-recorder events captured during the run.
    flight_events: int = 0
    #: Fault-dump artifacts the recorder wrote (``flight_dir`` runs).
    flight_dumps: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.invariant_violations

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "rate": self.rate,
            "transport": self.transport,
            "transactional": self.transactional,
            "steps": self.steps,
            "plugins": self.plugins,
            "fused_reads": self.fused_reads,
            "committed": list(self.committed),
            "lost": list(self.lost),
            "writer_failures": self.writer_failures,
            "faults_injected": self.faults_injected,
            "retries": self.retries,
            "recovered": self.recovered,
            "degradations": self.degradations,
            "invariant_violations": list(self.invariant_violations),
            "sanitizer_violations": list(self.sanitizer_violations),
            "flight_events": self.flight_events,
            "flight_dumps": list(self.flight_dumps),
            "wall_time": self.wall_time,
            "ok": self.ok,
        }


def _payload(seed: int, step: int, rank: int, count) -> np.ndarray:
    """Deterministic per-(seed, step, rank) payload — the byte-identity
    oracle the reader checks committed steps against."""
    g = rng(seed * 1_000_003 + step * 1_009 + rank * 101 + 17)
    return np.asarray(g.random(tuple(count)), dtype=np.float64)


def run_chaos(
    scenario: str = "gts",
    seed: int = 0,
    rate: float = 0.1,
    steps: int = 20,
    writers: int = 2,
    transport: str = "shm",
    transactional: bool = False,
    plugins: bool = False,
    kinds: str = "timeout|torn|disconnect",
    max_retries: int = 2,
    retry_timeout: float = 0.01,
    degrade_after: int = 0,
    deadline_s: float = 60.0,
    trace_out: Optional[str] = None,
    flight_dir: Optional[str] = None,
) -> ChaosReport:
    """One seeded chaos run through the live pipeline; see module doc.

    ``degrade_after=0`` (default) keeps the configured transport under
    fault so losses stay visible; pass a positive value to exercise the
    degradation ladder instead.  With ``flight_dir`` the flight recorder
    writes a dump artifact on every fault (lost step, wedged drainer),
    and the run fails its observability invariant if steps were lost but
    no artifact appeared.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    if plugins and scenario != "s3d":
        raise ValueError(
            "plugins=True needs the s3d global-array scenario — only read() "
            "selections take the compiled fused path"
        )
    report = ChaosReport(
        scenario=scenario, seed=seed, rate=rate, transport=transport,
        transactional=transactional, steps=steps, plugins=plugins,
    )
    # Registry-validated hint build: a typo here is an UnknownHintError
    # at harness start, not a silently-ignored knob mid-chaos-run.
    params = stream_params(
        sync=True,
        trace=True,
        transport=transport,
        max_retries=max_retries,
        retry_timeout=retry_timeout,
        degrade_after=degrade_after,
        transactional=transactional,
        faults=f"rate={rate},seed={seed},kinds={kinds}",
    )
    # Fresh sanitizer state per run (FLEXIO_SANITIZE=1): violations from
    # a previous in-process run must not bleed into this report.
    san = sanitize.get()
    if san is not None:
        san.reset()
    # Fresh flight ring per run, so the dump windows and the per-process
    # auto-dump cap belong to *this* fault schedule.
    recorder = flight.reset()
    if flight_dir is not None:
        flight.set_flight_dir(flight_dir)
    group = "particles" if scenario == "gts" else "field"
    xml = (_GTS_XML if scenario == "gts" else _S3D_XML).format(params=params)
    adios = Adios.from_xml(xml)
    name = f"chaos.{scenario}.{seed}.{next(_RUN_IDS)}"

    boxes = block_decompose(_S3D_SHAPE, (writers, 1)) if scenario == "s3d" else None
    began = time.monotonic()

    # -- writer phase ------------------------------------------------------
    handles = [
        adios.open_write(group, name, RankContext(r, writers))
        for r in range(writers)
    ]
    state = stream_registry._states[name]
    oracle: Optional[PluginManager] = None
    if plugins:
        # Same chain twice from fresh instances: one on the live stream
        # (reads go through the compiled fused plan), one as a detached
        # interpreted oracle the fused results are byte-compared against.
        for k in _chaos_chain():
            state.plugins.deploy(k, PluginSide.READER)
        oracle = PluginManager()
        for k in _chaos_chain():
            oracle.deploy(k, PluginSide.READER)
    expected: dict[tuple[int, int], np.ndarray] = {}
    writer_lost: list[int] = []
    for step in range(steps):
        for r, h in enumerate(handles):
            count = (64, 7) if scenario == "gts" else boxes[r].count
            data = _payload(seed, step, r, count)
            expected[(step, r)] = data
            h.write(
                "zion" if scenario == "gts" else "temp",
                data,
                box=None if scenario == "gts" else boxes[r],
                global_shape=None if scenario == "gts" else _S3D_SHAPE,
            )
            try:
                h.end_step()
            except (MovementFailed, TransactionAborted):
                # sync=true surfaces the loss to the writer at the step
                # boundary — the reader must see the same typed gap.
                writer_lost.append(step)
    for h in handles:
        h.close()
    report.writer_failures = len(writer_lost)

    # -- reader phase ------------------------------------------------------
    var = "zion" if scenario == "gts" else "temp"
    reader = adios.open_read(group, name, RankContext(0, 1))
    reader_committed: list[int] = []
    reader_lost: list[int] = []
    while True:
        if time.monotonic() - began > deadline_s:
            report.invariant_violations.append(
                f"deadline exceeded after {deadline_s}s (deadlock?)"
            )
            break
        status = reader.begin_step(timeout=5.0)
        step = reader.current_step
        if status is StepStatus.EndOfStream:
            break
        if status is StepStatus.NotReady:
            report.invariant_violations.append(
                f"reader stalled at step {step} on a closed writer"
            )
            break
        if status is StepStatus.OtherError:
            reader_lost.append(step)
            continue
        torn = False
        if oracle is not None:
            # Fused-vs-interpreted invariant: one full-selection read
            # through the compiled chain, against the interpreted chain
            # applied to the assembled oracle payloads.
            got = reader.read(var, start=(0, 0), count=_S3D_SHAPE)
            full = np.concatenate(
                [expected[(step, r)] for r in range(writers)]
            )
            want = oracle.apply_side(PluginSide.READER, {var: full})[var]
            if got.shape != want.shape or got.tobytes() != want.tobytes():  # flexlint: ok(FXL006) byte-identity oracle, not a transport copy
                torn = True
            if torn:
                report.invariant_violations.append(
                    f"step {step}: fused plug-in read differs from the "
                    f"interpreted chain"
                )
        else:
            for r in range(writers):
                if scenario == "gts":
                    got = reader.read_block(var, r)
                else:
                    box = boxes[r]
                    got = reader.read(var, start=box.start, count=box.count)
                want = expected[(step, r)]
                if got.shape != want.shape or not np.array_equal(got, want):
                    torn = True
            if torn:
                report.invariant_violations.append(
                    f"step {step} committed but NOT byte-identical (torn data)"
                )
        if not torn:
            reader_committed.append(step)
        reader.end_step()
    reader.close()
    report.wall_time = time.monotonic() - began
    report.committed = reader_committed
    report.lost = reader_lost

    # -- invariants --------------------------------------------------------
    seen = sorted(reader_committed + reader_lost)
    if seen != list(range(steps)):
        report.invariant_violations.append(
            f"steps not covered exactly once: saw {seen}, expected 0..{steps - 1}"
        )
    if sorted(writer_lost) != sorted(reader_lost):
        report.invariant_violations.append(
            f"writer and reader disagree on lost steps: "
            f"writer={sorted(writer_lost)} reader={sorted(reader_lost)}"
        )
    for s in state.log:
        if s.status not in (StepState.COMMITTED, StepState.LOST, StepState.ABORTED):
            report.invariant_violations.append(
                f"step {s.step} left in state {s.status.value}"
            )

    # -- observability -----------------------------------------------------
    metrics = state.monitor.metrics
    report.faults_injected = int(metrics.counter("faults.injected.total").value)
    report.retries = int(metrics.counter("dataplane.drain.retries").value)
    report.recovered = int(metrics.counter("dataplane.drain.recovered").value)
    report.degradations = int(
        metrics.counter("dataplane.transport.degradations").value
    )
    if plugins:
        report.fused_reads = int(metrics.counter(M_PLUGIN_FUSED_READS).value)
        if reader_committed and report.fused_reads == 0:
            report.invariant_violations.append(
                "plug-in chain deployed but no read took the fused path"
            )
    records = [r.as_dict() for r in list(state.monitor.trace)]
    summary = fault_summary(records)
    if report.faults_injected > 0 and not summary.any():
        report.invariant_violations.append(
            "faults were injected but none are visible in the trace"
        )
    if report.recovered > 0 and summary.recovered == 0:
        report.invariant_violations.append(
            "retries recovered steps but no drain.recovered trace instants"
        )
    if trace_out:
        state.monitor.export_perfetto(trace_out)

    stream_registry.close_stream(name)

    # -- flight recorder ---------------------------------------------------
    report.flight_events = len(recorder)
    report.flight_dumps = [
        dict(e.attrs)["path"]
        for e in recorder.events(code=EV_FLIGHT_DUMP)
        if "path" in dict(e.attrs)
    ]
    if flight_dir is not None:
        flight.set_flight_dir(None)
        if (report.lost or report.writer_failures) and not report.flight_dumps:
            report.invariant_violations.append(
                "steps were lost but the flight recorder wrote no dump artifact"
            )

    # -- concurrency sanitizer ---------------------------------------------
    if san is not None:
        san.check_shutdown()  # flags drainer threads left un-joined
        san.check_leases()  # flags buffer leases still outstanding
        report.sanitizer_violations = [str(v) for v in san.violations()]
        report.invariant_violations.extend(
            f"sanitizer: {v}" for v in report.sanitizer_violations
        )
    return report


def _print_report(report: ChaosReport, out) -> None:
    flag = "OK" if report.ok else "FAIL"
    print(
        f"[{flag}] {report.scenario} seed={report.seed} rate={report.rate} "
        f"transport={report.transport}"
        f"{' transactional' if report.transactional else ''}: "
        f"{len(report.committed)}/{report.steps} committed, "
        f"{len(report.lost)} lost, {report.faults_injected} faults injected, "
        f"{report.retries} retries, {report.recovered} recovered, "
        f"{report.degradations} degradations "
        f"({report.wall_time:.2f}s)",
        file=out,
    )
    if report.plugins:
        print(
            f"  plug-in chain: {report.fused_reads} fused reads checked "
            f"against the interpreted oracle",
            file=out,
        )
    if report.flight_dumps:
        for path in report.flight_dumps:
            print(f"  flight dump: {path}", file=out)
    for v in report.invariant_violations:
        print(f"  violation: {v}", file=out)


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chaos",
        description="Replay coupled pipelines under a seeded fault schedule "
                    "and check the resiliency invariants.",
    )
    parser.add_argument("--scenario", default="gts",
                        choices=SCENARIOS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rate", type=float, default=0.1,
                        help="per-send fault probability (default 0.1)")
    parser.add_argument("--steps", type=int, default=20)
    parser.add_argument("--writers", type=int, default=2)
    parser.add_argument("--transport", default="shm", choices=("shm", "rdma"))
    parser.add_argument("--transactional", action="store_true",
                        help="all-or-nothing step visibility (2PC)")
    parser.add_argument("--plugins", action="store_true",
                        help="deploy a reader-side DC plug-in chain and "
                             "check fused reads against the interpreted "
                             "oracle (s3d scenario only)")
    parser.add_argument("--kinds", default="timeout|torn|disconnect",
                        help="fault kinds to draw from (|-separated)")
    parser.add_argument("--max-retries", type=int, default=2)
    parser.add_argument("--degrade-after", type=int, default=0,
                        help="consecutive failures before degrading "
                             "transport (0 = never)")
    parser.add_argument("--trace-out", default=None, metavar="OUT.json",
                        help="write a Perfetto trace of the run")
    parser.add_argument("--flight-dir", default=None, metavar="DIR",
                        help="write flight-recorder dump artifacts here "
                             "on every fault")
    parser.add_argument("--json", action="store_true",
                        help="emit the report(s) as JSON")
    args = parser.parse_args(argv)
    out = out or sys.stdout

    if args.plugins and args.scenario == "gts":
        parser.error("--plugins requires the s3d (global-array) scenario")
    scenarios = SCENARIOS if args.scenario == "all" else (args.scenario,)
    reports = [
        run_chaos(
            scenario=s,
            seed=args.seed,
            rate=args.rate,
            steps=args.steps,
            writers=args.writers,
            transport=args.transport,
            transactional=args.transactional,
            plugins=args.plugins and s == "s3d",
            kinds=args.kinds,
            max_retries=args.max_retries,
            degrade_after=args.degrade_after,
            trace_out=args.trace_out if len(scenarios) == 1 else None,
            flight_dir=args.flight_dir,
        )
        for s in scenarios
    ]
    if args.json:
        print(json.dumps([r.as_dict() for r in reports], indent=2), file=out)
    else:
        for r in reports:
            _print_report(r, out)
    return 0 if all(r.ok for r in reports) else 1


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    raise SystemExit(main())
