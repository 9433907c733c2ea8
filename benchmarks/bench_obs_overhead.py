"""Flight-recorder overhead benchmark (telemetry-plane acceptance).

The flight recorder is *always on*, so its per-event cost rides on every
hot-path message.  This bench drives the same 8 MiB shm-pool delivery
loop as :mod:`bench_buffers` with the data plane's per-step telemetry
calls (``emit(monitor, step.begin)`` + ``emit(monitor, step.commit)``,
which also bump the drain counters) made explicitly per message, and
compares msgs/s with the recorder **enabled** against the same loop
with ``FLEXIO_FLIGHT=0`` (the counters still count; the flight ring is
skipped after one env check).

Target (asserted by the pytest wrapper and recorded in the JSON):
``< 5%`` msgs/s cost on the 8 MiB shm-pool path.  An 8 MiB pool copy
dominates two ring appends by orders of magnitude, so a larger overhead
means the recorder's lock or allocation behaviour regressed.

A microbenchmark of ``emit()`` itself (ns/event, enabled vs disabled)
is included so a regression can be localized without the transport in
the way.

Run:  python benchmarks/bench_obs_overhead.py [--quick] [--out FILE]
Also collectable by pytest (the ``test_*`` wrappers assert the target).
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.core.monitoring import PerfMonitor
from repro.obs import emit
from repro.obs import recorder as flight
from repro.obs.events import EV_STEP_BEGIN, EV_STEP_COMMIT
from repro.transport.shm import ShmChannel
from repro.util import MiB

SIZE = 8 * MiB
STREAM = "bench.obs"


def _payload():
    return np.random.default_rng(SIZE).integers(0, 256, size=SIZE, dtype=np.uint8)


def _set_enabled(enabled):
    os.environ["FLEXIO_FLIGHT"] = "1" if enabled else "0"
    if enabled:
        flight.reset()  # fresh ring so eviction behaviour is identical per run


def _run_loop(reps, enabled):
    """One cell: ``reps`` 8 MiB pool deliveries, 2 flight events each."""
    _set_enabled(enabled)
    mon = PerfMonitor()
    ch = ShmChannel(use_xpmem=False, monitor=mon)
    payload = _payload()
    try:
        t0 = time.perf_counter()
        for step in range(reps):
            emit(mon, EV_STEP_BEGIN, STREAM, step=step)
            ch.send(payload)
            wb = ch.recv()
            if not wb.released:
                wb.release()
            emit(mon, EV_STEP_COMMIT, STREAM, step=step, nbytes=SIZE)
        dt = time.perf_counter() - t0
    finally:
        ch.close()
        os.environ.pop("FLEXIO_FLIGHT", None)
    return {
        "mode": "enabled" if enabled else "disabled",
        "reps": reps,
        "secs": round(dt, 6),
        "msgs_per_s": round(reps / dt, 2),
        "mb_per_s": round(reps * SIZE / dt / MiB, 1),
        "events_recorded": 2 * reps if enabled else 0,
    }


def _emit_ns(n, enabled):
    """Microbenchmark: cost of one emit() call in nanoseconds."""
    _set_enabled(enabled)
    mon = PerfMonitor()
    try:
        t0 = time.perf_counter()
        for i in range(n):
            emit(mon, EV_STEP_COMMIT, STREAM, step=i, nbytes=SIZE)
        dt = time.perf_counter() - t0
    finally:
        os.environ.pop("FLEXIO_FLIGHT", None)
    return round(dt / n * 1e9, 1)


def run(quick=False, rounds=3):
    reps = 8 if quick else 32
    micro_n = 20_000 if quick else 200_000
    # Interleave enabled/disabled rounds and keep the best of each so a
    # noisy neighbour (CI) hits both modes symmetrically.
    cells = []
    for _ in range(rounds):
        cells.append(_run_loop(reps, enabled=False))
        cells.append(_run_loop(reps, enabled=True))
    best = {
        mode: max(
            (c for c in cells if c["mode"] == mode),
            key=lambda c: c["msgs_per_s"],
        )
        for mode in ("disabled", "enabled")
    }
    overhead = 1.0 - best["enabled"]["msgs_per_s"] / best["disabled"]["msgs_per_s"]
    return {
        "bench": "obs_overhead",
        "quick": quick,
        "path": "shm-pool",
        "size": SIZE,
        "cells": cells,
        "best_disabled_msgs_per_s": best["disabled"]["msgs_per_s"],
        "best_enabled_msgs_per_s": best["enabled"]["msgs_per_s"],
        "overhead_pct": round(overhead * 100, 2),
        "pass_overhead_lt_5pct": overhead < 0.05,
        "emit_ns_enabled": _emit_ns(micro_n, enabled=True),
        "emit_ns_disabled": _emit_ns(micro_n, enabled=False),
    }


# --- pytest wrappers (run only when benchmarks/ is targeted explicitly) ---

def test_flight_recorder_overhead_under_5pct_on_8mib_pool():
    results = run(quick=True, rounds=3)
    assert results["pass_overhead_lt_5pct"], results


def test_emit_call_cost_is_bounded():
    assert _emit_ns(50_000, enabled=True) < 20_000  # 20 µs: gross regression
    assert _emit_ns(50_000, enabled=False) < 5_000


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="fewer reps")
    ap.add_argument("--out", default="BENCH_obs.json")
    args = ap.parse_args(argv)
    results = run(quick=args.quick)
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2)
    print(f"{'mode':9s} {'reps':>5s} {'msgs/s':>9s} {'MB/s':>10s}")
    for c in results["cells"]:
        print(f"{c['mode']:9s} {c['reps']:5d} {c['msgs_per_s']:9.2f} "
              f"{c['mb_per_s']:10.1f}")
    print(f"emit(): {results['emit_ns_enabled']} ns enabled, "
          f"{results['emit_ns_disabled']} ns disabled")
    print(f"8 MiB shm-pool overhead: {results['overhead_pct']:.2f}% "
          f"({'PASS' if results['pass_overhead_lt_5pct'] else 'FAIL'} <5%)")
    print(f"wrote {os.path.abspath(args.out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
