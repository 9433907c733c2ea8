"""Soak gate: constant per-step cost and flat memory over a long stream.

A lock-step writer and reader run ``--steps`` steps (default 20000) on
each stream plane: an in-process FLEXPATH stream (``local://``) and a
``flexio://`` stream through a directory daemon served from the same
process.  Every step writes a fresh 64 KiB float64 array, reads it back
through the read engine and checks it.  Each plane runs in its own
Python process, so its max RSS is its own.

A plane fails the gate when

* the median per-step time (writer ``begin_step`` to reader
  ``end_step``) of the last 2000-step window exceeds 1.2x that of the
  first window;
* the process's max RSS grows by more than 16 MiB from step 2000 to the
  end; or
* the stream's step log ever retains more than 2 steps (the reader keeps
  up, so every step it has passed must be freed).

Run:  python benchmarks/bench_soak.py [--quick] [--steps N] [--out FILE]
``--quick`` runs 3000 steps.  Writes ``BENCH_soak.json``; exits 1 when a
plane fails the gate.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time

import numpy as np

from repro.adios import BoundingBox, StepStatus

PLANES = ("local", "flexio")
ELEMS = 8192  # 64 KiB of float64 per step
WINDOW = 2000
MAX_SLOWDOWN = 1.2
MAX_RSS_GROWTH_MIB = 16.0
MAX_RETAINED = 2


def _max_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _open(plane: str, name: str):
    """(client, step-log getter, teardown) for one fresh stream."""
    from repro.net.client import connect

    if plane == "local":
        from repro.core.stream import stream_registry

        client = connect("local://")
        return (client, lambda: stream_registry._states[name].log,
                lambda: stream_registry.close_stream(name))
    from repro.core.directory import TenantSpec
    from repro.net.server import DirectoryDaemon

    daemon = DirectoryDaemon(tenants=[TenantSpec("public")], telemetry=False)
    daemon.start()
    client = connect(f"flexio://{daemon.host}:{daemon.control_port}/public")

    def teardown():
        client.close()
        daemon.stop()

    return client, lambda: daemon._streams[f"public/{name}"].log, teardown


def soak(plane: str, steps: int) -> dict:
    """Run one plane for ``steps`` lock-step steps; its measurements."""
    name = f"soak.{plane}"
    client, log_of, teardown = _open(plane, name)
    box = BoundingBox((0,), (ELEMS,))
    per_step = np.empty(steps)
    max_retained = 0
    rss_at_window = None
    try:
        writer = client.open(name, "w")
        reader = client.open(name, "r", timeout=5.0)
        log = None
        for step in range(steps):
            t0 = time.perf_counter()
            writer.begin_step()
            writer.write("v", np.full(ELEMS, float(step)), box=box,
                         global_shape=(ELEMS,))
            writer.end_step()
            status = reader.begin_step(timeout=5.0)
            if status is not StepStatus.OK:
                raise RuntimeError(f"{plane}: step {step} read {status}")
            got = reader.read("v")
            if got[0] != step or got[-1] != step:
                raise RuntimeError(f"{plane}: step {step} read wrong data")
            reader.end_step()
            per_step[step] = time.perf_counter() - t0
            log = log or log_of()
            max_retained = max(max_retained, len(log))
            if step + 1 == min(WINDOW, steps):
                rss_at_window = _max_rss_mib()
        writer.close()
        reader.close()
    finally:
        teardown()
    rss_end = _max_rss_mib()
    window = min(WINDOW, steps)
    first = float(np.median(per_step[:window])) * 1e6
    last = float(np.median(per_step[-window:])) * 1e6
    growth = rss_end - rss_at_window
    return {
        "plane": plane,
        "steps": steps,
        "window": window,
        "first_window_us": round(first, 1),
        "last_window_us": round(last, 1),
        "slowdown": round(last / first, 3),
        "max_rss_at_window_mib": round(rss_at_window, 1),
        "max_rss_end_mib": round(rss_end, 1),
        "rss_growth_mib": round(growth, 1),
        "max_retained_steps": max_retained,
        "pass": (last <= MAX_SLOWDOWN * first
                 and growth <= MAX_RSS_GROWTH_MIB
                 and max_retained <= MAX_RETAINED),
    }


def _soak_in_subprocess(plane: str, steps: int) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--plane", plane, "--steps", str(steps)],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="3000 steps")
    ap.add_argument("--steps", type=int, default=None)
    ap.add_argument("--out", default="BENCH_soak.json")
    ap.add_argument("--plane", choices=PLANES, default=None,
                    help="run one plane in this process and print its JSON")
    args = ap.parse_args(argv)
    steps = args.steps or (3000 if args.quick else 20000)
    if args.plane is not None:
        print(json.dumps(soak(args.plane, steps)))
        return 0
    planes = {plane: _soak_in_subprocess(plane, steps) for plane in PLANES}
    results = {
        "steps": steps,
        "bytes_per_step": ELEMS * 8,
        "gate": {"max_slowdown": MAX_SLOWDOWN,
                 "max_rss_growth_mib": MAX_RSS_GROWTH_MIB,
                 "max_retained_steps": MAX_RETAINED},
        "machine": {"python": platform.python_version(),
                    "machine": platform.machine(), "cpus": os.cpu_count()},
        "planes": planes,
        "pass": all(p["pass"] for p in planes.values()),
    }
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2)
    for p in planes.values():
        print(f"{p['plane']:7s}: {p['steps']} steps, per-step median "
              f"{p['first_window_us']:.0f} -> {p['last_window_us']:.0f} us "
              f"(x{p['slowdown']:.2f}), max RSS +{p['rss_growth_mib']:.1f} MiB "
              f"after step {p['window']}, retained <= {p['max_retained_steps']}"
              f"  {'PASS' if p['pass'] else 'FAIL'}")
    return 0 if results["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
