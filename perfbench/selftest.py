"""Quick self-test of the benchmark harness (about a minute).

    python3 perfbench/selftest.py

* ``BENCHMARK.json`` matches ``spec.py`` and the contract's limits;
* every workload runs for a few 40-step segments, untraced and traced,
  and its result line carries every listed metric with its unit (the
  reads of ``particles-lagged-inproc`` must be reported as failed, not
  hidden);
* the traced run's span file loads in ``python -m repro.tools.trace``;
* one deliberately corrupted read is counted in ``failed_frac``.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402

SECONDS = "1"
SEGMENT_STEPS = "40"
#: Workloads whose reads are wrong at the commit that added the
#: benchmark (the in-process stream aliases the writers' live buffers);
#: the harness must report them as failed, not hide them.
READS_FAIL = ("particles-lagged-inproc",)
_failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        _failures.append(what)


def check_spec() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    check(doc == spec.benchmark_json(), "BENCHMARK.json matches spec.py")
    check(2 <= len(doc["workloads"]) <= 8, "2..8 workloads")
    check(any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
              for m in doc["end_to_end"]), "setup_s is an end-to-end metric")
    bounds = [m["bound"] for m in doc["end_to_end"]]
    check(all(0 < b <= 0.25 for b in bounds), "bounds in (0, 0.25]")
    setup_bound = next(m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")
    check(setup_bound == max(bounds), "setup_s has the largest bound")
    check(1 <= doc["run_seconds"] <= 60, "run_seconds in 1..60")


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", str(trace),
           "--segment-steps", SEGMENT_STEPS]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    check(proc.returncode == 0, f"{workload} trace={trace} exits 0")
    if proc.returncode != 0:
        print(proc.stdout[-2000:], proc.stderr[-2000:])
        return {}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workload(w: spec.Workload) -> None:
    for trace in (0, 1):
        res = run(w.name, trace)
        if not res:
            continue
        wanted = (spec.END_TO_END if trace == 0
                  else [m for m in spec.PER_LAYER if m.listed])
        got = res["metrics"]
        check(set(got) == {m.name for m in wanted}
              and all(got[m.name]["unit"] == m.unit for m in wanted),
              f"{w.name} trace={trace}: every listed metric, with its unit")
        check(res["attempted"] >= 1, f"{w.name} trace={trace}: reads attempted")
        if w.name in READS_FAIL:
            check(not res["correct"] and res["failed"] > 0,
                  f"{w.name} trace={trace}: failing reads are reported")
        else:
            check(res["correct"] and res["failed"] == 0,
                  f"{w.name} trace={trace}: every read matches the oracle")
    spans = os.path.join(ROOT, ".perfbench", f"spans-{w.name}-s7-t1.jsonl")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "repro.tools.trace", spans],
                          capture_output=True, text=True, env=env, timeout=180)
    check(proc.returncode == 0 and "spans" in proc.stdout,
          f"{w.name}: span file loads in repro.tools.trace")


def check_corrupted_read() -> None:
    import run as bench

    bench._import_program()
    rec = bench.run_segment("field-lockstep-inproc", seed=7, steps=40, max_s=5.0,
                            trace=False, corrupt_step=spec.WARMUP_STEPS + 1)
    check(rec["attempted"] > 1 and rec["failed"] == 1
          and rec["errors"] == {"read differs from oracle": 1},
          "one corrupted read is counted in failed_frac")


def main() -> int:
    print("spec")
    check_spec()
    for w in spec.WORKLOADS:
        print(w.name)
        check_workload(w)
    print("oracle")
    check_corrupted_read()
    print(f"{len(_failures)} failed" if _failures else "all checks passed")
    return 1 if _failures else 0


if __name__ == "__main__":
    sys.exit(main())
