"""Daemon launcher: ``repro.net.server`` as its own OS process.

Parent side (:class:`Daemon`): spawns this file as a child, blocks on
the ``FLEXIO-DAEMON READY`` line, reads the child's VmHWM from
``/proc/<pid>/status``, scrapes counters from its ``/metrics`` endpoint,
and stops it with SIGINT, reaping it (SIGKILL after a grace period) so
no process or port outlives a run.

Child side (``python perfbench/daemon.py [--trace-out FILE] -- ARGS``):
installs the broker wrappers when tracing, runs
:func:`repro.net.server.main` with ARGS, and dumps the daemon's spans
to FILE once the server has stopped.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from collections import defaultdict
from typing import Optional

TENANT = "bench"
TOKEN = "bench-t0ken"
READY_TIMEOUT_S = 60.0

_READY_RE = re.compile(
    r"FLEXIO-DAEMON READY control=(\S+):(\d+) data=\S+ telemetry=(\S+)"
)
_SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")

#: CPUs this process may run on, read before any pinning.
_CPUS = sorted(os.sched_getaffinity(0))


def vm_hwm_mib(pid: int) -> float:
    """Peak resident set (VmHWM) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def parse_prometheus(text: str) -> dict[str, float]:
    """Sum every sample of each metric family over its label sets."""
    out: dict[str, float] = defaultdict(float)
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line.strip())
        if m is not None and "quantile=" not in (m.group(2) or ""):
            out[m.group(1)] += float(m.group(3))
    return dict(out)


class Daemon:
    """One daemon child process, started in the constructor."""

    def __init__(self, src_dir: str, log_path: str,
                 trace_out: Optional[str] = None) -> None:
        here = os.path.abspath(__file__)
        cmd = [sys.executable, here]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        cmd += ["--", "--tenant", f"{TENANT},token={TOKEN}"]
        env = {k: v for k, v in os.environ.items() if not k.startswith("FLEXIO_")}
        env["PYTHONPATH"] = src_dir
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log, env=env,
        )
        try:
            line = self._ready_line()
        except BaseException:
            self.stop()
            raise
        m = _READY_RE.search(line)
        self.host, self.port, self.telemetry = m.group(1), int(m.group(2)), m.group(3)
        self.uri = f"flexio://{self.host}:{self.port}/{TENANT}"

    def _ready_line(self) -> str:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            raw = self.proc.stdout.readline()
            if not raw:
                raise RuntimeError(
                    f"daemon exited with {self.proc.wait()} before READY"
                )
            line = raw.decode("utf-8", "replace")
            if _READY_RE.search(line):
                return line
        raise RuntimeError("daemon not READY in time")

    def pin_apart(self) -> None:
        """Pin this process to one CPU and every daemon thread to
        another, so the two ends of each exchange never queue for the
        same CPU (no-op with fewer than two CPUs)."""
        if len(_CPUS) < 2:
            return
        os.sched_setaffinity(0, {_CPUS[0]})
        for tid in os.listdir(f"/proc/{self.proc.pid}/task"):
            os.sched_setaffinity(int(tid), {_CPUS[1]})

    def peak_rss_mib(self) -> float:
        return vm_hwm_mib(self.proc.pid)

    def scrape(self) -> dict[str, float]:
        with urllib.request.urlopen(self.telemetry + "/metrics", timeout=10) as r:
            return parse_prometheus(r.read().decode("utf-8"))

    def stop(self) -> int:
        """SIGINT (clean stop), SIGKILL after a grace period; reaps."""
        proc = self.proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        if proc.stdout is not None:
            proc.stdout.close()
        self._log.close()
        return proc.returncode


def _child(argv: list[str]) -> int:
    stop_with_parent(signal.SIGINT)
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    tracer = None
    if trace_out:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from layers import SpanTracer, install_server_wrappers

        tracer = SpanTracer(prefix="d")
        install_server_wrappers(tracer)
    from repro.net import server

    try:
        return server.main(argv)
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


def stop_with_parent(sig: int) -> None:
    """Ask the kernel for ``sig`` when the parent process dies, so a
    killed run cannot orphan its children (Linux prctl PR_SET_PDEATHSIG)."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(1, sig)
    except (OSError, AttributeError):
        pass  # not Linux: the parent's stop() is the only stop


if __name__ == "__main__":
    raise SystemExit(_child(sys.argv[1:]))
