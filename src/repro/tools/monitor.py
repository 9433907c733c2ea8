"""Live stream monitor: a top-like per-stream health table.

Scrapes the loopback telemetry server (:mod:`repro.obs.live`) and
prints one row per stream — state, steps/s, MB/s, p99 step latency,
loss rate, drain queue depth, steps retained in the step log, the
slowest reader's lag, and the SLO health verdict.

Usage::

    python -m repro.tools.monitor --url http://127.0.0.1:9464
    python -m repro.tools.monitor --url ... --iterations 10 --interval 2
    python -m repro.tools.monitor --demo --check-expo

``--demo`` runs a small in-process coupled pipeline, serves it, scrapes
it once through real HTTP, and exits — the self-contained smoke path CI
uses.  ``--check-expo`` additionally fetches ``/metrics`` and validates
the Prometheus exposition format (exit 1 on any violation).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from typing import Optional, Sequence

from repro.util import fmt_bytes

_COLUMNS = (
    f"{'stream':28s} {'state':7s} {'trans':9s} {'steps/s':>8s} "
    f"{'MB/s':>9s} {'p99(ms)':>8s} {'loss%':>6s} {'queue':>5s} "
    f"{'kept':>4s} {'lag':>5s} health"
)


def fetch(url: str, timeout: float = 5.0) -> bytes:
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.read()


def render_table(rows: list[dict], out) -> None:
    print(_COLUMNS, file=out)
    if not rows:
        print("(no streams)", file=out)
        return
    for r in rows:
        reasons = f"  [{'; '.join(r['reasons'])}]" if r.get("reasons") else ""
        print(
            f"{r['stream'][:28]:28s} {r['state']:7s} {r['transport'][:9]:9s} "
            f"{r['steps_per_s']:8.2f} {r['bytes_per_s'] / 1e6:9.2f} "
            f"{r['p99_latency'] * 1e3:8.2f} {r['loss_rate'] * 100:6.2f} "
            f"{r['queue_depth']:5.0f} {r['retained']:4d} {r['reader_lag']:5d} "
            f"{r['health']}{reasons}",
            file=out,
        )


def scrape_once(url: str, out, as_json: bool = False) -> int:
    try:
        doc = json.loads(fetch(url.rstrip("/") + "/streams"))
    except (urllib.error.URLError, OSError, ValueError) as exc:
        print(f"cannot scrape {url}: {exc}", file=out)
        return 2
    if as_json:
        print(json.dumps(doc, indent=2), file=out)
    else:
        render_table(doc.get("streams", []), out)
    return 0


def check_exposition(url: str, out) -> int:
    """Fetch /metrics once and validate the text exposition format."""
    from repro.obs.live import validate_exposition

    try:
        text = fetch(url.rstrip("/") + "/metrics").decode()
    except (urllib.error.URLError, OSError) as exc:
        print(f"cannot scrape {url}/metrics: {exc}", file=out)
        return 2
    problems = validate_exposition(text)
    samples = sum(
        1 for ln in text.splitlines() if ln.strip() and not ln.startswith("#")
    )
    if problems:
        print(f"exposition INVALID ({len(problems)} problem(s)):", file=out)
        for p in problems:
            print(f"  {p}", file=out)
        return 1
    print(
        f"exposition OK: {samples} samples, {fmt_bytes(len(text))}", file=out
    )
    return 0


def _run_demo(steps: int, out) -> tuple[object, str]:
    """Drive a small coupled pipeline and serve it; returns (server, url)."""
    import numpy as np

    from repro.adios import Adios, RankContext
    from repro.core.hints import stream_params
    from repro.core.stream import stream_registry
    from repro.obs.live import LiveTelemetryServer

    xml = f"""
    <adios-config>
      <adios-group name="demo">
        <var name="field" type="float64" dimensions="n"/>
      </adios-group>
      <method group="demo" method="FLEXPATH">{stream_params(sync=True)}</method>
    </adios-config>
    """
    adios = Adios.from_xml(xml)
    name = f"monitor.demo.{time.monotonic_ns()}"
    writer = adios.open_write("demo", name, RankContext(0, 1))
    for step in range(steps):
        writer.write("field", np.full(4096, float(step)))
        writer.end_step()
    server = LiveTelemetryServer(
        states=lambda: dict(stream_registry._states)
    )
    host, port = server.start()
    print(f"demo: {steps} steps on {name!r}; serving {server.url}", file=out)
    writer.close()
    return server, server.url


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    parser = argparse.ArgumentParser(
        prog="monitor",
        description="Per-stream health table scraped from the live "
                    "telemetry server.",
    )
    parser.add_argument("--url", default=None,
                        help="telemetry server base URL "
                             "(e.g. http://127.0.0.1:9464)")
    parser.add_argument("--demo", action="store_true",
                        help="serve an in-process demo pipeline and "
                             "scrape it (smoke test)")
    parser.add_argument("--demo-steps", type=int, default=8)
    parser.add_argument("--iterations", type=int, default=1,
                        help="number of scrapes (top-like watch)")
    parser.add_argument("--interval", type=float, default=2.0,
                        help="seconds between scrapes")
    parser.add_argument("--json", action="store_true",
                        help="emit raw /streams JSON instead of the table")
    parser.add_argument("--check-expo", action="store_true",
                        help="also validate the /metrics Prometheus "
                             "exposition format")
    args = parser.parse_args(argv)
    out = out or sys.stdout

    if args.demo == (args.url is not None):
        parser.error("exactly one of --url or --demo is required")
    server = None
    url = args.url
    if args.demo:
        server, url = _run_demo(args.demo_steps, out)
    try:
        rc = 0
        for i in range(max(1, args.iterations)):
            if i:
                time.sleep(args.interval)
                print("", file=out)
            rc = scrape_once(url, out, as_json=args.json) or rc
        if args.check_expo:
            rc = check_exposition(url, out) or rc
        return rc
    finally:
        if server is not None:
            server.stop()


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    raise SystemExit(main())
