"""FlexIO repository benchmark: long-run field and particle pipelines.

One run::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds nothing (pure Python: the program is imported from ``src/`` of
the checkout this file sits in).  It runs segments one after another,
each in a fresh process: a segment sets the workload up (several times
when that is quick), warms up, then times a fixed number of closed-loop
steps, checking every read against an oracle.  Segments follow one
another until ``S`` seconds of timed window have passed, and their
samples are pooled.  The run prints the metrics by name and unit, and as
its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics (from wrapped entry points) with ``--trace 1``.  A record of the
run (machine fingerprint, seed, step counts, units, sample counts,
counter deltas) and, when tracing, the span file go to ``.perfbench/``.

Other modes::

    python3 perfbench/run.py --suite [--seed N] [--seconds S]
        every workload, untraced and traced, each in a fresh process;
        prints the per-layer tables and the tracing overhead
    python3 perfbench/run.py --write-spec
        regenerate BENCHMARK.json from perfbench/spec.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)

import spec  # noqa: E402


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values: list, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    import numpy as np

    return float(np.percentile(values, q)) if values else float("nan")


def self_rss_mib() -> float:
    from daemon import vm_hwm_mib

    return vm_hwm_mib(os.getpid())


def fingerprint() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        # A checkout that is not a repository must not report the rev of
        # a repository above it.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, env=env,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_rev": rev,
    }


# ---------------------------------------------------------------------------
# One segment: a fresh process that sets up, warms up and times its steps
# ---------------------------------------------------------------------------

def _counters(session) -> dict:
    """Program-side counters at this instant (client/stream monitor and
    the daemon's /metrics)."""
    reg = session.monitor().metrics
    out = {}
    for c in reg.counters():
        out[c.name] = out.get(c.name, 0.0) + float(c.value)
    for h in reg.histograms():
        if h.name == "transport.copies":
            out["transport.copies.sum"] = out.get("transport.copies.sum", 0.0) + h.total
    if session.daemon is not None:
        for k, v in session.daemon.scrape().items():
            out["daemon." + k] = v
    return out


def run_segment(workload: str, seed: int, steps: int, max_s: float, trace: bool,
                segment: int = 0, corrupt_step=None,
                warmup: int = spec.WARMUP_STEPS) -> dict:
    """Set up, warm up, then time ``steps`` steps (or ``max_s`` seconds,
    whichever comes first) in this process; returns the raw samples."""
    import layers
    import workloads

    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-s{seed}-t{int(trace)}-k{segment}"
    tracer = None
    if trace:
        tracer = layers.SpanTracer(prefix=f"b{segment}.")
        layers.install_client_wrappers(tracer)
    daemon_spans = os.path.join(OUT, f"daemon-spans-{tag}.jsonl") if trace else None

    def fresh():
        # One stream name per run: re-opening a closed in-process stream's
        # name replaces its state, so earlier episodes' steps are freed.
        return workloads.make(workload, SRC, OUT, daemon_spans, f"s{seed}")

    setup_s = []
    session = driver_cls = None
    t_setups = time.perf_counter()
    while not setup_s or (time.perf_counter() - t_setups < spec.SETUP_MIN_S
                          and len(setup_s) < spec.SETUP_MAX_REPEATS):
        if session is not None:
            session.close()
        t0 = time.perf_counter()
        session, driver_cls = fresh()
        setup_s.append(time.perf_counter() - t0)

    net = session.daemon is not None
    episode_steps = steps if net else spec.INPROC_EPISODE_STEPS
    tally = workloads.Tally()
    delta: dict = {}
    episodes: list[list] = []  # timed-step indices of each episode
    chunk_rates: list[float] = []
    elapsed = 0.0
    g = 0  # timed-step index within the segment (trace ids)
    try:
        while True:
            driver = driver_cls(session, seed, net, None if episodes else corrupt_step)
            for i in range(warmup):
                driver.step(i, None)
            before = _counters(session)
            if tracer is not None:
                tracer.open_window()
            ep: list = []
            t0 = time.perf_counter()
            marks = [(t0, tally.steps_ok)]
            i = warmup
            while (len(ep) < episode_steps and g < steps
                   and elapsed + time.perf_counter() - t0 < max_s):
                if tracer is not None:
                    tracer.begin_step(g)
                driver.step(i, tally)
                if tracer is not None:
                    tracer.end_step()
                marks.append((time.perf_counter(), tally.steps_ok))
                ep.append(g)
                g += 1
                i += 1
            elapsed += time.perf_counter() - t0
            chunk_rates += _chunk_rates(marks)
            if tracer is not None:
                tracer.close_window()
            episodes.append(ep)
            after = _counters(session)
            for k in set(after) | set(before):
                delta[k] = delta.get(k, 0.0) + after.get(k, 0.0) - before.get(k, 0.0)
            if g >= steps or elapsed >= max_s:
                break
            session.close()
            session, _ = fresh()
        rss = self_rss_mib()
        if net:
            rss += session.daemon.peak_rss_mib()
        trace_len = len(session.monitor().trace)
        state = tracer.objects.get("stream") if tracer is not None else None
        retained = len(state.published) if state is not None else 0
    finally:
        session.close()  # stops the daemon, which then writes its spans

    record = {
        "window_s": elapsed, "timed_steps": g, "episodes": len(episodes),
        "setup_s": setup_s, "attempted": tally.attempted, "failed": tally.failed,
        "errors": tally.errors, "steps_ok": tally.steps_ok,
        "chunk_rates": chunk_rates,
        "write_us": tally.write_us, "read_us": tally.read_us,
        "e2e_latency_us": tally.e2e_us, "peak_rss_mib": rss,
        "blocks_written": tally.blocks_written, "counter_deltas": delta,
    }
    if trace:
        dspans = []
        if os.path.exists(daemon_spans):
            dspans = layers.load_spans(daemon_spans)
            os.remove(daemon_spans)
        record["per_layer"] = _per_layer(tracer, dspans, episodes, g, delta,
                                         tally, retained, trace_len)
        if segment == 0:  # one segment's spans make the run's span file
            span_path = os.path.join(OUT, f"spans-{workload}-s{seed}-t1.jsonl")
            with open(span_path, "w", encoding="utf-8") as fh:
                for s in tracer.spans + dspans:
                    fh.write(json.dumps(layers.span_record(s)) + "\n")
            record["span_file"] = span_path
            record["spans"] = len(tracer.spans) + len(dspans)
    return record


# ---------------------------------------------------------------------------
# One run: segments in fresh processes until the window is filled
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool,
        segment_steps: int = spec.SEGMENT_STEPS) -> dict:
    """Segments of ``segment_steps`` timed steps, each in a fresh process,
    until ``seconds`` of timed window have passed; returns the run record."""
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-s{seed}-t{int(trace)}"
    segs: list[dict] = []
    window = 0.0
    while window < seconds:
        segs.append(_segment_process(workload, seed, segment_steps, seconds,
                                     trace, len(segs)))
        window += segs[-1]["window_s"]

    def pooled(key):
        return [x for s in segs for x in s[key]]

    attempted = sum(s["attempted"] for s in segs)
    failed = sum(s["failed"] for s in segs)
    errors = {k: int(v) for k, v in _summed(s["errors"] for s in segs).items()}
    rates = pooled("chunk_rates")
    e2e = {
        "write_us.p50": percentile(pooled("write_us"), 50),
        "write_us.p99": percentile(pooled("write_us"), 99),
        "read_us.p50": percentile(pooled("read_us"), 50),
        "e2e_latency_us.p50": percentile(pooled("e2e_latency_us"), 50),
        "e2e_latency_us.p99": percentile(pooled("e2e_latency_us"), 99),
        # Median chunk: a stall on a shared box moves one chunk, not the
        # result.  A run too short for a full chunk uses its whole window.
        "steps_per_s": (statistics.median(rates) if rates
                        else sum(s["steps_ok"] for s in segs) / window),
        "peak_rss_mib": max(s["peak_rss_mib"] for s in segs),
        "setup_s": statistics.median(pooled("setup_s")),
        "failed_frac": failed / attempted if attempted else 1.0,
    }
    timed = sum(s["timed_steps"] for s in segs)
    record = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "seconds": seconds, "window_s": window,
        "warmup_steps_per_segment": spec.WARMUP_STEPS,
        "segment_steps": segment_steps, "segments": len(segs),
        "timed_steps": timed, "episodes": sum(s["episodes"] for s in segs),
        "attempted": attempted, "failed": failed, "errors": errors,
        "samples": {"write_us": len(pooled("write_us")),
                    "read_us": len(pooled("read_us")),
                    "e2e_latency_us": len(pooled("e2e_latency_us")),
                    "steps_per_s": len(rates), "peak_rss_mib": len(segs),
                    "setup_s": len(pooled("setup_s")),
                    "failed_frac": attempted},
        "units": {m.name: m.unit for m in spec.END_TO_END + spec.REPORTED_ONLY},
        "end_to_end": e2e,
        "segment_rates": [s["steps_ok"] / s["window_s"] for s in segs],
        "counter_deltas": _summed(s["counter_deltas"] for s in segs),
        "fingerprint": fingerprint(),
    }
    if trace:
        values = _per_step_mean(segs, "values")
        values["bench.traced_steps_per_s"] = e2e["steps_per_s"]
        record["per_layer"] = {"values": values,
                               "inclusive_us": _per_step_mean(segs, "inclusive_us")}
        record["per_layer_units"] = {m.name: m.unit for m in spec.PER_LAYER}
        record["span_file"] = os.path.relpath(segs[0]["span_file"], ROOT)
        record["spans"] = segs[0]["spans"]
    with open(os.path.join(OUT, f"record-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def _chunk_rates(marks: list) -> list[float]:
    """Correct steps per second of each full CHUNK_STEPS-step chunk of
    one episode's ``(time, correct steps so far)`` marks."""
    c = spec.CHUNK_STEPS
    return [(marks[j + c][1] - marks[j][1]) / (marks[j + c][0] - marks[j][0])
            for j in range(0, len(marks) - c, c)]


def _summed(dicts) -> dict:
    out: dict = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out.get(k, 0.0) + v
    return out


def _per_step_mean(segs: list, key: str) -> dict:
    """Per-layer values of the segments weighted by their timed steps:
    the per-step mean over the pooled steps."""
    n = sum(s["timed_steps"] for s in segs)
    return _summed({k: v * s["timed_steps"] / n for k, v in s["per_layer"][key].items()}
                   for s in segs)


def _segment_process(workload, seed, steps, max_s, trace, k) -> dict:
    """One segment in a fresh interpreter; its record comes back as JSON."""
    out = os.path.join(OUT, f"segment-{workload}-s{seed}-t{int(trace)}-k{k}.json")
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(max_s), "--trace", str(int(trace)),
           "--segment", str(k), "--segment-steps", str(steps), "--segment-out", out]
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    try:
        rc = proc.wait()
    finally:
        if proc.poll() is None:  # interrupted: stop the segment (and its daemon)
            proc.terminate()
            proc.wait()
    if rc != 0:
        raise SystemExit(f"perfbench: segment {k} of {workload} exited {rc}")
    with open(out, encoding="utf-8") as fh:
        record = json.load(fh)
    os.remove(out)
    return record


def _per_layer(tracer, dspans, episodes, steps, delta, tally,
               retained, trace_len) -> dict:
    import layers

    totals = {k: list(v) for k, v in tracer.totals.items()}
    for s in dspans:  # daemon spans: same monotonic clock, window by start
        if layers.in_windows(tracer.windows, s[2]):
            tot = totals.setdefault(s[0], [0, 0.0, 0.0])
            tot[0] += 1
            tot[1] += s[4]
            tot[2] += s[3]
    n = max(steps, 1)

    def us(name):
        return totals.get(name, [0, 0.0, 0.0])[1] / n * 1e6

    def incl_us(*names):
        return sum(totals.get(k, [0, 0.0, 0.0])[2] for k in names) / n * 1e6

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0] / n

    def ratio(a, b):
        return a / b if b else 0.0

    def get_step_mean(last: bool):
        # Tenths of each episode: the stream's age is what they compare.
        sel = []
        for ep in episodes:
            k = max(len(ep) // 10, 1)
            sel += ep[-k:] if last else ep[:k]
        return (sum(tracer.step_self.get(("stream.get_step", s), 0.0) for s in sel)
                / max(len(sel), 1) * 1e6)

    d = delta.get
    hits = d("dataplane.plan_cache.hits", 0.0)
    misses = d("dataplane.plan_cache.misses", 0.0)
    fused = d("plugin.fused_reads", 0.0)
    interp = d("plugin.interpreted_reads", 0.0)
    skipped = d("plugin.blocks_skipped", 0.0) + d("daemon.flexio_plugin_blocks_skipped", 0.0)
    counts = tracer.counts
    values = {
        "stream.end_rank_step_us": us("stream.end_rank_step"),
        "stream.get_step_us": us("stream.get_step"),
        "stream.get_step_us.first_tenth": get_step_mean(last=False),
        "stream.get_step_us.last_tenth": get_step_mean(last=True),
        "stream.retained_steps": float(retained),
        "transport.shm.sendv_us": us("transport.shm.sendv"),
        "transport.shm.recv_us": us("transport.shm.recv"),
        "transport.tcp.sendv_us": us("transport.tcp.sendv"),
        "transport.tcp.recv_us": us("transport.tcp.recv"),
        "transport.copies_per_step": d("transport.copies.sum", 0.0) / n,
        "protocol.encode_us": us("protocol.encode"),
        "protocol.decode_us": us("protocol.decode"),
        "marshal.format_id_calls_per_step": calls("marshal.format_id"),
        "net.client.write_us": us("net.client.write"),
        "net.client.publish_rtt_us": us("net.client.publish_rtt"),
        "net.client.fetch_rtt_us": us("net.client.fetch_rtt"),
        "net.server.publish_us": us("net.server.publish"),
        "net.server.prune_us": us("net.server.prune"),
        "net.server.fetch_us": us("net.server.fetch"),
        "net.server.blocks_pruned_frac": ratio(
            d("daemon.flexio_plugin_blocks_skipped", 0.0), tally.blocks_written),
        "redistribution.plan_get_us": us("redistribution.plan_get"),
        "redistribution.plan_cache_hit_ratio": ratio(hits, hits + misses),
        "redistribution.execute_us": us("redistribution.execute"),
        "redistribution.handshake_us": us("redistribution.handshake"),
        "plugins.chain_us": us("plugins.chain"),
        "plugins.rows_in_per_step": counts.get("plugins.rows_in", 0.0) / n,
        "plugins.rows_out_per_step": counts.get("plugins.rows_out", 0.0) / n,
        "plugins.fused_read_ratio": ratio(fused, fused + interp),
        "obs.records_per_step": calls("obs.record"),
        "obs.record_us": us("obs.record"),
        "obs.trace_len": float(trace_len),
        "counters.plan_cache_hits_per_step": hits / n,
        "counters.plan_cache_misses_per_step": misses / n,
        "counters.fused_reads_per_step": fused / n,
        "counters.interpreted_reads_per_step": interp / n,
        "counters.blocks_skipped_per_step": skipped / n,
        "counters.steps_fetched_per_step": d("daemon.flexio_net_steps_fetched", 0.0) / n,
        "counters.bytes_fetched_per_step": d("daemon.flexio_net_bytes_fetched", 0.0) / n,
        # Cross-plane: the same step boundary on whichever plane runs.
        "step.publish_us": incl_us("stream.end_rank_step", "net.client.publish_rtt"),
        "step.ready_wait_us": incl_us("stream.get_step", "net.client.fetch_rtt"),
        "read.assemble_us": us("redistribution.execute") + us("plugins.chain"),
    }
    incl = {f"{k}_us": v[2] / n * 1e6 for k, v in totals.items()}
    return {"values": values, "inclusive_us": incl}


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def result_line(record: dict) -> dict:
    """The contract's last line: listed metrics of this mode only."""
    if record["trace"]:
        values = record["per_layer"]["values"]
        wanted = [m for m in spec.PER_LAYER if m.listed]
    else:
        values = record["end_to_end"]
        wanted = list(spec.END_TO_END)
    return {
        "correct": record["failed"] == 0 and record["attempted"] > 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        # A latency with no correct step to time is null, not NaN.
        "metrics": {m.name: {"value": None if values[m.name] != values[m.name]
                             else values[m.name], "unit": m.unit}
                    for m in wanted},
    }


def print_report(record: dict, out=sys.stdout) -> None:
    w = record["workload"]
    n = record["samples"]
    print(f"# {w} seed={record['seed']} trace={record['trace']} "
          f"segments={record['segments']}x(warmup "
          f"{record['warmup_steps_per_segment']} + up to "
          f"{record['segment_steps']} timed steps) "
          f"timed_steps={record['timed_steps']} episodes={record['episodes']} "
          f"window={record['window_s']:.2f}s", file=out)
    e2e = record["end_to_end"]
    counts = dict(n)
    for m in spec.END_TO_END + spec.REPORTED_ONLY:
        base = m.name.split(".p")[0]
        extra = f"  (n={counts[base]})" if base in counts else ""
        print(f"  {m.name:28s} {e2e[m.name]:14.4f} {m.unit}{extra}", file=out)
    if record["errors"]:
        print(f"  failures: {record['errors']}", file=out)
    if record["trace"]:
        vals = record["per_layer"]["values"]
        incl = record["per_layer"]["inclusive_us"]
        print(f"  {'layer':34s} {'metric':38s} {'self/value':>12s} "
              f"{'inclusive':>11s}  {'unit':6s} {'moves':24s} "
              f"{'does the work in':22s} measured at", file=out)
        for m in spec.PER_LAYER:
            inc = incl.get(m.name)
            inc_s = f"{inc:11.2f}" if inc is not None else f"{'':11s}"
            print(f"  {m.layer:34s} {m.name:38s} {vals[m.name]:12.3f} {inc_s}  "
                  f"{m.unit:6s} {m.moves:24s} {m.works_in:22s} {m.measured_at}",
                  file=out)
        print(f"  spans: {record['spans']} in {record['span_file']}", file=out)


def suite(seed: int, seconds: float) -> int:
    """Every workload, untraced and traced, each in a fresh process."""
    rows = {}
    for w in spec.WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stdout.write(proc.stderr)
                print(f"suite: {w} trace={trace} exited {proc.returncode}")
                return 1
            path = os.path.join(OUT, f"record-{w}-s{seed}-t{trace}.json")
            with open(path, encoding="utf-8") as fh:
                rows[(w, trace)] = json.load(fh)
    print("\n# tracing overhead (steps_per_s untraced -> traced)")
    for w in spec.WORKLOAD_NAMES:
        a = rows[(w, 0)]["end_to_end"]["steps_per_s"]
        b = rows[(w, 1)]["end_to_end"]["steps_per_s"]
        listed = "" if any(x.name == w and x.listed for x in spec.WORKLOADS) \
            else "  (not in BENCHMARK.json)"
        print(f"  {w:26s} {a:9.1f} -> {b:9.1f}  "
              f"({(b / a - 1) * 100 if a else float('nan'):+.1f}%)  "
              f"failed_frac={rows[(w, 0)]['end_to_end']['failed_frac']:.4f}{listed}")
    with open(os.path.join(OUT, f"suite-s{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump({f"{w}/t{t}": r for (w, t), r in rows.items()}, fh, indent=1)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--suite", action="store_true")
    ap.add_argument("--write-spec", action="store_true")
    ap.add_argument("--segment-steps", type=int, default=spec.SEGMENT_STEPS,
                    help="timed steps per segment (fewer for a quick check)")
    # Internal: run one segment in this process and write its record.
    ap.add_argument("--segment", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--segment-out", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an error, so every started daemon is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
            json.dump(spec.benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0
    _import_program()
    if args.suite:
        return suite(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload is required")
    if args.segment is not None:
        from daemon import stop_with_parent

        stop_with_parent(signal.SIGTERM)
        record = run_segment(args.workload, args.seed, args.segment_steps,
                             args.seconds, bool(args.trace), args.segment)
        with open(args.segment_out, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        return 0
    record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.segment_steps)
    print_report(record)
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
