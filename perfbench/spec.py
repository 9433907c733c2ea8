"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

This module is the single source of ``BENCHMARK.json`` at the repository
root (``python3 perfbench/run.py --write-spec`` regenerates it) and of
the metric tables the runner prints.  ``README.md`` next to it says why
each workload exists and which layers it bypasses.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seconds one run measures (the timed windows of its segments, summed).
RUN_SECONDS = 40

#: A run is a sequence of segments, each a fresh benchmark process (and,
#: on the network plane, a fresh daemon) that sets up, warms up and times
#: SEGMENT_STEPS steps; segments follow one another until RUN_SECONDS of
#: timed window have passed.  On a shared VM one process can run 20-40%
#: faster or slower than the next for its whole life (where its memory
#: lands, which CPU it shares), so a run that lived in one process would
#: measure that draw; pooling several processes' samples averages it out.
SEGMENT_STEPS = 1000

#: ``steps_per_s`` is the median rate over the run's consecutive chunks
#: of this many timed steps (chunks stay within an episode).
CHUNK_STEPS = 100

#: Steps run before each segment's timed window opens (plans compiled,
#: sockets and codec paths warm, the lagged reader already trailing by
#: its lag).
WARMUP_STEPS = 32

#: Set-ups per segment: at least one and, while they take less than
#: SETUP_MIN_S in total, up to SETUP_MAX_REPEATS; ``setup_s`` is the
#: median over every set-up of the run (sub-millisecond in-process
#: set-ups get many, daemon set-ups one per segment).
SETUP_MIN_S = 0.25
SETUP_MAX_REPEATS = 100

#: In-process segments are back-to-back episodes of this many timed
#: steps, each on a fresh stream.  The in-process stream keeps every step
#: and its per-step cost grows with their number, so it has no steady
#: state: fixed-length episodes put every segment on the same cost curve.
#: The network plane (broker retention is bounded) runs one episode.
INPROC_EPISODE_STEPS = 500


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Kept in BENCHMARK.json.  A workload whose reads fail, or whose
    #: run-to-run spread exceeds the bounds, at the commit that added the
    #: benchmark stays runnable by name (and in ``--suite``) but is not
    #: listed there; README.md says why for each.
    listed: bool = True


WORKLOADS = (
    Workload(
        "field-lockstep-inproc",
        "in-process FLEXPATH 16x4 field MxN, lock-step; not listed because "
        "its run-to-run spread on a shared 2-CPU VM exceeds the bounds",
        listed=False,
    ),
    Workload(
        "field-lockstep-net",
        "the same field through the flexio:// daemon: marshal, TCP framing, "
        "broker publish/fetch and client assembly; no in-process drain",
    ),
    Workload(
        "particles-lagged-net",
        "8 in-place particle slabs, fused range+sample chain read 8 steps "
        "behind with pushdown: the broker prunes the blocks the chain drops",
    ),
    Workload(
        "particles-lagged-inproc",
        "in-process twin of particles-lagged-net; not listed because the "
        "stream keeps the writers' live buffers, so lagged reads are wrong",
        listed=False,
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float = 0.0


#: End-to-end metrics (``--trace 0``).  Every timing is per step over
#: the timed window.  On a shared 2-CPU VM the run-to-run spread of the
#: listed workloads' timings is about 0.05-0.09 of the median, so their
#: bounds sit just under the 0.25 ceiling; peak RSS moves by about 0.01;
#: ``setup_s`` (a process start, the noisiest) has the largest bound.
END_TO_END = (
    Metric("write_us.p50", "us", "lower", 0.24),
    Metric("read_us.p50", "us", "lower", 0.24),
    Metric("e2e_latency_us.p50", "us", "lower", 0.24),
    Metric("steps_per_s", "1/s", "higher", 0.24),
    Metric("peak_rss_mib", "MiB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.25),
)

#: Printed and recorded with every run but kept out of BENCHMARK.json.
#: The p99s move between runs by more than the largest bound allowed
#: there (0.25) on a shared 2-CPU box; ``failed_frac`` is 0 on every
#: listed workload, and no metric there may read 0 (the result line's
#: ``failed``/``attempted`` carry it as well).
REPORTED_ONLY = (
    Metric("write_us.p99", "us", "lower"),
    Metric("e2e_latency_us.p99", "us", "lower"),
    Metric("failed_frac", "ratio", "lower"),
)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    layer: str
    measured_at: str
    moves: str
    works_in: str
    #: Listed under ``per_layer`` in BENCHMARK.json.  Layer timings that
    #: are 0 by construction on some listed workload (the layer is not
    #: on that plane) stay in the printed table and the run record only;
    #: listed counts and ratios may read 0 where their layer is idle.
    listed: bool = False
    better: str = "lower"


_INPROC = "both inproc"
_NET = "both net"

PER_LAYER = (
    LayerMetric("stream.end_rank_step_us", "us", "core.stream",
                "StreamState.end_rank_step", "write_us", _INPROC),
    LayerMetric("stream.get_step_us", "us", "core.stream",
                "StreamState.get_step + step_available", "read_us, e2e_latency_us",
                _INPROC),
    LayerMetric("stream.get_step_us.first_tenth", "us", "core.stream",
                "as stream.get_step_us, first tenth of the window",
                "read_us, e2e_latency_us", _INPROC),
    LayerMetric("stream.get_step_us.last_tenth", "us", "core.stream",
                "as stream.get_step_us, last tenth of the window",
                "read_us, e2e_latency_us", _INPROC),
    LayerMetric("stream.retained_steps", "count", "core.stream",
                "len(StreamState.published) at end of run", "peak_rss_mib",
                _INPROC),
    LayerMetric("transport.shm.sendv_us", "us", "transport",
                "ShmChannel.sendv (drainer thread)", "e2e_latency_us", _INPROC),
    LayerMetric("transport.shm.recv_us", "us", "transport",
                "ShmChannel.recv (drainer thread)", "e2e_latency_us", _INPROC),
    LayerMetric("transport.tcp.sendv_us", "us", "transport",
                "client TcpChannel.sendv", "write_us, read_us", _NET, listed=True),
    LayerMetric("transport.tcp.recv_us", "us", "transport",
                "client TcpChannel.recv", "write_us, read_us", _NET, listed=True),
    LayerMetric("transport.copies_per_step", "count", "transport",
                "transport.copies histogram sum", "write_us, e2e_latency_us",
                "all", listed=True),
    LayerMetric("protocol.encode_us", "us", "net.protocol",
                "client encode_frame + encode_var", "write_us", _NET, listed=True),
    LayerMetric("protocol.decode_us", "us", "net.protocol",
                "client decode_frame + decode_var", "read_us", _NET, listed=True),
    LayerMetric("marshal.format_id_calls_per_step", "count", "marshal",
                "Format.format_id", "write_us", _NET, listed=True),
    LayerMetric("net.client.write_us", "us", "net.client",
                "NetWriteHandle.write", "write_us", _NET, listed=True),
    LayerMetric("net.client.publish_rtt_us", "us", "net.client",
                "NetWriteHandle.end_step", "write_us", _NET, listed=True),
    LayerMetric("net.client.fetch_rtt_us", "us", "net.client",
                "NetReadHandle.begin_step", "read_us", _NET, listed=True),
    LayerMetric("net.server.publish_us", "us", "net.server",
                "HostedStream.publish (daemon)", "write_us", _NET, listed=True),
    LayerMetric("net.server.prune_us", "us", "net.server",
                "prune_step_payload (daemon)", "write_us", "particles-lagged-net"),
    LayerMetric("net.server.fetch_us", "us", "net.server",
                "HostedStream.fetch (daemon)", "read_us", _NET, listed=True),
    LayerMetric("net.server.blocks_pruned_frac", "ratio", "net.server",
                "daemon /metrics plugin.blocks_skipped / blocks published",
                "read_us, e2e_latency_us", "particles-lagged-net", listed=True),
    LayerMetric("redistribution.plan_get_us", "us", "core.redistribution",
                "PlanCache.get", "read_us", _INPROC),
    LayerMetric("redistribution.plan_cache_hit_ratio", "ratio",
                "core.redistribution",
                "dataplane.plan_cache.hits / (hits + misses)", "read_us",
                _INPROC, better="higher"),
    LayerMetric("redistribution.execute_us", "us", "core.redistribution",
                "CompiledPlan.execute, FusedPlan.execute, selection.assemble",
                "read_us", "all"),
    LayerMetric("redistribution.handshake_us", "us", "core.redistribution",
                "RedistributionEngine.handshake + compute_plan", "read_us",
                "field-lockstep-inproc"),
    LayerMetric("plugins.chain_us", "us", "core.plugins",
                "chain cursor apply_block + PluginManager.apply_side",
                "read_us", "both particles"),
    LayerMetric("plugins.rows_in_per_step", "count", "core.plugins",
                "rows entering the chain", "read_us", "both particles",
                listed=True),
    LayerMetric("plugins.rows_out_per_step", "count", "core.plugins",
                "rows leaving the chain", "read_us", "both particles",
                listed=True),
    LayerMetric("plugins.fused_read_ratio", "ratio", "core.plugins",
                "plugin.fused_reads / (fused + interpreted)", "read_us",
                "both particles", better="higher", listed=True),
    LayerMetric("obs.records_per_step", "count", "obs", "PerfMonitor.record calls",
                "write_us, read_us", "all", listed=True),
    LayerMetric("obs.record_us", "us", "obs", "PerfMonitor.record",
                "write_us, read_us", "all", listed=True),
    LayerMetric("obs.trace_len", "count", "obs",
                "len(PerfMonitor.trace) at end of run", "peak_rss_mib", _INPROC),
    # Counter deltas over the timed window, per step, from the program's
    # own registries (stream monitor, client monitor, daemon /metrics).
    LayerMetric("counters.plan_cache_hits_per_step", "count", "core.redistribution",
                "dataplane.plan_cache.hits", "read_us", _INPROC),
    LayerMetric("counters.plan_cache_misses_per_step", "count",
                "core.redistribution", "dataplane.plan_cache.misses", "read_us",
                _INPROC),
    LayerMetric("counters.fused_reads_per_step", "count", "core.plugins",
                "plugin.fused_reads", "read_us", "both particles"),
    LayerMetric("counters.interpreted_reads_per_step", "count", "core.plugins",
                "plugin.interpreted_reads", "read_us", "both particles"),
    LayerMetric("counters.blocks_skipped_per_step", "count", "core.plugins",
                "plugin.blocks_skipped (stream monitor + daemon)",
                "read_us, e2e_latency_us", "particles-lagged-net"),
    LayerMetric("counters.steps_fetched_per_step", "count", "net.server",
                "daemon net.steps_fetched", "read_us", _NET),
    LayerMetric("counters.bytes_fetched_per_step", "B", "net.server",
                "daemon net.bytes_fetched", "read_us", _NET, listed=True),
    LayerMetric("step.publish_us", "us", "core.stream | net.client",
                "inclusive StreamState.end_rank_step + NetWriteHandle.end_step",
                "write_us", "all", listed=True),
    LayerMetric("step.ready_wait_us", "us", "core.stream | net.client",
                "inclusive StreamState.get_step + NetReadHandle.begin_step",
                "read_us, e2e_latency_us", "all", listed=True),
    LayerMetric("read.assemble_us", "us", "core.redistribution | core.plugins",
                "redistribution.execute_us + plugins.chain_us", "read_us", "all",
                listed=True),
    LayerMetric("bench.traced_steps_per_s", "1/s", "bench",
                "steps_per_s of the traced run (tracing overhead vs --trace 0)",
                "steps_per_s", "all", better="higher", listed=True),
)


def benchmark_json() -> dict:
    """The content of the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS if w.listed
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER if m.listed
        ],
    }
