"""Adaptive in-situ run: real data, simulated time, runtime management.

Combines most of the stack in one run:

* four "simulation ranks" stream real particle data (DES processes that
  also pay simulated compute time);
* a sampling codelet starts reader-side; the placement controller
  watches its observed reduction ratio and migrates it into the writer —
  and because the simulated movement bill is charged from the *actual*
  conditioned byte counts, the migration visibly cuts data movement;
* the performance monitor's trace is dumped at the end, the way FlexIO
  feeds offline tuning.

Run:  python examples/adaptive_insitu.py
"""

import os
import tempfile

import numpy as np

from repro.adios import RankContext
from repro.core import PluginSide, stream_registry
from repro.core.adaptive import AdaptivePolicy, DCPlacementController
from repro.core.hints import CACHING_ALL, stream_params
from repro.core.plugins import sampling_plugin
from repro.coupled.insitu import InSituRun
from repro.machine import smoky
from repro.obs.names import M_DRAIN_BYTES_COMMITTED, M_DRAIN_STEPS_COMMITTED
from repro.util import fmt_bytes

CONFIG = """
<adios-config>
  <adios-group name="particles">
    <var name="zion" type="float64" dimensions="n,7"/>
  </adios-group>
  <method group="particles" method="FLEXPATH">{params}</method>
</adios-config>
""".format(params=stream_params(caching=CACHING_ALL))


def generator(rank, step):
    rng = np.random.default_rng(1000 * rank + step)
    return {"zion": rng.normal(size=(20_000, 7))}


def analytics(record, step):
    v = record["zion"]
    return {"step": step, "particles": len(v), "mean_vpar": float(v[:, 3].mean())}


def run_once(stream_name, with_controller):
    stream_registry.reset()
    run = InSituRun(
        machine=smoky(4),
        config_xml=CONFIG,
        group="particles",
        stream_name=stream_name,
        generator=generator,
        analytics=analytics,
        writer_cores=[0, 1, 2, 3],
        reader_cores=[4, 5],
        compute_time_per_step=6.0,
        analytics_time_per_byte=2e-9,
        num_steps=6,
    )
    # Pre-create the stream so the codelet exists before step 0.
    state = stream_registry.create(stream_name, RankContext(0, 4))
    sampler = state.plugins.deploy(sampling_plugin(4), PluginSide.READER)
    controller = DCPlacementController(state.plugins, AdaptivePolicy(hysteresis=2))

    if with_controller:
        # Hook controller observation into the generator path (once per
        # step, as the runtime monitoring gather would).
        inner = run.generator

        def observed(rank, step):
            if rank == 0 and step > 0:
                controller.observe_step(writer_busy_fraction=0.6, sim_step_time=6.0)
            return inner(rank, step)

        run.generator = observed

    result = run.run()
    return result, sampler, controller, state


def main() -> None:
    static, sampler_s, _, _ = run_once("static.stream", with_controller=False)
    adaptive, sampler_a, controller, state = run_once("adaptive.stream", with_controller=True)

    print("static run (codelet stays reader-side):")
    print(f"  simulated TET   {static.simulated_time:8.2f} s")
    print(f"  data moved      {fmt_bytes(static.intra_node_bytes + static.inter_node_bytes)}")
    print(f"  movement time   {static.movement_time:8.3f} s")
    print()
    print("adaptive run (controller migrates the sampler writer-side):")
    print(f"  simulated TET   {adaptive.simulated_time:8.2f} s")
    print(f"  data moved      {fmt_bytes(adaptive.intra_node_bytes + adaptive.inter_node_bytes)}")
    print(f"  movement time   {adaptive.movement_time:8.3f} s")
    for event in controller.events:
        print(f"  migration at step {event.step}: {event.plugin} "
              f"{event.from_side.value} -> {event.to_side.value} ({event.reason})")
    print(f"  sampler now on the {sampler_a.side.value} side "
          f"(reduction ratio {sampler_a.reduction_ratio:.2f})")

    moved_ratio = (adaptive.intra_node_bytes + adaptive.inter_node_bytes) / (
        static.intra_node_bytes + static.inter_node_bytes
    )
    print(f"\nadaptive run moved {moved_ratio:.0%} of the static run's bytes")

    # Offline-tuning path: dump the monitor's trace.
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "flexio_trace.jsonl")
        n = state.monitor.dump(trace)
        print(f"dumped {n} monitoring records for offline tuning "
              f"({os.path.getsize(trace)} bytes)")
    metrics = state.monitor.metrics
    for name in (M_DRAIN_STEPS_COMMITTED, M_DRAIN_BYTES_COMMITTED):
        print(f"  {name:34s} {int(metrics.counter(name).value)}")
    dc = state.monitor.summary().get("dc_plugin")
    if dc is not None:
        print(f"  dc_plugin count={dc['count']:4d} bytes={fmt_bytes(dc['total_bytes'])}")


if __name__ == "__main__":
    main()
