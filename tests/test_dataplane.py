"""Tests for the cached, pipelined data plane and the step-oriented API.

Covers the plan cache (compile-once, replay slice assignments), the
async publication drainer with back-pressure, the begin_step/end_step +
StepStatus surface on both stream and file methods, Selection-object
reads, the unified VariableNotFound error, and the counter-backed
handshake accounting.
"""

import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adios import (
    Adios,
    AdiosError,
    BoundingBox,
    BoxSelection,
    EndOfStream,
    FullSelection,
    RankContext,
    StepStatus,
    VariableNotFound,
    block_decompose,
)
from repro.adios.selection import assemble, resolve_selection
from repro.core import StepState, StreamStalled, stream_registry
from repro.core.redistribution import (
    CachingOption,
    CompiledPlan,
    PlanCache,
    RedistributionEngine,
    compute_plan,
    global_plan_cache,
)
from repro.obs.events import EV_HANDSHAKE

STREAM_CONFIG = """
<adios-config>
  <adios-group name="fields">
    <var name="temp" type="float64" dimensions="16,16"/>
    <var name="rho" type="float64" dimensions="16,16"/>
  </adios-group>
  <method group="fields" method="FLEXPATH">{params}</method>
</adios-config>
"""

SHAPE = (16, 16)


@pytest.fixture(autouse=True)
def fresh_state():
    stream_registry.reset()
    global_plan_cache.clear()
    yield
    stream_registry.reset()
    global_plan_cache.clear()


def make_adios(params=""):
    return Adios.from_xml(STREAM_CONFIG.format(params=params))


def write_steps(adios, name, num_steps, num_writers=4, vars_=("temp",), scale=1.0):
    boxes = block_decompose(SHAPE, (2, 2))
    handles = [
        adios.open_write("fields", name, RankContext(r, num_writers))
        for r in range(num_writers)
    ]
    for step in range(num_steps):
        for r, h in enumerate(handles):
            for i, v in enumerate(vars_):
                data = (
                    np.arange(boxes[r].size, dtype=np.float64).reshape(boxes[r].count)
                    * scale
                    + step * 100
                    + r * 10
                    + i
                )
                h.write(v, data, box=boxes[r], global_shape=SHAPE)
        for h in handles:
            h.end_step()
    for h in handles:
        h.close()
    return boxes


# ---------------------------------------------------------------------------
# CompiledPlan / PlanCache
# ---------------------------------------------------------------------------

def test_compiled_plan_matches_assemble():
    gshape = (12, 10)
    wboxes = block_decompose(gshape, (3, 2))
    rboxes = block_decompose(gshape, (2, 1))
    blocks = [
        np.random.default_rng(i).normal(size=b.count) for i, b in enumerate(wboxes)
    ]
    cp = CompiledPlan(compute_plan(wboxes, rboxes))
    got = cp.execute(blocks)
    for rbox, out in zip(rboxes, got):
        ref = assemble(rbox, zip(wboxes, blocks), dtype=blocks[0].dtype)
        assert out.tobytes() == ref.tobytes()
    # Full decompositions cover every reader box.
    assert all(cp.covered)


def test_compiled_plan_uncovered_uses_fill():
    wboxes = [BoundingBox((0, 0), (4, 4))]
    rboxes = [BoundingBox((2, 2), (4, 4))]  # half sticks out of coverage
    cp = CompiledPlan(compute_plan(wboxes, rboxes))
    assert cp.covered == [False]
    blocks = [np.ones((4, 4))]
    out = cp.execute(blocks, fill=-5.0)[0]
    ref = assemble(rboxes[0], zip(wboxes, blocks), dtype=np.float64, fill=-5.0)
    assert out.tobytes() == ref.tobytes()
    assert out[-1, -1] == -5.0


def test_compiled_plan_validates_blocks():
    wboxes = block_decompose((8, 8), (2, 1))
    cp = CompiledPlan(compute_plan(wboxes, [BoundingBox((0, 0), (8, 8))]))
    with pytest.raises(ValueError, match="expected 2 writer blocks"):
        cp.execute([np.zeros((4, 8))])
    with pytest.raises(ValueError, match="shape"):
        cp.execute([np.zeros((4, 8)), np.zeros((3, 8))])


def test_plan_cache_hit_miss_and_eviction():
    cache = PlanCache(maxsize=2)
    gshape = (8, 8)
    w1 = block_decompose(gshape, (2, 1))
    w2 = block_decompose(gshape, (1, 2))
    w3 = block_decompose(gshape, (2, 2))
    r = [BoundingBox((0, 0), gshape)]
    _, hit = cache.get(w1, r, gshape)
    assert not hit
    _, hit = cache.get(w1, r, gshape)
    assert hit
    cache.get(w2, r, gshape)
    cache.get(w3, r, gshape)  # evicts w1 (LRU)
    assert len(cache) == 2
    _, hit = cache.get(w1, r, gshape)
    assert not hit
    assert cache.stats.hits == 1
    assert cache.stats.misses == 4
    assert cache.stats.evictions >= 1


def test_plan_cache_invalidate():
    cache = PlanCache()
    w = block_decompose((8, 8), (2, 1))
    r = [BoundingBox((0, 0), (8, 8))]
    cache.get(w, r)
    assert cache.invalidate(w, r)
    assert not cache.invalidate(w, r)  # already gone
    _, hit = cache.get(w, r)
    assert not hit


def test_engine_with_plan_cache_recompiles_on_update():
    gshape = (8, 8)
    cache = PlanCache()
    w1 = block_decompose(gshape, (2, 1))
    w2 = block_decompose(gshape, (1, 2))
    rbox = [BoundingBox((0, 0), gshape)]
    eng = RedistributionEngine(w1, rbox, plan_cache=cache)
    blocks1 = [np.full(b.count, i, dtype=np.float64) for i, b in enumerate(w1)]
    out1 = eng.move(blocks1)[0]
    eng.update_writer_boxes(w2)
    blocks2 = [np.full(b.count, i + 7, dtype=np.float64) for i, b in enumerate(w2)]
    out2 = eng.move(blocks2)[0]
    ref1 = assemble(rbox[0], zip(w1, blocks1), dtype=np.float64)
    ref2 = assemble(rbox[0], zip(w2, blocks2), dtype=np.float64)
    assert out1.tobytes() == ref1.tobytes()
    assert out2.tobytes() == ref2.tobytes()


# ---------------------------------------------------------------------------
# Property test: cached execute() == seed assemble(), all caching options,
# including a mid-stream distribution change.
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    dims=st.tuples(st.integers(4, 20), st.integers(4, 20)),
    grid1=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    grid2=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    sel_frac=st.tuples(
        st.floats(0.0, 0.6), st.floats(0.0, 0.6),
        st.floats(0.2, 1.0), st.floats(0.2, 1.0),
    ),
    caching=st.sampled_from(list(CachingOption)),
    seed=st.integers(0, 10_000),
)
def test_property_cached_execute_matches_assemble(
    dims, grid1, grid2, sel_frac, caching, seed
):
    gshape = dims
    rng = np.random.default_rng(seed)
    # Random read selection inside the global array.
    start = (int(sel_frac[0] * gshape[0]), int(sel_frac[1] * gshape[1]))
    count = (
        max(1, int(sel_frac[2] * (gshape[0] - start[0]))),
        max(1, int(sel_frac[3] * (gshape[1] - start[1]))),
    )
    target = BoundingBox(start, count)

    cache = {
        CachingOption.NO_CACHING: None,
        CachingOption.CACHING_LOCAL: PlanCache(maxsize=16),
        CachingOption.CACHING_ALL: global_plan_cache,
    }[caching]

    for grid in (grid1, grid2):  # second grid = mid-stream redistribution
        wboxes = block_decompose(gshape, grid)
        for _ in range(2):  # second pass exercises the cache-hit replay
            blocks = [rng.normal(size=b.count) for b in wboxes]
            ref = assemble(
                target,
                ((b, d) for b, d in zip(wboxes, blocks)),
                dtype=np.float64,
            )
            if cache is None:
                cp = CompiledPlan(compute_plan(wboxes, [target]))
            else:
                cp, _ = cache.get(wboxes, [target], gshape)
            got = cp.execute(blocks, dtype=np.float64)[0]
            assert got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# Stream reads through the plan cache
# ---------------------------------------------------------------------------

def read_all_steps(adios, name, selection=None):
    reader = adios.open_read("fields", name, RankContext(0, 1))
    outs = []
    while reader.begin_step() is StepStatus.OK:
        outs.append(reader.read("temp", selection=selection))
        reader.end_step()
    return outs


@pytest.mark.parametrize("params", ["", "caching=LOCAL", "caching=ALL"])
def test_stream_read_identical_across_caching_options(params):
    adios = make_adios(params)
    name = f"dp.caching.{params or 'none'}"
    write_steps(adios, name, num_steps=3)
    outs = read_all_steps(adios, name, BoxSelection((3, 2), (9, 11)))
    ref_adios = make_adios("")
    ref_name = name + ".ref"
    write_steps(ref_adios, ref_name, num_steps=3)
    refs = read_all_steps(ref_adios, ref_name, BoxSelection((3, 2), (9, 11)))
    assert len(outs) == 3
    for got, ref in zip(outs, refs):
        assert got.tobytes() == ref.tobytes()


def test_caching_all_uses_global_plan_cache():
    adios = make_adios("caching=ALL")
    write_steps(adios, "dp.global", num_steps=3)
    assert len(global_plan_cache) == 0
    outs = read_all_steps(adios, "dp.global")
    assert len(outs) == 3
    state = stream_registry._states["dp.global"]
    hits = state.monitor.metrics.counter("dataplane.plan_cache.hits").value
    misses = state.monitor.metrics.counter("dataplane.plan_cache.misses").value
    # First read compiles (miss), the steady-state steps replay (hits).
    assert misses >= 1
    assert hits >= 2
    assert len(global_plan_cache) >= 1


def test_no_caching_never_touches_plan_cache():
    adios = make_adios("")
    write_steps(adios, "dp.none", num_steps=2)
    read_all_steps(adios, "dp.none")
    state = stream_registry._states["dp.none"]
    assert state.monitor.metrics.counter("dataplane.plan_cache.hits").value == 0
    assert state.monitor.metrics.counter("dataplane.plan_cache.misses").value == 0
    assert len(global_plan_cache) == 0


def test_distribution_change_mid_stream_stays_correct():
    adios = make_adios("caching=ALL")
    name = "dp.redist"
    num_writers = 4
    handles = [
        adios.open_write("fields", name, RankContext(r, num_writers))
        for r in range(num_writers)
    ]
    grids = [(2, 2), (2, 2), (4, 1), (4, 1)]  # change at step 2
    per_step = []
    for step, grid in enumerate(grids):
        boxes = block_decompose(SHAPE, grid)
        blocks = []
        for r, h in enumerate(handles):
            data = np.random.default_rng(step * 10 + r).normal(size=boxes[r].count)
            blocks.append((boxes[r], data))
            h.write("temp", data, box=boxes[r], global_shape=SHAPE)
        per_step.append(blocks)
        for h in handles:
            h.end_step()
    for h in handles:
        h.close()
    reader = adios.open_read("fields", name, RankContext(0, 1))
    target = BoundingBox((0, 0), SHAPE)
    step = 0
    while reader.begin_step() is StepStatus.OK:
        got = reader.read("temp")
        ref = assemble(target, iter(per_step[step]), dtype=np.float64)
        assert got.tobytes() == ref.tobytes()
        reader.end_step()
        step += 1
    assert step == 4


# ---------------------------------------------------------------------------
# begin_step / end_step / StepStatus
# ---------------------------------------------------------------------------

def test_begin_step_not_ready_then_ok():
    adios = make_adios()
    name = "dp.steps"
    writer = adios.open_write("fields", name, RankContext(0, 1))
    reader = adios.open_read("fields", name, RankContext(0, 1))
    # Nothing published yet: non-blocking NotReady, no exception.
    assert reader.begin_step() is StepStatus.NotReady
    writer.begin_step()
    writer.write("temp", np.ones(SHAPE), box=BoundingBox((0, 0), SHAPE),
                 global_shape=SHAPE)
    writer.end_step()
    assert reader.begin_step() is StepStatus.OK
    assert reader.read("temp").shape == SHAPE
    reader.end_step()
    # Writer behind again.
    assert reader.begin_step() is StepStatus.NotReady
    writer.close()
    assert reader.begin_step() is StepStatus.EndOfStream


def test_begin_step_timeout_polls_until_ready():
    adios = make_adios()
    name = "dp.timeout"
    writer = adios.open_write("fields", name, RankContext(0, 1))
    reader = adios.open_read("fields", name, RankContext(0, 1))

    def delayed_write():
        time.sleep(0.05)
        writer.write("temp", np.ones(SHAPE), box=BoundingBox((0, 0), SHAPE),
                     global_shape=SHAPE)
        writer.end_step()

    t = threading.Thread(target=delayed_write)
    t.start()
    try:
        assert reader.begin_step(timeout=5.0) is StepStatus.OK
    finally:
        t.join()
    writer.close()


def test_begin_step_misuse_raises():
    adios = make_adios()
    name = "dp.misuse"
    writer = adios.open_write("fields", name, RankContext(0, 1))
    reader = adios.open_read("fields", name, RankContext(0, 1))
    writer.begin_step()
    with pytest.raises(AdiosError, match="begin_step"):
        writer.begin_step()
    writer.write("temp", np.ones(SHAPE), box=BoundingBox((0, 0), SHAPE),
                 global_shape=SHAPE)
    writer.end_step()
    with pytest.raises(AdiosError, match="end_step"):
        reader.end_step()
    assert reader.begin_step() is StepStatus.OK
    with pytest.raises(AdiosError, match="begin_step"):
        reader.begin_step()
    reader.end_step()
    writer.close()


def test_advance_alias_is_gone():
    # The pre-redesign public alias was removed: end_step() is the only
    # step seal, and the positional selection spelling is rejected.
    adios = make_adios()
    name = "dp.alias"
    writer = adios.open_write("fields", name, RankContext(0, 1))
    reader = adios.open_read("fields", name, RankContext(0, 1))
    writer.write("temp", np.ones(SHAPE), box=BoundingBox((0, 0), SHAPE),
                 global_shape=SHAPE)
    assert not hasattr(writer, "advance")
    assert not hasattr(reader, "advance")
    writer.end_step()
    assert reader.read("temp").shape == SHAPE
    with pytest.raises(TypeError):
        reader.read("temp", BoxSelection((0, 0), (4, 4)))  # positional: rejected
    with pytest.raises(AdiosError, match="selection= keyword"):
        reader.read("temp", start=BoxSelection((0, 0), (4, 4)))
    with pytest.raises(AdiosError, match="not both"):
        reader.read("temp", start=(0, 0), count=(4, 4),
                    selection=BoxSelection((0, 0), (4, 4)))
    writer.close()


def test_bp_handles_support_step_api(tmp_path):
    path = str(tmp_path / "steps.bp")
    config = STREAM_CONFIG.format(params="").replace("FLEXPATH", "BP")
    adios = Adios.from_xml(config)
    writer = adios.open_write("fields", path, RankContext(0, 1))
    for step in range(3):
        writer.begin_step()
        writer.write("temp", np.full(SHAPE, step), box=BoundingBox((0, 0), SHAPE),
                     global_shape=SHAPE)
        writer.end_step()
    writer.close()
    reader = adios.open_read("fields", path, RankContext(0, 1))
    seen = []
    while reader.begin_step() is StepStatus.OK:
        seen.append(float(reader.read("temp")[0, 0]))
        reader.end_step()
    assert seen == [0.0, 1.0, 2.0]
    reader.close()


# ---------------------------------------------------------------------------
# Selection objects + unified errors
# ---------------------------------------------------------------------------

def test_selection_objects_on_stream_reads():
    adios = make_adios()
    write_steps(adios, "dp.sel", num_steps=1)
    reader = adios.open_read("fields", "dp.sel", RankContext(0, 1))
    by_tuple = reader.read("temp", start=(4, 4), count=(8, 8))
    by_box = reader.read("temp", selection=BoxSelection((4, 4), (8, 8)))
    by_bbox = reader.read("temp", selection=BoundingBox((4, 4), (8, 8)))
    assert by_tuple.tobytes() == by_box.tobytes() == by_bbox.tobytes()
    full = reader.read("temp", selection=FullSelection())
    assert full.shape == SHAPE
    assert full.tobytes() == reader.read("temp").tobytes()


def test_selection_objects_on_bp_reads(tmp_path):
    path = str(tmp_path / "sel.bp")
    config = STREAM_CONFIG.format(params="").replace("FLEXPATH", "BP")
    adios = Adios.from_xml(config)
    writer = adios.open_write("fields", path, RankContext(0, 1))
    writer.write("temp", np.arange(256, dtype=np.float64).reshape(SHAPE),
                 box=BoundingBox((0, 0), SHAPE), global_shape=SHAPE)
    writer.end_step()
    writer.close()
    reader = adios.open_read("fields", path, RankContext(0, 1))
    by_tuple = reader.read("temp", start=(2, 3), count=(5, 6))
    by_box = reader.read("temp", selection=BoxSelection((2, 3), (5, 6)))
    assert by_tuple.tobytes() == by_box.tobytes()
    assert reader.read("temp", selection=FullSelection()).shape == SHAPE
    reader.close()


def test_selection_with_count_rejected():
    with pytest.raises(ValueError, match="count must be None"):
        resolve_selection(BoxSelection((0, 0), (2, 2)), (1, 1), (8, 8))


def test_variable_not_found_unified():
    adios = make_adios()
    write_steps(adios, "dp.missing", num_steps=1)
    reader = adios.open_read("fields", "dp.missing", RankContext(0, 1))
    with pytest.raises(VariableNotFound):
        reader.read("nope")
    with pytest.raises(VariableNotFound):
        reader.read_block("nope", 0)
    # Back-compat: VariableNotFound is both AdiosError and KeyError.
    with pytest.raises(KeyError):
        reader.read("nope")
    with pytest.raises(AdiosError):
        reader.read("nope")


def test_variable_not_found_on_bp(tmp_path):
    path = str(tmp_path / "missing.bp")
    config = STREAM_CONFIG.format(params="").replace("FLEXPATH", "BP")
    adios = Adios.from_xml(config)
    writer = adios.open_write("fields", path, RankContext(0, 1))
    writer.write("temp", np.ones(SHAPE), box=BoundingBox((0, 0), SHAPE),
                 global_shape=SHAPE)
    writer.end_step()
    writer.close()
    reader = adios.open_read("fields", path, RankContext(0, 1))
    with pytest.raises(VariableNotFound):
        reader.read("nope")
    with pytest.raises(VariableNotFound):
        reader.read_block("nope", 0)
    with pytest.raises(KeyError):
        reader.read("nope")
    reader.close()


def test_variable_not_found_str_is_clean():
    err = VariableNotFound("no variable 'x' at step 0")
    assert str(err) == "no variable 'x' at step 0"


# ---------------------------------------------------------------------------
# handshake_messages: counter-backed, no trace scan
# ---------------------------------------------------------------------------

def test_handshake_messages_counter_matches_trace():
    adios = make_adios("caching=ALL")
    write_steps(adios, "dp.hs", num_steps=3)
    reader = adios.open_read("fields", "dp.hs", RankContext(0, 1))
    while reader.begin_step() is StepStatus.OK:
        reader.read("temp")
        reader.end_step()
    mon = stream_registry._states["dp.hs"].monitor
    from_trace = sum(
        dict(rec.extra).get("messages", 0)
        for rec in mon.trace
        if rec.category == EV_HANDSHAKE
    )
    assert reader.handshake_messages() == from_trace
    assert reader.handshake_messages() > 0


def test_handshake_messages_zero_before_reads():
    adios = make_adios()
    write_steps(adios, "dp.hs0", num_steps=1)
    reader = adios.open_read("fields", "dp.hs0", RankContext(0, 1))
    assert reader.handshake_messages() == 0


# ---------------------------------------------------------------------------
# read_all: batched multi-variable moves
# ---------------------------------------------------------------------------

def test_read_all_batching_single_round_per_step():
    adios = make_adios("batching=true")
    write_steps(adios, "dp.batch", num_steps=2, vars_=("temp", "rho"))
    reader = adios.open_read("fields", "dp.batch", RankContext(0, 1))
    steps = 0
    while reader.begin_step() is StepStatus.OK:
        out = reader.read_all()
        assert set(out) == {"temp", "rho"}
        reader.end_step()
        steps += 1
    assert steps == 2
    mon = stream_registry._states["dp.batch"].monitor
    rounds = [r for r in mon.trace if r.category == EV_HANDSHAKE]
    # One aggregated handshake round per step despite two variables.
    assert len(rounds) == 2


def test_read_all_matches_individual_reads():
    adios = make_adios()
    write_steps(adios, "dp.all", num_steps=1, vars_=("temp", "rho"))
    reader = adios.open_read("fields", "dp.all", RankContext(0, 1))
    batched = reader.read_all(["temp", "rho"])
    assert batched["temp"].tobytes() == reader.read("temp").tobytes()
    assert batched["rho"].tobytes() == reader.read("rho").tobytes()


# ---------------------------------------------------------------------------
# Async publication pipeline
# ---------------------------------------------------------------------------

def test_writer_visible_span_is_measured():
    adios = make_adios()
    write_steps(adios, "dp.vis", num_steps=3)
    mon = stream_registry._states["dp.vis"].monitor
    agg = mon.aggregate("writer_visible")
    assert agg.count == 3
    assert agg.total_time >= 0.0
    drains = mon.aggregate("drain")
    assert drains.count == 3


def test_sync_advance_commits_before_returning():
    adios = make_adios("sync=true")
    name = "dp.sync"
    writer = adios.open_write("fields", name, RankContext(0, 1))
    state = stream_registry._states[name]
    for step in range(2):
        writer.begin_step()
        writer.write("temp", np.ones(SHAPE), box=BoundingBox((0, 0), SHAPE),
                     global_shape=SHAPE)
        writer.end_step()
        # No quiesce needed: sync publish drained before returning.
        assert len(state._published) == step + 1
    writer.close()


def test_end_step_sync_override():
    adios = make_adios()  # async by default
    name = "dp.sync-override"
    writer = adios.open_write("fields", name, RankContext(0, 1))
    state = stream_registry._states[name]
    writer.begin_step()
    writer.write("temp", np.ones(SHAPE), box=BoundingBox((0, 0), SHAPE),
                 global_shape=SHAPE)
    writer.end_step(sync=True)
    assert len(state._published) == 1
    writer.close()


def test_async_backpressure_on_slow_channel():
    adios = make_adios("queue_depth=1")
    name = "dp.bp"
    writer = adios.open_write("fields", name, RankContext(0, 1))
    state = stream_registry._states[name]

    class SlowChannel:
        def sendv(self, parts, timeout=None):
            time.sleep(0.02)

        def recv(self, timeout=None):
            return b""

    state._ensure_pipeline()
    state._channel = SlowChannel()
    for _ in range(4):
        writer.write("temp", np.ones(SHAPE), box=BoundingBox((0, 0), SHAPE),
                     global_shape=SHAPE)
        writer.end_step()
    writer.close()
    assert state.backpressure_waits > 0
    assert (
        state.monitor.metrics.counter("dataplane.backpressure_waits").value
        == state.backpressure_waits
    )
    # Every step still committed, in order.
    assert [s.step for s in state.published] == [0, 1, 2, 3]
    assert all(s.status is StepState.COMMITTED for s in state.published)


def test_drain_error_marks_step_lost_not_committed():
    """Regression: a faulted drain must NOT commit the step as readable.

    The old pipeline committed every step in a ``finally`` even when the
    transport push failed — readers got a step whose payload never moved.
    Now the step is published as a typed LOST gap instead.
    """
    adios = make_adios()
    name = "dp.fault"
    writer = adios.open_write("fields", name, RankContext(0, 1))
    state = stream_registry._states[name]

    class BrokenChannel:
        def sendv(self, parts, timeout=None):
            raise IOError("wire fell out")

        def recv(self, timeout=None):
            return b""

    state._ensure_pipeline()
    state._channel = BrokenChannel()
    writer.write("temp", np.ones(SHAPE), box=BoundingBox((0, 0), SHAPE),
                 global_shape=SHAPE)
    writer.end_step()
    writer.close()
    reader = adios.open_read("fields", name, RankContext(0, 1))
    # The reader sees a typed gap (OtherError), never the undelivered data.
    assert reader.begin_step() is StepStatus.OtherError
    assert reader.begin_step() is StepStatus.EndOfStream
    assert state._published[0].status is StepState.LOST
    assert state._published[0].groups == {}  # payload discarded, not torn
    assert state.monitor.metrics.counter("dataplane.drain.errors").value == 1
    assert state.monitor.metrics.counter("dataplane.drain.steps_lost").value == 1


def test_rdma_transport_hint_smoke():
    adios = make_adios("transport=rdma")
    write_steps(adios, "dp.rdma", num_steps=2)
    reader = adios.open_read("fields", "dp.rdma", RankContext(0, 1))
    steps = 0
    while reader.begin_step() is StepStatus.OK:
        assert reader.read("temp").shape == SHAPE
        reader.end_step()
        steps += 1
    assert steps == 2
    mon = stream_registry._states["dp.rdma"].monitor
    assert mon.metrics.counter("rdma.bytes_sent").value > 0


def test_shm_channel_carries_step_payload():
    adios = make_adios()
    write_steps(adios, "dp.shm", num_steps=2)
    mon = stream_registry._states["dp.shm"].monitor
    # 4 writers x 8x8 float64 blocks x 2 steps through the drain channel.
    assert mon.metrics.counter("shm.bytes_sent").value == 2 * 16 * 16 * 8


def test_bad_hints_rejected():
    from repro.core.stream import StreamError

    with pytest.raises(StreamError, match="transport"):
        make_adios("transport=carrier-pigeon").open_write(
            "fields", "dp.bad", RankContext(0, 1)
        )


def test_gauge_inc_dec():
    from repro.obs.metrics import Gauge

    g = Gauge("g")
    g.inc()
    g.inc(2)
    assert g.value == 3
    g.dec()
    assert g.value == 2
    assert g.max_value == 3
