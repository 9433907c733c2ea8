"""One read engine for both stream planes.

Every global-array read — in-process (``local://``) or over the network
(``flexio://``), ``read`` or ``read_into``, with no chain, a
transform-only chain or a filtering chain — runs through
:func:`repro.core.redistribution.execute_read` and must be byte-equal to
the assemble-then-interpret oracle.  Plus the pushdown rules: the
soundness guard is typed, and gap tolerance is decided per variable.
"""

import contextlib
import itertools

import numpy as np
import pytest

from repro.adios import AdiosError, BoundingBox, StepStatus
from repro.adios.selection import assemble
from repro.core import DCPlugin, PluginManager, PluginSide
from repro.core.directory import TenantSpec
from repro.core.plugins import (
    Capability,
    PluginKernel,
    range_select_plugin,
    sampling_plugin,
    unit_conversion_plugin,
)
from repro.core.redistribution import CompiledPlan, FusedPlan, compute_plan
from repro.core.stream import stream_registry
from repro.net.client import connect
from repro.net.server import DirectoryDaemon
from repro.obs.names import M_PLUGIN_FUSED_READS

GSHAPE = (32, 7)
#: Four writer blocks of 8 rows; block r's column 0 lies in [r/4, (r+1)/4).
BOXES = [BoundingBox((8 * r, 0), (8, 7)) for r in range(4)]
#: A row band cutting the first and last block: still a row tiling.
BAND = ((4, 0), (24, 7))

CHAINS = {
    "none": lambda: [],
    "transform": lambda: [unit_conversion_plugin("zion", 2.5)],
    "filter": lambda: [range_select_plugin("zion", 0, 0.3, 0.7), sampling_plugin(3)],
}

_names = itertools.count()


def _step_blocks(step):
    rng = np.random.default_rng(100 + step)
    blocks = []
    for r, box in enumerate(BOXES):
        arr = rng.uniform(0.0, 1.0, size=box.count)
        arr[:, 0] = rng.uniform(r / 4, (r + 1) / 4, size=box.count[0])
        blocks.append((box, arr))
    return blocks


def _oracle(blocks, plugins, start, count, var="zion"):
    """Scatter into the selection, then run ``plugins`` interpreted."""
    out = assemble(BoundingBox(start, count), iter(blocks), dtype=np.float64)
    mgr = PluginManager()
    for p in plugins:
        mgr.deploy(p, PluginSide.READER)
    return np.asarray(mgr.apply_side(PluginSide.READER, {var: out})[var])


@pytest.fixture()
def daemon():
    d = DirectoryDaemon(
        tenants=[TenantSpec("public")], telemetry=False, lease_interval=0.05
    )
    d.start()
    yield d
    d.stop()


@contextlib.contextmanager
def _plane(request, plane, pushdown=False):
    """Yield ``(publish, reader, metrics)`` for one fresh stream."""
    name = f"engine.{plane}.{next(_names)}"
    if plane == "local":
        client = connect("local://", params="caching=local")
        writers = [client.open(name, "w", rank=r, num_ranks=len(BOXES))
                   for r in range(len(BOXES))]
        reader = client.open(name, "r")

        def publish(blocks):
            for w, (box, data) in zip(writers, blocks):
                w.begin_step()
                w.write("zion", data, box=box, global_shape=GSHAPE)
                w.end_step()

        try:
            yield publish, reader, reader.monitor.metrics
        finally:
            for h in writers + [reader]:
                h.close()
            stream_registry.close_stream(name)
        return
    daemon = request.getfixturevalue("daemon")
    uri = f"flexio://{daemon.host}:{daemon.control_port}/public"
    with connect(uri) as client:
        writer = client.open(name, "w")
        reader = client.open(name, "r", timeout=2.0, pushdown=pushdown)

        def publish(blocks, var="zion", gshape=GSHAPE):
            writer.begin_step()
            for box, data in blocks:
                writer.write(var, data, box=box, global_shape=gshape)
            writer.end_step()

        try:
            yield publish, reader, client.monitor.metrics
        finally:
            writer.close()
            reader.close()


@pytest.mark.parametrize("call", ["read", "read_into"])
@pytest.mark.parametrize("chain", sorted(CHAINS))
@pytest.mark.parametrize("plane", ["local", "flexio"])
def test_reads_match_the_interpreted_oracle_on_both_planes(request, plane, chain, call):
    start, count = BAND
    with _plane(request, plane) as (publish, reader, metrics):
        for p in CHAINS[chain]():
            reader.plugins.deploy(p, PluginSide.READER)
        for step in range(3):
            blocks = _step_blocks(step)
            publish(blocks)
            assert reader.begin_step(timeout=5.0) is StepStatus.OK
            want = _oracle(blocks, CHAINS[chain](), start, count)
            if call == "read":
                got = reader.read("zion", start=start, count=count)
            else:
                out = np.empty(want.shape, dtype=np.float64)
                got = reader.read_into("zion", out, start=start, count=count)
                assert got is out
            reader.end_step()
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        # Repeat reads of one geometry replay the cached plan, and every
        # compilable chain ran fused.
        assert metrics.counter("dataplane.plan_cache.hits").value > 0
        fused = metrics.counter(M_PLUGIN_FUSED_READS).value
        assert fused == (0 if chain == "none" else 3)


@pytest.mark.parametrize("plane", ["local", "flexio"])
def test_read_into_rejects_a_mismatched_out(request, plane):
    start, count = BAND
    with _plane(request, plane) as (publish, reader, _):
        publish(_step_blocks(0))
        assert reader.begin_step(timeout=5.0) is StepStatus.OK
        with pytest.raises(AdiosError, match="shape"):
            reader.read_into("zion", np.empty((3, 7)), start=start, count=count)
        with pytest.raises(AdiosError, match="dtype"):
            reader.read_into("zion", np.empty(count, dtype=np.float32),
                             start=start, count=count)
        reader.end_step()


def test_pushdown_reader_that_cannot_row_tile_gets_a_typed_error(request):
    # Writer blocks split the columns too (2x2): a selection spanning
    # both column halves cannot row-tile, and the broker may have pruned
    # rows the interpreted chain would see as fill — so it is refused.
    rng = np.random.default_rng(3)
    blocks = [
        (BoundingBox((r, c), (16, n)), rng.uniform(size=(16, n)))
        for r in (0, 16) for c, n in ((0, 4), (4, 3))
    ]
    rng_plugin = lambda: range_select_plugin("zion", 0, 0.3, 0.7)  # noqa: E731
    with _plane(request, "flexio", pushdown=True) as (publish, reader, _):
        reader.plugins.deploy(rng_plugin())
        publish(blocks)
        assert reader.begin_step(timeout=5.0) is StepStatus.OK
        with pytest.raises(AdiosError, match="row-tile"):
            reader.read("zion", start=(0, 0), count=GSHAPE)
        # Within one column half the blocks row-tile: read through.
        got = reader.read("zion", start=(0, 0), count=(32, 4))
        reader.end_step()
    want = _oracle(blocks, [rng_plugin()], (0, 0), (32, 4))
    assert got.tobytes() == want.tobytes()


def _lenient_range_plugin(var, column, lo, hi):
    """A range select that passes other variables through: unlike
    :func:`range_select_plugin` it does not require its target, so the
    chain stays fusable for reads of every variable."""
    kernel = PluginKernel(
        Capability.FILTER,
        fingerprint=f"lenient-range:{var}:{column}:{lo!r}:{hi!r}",
        targets=(var,),
        mask_fn=lambda arr: (arr[:, column] >= lo) & (arr[:, column] <= hi),
        pushdown_term={"kind": "range", "var": var, "lo": lo, "hi": hi},
    )
    src = (
        "def condition(vars):\n"
        "    out = dict(vars)\n"
        f"    if '{var}' in out:\n"
        f"        v = out['{var}']\n"
        f"        out['{var}'] = v[(v[:, {column}] >= {lo}) & (v[:, {column}] <= {hi})]\n"
        "    return out\n"
    )
    return DCPlugin(f"lenient-range/{var}", src, kernel=kernel)


def test_gap_tolerance_is_per_variable_not_per_reader(request):
    """The pushdown predicate has a term for ``zion`` only, so the broker
    never prunes ``v``: a real writer gap in ``v`` must read as fill,
    exactly as the interpreted chain sees it."""
    gshape = (16, 4)
    rng = np.random.default_rng(11)
    v_blocks = [
        (BoundingBox((0, 0), (8, 4)), rng.uniform(size=(8, 4))),
        (BoundingBox((12, 0), (4, 4)), rng.uniform(size=(4, 4))),
    ]
    with _plane(request, "flexio", pushdown=True) as (publish, reader, _):
        reader.plugins.deploy(_lenient_range_plugin("zion", 0, 0.3, 0.7))
        reader.plugins.deploy(sampling_plugin(2))
        publish(v_blocks, var="v", gshape=gshape)
        assert reader.begin_step(timeout=5.0) is StepStatus.OK
        got = reader.read("v", start=(0, 0), count=gshape)
        reader.end_step()
    want = _oracle(
        v_blocks, [_lenient_range_plugin("zion", 0, 0.3, 0.7), sampling_plugin(2)],
        (0, 0), gshape, var="v",
    )
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _fused(writer_boxes, target):
    mgr = PluginManager()
    mgr.deploy(sampling_plugin(2), PluginSide.READER)
    plan = CompiledPlan(compute_plan(writer_boxes, [target]))
    return FusedPlan(plan, mgr.compiled_chain(PluginSide.READER))


def test_fused_plan_classifies_tiled_gapped_and_unfusable_geometry():
    target = BoundingBox((0, 0), (16, 4))
    tiled = _fused([BoundingBox((0, 0), (8, 4)), BoundingBox((8, 0), (8, 4))], target)
    assert tiled.fusable and not tiled.gapped
    gapped = _fused([BoundingBox((0, 0), (6, 4)), BoundingBox((8, 0), (8, 4))], target)
    assert gapped.gapped and not gapped.fusable
    # Partial trailing dims and overlapping rows are neither.
    cols = _fused([BoundingBox((0, 0), (16, 2)), BoundingBox((0, 2), (16, 2))], target)
    overlap = _fused([BoundingBox((0, 0), (10, 4)), BoundingBox((8, 0), (8, 4))], target)
    for plan in (cols, overlap):
        assert not plan.fusable and not plan.gapped
