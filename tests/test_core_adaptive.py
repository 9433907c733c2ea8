"""Tests for runtime management: DC placement control + adaptive Gets."""

import numpy as np
import pytest

from repro.core import PerfMonitor, PluginManager, PluginSide
from repro.core.adaptive import (
    AdaptiveGetScheduler,
    AdaptivePolicy,
    DCPlacementController,
)
from repro.core.plugins import annotation_plugin, sampling_plugin
from repro.obs.events import EV_DC_MIGRATION


def run_plugin(plugin, nbytes_shape=(1000, 7), times=1):
    data = {"zion": np.zeros(nbytes_shape)}
    for _ in range(times):
        plugin.apply(data)


# ---------------------------------------------------------------------------
# Policy validation
# ---------------------------------------------------------------------------

def test_policy_validation():
    with pytest.raises(ValueError):
        AdaptivePolicy(reducer_ratio=0.0)
    with pytest.raises(ValueError):
        AdaptivePolicy(reducer_ratio=1.2, expander_ratio=1.0)
    with pytest.raises(ValueError):
        AdaptivePolicy(hysteresis=0)


# ---------------------------------------------------------------------------
# DC placement controller
# ---------------------------------------------------------------------------

def test_reducer_migrates_to_writer():
    mgr = PluginManager()
    sampler = mgr.deploy(sampling_plugin(4), PluginSide.READER)
    run_plugin(sampler, times=2)  # observed: 4x reduction
    ctl = DCPlacementController(mgr, AdaptivePolicy(hysteresis=2))
    assert ctl.observe_step(writer_busy_fraction=0.5) == []  # vote 1
    events = ctl.observe_step(writer_busy_fraction=0.5)      # vote 2: migrate
    assert len(events) == 1
    assert events[0].to_side is PluginSide.WRITER
    assert sampler.side is PluginSide.WRITER


def test_expander_migrates_to_reader():
    mgr = PluginManager()
    ann = mgr.deploy(annotation_plugin("flag", 1.0), PluginSide.WRITER)
    run_plugin(ann)  # adds bytes: ratio > 1
    ctl = DCPlacementController(mgr, AdaptivePolicy(hysteresis=1))
    events = ctl.observe_step(writer_busy_fraction=0.2)
    assert len(events) == 1
    assert events[0].to_side is PluginSide.READER
    assert "expander" in events[0].reason


def test_overloaded_writer_repels_reducers():
    mgr = PluginManager()
    sampler = mgr.deploy(sampling_plugin(4), PluginSide.WRITER)
    run_plugin(sampler)
    ctl = DCPlacementController(mgr, AdaptivePolicy(hysteresis=1, writer_busy_limit=0.9))
    events = ctl.observe_step(writer_busy_fraction=0.99)
    assert len(events) == 1
    assert events[0].to_side is PluginSide.READER
    assert "overloaded" in events[0].reason


def test_hysteresis_prevents_ping_pong():
    mgr = PluginManager()
    sampler = mgr.deploy(sampling_plugin(2), PluginSide.READER)
    run_plugin(sampler)
    ctl = DCPlacementController(mgr, AdaptivePolicy(hysteresis=3))
    # Alternating conditions never accumulate 3 consistent votes.
    assert ctl.observe_step(0.5) == []     # vote writer x1
    assert ctl.observe_step(0.99) == []    # vote reader (already there: reset)
    assert ctl.observe_step(0.5) == []     # vote writer x1 again
    assert sampler.side is PluginSide.READER
    # Three consistent observations do migrate.
    assert ctl.observe_step(0.5) == []
    events = ctl.observe_step(0.5)
    assert len(events) == 1


def test_unobserved_plugin_not_moved():
    mgr = PluginManager()
    sampler = mgr.deploy(sampling_plugin(2), PluginSide.READER)
    ctl = DCPlacementController(mgr, AdaptivePolicy(hysteresis=1))
    assert ctl.observe_step(0.1) == []
    assert sampler.side is PluginSide.READER


def test_controller_records_to_monitor():
    mon = PerfMonitor(clock=lambda: 0.0)
    mgr = PluginManager()
    run_plugin(mgr.deploy(sampling_plugin(4), PluginSide.READER))
    ctl = DCPlacementController(mgr, AdaptivePolicy(hysteresis=1), monitor=mon)
    ctl.observe_step(0.5)
    assert [r.category for r in mon.trace] == [EV_DC_MIGRATION]


def test_controller_input_validation():
    ctl = DCPlacementController(PluginManager())
    with pytest.raises(ValueError):
        ctl.observe_step(1.5)


# ---------------------------------------------------------------------------
# Adaptive Get scheduler
# ---------------------------------------------------------------------------

def test_aimd_decreases_on_interference():
    s = AdaptiveGetScheduler(target_slowdown=0.15, initial=8)
    assert s.observe(0.30) == 4
    assert s.observe(0.30) == 2
    assert s.observe(0.30) == 1
    assert s.observe(0.30) == 1  # floor


def test_aimd_increases_with_headroom():
    s = AdaptiveGetScheduler(target_slowdown=0.15, initial=2, max_bound=4)
    assert s.observe(0.01) == 3
    assert s.observe(0.01) == 4
    assert s.observe(0.01) == 4  # ceiling


def test_aimd_holds_in_deadband():
    s = AdaptiveGetScheduler(target_slowdown=0.15, initial=4)
    assert s.observe(0.12) == 4  # between 0.7*target and target: hold


def test_aimd_converges_under_feedback():
    """Closed loop with a toy plant: slowdown proportional to concurrency.

    The controller settles at a bound whose slowdown is near the target.
    """
    s = AdaptiveGetScheduler(target_slowdown=0.15, initial=16, max_bound=16)

    def plant(concurrency):
        return 0.03 * concurrency  # 5 concurrent -> 0.15

    for _ in range(20):
        s.observe(plant(s.max_concurrent))
    final = s.max_concurrent
    assert plant(final) <= 0.16
    assert final >= 3


def test_scheduler_validation():
    with pytest.raises(ValueError):
        AdaptiveGetScheduler(target_slowdown=0.0)
    with pytest.raises(ValueError):
        AdaptiveGetScheduler(initial=0)
    s = AdaptiveGetScheduler()
    with pytest.raises(ValueError):
        s.observe(-0.1)


def test_scheduler_history():
    s = AdaptiveGetScheduler(initial=4)
    s.observe(0.2)
    s.observe(0.01)
    assert [d.max_concurrent for d in s.history] == [2, 3]
    assert [d.step for d in s.history] == [0, 1]
