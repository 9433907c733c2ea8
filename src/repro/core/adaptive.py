"""Runtime management: monitoring-driven placement decisions
(paper Sections II.F, II.G, IV).

Two adaptive mechanisms built on the performance-monitoring layer:

* :class:`DCPlacementController` — decides, step by step, which address
  space each Data Conditioning plug-in should execute in.  Monitoring
  data gathered from the simulation side (its busy fraction) combines
  with each codelet's observed behaviour (its data-reduction ratio and
  execution cost): reducers migrate toward the writer when the writer
  has CPU headroom (saving movement), expanders and heavy codelets
  migrate toward the reader.  Hysteresis prevents ping-ponging.

* :class:`AdaptiveGetScheduler` — tunes the receiver-directed Get
  concurrency bound between steps so the observed simulation slowdown
  from asynchronous bulk movement stays under a target (the paper had
  to "carefully set the asynchronous data movement scheduling policy to
  keep the GTS slowdown under 15 %"; this closes that loop
  automatically).

Both mechanisms can additionally be seeded from offline trace analysis:
:func:`policy_from_hint` derives an :class:`AdaptivePolicy` from a
:class:`repro.obs.BottleneckHint` (produced by ``repro.tools.trace`` /
``repro.obs.find_bottleneck``), and
:meth:`AdaptiveGetScheduler.apply_hint` nudges the concurrency bound
when the trace shows the pipeline is transport-bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.hints import MOVEMENT_STAGES, STAGE_DC_PLUGIN, STAGE_TRANSPORT
from repro.core.monitoring import PerfMonitor
from repro.core.plugins import DCPlugin, PluginManager, PluginSide
from repro.obs.events import EV_DC_MIGRATION, emit


# ---------------------------------------------------------------------------
# DC plug-in placement control
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdaptivePolicy:
    """Thresholds for the placement rules."""

    #: A codelet whose output/input byte ratio is below this is a
    #: *reducer*: running it writer-side shrinks what must move.
    reducer_ratio: float = 0.9
    #: A codelet at/above this ratio is an *expander* (e.g. annotation):
    #: it belongs reader-side so the extra bytes never cross.
    expander_ratio: float = 1.0
    #: Writer-side codelets may consume at most this fraction of the
    #: simulation's step time; beyond it they migrate off the writer.
    writer_cpu_budget: float = 0.10
    #: The simulation must be below this busy fraction for codelets to
    #: migrate toward it.
    writer_busy_limit: float = 0.95
    #: Consecutive identical decisions required before migrating.
    hysteresis: int = 2

    def __post_init__(self) -> None:
        if not (0 < self.reducer_ratio <= self.expander_ratio):
            raise ValueError("need 0 < reducer_ratio <= expander_ratio")
        if self.hysteresis < 1:
            raise ValueError("hysteresis must be >= 1")


@dataclass(frozen=True)
class MigrationEvent:
    """One migration the controller performed."""

    step: int
    plugin: str
    from_side: PluginSide
    to_side: PluginSide
    reason: str


class DCPlacementController:
    """Per-stream controller migrating codelets between address spaces."""

    def __init__(
        self,
        plugins: PluginManager,
        policy: Optional[AdaptivePolicy] = None,
        monitor: Optional[PerfMonitor] = None,
    ) -> None:
        self.plugins = plugins
        self.policy = policy or AdaptivePolicy()
        self.monitor = monitor
        self.events: list[MigrationEvent] = []
        self._votes: dict[str, tuple[PluginSide, int]] = {}
        self._step = 0

    # ------------------------------------------------------------------
    def _desired_side(
        self, plugin: DCPlugin, writer_busy: float, sim_step_time: float
    ) -> tuple[PluginSide, str]:
        ratio = plugin.reduction_ratio
        if plugin.stats.invocations == 0:
            return plugin.side, "no observations yet"
        if ratio >= self.policy.expander_ratio:
            return PluginSide.READER, f"expander (ratio {ratio:.2f})"
        # Reducers want the writer — if the writer can afford them.
        exec_per_step = (
            plugin.stats.exec_time / plugin.stats.invocations
            if plugin.stats.exec_time > 0
            else 0.0
        )
        cost_frac = exec_per_step / sim_step_time if sim_step_time > 0 else 0.0
        if ratio < self.policy.reducer_ratio:
            if (
                writer_busy < self.policy.writer_busy_limit
                and cost_frac <= self.policy.writer_cpu_budget
            ):
                return PluginSide.WRITER, f"reducer (ratio {ratio:.2f})"
            return (
                PluginSide.READER,
                f"reducer but writer overloaded (busy {writer_busy:.2f}, "
                f"cost {cost_frac:.2f})",
            )
        return plugin.side, f"neutral (ratio {ratio:.2f})"

    def observe_step(
        self, writer_busy_fraction: float, sim_step_time: float = 1.0
    ) -> list[MigrationEvent]:
        """Feed one step's simulation-side monitoring; maybe migrate.

        Returns the migrations performed this step.
        """
        if not (0.0 <= writer_busy_fraction <= 1.0):
            raise ValueError("writer_busy_fraction in [0, 1]")
        performed: list[MigrationEvent] = []
        for plugin in self.plugins.plugins():
            desired, reason = self._desired_side(
                plugin, writer_busy_fraction, sim_step_time
            )
            if desired == plugin.side:
                self._votes.pop(plugin.name, None)
                continue
            side, count = self._votes.get(plugin.name, (desired, 0))
            count = count + 1 if side == desired else 1
            self._votes[plugin.name] = (desired, count)
            if count >= self.policy.hysteresis:
                event = MigrationEvent(
                    step=self._step,
                    plugin=plugin.name,
                    from_side=plugin.side,
                    to_side=desired,
                    reason=reason,
                )
                self.plugins.migrate(plugin.name, desired)
                self._votes.pop(plugin.name, None)
                self.events.append(event)
                performed.append(event)
                if self.monitor is not None:
                    emit(
                        self.monitor, EV_DC_MIGRATION, plugin.name,
                        step=self._step, to=desired.value, reason=reason,
                    )
        self._step += 1
        return performed


# ---------------------------------------------------------------------------
# Trace-driven policy seeding
# ---------------------------------------------------------------------------

def policy_from_hint(hint, base: Optional[AdaptivePolicy] = None) -> AdaptivePolicy:
    """Derive placement thresholds from an offline bottleneck hint.

    ``hint`` is a :class:`repro.obs.BottleneckHint` (duck-typed: only
    ``hint.stage`` is read).  The mapping follows the paper's placement
    logic:

    * ``dc_plugin``-bound — codelets are the cost: halve the writer CPU
      budget so expensive codelets migrate off the simulation sooner;
    * ``write``/``transport``-bound — data movement is the cost: favour
      writer-side reducers by widening the reducer band and granting a
      larger CPU budget (shrinking bytes before they cross pays off);
    * anything else (``redistribute``, ``read``, ...) — placement cannot
      help; the base policy is returned unchanged.
    """
    base = base or AdaptivePolicy()
    stage = getattr(hint, "stage", None)
    if stage == STAGE_DC_PLUGIN:
        return AdaptivePolicy(
            reducer_ratio=base.reducer_ratio,
            expander_ratio=base.expander_ratio,
            writer_cpu_budget=base.writer_cpu_budget / 2,
            writer_busy_limit=base.writer_busy_limit,
            hysteresis=base.hysteresis,
        )
    if stage in MOVEMENT_STAGES:
        return AdaptivePolicy(
            reducer_ratio=min(0.95, base.expander_ratio),
            expander_ratio=base.expander_ratio,
            writer_cpu_budget=min(0.5, base.writer_cpu_budget * 2),
            writer_busy_limit=base.writer_busy_limit,
            hysteresis=base.hysteresis,
        )
    return base


# ---------------------------------------------------------------------------
# Adaptive Get scheduling
# ---------------------------------------------------------------------------

@dataclass
class SchedulerDecision:
    step: int
    observed_slowdown: float
    max_concurrent: int


class AdaptiveGetScheduler:
    """AIMD control of the bulk-Get concurrency bound.

    Observed simulation slowdown above ``target_slowdown`` halves the
    concurrency bound (multiplicative decrease); sustained headroom
    raises it by one (additive increase), bounded by ``max_bound``.
    """

    def __init__(
        self,
        target_slowdown: float = 0.15,
        initial: int = 4,
        min_bound: int = 1,
        max_bound: int = 16,
    ) -> None:
        if not (0.0 < target_slowdown < 1.0):
            raise ValueError("target_slowdown in (0, 1)")
        if not (1 <= min_bound <= initial <= max_bound):
            raise ValueError("need min_bound <= initial <= max_bound")
        self.target = target_slowdown
        self.max_concurrent = initial
        self.min_bound = min_bound
        self.max_bound = max_bound
        self.history: list[SchedulerDecision] = []
        self._step = 0

    def observe(self, observed_slowdown: float) -> int:
        """Feed one step's measured sim slowdown; returns the new bound."""
        if observed_slowdown < 0:
            raise ValueError("slowdown must be >= 0")
        if observed_slowdown > self.target:
            self.max_concurrent = max(self.min_bound, self.max_concurrent // 2)
        elif observed_slowdown < 0.7 * self.target:
            self.max_concurrent = min(self.max_bound, self.max_concurrent + 1)
        self.history.append(
            SchedulerDecision(self._step, observed_slowdown, self.max_concurrent)
        )
        self._step += 1
        return self.max_concurrent

    def apply_hint(self, hint) -> int:
        """Seed the bound from an offline bottleneck hint.

        A transport-bound trace means movement is starved for flows: jump
        the bound halfway toward ``max_bound`` (AIMD then trims it back if
        the simulation suffers).  Other stages leave the bound alone.
        """
        if getattr(hint, "stage", None) == STAGE_TRANSPORT:
            self.max_concurrent = min(
                self.max_bound,
                max(self.max_concurrent, (self.max_concurrent + self.max_bound) // 2),
            )
        return self.max_concurrent

    def observe_health(self, report) -> int:
        """Feed one live health verdict as a rate-mismatch signal.

        ``report`` is a :class:`repro.obs.health.HealthReport`
        (duck-typed: only ``report.verdict`` is read).  A STALLED or
        UNHEALTHY stream means the pipeline cannot absorb the current
        Get pressure — halve the bound (the AIMD multiplicative
        decrease) so bulk movement stops compounding the problem; a
        DEGRADED stream trims it by one; HEALTHY leaves AIMD's own
        ``observe`` loop in charge.  Returns the new bound.
        """
        verdict = getattr(report, "verdict", None)
        name = getattr(verdict, "value", verdict)
        if name in ("stalled", "unhealthy"):
            self.max_concurrent = max(self.min_bound, self.max_concurrent // 2)
        elif name == "degraded":
            self.max_concurrent = max(self.min_bound, self.max_concurrent - 1)
        return self.max_concurrent
