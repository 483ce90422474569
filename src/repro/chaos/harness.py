"""Kill/restart chaos runs and the multi-seed soak built on them.

One chaos run executes a steady-state mix exactly like
:func:`~repro.core.simulation.run_mix_experiment`, but under a
:class:`~repro.persistence.supervisor.Supervisor` whose tick hook raises
:class:`~repro.persistence.supervisor.MediatorKilled` at the scheduled
ticks. The run and its uninterrupted baseline are scored by the same
:func:`~repro.core.simulation.summarize_mix_run` arithmetic, then four
invariants are enforced (each failure raises
:class:`~repro.errors.ChaosError` with the violating numbers):

1. **No sustained cap breach** - the PR 1 cap invariant holds over the
   post-warmup window of the recovered run.
2. **Budget conservation** - the battery's ledger balances: stored energy
   equals energy stored minus discharged minus faded, to within 1e-6 J.
3. **Utility** - final server throughput within ``utility_tolerance``
   (relative) of the baseline.
4. **Determinism** - with no safe hold configured, the recovered timeline is
   *bit-identical* to the uninterrupted one, tick for tick.
5. **Trace stitching** - when a trace bus is supplied (and no safe hold),
   the crash-restart run's stitched trace passes :func:`verify_trace` and
   its content hash equals the uninterrupted baseline's.

The soak repeats this across a seed matrix, sharing one baseline (chaos
seeds only pick kill ticks; they never touch the simulation's own RNG).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from repro.core.mediator import PowerMediator
from repro.core.policies import Policy
from repro.core.resilience import ResilienceConfig
from repro.core.simulation import MixExperimentResult, summarize_mix_run
from repro.errors import ChaosError, ConfigurationError, SimulationError
from repro.faults.plan import FaultPlan
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import TraceBus, TraceError, verify_trace
from repro.persistence.checkpoint import RunRecipe
from repro.persistence.supervisor import (
    AdmitApp,
    Advance,
    Command,
    MediatorKilled,
    RecoveryStats,
    Supervisor,
    apply_command,
)
from repro.server.config import DEFAULT_SERVER_CONFIG, ServerConfig
from repro.workloads.profiles import WorkloadProfile


def kill_schedule(total_ticks: int, kills: int, seed: int) -> list[int]:
    """Pick ``kills`` distinct kill ticks in ``[1, total_ticks)``, sorted.

    Tick 0 is excluded: the supervisor writes its first checkpoint before
    any tick runs, so a kill before tick 1 would test nothing.
    """
    if total_ticks < 2 or kills <= 0:
        return []
    rng = np.random.default_rng(seed)
    count = min(kills, total_ticks - 1)
    picks = rng.choice(np.arange(1, total_ticks), size=count, replace=False)
    return sorted(int(t) for t in picks)


def kill_at(ticks: Iterable[int]) -> Callable[[int], None]:
    """A ``tick_hook`` raising :class:`MediatorKilled` at each of ``ticks``.

    Serves both the :class:`Supervisor` and the streaming
    :class:`~repro.service.loop.MediatorService`. Each tick fires once:
    recovery re-executes ticks the crash destroyed, and the replayed pass
    through a kill tick must not die again.
    """
    pending = set(ticks)

    def hook(tick: int) -> None:
        if tick in pending:
            pending.discard(tick)
            raise MediatorKilled(f"chaos kill at tick {tick}")

    return hook


def run_script(
    recipe: RunRecipe, script: list[Command], *, trace_bus: TraceBus | None = None
) -> PowerMediator:
    """Execute a supervisor script directly, with no supervision.

    This is the uninterrupted baseline a chaos run is compared against;
    ``Advance`` maps onto :meth:`~repro.core.mediator.PowerMediator.run_for`
    with the same deadline arithmetic the supervisor uses, so the two paths
    tick identically. ``trace_bus`` is attached post-build, the same way the
    supervisor attaches its bus, so baseline and chaos traces cover the
    same event stream.
    """
    mediator = recipe.build()
    if trace_bus is not None:
        mediator.attach_trace_bus(trace_bus)
    for command in script:
        apply_command(mediator, command)
    return mediator


@dataclass(frozen=True)
class ChaosRunResult:
    """Outcome of one kill/restart run (invariants already enforced).

    Attributes:
        kill_ticks: The ticks the mediator was killed at.
        result: Mix summary of the recovered run.
        baseline: Mix summary of the uninterrupted run.
        recovery: The supervisor's recovery accounting.
        utility_gap: ``|result - baseline|`` server throughput, relative to
            the baseline.
        timeline_identical: Whether the recovered timeline matched the
            baseline bit for bit; ``None`` when a safe hold made identity
            not applicable.
        trace_hash: Content hash of the stitched chaos trace (``None`` when
            the run was not traced).
        baseline_trace_hash: Content hash of the uninterrupted baseline's
            trace (``None`` when the baseline was not traced).
    """

    kill_ticks: tuple[int, ...]
    result: MixExperimentResult
    baseline: MixExperimentResult
    recovery: RecoveryStats
    utility_gap: float
    timeline_identical: bool | None
    trace_hash: str | None = None
    baseline_trace_hash: str | None = None


@dataclass(frozen=True)
class ChaosSoakResult:
    """Aggregate of a whole kill/restart soak (every run already passed)."""

    runs: tuple[ChaosRunResult, ...]

    @property
    def total_restarts(self) -> int:
        return sum(r.recovery.restarts for r in self.runs)

    @property
    def total_downtime_ticks(self) -> int:
        return sum(r.recovery.downtime_ticks for r in self.runs)

    @property
    def max_utility_gap(self) -> float:
        return max((r.utility_gap for r in self.runs), default=0.0)

    def metrics(self) -> dict:
        """Soak-wide metrics: every run's registry merged associatively."""
        return merge_run_metrics(run.result for run in self.runs)


def merge_run_metrics(results: Iterable[MixExperimentResult]) -> dict:
    """Merge the metrics of many mix runs into one soak-wide JSON document."""
    merged = MetricsRegistry()
    for result in results:
        if result.metrics is not None:
            merged = merged.merge(MetricsRegistry.from_json(result.metrics))
    return merged.to_json()


def mix_recipe(
    apps: list[WorkloadProfile],
    policy: Policy | str,
    p_cap_w: float,
    *,
    config: ServerConfig = DEFAULT_SERVER_CONFIG,
    duration_s: float = 10.0,
    warmup_s: float = 4.0,
    use_oracle_estimates: bool = False,
    dt_s: float = 0.1,
    seed: int = 0,
    faults: FaultPlan | None = None,
    resilience: ResilienceConfig | None = None,
) -> tuple[RunRecipe, list[Command]]:
    """The recipe + script equivalent of :func:`run_mix_experiment`."""
    if not apps:
        raise ConfigurationError("need at least one application")
    recipe = RunRecipe(
        policy=policy if isinstance(policy, str) else policy.name,
        p_cap_w=p_cap_w,
        config=config,
        use_oracle_estimates=use_oracle_estimates,
        dt_s=dt_s,
        seed=seed,
        faults=faults,
        resilience=resilience,
    )
    script: list[Command] = [
        # Steady-state runs must not see departures; give everyone ample work.
        AdmitApp(profile.with_total_work(float("inf")), skip_overhead=True)
        for profile in apps
    ]
    script.append(Advance(warmup_s + duration_s))
    return recipe, script


def _check_battery_ledger(mediator: PowerMediator, kill_ticks: list[int]) -> None:
    battery = mediator.battery
    if battery is None:
        return
    stats = battery.stats
    expected = stats.total_stored_j - stats.total_discharged_j - battery.total_faded_j
    drift = abs(battery.stored_j - expected)
    if drift > 1e-6:
        raise ChaosError(
            f"battery ledger not conserved after kills at {kill_ticks}: "
            f"stored {battery.stored_j:.9f} J vs ledger {expected:.9f} J "
            f"(drift {drift:.3e} J)"
        )


def run_chaos_mix(
    recipe: RunRecipe,
    script: list[Command],
    *,
    workdir: str | Path,
    kill_ticks: list[int],
    warmup_s: float,
    mix_id: int = 0,
    checkpoint_every_ticks: int = 50,
    fsync_every_ticks: int = 25,
    safe_hold_ticks: int = 0,
    tear_journal_bytes_on_crash: int = 0,
    utility_tolerance: float = 0.01,
    baseline: PowerMediator | None = None,
    trace_bus: TraceBus | None = None,
) -> ChaosRunResult:
    """One supervised run of a :func:`mix_recipe` with scheduled kills.

    Args:
        recipe, script: The run, as :func:`mix_recipe` builds it.
        kill_ticks: Ticks at which the mediator dies (see :func:`kill_at`).
        warmup_s: Settling window the summaries exclude (the one the
            script was built with).
        baseline: A pre-run uninterrupted mediator for the same recipe and
            script (the soak shares one); computed here when ``None``.
        utility_tolerance: Relative server-throughput tolerance vs baseline.
        trace_bus: Optional bus for the chaos run. The supervisor stitches
            a continuous trace across restarts; with no safe hold it must
            verify clean and hash identically to the baseline's trace
            (invariant 5). A ``None``-baseline computed here is traced on
            its own bus when this is set.

    Raises:
        ChaosError: when any recovery invariant fails.
    """
    apps = [command.profile for command in script if isinstance(command, AdmitApp)]
    if baseline is None:
        baseline_bus = TraceBus() if trace_bus is not None else None
        baseline = run_script(recipe, script, trace_bus=baseline_bus)
    base_summary = summarize_mix_run(baseline, apps, warmup_s=warmup_s, mix_id=mix_id)

    kills = sorted(set(kill_ticks))
    supervisor = Supervisor(
        recipe,
        script,
        workdir,
        checkpoint_every_ticks=checkpoint_every_ticks,
        fsync_every_ticks=fsync_every_ticks,
        tick_hook=kill_at(kills),
        safe_hold_ticks=safe_hold_ticks,
        tear_journal_bytes_on_crash=tear_journal_bytes_on_crash,
        trace_bus=trace_bus,
    )
    mediator = supervisor.run()

    try:
        summary = summarize_mix_run(mediator, apps, warmup_s=warmup_s, mix_id=mix_id)
    except SimulationError as exc:
        raise ChaosError(
            f"sustained cap breach after kills at {kills}: {exc}"
        ) from None
    _check_battery_ledger(mediator, kills)

    base_util = base_summary.server_throughput
    gap = abs(summary.server_throughput - base_util) / max(base_util, 1e-12)
    if gap > utility_tolerance:
        raise ChaosError(
            f"utility {summary.server_throughput:.6f} deviates "
            f"{gap:.2%} from baseline {base_util:.6f} "
            f"(tolerance {utility_tolerance:.2%}) after kills at {kills}"
        )

    timeline_identical: bool | None = None
    if safe_hold_ticks == 0:
        timeline_identical = mediator.timeline == baseline.timeline
        if not timeline_identical:
            raise ChaosError(
                f"recovered timeline diverged from the uninterrupted run "
                f"after kills at {kills} "
                f"({len(mediator.timeline)} vs {len(baseline.timeline)} ticks)"
            )

    stitched_hash: str | None = None
    baseline_hash: str | None = None
    if trace_bus is not None:
        try:
            verify_trace(trace_bus.events)
        except TraceError as exc:
            raise ChaosError(
                f"stitched trace failed verification after kills at "
                f"{kills}: {exc}"
            ) from None
        stitched_hash = trace_bus.content_hash()
        if baseline.trace_bus.active:
            baseline_hash = baseline.trace_bus.content_hash()
            if safe_hold_ticks == 0 and stitched_hash != baseline_hash:
                raise ChaosError(
                    f"stitched trace hash {stitched_hash[:16]}... diverged from "
                    f"baseline {baseline_hash[:16]}... after kills at {kills}"
                )

    return ChaosRunResult(
        kill_ticks=tuple(kills),
        result=summary,
        baseline=base_summary,
        recovery=supervisor.stats,
        utility_gap=gap,
        timeline_identical=timeline_identical,
        trace_hash=stitched_hash,
        baseline_trace_hash=baseline_hash,
    )


def run_chaos_soak(
    apps: list[WorkloadProfile],
    policy: Policy | str,
    p_cap_w: float,
    *,
    workdir: str | Path,
    seeds: list[int],
    kills_per_run: int = 3,
    mix_id: int = 0,
    config: ServerConfig = DEFAULT_SERVER_CONFIG,
    duration_s: float = 10.0,
    warmup_s: float = 4.0,
    use_oracle_estimates: bool = False,
    dt_s: float = 0.1,
    seed: int = 0,
    faults: FaultPlan | None = None,
    resilience: ResilienceConfig | None = None,
    checkpoint_every_ticks: int = 50,
    fsync_every_ticks: int = 25,
    safe_hold_ticks: int = 0,
    tear_journal_bytes_on_crash: int = 0,
    utility_tolerance: float = 0.01,
    trace: bool = False,
) -> ChaosSoakResult:
    """Repeat :func:`run_chaos_mix` across a matrix of chaos seeds.

    Each seed draws its own :func:`kill_schedule`; the uninterrupted
    baseline is computed once and shared, since chaos seeds never feed the
    simulation's RNG streams. With ``trace=True``, the baseline and every
    chaos run get trace buses, arming the stitched-trace invariant on each
    run.

    Raises:
        ChaosError: on the first run violating any invariant.
    """
    recipe, script = mix_recipe(
        apps,
        policy,
        p_cap_w,
        config=config,
        duration_s=duration_s,
        warmup_s=warmup_s,
        use_oracle_estimates=use_oracle_estimates,
        dt_s=dt_s,
        seed=seed,
        faults=faults,
        resilience=resilience,
    )
    baseline = run_script(recipe, script, trace_bus=TraceBus() if trace else None)
    runs = [
        run_chaos_mix(
            recipe,
            script,
            workdir=Path(workdir) / f"soak-{chaos_seed:04d}",
            kill_ticks=kill_schedule(baseline.tick_count, kills_per_run, chaos_seed),
            warmup_s=warmup_s,
            mix_id=mix_id,
            checkpoint_every_ticks=checkpoint_every_ticks,
            fsync_every_ticks=fsync_every_ticks,
            safe_hold_ticks=safe_hold_ticks,
            tear_journal_bytes_on_crash=tear_journal_bytes_on_crash,
            utility_tolerance=utility_tolerance,
            baseline=baseline,
            trace_bus=TraceBus() if trace else None,
        )
        for chaos_seed in seeds
    ]
    return ChaosSoakResult(runs=tuple(runs))
