"""Byzantine chaos: honest-vs-adversarial mixes under seeded attack schedules.

One adversarial run co-locates a Table II mix exactly like
:func:`~repro.core.simulation.run_mix_experiment`, but with one tenant
executing a seeded :class:`~repro.adversary.plan.AdversarySchedule` while the
mediator's :class:`~repro.core.trust.TrustScorer` defends. Three arms share
one simulation seed:

1. **All-honest control** (defense on) - the Table II baseline. The defense
   must be invisible here: *zero* trust transitions (the false-positive
   control) and the cap invariant at every tick.
2. **Adversarial, defended** - the attack runs against the live defense.
   Every attacker must be quarantined within the per-kind detection bound,
   no honest tenant may ever leave full trust, and each honest tenant's
   normalized throughput must retain at least the per-kind floor of its
   all-honest baseline.
3. **Adversarial, undefended** (optional) - the same attack with the
   TrustScorer disabled. The defense must never make honest tenants
   materially worse than doing nothing: defended honest throughput >=
   undefended - ``undefended_slack``.

Any violated invariant raises :class:`~repro.errors.ChaosError` carrying the
violating numbers.

The per-kind bounds encode the physics of each regime, measured on mix 1
(stream + kmeans, oracle estimates, seed 0):

- ``inflate`` / ``probe`` / ``spike`` run in the SPACE regime at a 108 W cap;
  quarantining the attacker *frees* budget, so honest retention sits at
  96-103% and the floor is a comfortable 0.85. Detection is strike-driven
  (probe/spike) or efficiency-score-driven (inflate) and lands within a few
  burst periods; spike's bound covers one full duty-cycle period plus slack
  because its bursts only recur once per period.
- ``freeride`` runs in the ESD regime at the paper's 80 W cap. Detection
  needs discharge-covered ON phases to catch the parasitic draw, so its
  bound spans two duty-cycle periods. Retention is structurally lower
  (floor 0.45): every defense transition replans, each replan restarts the
  duty cycle in its OFF phase, and the quarantine guard band (5% of 80 W)
  drops the dynamic budget below the cheapest surviving config's power
  floor, pinning the survivor in duty-cycling instead of SPACE mode. The
  defended-vs-undefended slack is the meaningful guarantee here.

The soak repeats this across attack kinds and a seed matrix, sharing each
(scenario, seed) baseline across the kinds that use the same regime, and
aggregates detection latency and false-positive-rate metrics for CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.adversary.plan import (
    ADVERSARY_KINDS,
    AdversarySchedule,
    default_adversary_schedule,
)
from repro.chaos.harness import merge_run_metrics
from repro.core.mediator import PowerMediator
from repro.core.simulation import (
    MixExperimentResult,
    run_mix_mediator,
    summarize_mix_run,
)
from repro.core.trust import DefenseConfig
from repro.errors import ChaosError, ConfigurationError, SimulationError
from repro.server.config import DEFAULT_SERVER_CONFIG, ServerConfig
from repro.workloads.mixes import get_mix
from repro.workloads.profiles import WorkloadProfile

#: Detection bound per attack kind, in ticks from the attack window opening.
#: probe: a handful of 1.5 s burst periods (phase jitter can delay the first
#: burst by up to one period). spike: one 10 s duty-cycle period plus slack.
#: freeride: two duty-cycle periods - evidence only accrues during
#: discharge-covered ON phases.
DETECTION_BOUND_TICKS: dict[str, int] = {
    "inflate": 60,
    "probe": 60,
    "spike": 120,
    "freeride": 250,
}

#: Minimum defended honest throughput as a fraction of the all-honest
#: baseline, per attack kind (see the module docstring for why freeride's
#: floor is structurally lower).
HONEST_RETENTION_FLOOR: dict[str, float] = {
    "inflate": 0.85,
    "probe": 0.85,
    "spike": 0.85,
    "freeride": 0.45,
}

#: Absolute normalized-throughput slack allowed between the defended and
#: undefended adversarial arms: the defense may cost honest tenants at most
#: this much versus doing nothing at all.
UNDEFENDED_SLACK = 0.05


@dataclass(frozen=True)
class AttackScenario:
    """The (policy, cap, timing) regime one attack kind is evaluated in.

    Attributes:
        kind: Attack class (see :data:`~repro.adversary.plan.ADVERSARY_KINDS`).
        policy: Mediation policy name for every arm.
        p_cap_w: Server cap for every arm.
        warmup_s: Settling window excluded from throughput accounting.
        duration_s: Measurement window after warm-up.
        attack_start_s: When the attack window opens (at the end of warm-up
            by default, so the whole attack lands inside the measured
            window).
        attack_duration_s: Attack window length.
        detection_bound_ticks: Quarantine deadline, in ticks from
            ``attack_start_s``.
        retention_floor: Per-honest-app throughput floor vs the all-honest
            baseline.
    """

    kind: str
    policy: str
    p_cap_w: float
    warmup_s: float
    duration_s: float
    attack_start_s: float
    attack_duration_s: float
    detection_bound_ticks: int
    retention_floor: float

    @property
    def total_s(self) -> float:
        return self.warmup_s + self.duration_s


def default_attack_scenario(kind: str) -> AttackScenario:
    """The acceptance-suite regime for one attack kind.

    The SPACE-regime kinds run under the learning-free spatial policy at a
    108 W cap (both mix apps comfortably co-schedulable, so the attack's
    damage - not budget starvation - is what the arms measure). ``freeride``
    only exists under ESD discharge, so it runs the full ESD-aware policy at
    the paper's 80 W duty-cycling cap, for longer: its evidence channel is
    gated on ON phases that recur every 10 s.
    """
    if kind not in ADVERSARY_KINDS:
        raise ConfigurationError(
            f"unknown adversary kind {kind!r}; have {list(ADVERSARY_KINDS)}"
        )
    if kind == "freeride":
        return AttackScenario(
            kind=kind,
            policy="app+res+esd-aware",
            p_cap_w=80.0,
            warmup_s=5.0,
            duration_s=35.0,
            attack_start_s=5.0,
            attack_duration_s=20.0,
            detection_bound_ticks=DETECTION_BOUND_TICKS[kind],
            retention_floor=HONEST_RETENTION_FLOOR[kind],
        )
    return AttackScenario(
        kind=kind,
        policy="app+res-aware",
        p_cap_w=108.0,
        warmup_s=5.0,
        duration_s=25.0,
        attack_start_s=5.0,
        attack_duration_s=20.0,
        detection_bound_ticks=DETECTION_BOUND_TICKS[kind],
        retention_floor=HONEST_RETENTION_FLOOR[kind],
    )


@dataclass(frozen=True)
class AdversaryRunResult:
    """Outcome of one honest-vs-adversarial comparison (invariants enforced).

    Attributes:
        scenario: The regime the arms ran in.
        mix_id: Table II mix number.
        attackers: The adversarial app names, sorted.
        detection_latency_ticks: Per attacker, ticks from the attack window
            opening to quarantine.
        honest_retention: Per honest app, defended throughput as a fraction
            of its all-honest baseline.
        false_positives: Honest-app trust transitions observed across the
            control and defended arms (zero, or the run would have raised).
        baseline: All-honest control summary.
        defended: Adversarial defended-arm summary.
        undefended: Adversarial undefended-arm summary (``None`` when that
            arm was skipped).
        transitions: The defended arm's full trust-transition log, as
            ``(tick, app, from, to)`` tuples.
    """

    scenario: AttackScenario
    mix_id: int
    attackers: tuple[str, ...]
    detection_latency_ticks: dict[str, int]
    honest_retention: dict[str, float]
    false_positives: int
    baseline: MixExperimentResult
    defended: MixExperimentResult
    undefended: MixExperimentResult | None
    transitions: tuple[tuple[int, str, str, str], ...]

    @property
    def worst_detection_latency_ticks(self) -> int:
        return max(self.detection_latency_ticks.values())

    @property
    def worst_retention(self) -> float:
        return min(self.honest_retention.values())


@dataclass(frozen=True)
class AdversarySoakResult:
    """Aggregate of a byzantine soak (every run already passed its bounds)."""

    runs: tuple[AdversaryRunResult, ...]

    @property
    def max_detection_latency_ticks(self) -> int:
        return max(r.worst_detection_latency_ticks for r in self.runs)

    @property
    def min_honest_retention(self) -> float:
        return min(r.worst_retention for r in self.runs)

    @property
    def false_positive_rate(self) -> float:
        """Honest-app transitions per honest-app arm observed (target 0)."""
        positives = sum(r.false_positives for r in self.runs)
        # Control + defended arm each watch every honest app.
        observed = sum(2 * len(r.honest_retention) for r in self.runs)
        return positives / max(observed, 1)

    def latency_by_kind(self) -> dict[str, int]:
        """Worst quarantine latency seen per attack kind, in ticks."""
        worst: dict[str, int] = {}
        for run in self.runs:
            kind = run.scenario.kind
            worst[kind] = max(
                worst.get(kind, 0), run.worst_detection_latency_ticks
            )
        return worst

    def retention_by_kind(self) -> dict[str, float]:
        """Worst honest retention seen per attack kind."""
        worst: dict[str, float] = {}
        for run in self.runs:
            kind = run.scenario.kind
            worst[kind] = min(
                worst.get(kind, float("inf")), run.worst_retention
            )
        return worst

    def metrics(self) -> dict:
        """Soak-wide metrics: every defended arm's registry merged."""
        return merge_run_metrics(run.defended for run in self.runs)

    def report(self) -> dict:
        """JSON-ready soak report (the CI artifact's payload)."""
        return {
            "runs": len(self.runs),
            "kinds": sorted({r.scenario.kind for r in self.runs}),
            "max_detection_latency_ticks": self.max_detection_latency_ticks,
            "latency_by_kind": self.latency_by_kind(),
            "min_honest_retention": round(self.min_honest_retention, 6),
            "retention_by_kind": {
                kind: round(value, 6)
                for kind, value in sorted(self.retention_by_kind().items())
            },
            "false_positive_rate": self.false_positive_rate,
            "detection_bounds_ticks": dict(DETECTION_BOUND_TICKS),
            "retention_floors": dict(HONEST_RETENTION_FLOOR),
        }


def _summarize(
    mediator: PowerMediator,
    apps: list[WorkloadProfile],
    *,
    warmup_s: float,
    mix_id: int,
    arm: str,
) -> MixExperimentResult:
    try:
        return summarize_mix_run(mediator, apps, warmup_s=warmup_s, mix_id=mix_id)
    except SimulationError as exc:
        raise ChaosError(f"cap invariant violated in the {arm} arm: {exc}") from None


def run_adversary_mix(
    kind: str,
    *,
    mix_id: int = 1,
    scenario: AttackScenario | None = None,
    schedule: AdversarySchedule | None = None,
    attacker_index: int = 0,
    config: ServerConfig = DEFAULT_SERVER_CONFIG,
    dt_s: float = 0.1,
    seed: int = 0,
    attack_seed: int | None = None,
    defense: DefenseConfig | None = None,
    compare_undefended: bool = True,
    baseline: PowerMediator | None = None,
) -> AdversaryRunResult:
    """One honest-vs-adversarial comparison with every invariant enforced.

    Args:
        kind: Attack class; picks the :func:`default_attack_scenario` regime
            unless ``scenario`` overrides it.
        mix_id: Table II mix to co-locate.
        scenario: Regime override (policy, cap, timing, bounds).
        schedule: Attack schedule override; by default one attacker (the
            ``attacker_index``-th mix app) runs
            :func:`~repro.adversary.plan.default_adversary_schedule`.
        attacker_index: Which mix app turns adversarial (default schedule
            only).
        seed: Simulation seed, shared by every arm so the arms differ only
            in the attack and the defense.
        attack_seed: Seed for the attack's own RNG stream (probe phase
            jitter); defaults to ``seed``.
        defense: TrustScorer tunables for the defended arms (defaults on).
        compare_undefended: Also run the undefended adversarial arm and
            enforce the defended >= undefended - slack guarantee.
        baseline: A pre-run all-honest control for the same scenario and
            seed (the soak shares one per regime); computed here when
            ``None``. Its trust log is still checked.

    Raises:
        ChaosError: when any invariant fails (the message carries the
            violating numbers).
    """
    if scenario is None:
        scenario = default_attack_scenario(kind)
    elif scenario.kind != kind:
        raise ConfigurationError(
            f"scenario is for kind {scenario.kind!r}, not {kind!r}"
        )
    mix = get_mix(mix_id)
    apps = list(mix.profiles())
    if schedule is None:
        if not 0 <= attacker_index < len(apps):
            raise ConfigurationError(
                f"attacker index {attacker_index} out of range for "
                f"{len(apps)} mix apps"
            )
        schedule = default_adversary_schedule(
            apps[attacker_index].name,
            kind=kind,
            start_s=scenario.attack_start_s,
            seed=seed if attack_seed is None else attack_seed,
        )
    attackers = tuple(schedule.apps())
    names = {p.name for p in apps}
    missing = [a for a in attackers if a not in names]
    if missing:
        raise ConfigurationError(
            f"adversarial apps {missing} are not in mix {mix_id} ({sorted(names)})"
        )
    honest = [p.name for p in apps if p.name not in attackers]
    if not honest:
        raise ConfigurationError(
            "every mix app is adversarial; the harness measures honest-tenant "
            "utility, so at least one tenant must stay honest"
        )
    defense_on = defense if defense is not None else DefenseConfig()
    defense_off = DefenseConfig(enabled=False)

    # Every arm is the run_mix_experiment build; only the attack and the
    # defense differ between them.
    run_arm = partial(
        run_mix_mediator,
        apps,
        scenario.policy,
        scenario.p_cap_w,
        config=config,
        duration_s=scenario.duration_s,
        warmup_s=scenario.warmup_s,
        use_oracle_estimates=True,
        dt_s=dt_s,
        seed=seed,
    )

    # --- arm 1: all-honest control (defense armed, nothing to catch) ------
    if baseline is None:
        baseline = run_arm(defense=defense_on)
    base_summary = _summarize(
        baseline, apps, warmup_s=scenario.warmup_s, mix_id=mix_id, arm="all-honest"
    )
    control_transitions = list(baseline.trust.transitions)
    if control_transitions:
        tr = control_transitions[0]
        raise ChaosError(
            f"false positive: all-honest control moved {tr.app!r} "
            f"{tr.from_state.value} -> {tr.to_state.value} at tick {tr.tick} "
            f"(score {tr.score:.3f}, strikes {tr.strikes}); "
            f"{len(control_transitions)} transition(s) total"
        )

    # --- arm 2: adversarial, defended -------------------------------------
    defended = run_arm(adversaries=schedule, defense=defense_on)
    defended_summary = _summarize(
        defended, apps, warmup_s=scenario.warmup_s, mix_id=mix_id, arm="defended"
    )
    transitions = tuple(
        (tr.tick, tr.app, tr.from_state.value, tr.to_state.value)
        for tr in defended.trust.transitions
    )

    honest_moved = [tr for tr in defended.trust.transitions if tr.app not in attackers]
    if honest_moved:
        tr = honest_moved[0]
        raise ChaosError(
            f"false positive: honest app {tr.app!r} moved "
            f"{tr.from_state.value} -> {tr.to_state.value} at tick {tr.tick} "
            f"during the {kind} attack (score {tr.score:.3f}, "
            f"strikes {tr.strikes})"
        )

    latencies: dict[str, int] = {}
    for attacker in attackers:
        spec = schedule.spec_for(attacker)
        start_tick = int(round(spec.start_s / dt_s))
        latency = defended.trust.detection_latency(attacker, start_tick)
        if latency is None:
            raise ChaosError(
                f"undetected: {kind} attacker {attacker!r} was never "
                f"quarantined in {defended.tick_count} ticks "
                f"(final state {defended.trust.state_of(attacker).value}, "
                f"score {defended.trust.score_of(attacker):.3f})"
            )
        if latency > scenario.detection_bound_ticks:
            raise ChaosError(
                f"slow detection: {kind} attacker {attacker!r} quarantined "
                f"{latency} ticks after the attack opened "
                f"(bound {scenario.detection_bound_ticks})"
            )
        latencies[attacker] = latency

    retention: dict[str, float] = {}
    for app in honest:
        base_tp = base_summary.normalized_throughput[app]
        kept = defended_summary.normalized_throughput[app] / max(base_tp, 1e-9)
        retention[app] = kept
        if kept < scenario.retention_floor:
            raise ChaosError(
                f"honest utility collapsed: {app!r} retained {kept:.4f} of "
                f"its all-honest baseline "
                f"({defended_summary.normalized_throughput[app]:.4f} vs "
                f"{base_tp:.4f}) under the defended {kind} attack "
                f"(floor {scenario.retention_floor})"
            )

    # --- arm 3: adversarial, undefended (the defense must pay its way) ----
    undefended_summary: MixExperimentResult | None = None
    if compare_undefended:
        undefended = run_arm(adversaries=schedule, defense=defense_off)
        undefended_summary = _summarize(
            undefended, apps, warmup_s=scenario.warmup_s, mix_id=mix_id,
            arm="undefended",
        )
        for app in honest:
            with_defense = defended_summary.normalized_throughput[app]
            without = undefended_summary.normalized_throughput[app]
            if with_defense < without - UNDEFENDED_SLACK:
                raise ChaosError(
                    f"defense does net harm: honest app {app!r} got "
                    f"{with_defense:.4f} defended vs {without:.4f} undefended "
                    f"under the {kind} attack (slack {UNDEFENDED_SLACK})"
                )

    return AdversaryRunResult(
        scenario=scenario,
        mix_id=mix_id,
        attackers=attackers,
        detection_latency_ticks=latencies,
        honest_retention=retention,
        false_positives=0,
        baseline=base_summary,
        defended=defended_summary,
        undefended=undefended_summary,
        transitions=transitions,
    )


def run_adversary_soak(
    *,
    kinds: tuple[str, ...] = ADVERSARY_KINDS,
    seeds: list[int] = (0, 1, 2),
    mix_id: int = 1,
    config: ServerConfig = DEFAULT_SERVER_CONFIG,
    dt_s: float = 0.1,
    compare_undefended: bool = True,
) -> AdversarySoakResult:
    """The byzantine soak: every attack kind across a seed matrix.

    All-honest controls are computed once per (regime, seed) and shared by
    the kinds running in that regime - the control has no attacker, so only
    the scenario's policy/cap/timing and the simulation seed shape it.

    Raises:
        ChaosError: on the first run violating any invariant.
    """
    baselines: dict[tuple[str, float, float, int], PowerMediator] = {}
    runs: list[AdversaryRunResult] = []
    for seed in seeds:
        for kind in kinds:
            scenario = default_attack_scenario(kind)
            key = (scenario.policy, scenario.p_cap_w, scenario.total_s, seed)
            if key not in baselines:
                baselines[key] = run_mix_mediator(
                    list(get_mix(mix_id).profiles()),
                    scenario.policy,
                    scenario.p_cap_w,
                    config=config,
                    duration_s=scenario.duration_s,
                    warmup_s=scenario.warmup_s,
                    use_oracle_estimates=True,
                    dt_s=dt_s,
                    seed=seed,
                    defense=DefenseConfig(),
                )
            runs.append(
                run_adversary_mix(
                    kind,
                    mix_id=mix_id,
                    scenario=scenario,
                    config=config,
                    dt_s=dt_s,
                    seed=seed,
                    compare_undefended=compare_undefended,
                    baseline=baselines[key],
                )
            )
    return AdversarySoakResult(runs=tuple(runs))
