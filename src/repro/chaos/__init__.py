"""Chaos-soak harness: prove mediation survives its own death.

Kills the mediator at seeded random ticks, lets the
:class:`~repro.persistence.supervisor.Supervisor` warm-restart it from
checkpoint + journal, and asserts the recovery invariants - no sustained cap
breach, conserved battery ledgers, final utility within tolerance of an
uninterrupted baseline, and (when no safe hold is configured) a
bit-identical timeline. Composes with :class:`~repro.faults.plan.FaultPlan`
so substrate faults and mediator crashes can overlap.

The byzantine arm (:mod:`repro.chaos.adversary`) swaps crash faults for
strategic tenants: seeded attack schedules against the mediator's trust
defenses, with honest-utility, detection-latency, and false-positive bounds.

The control-plane arm (:mod:`repro.chaos.hierarchy`) attacks the fabric
that hands the budget down: partitions, loss, leaf kills, failure-domain
outages and stale-checkpoint controller restarts against a budget tree.
``fanouts=(n,)`` runs it on the flat n-server cluster (the one-level tree).

The service arm (:mod:`repro.chaos.service`) kills a streaming
:class:`~repro.service.loop.MediatorService` mid-stream under client churn
and ingest overload. Every arm draws its kill ticks with
:func:`~repro.chaos.harness.kill_schedule`; process kills fire through one
:func:`~repro.chaos.harness.kill_at` hook.
"""

from repro.chaos.adversary import (
    DETECTION_BOUND_TICKS,
    HONEST_RETENTION_FLOOR,
    UNDEFENDED_SLACK,
    AdversaryRunResult,
    AdversarySoakResult,
    AttackScenario,
    default_attack_scenario,
    run_adversary_mix,
    run_adversary_soak,
)
from repro.chaos.harness import (
    ChaosRunResult,
    ChaosSoakResult,
    kill_at,
    kill_schedule,
    mix_recipe,
    run_chaos_mix,
    run_chaos_soak,
    run_script,
)
from repro.chaos.service import (
    ChurnSchedule,
    ServiceSoakReport,
    run_service_soak,
)
from repro.chaos.hierarchy import (
    HierarchyChaosResult,
    HierarchySoakResult,
    kill_outages,
    partition_schedule,
    run_hierarchy_chaos,
    run_hierarchy_soak,
    subtree_outage_schedule,
)

__all__ = [
    "AdversaryRunResult",
    "AdversarySoakResult",
    "AttackScenario",
    "ChaosRunResult",
    "ChaosSoakResult",
    "DETECTION_BOUND_TICKS",
    "HONEST_RETENTION_FLOOR",
    "UNDEFENDED_SLACK",
    "ChurnSchedule",
    "HierarchyChaosResult",
    "HierarchySoakResult",
    "ServiceSoakReport",
    "default_attack_scenario",
    "kill_at",
    "kill_outages",
    "kill_schedule",
    "mix_recipe",
    "partition_schedule",
    "run_hierarchy_chaos",
    "run_hierarchy_soak",
    "subtree_outage_schedule",
    "run_adversary_mix",
    "run_adversary_soak",
    "run_chaos_mix",
    "run_chaos_soak",
    "run_script",
    "run_service_soak",
]
