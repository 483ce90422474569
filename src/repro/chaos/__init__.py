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
    service_kill_hook,
    service_kill_ticks,
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
    "service_kill_hook",
    "service_kill_ticks",
]
