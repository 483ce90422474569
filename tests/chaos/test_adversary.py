"""Byzantine-chaos harness: honest-vs-adversarial arms and their bounds.

The full all-kinds seed-matrix soak is opt-in (``REPRO_SOAK=1``; CI runs it
as a dedicated job that publishes the detection-latency/false-positive
report); the tier-1 subset runs every attack kind once at seed 0.
"""

from __future__ import annotations

import json

import pytest

from repro.adversary.plan import ADVERSARY_KINDS, default_adversary_schedule
from repro.chaos import (
    default_attack_scenario,
    run_adversary_mix,
    run_adversary_soak,
)
from repro.chaos.adversary import AttackScenario
from repro.errors import ChaosError, ConfigurationError


def scenario_with(kind: str, **overrides) -> AttackScenario:
    base = default_attack_scenario(kind)
    fields = {f: getattr(base, f) for f in base.__dataclass_fields__}
    fields.update(overrides)
    return AttackScenario(**fields)


@pytest.mark.parametrize("kind", ADVERSARY_KINDS)
def test_every_attack_kind_is_caught_within_bounds(kind):
    """The acceptance arms: attacker quarantined within its tick bound,
    honest tenant keeps its retention floor, zero false positives, cap
    invariant on every arm."""
    result = run_adversary_mix(kind, seed=0)
    assert result.attackers == ("stream",)
    scenario = result.scenario
    assert result.worst_detection_latency_ticks <= scenario.detection_bound_ticks
    assert result.worst_retention >= scenario.retention_floor
    assert result.false_positives == 0
    # Honest tenants never appear in the transition log.
    assert all(app == "stream" for _, app, _, _ in result.transitions)
    # The undefended arm ran and the defense did not do net harm.
    assert result.undefended is not None


def test_space_regime_defense_frees_budget_for_honest_tenants():
    """Quarantining a SPACE-regime attacker hands its budget to the honest
    tenant: defended honest throughput beats the undefended run."""
    result = run_adversary_mix("probe", seed=0)
    honest = "kmeans"
    assert (
        result.defended.normalized_throughput[honest]
        > result.undefended.normalized_throughput[honest]
    )


def test_detection_bound_violation_raises_with_numbers():
    tight = scenario_with("inflate", detection_bound_ticks=1)
    with pytest.raises(ChaosError, match="slow detection"):
        run_adversary_mix("inflate", scenario=tight, seed=0, compare_undefended=False)


def test_retention_floor_violation_raises_with_numbers():
    greedy = scenario_with("spike", retention_floor=0.999)
    with pytest.raises(ChaosError, match="honest utility collapsed"):
        run_adversary_mix("spike", scenario=greedy, seed=0, compare_undefended=False)


def test_scenario_kind_mismatch_rejected():
    with pytest.raises(ConfigurationError, match="scenario is for kind"):
        run_adversary_mix("probe", scenario=default_attack_scenario("spike"))


def test_attacker_index_out_of_range_rejected():
    with pytest.raises(ConfigurationError, match="attacker index"):
        run_adversary_mix("probe", attacker_index=7)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError, match="unknown adversary kind"):
        default_attack_scenario("ddos")


def test_schedule_app_must_be_in_the_mix():
    sched = default_adversary_schedule("ghost", kind="probe", start_s=5.0)
    with pytest.raises(ConfigurationError, match="not in mix"):
        run_adversary_mix("probe", schedule=sched)


def test_at_least_one_tenant_must_stay_honest():
    from repro.adversary.plan import AdversarySchedule

    sched = AdversarySchedule(
        specs=(
            default_adversary_schedule("stream", kind="probe", start_s=5.0).specs
            + default_adversary_schedule("kmeans", kind="probe", start_s=5.0).specs
        )
    )
    with pytest.raises(ConfigurationError, match="stay honest"):
        run_adversary_mix("probe", schedule=sched)


def test_mini_soak_shares_baselines_and_aggregates():
    soak = run_adversary_soak(kinds=("probe", "spike"), seeds=[0])
    assert len(soak.runs) == 2
    assert soak.false_positive_rate == 0.0
    assert set(soak.latency_by_kind()) == {"probe", "spike"}
    report = soak.report()
    assert report["runs"] == 2
    assert report["false_positive_rate"] == 0.0
    # Both kinds share the SPACE regime, so they share one baseline summary.
    assert soak.runs[0].baseline == soak.runs[1].baseline
    json.dumps(report)  # the CI artifact payload must be JSON-clean


@pytest.mark.soak
@pytest.mark.timeout(900)
def test_acceptance_byzantine_soak(soak_report):
    """ISSUE 7 acceptance: every strategic-workload kind across the seed
    matrix, three arms each - every attacker quarantined within its per-kind
    tick bound, honest tenants hold their throughput floor vs the all-honest
    baseline, the defense never does net harm vs doing nothing, and the
    false-positive rate is exactly zero."""
    soak = run_adversary_soak(seeds=list(range(10)))
    assert len(soak.runs) == 4 * 10
    assert soak.false_positive_rate == 0.0
    assert set(soak.latency_by_kind()) == set(ADVERSARY_KINDS)
    metrics = soak.metrics()
    assert metrics["counters"].get("defense.transitions.quarantined", 0) >= len(
        soak.runs
    )
    soak_report(soak.report())
