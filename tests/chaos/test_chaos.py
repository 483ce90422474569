"""Chaos-soak harness: kill schedules, invariants, and the seed-matrix soak.

The full 20-seed soak is opt-in (``REPRO_SOAK=1``; CI runs it as a
dedicated job); the tier-1 subset keeps a 2-seed version in every run.
"""

from __future__ import annotations

import pytest

from repro.chaos import kill_at, kill_schedule, mix_recipe, run_chaos_mix, run_chaos_soak
from repro.errors import ChaosError
from repro.faults import default_fault_plan
from repro.persistence import MediatorKilled


def _chaos_mix(apps, policy, cap, *, faults=None, **run_kwargs):
    recipe, script = mix_recipe(
        apps, policy, cap, duration_s=4.0, warmup_s=2.0, faults=faults
    )
    return run_chaos_mix(recipe, script, warmup_s=2.0, **run_kwargs)


def test_kill_schedule_is_seeded_and_sorted():
    a = kill_schedule(60, 5, seed=42)
    b = kill_schedule(60, 5, seed=42)
    assert a == b  # deterministic
    assert a == sorted(a) and len(set(a)) == 5
    assert all(1 <= t < 60 for t in a)
    assert kill_schedule(60, 5, seed=43) != a


def test_kill_schedule_edge_cases():
    assert kill_schedule(1, 3, seed=0) == []
    assert kill_schedule(60, 0, seed=0) == []
    assert len(kill_schedule(5, 100, seed=0)) == 4  # clamped to the run length


def test_kill_at_fires_once_per_scheduled_tick():
    hook = kill_at([3, 5])
    hook(2)
    with pytest.raises(MediatorKilled, match="tick 3"):
        hook(3)
    hook(3)  # recovery re-executes tick 3; it must not die again
    hook(4)
    with pytest.raises(MediatorKilled, match="tick 5"):
        hook(5)
    hook(5)


def test_chaos_mix_survives_kills(tmp_path, apps):
    result = _chaos_mix(
        apps,
        "app+res-aware",
        100.0,
        workdir=tmp_path,
        kill_ticks=[7, 23, 41],
    )
    assert result.recovery.restarts == 3
    assert result.timeline_identical is True
    assert result.utility_gap == 0.0


def test_chaos_mix_with_torn_journal_and_faults(tmp_path, apps):
    result = _chaos_mix(
        apps,
        "app+res-aware",
        100.0,
        workdir=tmp_path,
        kill_ticks=[13, 37],
        faults=default_fault_plan(seed=3),
        tear_journal_bytes_on_crash=250,
    )
    assert result.recovery.restarts == 2
    assert result.timeline_identical is True
    assert result.result.fault_stats is not None


def test_chaos_mix_esd_ledger_conserved(tmp_path, apps):
    result = _chaos_mix(
        apps,
        "app+res+esd-aware",
        80.0,
        workdir=tmp_path,
        kill_ticks=[11, 29],
    )
    # run_chaos_mix raises ChaosError if the battery ledger drifted; reaching
    # here with restarts recorded is the assertion.
    assert result.recovery.restarts == 2
    assert result.timeline_identical is True


def test_safe_hold_disables_identity_check(tmp_path, apps):
    result = _chaos_mix(
        apps,
        "app+res-aware",
        100.0,
        workdir=tmp_path,
        kill_ticks=[17],
        safe_hold_ticks=5,
        utility_tolerance=0.10,
    )
    assert result.timeline_identical is None


def test_utility_violation_raises(tmp_path, apps):
    # An absurd safe hold guard-bands most of the run; with a zero tolerance
    # the utility invariant must trip (and name the kills).
    with pytest.raises(ChaosError, match="deviates"):
        _chaos_mix(
            apps,
            "app+res-aware",
            100.0,
            workdir=tmp_path,
            kill_ticks=[5],
            safe_hold_ticks=55,
            utility_tolerance=0.0,
        )


def test_small_soak(tmp_path, apps):
    soak = run_chaos_soak(
        apps,
        "app+res-aware",
        100.0,
        workdir=tmp_path,
        seeds=[0, 1],
        kills_per_run=2,
        duration_s=4.0,
        warmup_s=2.0,
    )
    assert len(soak.runs) == 2
    assert soak.total_restarts == 4
    assert soak.max_utility_gap == 0.0


@pytest.mark.soak
def test_full_soak_twenty_seeds(tmp_path, apps):
    """The acceptance soak: 20 seeded kill/restart runs, zero sustained cap
    breaches, conserved ledgers, utility within 1% of baseline."""
    soak = run_chaos_soak(
        apps,
        "app+res+esd-aware",
        80.0,
        workdir=tmp_path,
        seeds=list(range(20)),
        kills_per_run=3,
        duration_s=6.0,
        warmup_s=2.0,
        tear_journal_bytes_on_crash=200,
        utility_tolerance=0.01,
    )
    assert len(soak.runs) == 20
    assert soak.total_restarts == 60
    assert soak.max_utility_gap <= 0.01
    assert all(r.timeline_identical for r in soak.runs)
