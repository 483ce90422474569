"""Supervised warm restart: determinism, hang detection, recovery costs."""

from __future__ import annotations

import time

import pytest

from repro.analysis.metrics import summarize_recovery
from repro.chaos import kill_at, mix_recipe, run_script
from repro.core.mediator import PowerMediator
from repro.errors import CheckpointError
from repro.learning.sampling import Sampler
from repro.persistence import (
    Advance,
    MediatorKilled,
    SetCap,
    Supervisor,
    read_journal,
)


def _recipe_and_script(stream, kmeans, *, policy="app+res-aware"):
    return mix_recipe([stream, kmeans], policy, 100.0, duration_s=4.0, warmup_s=2.0)


# The acceptance criterion: determinism asserted at >= 3 distinct kill
# points, covering just-after-checkpoint, mid-cadence, and late-run.
@pytest.mark.parametrize("kill_tick", [3, 27, 51])
def test_warm_restart_is_bit_identical(tmp_path, stream, kmeans, kill_tick):
    recipe, script = _recipe_and_script(stream, kmeans)
    baseline = run_script(recipe, script)
    supervisor = Supervisor(
        recipe,
        script,
        tmp_path,
        checkpoint_every_ticks=20,
        tick_hook=kill_at({kill_tick}),
    )
    mediator = supervisor.run()
    assert supervisor.stats.restarts == 1
    assert mediator.timeline == baseline.timeline  # bit-identical, tick for tick
    for name in mediator.managed_apps():
        assert mediator.normalized_throughput(name, since_s=2.0) == (
            baseline.normalized_throughput(name, since_s=2.0)
        )


def test_repeated_kills_make_progress(tmp_path, stream, kmeans):
    recipe, script = _recipe_and_script(stream, kmeans)
    baseline = run_script(recipe, script)
    supervisor = Supervisor(
        recipe,
        script,
        tmp_path,
        checkpoint_every_ticks=15,
        tick_hook=kill_at({5, 6, 7, 30, 31, 55}),
    )
    mediator = supervisor.run()
    assert supervisor.stats.restarts == 6
    assert mediator.timeline == baseline.timeline


def test_kill_during_later_command(tmp_path, stream, kmeans):
    recipe, script = _recipe_and_script(stream, kmeans)
    # Split the advance and drop the cap mid-run; kill right after the E1.
    script = script[:-1] + [Advance(3.0), SetCap(80.0), Advance(3.0)]
    baseline = run_script(recipe, script)
    supervisor = Supervisor(
        recipe,
        script,
        tmp_path,
        checkpoint_every_ticks=25,
        tick_hook=kill_at({31, 44}),
    )
    mediator = supervisor.run()
    assert mediator.p_cap_w == 80.0
    assert mediator.timeline == baseline.timeline


def test_torn_journal_still_recovers(tmp_path, stream, kmeans):
    recipe, script = _recipe_and_script(stream, kmeans)
    baseline = run_script(recipe, script)
    supervisor = Supervisor(
        recipe,
        script,
        tmp_path,
        checkpoint_every_ticks=20,
        fsync_every_ticks=10,
        tick_hook=kill_at({13, 37}),
        tear_journal_bytes_on_crash=300,
    )
    mediator = supervisor.run()
    assert mediator.timeline == baseline.timeline
    # The surviving journal must be readable end to end (no interior damage).
    read_journal(supervisor.journal_path)


def test_hang_detection(tmp_path, stream, kmeans, monkeypatch):
    recipe, script = _recipe_and_script(stream, kmeans)
    baseline = run_script(recipe, script)
    original_step = PowerMediator.step
    hung = []

    def slow_step(self):
        if self.tick_count == 20 and not hung:
            hung.append(True)
            time.sleep(0.05)
        original_step(self)

    monkeypatch.setattr(PowerMediator, "step", slow_step)
    supervisor = Supervisor(
        recipe,
        script,
        tmp_path,
        checkpoint_every_ticks=20,
        tick_deadline_s=0.04,
    )
    mediator = supervisor.run()
    assert supervisor.stats.hangs_detected == 1
    assert supervisor.stats.restarts == 1
    assert mediator.timeline == baseline.timeline


def test_max_restarts_guards_crash_loops(tmp_path, stream, kmeans):
    recipe, script = _recipe_and_script(stream, kmeans)

    def always_dies(tick):
        if tick >= 2:
            raise MediatorKilled("deterministic bug")

    supervisor = Supervisor(
        recipe, script, tmp_path, tick_hook=always_dies, max_restarts=3
    )
    with pytest.raises(CheckpointError, match="gave up after 3 restarts"):
        supervisor.run()


def test_safe_hold_applies_guard_band(tmp_path, stream, kmeans):
    recipe, script = _recipe_and_script(stream, kmeans)
    baseline = run_script(recipe, script)
    observed = []

    def spy(tick: int) -> None:
        observed.append((tick, supervisor.mediator.safe_hold_remaining))
        if tick == 30 and not any(h for _, h in observed):
            raise MediatorKilled("kill for safe-hold test")

    supervisor = Supervisor(
        recipe, script, tmp_path, checkpoint_every_ticks=20, tick_hook=spy,
        safe_hold_ticks=5,
    )
    mediator = supervisor.run()
    assert supervisor.stats.restarts == 1
    # The five post-restart ticks ran in the guard-banded posture.
    held = [h for _, h in observed if h > 0]
    assert held and max(held) == 5
    # Run completes to the same length even though the posture differed.
    assert mediator.tick_count == baseline.tick_count


def test_recovery_accounting(tmp_path, stream, kmeans):
    recipe, script = _recipe_and_script(stream, kmeans)
    supervisor = Supervisor(
        recipe,
        script,
        tmp_path,
        checkpoint_every_ticks=20,
        tick_hook=kill_at({35}),
    )
    supervisor.run()
    stats = supervisor.stats
    assert stats.restarts == 1
    assert stats.hangs_detected == 0
    # Killed before tick 36, last checkpoint at 20: ticks 21-35 replayed.
    assert stats.downtime_ticks == 15
    assert stats.journal_records_replayed >= stats.downtime_ticks
    assert stats.checkpoints_written >= 4  # t0, 20, post-recovery, 40, final
    assert stats.cold_relearns_avoided == 2  # both managed apps kept their state
    per_app = Sampler.budget_from_fraction(recipe.config, recipe.sampler_fraction)
    assert stats.samples_restored == 2 * per_app

    summary = summarize_recovery(stats, dt_s=0.1)
    assert summary.downtime_s == pytest.approx(1.5)
    assert summary.relearn_cost_avoided_s == pytest.approx(2 * 0.8)


def test_unsupervised_stats_stay_zero(tmp_path, stream, kmeans):
    recipe, script = _recipe_and_script(stream, kmeans)
    supervisor = Supervisor(recipe, script, tmp_path, checkpoint_every_ticks=30)
    mediator = supervisor.run()
    assert supervisor.stats.restarts == 0
    assert supervisor.stats.downtime_ticks == 0
    assert mediator.timeline == run_script(recipe, script).timeline
