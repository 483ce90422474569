"""Sealed mediator history: the fold, its readers, and checkpoint codecs.

A service's mediator folds its past into a fixed-size
:class:`~repro.core.history.SealedHistory` at every checkpoint. These tests
pin that sealing never changes what the run does next, that the summary
does not depend on where the seals fall, that the post-run readers audit
the sealed part (or refuse to answer from a partial window), and that
snapshots without the summary - or with an estimate aliased to its oracle
set - restore exactly.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.simulation import summarize_mix_run, verify_cap_invariant
from repro.errors import SchedulingError, SimulationError
from repro.faults import default_fault_plan
from repro.persistence import RunRecipe


def _faulty_mediator(stream, kmeans, *, oracle=False):
    """A two-app mediator under the built-in fault plan, so fault and
    recovery events land in its history."""
    mediator = RunRecipe(
        policy="app+res-aware",
        p_cap_w=100.0,
        use_oracle_estimates=oracle,
        faults=default_fault_plan(),
    ).build()
    mediator.add_application(stream.with_total_work(float("inf")), skip_overhead=True)
    mediator.add_application(kmeans.with_total_work(float("inf")), skip_overhead=True)
    return mediator


def _run(mediator, ticks, *, seal_every=None, doctor=None):
    for tick in range(1, ticks + 1):
        mediator.step()
        if doctor is not None:
            doctor(mediator)
        if seal_every is not None and tick % seal_every == 0:
            mediator.seal_history()


def _over_cap(mediator, *, breach: bool) -> None:
    """Rewrite the newest record as an over-cap tick (flagged or silent)."""
    record = mediator.timeline[-1]
    mediator.timeline[-1] = dataclasses.replace(
        record, wall_w=record.p_cap_w + 5.0, breach=breach
    )


def _doctor(mediator) -> None:
    """One accounted breach at tick 50, two silent violations at 80 and 90."""
    if mediator.tick_count == 50:
        _over_cap(mediator, breach=True)
        mediator.fault_stats.breach_ticks += 1
    elif mediator.tick_count in (80, 90):
        _over_cap(mediator, breach=False)


def _live_state(mediator) -> dict:
    """The state that drives future ticks (everything but the history)."""
    state = mediator.state_dict()
    for key in ("timeline", "history", "finished", "finished_peaks"):
        del state[key]
    del state["accountant"]["log"]
    return state


def test_sealing_changes_nothing_the_run_does_next(stream, kmeans):
    plain = _faulty_mediator(stream, kmeans)
    sealed = _faulty_mediator(stream, kmeans)
    _run(plain, 300)
    _run(sealed, 300, seal_every=40)
    assert sealed.tick_count == plain.tick_count == 300
    assert _live_state(sealed) == _live_state(plain)
    assert sealed.timeline == plain.timeline[-len(sealed.timeline) :]
    assert sealed.metrics.to_json() == plain.metrics.to_json()


def test_summary_does_not_depend_on_where_the_seals_fall(stream, kmeans):
    histories = []
    for seal_every in (1, 7, 40, 300):
        mediator = _faulty_mediator(stream, kmeans)
        _run(mediator, 300, seal_every=seal_every, doctor=_doctor)
        mediator.seal_history()
        histories.append(mediator.history)
    assert all(h == histories[0] for h in histories)
    summary = histories[0]
    assert summary.ticks == 300
    assert summary.last_time_s == pytest.approx(30.0)
    assert summary.breach_ticks == 1
    assert summary.silent_over_cap == 2
    assert summary.first_silent[0] == pytest.approx(8.0)
    assert summary.event_counts["FaultEvent"] > 0
    assert summary.event_counts["RecoveryEvent"] > 0


def test_seal_releases_timeline_events_and_departures(stream, kmeans):
    mediator = _faulty_mediator(stream, kmeans)
    _run(mediator, 120)
    mediator.remove_application(stream.name)  # an eviction, logged as E3
    events = len(mediator.accountant.event_log)
    mediator.seal_history()
    assert mediator.timeline == []
    assert mediator.accountant.event_log == []
    assert sum(mediator.history.event_counts.values()) == events
    assert mediator.history.event_counts["DepartureEvent"] == 1
    assert mediator.history.departed_evicted == 1
    assert mediator.tick_count == 120
    with pytest.raises(SchedulingError, match="were sealed"):
        mediator.finished_handle(stream.name)
    assert verify_cap_invariant(mediator) == mediator.fault_stats.breach_ticks


def test_sealed_silent_violation_still_raises(stream, kmeans):
    mediator = _faulty_mediator(stream, kmeans)
    _run(mediator, 50)
    _over_cap(mediator, breach=False)
    mediator.seal_history()
    _run(mediator, 20)  # the window itself is clean
    with pytest.raises(SimulationError, match="sealed history records wall"):
        verify_cap_invariant(mediator)


def test_sealed_flag_counter_mismatch_still_raises(stream, kmeans):
    mediator = _faulty_mediator(stream, kmeans)
    _run(mediator, 50)
    _over_cap(mediator, breach=True)  # flagged, but never counted
    mediator.seal_history()
    with pytest.raises(SimulationError, match="breach ticks but the fault counter"):
        verify_cap_invariant(mediator)


def test_readers_refuse_windows_that_reach_into_sealed_ticks(stream, kmeans):
    mediator = _faulty_mediator(stream, kmeans)
    _run(mediator, 100)
    sealed_to = mediator.timeline[-1].time_s
    mediator.seal_history()
    _run(mediator, 60)
    with pytest.raises(SimulationError, match="sealed ticks"):
        mediator.normalized_throughput(kmeans.name, since_s=sealed_to - 1.0)
    with pytest.raises(SimulationError, match="sealed ticks"):
        summarize_mix_run(mediator, [stream, kmeans], warmup_s=0.0)
    # A window that starts at the seal reads only unsealed ticks.
    assert mediator.normalized_throughput(kmeans.name, since_s=sealed_to) > 0.0
    mediator.remove_application(stream.name)
    mediator.seal_history()
    with pytest.raises(SimulationError, match="departed apps were sealed"):
        mediator.server_objective(since_s=mediator.server.now_s)


def test_snapshot_without_history_restores_as_nothing_sealed(stream, kmeans):
    """Checkpoints from before sealing have no ``history`` key and write an
    oracle-aliased estimate out in full; both still restore exactly."""
    recipe = RunRecipe(policy="app+res-aware", p_cap_w=100.0, use_oracle_estimates=True)
    original = recipe.build()
    original.add_application(stream.with_total_work(float("inf")), skip_overhead=True)
    original.add_application(kmeans.with_total_work(float("inf")), skip_overhead=True)
    _run(original, 40)
    old_format = original.state_dict()
    del old_format["history"]
    old_format["estimates"] = dict(old_format["oracle"])
    restored = recipe.build()
    restored.load_state_dict(old_format)
    assert restored.tick_count == 40
    assert restored.history.ticks == 0
    _run(original, 30)
    _run(restored, 30)
    assert restored.timeline == original.timeline
    # Restored from full copies, the estimates are equal but no longer the
    # oracle objects themselves, so they are written out in full again.
    resumed, expected = restored.state_dict(), original.state_dict()
    assert resumed.pop("estimates") == {
        app: expected["oracle"][app] for app in expected.pop("estimates")
    }
    assert resumed == expected


def test_oracle_estimates_are_stored_once_and_relinked(stream, kmeans):
    recipe = RunRecipe(policy="app+res-aware", p_cap_w=100.0, use_oracle_estimates=True)
    original = recipe.build()
    original.add_application(stream.with_total_work(float("inf")), skip_overhead=True)
    original.add_application(kmeans.with_total_work(float("inf")), skip_overhead=True)
    _run(original, 20)
    state = original.state_dict()
    assert set(state["estimates"].values()) == {"oracle"}
    restored = recipe.build()
    restored.load_state_dict(state)
    for app in original.managed_apps():
        assert restored._estimates[app] is restored._oracle[app]
    _run(original, 40)
    _run(restored, 40)
    assert restored.timeline == original.timeline
    assert restored.state_dict() == original.state_dict()


def test_learned_estimates_are_written_in_full(stream, kmeans):
    mediator = _faulty_mediator(stream, kmeans, oracle=False)
    state = mediator.state_dict()
    assert all(isinstance(v, dict) for v in state["estimates"].values())
