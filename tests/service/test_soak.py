"""The ISSUE 6 acceptance soak, plus a tier-1 miniature of it.

The miniature runs the same scenario - open-loop traffic with diurnal
modulation and overload bursts, client churn, mid-stream kills with torn
journal tails - at a few hundred ticks so it rides in the default suite.
The full 50k-tick soak is opt-in (``REPRO_SOAK=1``); CI runs it as a
scheduled job and publishes the metrics artifact.
"""

from __future__ import annotations

import pytest

from repro.chaos import ChurnSchedule, kill_schedule, run_service_soak
from repro.errors import ChaosError
from repro.service import ServiceConfig
from repro.workloads import BurstWindow


def _config(**overrides):
    base = dict(
        rate_per_s=0.5,
        clients=4,
        diurnal_amplitude=0.3,
        diurnal_period_s=120.0,
        ingest_capacity=8,
        backpressure="shed-oldest",
        drain_per_tick=2,
        overload_drain_per_tick=1,
        bursts=(BurstWindow(10.0, 16.0, 40.0), BurstWindow(40.0, 45.0, 40.0)),
        cap_levels=(90.0, 110.0, 80.0),
        cap_change_every_s=15.0,
        checkpoint_every_ticks=100,
        telemetry_every_ticks=25,
        work_scale=0.05,
    )
    base.update(overrides)
    return ServiceConfig(**base)


def test_schedules_are_deterministic():
    assert kill_schedule(1000, 3, 7) == kill_schedule(1000, 3, 7)
    a = ChurnSchedule(clients=4, total_ticks=500, events=6, seed=3)
    b = ChurnSchedule(clients=4, total_ticks=500, events=6, seed=3)
    ticks = [t for t in range(900) if a.at(t)]
    assert ticks and [a.at(t) for t in ticks] == [b.at(t) for t in ticks]
    assert a.event_count == 12  # a disconnect and a reconnect per event


def test_miniature_soak(tmp_path):
    report = run_service_soak(
        _config(),
        tmp_path,
        total_ticks=600,
        kills=2,
        churn_events=6,
        chaos_seed=7,
        tear_journal_bytes=256,
        expect_sheds=True,
        expect_overload=True,
    )
    assert report.restarts == 2
    assert report.replayed_ticks > 0
    assert report.shed_commands > 0
    assert report.replayed_deliveries > 0
    assert report.counters["service.ingest.safety_shed"] == 0
    assert report.counters["service.commands.cap_applied"] == 3
    assert report.checkpoint_bytes_max > 0
    assert report.checkpoint_growth <= 1.1


def test_soak_rejects_unmet_expectations(tmp_path):
    # No bursts -> no sheds -> expect_sheds must fail loudly.
    with pytest.raises(ChaosError, match="shed none"):
        run_service_soak(
            _config(bursts=()),
            tmp_path,
            total_ticks=200,
            kills=1,
            churn_events=2,
            chaos_seed=1,
            expect_sheds=True,
        )


@pytest.mark.soak
@pytest.mark.timeout(900)
def test_acceptance_soak_50k(tmp_path, soak_report):
    """ISSUE 6 acceptance: a seeded 50k-tick open-loop soak with client
    churn, ingest overload, and mid-stream supervisor kill/restart holds
    the cap at every tick, keeps footprints (mediator history and
    checkpoint bytes included) bounded, never sheds a
    cap-safety command, replays every reconnect gap-free, and stitches a
    trace that hashes identically to the uninterrupted run."""
    config = _config(
        diurnal_period_s=600.0,
        bursts=(
            BurstWindow(300.0, 330.0, 40.0),
            BurstWindow(1800.0, 1840.0, 40.0),
            BurstWindow(3900.0, 3930.0, 40.0),
        ),
        cap_change_every_s=120.0,
        checkpoint_every_ticks=1000,
    )
    report = run_service_soak(
        config,
        tmp_path,
        total_ticks=50_000,
        kills=3,
        churn_events=12,
        chaos_seed=2020,
        tear_journal_bytes=512,
        expect_sheds=True,
        expect_overload=True,
    )
    assert report.ticks == 50_000
    assert report.restarts == 3
    assert report.counters["service.ingest.safety_shed"] == 0
    assert report.shed_commands > 0
    assert report.replayed_deliveries > 0
    assert report.checkpoint_growth <= 1.1
    soak_report(
        {
            "ticks": report.ticks,
            "kill_ticks": list(report.kill_ticks),
            "restarts": report.restarts,
            "replayed_ticks": report.replayed_ticks,
            "breach_ticks": report.breach_ticks,
            "shed_commands": report.shed_commands,
            "replayed_deliveries": report.replayed_deliveries,
            "trace_hash": report.trace_hash,
            "checkpoint_bytes_max": report.checkpoint_bytes_max,
            "checkpoint_growth": report.checkpoint_growth,
            "counters": report.counters,
        }
    )
