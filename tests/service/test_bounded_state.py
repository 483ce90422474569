"""A service's memory and checkpoints stay bounded in run length.

The mediator seals its history at every service checkpoint, so between
checkpoints it holds at most one interval of timeline records and events;
client session windows hold only what a reconnect will replay; so a
checkpoint written late in a run is no larger than one written early. A
kill anywhere, across any number of seals, recovers the uninterrupted run.
"""

from __future__ import annotations

import json
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import ChurnSchedule, kill_at
from repro.chaos.service import DETERMINISTIC_COUNTERS, _HistoryProbe
from repro.core.simulation import verify_cap_invariant
from repro.service import MediatorService, ServiceConfig
from repro.service.retention import RetentionConfig

N = 500

#: The kill-anywhere property's run: a seal every 20 ticks, seven in all.
SEAL_TICKS = 140
SEAL_EVERY = 20


def _config(service_cfg) -> ServiceConfig:
    # Session windows of 16 deliveries, one telemetry broadcast every 5
    # ticks; short jobs complete, so departures are sealed too.
    return ServiceConfig(
        **{
            **service_cfg,
            "telemetry_every_ticks": 5,
            "work_scale": 0.02,
            "retention": RetentionConfig(session_window=16),
        }
    )


def test_checkpoints_and_history_stay_flat(service_cfg, tmp_path):
    config = _config(service_cfg)
    audit = _HistoryProbe()
    service = MediatorService(config, tmp_path, tick_hook=audit)
    audit.service = service
    early = []
    every = config.checkpoint_every_ticks
    while service.tick < N:
        service.run_for_ticks(every)
        early.append(max(service.checkpoint_dir.glob("svc-*.json")).stat().st_size)
    service.run_for_ticks(2 * N)
    service.close()
    late = max(service.checkpoint_dir.glob("svc-*.json"))
    assert late.name == f"svc-{3 * N:08d}.json"
    assert late.stat().st_size <= 1.1 * max(early)
    assert audit.max_timeline <= every
    assert audit.stale_events == 0
    mediator = service.mediator
    assert mediator.tick_count == 3 * N
    assert mediator.history.ticks == 3 * N
    assert mediator.history.departed_completed > 0
    assert mediator.timeline == [] and mediator.accountant.event_log == []
    state = json.loads(late.read_text(encoding="utf-8"))["mediator_state"]
    assert state["timeline"] == [] and state["accountant"]["log"] == []
    assert state["finished"] == {}
    assert state["history"]["ticks"] == 3 * N


def test_kill_and_restore_across_seals_stays_identical(service_cfg, tmp_path):
    """Recovery adds a forward-progress checkpoint (and so a seal) the
    uninterrupted run never takes; the stream and the sealed summary come
    out the same."""
    config = _config(service_cfg)
    baseline = MediatorService(config, tmp_path / "base")
    baseline.run_for_ticks(400)
    baseline.close()
    chaos = MediatorService(
        config,
        tmp_path / "chaos",
        tick_hook=kill_at([130, 277]),
        tear_journal_bytes_on_crash=128,
    )
    chaos.run_for_ticks(400)
    chaos.close()
    assert chaos.metrics.counters()["service.restarts"] == 2
    assert chaos.content_hash() == baseline.content_hash()
    assert chaos.mediator.history == baseline.mediator.history
    assert chaos.mediator.tick_count == baseline.mediator.tick_count == 400


def _churn(config: ServiceConfig) -> ChurnSchedule:
    return ChurnSchedule(
        clients=config.clients, total_ticks=SEAL_TICKS, events=3, seed=1, max_off_ticks=60
    )


@pytest.fixture(scope="module")
def seal_baseline(service_cfg, tmp_path_factory):
    """The uninterrupted run every drawn kill is compared against."""
    config = ServiceConfig(**{**service_cfg, "checkpoint_every_ticks": SEAL_EVERY})
    service = MediatorService(
        config, tmp_path_factory.mktemp("seal-base"), churn=_churn(config)
    )
    service.run_for_ticks(SEAL_TICKS)
    service.close()
    return config, service


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kill=st.integers(min_value=1, max_value=SEAL_TICKS - 1))
def test_kill_anywhere_across_seals_matches_uninterrupted(seal_baseline, kill):
    config, baseline = seal_baseline
    with tempfile.TemporaryDirectory(prefix="repro-seal-") as workdir:
        chaos = MediatorService(
            config,
            workdir,
            churn=_churn(config),
            tick_hook=kill_at([kill]),
            tear_journal_bytes_on_crash=128,
        )
        chaos.run_for_ticks(SEAL_TICKS)
        chaos.close()
    counters = dict(chaos.metrics.counters())
    assert counters["service.restarts"] == 1
    assert chaos.content_hash() == baseline.content_hash()
    base_counters = dict(baseline.metrics.counters())
    for name in DETERMINISTIC_COUNTERS:
        assert counters.get(name, 0.0) == base_counters.get(name, 0.0), name
    verify_cap_invariant(chaos.mediator)
