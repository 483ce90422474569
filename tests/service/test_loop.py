"""The service event loop: pipeline semantics, config validation, recovery."""

from __future__ import annotations

import pytest

from repro.chaos import kill_at
from repro.errors import ConfigurationError
from repro.persistence.segments import read_segmented
from repro.service import MediatorService, ServiceConfig
from repro.workloads import BurstWindow

# The small, fast recipe lives in the shared ``service_cfg`` fixture
# (tests/conftest.py); tests override individual keys inline.


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ServiceConfig(policy="does-not-exist")
    with pytest.raises(ConfigurationError):
        ServiceConfig(rate_per_s=float("inf"))
    with pytest.raises(ConfigurationError):
        ServiceConfig(backpressure="drop-newest")
    with pytest.raises(ConfigurationError):
        ServiceConfig(cap_levels=(90.0, -1.0))
    with pytest.raises(ConfigurationError):
        ServiceConfig(drain_per_tick=0)
    with pytest.raises(ConfigurationError):
        ServiceConfig(overload_enter_fraction=0.3, overload_exit_fraction=0.5)


def test_open_loop_run_admits_and_completes_jobs(service_cfg, tmp_path):
    config = ServiceConfig(**{**service_cfg, "work_scale": 0.02})
    service = MediatorService(config, tmp_path)
    service.run_for_ticks(400)
    service.close()
    counters = dict(service.metrics.counters())
    assert service.tick == 400
    assert service.mediator.tick_count == 400
    assert counters["service.admit.admitted"] >= 1
    assert counters["service.jobs.completed"] >= 1
    assert counters["service.sessions.deliveries"] > 0


def test_cap_schedule_flows_through_the_safety_lane(service_cfg, tmp_path):
    config = ServiceConfig(**service_cfg)
    service = MediatorService(config, tmp_path)
    service.run_for_ticks(200)  # cap changes at ticks 80 and 160
    service.close()
    counters = dict(service.metrics.counters())
    assert counters["service.commands.cap_applied"] == 2
    assert counters["service.ingest.safety_accepted"] == 2
    assert service.mediator.p_cap_w == 105.0  # second level in force
    # The provisioner got an acknowledgement for each change.
    provisioner = service.sessions.session(config.provisioner_client)
    assert provisioner.next_seq >= 2


def test_identical_runs_hash_identically(service_cfg, tmp_path):
    a = MediatorService(ServiceConfig(**service_cfg), tmp_path / "a")
    b = MediatorService(ServiceConfig(**service_cfg), tmp_path / "b")
    a.run_for_ticks(150)
    b.run_for_ticks(150)
    a.close()
    b.close()
    assert a.content_hash() == b.content_hash()
    assert dict(a.metrics.counters()) == dict(b.metrics.counters())


def test_journal_records_the_command_stream(service_cfg, tmp_path):
    service = MediatorService(ServiceConfig(**service_cfg), tmp_path)
    service.run_for_ticks(120)
    service.close()
    records = read_segmented(service.journal_dir)
    ops = [r["op"] for r in records]
    assert ops[0] == "meta"
    assert ops.count("tick") == 120
    assert ops.count("checkpoint") >= 2  # tick 0 + every 50
    commands = [r for r in records if r["op"] == "command"]
    assert commands, "drained commands must be journaled write-ahead"
    kinds = {c["command"]["kind"] for c in commands}
    assert "set-cap" in kinds
    # Command indices are the global drain sequence: strictly increasing.
    indices = [c["index"] for c in commands]
    assert indices == sorted(indices)


def test_kill_and_warm_restart_is_invisible_in_the_stream(service_cfg, tmp_path):
    baseline = MediatorService(ServiceConfig(**service_cfg), tmp_path / "base")
    baseline.run_for_ticks(160)
    baseline.close()
    chaos = MediatorService(
        ServiceConfig(**service_cfg),
        tmp_path / "chaos",
        tick_hook=kill_at([77]),
        tear_journal_bytes_on_crash=128,
    )
    chaos.run_for_ticks(160)
    chaos.close()
    assert chaos.tick == 160
    assert chaos.content_hash() == baseline.content_hash()
    counters = dict(chaos.metrics.counters())
    assert counters["service.restarts"] == 1
    assert counters["service.replayed_ticks"] >= 1
    # Sim-side accounting matches the uninterrupted run exactly.
    base_counters = dict(baseline.metrics.counters())
    for name in ("service.sessions.deliveries", "service.admit.admitted",
                 "service.commands.cap_applied", "service.ingest.accepted"):
        assert counters.get(name) == base_counters.get(name), name


def test_block_policy_defers_bursts_without_loss(service_cfg, tmp_path):
    config = ServiceConfig(
        **{**service_cfg, "backpressure": "block", "ingest_capacity": 3, "drain_per_tick": 1,
           "overload_drain_per_tick": 1,
           "bursts": (BurstWindow(2.0, 5.0, 60.0),)},
    )
    service = MediatorService(config, tmp_path)
    service.run_for_ticks(300)
    service.close()
    counters = dict(service.metrics.counters())
    assert counters.get("service.ingest.deferred", 0) > 0
    assert counters.get("service.ingest.shed", 0) == 0
    assert counters.get("service.ingest.rejected", 0) == 0
    # Everything offered was eventually accepted or is still carried over.
    assert counters["service.ingest.accepted"] > 0


def test_run_for_ticks_validates(service_cfg, tmp_path):
    service = MediatorService(ServiceConfig(**service_cfg), tmp_path)
    with pytest.raises(ConfigurationError):
        service.run_for_ticks(0)
    service.close()
