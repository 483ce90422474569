"""Integration: a kill/restart run stitches one continuous trace that is
replay-consistent with - and hashes identically to - an uninterrupted run."""

import pytest

from repro.chaos.harness import mix_recipe, run_chaos_mix, run_script
from repro.errors import ChaosError
from repro.observability.trace import TraceBus, summarize_trace, verify_trace
from repro.persistence.supervisor import Supervisor
from repro.workloads.mixes import get_mix


def _apps():
    return list(get_mix(10).profiles())


def _run_chaos(tmp_path, *, kill_ticks, safe_hold_ticks=0, **overrides):
    bus = TraceBus()
    recipe, script = mix_recipe(
        _apps(),
        "app+res-aware",
        80.0,
        duration_s=8.0,
        warmup_s=2.0,
        use_oracle_estimates=True,
    )
    result = run_chaos_mix(
        recipe,
        script,
        workdir=tmp_path,
        kill_ticks=kill_ticks,
        warmup_s=2.0,
        checkpoint_every_ticks=20,
        safe_hold_ticks=safe_hold_ticks,
        trace_bus=bus,
        **overrides,
    )
    return bus, result


class TestStitchedTrace:
    def test_stitched_hash_equals_uninterrupted(self, tmp_path):
        bus, result = _run_chaos(tmp_path, kill_ticks=[7, 33, 71])
        assert result.recovery.restarts == 3
        assert result.trace_hash == result.baseline_trace_hash
        assert bus.content_hash() == result.trace_hash

    def test_stitched_trace_passes_the_same_invariants(self, tmp_path):
        bus, _ = _run_chaos(tmp_path, kill_ticks=[13, 41])
        checks = verify_trace(bus.events)  # gap-free seqs, consecutive ticks
        assert checks["ticks"] == 100  # (2 s + 8 s) / 0.1 s

    def test_forensic_meta_events_are_recorded_outside_the_hash(self, tmp_path):
        bus, _ = _run_chaos(tmp_path, kill_ticks=[25])
        summary = summarize_trace(bus.events)
        assert summary["kinds"]["crash"] == 1
        assert summary["kinds"]["restore"] == 1
        assert summary["kinds"]["replayed"] == 1
        assert summary["kinds"]["checkpoint"] >= 2  # initial + periodic + post-recovery
        assert summary["restarts"] == 1

    def test_kill_right_after_checkpoint_replays_nothing_extra(self, tmp_path):
        # Tick 20 is a checkpoint boundary (every 20): the truncate mark
        # must be keyed by sequence, not tick, or the journaled commands
        # after the snapshot would double-emit on replay.
        bus, result = _run_chaos(tmp_path, kill_ticks=[20, 21])
        assert result.trace_hash == result.baseline_trace_hash
        verify_trace(bus.events)

    def test_torn_journal_still_stitches(self, tmp_path):
        bus, result = _run_chaos(
            tmp_path, kill_ticks=[37], tear_journal_bytes_on_crash=64
        )
        assert result.trace_hash == result.baseline_trace_hash
        verify_trace(bus.events)

    def test_safe_hold_skips_the_hash_assertion(self, tmp_path):
        # A guard-banded safe posture intentionally diverges from the
        # baseline; the stitched trace must still verify, but identity is
        # not required (mirrors the timeline_identical=None contract).
        bus, result = _run_chaos(
            tmp_path, kill_ticks=[31], safe_hold_ticks=5, utility_tolerance=0.20
        )
        assert result.timeline_identical is None
        verify_trace(bus.events)
        assert result.trace_hash is not None


class TestSupervisedUncrashedRun:
    def test_supervisor_without_kills_matches_plain_script_run(self, tmp_path):
        recipe, script = mix_recipe(
            _apps(),
            "app+res-aware",
            80.0,
            duration_s=6.0,
            warmup_s=2.0,
            use_oracle_estimates=True,
        )
        plain_bus = TraceBus()
        run_script(recipe, script, trace_bus=plain_bus)
        supervised_bus = TraceBus()
        Supervisor(
            recipe,
            script,
            tmp_path,
            checkpoint_every_ticks=25,
            trace_bus=supervised_bus,
        ).run()
        # Checkpointing must be observationally free: same sim stream.
        assert supervised_bus.content_hash() == plain_bus.content_hash()
        kinds = summarize_trace(supervised_bus.events)["kinds"]
        assert kinds["checkpoint"] >= 2
