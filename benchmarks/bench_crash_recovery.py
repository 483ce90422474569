"""Crash recovery: warm restart from checkpoint+journal vs cold relearn.

Not a paper figure - this benchmark prices the PR 2 persistence layer. The
same mix runs three ways under App+Res-Aware at the paper's 80 W cap:

* **uninterrupted** - the reference run;
* **warm recovery** - the mediator is killed at three seeded ticks and the
  supervisor restores the latest checkpoint and replays the journal. Only
  the ticks after the last checkpoint re-execute, the calibration samples
  arrive intact inside the snapshot, and the recovered timeline is
  bit-identical to the reference;
* **cold rerun** - what you do without persistence: start over from tick
  zero and re-pay the online calibration for every application.

The emitted rows report what warm recovery replays (ticks, journal records)
against what a cold start re-executes, and the learning state (samples,
settling seconds) the checkpoint carried over.
"""

import time

import pytest

from benchmarks._tiny import pick, tiny
from repro.analysis.metrics import summarize_recovery
from repro.analysis.reporting import banner, format_table
from repro.chaos import kill_schedule, mix_recipe, run_chaos_mix, run_script
from repro.workloads.mixes import get_mix

CAP_W = 80.0
DURATION_S = pick(20.0, 1.5)
WARMUP_S = pick(5.0, 0.5)
KILLS = pick(3, 1)
CHECKPOINT_EVERY = pick(50, 5)


def test_warm_recovery_vs_cold_relearn(benchmark, emit, tmp_path, bench_metrics):
    apps = list(get_mix(10).profiles())
    recipe, script = mix_recipe(
        apps, "app+res-aware", CAP_W, duration_s=DURATION_S, warmup_s=WARMUP_S, seed=1
    )
    baseline = run_script(recipe, script)
    total_ticks = baseline.tick_count
    kills = kill_schedule(total_ticks, KILLS, seed=7)

    chaos = benchmark.pedantic(
        lambda: run_chaos_mix(
            recipe,
            script,
            workdir=tmp_path,
            kill_ticks=kills,
            warmup_s=WARMUP_S,
            mix_id=10,
            checkpoint_every_ticks=CHECKPOINT_EVERY,
            baseline=baseline,
        ),
        rounds=1,
        iterations=1,
    )

    bench_metrics.record(chaos.result.metrics)
    bench_metrics.record(chaos.baseline.metrics)

    started = time.perf_counter()
    run_script(recipe, script)  # the cold alternative: redo everything
    cold_rerun_s = time.perf_counter() - started

    recovery = summarize_recovery(chaos.recovery, dt_s=0.1)
    replay_fraction = recovery.downtime_ticks / (KILLS * total_ticks)
    emit("\n" + banner(f"CRASH RECOVERY: mix-10 @ {CAP_W:.0f} W, {KILLS} kills"))
    rows = [
        ["uninterrupted", baseline.tick_count, "-", f"{chaos.baseline.server_throughput:.3f}"],
        [
            "warm recovery",
            recovery.downtime_ticks,
            recovery.journal_records_replayed,
            f"{chaos.result.server_throughput:.3f}",
        ],
        ["cold rerun (x3)", KILLS * total_ticks, "-", f"{chaos.baseline.server_throughput:.3f}"],
    ]
    emit(format_table(["path", "ticks executed", "journal records", "server tput"], rows))
    emit(
        f"kills at ticks {list(chaos.kill_ticks)}; checkpoints every "
        f"{CHECKPOINT_EVERY} ticks -> replay is {replay_fraction:.0%} of what "
        f"{KILLS} cold reruns re-execute"
    )
    emit(
        f"learning carried over: {recovery.samples_restored} calibration "
        f"samples, {recovery.cold_relearns_avoided} per-app relearns "
        f"(~{recovery.relearn_cost_avoided_s:.1f} s settling) avoided"
    )
    emit(
        f"wall-clock: one cold rerun {cold_rerun_s * 1e3:.0f} ms vs "
        f"{recovery.downtime_s:.1f} s of simulated downtime replayed across "
        f"{recovery.restarts} restarts"
    )

    # Recovery must beat starting over on every axis that matters.
    assert chaos.timeline_identical is True
    assert recovery.restarts == KILLS
    if not tiny():
        assert recovery.downtime_ticks < KILLS * total_ticks * 0.5
        assert recovery.cold_relearns_avoided == KILLS * len(apps)
    assert chaos.utility_gap == pytest.approx(0.0, abs=1e-12)
