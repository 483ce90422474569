"""Tests of the benchmark itself: smoke runs, span bookkeeping, hook
robustness and the determinism self-check.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import HOOKS, Hook, SpanRecorder, Tracer, read_spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
            for line in report
        ), metric["name"]
    if trace:
        assert result["metrics"]["trace.count_mismatches"]["value"] == 0
        assert result["metrics"]["trace.hooks_absent"]["value"] == 0
        assert any(line.startswith("largest self time:") for line in report)
    else:
        for name in ("setup_s", "run_s", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0


def _fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_times_add_up_to_each_parent_duration():
    recorder = SpanRecorder(clock=_fake_clock([0.0, 1.0, 2.0, 2.5, 4.0, 5.0, 9.0, 10.0]))
    a, b, c = (recorder.name_index(n) for n in ("x.a", "y.b", "z.c"))
    root = recorder.open(a)          # 0.0
    child = recorder.open(b)         # 1.0
    grandchild = recorder.open(c)    # 2.0
    recorder.close(grandchild)       # 2.5
    recorder.close(child)            # 4.0
    second = recorder.open(c)        # 5.0
    recorder.close(second)           # 9.0
    recorder.close(root)             # 10.0
    assert recorder.self_times() == [10.0 - 3.0 - 4.0, 3.0 - 0.5, 0.5, 4.0]
    _assert_tree_adds_up(recorder)


def _assert_tree_adds_up(recorder: SpanRecorder) -> None:
    self_times = recorder.self_times()
    durations = [e - s for s, e in zip(recorder.start, recorder.end)]
    children: dict[int, float] = {}
    for index, parent in enumerate(recorder.parent):
        if parent >= 0:
            children[parent] = children.get(parent, 0.0) + durations[index]
    for index, duration in enumerate(durations):
        assert self_times[index] + children.get(index, 0.0) == pytest.approx(duration, abs=1e-12)
        assert self_times[index] >= -1e-9
    roots = sum(d for d, p in zip(durations, recorder.parent) if p < 0)
    assert sum(self_times) == pytest.approx(roots, rel=1e-9)


def test_written_spans_of_a_traced_run_add_up():
    proc = _bench(
        "--workload", "serve-soak", "--seed", "2", "--seconds", "1",
        "--trace", "1", "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    recorder = read_spans(run.OUT_DIR / "spans-serve-soak-seed2-0.json")
    assert len(recorder) > 100
    assert {"service.tick", "persistence.fsync", "core.mediator_run"} <= set(recorder.names)
    _assert_tree_adds_up(recorder)


def test_missing_hook_is_absent_and_the_run_goes_on():
    from workloads import Tree1k

    from repro.hierarchy import tree

    original = tree.TreeTopology.leaf_index
    hooks = HOOKS + (
        Hook("hierarchy.gone", "repro.hierarchy.tree", "TreeTopology.no_such_method"),
        Hook("nowhere.gone", "repro.no_such_module", "anything"),
    )
    with Tracer(hooks) as tracer:
        assert tree.TreeTopology.leaf_index is not original
        work = Tree1k(seed=1, size="tiny", workdir=ROOT / ".perfbench_work")
        for index in range(work.n_steps):
            work.step(index)
            assert work.after_step(index, 0.0) == []
    assert tree.TreeTopology.leaf_index is original
    assert set(tracer.absent) == {
        "repro.hierarchy.tree.TreeTopology.no_such_method",
        "repro.no_such_module.anything",
    }
    assert work.finish([]).problems == []
    calls = tracer.recorder.by_name()
    assert calls["hierarchy.leaf_index"]["calls"] > 0
    assert calls["netsim.send"]["calls"] == tracer.network_stats()["sent"]


def test_count_mismatch_is_flagged():
    units_of = {"netsim.sent": "count", "netsim.send_s": "s"}
    same = [{"layers": {"netsim.sent": 5, "netsim.send_s": 0.1}},
            {"layers": {"netsim.sent": 5, "netsim.send_s": 0.2}}]
    assert run.count_mismatches(same, units_of) == []
    differ = same + [{"layers": {"netsim.sent": 6, "netsim.send_s": 0.1}}]
    assert [m.split(":")[0] for m in run.count_mismatches(differ, units_of)] == ["netsim.sent"]


def test_each_step_takes_its_median_over_units():
    units = [
        {"run_s": sum(steps), "steps_s": steps, "tail_percentile": 100.0, "peak_rss_mb": 1.0}
        for steps in ([1.0, 0.005], [2.0, 0.001], [9.0, 0.002])
    ]
    assert run.median_steps_ms(units) == [2000.0, 2.0]
    metrics = run.end_to_end(units, [0.5])
    assert metrics["run_s"] == pytest.approx(2.002)
    assert metrics["step_ms.tail"] == 9000.0


def test_speed_probe_samples_between_steps_and_stops_its_helper():
    from speed import SpeedProbe

    affinity = os.sched_getaffinity(0)
    probe = SpeedProbe()
    probe.start()
    try:
        assert len(os.sched_getaffinity(0)) == 1
        helper = probe._helper
        probe.sample(3)
        probe.interleave()
        start = time.perf_counter()
        while time.perf_counter() - start < 1.0:
            sum(range(1000))
        probe.stop()
    finally:
        probe.close()
    assert helper.returncode is not None
    assert os.sched_getaffinity(0) == affinity
    assert len(probe.samples) >= 5 and min(probe.samples) > 0
    assert probe.scale() > 0


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "tree-1k", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "error:" in proc.stderr
