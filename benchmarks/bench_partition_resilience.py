"""Partition resilience: what lossy cap distribution costs, and what it holds.

Two views of the lease/epoch control plane:

* a severity matrix (loss x partition length) on a small cluster, reporting
  the aggregate performance each equal-split strategy retains relative to
  the oracle (instant, lossless, omniscient) cap distribution;
* a chaos severity sweep on the control plane alone - the one-level,
  10-server budget tree - reporting the budget headroom and message
  accounting across seeded loss/partition/kill schedules.

The invariant the whole subsystem exists for - the sum of effective node
caps never exceeds the cluster budget - is enforced inside every run; these
benchmarks record how much performance that guarantee costs under
increasingly hostile networks.  The oracle path is the upper bound by
construction: the control plane pays for safety with guard-banded safe
caps on silent nodes and lease latency on reclamation.
"""

import pytest

from repro.analysis.reporting import banner, format_table
from repro.chaos import run_hierarchy_chaos
from repro.cluster.cluster import ClusterSimulator
from repro.netsim import NetConfig, PartitionWindow
from repro.observability.metrics import MetricsRegistry
from repro.workloads.mixes import all_mixes
from repro.workloads.traces import ClusterPowerTrace

SHAVE = 0.30

#: The flat 10-server cluster, as the one-level budget tree.
FLAT_CLUSTER = dict(fanouts=(10,), budget_w=800.0)

# (label, loss, partition windows) - none / short cut / long double cut.
SEVERITIES = (
    ("clean", 0.0, ()),
    ("lossy", 0.10, ()),
    ("short cut", 0.10, (PartitionWindow(3, 6, (1,)),)),
    ("long cut", 0.30, (PartitionWindow(2, 10, (0, 1)),)),
)


@pytest.fixture(scope="module")
def small_cluster():
    simulator = ClusterSimulator(mixes=all_mixes()[:3], cap_grid_w=6.0)
    trace = ClusterPowerTrace.synthetic_diurnal(
        peak_w=simulator.uncapped_cluster_power_w(), days=0.15, step_s=600.0, seed=3
    )
    return simulator, trace


def _run(simulator, trace, *, netsim=None, metrics=None):
    return simulator.run(
        trace=trace,
        shave_fractions=(SHAVE,),
        duration_s=6.0,
        warmup_s=2.0,
        seed=1,
        netsim=netsim,
        metrics=metrics,
    )


def test_severity_matrix_perf_retention(benchmark, small_cluster, emit, bench_metrics):
    simulator, trace = small_cluster
    oracle = _run(simulator, trace).results[SHAVE]
    metrics = MetricsRegistry()
    rows = []
    retained = {}
    for label, loss, partitions in SEVERITIES:
        net = NetConfig(
            loss=loss, duplicate=loss / 2.0, jitter_steps=1,
            partitions=partitions, seed=7,
        )
        lossy = _run(simulator, trace, netsim=net, metrics=metrics).results[SHAVE]
        for policy in ("equal-rapl", "equal-ours"):
            base = oracle[policy].aggregate_performance
            got = lossy[policy].aggregate_performance
            retained[(label, policy)] = got / base if base > 0 else 1.0
            rows.append(
                [label, f"{loss:.0%}", policy, base, got,
                 f"{retained[(label, policy)]:.0%}"]
            )
    bench_metrics.record(metrics.to_json())
    result = benchmark(
        lambda: run_hierarchy_chaos(seed=1, n_steps=80, **FLAT_CLUSTER)
    )
    emit("\n" + banner("Partition resilience: perf retained vs oracle distribution"))
    emit(
        format_table(
            ["network", "loss", "policy", "oracle perf", "lossy perf", "retained"],
            rows,
        )
    )
    assert result.headroom_w >= 0.0
    # Safety is never traded away: the lossy path can only lose performance
    # relative to the omniscient oracle, and never goes dark entirely.
    for (label, policy), ratio in retained.items():
        assert 0.0 < ratio <= 1.0 + 1e-9, (label, policy)
    # Consolidation keeps its oracle placement at every severity (it is a
    # baseline, not the system under test).
    assert metrics.counter("controlplane.commands").value > 0


def test_chaos_severity_sweep_headroom(benchmark, emit, bench_metrics):
    runs, registries = [], []
    for seed, loss in ((0, 0.0), (1, 0.1), (2, 0.2), (3, 0.3)):
        metrics = MetricsRegistry()
        runs.append(
            run_hierarchy_chaos(
                seed=seed, n_steps=100, loss=loss, metrics=metrics,
                **FLAT_CLUSTER,
            )
        )
        registries.append(metrics)
        bench_metrics.record(metrics.to_json())
    benchmark(
        lambda: run_hierarchy_chaos(seed=5, n_steps=60, loss=0.2, **FLAT_CLUSTER)
    )
    emit("\n" + banner("Partition chaos sweep: budget headroom under escalation"))
    rows = [
        [
            run.seed,
            f"{run.loss:.0%}",
            run.partition_steps,
            run.killed_node_steps,
            run.headroom_w,
            run.restarts,
            metrics.counter("netsim.dropped_loss").value
            + metrics.counter("netsim.dropped_partition").value,
        ]
        for run, metrics in zip(runs, registries)
    ]
    emit(
        format_table(
            ["seed", "loss", "cut node-steps", "dead node-steps",
             "headroom [W]", "restarts", "drops"],
            rows,
        )
    )
    # Every schedule survived with the invariant intact and converged clean
    # (run_hierarchy_chaos raises ChaosError on a breach or a zombie lease).
    assert all(run.headroom_w >= 0.0 for run in runs)
    # Escalating loss costs real messages - the sweep is not a no-op.
    assert registries[-1].counter("netsim.dropped_loss").value > 0
    assert sum(m.counter("controlplane.retries").value for m in registries) > 0
