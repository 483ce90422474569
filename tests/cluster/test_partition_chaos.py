"""Partition schedules and the netsim-integrated cluster experiment.

The flat cluster's partition-chaos soaks run as one-level trees in
``tests/chaos/test_hierarchy_chaos.py``; this module keeps the schedule
draws they share and the Fig-12 cluster replay over a lossy control plane,
pinned to the frozen output of the retired flat driver.
"""

import pytest

import repro.hierarchy
from repro.chaos import (
    kill_outages,
    partition_schedule,
    run_hierarchy_chaos,
    run_hierarchy_soak,
)
from repro.cluster.cluster import ClusterSimulator, NodeOutage, validate_outages
from repro.errors import ConfigurationError
from repro.netsim import NetConfig, PartitionWindow
from repro.observability.trace import TraceBus
from repro.workloads.mixes import all_mixes
from repro.workloads.traces import ClusterPowerTrace
from tests.cluster.flat_plane import assert_matches_flat_oracle

#: The node-outage and partition schedule of the lossy netsim run.
PARTITIONED = dict(
    netsim=NetConfig(
        loss=0.2,
        jitter_steps=1,
        partitions=(PartitionWindow(3, 8, (1,)),),
        seed=5,
    ),
    outages=(NodeOutage(server=0, start_step=6, end_step=10),),
)


class TestSchedules:
    def test_partition_schedule_respects_bounds(self):
        for seed in range(10):
            windows = partition_schedule(
                100, 10, windows=2, max_fraction=0.25, seed=seed
            )
            for w in windows:
                assert w.end_step - w.start_step <= 25
                assert 1 <= len(w.nodes) <= 5  # never a fleet majority
                assert w.end_step <= 100 + 25

    def test_partition_schedule_deterministic(self):
        a = partition_schedule(100, 10, windows=3, max_fraction=0.2, seed=7)
        assert a == partition_schedule(100, 10, windows=3, max_fraction=0.2, seed=7)

    def test_kill_outages_never_overlap_per_node(self):
        for seed in range(10):
            outages = kill_outages(120, 4, kills=6, max_down_steps=30, seed=seed)
            # validate_outages raising would mean same-node overlap.
            validate_outages(outages, n_steps=120, n_servers=4)
            assert all(o.end_step <= 120 for o in outages)

    def test_bad_args(self):
        with pytest.raises(ConfigurationError):
            partition_schedule(100, 10, windows=1, max_fraction=1.5, seed=0)
        with pytest.raises(ConfigurationError):
            run_hierarchy_chaos(seed=0, fanouts=(10,), budget_w=800.0, loss=1.0)
        with pytest.raises(ConfigurationError):
            run_hierarchy_soak(seeds=[], fanouts=(10,), budget_w=800.0)


class TestClusterIntegration:
    @pytest.fixture(scope="class")
    def small(self):
        sim = ClusterSimulator(mixes=all_mixes()[:3], cap_grid_w=6.0)
        trace = ClusterPowerTrace.synthetic_diurnal(
            peak_w=sim.uncapped_cluster_power_w(), days=0.15, step_s=600.0, seed=3
        )
        return sim, trace

    def run(self, sim, trace, **kwargs):
        return sim.run(
            trace=trace,
            shave_fractions=(0.30,),
            duration_s=6.0,
            warmup_s=2.0,
            seed=1,
            **kwargs,
        )

    def test_netsim_none_is_the_oracle_path(self, small):
        sim, trace = small
        a = self.run(sim, trace)
        b = self.run(sim, trace, netsim=None)
        assert a.results == b.results

    def test_netsim_degrades_but_stays_valid(self, small):
        sim, trace = small
        oracle = self.run(sim, trace)
        lossy = self.run(sim, trace, **PARTITIONED)
        for policy in ("equal-rapl", "equal-ours"):
            o = oracle.results[0.30][policy]
            n = lossy.results[0.30][policy]
            assert 0.0 <= n.aggregate_performance <= o.aggregate_performance + 1e-9
        # Consolidation keeps its oracle placement either way.
        assert (
            lossy.results[0.30]["consolidation-migration"].aggregate_performance
            == oracle.results[0.30]["consolidation-migration"].aggregate_performance
        )

    def test_netsim_run_is_deterministic(self, small):
        sim, trace = small
        net = NetConfig(loss=0.25, jitter_steps=2, seed=9)
        a = self.run(sim, trace, netsim=net)
        b = self.run(sim, trace, netsim=net)
        assert a.results == b.results

    @pytest.mark.parametrize(
        "case, kwargs",
        [
            ("cluster_partitioned", PARTITIONED),
            ("cluster_lossy", dict(netsim=NetConfig(loss=0.25, jitter_steps=2, seed=9))),
        ],
        ids=["partitioned", "lossy"],
    )
    def test_netsim_replay_matches_frozen_flat_oracle(
        self, small, monkeypatch, case, kwargs
    ):
        # The equal-split caps come from a one-level budget tree; its
        # replay and the whole run's trace must equal what the retired flat
        # driver produced for the same fixture.
        sim, trace = small
        replays = []
        run_budget_tree = repro.hierarchy.run_budget_tree

        def spy(*args, **kw):
            replays.append(run_budget_tree(*args, **kw))
            return replays[-1]

        monkeypatch.setattr(repro.hierarchy, "run_budget_tree", spy)
        bus = TraceBus()
        self.run(sim, trace, trace_bus=bus, **kwargs)
        assert len(replays) == 1
        assert replays[0].depth == 1
        assert_matches_flat_oracle(case, replays[0], bus.content_hash())
