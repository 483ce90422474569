"""Control-plane chaos soaks: trees and the flat cluster under composed faults.

The quick tier always runs a few composed tree schedules and a few flat
10-server ones (the one-level tree: loss, partitions and node kills, no
failure domains). Two acceptance matrices are opt-in via ``REPRO_SOAK=1``
and run in CI's control-plane soak job: 20 flat seeds (loss up to 30%,
partitions up to 25% of the trace, composed with node kills) and 12 tree
seeds (domain outages composed with root partitions, leaf kills, and
stale-checkpoint controller restarts).
"""

import pytest

from repro.chaos import (
    run_hierarchy_chaos,
    run_hierarchy_soak,
    subtree_outage_schedule,
)
from repro.errors import ChaosError, ConfigurationError
from repro.hierarchy import validate_subtree_outages


class TestOutageSchedule:
    def test_deterministic(self):
        interior = [(0,), (1,), (2,)]
        a = subtree_outage_schedule(
            100, interior, outages=3, max_down_steps=20, seed=5
        )
        assert a == subtree_outage_schedule(
            100, interior, outages=3, max_down_steps=20, seed=5
        )

    def test_windows_stay_inside_trace_and_never_nest(self):
        from repro.cluster.controlplane import ControlPlaneConfig
        from repro.hierarchy import TreeSpec, TreeTopology

        topo = TreeTopology(
            spec=TreeSpec(fanouts=(2, 3, 2), budget_w=6000.0),
            config=ControlPlaneConfig(),
        )
        interior = [p for p in topo.interior_paths() if p]
        for seed in range(10):
            outages = subtree_outage_schedule(
                100, interior, outages=4, max_down_steps=25, seed=seed
            )
            # validate raising would mean a nested overlap slipped through.
            validate_subtree_outages(outages, topo, n_steps=100)
            assert all(o.end_step <= 100 for o in outages)

    def test_empty_inputs_yield_no_outages(self):
        assert subtree_outage_schedule(100, [], outages=2, max_down_steps=10, seed=0) == ()
        assert subtree_outage_schedule(100, [(0,)], outages=0, max_down_steps=10, seed=0) == ()


class TestQuickChaos:
    def test_composed_run_holds_every_promise(self):
        result = run_hierarchy_chaos(seed=7, fanouts=(3, 4), n_steps=100)
        assert result.headroom_w >= 0.0
        assert result.domain_outages > 0
        assert result.restarts >= 1
        assert result.min_sibling_ratio >= 0.75
        # The schedule actually hurt: subtrees lost and re-acquired leases.
        assert result.fallbacks > 0 and result.heals > 0

    def test_depth_three_tree_survives(self):
        result = run_hierarchy_chaos(
            seed=3, fanouts=(2, 3, 2), budget_w=6000.0, n_steps=100
        )
        assert result.headroom_w >= 0.0
        assert result.n_leaves == 12

    def test_small_severity_sweep(self):
        soak = run_hierarchy_soak(seeds=[0, 1, 2], fanouts=(2, 3), n_steps=80)
        assert len(soak.runs) == 3
        assert soak.min_headroom_w >= 0.0
        assert soak.runs[0].loss < soak.runs[-1].loss == pytest.approx(0.3)

    def test_bad_args(self):
        with pytest.raises(ConfigurationError):
            run_hierarchy_chaos(seed=0, loss=1.0)
        with pytest.raises(ConfigurationError):
            run_hierarchy_soak(seeds=[])

    def test_zombie_detection_raises_chaoserror(self, monkeypatch):
        from repro.hierarchy import BudgetTreeSimulator

        monkeypatch.setattr(
            BudgetTreeSimulator, "zombie_free", lambda self, step: False
        )
        with pytest.raises(ChaosError, match="zombie|lease"):
            run_hierarchy_chaos(seed=0, fanouts=(2, 2), n_steps=60)


class TestFlatCluster:
    """The flat partition soak: a 10-server cluster is the one-level tree."""

    FLAT = dict(fanouts=(10,), budget_w=800.0)

    def test_composed_run_holds_the_invariant(self):
        result = run_hierarchy_chaos(seed=1, n_steps=80, **self.FLAT)
        # Returning at all means the drained plane held no zombie extras
        # (run_hierarchy_chaos raises ChaosError otherwise).
        assert result.headroom_w >= 0.0
        assert result.partition_steps > 0
        assert result.killed_node_steps > 0
        assert result.domain_outages == 0  # no interior level to darken

    def test_small_severity_sweep(self):
        soak = run_hierarchy_soak(seeds=[0, 1, 2, 3], n_steps=80, **self.FLAT)
        assert len(soak.runs) == 4
        assert soak.min_headroom_w >= 0.0
        # The sweep actually ramps severity.
        assert soak.runs[0].loss < soak.runs[-1].loss == pytest.approx(0.3)

    def test_zombie_detection_raises_chaoserror(self, monkeypatch):
        from repro.hierarchy import BudgetTreeSimulator

        monkeypatch.setattr(
            BudgetTreeSimulator, "zombie_free", lambda self, step: False
        )
        with pytest.raises(ChaosError, match="zombie|extra"):
            run_hierarchy_chaos(seed=0, **self.FLAT)


@pytest.mark.soak
class TestAcceptanceSoak:
    # The flat soak keeps the 600 s budget it had in its own CI step.
    @pytest.mark.timeout(600)
    def test_twenty_seeds_flat_cluster_full_severity(self):
        # The flat acceptance matrix: >= 20 seeded schedules on the
        # 10-server cluster, loss up to 30%, partitions up to 25% of the
        # trace, composed with node kills.
        soak = run_hierarchy_soak(
            seeds=list(range(20)),
            fanouts=(10,),
            budget_w=800.0,
            n_steps=120,
            max_loss=0.3,
        )
        assert len(soak.runs) == 20
        assert soak.min_headroom_w >= 0.0
        assert soak.total_partition_steps > 0
        assert soak.total_killed_node_steps > 0

    def test_twelve_seeds_full_severity(self, soak_report):
        # The acceptance matrix: 12 seeded schedules against a 3-level,
        # 24-server tree, loss up to 30%, domain outages at PDU and rack
        # levels composed with root partitions, leaf kills, and
        # stale-checkpoint controller restarts.
        soak = run_hierarchy_soak(
            seeds=list(range(12)),
            fanouts=(2, 3, 4),
            budget_w=12000.0,
            n_steps=120,
            max_loss=0.3,
            domain_outages=2,
            controller_kills=1,
        )
        assert len(soak.runs) == 12
        assert soak.min_headroom_w >= 0.0
        assert soak.min_sibling_ratio >= 0.75
        assert soak.total_domain_outages > 0
        assert soak.total_restarts > 0
        soak_report(soak.report())
