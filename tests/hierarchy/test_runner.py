"""The budget-tree runner: bit-identity, invariants, degradation, recovery."""

import pytest

from repro.cluster.controlplane import NodeAgent
from repro.errors import NetworkError, SimulationError
from repro.hierarchy import (
    BudgetTreeSimulator,
    SubtreeOutage,
    TreeSpec,
    run_budget_tree,
)
from repro.netsim import NetConfig, PartitionWindow
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import HIERARCHY_KINDS, TraceBus, verify_trace
from tests.cluster.flat_plane import assert_matches_flat_oracle, flat_run

LOSSY = NetConfig(latency_steps=1, jitter_steps=2, loss=0.15, duplicate=0.05, seed=7)


def run_tree(fanouts=(3, 4), budget_w=1200.0, steps=60, **kwargs):
    defaults = dict(net=NetConfig(seed=1), drain_steps=15)
    defaults.update(kwargs)
    spec = TreeSpec(fanouts=fanouts, budget_w=budget_w)
    n = spec.n_leaves
    return run_budget_tree(spec, [n] * steps, **defaults)


class TestDegenerateDepthOne:
    """A one-level tree IS the flat control plane - bit for bit, pinned to
    the output the retired flat driver produced on the same cases."""

    @staticmethod
    def replay(n, budget_w, loads, **kwargs):
        bus = TraceBus()
        outcome = flat_run(n, budget_w, loads, trace_bus=bus, **kwargs)
        return outcome, bus.content_hash()

    @pytest.mark.parametrize(
        "net, case",
        [(NetConfig(seed=1), "clean8"), (LOSSY, "lossy8")],
        ids=["net0", "net1"],
    )
    def test_bit_identical_to_flat_control_plane(self, net, case):
        loads = [4, 6, 8, 8, 8, 5, 3, 8] * 5
        outcome, trace_hash = self.replay(
            8, 800.0, loads, net=net, drain_steps=12
        )
        assert_matches_flat_oracle(case, outcome, trace_hash)
        assert set(outcome.final_epochs) == {"root"}
        assert outcome.node_epochs == {}

    def test_trace_hash_identical_to_flat(self):
        outcome, trace_hash = self.replay(6, 600.0, [6] * 40, net=LOSSY)
        assert_matches_flat_oracle("lossy6", outcome, trace_hash)

    def test_leaf_down_matches_flat_down_sets(self):
        steps = 50
        down = [
            frozenset({0}) if 15 <= t < 35 else frozenset() for t in range(steps)
        ]
        outcome, trace_hash = self.replay(
            4, 400.0, [4] * steps,
            net=NetConfig(seed=2), leaf_down_sets=down, drain_steps=10,
        )
        assert_matches_flat_oracle("down4", outcome, trace_hash)


class TestInvariant:
    @pytest.mark.parametrize("fanouts", [(3, 4), (2, 3, 2)])
    def test_caps_never_exceed_budget_under_loss(self, fanouts):
        out = run_tree(fanouts=fanouts, steps=80, net=LOSSY)
        for row in out.caps_w:
            assert sum(row) <= out.budget_w + 1e-6
        assert out.max_total_cap_w <= out.budget_w + 1e-6
        assert out.zombie_free

    def test_safe_tier_is_reachable_without_any_messages(self):
        # Total loss: every node should still enforce its static safe cap.
        out = run_tree(
            steps=30, net=NetConfig(loss=0.999999, seed=3), drain_steps=0
        )
        leaf_safe = out.safe_caps_by_level_w[-1]
        assert out.caps_w[-1] == (leaf_safe,) * out.n_leaves

    def test_extras_flow_down_on_a_clean_network(self):
        out = run_tree(steps=60, net=NetConfig(seed=1))
        leaf_safe = out.safe_caps_by_level_w[-1]
        final = out.caps_w[-1]
        assert all(cap >= leaf_safe for cap in final)
        # Delegation must beat the pure safe tier by a real margin.
        assert sum(final) > out.n_leaves * leaf_safe * 1.05

    def test_deterministic_replay(self):
        assert run_tree(net=LOSSY) == run_tree(net=LOSSY)

    @pytest.mark.parametrize("overshoot, raises", [(2e-6, True), (5e-7, False)])
    def test_leaf_sum_tolerance_does_not_grow_with_fanout(
        self, monkeypatch, overshoot, raises
    ):
        # The budget check allows one float epsilon (1e-6 W) in total, not
        # one per child: ten leaves 2e-7 W over their share each overshoot
        # the budget by 2e-6 W, and that is a breach.
        sim = BudgetTreeSimulator(
            TreeSpec(fanouts=(10,), budget_w=800.0), net=NetConfig(seed=1)
        )
        share = (800.0 + overshoot) / 10
        monkeypatch.setattr(NodeAgent, "effective_cap_w", lambda self, step: share)
        if raises:
            with pytest.raises(SimulationError, match="invariant violated"):
                sim.step(0, frozenset(range(10)))
        else:
            assert sum(sim.step(0, frozenset(range(10)))) > 800.0


class TestPartitionAutonomy:
    def test_cut_subtree_keeps_mediating_on_safe_tier(self):
        # PDU 0 is cut from the root long enough for its upstream lease to
        # lapse; its own controller keeps running, so its leaves must hold
        # the subtree's safe-tier share, not collapse to zero.
        steps = 90
        out = run_tree(
            fanouts=(3, 4),
            steps=steps,
            net=NetConfig(
                partitions=(PartitionWindow(20, 70, (0,)),), seed=5
            ),
        )
        leaf_safe = out.safe_caps_by_level_w[-1]
        mid = out.caps_w[60]
        for leaf in range(4):  # leaves under PDU 0
            assert mid[leaf] >= leaf_safe - 1e-9
        # After the heal the subtree is re-granted upstream extras.
        assert sum(out.caps_w[-1][:4]) > sum(mid[:4])
        assert out.fallbacks >= 1
        assert out.heals >= 1
        assert out.zombie_free

    def test_fallback_and_heal_are_traced(self):
        bus = TraceBus()
        run_tree(
            fanouts=(3, 4),
            steps=90,
            net=NetConfig(partitions=(PartitionWindow(20, 70, (0,)),), seed=5),
            trace_bus=bus,
        )
        verify_trace(bus.events)
        kinds = {e.kind for e in bus.events}
        assert "hier-fallback" in kinds and "hier-heal" in kinds
        assert kinds & HIERARCHY_KINDS
        scopes = {
            e.payload.get("scope") for e in bus.events if e.kind == "cp-command"
        }
        assert "root" in scopes and {"0", "1", "2"} <= scopes

    def test_deep_partition_key_must_name_interior_node(self):
        with pytest.raises(NetworkError, match="partition key"):
            BudgetTreeSimulator(
                TreeSpec(fanouts=(3, 4), budget_w=1200.0),
                net=NetConfig(seed=1),
                partitions={"9": (PartitionWindow(0, 5, (0,)),)},
            )

    def test_deep_partition_cuts_one_rack_fabric(self):
        # A partition inside PDU 0's fabric (cutting child 0 = 4 leaves).
        out = run_tree(
            fanouts=(3, 4),
            steps=90,
            partitions={"0": (PartitionWindow(20, 70, (0, 1, 2, 3)),)},
        )
        assert out.max_total_cap_w <= out.budget_w + 1e-6
        assert out.zombie_free


class TestSubtreeOutages:
    def test_whole_pdu_dark_then_recovering(self):
        metrics = MetricsRegistry()
        out = run_tree(
            fanouts=(3, 4),
            steps=100,
            net=NetConfig(seed=9),
            subtree_outages=(SubtreeOutage(path=(1,), start_step=20, end_step=60),),
            metrics=metrics,
        )
        assert out.max_total_cap_w <= out.budget_w + 1e-6
        assert out.zombie_free
        leaf_safe = out.safe_caps_by_level_w[-1]
        # Siblings keep (at least) their own flow while PDU 1 is dark.
        mid = out.caps_w[50]
        assert all(cap >= leaf_safe - 1e-9 for cap in mid[:4])
        assert all(cap >= leaf_safe - 1e-9 for cap in mid[8:])
        # After recovery the dark leaves are granted extras again.
        assert sum(out.caps_w[-1][4:8]) > 4 * leaf_safe

    def test_outage_schedule_validated_against_tree(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match=r"outages\[0\]\.path"):
            run_tree(
                subtree_outages=(
                    SubtreeOutage(path=(9,), start_step=0, end_step=5),
                )
            )


class TestCrashRestart:
    def test_interior_controller_restart_from_stale_checkpoint(self):
        spec = TreeSpec(fanouts=(3, 4), budget_w=1200.0)
        metrics = MetricsRegistry()
        sim = BudgetTreeSimulator(spec, net=NetConfig(seed=4), metrics=metrics)
        loaded = frozenset(range(spec.n_leaves))
        snapshot = None
        for step in range(120):
            if step == 30:
                snapshot = sim.checkpoint((0,))
            if step == 38:
                # Crash PDU 0's controller and restore the 8-step-old state.
                sim.restore((0,), snapshot, step, checkpoint_age_steps=8)
            row = sim.step(step, loaded)
            assert sum(row) <= spec.budget_w + 1e-6
        assert sim.restarts == 1
        assert metrics.counter("hierarchy.restarts").value == 1
        assert metrics.counter("controlplane.restarts").value == 1
        assert sim.zombie_free(119)

    def test_restart_epoch_skips_past_dead_incarnation(self):
        spec = TreeSpec(fanouts=(4,), budget_w=400.0)
        sim = BudgetTreeSimulator(spec, net=NetConfig(seed=4))
        loaded = frozenset(range(4))
        for step in range(20):
            sim.step(step, loaded)
        snapshot = sim.checkpoint(())
        epoch_then = sim.nodes[()].controller.epoch
        for step in range(20, 30):
            sim.step(step, loaded)
        sim.restore((), snapshot, 30, checkpoint_age_steps=10)
        # (age + 1) * fanout bounds what the dead incarnation issued.
        assert sim.nodes[()].controller.epoch >= epoch_then + 44
        for step in range(30, 80):
            row = sim.step(step, loaded)
            assert sum(row) <= spec.budget_w + 1e-6
        assert sim.zombie_free(79)


class TestSchedules:
    def test_empty_schedule_rejected(self):
        with pytest.raises(NetworkError, match="at least one step"):
            run_budget_tree(
                TreeSpec(fanouts=(2,), budget_w=200.0), [], net=NetConfig()
            )

    def test_overloaded_counts_rejected(self):
        with pytest.raises(NetworkError, match="loaded_counts"):
            run_budget_tree(
                TreeSpec(fanouts=(2,), budget_w=200.0), [3], net=NetConfig()
            )

    def test_mismatched_down_sets_rejected(self):
        with pytest.raises(NetworkError, match="leaf_down_sets"):
            run_budget_tree(
                TreeSpec(fanouts=(2,), budget_w=200.0),
                [2, 2],
                leaf_down_sets=[frozenset()],
                net=NetConfig(),
            )


class TestTelemetry:
    def test_demand_aggregates_upward(self):
        # Half-loaded tree: the root's reported demand should eventually
        # approximate the loaded leaves' nominal share, not the full fleet.
        spec = TreeSpec(fanouts=(2, 4), budget_w=800.0)
        sim = BudgetTreeSimulator(spec, net=NetConfig(seed=1))
        loaded = frozenset(range(4))  # only PDU 0's leaves
        for step in range(40):
            sim.step(step, loaded)
        root = sim.nodes[()].controller
        per_leaf = 800.0 / 8
        assert root.total_reported_demand_w() == pytest.approx(
            4 * per_leaf, rel=0.01
        )
        assert root.reported_demand_w(1) == pytest.approx(0.0, abs=1e-9)

    def test_hierarchy_gauges_exported(self):
        metrics = MetricsRegistry()
        run_tree(fanouts=(3, 4), metrics=metrics)
        gauges = metrics.gauges()
        assert gauges["hierarchy.levels"] == 2.0
        assert gauges["hierarchy.leaves"] == 12.0
        assert gauges["hierarchy.nodes"] == 4.0
        assert 0.0 < gauges["hierarchy.max_utilization"] <= 1.0 + 1e-9
