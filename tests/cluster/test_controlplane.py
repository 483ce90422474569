"""The cap-distribution control plane: safety, leases, epochs, recovery.

Replays go through :func:`~tests.cluster.flat_plane.flat_run`: the flat
cluster (one controller, ``n`` node agents) is the one-level budget tree.
"""

import pytest

from repro.cluster.controlplane import (
    CapAck,
    ClusterController,
    ControlPlaneConfig,
    NodeAgent,
    SetCapCmd,
)
from repro.errors import NetworkError
from repro.netsim import CONTROLLER, NetConfig, PartitionWindow, SimNetwork
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import (
    CONTROL_PLANE_KINDS,
    TraceBus,
    verify_trace,
)
from tests.cluster.flat_plane import flat_run


def clean_run(n_nodes=4, budget_w=400.0, steps=30, **kwargs):
    kwargs.setdefault("loaded_counts", [n_nodes] * steps)
    kwargs.setdefault("net", NetConfig(seed=1))
    return flat_run(n_nodes, budget_w, **kwargs)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lease_steps": 1},
            {"renew_before_steps": 0},
            {"renew_before_steps": 10, "lease_steps": 10},
            {"heartbeat_every_steps": 0},
            {"suspect_after_steps": 2, "heartbeat_every_steps": 2},
            {"safe_guard_band": 0.0},
            {"safe_guard_band": 1.0},
        ],
    )
    def test_bad_config(self, kwargs):
        with pytest.raises(NetworkError):
            ControlPlaneConfig(**kwargs)

    def test_bad_schedules(self):
        with pytest.raises(NetworkError):
            flat_run(2, 100.0, [], net=NetConfig())
        with pytest.raises(NetworkError):
            flat_run(2, 100.0, [3], net=NetConfig())
        with pytest.raises(NetworkError):
            flat_run(
                2, 100.0, [1, 1], leaf_down_sets=[frozenset()], net=NetConfig()
            )


class TestCleanNetwork:
    def test_converges_to_even_full_budget_split(self):
        out = clean_run()
        assert out.safe_caps_by_level_w == (90.0,)  # quantized (1-0.1)*400/4
        assert out.caps_w[0] == (90.0,) * 4  # nothing granted yet: safe caps
        assert out.caps_w[-1] == (100.0,) * 4  # full budget distributed
        assert out.max_total_cap_w <= out.budget_w + 1e-6

    def test_epochs_are_unique_and_monotone_per_node(self):
        out = clean_run()
        assert len(set(out.leaf_epochs)) == len(out.leaf_epochs)
        assert all(0 < e <= out.final_epochs["root"] for e in out.leaf_epochs)

    def test_unloaded_nodes_hold_safe_cap_only(self):
        out = clean_run(loaded_counts=[2] * 30)
        final = out.caps_w[-1]
        safe = out.safe_caps_by_level_w[0]
        assert final[2] == final[3] == safe
        assert final[0] == final[1] > safe

    def test_rated_cap_clamps_grants(self):
        out = clean_run(rated_leaf_cap_w=95.0)
        assert out.caps_w[-1] == (95.0,) * 4
        assert out.max_total_cap_w <= out.budget_w + 1e-6

    def test_deterministic_replay(self):
        assert clean_run() == clean_run()


class TestLeasesAndEpochs:
    def test_partitioned_node_falls_back_to_safe_cap(self):
        # Node 0 is cut off for long enough that its lease must lapse.
        out = clean_run(
            steps=60,
            net=NetConfig(partitions=(PartitionWindow(20, 50, (0,)),), seed=1),
        )
        safe = out.safe_caps_by_level_w[0]
        mid = out.caps_w[40]
        assert mid[0] == safe  # lease expired behind the cut
        assert out.caps_w[-1][0] > safe  # re-granted after heal
        assert out.max_total_cap_w <= out.budget_w + 1e-6

    def test_budget_never_exceeded_during_redistribution(self):
        # While the cut node's lease is still live its extra must NOT be
        # re-granted; the sum stays bounded through the whole handover.
        out = clean_run(
            steps=80,
            net=NetConfig(partitions=(PartitionWindow(20, 60, (0, 1)),), seed=3),
        )
        for row in out.caps_w:
            assert sum(row) <= out.budget_w + 1e-6

    def test_stale_epoch_rejected_by_agent(self):
        config = ControlPlaneConfig()
        metrics = MetricsRegistry()
        net = SimNetwork(NetConfig(), n_nodes=1)
        agent = NodeAgent(
            0, safe_cap_w=50.0, rated_cap_w=100.0, config=config, metrics=metrics
        )
        net.send(CONTROLLER, 0, SetCapCmd(0, epoch=5, extra_w=10.0, lease_expiry_step=20), 0)
        agent.step(1, net)
        assert agent.epoch == 5 and agent.extra_w == 10.0
        # A delayed lower-epoch command must not roll the node back.
        net.send(CONTROLLER, 0, SetCapCmd(0, epoch=3, extra_w=40.0, lease_expiry_step=30), 1)
        agent.step(2, net)
        assert agent.epoch == 5 and agent.extra_w == 10.0
        assert metrics.counter("controlplane.epoch_rejections").value == 1
        # The rejection ack reports the node's true state.
        acks = [m for _, m in net.deliver(CONTROLLER, 3) if isinstance(m, CapAck)]
        assert acks[-1].rejected and acks[-1].epoch == 5

    def test_lease_expiry_on_agent_clock(self):
        agent = NodeAgent(
            0, safe_cap_w=50.0, rated_cap_w=100.0, config=ControlPlaneConfig()
        )
        net = SimNetwork(NetConfig(), n_nodes=1)
        net.send(CONTROLLER, 0, SetCapCmd(0, epoch=1, extra_w=10.0, lease_expiry_step=5), 0)
        agent.step(1, net)
        assert agent.effective_cap_w(4) == 60.0
        assert agent.effective_cap_w(5) == 50.0  # absolute expiry
        agent.step(5, net)
        assert agent.extra_w == 0.0


class TestLeaseExpiryEdges:
    """The awkward ticks: expiry meeting heal, flapping, stale duplicates."""

    def test_renewal_on_expiry_tick_replaces_dead_lease_atomically(self):
        # A heal that delivers the renewal on the very tick the old lease
        # dies must never produce a step where both grants count - and
        # never a gap where the node is stuck at safe cap despite the
        # renewal having landed.
        agent = NodeAgent(
            0, safe_cap_w=50.0, rated_cap_w=200.0, config=ControlPlaneConfig()
        )
        net = SimNetwork(NetConfig(), n_nodes=1)
        net.send(CONTROLLER, 0, SetCapCmd(0, epoch=1, extra_w=30.0, lease_expiry_step=10), 0)
        agent.step(1, net)
        assert agent.effective_cap_w(9) == 80.0
        # Dead on the agent's own clock at exactly the expiry step.
        assert agent.effective_cap_w(10) == 50.0
        net.send(CONTROLLER, 0, SetCapCmd(0, epoch=2, extra_w=40.0, lease_expiry_step=25), 9)
        agent.step(10, net)
        assert agent.epoch == 2
        assert agent.live_extra_w(10) == 40.0
        assert agent.effective_cap_w(10) == 90.0

    def test_pool_frees_on_the_exact_tick_the_lease_dies(self):
        # Both sides use strict ``expiry > step``: the controller reclaims
        # the watts on the same tick the agent stops enforcing them, so
        # there is neither a double-spend window nor a dead-watt gap.
        config = ControlPlaneConfig()
        controller = ClusterController(
            2, 200.0, quantum_w=2.0, rated_cap_w=200.0, config=config
        )
        net = SimNetwork(NetConfig(), n_nodes=2)
        controller.step(0, net, loaded=frozenset({0, 1}))
        expiry = config.lease_steps  # grants issued at step 0
        assert controller.outstanding_w(0, expiry - 1) > 0
        assert controller.outstanding_w(0, expiry) == 0.0

    def test_heartbeat_flapping_across_detection_threshold(self):
        # Node 0 blinks in bursts shorter and longer than the suspicion
        # threshold. Whatever the detector decides on each blink, the
        # budget must hold every step and the fleet must settle evenly
        # once the flapping stops.
        steps = 120
        blinks = [(40, 44), (48, 55), (58, 61), (64, 72)]
        down = [
            frozenset({0}) if any(a <= t < b for a, b in blinks) else frozenset()
            for t in range(steps)
        ]
        metrics = MetricsRegistry()
        out = clean_run(
            steps=steps, leaf_down_sets=down, net=NetConfig(seed=6),
            metrics=metrics,
        )
        for row in out.caps_w:
            assert sum(row) <= out.budget_w + 1e-6
        # The long blinks cross the threshold; each suspicion must be
        # matched by a reintegration once the node blinks back on.
        assert metrics.counter("controlplane.suspects").value >= 1
        assert (
            metrics.counter("controlplane.reintegrations").value
            == metrics.counter("controlplane.suspects").value
        )
        assert out.caps_w[-1] == (100.0,) * 4

    def test_duplicate_ack_after_epoch_bump_is_a_no_op(self):
        # The network duplicates the epoch-1 ack and delivers the copy
        # after the node already acked the epoch-2 renewal. The stale
        # duplicate is not evidence of a lost grant: no reconciliation
        # reissue, no epoch churn.
        config = ControlPlaneConfig()
        controller = ClusterController(
            1, 100.0, quantum_w=2.0, rated_cap_w=100.0, config=config
        )
        net = SimNetwork(NetConfig(), n_nodes=1)

        def pump(step):
            """Play the node: ack every command, heartbeat the rest."""
            acks = []
            for _, m in net.deliver(0, step):
                if isinstance(m, SetCapCmd):
                    ack = CapAck(
                        node=0,
                        epoch=m.epoch,
                        extra_w=m.extra_w,
                        lease_expiry_step=m.lease_expiry_step,
                    )
                    net.send(0, CONTROLLER, ack, step)
                    acks.append(ack)
            return acks

        acked = []
        for step in range(9):
            acked += pump(step)
            controller.step(step, net, loaded=frozenset({0}))
        # The initial grant was acked, then its renewal under a new epoch.
        assert len(acked) >= 2 and acked[-1].epoch > acked[0].epoch
        settled_epoch = controller.issued_epoch(0)
        assert settled_epoch == acked[-1].epoch
        # Deliver the duplicate of the old ack after the bump.
        net.send(0, CONTROLLER, acked[0], 8)
        controller.step(9, net, loaded=frozenset({0}))
        assert controller.issued_epoch(0) == settled_epoch
        reissues = [
            m
            for _, m in net.deliver(0, 11)
            if isinstance(m, SetCapCmd) and m.epoch > settled_epoch
        ]
        assert reissues == []


class TestFailureDetection:
    def test_dead_node_is_suspected_and_pool_reclaimed(self):
        steps = 60
        down = [
            frozenset({0}) if 20 <= t < 45 else frozenset() for t in range(steps)
        ]
        metrics = MetricsRegistry()
        out = flat_run(
            4,
            400.0,
            [4] * steps,
            leaf_down_sets=down,
            net=NetConfig(seed=2),
            metrics=metrics,
        )
        assert metrics.counter("controlplane.suspects").value >= 1
        assert metrics.counter("controlplane.reintegrations").value >= 1
        # While node 0 is dead its expired extras flow to the survivors.
        mid = out.caps_w[40]
        assert mid[0] == out.safe_caps_by_level_w[0]
        assert mid[1] > out.caps_w[10][1]
        # After recovery the fleet re-balances evenly.
        assert out.caps_w[-1] == (100.0,) * 4

    def test_outage_knowledge_is_inferred_not_oracle(self):
        # The controller's suspicion must lag the actual death by the
        # heartbeat silence window - instant reaction means oracle leakage.
        steps = 40
        down = [frozenset({1}) if t >= 10 else frozenset() for t in range(steps)]
        trace = TraceBus()
        flat_run(
            3,
            300.0,
            [3] * steps,
            leaf_down_sets=down,
            net=NetConfig(seed=0),
            trace_bus=trace,
        )
        suspects = [
            e for e in trace.events if e.kind == "cp-suspect" and e.payload["node"] == 1
        ]
        assert suspects and suspects[0].payload["step"] > 10


class TestObservability:
    def test_trace_verifies_and_covers_protocol_kinds(self):
        trace = TraceBus()
        clean_run(
            steps=60,
            net=NetConfig(
                loss=0.2, partitions=(PartitionWindow(15, 45, (0,)),), seed=4
            ),
            trace_bus=trace,
        )
        verify_trace(trace.events)
        kinds = {e.kind for e in trace.events}
        assert "cp-command" in kinds and "cp-ack" in kinds
        assert kinds & CONTROL_PLANE_KINDS
        assert "cp-lease-expired" in kinds  # the 30-step cut outlives a lease

    def test_trace_hash_is_seed_deterministic(self):
        def hash_of(seed):
            trace = TraceBus()
            clean_run(net=NetConfig(loss=0.3, seed=seed), trace_bus=trace)
            return trace.content_hash()

        assert hash_of(5) == hash_of(5)
        assert hash_of(5) != hash_of(6)

    def test_retry_metrics_flow_under_loss(self):
        metrics = MetricsRegistry()
        clean_run(steps=60, net=NetConfig(loss=0.4, seed=8), metrics=metrics)
        assert metrics.counter("controlplane.commands").value > 0
        assert metrics.counter("controlplane.retries").value > 0
        assert metrics.counter("netsim.dropped_loss").value > 0


class TestControllerAccounting:
    def test_outstanding_tracks_unacked_grants(self):
        controller = ClusterController(
            2,
            200.0,
            quantum_w=2.0,
            rated_cap_w=200.0,
            config=ControlPlaneConfig(),
        )
        net = SimNetwork(NetConfig(), n_nodes=2)
        controller.step(0, net, loaded=frozenset({0, 1}))
        # Commands issued but unacked: the extras count as outstanding.
        assert controller.outstanding_w(0, 1) > 0
        assert (
            controller.outstanding_w(0, 1) + controller.outstanding_w(1, 1)
            <= controller.extras_pool_w + 1e-9
        )

    def test_restart_hold_is_visible_and_bounded(self):
        # During the hold the outstanding accounting may under-count the
        # dead incarnation's grants, so callers (the hierarchy's deferred
        # shrink gate) must be able to see exactly when it ends.
        config = ControlPlaneConfig()
        controller = ClusterController(
            2, 200.0, quantum_w=2.0, rated_cap_w=200.0, config=config
        )
        assert not controller.in_safe_hold(0)
        controller.restart(5, epochs_to_skip=4)
        assert controller.in_safe_hold(5)
        assert controller.in_safe_hold(5 + config.lease_steps - 1)
        assert not controller.in_safe_hold(5 + config.lease_steps)

    def test_grow_waits_for_free_pool(self):
        # One node holds the whole pool; the controller must not grow the
        # other node's grant until the first shrinks or expires.
        config = ControlPlaneConfig()
        controller = ClusterController(
            2, 200.0, quantum_w=2.0, rated_cap_w=200.0, config=config
        )
        net = SimNetwork(NetConfig(), n_nodes=2)
        agents = [
            NodeAgent(i, safe_cap_w=controller.safe_cap_w, rated_cap_w=200.0, config=config)
            for i in range(2)
        ]
        # Only node 0 loaded: it gets the whole pool.
        for step in range(10):
            for agent in agents:
                agent.step(step, net)
            controller.step(step, net, loaded=frozenset({0}))
        whole_pool = controller.extras_pool_w
        assert agents[0].live_extra_w(9) == whole_pool
        # Now both loaded: node 1's target is half the pool, but the watts
        # must be freed by node 0's acked shrink (or expiry) first.
        for step in range(10, 30):
            for agent in agents:
                agent.step(step, net)
            controller.step(step, net, loaded=frozenset({0, 1}))
            total_out = controller.outstanding_w(0, step) + controller.outstanding_w(1, step)
            assert total_out <= whole_pool + 1e-9
        assert agents[0].live_extra_w(29) == agents[1].live_extra_w(29)
