"""Hypothesis: the control plane's budget invariant under arbitrary chaos.

For arbitrary seeded loss/partition/outage schedules the aggregate-cap
invariant must hold at every step, and after the partition heals and the
network drains clean, every node must end in a consistent epoch with no
zombie caps (no node enforcing an extra the controller no longer accounts
for). The flat cluster replays as the one-level budget tree.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.netsim import NetConfig, PartitionWindow
from tests.cluster.flat_plane import flat_run

N_NODES = 5
BUDGET_W = 500.0
DRAIN_STEPS = 40


@st.composite
def chaos_schedules(draw):
    steps = draw(st.integers(min_value=30, max_value=80))
    loss = draw(st.floats(min_value=0.0, max_value=0.3, allow_nan=False))
    jitter = draw(st.integers(min_value=0, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    loads = draw(
        st.lists(
            st.integers(min_value=0, max_value=N_NODES),
            min_size=steps,
            max_size=steps,
        )
    )
    partitions = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        length = draw(st.integers(min_value=1, max_value=max(1, steps // 4)))
        start = draw(st.integers(min_value=0, max_value=steps - 1))
        nodes = draw(
            st.sets(
                st.integers(min_value=0, max_value=N_NODES - 1),
                min_size=1,
                max_size=N_NODES - 1,
            )
        )
        partitions.append(
            PartitionWindow(start_step=start, end_step=start + length, nodes=tuple(nodes))
        )
    down_sets = []
    outage_node = draw(st.integers(min_value=0, max_value=N_NODES - 1))
    outage_start = draw(st.integers(min_value=0, max_value=steps - 1))
    outage_len = draw(st.integers(min_value=0, max_value=steps // 2))
    for t in range(steps):
        down = set()
        if outage_len and outage_start <= t < outage_start + outage_len:
            down.add(outage_node)
        down_sets.append(frozenset(down))
    net = NetConfig(
        jitter_steps=jitter,
        loss=loss,
        duplicate=loss / 2,
        partitions=tuple(partitions),
        # The scheduled portion is hostile; the drain is clean, so the
        # consistency assertions are deterministic.
        lossy_until_step=steps,
        seed=seed,
    )
    return loads, down_sets, net


class TestControlPlaneProperties:
    @given(schedule=chaos_schedules())
    @settings(max_examples=60, deadline=None)
    def test_budget_invariant_and_consistent_heal(self, schedule):
        loads, down_sets, net = schedule
        # The replay itself raises SimulationError the instant the
        # aggregate-cap invariant is violated - completing IS the invariant.
        outcome = flat_run(
            N_NODES,
            BUDGET_W,
            loads,
            leaf_down_sets=down_sets,
            net=net,
            drain_steps=DRAIN_STEPS,
        )
        safe_cap_w = outcome.safe_caps_by_level_w[0]
        assert outcome.max_total_cap_w <= BUDGET_W + 1e-6
        for row in outcome.caps_w:
            assert sum(row) <= BUDGET_W + 1e-6
            assert all(cap >= safe_cap_w - 1e-9 for cap in row)
        # No zombie caps after the heal + drain: every extra still enforced
        # is covered by a grant the controller accounts for.
        assert outcome.zombie_free
        # Epoch consistency: epochs are globally monotone and issued to one
        # node each - two nodes can never end up on the same grant.
        granted = [e for e in outcome.leaf_epochs if e > 0]
        assert len(set(granted)) == len(granted)
        final_epoch = outcome.final_epochs["root"]
        assert all(e <= final_epoch for e in outcome.leaf_epochs)
