"""Hypothesis: the allocator never violates its budget and never loses to
the fair split, for arbitrary budgets and app subsets."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.allocator import PowerAllocator
from repro.core.utility import CandidateSet
from repro.server.config import ServerConfig
from repro.workloads.catalog import CATALOG

_CONFIG = ServerConfig()
_CSETS = {
    name: CandidateSet.from_models(profile, _CONFIG)
    for name, profile in CATALOG.items()
}
_NAMES = sorted(_CSETS)


app_subsets = st.lists(
    st.sampled_from(_NAMES), min_size=1, max_size=4, unique=True
)
budgets = st.floats(min_value=0.0, max_value=70.0, allow_nan=False)


class TestAllocatorInvariants:
    @given(apps=app_subsets, budget=budgets)
    @settings(max_examples=80, deadline=None)
    def test_budget_never_violated(self, apps, budget):
        allocation = PowerAllocator().allocate(
            {n: _CSETS[n] for n in apps}, budget
        )
        assert allocation.total_power_w <= budget + 1e-6

    @given(apps=app_subsets, budget=budgets)
    @settings(max_examples=60, deadline=None)
    def test_never_worse_than_fair_split(self, apps, budget):
        allocator = PowerAllocator()
        candidates = {n: _CSETS[n] for n in apps}
        dp = allocator.allocate(candidates, budget)
        fair = allocator.allocate_fair(candidates, budget)
        assert dp.objective >= fair.objective - 1e-6

    @given(apps=app_subsets, budget=budgets)
    @settings(max_examples=60, deadline=None)
    def test_every_app_has_a_decision(self, apps, budget):
        allocation = PowerAllocator().allocate({n: _CSETS[n] for n in apps}, budget)
        assert set(allocation.apps) == set(apps)
        assert sorted(allocation.included + allocation.excluded) == sorted(apps)

    @given(apps=app_subsets, budget=budgets)
    @settings(max_examples=60, deadline=None)
    def test_included_apps_use_feasible_knobs(self, apps, budget):
        allocation = PowerAllocator().allocate({n: _CSETS[n] for n in apps}, budget)
        for name in allocation.included:
            decision = allocation.apps[name]
            cset = _CSETS[name]
            idx = cset.index_of(decision.knob)
            assert abs(float(cset.power_w[idx]) - decision.power_w) < 1e-9

    @given(apps=app_subsets, lo=budgets, hi=budgets)
    @settings(max_examples=50, deadline=None)
    def test_objective_monotone_in_budget(self, apps, lo, hi):
        """More watts never reduce the achievable objective."""
        lo, hi = min(lo, hi), max(lo, hi)
        allocator = PowerAllocator()
        candidates = {n: _CSETS[n] for n in apps}
        small = allocator.allocate(candidates, lo)
        large = allocator.allocate(candidates, hi)
        assert large.objective >= small.objective - 1e-6
