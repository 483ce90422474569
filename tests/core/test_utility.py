"""Utility curves: candidate sets, Pareto envelope, Fig. 2/3 quantities."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.core.utility import (
    CandidateSet,
    UtilityCurve,
    app_utility_curve,
    pareto_envelope,
    resource_marginal_utilities,
)
from repro.server.config import KnobSetting
from repro.workloads.catalog import CATALOG


class TestCandidateSet:
    def test_from_models_covers_knob_space(self, config, power_model, kmeans):
        cset = CandidateSet.from_models(kmeans, config)
        assert len(cset.knobs) == len(config.knob_space())
        assert cset.perf_nocap == pytest.approx(
            power_model.perf_model.peak_rate(kmeans)
        )

    def test_min_max_power(self, config, power_model, kmeans):
        cset = CandidateSet.from_models(kmeans, config)
        assert cset.min_power_w == pytest.approx(power_model.min_app_power_w(kmeans))
        assert cset.max_power_w == pytest.approx(power_model.max_app_power_w(kmeans))

    def test_best_index_under_budget(self, config, kmeans):
        cset = CandidateSet.from_models(kmeans, config)
        idx = cset.best_index_under(15.0)
        assert idx is not None
        assert cset.power_w[idx] <= 15.0
        # Nothing feasible beats it.
        feasible = cset.power_w <= 15.0
        assert cset.perf[idx] == pytest.approx(cset.perf[feasible].max())

    def test_best_index_infeasible_budget(self, config, kmeans):
        cset = CandidateSet.from_models(kmeans, config)
        assert cset.best_index_under(1.0) is None

    def test_from_estimates_requires_positive_nocap(self, config):
        n = len(config.knob_space())
        with pytest.raises(ConfigurationError):
            CandidateSet.from_estimates("x", config, np.ones(n), np.zeros(n))

    def test_subset(self, config, kmeans):
        cset = CandidateSet.from_models(kmeans, config)
        sub = cset.subset([0, 5, 10])
        assert len(sub.knobs) == 3
        assert sub.perf_nocap == cset.perf_nocap

    def test_index_of_missing_knob(self, config, kmeans):
        cset = CandidateSet.from_models(kmeans, config)
        sub = cset.subset([0])
        with pytest.raises(ConfigurationError):
            sub.index_of(config.max_knob)

    def test_index_of_matches_knob_positions(self, config, kmeans):
        full = CandidateSet.from_models(kmeans, config)
        n = len(full.knobs)
        estimated = CandidateSet.from_estimates("x", config, np.ones(n), np.ones(n))
        sub = full.subset([7, 3, 11])
        for cset in (full, estimated, sub):
            for i, knob in enumerate(cset.knobs):
                assert knob in cset
                assert cset.index_of(knob) == i
        assert config.max_knob not in sub
        assert estimated.knobs == tuple(config.knob_space())

    def test_relative_perf_peaks_at_one(self, config, kmeans):
        cset = CandidateSet.from_models(kmeans, config)
        assert cset.relative_perf().max() == pytest.approx(1.0)


class TestParetoEnvelope:
    def test_frontier_is_smaller_than_space(self, config, kmeans):
        cset = CandidateSet.from_models(kmeans, config)
        frontier = pareto_envelope(cset)
        assert 2 <= len(frontier) < len(cset.knobs)

    def test_frontier_sorted_by_power_and_perf(self, config, kmeans):
        cset = CandidateSet.from_models(kmeans, config)
        frontier = pareto_envelope(cset)
        powers = [cset.power_w[i] for i in frontier]
        perfs = [cset.perf[i] for i in frontier]
        assert powers == sorted(powers)
        assert perfs == sorted(perfs)

    def test_no_frontier_point_is_dominated(self, config, stream):
        cset = CandidateSet.from_models(stream, config)
        frontier = pareto_envelope(cset)
        for i in frontier:
            dominating = (cset.power_w < cset.power_w[i] - 1e-12) & (
                cset.perf >= cset.perf[i]
            )
            assert not dominating.any()

    def test_frontier_contains_the_best_under_any_budget(
        self, config, kmeans
    ):
        cset = CandidateSet.from_models(kmeans, config)
        frontier = set(pareto_envelope(cset))
        for budget in (10.0, 14.0, 18.0, 25.0):
            best = cset.best_index_under(budget)
            if best is None:
                continue
            best_perf = cset.perf[best]
            frontier_best = max(
                (cset.perf[i] for i in frontier if cset.power_w[i] <= budget),
                default=-1.0,
            )
            assert frontier_best == pytest.approx(best_perf)


class TestUtilityCurve:
    def test_curve_is_monotone(self, config):
        """Fig. 2: more budget never hurts."""
        for name in ("kmeans", "stream", "sssp"):
            cset = CandidateSet.from_models(CATALOG[name], config)
            curve = app_utility_curve(cset)
            values = list(curve.relative_perf)
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_curve_reaches_one_at_full_demand(self, config, kmeans):
        cset = CandidateSet.from_models(kmeans, config)
        curve = app_utility_curve(cset)
        assert curve.relative_perf[-1] == pytest.approx(1.0)

    def test_curve_zero_below_min_power(self, config, kmeans):
        cset = CandidateSet.from_models(kmeans, config)
        curve = app_utility_curve(cset, budgets_w=[1.0, 5.0])
        assert curve.relative_perf == (0.0, 0.0)

    def test_value_at_interpolates_downward(self):
        curve = UtilityCurve("x", (10.0, 20.0), (0.5, 1.0))
        assert curve.value_at(15.0) == 0.5
        assert curve.value_at(25.0) == 1.0
        assert curve.value_at(5.0) == 0.0

    def test_marginal_utility_length(self):
        curve = UtilityCurve("x", (10.0, 20.0, 30.0), (0.2, 0.6, 0.8))
        slopes = curve.marginal_utility()
        assert len(slopes) == 2
        assert slopes[0] == pytest.approx(0.04)

    def test_curves_differ_across_apps(self, config):
        """The premise of R1: utility curves differ between applications."""
        budgets = [10.0, 12.0, 14.0, 16.0, 18.0, 20.0]
        curves = {}
        for name in ("pagerank", "x264"):
            cset = CandidateSet.from_models(CATALOG[name], config)
            curves[name] = app_utility_curve(cset, budgets).relative_perf
        assert curves["pagerank"] != curves["x264"]


class TestResourceMarginalUtilities:
    def test_all_resources_reported(self, config, kmeans):
        utilities = resource_marginal_utilities(kmeans, config)
        assert set(utilities) == {"core", "frequency", "memory"}

    def test_stream_values_memory_most(self, config, stream):
        """Fig. 3: the memory app benefits most from memory watts."""
        utilities = resource_marginal_utilities(stream, config)
        assert utilities["memory"] > utilities["frequency"]
        assert utilities["memory"] > utilities["core"]

    def test_kmeans_values_compute(self, config, kmeans):
        utilities = resource_marginal_utilities(kmeans, config)
        assert max(utilities["core"], utilities["frequency"]) > utilities["memory"]

    def test_saturated_resource_has_zero_utility(self, config, kmeans):
        ref = config.max_knob  # nothing can grow
        utilities = resource_marginal_utilities(kmeans, config, reference=ref)
        assert utilities == {"core": 0.0, "frequency": 0.0, "memory": 0.0}

    def test_off_grid_reference_rejected(self, config, kmeans):
        from repro.errors import KnobError

        with pytest.raises(KnobError):
            resource_marginal_utilities(
                kmeans, config, reference=KnobSetting(1.55, 3, 7.0)
            )
