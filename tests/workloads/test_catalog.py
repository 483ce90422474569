"""Catalog: the twelve paper applications and their qualitative classes."""

import pytest

from repro.errors import ConfigurationError
from repro.server.config import KnobSetting
from repro.workloads.catalog import CATALOG, application_names, get_application


EXPECTED_APPS = {
    "stream",
    "kmeans",
    "apr",
    "bfs",
    "connected",
    "triangle",
    "sssp",
    "betweenness",
    "pagerank",
    "x264",
    "facesim",
    "ferret",
}


class TestContents:
    def test_all_twelve_present(self):
        assert set(CATALOG) == EXPECTED_APPS

    def test_names_match_keys(self):
        for name, profile in CATALOG.items():
            assert profile.name == name

    def test_get_application(self):
        assert get_application("stream").wclass == "memory"

    def test_unknown_application_rejected_with_listing(self):
        with pytest.raises(ConfigurationError, match="catalog has"):
            get_application("doom")

    def test_application_names_sorted(self):
        assert application_names() == sorted(EXPECTED_APPS)


class TestClasses:
    def test_suite_classes(self):
        assert CATALOG["kmeans"].wclass == "analytics"
        assert CATALOG["apr"].wclass == "analytics"
        assert CATALOG["pagerank"].wclass == "search"
        assert CATALOG["x264"].wclass == "media"
        assert CATALOG["bfs"].wclass == "graph"


class TestQualitativeCalibration:
    """The catalog must reproduce the paper's per-app characterizations."""

    def test_stream_is_frequency_insensitive(self, perf_model):
        stream = CATALOG["stream"]
        slow = perf_model.rate(stream, KnobSetting(1.2, 6, 10.0))
        fast = perf_model.rate(stream, KnobSetting(2.0, 6, 10.0))
        assert fast / slow < 1.25  # nearly flat in f

    def test_stream_is_dram_sensitive(self, perf_model):
        stream = CATALOG["stream"]
        low = perf_model.rate(stream, KnobSetting(2.0, 6, 3.0))
        high = perf_model.rate(stream, KnobSetting(2.0, 6, 10.0))
        assert high / low > 2.0

    def test_kmeans_is_frequency_sensitive(self, perf_model):
        kmeans = CATALOG["kmeans"]
        slow = perf_model.rate(kmeans, KnobSetting(1.2, 6, 10.0))
        fast = perf_model.rate(kmeans, KnobSetting(2.0, 6, 10.0))
        assert fast / slow > 1.3

    def test_sssp_prefers_frequency_over_cores(self, perf_model):
        """Fig. 11a: SSSP keeps 2 GHz and sheds cores."""
        sssp = CATALOG["sssp"]
        # Giving up half the cores costs SSSP little...
        few_cores = perf_model.rate(sssp, KnobSetting(2.0, 3, 10.0))
        many_cores = perf_model.rate(sssp, KnobSetting(2.0, 6, 10.0))
        assert few_cores / many_cores > 0.8
        # ...but giving up frequency costs it a lot.
        slow = perf_model.rate(sssp, KnobSetting(1.2, 6, 10.0))
        assert slow / many_cores < 0.7

    def test_x264_prefers_cores_over_frequency(self, perf_model):
        """Fig. 11a: X264 keeps its cores and drops to 1.4 GHz."""
        x264 = CATALOG["x264"]
        few_cores = perf_model.rate(x264, KnobSetting(2.0, 3, 10.0))
        many_cores = perf_model.rate(x264, KnobSetting(2.0, 6, 10.0))
        assert few_cores / many_cores < 0.75  # losing cores hurts
        slow = perf_model.rate(x264, KnobSetting(1.4, 6, 10.0))
        assert slow / many_cores > 0.8  # losing frequency tolerable

    def test_pagerank_steeper_than_kmeans_at_margin(self, config):
        """Fig. 9a: PageRank's utility per watt exceeds kmeans' around the
        mix-10 operating point, driving the 55-45 split."""
        from repro.core.utility import CandidateSet, app_utility_curve

        budgets = [13.0, 14.0, 15.0, 16.0, 17.0]
        slopes = {}
        for name in ("pagerank", "kmeans"):
            cset = CandidateSet.from_models(CATALOG[name], config)
            curve = app_utility_curve(cset, budgets)
            slopes[name] = curve.relative_perf[-1] - curve.relative_perf[0]
        assert slopes["pagerank"] > slopes["kmeans"]

    def test_all_apps_runnable_together_within_rated_power(self, power_model, config):
        """Table II premise: any pair fits the rated server power."""
        from repro.workloads.mixes import all_mixes

        for mix in all_mixes():
            a, b = mix.profiles()
            total = (
                config.p_idle_w
                + config.p_cm_w
                + power_model.max_app_power_w(a)
                + power_model.max_app_power_w(b)
            )
            assert total <= config.uncapped_power_w + 1e-9, str(mix)
