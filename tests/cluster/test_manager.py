"""Cluster-manager per-bin evaluators."""

import pytest

from repro.errors import ConfigurationError
from repro.cluster.manager import evaluate_equal_policy_bin
from repro.workloads.mixes import all_mixes


class TestEqualPolicyBin:
    def test_unknown_strategy_rejected(self, config):
        with pytest.raises(ConfigurationError):
            evaluate_equal_policy_bin(
                "round-robin", all_mixes()[:1], 90.0, config=config, cache={}
            )

    def test_uncapped_fast_path_skips_simulation(self, config):
        cache = {}
        evaluation = evaluate_equal_policy_bin(
            "equal-rapl",
            all_mixes()[:2],
            130.0,
            config=config,
            cache=cache,
            loaded_powers_w=[108.0, 110.0],
        )
        assert evaluation.aggregate_perf == pytest.approx(4.0)
        assert cache == {}  # nothing simulated

    @pytest.mark.parametrize("powers", [[108.0], [108.0, 110.0, 112.0]])
    def test_loaded_powers_must_align_with_mixes(self, config, powers):
        cache = {}
        with pytest.raises(ConfigurationError, match=rf"{len(powers)} entries for 2 mixes"):
            evaluate_equal_policy_bin(
                "equal-rapl",
                all_mixes()[:2],
                130.0,
                config=config,
                cache=cache,
                loaded_powers_w=powers,
            )
        assert cache == {}

    def test_sub_idle_cap_parks_at_idle(self, config):
        cache = {}
        evaluation = evaluate_equal_policy_bin(
            "equal-rapl",
            all_mixes()[:1],
            40.0,
            config=config,
            cache=cache,
        )
        assert evaluation.aggregate_perf == 0.0
        assert evaluation.cluster_power_w == config.p_idle_w

    def test_cache_reused_across_calls(self, config):
        cache = {}
        for _ in range(2):
            evaluate_equal_policy_bin(
                "equal-rapl",
                all_mixes()[:1],
                95.0,
                config=config,
                cache=cache,
                duration_s=3.0,
                warmup_s=1.0,
            )
        assert len(cache) == 1

    def test_capped_bin_simulates_and_respects_cap(self, config):
        cache = {}
        evaluation = evaluate_equal_policy_bin(
            "equal-rapl",
            all_mixes()[:1],
            95.0,
            config=config,
            cache=cache,
            duration_s=3.0,
            warmup_s=1.0,
        )
        assert 0.0 < evaluation.aggregate_perf < 2.0
        assert evaluation.cluster_power_w <= 95.0 + 1e-6

    def test_ours_beats_rapl_at_stringent_bin(self, config):
        cache = {}
        kwargs = dict(
            config=config, cache=cache, duration_s=20.0, warmup_s=10.0
        )
        rapl = evaluate_equal_policy_bin(
            "equal-rapl", all_mixes()[:1], 80.0, **kwargs
        )
        ours = evaluate_equal_policy_bin(
            "equal-ours", all_mixes()[:1], 80.0, **kwargs
        )
        assert ours.aggregate_perf > rapl.aggregate_perf
