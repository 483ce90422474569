"""Vector model equivalence: every quantity, every knob, every profile.

The per-server vector models answer point queries by indexing precomputed
response surfaces. This module pins each surface cell to the scalar model's
answer with ``==`` (no tolerance), across the full 432-knob space and the
whole workload catalog - the exhaustive version of the equivalence contract
the differential suite checks end-to-end.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.utility import CandidateSet
from repro.engine import VectorPerformanceModel, VectorPowerModel
from repro.server.config import DEFAULT_SERVER_CONFIG, KnobSetting, ServerConfig
from repro.server.perf_model import PerformanceModel
from repro.server.power_model import PowerModel
from repro.server.server import SimulatedServer
from repro.workloads.catalog import CATALOG

KNOBS = DEFAULT_SERVER_CONFIG.knob_space()


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_every_cell_matches_the_scalar_models(name: str):
    profile = CATALOG[name]
    config = DEFAULT_SERVER_CONFIG
    s_perf = PerformanceModel(config)
    s_power = PowerModel(config, s_perf)
    v_perf = VectorPerformanceModel(config)
    v_power = VectorPowerModel(config, v_perf)
    for knob in KNOBS:
        assert v_perf.compute_rate(profile, knob) == s_perf.compute_rate(
            profile, knob
        )
        assert v_perf.memory_rate(profile, knob) == s_perf.memory_rate(profile, knob)
        assert v_perf.rate(profile, knob) == s_perf.rate(profile, knob)
        assert v_perf.core_utilization(profile, knob) == s_perf.core_utilization(
            profile, knob
        )
        assert v_perf.achieved_bandwidth_gbs(
            profile, knob
        ) == s_perf.achieved_bandwidth_gbs(profile, knob)
        assert v_power.core_power_w(profile, knob) == s_power.core_power_w(
            profile, knob
        )
        assert v_power.dram_power_w(profile, knob) == s_power.dram_power_w(
            profile, knob
        )
        assert v_power.app_power_w(profile, knob) == s_power.app_power_w(
            profile, knob
        )
    assert v_perf.peak_rate(profile) == s_perf.peak_rate(profile)


def test_vector_results_are_python_floats():
    """No np.float64 may leak out: downstream code JSON-serializes these
    values and compares state_dicts with ``==`` against scalar runs."""
    profile = CATALOG["stream"]
    v_perf = VectorPerformanceModel(DEFAULT_SERVER_CONFIG)
    v_power = VectorPowerModel(DEFAULT_SERVER_CONFIG, v_perf)
    knob = KNOBS[17]
    for value in (
        v_perf.rate(profile, knob),
        v_perf.core_utilization(profile, knob),
        v_power.app_power_w(profile, knob),
        v_perf.peak_rate(profile),
    ):
        assert type(value) is float


def test_off_grid_knobs_fall_back_to_the_scalar_path():
    """Point queries off the precomputed grid (other hardware configs built
    ad hoc by callers) answer through the scalar superclass - still exact."""
    profile = CATALOG["kmeans"]
    config = DEFAULT_SERVER_CONFIG
    v_perf = VectorPerformanceModel(config)
    s_perf = PerformanceModel(config)
    off_grid = KnobSetting(1.25, 3, 7.5)
    assert v_perf.rate(profile, off_grid) == s_perf.rate(profile, off_grid)


def test_candidate_set_fast_path_matches_the_scalar_build():
    profile = CATALOG["pagerank"].with_total_work(float("inf"))
    config = DEFAULT_SERVER_CONFIG
    s_perf = PerformanceModel(config)
    s_power = PowerModel(config, s_perf)
    cset = CandidateSet.from_models(profile, config)
    assert cset.knobs == tuple(KNOBS)
    assert cset.power_w.tolist() == [s_power.app_power_w(profile, k) for k in KNOBS]
    assert cset.perf.tolist() == [s_perf.rate(profile, k) for k in KNOBS]
    assert cset.perf_nocap == s_perf.peak_rate(profile)


def test_surface_cache_shares_grids_but_not_profile_surfaces():
    from repro.engine import grid_for, surface_for

    config = DEFAULT_SERVER_CONFIG
    assert grid_for(config) is grid_for(ServerConfig())
    a = surface_for(config, CATALOG["stream"])
    b = surface_for(config, CATALOG["stream"].with_total_work(50.0))
    assert a is b, "total_work does not change the response surface"
    c = surface_for(config, CATALOG["stream"].scaled(base_rate_factor=0.5))
    assert c is not a


def test_production_servers_carry_the_surface_backed_models():
    server = SimulatedServer()
    assert type(server.perf_model) is VectorPerformanceModel
    assert type(server.power_model) is VectorPowerModel
    assert server.power_model.perf_model is server.perf_model
    # The models are pure functions of the config, never state.
    assert "perf_model" not in server.state_dict()


def test_the_engine_flag_is_gone_from_the_cli(capsys):
    assert main(["mix", "--engine", "vector"]) == 2
    err = capsys.readouterr().err
    assert err == "error: unrecognized arguments: --engine vector\n"


def test_the_reference_helper_swaps_in_the_scalar_models():
    """The differential suites are only as good as this switch: inside the
    scalar block every new server runs the plain scalar models."""
    from tests.engine.reference import model_kind, server_models

    with server_models("scalar"):
        reference = SimulatedServer()
    with server_models("vector"):
        production = SimulatedServer()
    assert model_kind(reference) == "scalar"
    assert not isinstance(reference.power_model, VectorPowerModel)
    assert model_kind(production) == "vector"
    assert model_kind(SimulatedServer()) == "vector"
    with pytest.raises(ValueError):
        with server_models("warp"):
            pass
