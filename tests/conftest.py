"""Shared fixtures: the default server, models, and catalog profiles.

Also provides a SIGALRM-based per-test timeout fallback for environments
without ``pytest-timeout`` (CI installs the real plugin and passes
``--timeout``; the fallback keeps a hung mediator from wedging a local run),
and the one opt-in gate for the long soaks: tests marked ``soak`` run only
under ``REPRO_SOAK=1``, and write their JSON report through the
``soak_report`` fixture.
"""

from __future__ import annotations

import importlib.util
import json
import os
import signal

import pytest

_HAS_PYTEST_TIMEOUT = importlib.util.find_spec("pytest_timeout") is not None
_FALLBACK_TIMEOUT_S = 120


if not _HAS_PYTEST_TIMEOUT and hasattr(signal, "SIGALRM"):

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_call(item):
        marker = item.get_closest_marker("timeout")
        limit = int(marker.args[0]) if marker and marker.args else _FALLBACK_TIMEOUT_S

        def _expired(signum, frame):
            raise TimeoutError(f"test exceeded the {limit} s fallback timeout")

        previous = signal.signal(signal.SIGALRM, _expired)
        signal.alarm(limit)
        try:
            return (yield)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


SOAK = os.environ.get("REPRO_SOAK") == "1"


def pytest_collection_modifyitems(config, items):
    if SOAK:
        return
    skip = pytest.mark.skip(reason="set REPRO_SOAK=1 to run the full soak")
    for item in items:
        if item.get_closest_marker("soak") is not None:
            item.add_marker(skip)


@pytest.fixture()
def soak_report():
    """Write a soak's JSON report to ``$REPRO_SOAK_REPORT``, when it is set."""

    def write(report: dict) -> None:
        out = os.environ.get("REPRO_SOAK_REPORT")
        if out:
            with open(out, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")

    return write


from repro.server.config import ServerConfig
from repro.server.perf_model import PerformanceModel
from repro.server.power_model import PowerModel
from repro.server.server import SimulatedServer
from repro.workloads.catalog import CATALOG


@pytest.fixture(scope="session")
def config() -> ServerConfig:
    """The paper's Table I platform (shared; it is immutable)."""
    return ServerConfig()


@pytest.fixture(scope="session")
def perf_model(config: ServerConfig) -> PerformanceModel:
    return PerformanceModel(config)


@pytest.fixture(scope="session")
def power_model(config: ServerConfig, perf_model: PerformanceModel) -> PowerModel:
    return PowerModel(config, perf_model)


@pytest.fixture()
def server(config: ServerConfig) -> SimulatedServer:
    """A fresh noise-free server per test."""
    return SimulatedServer(config)


@pytest.fixture(params=("scalar", "vector"))
def engine(request) -> str:
    """Both server-model kinds: the scalar reference and production.

    Fixtures built on this (``make_mediator``, and any test requesting it
    directly) run twice - once on the scalar reference models, once on the
    production surface-backed models (see ``tests/engine/reference.py``) -
    complementing the dedicated differential suite in ``tests/engine/``.
    """
    return request.param


@pytest.fixture()
def make_mediator(config: ServerConfig, engine: str):
    """Shared tiny-run factory: a mediator on a fresh server.

    The seconds-long mediator runs that used to be re-declared per test
    module. Keyword arguments pass through to :class:`PowerMediator`;
    ESD-using policies get the default battery unless one is supplied.
    """
    from repro.core.mediator import PowerMediator
    from repro.core.policies import make_policy
    from repro.core.simulation import default_battery
    from tests.engine.reference import server_models

    def make(policy: str = "app+res-aware", cap: float = 100.0, **kwargs):
        with server_models(engine):
            server = SimulatedServer(config)
        policy_obj = make_policy(policy)
        battery = (
            default_battery() if policy_obj.uses_esd else kwargs.pop("battery", None)
        )
        return PowerMediator(
            server,
            policy_obj,
            cap,
            battery=battery,
            use_oracle_estimates=kwargs.pop("use_oracle_estimates", True),
            **kwargs,
        )

    return make


@pytest.fixture()
def apps(stream, kmeans):
    """The default two-app tiny mix (chaos/service harness runs)."""
    return [stream, kmeans]


@pytest.fixture(scope="session")
def service_cfg() -> dict:
    """Small, fast service recipe: modest load, tight checkpoint cadence."""
    return dict(
        rate_per_s=0.4,
        clients=3,
        ingest_capacity=6,
        drain_per_tick=2,
        cap_levels=(90.0, 105.0),
        cap_change_every_s=8.0,
        checkpoint_every_ticks=50,
        telemetry_every_ticks=20,
    )


@pytest.fixture(scope="session")
def kmeans():
    return CATALOG["kmeans"]


@pytest.fixture(scope="session")
def stream():
    return CATALOG["stream"]


@pytest.fixture(scope="session")
def pagerank():
    return CATALOG["pagerank"]


@pytest.fixture(scope="session")
def sssp():
    return CATALOG["sssp"]
