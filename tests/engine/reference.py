"""The scalar reference models, reachable from tests and benchmarks only.

Production code builds every :class:`~repro.server.server.SimulatedServer`
on the surface-backed models of :mod:`repro.engine.models`. The scalar
models they subclass stay as the differential oracle: inside
``server_models("scalar")`` every server that gets built - directly, or by
a driver, a recipe or a golden replay - runs on the plain scalar models
instead. A test runs one scenario under both kinds and compares hashes,
metrics and state with ``==``.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator
from unittest import mock

from repro.engine import VectorPerformanceModel
from repro.server import server as server_module
from repro.server.perf_model import PerformanceModel
from repro.server.power_model import PowerModel

#: ``"scalar"`` is the reference, ``"vector"`` the production path.
MODEL_KINDS = ("scalar", "vector")


class ScalarPerformanceModel(PerformanceModel):
    """The scalar performance model, with the fallback counter every server
    model carries (always 0: there is no table to fall back from)."""

    fallbacks = 0


class ScalarPowerModel(PowerModel):
    """The scalar power model, with the same zero fallback counter."""

    fallbacks = 0


@contextlib.contextmanager
def server_models(kind: str) -> Iterator[None]:
    """Build the servers of the ``with`` block on ``kind`` models."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    if kind == "vector":
        yield
        return
    with mock.patch.object(
        server_module, "VectorPerformanceModel", ScalarPerformanceModel
    ), mock.patch.object(server_module, "VectorPowerModel", ScalarPowerModel):
        yield


def model_kind(server: server_module.SimulatedServer) -> str:
    """Which kind of models ``server`` was built on."""
    return "vector" if isinstance(server.perf_model, VectorPerformanceModel) else "scalar"
