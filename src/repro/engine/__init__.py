"""``repro.engine``: the vectorized fast path, pinned to the scalar reference.

Two layers:

* **Vector models** (:mod:`repro.engine.models`): subclasses of the scalar
  performance/power models that serve every query from precomputed
  full-knob-space response surfaces (:mod:`repro.engine.surface`). They are
  the only models :class:`~repro.server.server.SimulatedServer` builds.
  Bit-identical to the scalar models by construction - the golden-trace
  suite pins both, and ``tests/engine/test_differential.py`` fuzzes the claim.
* **Batch fleet** (:mod:`repro.engine.batch`): N servers advanced per tick
  with array operations, for fleet-scale throughput
  (``benchmarks/bench_engine_throughput.py``).
* **Mediated fleet** (:mod:`repro.engine.planner`): whole *mediated* ticks —
  planning stack included — replayed in horizon segments with closed-form
  accumulator kernels (``benchmarks/bench_mediator_throughput.py``).
  Exported lazily: the planner imports the mediator, which imports the
  server, which imports this package, so a top-level import here would be
  circular.

The scalar models remain the differential oracle (and the off-grid fallback);
the surfaces exist to make them affordable at scale, never to redefine them.
"""

from __future__ import annotations

from repro.engine.batch import BatchFleet
from repro.engine.models import VectorPerformanceModel, VectorPowerModel
from repro.engine.surface import ConfigGrid, ResponseSurface, grid_for, surface_for

__all__ = [
    "BatchFleet",
    "ConfigGrid",
    "MediatedFleet",
    "ResponseSurface",
    "VectorPerformanceModel",
    "VectorPowerModel",
    "grid_for",
    "surface_for",
]


def __getattr__(name: str):
    # PEP 562 lazy export: break the engine -> planner -> mediator ->
    # server -> engine import cycle by resolving MediatedFleet on first use.
    if name == "MediatedFleet":
        from repro.engine.planner import MediatedFleet

        return MediatedFleet
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
