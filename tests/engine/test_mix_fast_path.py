"""``run_mix_experiment`` advances through the horizon planner.

Every steady-state mix run - ``repro mix``, ``repro compare`` and each
Fig-12 cluster bin - hands its mediator to
:class:`~repro.engine.planner.MediatedFleet` instead of calling
``PowerMediator.run_for``. Two pins keep that honest:

1. **Differential**: the Fig-12 path (learned estimates, not the oracle)
   run through ``run_mix_experiment`` equals the same build advanced by the
   plain scalar loop - result fields, metrics, state and timeline, with
   ``==``.
2. **Work counters**: the exact fast/scalar tick split and the demotion
   reasons of one ESD bin and one TIME-rotation bin. They are
   machine-independent, so an entry gate that silently stops firing (or
   starts firing) fails here on any host, whatever the wall clock says.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import simulation
from repro.engine.planner import MediatedFleet
from repro.workloads.mixes import get_mix


class _RecordingFleet(MediatedFleet):
    """The planner, keeping hold of every fleet ``run_mix_experiment`` builds."""

    built: list[MediatedFleet] = []

    def __init__(self, mediators, **kwargs) -> None:
        super().__init__(mediators, **kwargs)
        _RecordingFleet.built.append(self)


class _PlainLoop:
    """Stand-in for the planner: the scalar loop it must equal."""

    built: list["_PlainLoop"] = []

    def __init__(self, mediators) -> None:
        self.mediators = list(mediators)
        _PlainLoop.built.append(self)

    def run_for(self, duration_s: float) -> None:
        for mediator in self.mediators:
            mediator.run_for(duration_s)


def _run(monkeypatch, fleet_cls, policy: str, mix_id: int, cap: float, **kwargs):
    """One mix run with ``fleet_cls`` in the planner's place; returns the
    result and the mediator it ran."""
    fleet_cls.built = []
    with monkeypatch.context() as patch:
        patch.setattr(simulation, "MediatedFleet", fleet_cls)
        result = simulation.run_mix_experiment(
            list(get_mix(mix_id).profiles()), policy, cap, mix_id=mix_id, **kwargs
        )
    (fleet,) = fleet_cls.built
    (mediator,) = fleet.mediators
    return result, mediator, fleet


def _result_fields(result) -> dict:
    """Every result field; the fault ledger by value, metrics without the
    wall-clock profile."""
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    fields["fault_stats"] = result.fault_stats.state_dict()
    fields["metrics"] = _without_profile(result.metrics)
    return fields


def _without_profile(metrics: dict) -> dict:
    doc = dict(metrics)
    doc.pop("profile", None)  # wall-clock, not simulation facts
    return doc


@pytest.mark.parametrize("policy", ["util-unaware", "app+res+esd-aware"])
@pytest.mark.parametrize("mix_id,cap", [(10, 80.0), (3, 88.0), (6, 95.0)])
def test_mix_run_on_the_planner_equals_the_scalar_loop(monkeypatch, policy, mix_id, cap):
    kwargs = dict(duration_s=10.0, warmup_s=2.0, seed=3)
    fast, fast_m, _ = _run(monkeypatch, _RecordingFleet, policy, mix_id, cap, **kwargs)
    ref, ref_m, _ = _run(monkeypatch, _PlainLoop, policy, mix_id, cap, **kwargs)

    assert _result_fields(fast) == _result_fields(ref)
    assert _without_profile(fast_m.export_metrics()) == _without_profile(
        ref_m.export_metrics()
    )
    assert fast_m.state_dict() == ref_m.state_dict()
    assert fast_m.timeline == ref_m.timeline


@pytest.mark.parametrize(
    "policy,mix_id,cap,fast_ticks,scalar_ticks,demotions",
    [
        # ESD duty cycle over one full period: OFF/ON edges, resume debt
        # after each wake, and the battery-clip edge walk scalar.
        (
            "app+res+esd-aware",
            10,
            80.0,
            52,
            68,
            {"cold-start": 1, "resume-debt": 62, "short-horizon": 4, "battery-clip": 1},
        ),
        # TIME rotation: the rejected promotion of DESIGN.md section 13.
        ("util-unaware", 1, 80.0, 0, 120, {"time-rotation": 120}),
    ],
)
def test_planner_work_counters_are_pinned(
    monkeypatch, policy, mix_id, cap, fast_ticks, scalar_ticks, demotions
):
    _, _, fleet = _run(
        monkeypatch, _RecordingFleet, policy, mix_id, cap, duration_s=10.0, warmup_s=2.0
    )
    assert fleet.fast_ticks == fast_ticks
    assert fleet.scalar_ticks == scalar_ticks
    assert fleet.demotions == demotions
