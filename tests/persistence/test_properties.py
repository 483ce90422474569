"""Property tests: snapshot -> restore -> run equals the uninterrupted run.

Hypothesis drives the cut point (and seed) through the whole space instead
of a handful of hand-picked ticks; any divergence is a codec that forgot a
piece of state, which these properties catch regardless of where it hides.
"""

from __future__ import annotations

import json
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import kill_at, mix_recipe, run_script
from repro.persistence import Supervisor
from repro.persistence.supervisor import Advance
from repro.workloads.catalog import get_application

_TOTAL_TICKS = 30

_SETTINGS = dict(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _recipe_and_script(seed: int, policy: str = "app+res-aware"):
    return mix_recipe(
        [get_application("stream"), get_application("kmeans")],
        policy,
        100.0,
        duration_s=2.0,
        warmup_s=1.0,
        seed=seed,
    )


@settings(**_SETTINGS)
@given(cut=st.integers(min_value=1, max_value=_TOTAL_TICKS - 1), seed=st.integers(0, 3))
def test_snapshot_restore_run_equals_uninterrupted(cut: int, seed: int) -> None:
    """state_dict -> JSON -> load_state_dict at ANY tick preserves the run."""
    recipe, script = _recipe_and_script(seed)
    admits = [c for c in script if not isinstance(c, Advance)]

    reference = run_script(recipe, admits)
    for _ in range(_TOTAL_TICKS):
        reference.step()

    interrupted = run_script(recipe, admits)
    for _ in range(cut):
        interrupted.step()
    snapshot = json.loads(json.dumps(interrupted.state_dict()))
    resumed = recipe.build()
    resumed.load_state_dict(snapshot)
    for _ in range(_TOTAL_TICKS - cut):
        resumed.step()

    assert resumed.timeline == reference.timeline
    assert resumed.server.now_s == reference.server.now_s


@settings(**_SETTINGS)
@given(kill=st.integers(min_value=1, max_value=_TOTAL_TICKS - 1))
def test_supervised_kill_anywhere_is_bit_identical(kill: int) -> None:
    """A kill at ANY tick recovers to the uninterrupted timeline."""
    recipe, script = _recipe_and_script(0)
    baseline = run_script(recipe, script)
    with tempfile.TemporaryDirectory(prefix="repro-prop-") as workdir:
        supervisor = Supervisor(
            recipe, script, workdir, checkpoint_every_ticks=10, tick_hook=kill_at([kill])
        )
        mediator = supervisor.run()
    assert supervisor.stats.restarts == 1
    assert mediator.timeline == baseline.timeline
