"""Golden-trace regression: the three pinned Table II runs (one per
coordination regime) must replay to their recorded content hashes.

The file tags each spec with the server models it was first recorded on
(``engine``: ``"scalar"`` or ``"vector"``); the twins record the *same*
hashes. Every spec replays on the production path, and each ``"scalar"``
spec replays on the scalar reference models too (``tests/engine/reference.py``).

When a change intentionally moves behaviour, regenerate the file and review
its diff::

    PYTHONPATH=src python -m repro.observability.golden \
        tests/golden/golden_traces.json --write
"""

import json
from pathlib import Path

import pytest

from repro.errors import ObservabilityError
from repro.observability.golden import GoldenSpec, load_specs, run_spec, save_specs
from tests.engine.reference import server_models

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "golden_traces.json"

SPECS = load_specs(GOLDEN)

#: Spec name -> the ``engine`` tag the file records for it.
ENGINE_OF = {item["name"]: item["engine"] for item in json.loads(GOLDEN.read_text())}


def test_golden_file_pins_all_three_regimes():
    for engine in ("scalar", "vector"):
        regimes = {spec.regime for spec in SPECS if ENGINE_OF[spec.name] == engine}
        assert regimes == {"space", "time", "esd"}, (
            f"the {engine} engine must pin all three Table II regimes"
        )
    assert all(spec.trace_hash for spec in SPECS), (
        "golden file has unrecorded specs; run the regen command in this "
        "module's docstring"
    )


def test_vector_specs_record_the_scalar_hashes():
    """The equivalence contract, expressed in the golden file itself: every
    vector spec pins the exact hash its scalar twin pins."""
    scalar = {
        (s.mix_id, s.policy, s.p_cap_w, s.seed): s.trace_hash
        for s in SPECS
        if ENGINE_OF[s.name] == "scalar"
    }
    vector = [s for s in SPECS if ENGINE_OF[s.name] == "vector"]
    assert vector, "golden file lost its vector specs"
    for spec in vector:
        key = (spec.mix_id, spec.policy, spec.p_cap_w, spec.seed)
        assert spec.trace_hash == scalar[key], (
            f"{spec.name}: vector hash diverged from its scalar twin - the "
            "engines are no longer bit-identical"
        )


@pytest.mark.parametrize("spec", SPECS, ids=[s.name for s in SPECS])
def test_golden_trace_replays_to_recorded_hash(spec: GoldenSpec):
    kinds = ("vector", "scalar") if ENGINE_OF[spec.name] == "scalar" else ("vector",)
    for kind in kinds:
        with server_models(kind):
            outcome = run_spec(spec)
        assert outcome.dominant_mode == spec.regime, (
            f"{spec.name} on the {kind} models settled into "
            f"{outcome.dominant_mode!r} (modes {outcome.modes}), expected the "
            f"{spec.regime!r} regime"
        )
        assert outcome.trace_hash == spec.trace_hash, (
            f"{spec.name}: trace hash changed on the {kind} models - behaviour "
            "drifted somewhere in the mediation stack. If intentional, "
            "regenerate the golden file (see module docstring) and review the "
            "mode-residency diff."
        )
        assert outcome.modes == spec.modes


def test_golden_hashes_are_invariant_to_the_defense_layer():
    """The recorded hashes predate the TrustScorer; an honest run must hash
    identically whether the defenses are armed (the default) or disabled -
    the trust layer may only observe until someone misbehaves."""
    from repro.core.trust import DefenseConfig

    spec = SPECS[0]
    disarmed = run_spec(spec, defense=DefenseConfig(enabled=False))
    assert disarmed.trace_hash == spec.trace_hash


def test_specs_round_trip_through_save(tmp_path):
    path = tmp_path / "golden.json"
    save_specs(path, SPECS)
    assert load_specs(path) == SPECS


@pytest.mark.parametrize(
    "field, value",
    [
        ("use_oracle_estimates", "false"),
        ("use_oracle_estimates", 0),
        ("engine", "warp"),
    ],
)
def test_malformed_spec_fields_are_rejected(field, value):
    raw = {**SPECS[0].to_dict(), field: value}
    with pytest.raises(ObservabilityError, match=f"spec.{field}"):
        GoldenSpec.from_dict(raw)


def test_write_keeps_the_engine_tags(tmp_path, monkeypatch):
    """Re-recording updates the hashes in place; the tags the replay test
    reads survive."""
    from repro.observability import golden

    path = tmp_path / "golden.json"
    path.write_text(GOLDEN.read_text())
    monkeypatch.setattr(
        golden,
        "run_spec",
        lambda spec: golden.GoldenOutcome(
            trace_hash=spec.trace_hash, modes=spec.modes, ticks=0
        ),
    )
    assert golden.main([str(path), "--write"]) == 0
    assert path.read_text() == GOLDEN.read_text()
