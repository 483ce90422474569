"""Checkpoints: bit-identical restore, atomicity, one-line failure modes."""

from __future__ import annotations

import io
import json

import pytest

from repro.chaos import mix_recipe
from repro.errors import CheckpointError
from repro.persistence import (
    RunRecipe,
    atomic_write_json,
    checkpoint_filename,
    latest_checkpoint,
    read_checkpoint,
    restore_mediator,
    write_checkpoint,
)


def _recipe_and_script(stream, kmeans, *, policy="app+res-aware", seed=0, faults=None):
    return mix_recipe(
        [stream, kmeans], policy, 100.0, duration_s=4.0, warmup_s=2.0, seed=seed, faults=faults
    )


def _started_mediator(stream, kmeans, ticks=15, **kwargs):
    from repro.chaos import run_script
    from repro.persistence.supervisor import Advance

    recipe, script = _recipe_and_script(stream, kmeans, **kwargs)
    admits = [c for c in script if not isinstance(c, Advance)]
    mediator = run_script(recipe, admits)
    for _ in range(ticks):
        mediator.step()
    return recipe, mediator


def test_restore_is_bit_identical(tmp_path, stream, kmeans):
    recipe, mediator = _started_mediator(stream, kmeans)
    path = write_checkpoint(tmp_path, mediator, recipe)
    restored = restore_mediator(read_checkpoint(path))
    for _ in range(25):
        mediator.step()
        restored.step()
    assert restored.timeline == mediator.timeline
    assert restored.server.now_s == mediator.server.now_s
    for name in mediator.managed_apps():
        assert restored.normalized_throughput(name) == mediator.normalized_throughput(name)


def test_restore_is_bit_identical_with_esd(tmp_path, stream, kmeans):
    recipe, mediator = _started_mediator(
        stream, kmeans, policy="app+res+esd-aware", ticks=30
    )
    path = write_checkpoint(tmp_path, mediator, recipe)
    restored = restore_mediator(read_checkpoint(path))
    for _ in range(25):
        mediator.step()
        restored.step()
    assert restored.timeline == mediator.timeline
    assert restored.battery.stored_j == mediator.battery.stored_j
    assert restored.battery.stats == mediator.battery.stats


def test_checkpoint_document_is_pure_json(tmp_path, stream, kmeans):
    recipe, mediator = _started_mediator(stream, kmeans)
    path = write_checkpoint(tmp_path, mediator, recipe)
    # A full JSON round trip (as any reader would perform) must lose nothing.
    doc = json.loads(path.read_text())
    rebuilt = restore_mediator(read_checkpoint(path))
    direct = restore_mediator(doc)
    rebuilt.step()
    direct.step()
    assert rebuilt.timeline[-1] == direct.timeline[-1]


def test_filenames_sort_chronologically(tmp_path, stream, kmeans):
    recipe, mediator = _started_mediator(stream, kmeans, ticks=5)
    first = write_checkpoint(tmp_path, mediator, recipe)
    for _ in range(10):
        mediator.step()
    second = write_checkpoint(tmp_path, mediator, recipe)
    assert first.name == checkpoint_filename(5)
    assert second.name == checkpoint_filename(15)
    assert latest_checkpoint(tmp_path) == second


def test_latest_checkpoint_empty_dir(tmp_path):
    assert latest_checkpoint(tmp_path) is None


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ("not json at all", "not valid JSON"),
        (json.dumps({"version": 1}), "checkpoint.schema"),
        (json.dumps({"schema": "other", "version": 1}), "not a mediator checkpoint"),
        (
            json.dumps({"schema": "repro-checkpoint", "version": 42}),
            "version 42 is not supported",
        ),
        (
            json.dumps({"schema": "repro-checkpoint", "version": 1}),
            "checkpoint.created_tick",
        ),
    ],
)
def test_read_failures_are_one_line(tmp_path, payload, fragment):
    path = tmp_path / "ckpt.json"
    path.write_text(payload)
    with pytest.raises(CheckpointError) as excinfo:
        read_checkpoint(path)
    message = str(excinfo.value)
    assert fragment in message
    assert "\n" not in message  # CLI prints it verbatim on one line


def test_missing_file_is_one_line(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        read_checkpoint(tmp_path / "absent.json")


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda r: r.update(policy="galactic"), "recipe.policy"),
        (lambda r: r.pop("policy"), "recipe.policy: required"),
        (lambda r: r["config"].update(warp_factor=9), "recipe.config.warp_factor"),
        (lambda r: r.update(p_cap_w="plenty"), "recipe.p_cap_w"),
        (lambda r: r.update(sampler={"type": "stratified"}), "recipe.sampler.fraction"),
        (lambda r: r.update(use_battery="yes"), "recipe.use_battery"),
        (lambda r: r.update(faults={"seed": 0, "faults": [{"kind": "gremlin"}]}), "recipe.faults"),
        (lambda r: r.update(resilience={"bogus_knob": 1}), "recipe.resilience.bogus_knob"),
        (lambda r: r.update(engine="warp"), "recipe.engine"),
    ],
)
def test_recipe_validation_names_offending_field(stream, kmeans, mutate, fragment):
    recipe, _ = _recipe_and_script(stream, kmeans)
    raw = recipe.to_dict()
    mutate(raw)
    with pytest.raises(CheckpointError) as excinfo:
        RunRecipe.from_dict(raw)
    assert fragment in str(excinfo.value)
    assert "\n" not in str(excinfo.value)


def test_recipe_round_trip(stream, kmeans):
    recipe, _ = _recipe_and_script(stream, kmeans, seed=7)
    assert RunRecipe.from_dict(recipe.to_dict()) == recipe


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_recipe_accepts_the_legacy_engine_key(stream, kmeans, engine):
    recipe, _ = _recipe_and_script(stream, kmeans)
    assert "engine" not in recipe.to_dict()
    assert RunRecipe.from_dict({**recipe.to_dict(), "engine": engine}) == recipe


def test_legacy_engine_checkpoint_restores_and_continues(tmp_path, stream, kmeans):
    """A checkpoint in the older format, whose recipe names the server-model
    implementation (``"engine": "scalar"``), restores and then continues
    bit-identically to the run that was never interrupted."""
    recipe, uninterrupted = _started_mediator(stream, kmeans)
    path = write_checkpoint(tmp_path, uninterrupted, recipe)
    doc = json.loads(path.read_text())
    doc["recipe"]["engine"] = "scalar"
    path.write_text(json.dumps(doc))
    resumed = restore_mediator(read_checkpoint(path))
    for _ in range(25):
        uninterrupted.step()
        resumed.step()
    assert resumed.state_dict() == uninterrupted.state_dict()
    assert resumed.timeline == uninterrupted.timeline


def test_state_not_matching_recipe_is_one_line(tmp_path, stream, kmeans):
    recipe, mediator = _started_mediator(stream, kmeans)
    path = write_checkpoint(tmp_path, mediator, recipe)
    doc = read_checkpoint(path)
    del doc["state"]["coordinator"]
    with pytest.raises(CheckpointError, match="checkpoint.state"):
        restore_mediator(doc)


def test_no_tmp_file_left_behind(tmp_path, stream, kmeans):
    recipe, mediator = _started_mediator(stream, kmeans)
    write_checkpoint(tmp_path, mediator, recipe)
    assert not list(tmp_path.glob("*.tmp"))


def test_atomic_write_json_writes_the_c_encoders_bytes(tmp_path, stream, kmeans):
    recipe, mediator = _started_mediator(stream, kmeans)
    doc = {"recipe": recipe.to_dict(), "state": mediator.state_dict()}
    path = tmp_path / "doc.json"
    atomic_write_json(path, doc)
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(doc)
    # Byte-identical to the streaming writer it replaced.
    streamed = io.StringIO()
    json.dump(doc, streamed)
    assert text == streamed.getvalue()
    assert json.loads(text) == json.loads(json.dumps(doc))
    assert not list(tmp_path.glob("*.tmp"))


def test_atomic_write_json_failure_is_one_line(tmp_path):
    missing = tmp_path / "no-such-dir" / "doc.json"
    with pytest.raises(CheckpointError, match="cannot write checkpoint") as info:
        atomic_write_json(missing, {"a": 1})
    assert "\n" not in str(info.value)
