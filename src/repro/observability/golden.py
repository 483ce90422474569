"""Golden-trace regression machinery: pin whole runs by trace hash.

A *golden spec* describes one seeded ``repro mix``-equivalent run - mix,
policy, cap, durations, seed - plus the expectations it pins: the trace
content hash and the coordination-mode regime the run settles into. The
regression suite replays each spec and compares hashes; because the hash
covers every sim event (allocations, knob writes, suspensions, battery
flows, tick-level power), any behavioural drift anywhere in the mediation
stack flips it.

The spec file is the single source of truth, checked into the repo at
``tests/golden/golden_traces.json``. When a change *intentionally* alters
behaviour, regenerate it with one command::

    PYTHONPATH=src python -m repro.observability.golden \
        tests/golden/golden_traces.json --write

and review the resulting diff (mode residency is stored alongside the hash
precisely so the diff says *what kind* of behaviour moved). ``--check``
replays the file and exits non-zero on any mismatch, which is what the test
suite and CI do.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Any

from repro.errors import ObservabilityError
from repro.observability.trace import TraceBus, summarize_trace, verify_trace
from repro.schema import Validator

__all__ = ["GoldenSpec", "GoldenOutcome", "run_spec", "load_specs", "save_specs"]

_VALIDATE = Validator(error=ObservabilityError)


@dataclass(frozen=True)
class GoldenSpec:
    """One pinned run and its recorded expectations.

    ``trace_hash`` and ``modes`` are the *recorded* outcome (empty/None on a
    freshly authored spec until ``--write`` fills them in); everything else
    parameterizes the run.

    Spec files written before the single server-model path tag each spec
    with an ``engine`` (``"scalar"``/``"vector"``). The tag is validated and
    kept in the file, but every spec replays on the one production path.
    """

    name: str
    mix_id: int
    policy: str
    p_cap_w: float
    duration_s: float
    warmup_s: float
    seed: int
    use_oracle_estimates: bool
    regime: str  # dominant coordination mode the spec is meant to pin
    trace_hash: str | None = None
    modes: dict[str, int] | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "mix_id": self.mix_id,
            "policy": self.policy,
            "p_cap_w": self.p_cap_w,
            "duration_s": self.duration_s,
            "warmup_s": self.warmup_s,
            "seed": self.seed,
            "use_oracle_estimates": self.use_oracle_estimates,
            "regime": self.regime,
            "trace_hash": self.trace_hash,
            "modes": self.modes,
        }

    @classmethod
    def from_dict(cls, data: Any, path: str = "spec") -> "GoldenSpec":
        doc = _VALIDATE.as_dict(data, path)
        raw_modes = doc.get("modes")
        modes = (
            None
            if raw_modes is None
            else {
                str(mode): _VALIDATE.as_int(count, f"{path}.modes.{mode}")
                for mode, count in _VALIDATE.as_dict(raw_modes, f"{path}.modes").items()
            }
        )
        raw_hash = doc.get("trace_hash")
        if "engine" in doc:
            _VALIDATE.choice(doc["engine"], f"{path}.engine", ("scalar", "vector"))
        return cls(
            name=_VALIDATE.as_str(doc.get("name"), f"{path}.name"),
            mix_id=_VALIDATE.as_int(doc.get("mix_id"), f"{path}.mix_id"),
            policy=_VALIDATE.as_str(doc.get("policy"), f"{path}.policy"),
            p_cap_w=float(_VALIDATE.as_number(doc.get("p_cap_w"), f"{path}.p_cap_w")),
            duration_s=float(
                _VALIDATE.as_number(doc.get("duration_s"), f"{path}.duration_s")
            ),
            warmup_s=float(_VALIDATE.as_number(doc.get("warmup_s"), f"{path}.warmup_s")),
            seed=_VALIDATE.as_int(doc.get("seed"), f"{path}.seed"),
            use_oracle_estimates=_VALIDATE.as_bool(
                doc.get("use_oracle_estimates", False), f"{path}.use_oracle_estimates"
            ),
            regime=_VALIDATE.as_str(doc.get("regime"), f"{path}.regime"),
            trace_hash=None if raw_hash is None else str(raw_hash),
            modes=modes,
        )


@dataclass(frozen=True)
class GoldenOutcome:
    """What replaying a spec actually produced."""

    trace_hash: str
    modes: dict[str, int]
    ticks: int

    @property
    def dominant_mode(self) -> str | None:
        if not self.modes:
            return None
        return max(sorted(self.modes), key=lambda m: self.modes[m])


def run_spec(spec: GoldenSpec, *, defense=None) -> GoldenOutcome:
    """Replay one golden spec, verify its trace, and report the outcome.

    ``defense`` forwards a :class:`repro.core.trust.DefenseConfig`; the
    recorded hashes must be invariant to it on these all-honest runs (the
    trust layer is a pure observer until someone misbehaves).
    """
    # Imported lazily: golden specs sit below the simulation stack, and the
    # simulation stack imports this package.
    from repro.core.simulation import run_mix_experiment
    from repro.workloads.mixes import get_mix

    bus = TraceBus()
    run_mix_experiment(
        list(get_mix(spec.mix_id).profiles()),
        spec.policy,
        spec.p_cap_w,
        mix_id=spec.mix_id,
        duration_s=spec.duration_s,
        warmup_s=spec.warmup_s,
        use_oracle_estimates=spec.use_oracle_estimates,
        seed=spec.seed,
        trace_bus=bus,
        defense=defense,
    )
    verify_trace(bus.events)
    summary = summarize_trace(bus.events)
    return GoldenOutcome(
        trace_hash=summary["hash"], modes=summary["modes"], ticks=summary["ticks"]
    )


def load_specs(path: str | os.PathLike) -> list[GoldenSpec]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ObservabilityError(
            f"cannot read golden specs {path}: {exc.strerror or exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ObservabilityError(f"{path}: not valid JSON: {exc.msg}") from exc
    items = _VALIDATE.as_list(doc, str(path))
    return [GoldenSpec.from_dict(item, f"{path}[{i}]") for i, item in enumerate(items)]


def save_specs(path: str | os.PathLike, specs: list[GoldenSpec]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([spec.to_dict() for spec in specs], handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Replay golden-trace specs: --check compares, --write re-records."
    )
    parser.add_argument("specs", help="path to golden_traces.json")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--check", action="store_true", help="fail on any hash/regime mismatch"
    )
    group.add_argument(
        "--write", action="store_true", help="record current hashes into the file"
    )
    args = parser.parse_args(argv if argv is not None else sys.argv[1:])

    specs = load_specs(args.specs)
    # --write updates the recorded fields in place, so every other key of
    # the file (legacy ``engine`` tags included) survives a re-record.
    with open(args.specs, "r", encoding="utf-8") as handle:
        items = json.load(handle)
    failures = 0
    for item, spec in zip(items, specs):
        outcome = run_spec(spec)
        if outcome.dominant_mode != spec.regime:
            print(
                f"{spec.name}: regime {outcome.dominant_mode!r} != expected "
                f"{spec.regime!r} (modes {outcome.modes})",
                file=sys.stderr,
            )
            failures += 1
        if args.write:
            item.update(trace_hash=outcome.trace_hash, modes=outcome.modes)
            print(f"{spec.name}: recorded {outcome.trace_hash}")
        elif outcome.trace_hash != spec.trace_hash:
            print(
                f"{spec.name}: trace hash {outcome.trace_hash} != recorded "
                f"{spec.trace_hash}",
                file=sys.stderr,
            )
            failures += 1
        else:
            print(f"{spec.name}: ok ({outcome.ticks} ticks, modes {outcome.modes})")
    if args.write and failures == 0:
        with open(args.specs, "w", encoding="utf-8") as handle:
            json.dump(items, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via the regen command
    raise SystemExit(main())
