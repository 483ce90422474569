"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-soak --seed 1 --seconds 20 --trace 0

The run starts ``perfbench/unit.py`` in a fresh interpreter once per run
unit, one at a time, until ``--seconds`` of wall time is spent (at least
the workload's ``min_units``; two when tracing, so that the per-layer
counts can be compared). Untraced runs add set-up-only units until the
set-up time has five samples. Times are each step's median over the
units, in CPU time on the speed scale of ``speed.py``.
It prints a readable report, then, as the last line of standard output,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the ``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``. The full record, host fingerprint
included, is also written under ``.perfbench_out/``.

It exits 2 without a result when the benchmark cannot run at all, for
example when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SIZES, WORKLOADS, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
UNIT_TIMEOUT_S = 150

#: Where the ROADMAP profiles put the largest self time, per workload.
EXPECTED_TOP = {
    "fig12-netsim": (("learning",), "the corpus rebuild (learning)"),
    "serve-soak": (("persistence",), "checkpointing (persistence)"),
    "tree-1k": (("netsim", "hierarchy"), "netsim plus leaf_index (netsim, hierarchy)"),
}


class BenchmarkError(Exception):
    """The benchmark itself could not run (no result is printed)."""


def spawn(args: argparse.Namespace, mode: str, spans: Path | None = None) -> dict:
    """Run one unit in a fresh interpreter and return its JSON result."""
    command = [
        sys.executable,
        str(HERE / "unit.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--mode", mode,
        "--trace", str(args.trace),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=UNIT_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"a {mode} unit ran past {UNIT_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise BenchmarkError(f"a {mode} unit exited {proc.returncode}: {tail}")
    return json.loads(lines[-1])


def fingerprint(versions: dict) -> dict:
    """Python and numpy versions, CPU model, core count, code identity."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        git_sha = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    return {
        **versions,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_sha": git_sha,
        "src_sha256": source.hexdigest(),
    }


def load_golden(size: str) -> dict[str, dict[str, str]]:
    """Pinned output digests per workload and seed (full size only)."""
    path = HERE / "golden.json"
    if size != "full" or not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def run_units(args: argparse.Namespace) -> tuple[list[dict], list[float]]:
    """Run units until ``args.seconds`` is spent; return them and the
    set-up samples (units' own plus set-up-only units)."""
    units: list[dict] = []
    start = time.perf_counter()
    min_units = max(2 if args.trace else 1, WORKLOADS[args.workload].min_units)
    while True:
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-{len(units)}.json"
        units.append(spawn(args, "run", spans if args.trace else None))
        elapsed = time.perf_counter() - start
        if len(units) >= min_units and elapsed * (len(units) + 1) / len(units) > args.seconds:
            break
    setups = [u["setup_s"] for u in units if u.get("setup_s") is not None]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setup_s = spawn(args, "setup").get("setup_s")
        if setup_s is None:  # set-up failed; the run units report why
            break
        setups.append(setup_s)
    return units, setups


def judge(args: argparse.Namespace, units: list[dict]) -> list[str]:
    """Mark failed units (their ``problems``) and return run-level problems."""
    problems: list[str] = []
    digests = {u.get("digest") for u in units}
    if len(digests) > 1:
        problems.append(f"output digest differs between units of one seed: {sorted(map(str, digests))}")
    pinned = load_golden(args.size).get(args.workload, {}).get(str(args.seed))
    for unit in units:
        if pinned is not None and unit.get("digest") != pinned:
            unit.setdefault("problems", []).append(
                f"output digest {unit.get('digest')} differs from the pinned {pinned}"
            )
    return problems


def count_mismatches(units: list[dict], units_of: dict[str, str]) -> list[str]:
    """Per-layer counts (anything not a time) that differ between units."""
    names = []
    for name, unit in units_of.items():
        if unit in ("s", "ms"):
            continue
        values = {json.dumps(u["layers"].get(name)) for u in units if "layers" in u}
        if len(values) > 1:
            names.append(f"{name}: {sorted(values)}")
    return names


def median_steps_ms(units: list[dict]) -> list[float]:
    """Each step's median time over the units, in ms.

    Every unit runs the same deterministic steps, so step ``i`` costs the
    same in each; the median over units drops the slow copies a transient
    stall of the host left in one unit.
    """
    runs = [u["steps_s"] for u in units if "steps_s" in u]
    if not runs:
        return [0.0]
    return [statistics.median(step) * 1e3 for step in zip(*runs)]


def end_to_end(units: list[dict], setups: list[float]) -> dict[str, float]:
    ran = [u for u in units if "run_s" in u]
    steps_ms = [s * 1e3 for u in ran for s in u["steps_s"]] or [0.0]
    tail = ran[0]["tail_percentile"] if ran else 100.0
    return {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "run_s": math.fsum(median_steps_ms(ran)) / 1e3,
        "step_ms.p50": percentile(steps_ms, 50),
        "step_ms.tail": percentile(steps_ms, tail),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in ran) if ran else 0.0,
    }


def per_layer(units: list[dict], units_of: dict[str, str], mismatches: list[str]) -> dict[str, float]:
    metrics = {}
    for name, unit in units_of.items():
        values = [u["layers"].get(name, 0) for u in units if "layers" in u]
        if not values:
            metrics[name] = 0
        elif unit in ("s", "ms"):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
    metrics["trace.count_mismatches"] = len(mismatches)
    return metrics


def report_layers(workload: str, metrics: dict[str, float], units: list[dict]) -> list[str]:
    """The per-layer table and where the largest self time sits."""
    layers = sorted(
        (name.split(".")[1] for name in metrics if name.startswith("layer.") and name.endswith(".self_s")),
        key=lambda layer: -metrics[f"layer.{layer}.self_s"],
    )
    total = sum(metrics[f"layer.{layer}.self_s"] for layer in layers) or 1.0
    lines = [f"{'layer':<15}{'self s':>10}{'share':>9}{'calls':>12}"]
    for layer in layers:
        self_s = metrics[f"layer.{layer}.self_s"]
        lines.append(
            f"{layer:<15}{self_s:>10.3f}{self_s / total:>9.1%}"
            f"{metrics[f'layer.{layer}.calls']:>12.0f}"
        )
    top = layers[0]
    expected, described = EXPECTED_TOP[workload]
    verdict = "agrees" if top in expected else "differs"
    lines.append(
        f"largest self time: {top} ({metrics[f'layer.{top}.self_s'] / total:.1%} of traced "
        f"time); the ROADMAP profile puts it in {described}: {verdict}"
    )
    absent = {}
    for unit in units:
        absent.update(unit.get("absent", {}))
    for target, reason in sorted(absent.items()):
        lines.append(f"absent hook {target}: {reason}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=SIZES, default="full",
        help="tiny: a seconds-long smoke version of the workload",
    )
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchmarkError(f"no src/repro under {ROOT}")
        units, setups = run_units(args)
    except (BenchmarkError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    problems = judge(args, units)
    kind = "per_layer" if args.trace else "end_to_end"
    units_of = {m["name"]: m["unit"] for m in spec[kind]}
    mismatches = []
    if args.trace:
        mismatches = count_mismatches(units, units_of)
        problems += [f"per-layer count differs between units: {m}" for m in mismatches]
        values = per_layer(units, units_of, mismatches)
    else:
        values = end_to_end(units, setups)
    failed_units = [u for u in units if u.get("problems")]
    attempted = sum(max(1, u.get("attempted", 0)) for u in units)
    failed = attempted if problems else sum(max(1, u.get("attempted", 0)) for u in failed_units)
    host = fingerprint(next((u["versions"] for u in units if "versions" in u), {}))

    mode = "traced" if args.trace else "untraced"
    lines = [
        f"perfbench {args.workload} seed {args.seed} ({mode}, {args.size}): "
        f"{len(units)} run unit(s), {len(setups)} set-up sample(s)",
        "host: " + ", ".join(f"{k} {v}" for k, v in host.items()),
    ]
    for unit in units:
        lines.append(f"unit: digest {unit.get('digest')} {json.dumps(unit.get('info', {}))}")
        if "run_s" in unit:
            lines.append(
                f"unit: run_s {unit['run_s']:.4f} = {unit['run_cpu_s']:.4f} s CPU x speed scale "
                f"{unit['speed_scale']:.4f} ({unit['speed_samples']} kernel samples)"
            )
    if args.trace:
        lines += report_layers(args.workload, values, units)
    else:
        steps = sum(len(u.get("steps_s", ())) for u in units)
        lines.append(
            f"run_s sums each step's median over {len(units)} unit(s); "
            f"step_ms.tail is p{units[0].get('tail_percentile')} of their {steps} steps"
        )
    lines += [f"{name:<40}{values[name]:>16.6g}  {unit}" for name, unit in units_of.items()]
    lines.append(f"failed_ratio {failed}/{attempted}")
    for problem in problems + [p for u in failed_units for p in u["problems"]]:
        lines.append(f"FAILED: {problem.strip()}")
    print("\n".join(lines))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units_of.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "host": host,
        "units": [{k: v for k, v in u.items() if k != "steps_s"} for u in units],
        "setup_samples_s": setups,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
