"""Regenerate ``golden.json``: the pinned output digest of each full-size
workload for each seed.

    python3 perfbench/pin.py                      # every workload, seeds 0-15
    python3 perfbench/pin.py --workload tree-1k --seeds 0-3

Run it only for a change that is meant to move simulated outputs; the
pins are what turns a changed trace into a failed benchmark run.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(run.WORKLOADS), action="append")
    parser.add_argument("--seeds", default="0-15", help="first-last, inclusive")
    args = parser.parse_args(argv)
    first, last = (int(part) for part in args.seeds.split("-"))
    path = run.HERE / "golden.json"
    golden = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for workload in args.workload or run.WORKLOADS:
        pins = golden.setdefault(workload, {})
        for seed in range(first, last + 1):
            unit_args = argparse.Namespace(workload=workload, seed=seed, size="full", trace=0)
            unit = run.spawn(unit_args, "run")
            if unit.get("problems"):
                print(f"error: {workload} seed {seed}: {unit['problems']}", file=sys.stderr)
                return 2
            pins[str(seed)] = unit["digest"]
            print(f"{workload} seed {seed}: {unit['digest']}", flush=True)
        golden[workload] = dict(sorted(pins.items(), key=lambda item: int(item[0])))
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
