"""One run unit of a workload, in a fresh interpreter.

``run.py`` starts this script once per unit so that every unit pays what a
user of ``repro ...`` pays: a cold import, cold module caches and its own
peak memory. The unit sets the workload up (``--mode setup`` stops there),
drives its steps in a closed loop, checks the outputs, and prints one JSON
object as its last line of standard output.

The set-up and step times it reports are CPU time of this process
(``time.process_time``), put on the reference scale of ``speed.py``. On a
paravirtualised host the kernel leaves out of CPU time the time the
hypervisor runs other guests on this vCPU, which wall time counts; the
scale takes out the drift of the host's speed. The raw CPU times and the
scale are reported beside them.

It exits 0 with a result, program failures included; it exits non-zero
without a result when ``repro`` cannot be imported from the checkout's
``src``.
"""

from __future__ import annotations

import time

_T0 = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PHASES = ("learn", "allocate", "coordinate", "actuate", "engine", "telemetry", "defense", "events")


def _import_repro():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"error: cannot import repro from {src}: {exc}") from None
    location = Path(repro.__file__).resolve()
    if src.resolve() not in location.parents:
        raise SystemExit(f"error: imported repro from {location}, not from {src}")
    return repro


def layer_metrics(tracer, outcome, run_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced unit, by name."""
    from tracing import LAYERS, layer_of

    spans = tracer.recorder.by_name()

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    phases = tracer.phases
    net = tracer.network_stats()
    lookups = calls("cluster.bin_lookup")
    evaluated = calls("core.mix_experiment")
    hits = max(0, lookups - evaluated)
    metrics = {
        "learning.corpus_builds": calls("learning.corpus"),
        "learning.corpus_s": self_s("learning.corpus"),
        "core.mediators_built": calls("core.mediator_init"),
        "core.mediator_init_s": self_s("core.mediator_init"),
        "core.mediator_ticks": phases.get("engine", {}).get("calls", 0),
        "core.mediator_step_s": self_s("core.mediator_run"),
        "server.ticks": calls("server.tick"),
        "server.tick_s": self_s("server.tick"),
        **{f"core.phase.{p}_s": phases.get(p, {}).get("total_s", 0.0) for p in PHASES},
        "core.state_dict_s": self_s("core.state_dict"),
        "persistence.checkpoint_s": self_s("persistence.checkpoint"),
        "persistence.journal_appends": calls("persistence.journal_append"),
        "persistence.journal_s": self_s("persistence.journal_append"),
        "persistence.fsyncs": calls("persistence.fsync"),
        "persistence.fsync_s": self_s("persistence.fsync"),
        "service.ingest.offers": calls("service.ingest_offer"),
        "service.ingest.offer_s": self_s("service.ingest_offer"),
        "service.sessions.deliveries": calls("service.session_deliver"),
        "service.sessions.deliver_s": self_s("service.session_deliver"),
        "service.retention_s": self_s("service.retention"),
        "observability.trace_events": calls("observability.emit"),
        "observability.emit_s": self_s("observability.emit"),
        "netsim.sent": net.get("sent", 0),
        "netsim.dropped_loss": net.get("dropped_loss", 0),
        "netsim.duplicated": net.get("duplicated", 0),
        "netsim.send_s": self_s("netsim.send"),
        "netsim.deliver_s": self_s("netsim.deliver"),
        "hierarchy.steps": calls("hierarchy.step"),
        "hierarchy.step_self_s": self_s("hierarchy.step"),
        "hierarchy.leaf_index_calls": calls("hierarchy.leaf_index"),
        "hierarchy.leaf_index_s": self_s("hierarchy.leaf_index"),
        "cluster.controlplane_s": self_s("cluster.controller_step"),
        "cluster.bins_evaluated": evaluated,
        "cluster.bin_cache_hits": hits,
        "cluster.bin_hit_ratio": hits / lookups if lookups else 0.0,
        "engine.surface_builds": calls("engine.surface_build"),
        "engine.fallback": tracer.engine_fallbacks,
        "engine.fleet_fast_fraction": tracer.fleet_fast_fraction(),
        "trace.run_s": run_s,
        "trace.spans": len(tracer.recorder),
        "trace.hooks_absent": len(tracer.absent),
    }
    layer_self = {layer: 0.0 for layer in LAYERS}
    layer_calls = {layer: 0 for layer in LAYERS}
    for name, row in spans.items():
        layer = layer_of(name)
        layer_self[layer] = layer_self.get(layer, 0.0) + row["self_s"]
        layer_calls[layer] = layer_calls.get(layer, 0) + row["calls"]
    for layer in layer_self:
        metrics[f"layer.{layer}.self_s"] = layer_self[layer]
        metrics[f"layer.{layer}.calls"] = layer_calls[layer]
    # Counts the program keeps itself (registry counters, files on disk).
    metrics.update(outcome.counters)
    return metrics


def run_unit(args: argparse.Namespace) -> dict:
    _import_repro()
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        work = WORKLOADS[args.workload](args.seed, args.size, workdir)
    except Exception:  # a program failure at set-up is a failed unit
        if tracer is not None:
            tracer.uninstall()
        return {"setup_s": None, "problems": [traceback.format_exc(limit=3)]}
    setup_cpu_s = time.process_time() - _T0
    from speed import AROUND, SpeedProbe

    probe = SpeedProbe()
    try:
        probe.start()
        probe.sample(AROUND)
        if args.mode == "setup":
            work.close()
            return {"setup_s": setup_cpu_s * probe.scale(), "setup_cpu_s": setup_cpu_s}
        if tracer is None:  # a sample inside a step would stretch its spans
            probe.interleave()
        result = run_steps(work, tracer)
        probe.stop()
        probe.sample(AROUND)
    finally:
        probe.close()
    scale = probe.scale()
    import numpy

    result.update(
        setup_s=setup_cpu_s * scale,
        setup_cpu_s=setup_cpu_s,
        run_s=result["run_cpu_s"] * scale,
        steps_s=[d * scale for d in result["steps_s"]],
        speed_scale=scale,
        speed_samples=len(probe.samples),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__},
    )
    outcome = result.pop("outcome")
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, outcome, result["run_s"])
        result["absent"] = tracer.absent
        if args.spans:
            tracer.recorder.write(Path(args.spans))
    return result


def run_steps(work, tracer) -> dict:
    """Drive the steps in a closed loop, timing each in CPU time, and
    check the outputs."""
    durations: list[float] = []
    problems: list[str] = []
    recorder = tracer.recorder if tracer is not None else None
    root = recorder.name_index(work.root_span) if recorder is not None else 0
    for index in range(work.n_steps):
        if recorder is not None:
            recorder.current_unit = index
            span = recorder.open(root)
        start = time.process_time()
        try:
            work.step(index)
        except Exception:  # the loop must report, not crash, on a program error
            problems.append(f"step {index}: {traceback.format_exc(limit=3)}")
            break
        finally:
            elapsed = time.process_time() - start
            if recorder is not None:
                recorder.close(span)
        durations.append(elapsed)
        problems.extend(work.after_step(index, elapsed))
    if tracer is not None:
        tracer.uninstall()
    outcome = work.finish(durations)
    problems.extend(outcome.problems)
    return {
        "run_cpu_s": sum(durations),
        "steps_s": durations,
        "tail_percentile": work.tail_percentile,
        "attempted": outcome.attempted,
        "problems": problems,
        "digest": outcome.digest,
        "info": outcome.info,
        "outcome": outcome,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write the traced spans here")
    args = parser.parse_args(argv)
    result = run_unit(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
