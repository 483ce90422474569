"""The benchmark's three workloads.

Each workload class makes its inputs from the seed in its constructor (the
set-up the benchmark times), then exposes a closed loop of outside steps:
``step(i)`` is one call into the program, timed by the caller, and
``after_step(i)`` observes the result outside the timed region. ``finish``
checks the outputs and returns a :class:`Outcome`.

Every workload imports ``repro`` lazily, inside its constructor, so the
caller's set-up clock covers ``import repro``.

Sizes: ``full`` is what the benchmark measures; ``tiny`` is a seconds-long
version of the same code path for smoke tests (no pinned digests).
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import struct
from dataclasses import dataclass, field
from pathlib import Path

SIZES = ("full", "tiny")


@dataclass
class Outcome:
    """What one run unit produced, after its output checks.

    Attributes:
        attempted: Operations the unit performed and checked.
        problems: One line per failed check (empty when every check held).
        digest: sha256 of the unit's simulated output; must repeat exactly
            for one seed.
        counters: Program-owned counts and sizes (per-layer metrics).
        info: Extra simulated facts printed for the reader.
    """

    attempted: int
    problems: list[str]
    digest: str
    counters: dict[str, float] = field(default_factory=dict)
    info: dict[str, object] = field(default_factory=dict)


def _sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile ``q`` in [0, 100] of ``values``."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Fig12Netsim:
    """``repro cluster --fast --loss 0.1``: the Fig-12 peak-shaving replay.

    Ten servers carry Table II mixes 1-10 under a synthetic diurnal demand
    trace drawn from the seed; three shave levels; the equal-split caps go
    over the lossy control plane. One outside step: the whole replay.
    """

    name = "fig12-netsim"
    root_span = "cluster.run"
    #: One step per unit: the tail is the replay itself.
    tail_percentile = 100.0
    #: A unit takes ~40 s, so one per run.
    min_units = 1

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        from repro.cluster import ClusterSimulator
        from repro.netsim import NetConfig
        from repro.workloads.mixes import all_mixes
        from repro.workloads.traces import ClusterPowerTrace

        full = size == "full"
        self._seed = seed
        self._simulator = (
            ClusterSimulator() if full else ClusterSimulator(mixes=all_mixes()[:3])
        )
        self._shaves = (0.15, 0.30, 0.45) if full else (0.30,)
        self._duration_s, self._warmup_s = (15.0, 8.0) if full else (4.0, 2.0)
        self.trace = ClusterPowerTrace.synthetic_diurnal(
            peak_w=self._simulator.uncapped_cluster_power_w(),
            step_s=600.0 if full else 3600.0,
            seed=seed,
        )
        self._net = NetConfig(loss=0.1, duplicate=0.05, seed=seed)
        self.n_steps = 1
        self._experiment = None

    def step(self, index: int) -> None:
        self._experiment = self._simulator.run(
            shave_fractions=self._shaves,
            trace=self.trace,
            duration_s=self._duration_s,
            warmup_s=self._warmup_s,
            seed=self._seed,
            netsim=self._net,
        )

    def after_step(self, index: int, step_s: float) -> list[str]:
        return []

    def finish(self, step_durations: list[float]) -> Outcome:
        if self._experiment is None:
            return Outcome(0, ["the replay returned no result"], "")
        problems: list[str] = []
        rows = []
        for shave in sorted(self._experiment.results):
            ceiling_w = (1.0 - shave) * self.trace.peak_w
            caps = self._experiment.cap_traces[shave].demand_w
            if max(caps) > ceiling_w + 1e-6:
                problems.append(f"shave {shave}: cap {max(caps):.3f} W above ceiling {ceiling_w:.3f} W")
            for policy, r in sorted(self._experiment.results[shave].items()):
                values = [
                    r.aggregate_performance,
                    r.mean_power_w,
                    r.power_efficiency,
                    r.budget_efficiency,
                ]
                if not all(math.isfinite(v) for v in values):
                    problems.append(f"shave {shave} {policy}: non-finite result {values}")
                if r.mean_power_w > ceiling_w + 1e-6:
                    problems.append(
                        f"shave {shave} {policy}: mean power {r.mean_power_w:.3f} W "
                        f"above ceiling {ceiling_w:.3f} W"
                    )
                rows.append([shave, policy, *values, r.migrations, r.lost_node_steps])
        return Outcome(
            attempted=len(rows),
            problems=problems,
            digest=_sha256_json(rows),
            info={"results": len(rows)},
        )

    def close(self) -> None:
        pass


class ServeSoak:
    """A ``repro serve`` run: one long-lived mediator fed by the open-loop
    client population, learning online (not ``--oracle``).

    The provisioner cycles the cap through 90 W and 110 W every 60 s via the
    safety lane; a burst at 100-130 s offers 200x the base rate, past what
    ingest drains, so regular commands are shed. Journal and checkpoints
    go to a work directory inside the checkout. One outside step: one tick.
    """

    name = "serve-soak"
    root_span = "service.tick"
    #: 6 of a unit's 3,000 ticks lie beyond it, 18 of a run's; all are
    #: checkpoint ticks.
    tail_percentile = 99.8
    #: Units a run needs for each tick's median over units.
    min_units = 3
    CHECKPOINT_EVERY = 200

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        from repro.service import MediatorService, ServiceConfig
        from repro.workloads.population import BurstWindow

        full = size == "full"
        self.n_steps = 3000 if full else 400
        burst = (100.0, 130.0) if full else (10.0, 20.0)
        # The values `repro serve` passes by default, plus the burst and the
        # cap schedule; everything else is the program's own default.
        self.config = ServiceConfig(
            policy="app+res-aware",
            p_cap_w=100.0,
            use_oracle_estimates=False,
            seed=seed,
            rate_per_s=0.3,
            clients=4,
            diurnal_amplitude=0.3,
            diurnal_period_s=300.0,
            bursts=(BurstWindow(start_s=burst[0], end_s=burst[1], multiplier=200.0),),
            work_scale=0.05,
            ingest_capacity=16,
            backpressure="shed-oldest",
            cap_levels=(90.0, 110.0),
            cap_change_every_s=60.0 if full else 10.0,
            checkpoint_every_ticks=self.CHECKPOINT_EVERY,
        )
        self._workdir = workdir
        self.service = MediatorService(self.config, workdir)
        self._checkpoint_bytes: list[int] = []
        self._checkpoint_ms: list[float] = []
        self._seen_checkpoint: str | None = None
        self._closed = False

    def step(self, index: int) -> None:
        self.service.run_for_ticks(1)

    def after_step(self, index: int, step_s: float) -> list[str]:
        if (index + 1) % self.CHECKPOINT_EVERY == 0:
            self._checkpoint_ms.append(step_s * 1e3)
            newest = max(self.service.checkpoint_dir.glob("svc-*.json"), default=None)
            if newest is not None and newest.name != self._seen_checkpoint:
                self._seen_checkpoint = newest.name
                self._checkpoint_bytes.append(newest.stat().st_size)
        return []

    def finish(self, step_durations: list[float]) -> Outcome:
        self.close()
        counters = self.service.metrics.counters()
        problems: list[str] = []
        ticks = self.service.tick
        if ticks != self.n_steps:
            problems.append(f"ran {ticks} ticks of {self.n_steps}")
        if counters.get("service.ingest.safety_shed", 0) != 0:
            problems.append("the safety lane shed a cap command")
        every = round(self.config.cap_change_every_s / self.config.dt_s)
        scheduled = (ticks - 1) // every
        applied = counters.get("service.commands.cap_applied", 0)
        if applied != scheduled:
            problems.append(f"{applied:.0f} of {scheduled} scheduled SetCaps applied")
        offered = counters.get("service.ingest.accepted", 0) + counters.get(
            "service.ingest.rejected", 0
        )
        nacked = (
            counters.get("service.ingest.shed", 0)
            + counters.get("service.ingest.rejected", 0)
            + counters.get("service.admit.rejected", 0)
        )
        return Outcome(
            attempted=ticks,
            problems=problems,
            digest=self.service.content_hash(),
            counters={
                "persistence.checkpoints": counters.get("service.checkpoints", 0),
                "persistence.checkpoint_bytes.last": (
                    self._checkpoint_bytes[-1] if self._checkpoint_bytes else 0
                ),
                "persistence.checkpoint_bytes.total": sum(self._checkpoint_bytes),
                "service.checkpoint_tick_ms.p50": (
                    percentile(self._checkpoint_ms, 50) if self._checkpoint_ms else 0.0
                ),
                "service.ingest.shed": counters.get("service.ingest.shed", 0),
                "service.ingest.rejected": counters.get("service.ingest.rejected", 0),
                "service.nack_ratio": nacked / offered if offered else 0.0,
            },
            info={
                "offered": offered,
                "shed": counters.get("service.ingest.shed", 0),
                "admitted": counters.get("service.admit.admitted", 0),
                "refused": counters.get("service.admit.rejected", 0),
                "caps_applied": applied,
            },
        )

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.service.close()
            shutil.rmtree(self._workdir, ignore_errors=True)


class Tree1k:
    """``BudgetTreeSimulator`` on a 10x10x10 tree (1,000 leaves), 10% loss.

    The loaded-leaf count follows a diurnal curve whose phase and noise
    come from the seed, so leases grow and shrink; the last 20 steps hold
    the curve's mean load, 55%, so leases settle before the zombie check.
    One outside step: one tree step.
    """

    name = "tree-1k"
    root_span = "hierarchy.step"
    #: 5 of a unit's 100 steps lie beyond it, 15 of a run's.
    tail_percentile = 95.0
    #: Units a run needs for each step's median over units.
    min_units = 3
    DRAIN_STEPS = 20

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        import numpy as np
        from repro.hierarchy import BudgetTreeSimulator, TreeSpec
        from repro.netsim import NetConfig

        self._fanouts = (10, 10, 10) if size == "full" else (2, 3, 4)
        n_leaves = math.prod(self._fanouts)
        spec = TreeSpec(fanouts=self._fanouts, budget_w=100.0 * n_leaves)
        self.n_steps = 100 if size == "full" else 60
        rng = np.random.default_rng(seed)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        period = (self.n_steps - self.DRAIN_STEPS) / 2.0
        t = np.arange(self.n_steps - self.DRAIN_STEPS)
        level = 0.55 + 0.35 * np.sin(2.0 * math.pi * t / period + phase)
        level += rng.normal(0.0, 0.02, size=t.size)
        counts = np.clip(np.rint(level * n_leaves), 0, n_leaves).astype(int).tolist()
        # Every seed drains at the curve's mean load, so the seeds differ in
        # phase and noise but not in how much work the drain makes.
        counts += [round(0.55 * n_leaves)] * self.DRAIN_STEPS
        self._loaded = [frozenset(range(k)) for k in counts]
        self._budget_w = spec.budget_w
        self.sim = BudgetTreeSimulator(spec, net=NetConfig(loss=0.1, duplicate=0.05, seed=seed))
        # Leaf ranges per interior node, derived here rather than through
        # the topology so the checks add no calls to the traced layers.
        self._ranges = {path: self._leaf_range(path) for path in self.sim.nodes}
        self._rows: list[tuple[float, ...]] = []

    def _leaf_range(self, path: tuple[int, ...]) -> tuple[int, int]:
        start = 0
        for level, part in enumerate(path):
            start += part * math.prod(self._fanouts[level + 1 :])
        return start, start + math.prod(self._fanouts[len(path) :])

    def step(self, index: int) -> None:
        self._rows.append(self.sim.step(index, self._loaded[index]))

    def after_step(self, index: int, step_s: float) -> list[str]:
        row = self._rows[-1]
        problems = []
        for path, node in self.sim.nodes.items():
            start, stop = self._ranges[path]
            total = math.fsum(row[start:stop])
            budget = node.enforced_budget_w(index)
            if total > budget + 1e-6 * (stop - start):
                problems.append(
                    f"step {index} node {path}: children hold {total:.6f} W "
                    f"over budget {budget:.6f} W"
                )
        if math.fsum(row) > self._budget_w + 1e-6 * len(row):
            problems.append(f"step {index}: leaf caps exceed the datacenter budget")
        return problems

    def finish(self, step_durations: list[float]) -> Outcome:
        problems = []
        if len(self._rows) != self.n_steps:
            problems.append(f"ran {len(self._rows)} steps of {self.n_steps}")
        elif not self.sim.zombie_free(self.n_steps - 1):
            problems.append("an endpoint enforces an extra its parent stopped accounting")
        digest = hashlib.sha256()
        for row in self._rows:
            digest.update(struct.pack(f"<{len(row)}d", *row))
        stats = self.sim.net_stats()
        return Outcome(
            attempted=len(self._rows),
            problems=problems,
            digest=digest.hexdigest(),
            counters={
                "hierarchy.fallbacks": self.sim.fallbacks,
                "hierarchy.heals": self.sim.heals,
            },
            info={"net": stats, "fallbacks": self.sim.fallbacks, "heals": self.sim.heals},
        )

    def close(self) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (Fig12Netsim, ServeSoak, Tree1k)}
