"""Service-mode chaos: client churn, ingest overload, mid-stream kills.

The scenario ISSUE 6 demands: an open-loop client population streams
commands at a :class:`~repro.service.loop.MediatorService` while clients
churn (disconnect/reconnect on a seeded schedule), burst windows push the
ingest buffer into overload, and the process is killed mid-stream with a
torn journal tail. :func:`run_service_soak` executes that run *and* an
uninterrupted baseline with the identical churn schedule, then enforces
the service invariants (each failure raises
:class:`~repro.errors.ChaosError` with the violating numbers):

1. **Cap safety** - the recovered mediator's history (the sealed summary
   plus the timeline since the last checkpoint) passes
   :func:`~repro.core.simulation.verify_cap_invariant`: wall power at or
   under the cap at every tick, any flagged breach accounted.
2. **Safety lane integrity** - zero ``service.ingest.safety_shed``, every
   scheduled cap change applied; when overload was provoked, the regular
   ``service.ingest.shed`` counter proves arrivals were shed instead.
3. **Determinism through crashes** - every sim-side service counter
   (ingest dispositions, admissions, deliveries, replays, completions)
   matches the uninterrupted baseline exactly, and the stitched streaming
   trace hashes identically to the baseline's.
4. **Gap-free replay** - replay verification is built into
   :meth:`~repro.service.sessions.ClientSession.reconnect` (a gap raises
   mid-run); the soak additionally requires that churn actually exercised
   it (``service.sessions.replayed`` > 0).
5. **Bounded footprint** - retained trace events, journal segments, and
   on-disk checkpoints all end under their configured bounds. Before every
   tick of both runs, the mediator holds at most one checkpoint interval
   of history: no more timeline records than the checkpoint cadence, and
   no event older than the last seal. Every checkpoint written holds the
   mediator's past only as the fixed-size sealed summary (no timeline
   record, logged event or departed app), and the client session windows
   only the deliveries a reconnect will replay, so whole checkpoints stay
   flat: the largest checkpoint of a run's second half is at most
   :data:`CHECKPOINT_GROWTH_BOUND` times the largest of its first half.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.chaos.harness import kill_at, kill_schedule
from repro.core.simulation import verify_cap_invariant
from repro.errors import ChaosError, ConfigurationError, SimulationError
from repro.persistence.segments import list_segments
from repro.service.loop import MediatorService, ServiceConfig

__all__ = ["ChurnSchedule", "ServiceSoakReport", "run_service_soak"]

#: Sim-side counters that must be identical between a crash-recovered run
#: and its uninterrupted baseline (execution-side counters - restarts,
#: replayed ticks, checkpoints, retention - legitimately differ).
DETERMINISTIC_COUNTERS = (
    "service.ingest.accepted",
    "service.ingest.rejected",
    "service.ingest.deferred",
    "service.ingest.shed",
    "service.ingest.safety_accepted",
    "service.ingest.safety_shed",
    "service.admit.admitted",
    "service.admit.rejected",
    "service.commands.cap_applied",
    "service.jobs.completed",
    "service.jobs.cancelled",
    "service.overload.entered",
    "service.overload.exited",
    "service.sessions.deliveries",
    "service.sessions.disconnects",
    "service.sessions.reconnects",
    "service.sessions.replayed",
)

#: Invariant 5: the largest checkpoint of a run's second half over the
#: largest of its first half, in whole-file bytes.
CHECKPOINT_GROWTH_BOUND = 1.1


class ChurnSchedule:
    """A seeded, tick-keyed client disconnect/reconnect schedule.

    Purely a function of its constructor arguments: the service consults it
    inside the deterministic tick pipeline, so the same schedule drives the
    baseline and the chaos run (and crash re-execution) identically.

    Args:
        clients: Client ids ``0..clients-1`` are eligible to churn.
        total_ticks: Horizon the events are scattered over.
        events: Disconnect/reconnect pairs to schedule.
        seed: Chaos seed (independent of the simulation's RNG).
        min_off_ticks / max_off_ticks: Disconnect duration bounds.
    """

    def __init__(
        self,
        *,
        clients: int,
        total_ticks: int,
        events: int,
        seed: int,
        min_off_ticks: int = 20,
        max_off_ticks: int = 200,
    ) -> None:
        if clients < 1:
            raise ConfigurationError(f"need at least one client, got {clients}")
        if not 1 <= min_off_ticks <= max_off_ticks:
            raise ConfigurationError(
                f"churn needs 1 <= min_off <= max_off, got "
                f"{min_off_ticks}..{max_off_ticks}"
            )
        self._by_tick: dict[int, list[tuple[str, int]]] = {}
        rng = np.random.default_rng(seed)
        for _ in range(max(0, events)):
            client = int(rng.integers(clients))
            start = int(rng.integers(1, max(2, total_ticks)))
            off = int(rng.integers(min_off_ticks, max_off_ticks + 1))
            self._by_tick.setdefault(start, []).append(("disconnect", client))
            self._by_tick.setdefault(start + off, []).append(("connect", client))
        # Deterministic intra-tick order: connects first (so a same-tick
        # disconnect of the same client wins), then by client id.
        for actions in self._by_tick.values():
            actions.sort(key=lambda a: (a[0] != "connect", a[1]))

    def at(self, tick: int) -> list[tuple[str, int]]:
        return self._by_tick.get(tick, [])

    @property
    def event_count(self) -> int:
        return sum(len(v) for v in self._by_tick.values())


@dataclass(frozen=True)
class ServiceSoakReport:
    """Outcome of one service soak (invariants already enforced).

    Attributes:
        ticks: Sim ticks both runs completed.
        kill_ticks: Where the chaos run was killed.
        restarts: Warm restarts the chaos run survived.
        replayed_ticks: Ticks re-executed across all recoveries.
        breach_ticks: Flagged (responded-to) cap breach ticks.
        shed_commands: Regular commands shed under overload (identical in
            both runs by invariant 3).
        replayed_deliveries: Deliveries replayed to reconnecting clients.
        trace_hash: The (identical) content hash of both runs' traces.
        counters: The chaos run's full service counter map.
        checkpoint_bytes_max: The largest checkpoint either run wrote, in
            bytes (sampled at every checkpoint-cadence tick).
        checkpoint_growth: Largest checkpoint in the second half of a run
            over the largest in its first half (the larger of the two
            runs); at most :data:`CHECKPOINT_GROWTH_BOUND` by invariant 5.
    """

    ticks: int
    kill_ticks: tuple[int, ...]
    restarts: int
    replayed_ticks: int
    breach_ticks: int
    shed_commands: int
    replayed_deliveries: int
    trace_hash: str
    counters: dict[str, float]
    checkpoint_bytes_max: int
    checkpoint_growth: float


class _HistoryProbe:
    """Tick hook recording how much history a service's mediator holds.

    Runs before every tick (replayed ones included), then chains to the
    kill hook, if any. ``service`` is set once the service exists.
    """

    def __init__(self, kill_hook: Callable[[int], None] | None = None) -> None:
        self.service: MediatorService | None = None
        self.max_timeline = 0
        self.max_events = 0
        self.stale_events = 0
        self._kill_hook = kill_hook

    def __call__(self, tick: int) -> None:
        assert self.service is not None
        mediator = self.service.mediator
        self.max_timeline = max(self.max_timeline, len(mediator.timeline))
        events = mediator.accountant.event_log
        self.max_events = max(self.max_events, len(events))
        sealed_to = mediator.history.last_time_s
        if events and sealed_to is not None and events[0].time_s < sealed_to:
            self.stale_events += 1
        if self._kill_hook is not None:
            self._kill_hook(tick)


def _run_sampling_checkpoints(
    service: MediatorService, total_ticks: int
) -> list[tuple[int, int]]:
    """Run ``service`` to ``total_ticks`` one checkpoint interval at a time.

    Equivalent to one ``run_for_ticks(total_ticks)`` call; after each
    interval the newest checkpoint is read back. Returns one pair per
    checkpoint: its bytes, and the unsealed history it holds (timeline
    records + logged events + departed apps).
    """
    samples: list[tuple[int, int]] = []
    every = service.config.checkpoint_every_ticks
    while service.tick < total_ticks:
        service.run_for_ticks(min(every, total_ticks - service.tick))
        newest = max(service.checkpoint_dir.glob("svc-*.json"))
        text = newest.read_text(encoding="utf-8")
        state = json.loads(text)["mediator_state"]
        unsealed = (
            len(state["timeline"]) + len(state["accountant"]["log"]) + len(state["finished"])
        )
        samples.append((len(text), unsealed))
    return samples


def _growth(samples: list[tuple[int, int]]) -> float:
    """Largest late-half over largest early-half checkpoint bytes."""
    if len(samples) < 2:
        return 1.0
    half = len(samples) // 2
    early = max(size for size, _ in samples[:half])
    late = max(size for size, _ in samples[half:])
    return late / early


def _counter(counters: dict[str, float], name: str) -> float:
    return float(counters.get(name, 0.0))


def run_service_soak(
    config: ServiceConfig,
    workdir: str | Path,
    *,
    total_ticks: int,
    kills: int = 2,
    churn_events: int = 8,
    chaos_seed: int = 0,
    tear_journal_bytes: int = 256,
    expect_sheds: bool = False,
    expect_overload: bool = False,
) -> ServiceSoakReport:
    """Run baseline + chaos service runs and enforce the soak invariants.

    Args:
        config: The service recipe both runs share.
        workdir: Scratch root; ``baseline/`` and ``chaos/`` land inside.
        total_ticks: Sim ticks to run.
        kills: Mid-stream process kills to inject.
        churn_events: Client disconnect/reconnect pairs to schedule.
        chaos_seed: Seed for kill ticks and churn (never the sim's RNG).
        tear_journal_bytes: Un-fsynced journal tail destroyed per crash.
        expect_sheds: Require that overload actually shed arrivals (use
            with a config whose bursts overrun the ingest buffer).
        expect_overload: Require that the overload posture was entered.

    Returns:
        The :class:`ServiceSoakReport`; raises :class:`ChaosError` on any
        invariant violation.
    """
    workdir = Path(workdir)
    churn = ChurnSchedule(
        clients=config.clients,
        total_ticks=total_ticks,
        events=churn_events,
        seed=chaos_seed,
    )
    kill_ticks = kill_schedule(total_ticks, kills, chaos_seed)

    base_probe = _HistoryProbe()
    baseline = MediatorService(
        config, workdir / "baseline", churn=churn, tick_hook=base_probe
    )
    base_probe.service = baseline
    base_samples = _run_sampling_checkpoints(baseline, total_ticks)
    baseline.close()
    base_hash = baseline.content_hash()
    base_counters = dict(baseline.metrics.counters())

    chaos_probe = _HistoryProbe(kill_at(kill_ticks))
    chaos = MediatorService(
        config,
        workdir / "chaos",
        churn=churn,
        tick_hook=chaos_probe,
        tear_journal_bytes_on_crash=tear_journal_bytes,
    )
    chaos_probe.service = chaos
    chaos_samples = _run_sampling_checkpoints(chaos, total_ticks)
    chaos.close()
    chaos_hash = chaos.content_hash()
    counters = dict(chaos.metrics.counters())

    if chaos.tick != total_ticks or baseline.tick != total_ticks:
        raise ChaosError(
            f"runs fell short: baseline {baseline.tick}, chaos {chaos.tick}, "
            f"wanted {total_ticks}"
        )
    restarts = int(_counter(counters, "service.restarts"))
    if kill_ticks and restarts != len(kill_ticks):
        raise ChaosError(
            f"scheduled {len(kill_ticks)} kills but the service recorded "
            f"{restarts} restarts"
        )

    # 1. Cap safety over the recovered history (sealed summary + window).
    try:
        breach_ticks = verify_cap_invariant(chaos.mediator)
        verify_cap_invariant(baseline.mediator)
    except SimulationError as exc:
        raise ChaosError(f"cap invariant violated: {exc}") from None

    # 2. The safety lane was never shed; cap changes all landed.
    if _counter(counters, "service.ingest.safety_shed") != 0:
        raise ChaosError(
            f"{_counter(counters, 'service.ingest.safety_shed'):.0f} cap-safety "
            "commands were shed"
        )
    applied = _counter(counters, "service.commands.cap_applied")
    accepted_safety = _counter(counters, "service.ingest.safety_accepted")
    if applied != accepted_safety:
        raise ChaosError(
            f"{accepted_safety:.0f} cap commands entered the safety lane but "
            f"only {applied:.0f} were applied"
        )
    sheds = _counter(counters, "service.ingest.shed")
    if expect_sheds and sheds == 0:
        raise ChaosError("overload was expected to shed arrivals but shed none")
    if expect_overload and _counter(counters, "service.overload.entered") == 0:
        raise ChaosError("the overload posture was never entered")

    # 3. Determinism: sim-side counters and the stitched trace.
    for name in DETERMINISTIC_COUNTERS:
        base_v, chaos_v = _counter(base_counters, name), _counter(counters, name)
        if base_v != chaos_v:
            raise ChaosError(
                f"counter {name} diverged: baseline {base_v:.0f}, "
                f"chaos {chaos_v:.0f}"
            )
    if chaos_hash != base_hash:
        raise ChaosError(
            f"stitched trace hash {chaos_hash[:12]} != baseline {base_hash[:12]}"
        )

    # 4. Replay was exercised (gaps would have raised mid-run).
    replayed = _counter(counters, "service.sessions.replayed")
    if churn_events > 0 and replayed == 0:
        raise ChaosError("churn was scheduled but no deliveries were replayed")

    # 5. Bounded footprint.
    retention = config.retention
    cadence = config.checkpoint_every_ticks
    growth = 1.0
    for probe, samples, label in (
        (base_probe, base_samples, "baseline"),
        (chaos_probe, chaos_samples, "chaos"),
    ):
        if probe.max_timeline > cadence:
            raise ChaosError(
                f"{label}: the mediator held {probe.max_timeline} timeline "
                f"records, bound {cadence} (one checkpoint interval)"
            )
        if probe.stale_events:
            raise ChaosError(
                f"{label}: on {probe.stale_events} ticks the event log held "
                f"events from before the last seal (up to {probe.max_events})"
            )
        unsealed = max(held for _, held in samples)
        if unsealed:
            raise ChaosError(
                f"{label}: a checkpoint held {unsealed} unsealed history "
                "entries (timeline records, events, departed apps); bound 0"
            )
        run_growth = _growth(samples)
        if run_growth > CHECKPOINT_GROWTH_BOUND:
            raise ChaosError(
                f"{label}: late checkpoints grew to {run_growth:.3f}x the early "
                f"ones ({max(size for size, _ in samples)} bytes), bound "
                f"{CHECKPOINT_GROWTH_BOUND}x"
            )
        growth = max(growth, run_growth)
    for svc, label in ((baseline, "baseline"), (chaos, "chaos")):
        bus = svc.trace_bus
        retained = getattr(bus, "retained_events", 0)
        # One compaction pass runs per retention cadence; between passes the
        # window may grow by everything emitted since, bounded by cadence.
        slack = retention.every_ticks * 64
        if retained > retention.retain_trace_events + slack:
            raise ChaosError(
                f"{label}: {retained} trace events retained, bound "
                f"{retention.retain_trace_events} (+{slack} cadence slack)"
            )
        segments = len(list_segments(svc.journal_dir))
        segment_bound = (
            2
            + (retention.every_ticks * 8) // retention.records_per_segment
            + (total_ticks % retention.every_ticks * 8) // retention.records_per_segment
        )
        if segments > segment_bound:
            raise ChaosError(
                f"{label}: {segments} journal segments on disk, bound {segment_bound}"
            )
        checkpoints = len(sorted(svc.checkpoint_dir.glob("svc-*.json")))
        if checkpoints > retention.keep_checkpoints + 1:
            raise ChaosError(
                f"{label}: {checkpoints} checkpoints on disk, bound "
                f"{retention.keep_checkpoints + 1}"
            )

    return ServiceSoakReport(
        ticks=total_ticks,
        kill_ticks=tuple(kill_ticks),
        restarts=restarts,
        replayed_ticks=int(_counter(counters, "service.replayed_ticks")),
        breach_ticks=breach_ticks,
        shed_commands=int(sheds),
        replayed_deliveries=int(replayed),
        trace_hash=chaos_hash,
        counters=counters,
        checkpoint_bytes_max=max(size for size, _ in base_samples + chaos_samples),
        checkpoint_growth=growth,
    )
