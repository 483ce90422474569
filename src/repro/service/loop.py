"""The service event loop: open-loop ingest around a supervised mediator.

:class:`MediatorService` runs the mediator indefinitely under open-loop
traffic. Each sim-time tick executes a fixed pipeline:

1. **kill hook** - chaos injection point (mirrors the supervisor's
   ``tick_hook``; fires before any tick work so a crash never tears a tick);
2. **churn** - scheduled client disconnects/reconnects, with gap-checked
   delivery replay on every reconnect;
3. **offers** - the provisioner's cap schedule plus the population's due
   arrivals are offered to the ingest buffer, where backpressure disposes
   of them (accept / reject / shed-oldest / defer), every outcome counted
   and traced;
4. **overload posture** - occupancy hysteresis; while overloaded the
   regular drain shrinks so cap-safety commands strictly outrank arrivals;
5. **drain** - the cap-safety lane fully, then a bounded slice of the
   regular lane; each command is journaled write-ahead, applied to the
   mediator, and acknowledged to its client;
6. **mediate** - one mediator tick (allocation, actuation, accounting);
7. **publish** - completion deliveries and periodic telemetry broadcasts;
8. **durability** - the tick is journaled; on the checkpoint cadence the
   mediator seals its history (timeline, event log, departed apps fold
   into a fixed-size summary), a service checkpoint (mediator recipe +
   state, population cursor, ingest buffer, sessions, pending offers,
   metrics) lands atomically, its journal marker is fsynced, and retention
   compacts everything behind it.

**Crash model.** A :class:`~repro.persistence.supervisor.MediatorKilled`
raised by the kill hook destroys
the in-flight process state; the journal keeps only what was fsynced (a
configurable tail tear simulates lost buffered writes). Recovery restores
the latest durable checkpoint and then **re-executes full ticks** - not
journaled commands: the offer stream, churn, backpressure decisions, and
deliveries are all deterministic functions of the restored state, so
re-execution regenerates the identical stream the crash destroyed, while
journal appends stay suppressed for ticks the journal already holds.
The stitched trace therefore hashes identically to an uninterrupted run,
client delivery sequences continue gap-free, and service metrics counters
end exactly where the uninterrupted run's would.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.mediator import PowerMediator
from repro.core.policies import POLICY_NAMES
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    SchedulingError,
    ServiceError,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.streaming import StreamingTraceBus
from repro.observability.trace import NULL_TRACE_BUS, TraceBus
from repro.persistence.checkpoint import RunRecipe, atomic_write_json
from repro.persistence.segments import (
    SegmentedJournalWriter,
    read_segmented,
    repair_segmented_tail,
)
from repro.persistence.supervisor import MediatorKilled
from repro.service.commands import (
    CancelJob,
    Command,
    SetCapCommand,
    SubmitJob,
    command_from_dict,
    command_to_dict,
    is_cap_safety,
)
from repro.service.ingest import ACCEPTED, DEFERRED, REJECTED, IngestBuffer
from repro.service.retention import RetentionConfig, RetentionManager
from repro.service.sessions import SessionRegistry
from repro.workloads.population import BurstWindow, OpenLoopPopulation

__all__ = ["MediatorService", "ServiceConfig"]

#: Schema stamp of service checkpoint documents.
SERVICE_CHECKPOINT_SCHEMA = "repro-service-checkpoint"

#: Service checkpoint format version; bump on incompatible layout changes.
SERVICE_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ServiceConfig:
    """Everything that defines one service run (the service's recipe).

    Attributes are grouped by pipeline stage; every field is validated at
    construction with a one-line :class:`~repro.errors.ConfigurationError`
    so the CLI's exit-2 contract holds.
    """

    # --- mediation
    policy: str = "app+res-aware"
    p_cap_w: float = 100.0
    use_oracle_estimates: bool = True
    dt_s: float = 0.1
    seed: int = 0
    group_width: int = 3
    # --- offered load (open loop)
    rate_per_s: float = 0.05
    clients: int = 6
    diurnal_amplitude: float = 0.3
    diurnal_period_s: float = 600.0
    bursts: tuple[BurstWindow, ...] = ()
    work_scale: float = 1.0
    # --- ingest and backpressure
    ingest_capacity: int = 32
    backpressure: str = "shed-oldest"
    drain_per_tick: int = 2
    overload_drain_per_tick: int = 1
    overload_enter_fraction: float = 0.8
    overload_exit_fraction: float = 0.5
    # --- provisioner cap schedule (in-band cap-safety commands)
    cap_levels: tuple[float, ...] = ()
    cap_change_every_s: float = 60.0
    # --- subscription stream
    telemetry_every_ticks: int = 10
    # --- durability and retention
    checkpoint_every_ticks: int = 200
    fsync_every_ticks: int = 25
    retention: RetentionConfig = field(default_factory=RetentionConfig)

    def __post_init__(self) -> None:
        if self.policy not in POLICY_NAMES:
            raise ConfigurationError(
                f"unknown policy {self.policy!r} (choose from {', '.join(POLICY_NAMES)})"
            )
        if not (math.isfinite(self.p_cap_w) and self.p_cap_w > 0):
            raise ConfigurationError(f"cap must be finite and positive, got {self.p_cap_w!r}")
        if not (math.isfinite(self.dt_s) and self.dt_s > 0):
            raise ConfigurationError(f"dt_s must be finite and positive, got {self.dt_s!r}")
        if self.clients < 1:
            raise ConfigurationError(f"need at least one client, got {self.clients}")
        if self.drain_per_tick < 1:
            raise ConfigurationError(
                f"drain_per_tick must be >= 1, got {self.drain_per_tick}"
            )
        if self.overload_drain_per_tick < 0:
            raise ConfigurationError(
                f"overload_drain_per_tick must be >= 0, got {self.overload_drain_per_tick}"
            )
        for cap in self.cap_levels:
            if not (math.isfinite(cap) and cap > 0):
                raise ConfigurationError(
                    f"cap levels must be finite and positive, got {cap!r}"
                )
        if not (math.isfinite(self.cap_change_every_s) and self.cap_change_every_s > 0):
            raise ConfigurationError(
                f"cap_change_every_s must be finite and positive, "
                f"got {self.cap_change_every_s!r}"
            )
        if self.telemetry_every_ticks < 1:
            raise ConfigurationError(
                f"telemetry_every_ticks must be >= 1, got {self.telemetry_every_ticks}"
            )
        if self.checkpoint_every_ticks < 1:
            raise ConfigurationError(
                f"checkpoint_every_ticks must be >= 1, got {self.checkpoint_every_ticks}"
            )
        # Population, ingest, and retention parameters validate themselves
        # at construction time; build them eagerly so a bad config fails
        # here, at the CLI boundary, not ticks into a run.
        self.make_population()
        IngestBuffer(
            capacity=self.ingest_capacity,
            policy=self.backpressure,
            metrics=MetricsRegistry(),
            overload_enter_fraction=self.overload_enter_fraction,
            overload_exit_fraction=self.overload_exit_fraction,
        )

    @property
    def provisioner_client(self) -> int:
        """Pseudo-client id the cap schedule's commands are attributed to."""
        return self.clients

    def recipe(self) -> RunRecipe:
        """The mediator-side recipe this service wraps."""
        return RunRecipe(
            policy=self.policy,
            p_cap_w=self.p_cap_w,
            use_oracle_estimates=self.use_oracle_estimates,
            dt_s=self.dt_s,
            seed=self.seed,
        )

    def make_population(self) -> OpenLoopPopulation:
        return OpenLoopPopulation(
            base_rate_per_s=self.rate_per_s,
            clients=self.clients,
            seed=self.seed,
            diurnal_amplitude=self.diurnal_amplitude,
            diurnal_period_s=self.diurnal_period_s,
            bursts=self.bursts,
            work_scale=self.work_scale,
        )


class MediatorService:
    """The long-running, crash-recoverable service facade.

    Args:
        config: The run's :class:`ServiceConfig`.
        workdir: Durability root; the journal lands in ``workdir/journal``
            and service checkpoints in ``workdir/checkpoints``.
        churn: Optional deterministic churn schedule - any object with
            ``at(tick) -> list[("connect" | "disconnect", client)]``. Must
            be a pure function of the tick so crash re-execution
            regenerates identical churn.
        tick_hook: Optional callable invoked with the tick number before
            any tick work; raising
            :class:`~repro.persistence.supervisor.MediatorKilled` simulates a
            crash at that boundary (the chaos harness's kill schedules).
        tear_journal_bytes_on_crash: On each crash, destroy up to this many
            bytes of the journal's un-fsynced tail.
        trace: Collect a streaming trace (needed for hash comparisons).
        trace_spill: Also spill evicted trace events to
            ``workdir/trace-spill.jsonl``.
    """

    def __init__(
        self,
        config: ServiceConfig,
        workdir: str | Path,
        *,
        churn=None,
        tick_hook: Callable[[int], None] | None = None,
        tear_journal_bytes_on_crash: int = 0,
        trace: bool = True,
        trace_spill: bool = False,
    ) -> None:
        self.config = config
        self._workdir = Path(workdir)
        self._journal_dir = self._workdir / "journal"
        self._checkpoint_dir = self._workdir / "checkpoints"
        self._checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self._churn = churn
        self._tick_hook = tick_hook
        self._tear_bytes = tear_journal_bytes_on_crash
        if trace:
            self._bus: TraceBus = StreamingTraceBus(
                retain_events=config.retention.retain_trace_events,
                sink_path=(self._workdir / "trace-spill.jsonl") if trace_spill else None,
            )
        else:
            self._bus = NULL_TRACE_BUS
        self._recipe = config.recipe()
        self._cap_every_ticks = max(1, round(config.cap_change_every_s / config.dt_s))

        self.metrics = MetricsRegistry()
        self._mediator: PowerMediator = self._recipe.build()
        self._mediator.ensure_plan()  # an empty open-loop server still ticks
        self._mediator.attach_trace_bus(self._bus)
        self._population = config.make_population()
        self._ingest = self._make_ingest()
        self._sessions = self._make_sessions()
        self._retention = RetentionManager(config.retention, metrics=self.metrics)
        # Deterministic service state that travels in the checkpoint:
        self._tick = 0
        self._ingest_seq = 0  # commands drained (journal "index")
        self._cap_cursor = 0
        self._client_seqs = {c: 0 for c in range(config.clients + 1)}
        self._pending: list[Command] = []  # deferred ("blocked") offers
        self._outstanding: dict[str, int] = {}  # running app -> client
        # Execution-side state (does NOT travel; mirrors the supervisor):
        self._bus_marks: dict[str, int] = {}
        self._safe_seq = 0
        self._safe_mark: int | None = None
        self._replaying = False
        self._last_retention_tick = 0
        # Pin the zero counters the soak asserts on, so "never happened"
        # is a recorded 0, not an absent key.
        self.metrics.counter("service.ingest.shed")
        self.metrics.counter("service.ingest.safety_shed")
        self.metrics.counter("service.restarts")

        self._journal: SegmentedJournalWriter | None = SegmentedJournalWriter(
            self._journal_dir,
            records_per_segment=config.retention.records_per_segment,
            fsync_every_ticks=config.fsync_every_ticks,
        )
        self._journal.append_meta(dt_s=config.dt_s)
        self._checkpoint()  # tick 0: recovery always has an anchor

    # ------------------------------------------------------------- accessors

    @property
    def tick(self) -> int:
        """Completed ticks (equals the mediator's tick count)."""
        return self._tick

    @property
    def mediator(self) -> PowerMediator:
        return self._mediator

    @property
    def trace_bus(self) -> TraceBus:
        return self._bus

    @property
    def sessions(self) -> SessionRegistry:
        return self._sessions

    @property
    def ingest(self) -> IngestBuffer:
        return self._ingest

    @property
    def journal_dir(self) -> Path:
        return self._journal_dir

    @property
    def checkpoint_dir(self) -> Path:
        return self._checkpoint_dir

    def content_hash(self) -> str:
        return self._bus.content_hash()

    def _make_ingest(self) -> IngestBuffer:
        return IngestBuffer(
            capacity=self.config.ingest_capacity,
            policy=self.config.backpressure,
            metrics=self.metrics,
            overload_enter_fraction=self.config.overload_enter_fraction,
            overload_exit_fraction=self.config.overload_exit_fraction,
        )

    def _make_sessions(self) -> SessionRegistry:
        # One extra session for the provisioner's cap acknowledgements.
        return SessionRegistry(
            clients=self.config.clients + 1,
            window=self.config.retention.session_window,
            metrics=self.metrics,
        )

    # --------------------------------------------------------------- running

    def run_for_ticks(self, ticks: int) -> None:
        """Advance the service ``ticks`` sim-time ticks, recovering from any
        :class:`MediatorKilled` the kill hook raises along the way."""
        if ticks < 1:
            raise ConfigurationError(f"ticks must be >= 1, got {ticks}")
        target = self._tick + ticks
        while self._tick < target:
            try:
                self._one_tick()
            except MediatorKilled:
                self._handle_crash()

    def close(self) -> None:
        """Flush and close the journal (and trace spill) cleanly."""
        if self._journal is not None:
            self._journal.close()
        if isinstance(self._bus, StreamingTraceBus):
            self._bus.close_sink()

    # ---------------------------------------------------------- the pipeline

    def _one_tick(self) -> None:
        tick = self._tick
        if self._tick_hook is not None:
            self._tick_hook(tick)  # chaos: may raise MediatorKilled
        now = self._mediator.server.now_s
        self._bus.begin_tick(tick, now)

        self._apply_churn(tick)
        offered = self._collect_offers(tick, now)
        self._offer_all(tick, offered)
        self._refresh_overload()
        self._drain(tick)
        self._mediator.step()
        self._publish(tick)

        self._tick += 1
        if not self._replaying and self._journal is not None:
            self._journal.append_tick(tick)
            if self._tick % self.config.checkpoint_every_ticks == 0:
                self._checkpoint()
                self._retention.prune_checkpoints(self._checkpoint_dir)
                # Retention anchors to the checkpoint just written, on its
                # own (coarser) cadence.
                due = self._tick - self._last_retention_tick
                if due >= self.config.retention.every_ticks:
                    self._last_retention_tick = self._tick
                    self._retention.run(
                        bus=self._bus if isinstance(self._bus, StreamingTraceBus) else None,
                        journal_dir=self._journal_dir,
                        checkpoint_dir=self._checkpoint_dir,
                        safe_seq=self._safe_seq,
                        safe_mark=self._safe_mark,
                    )
        self.metrics.gauge("service.ticks").set(float(self._tick))

    def _apply_churn(self, tick: int) -> None:
        if self._churn is None:
            return
        for action, client in self._churn.at(tick):
            session = self._sessions.session(client)
            if action == "disconnect":
                if session.connected:
                    self._sessions.disconnect(client)
                    self._bus.emit("client-disconnect", {"client": client})
            elif action == "connect":
                if not session.connected:
                    missed = self._sessions.reconnect(client)
                    self._bus.emit("client-connect", {"client": client})
                    if missed:
                        self._bus.emit(
                            "client-replay",
                            {
                                "client": client,
                                "from_seq": missed[0].seq,
                                "count": len(missed),
                            },
                        )
            else:
                raise ServiceError(f"unknown churn action {action!r}")

    def _collect_offers(self, tick: int, now: float) -> list[Command]:
        offered: list[Command] = []
        if self.config.cap_levels and tick > 0 and tick % self._cap_every_ticks == 0:
            cap = self.config.cap_levels[self._cap_cursor % len(self.config.cap_levels)]
            self._cap_cursor += 1
            provisioner = self.config.provisioner_client
            offered.append(
                SetCapCommand(
                    client=provisioner,
                    client_seq=self._next_client_seq(provisioner),
                    p_cap_w=cap,
                )
            )
        for offer in self._population.pull_due(now):
            offered.append(
                SubmitJob(
                    client=offer.client,
                    client_seq=self._next_client_seq(offer.client),
                    profile=offer.profile,
                )
            )
        return offered

    def _next_client_seq(self, client: int) -> int:
        seq = self._client_seqs[client]
        self._client_seqs[client] = seq + 1
        return seq

    def _offer_all(self, tick: int, offered: list[Command]) -> None:
        # Deferred ("blocked") offers from earlier ticks re-offer first:
        # their clients have been waiting longest.
        carryover, self._pending = self._pending, []
        for command in [*carryover, *offered]:
            disposition, victim = self._ingest.offer(command)
            if disposition == DEFERRED:
                self._pending.append(command)
            elif disposition == REJECTED:
                self._bus.emit(
                    "ingest-reject",
                    {"client": command.client, "client_seq": command.client_seq},
                )
                self._sessions.deliver(
                    command.client,
                    tick,
                    "nack",
                    {"client_seq": command.client_seq, "reason": "ingest-full"},
                )
            else:
                assert disposition == ACCEPTED
            if victim is not None:
                if is_cap_safety(victim):  # structurally impossible; prove it
                    self.metrics.counter("service.ingest.safety_shed").inc()
                    raise ServiceError(
                        "backpressure shed a cap-safety command; the safety "
                        "lane must never be shed"
                    )
                self._bus.emit(
                    "ingest-shed",
                    {"client": victim.client, "client_seq": victim.client_seq},
                )
                self._sessions.deliver(
                    victim.client,
                    tick,
                    "nack",
                    {"client_seq": victim.client_seq, "reason": "shed"},
                )
        self.metrics.gauge("service.ingest.pending_offers").set(float(len(self._pending)))

    def _refresh_overload(self) -> None:
        transition = self._ingest.refresh_overload()
        if transition == "enter":
            self._bus.emit("overload-enter", {"occupancy": self._ingest.occupancy})
        elif transition == "exit":
            self._bus.emit("overload-exit", {"occupancy": self._ingest.occupancy})
        self.metrics.gauge("service.ingest.occupancy").set(float(self._ingest.occupancy))
        self.metrics.histogram("service.ingest.occupancy").observe(
            float(self._ingest.occupancy)
        )

    def _drain(self, tick: int) -> None:
        # Cap-safety first, always all of it: the budget invariant must not
        # wait behind arrivals, no matter how saturated ingest is.
        for command in self._ingest.pop_safety():
            self._journal_command(command)
            assert isinstance(command, SetCapCommand)
            self._mediator.set_power_cap(command.p_cap_w)
            self.metrics.counter("service.commands.cap_applied").inc()
            self._sessions.deliver(
                command.client,
                tick,
                "cap-applied",
                {"client_seq": command.client_seq, "p_cap_w": command.p_cap_w},
            )
        limit = (
            self.config.overload_drain_per_tick
            if self._ingest.overloaded
            else self.config.drain_per_tick
        )
        for command in self._ingest.pop_regular(limit):
            self._journal_command(command)
            if isinstance(command, SubmitJob):
                self._admit(tick, command)
            elif isinstance(command, CancelJob):
                self._cancel(tick, command)
            else:  # pragma: no cover - the safety lane owns SetCapCommand
                raise ServiceError(f"cap-safety command in the regular lane: {command!r}")

    def _journal_command(self, command: Command) -> None:
        # WAL: the command is durable before it executes. During crash
        # re-execution, appends for already-journaled ticks are suppressed;
        # commands a dying tick journaled past the last durable tick record
        # may be re-journaled once re-execution passes that tick - replay
        # counts ticks, never command records, so duplicates are inert.
        if not self._replaying and self._journal is not None:
            self._journal.append_command(self._ingest_seq, command_to_dict(command))
        self._ingest_seq += 1

    def _admit(self, tick: int, command: SubmitJob) -> None:
        try:
            self._mediator.add_application(
                command.profile, group_width=self.config.group_width
            )
        except SchedulingError:
            self.metrics.counter("service.admit.rejected").inc()
            self._sessions.deliver(
                command.client,
                tick,
                "nack",
                {"client_seq": command.client_seq, "reason": "server-full"},
            )
        else:
            self.metrics.counter("service.admit.admitted").inc()
            spec = command.adversary_spec()
            if spec is not None:
                # Idempotent for an identical spec, so journal replay can
                # re-drive the admission without tripping it.
                self._mediator.register_adversary(spec)
                self.metrics.counter("service.admit.adversarial").inc()
            self._outstanding[command.profile.name] = command.client
            self._sessions.deliver(
                command.client,
                tick,
                "admitted",
                {"client_seq": command.client_seq, "app": command.profile.name},
            )

    def _cancel(self, tick: int, command: CancelJob) -> None:
        if command.app in self._outstanding and command.app in self._mediator.managed_apps():
            self._mediator.remove_application(command.app)
            self._outstanding.pop(command.app, None)
            self.metrics.counter("service.jobs.cancelled").inc()
            self._sessions.deliver(
                command.client,
                tick,
                "cancelled",
                {"client_seq": command.client_seq, "app": command.app},
            )
        else:
            self._sessions.deliver(
                command.client,
                tick,
                "nack",
                {"client_seq": command.client_seq, "reason": "unknown-app"},
            )

    def _publish(self, tick: int) -> None:
        if self._outstanding:
            managed = set(self._mediator.managed_apps())
            for app in [a for a in self._outstanding if a not in managed]:
                client = self._outstanding.pop(app)
                self.metrics.counter("service.jobs.completed").inc()
                self._sessions.deliver(client, tick, "completed", {"app": app})
        if tick % self.config.telemetry_every_ticks == 0:
            self._sessions.broadcast(
                tick,
                "telemetry",
                {
                    "tick": tick,
                    "managed": len(self._mediator.managed_apps()),
                    "occupancy": self._ingest.occupancy,
                    "connected": self._sessions.connected_count(),
                },
            )

    # ------------------------------------------------------------ durability

    def _checkpoint(self) -> None:
        assert self._journal is not None
        # The mediator's past is output no future tick reads: fold it into
        # the fixed-size sealed summary, so this snapshot (and the memory
        # behind it) holds only what has happened since the last one.
        self._mediator.seal_history()
        doc = {
            "schema": SERVICE_CHECKPOINT_SCHEMA,
            "version": SERVICE_CHECKPOINT_VERSION,
            "tick": self._tick,
            "sim_time_s": self._mediator.server.now_s,
            "mediator_recipe": self._recipe.to_dict(),
            "mediator_state": self._mediator.state_dict(),
            "population": self._population.state_dict(),
            "ingest": self._ingest.state_dict(),
            "sessions": self._sessions.state_dict(),
            "pending": [command_to_dict(c) for c in self._pending],
            "outstanding": dict(self._outstanding),
            "client_seqs": {str(c): s for c, s in self._client_seqs.items()},
            "cap_cursor": self._cap_cursor,
            "ingest_seq": self._ingest_seq,
            "metrics": self.metrics.to_json(),
        }
        path = self._checkpoint_dir / f"svc-{self._tick:08d}.json"
        atomic_write_json(path, doc)
        # The mark pins the sim-event prefix this snapshot captured; kept
        # in memory only, like the supervisor's (a restart that outlives
        # the process also restarts the trace).
        self._bus_marks[path.name] = self._bus.mark()
        self._journal.append_checkpoint(
            tick=self._tick, path=path.name, command=self._ingest_seq, end_s=None
        )
        # Everything at or before the (fsynced) marker is now recoverable
        # from this checkpoint: retention may seal and prune behind it.
        self._safe_seq = self._journal.next_seq - 1
        self._safe_mark = self._bus_marks[path.name]
        self.metrics.counter("service.checkpoints").inc()

    # -------------------------------------------------------------- recovery

    def _handle_crash(self) -> None:
        while True:
            self._crash_journal()
            self.metrics.counter("service.restarts").inc()
            self._bus.emit_meta("crash", {"tick": self._tick})
            try:
                self._recover()
                return
            except MediatorKilled:
                continue  # killed again mid-replay; recover from scratch

    def _crash_journal(self) -> None:
        """Apply crash semantics: nothing un-fsynced is trustworthy."""
        if self._journal is not None:
            durable = self._journal.durable_offset
            segment = self._journal.current_segment
            self._journal.abort()
            self._journal = None
            if self._tear_bytes > 0:
                size = segment.stat().st_size
                keep = max(durable, size - self._tear_bytes)
                os.truncate(segment, keep)

    def _recover(self) -> None:
        repair_segmented_tail(self._journal_dir)
        records = read_segmented(self._journal_dir)
        marker = None
        marker_seq = 0
        for record in records:
            if record["op"] == "checkpoint":
                marker = record
                marker_seq = record["seq"]
        if marker is None:
            raise ServiceError(
                f"journal {self._journal_dir} holds no checkpoint marker; "
                "cannot recover"
            )
        doc = self._read_service_checkpoint(self._checkpoint_dir / marker["path"])

        # Restore every piece of deterministic state at the checkpoint tick.
        recipe = RunRecipe.from_dict(doc["mediator_recipe"], where="checkpoint.recipe")
        mediator = recipe.build()
        try:
            mediator.load_state_dict(doc["mediator_state"])
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint.mediator_state: does not match its recipe "
                f"({type(exc).__name__}: {exc})"
            ) from None
        self._mediator = mediator
        self._mediator.ensure_plan()  # tick-0 checkpoints predate any plan
        self.metrics = MetricsRegistry.from_json(doc["metrics"])
        self.metrics.counter("service.restarts").inc()  # survives the rewind
        self._population = self.config.make_population()
        self._population.load_state_dict(doc["population"])
        self._ingest = self._make_ingest()
        self._ingest.load_state_dict(doc["ingest"])
        self._sessions = self._make_sessions()
        self._sessions.load_state_dict(doc["sessions"])
        self._retention = RetentionManager(self.config.retention, metrics=self.metrics)
        self._pending = [command_from_dict(c) for c in doc["pending"]]
        self._outstanding = {str(k): int(v) for k, v in doc["outstanding"].items()}
        self._client_seqs = {int(k): int(v) for k, v in doc["client_seqs"].items()}
        self._cap_cursor = int(doc["cap_cursor"])
        self._ingest_seq = int(doc["ingest_seq"])
        self._tick = int(doc["tick"])

        # Rewind the trace to the checkpoint's sim-event prefix; replay
        # re-emits everything after it identically.
        mark = self._bus_marks.get(marker["path"])
        dropped = 0 if mark is None else self._bus.truncate_to_mark(mark)
        self._bus.emit_meta(
            "restore",
            {"tick": self._tick, "checkpoint": marker["path"], "events_dropped": dropped},
        )
        self._mediator.attach_trace_bus(self._bus)

        # The journal's durable tick records tell how much execution it
        # already holds; re-execute exactly that span with appends
        # suppressed, then resume journaling at the next fresh sequence.
        last_seq = records[-1]["seq"]
        replay_until = self._tick
        for record in records:
            if record["seq"] > marker_seq and record["op"] == "tick":
                replay_until = int(record["tick"]) + 1
        replay_ticks = replay_until - self._tick
        self._replaying = True
        try:
            for _ in range(replay_ticks):
                self._one_tick()
        finally:
            self._replaying = False
        self._journal = SegmentedJournalWriter(
            self._journal_dir,
            records_per_segment=self.config.retention.records_per_segment,
            fsync_every_ticks=self.config.fsync_every_ticks,
            start_seq=last_seq + 1,
        )
        self._bus.emit_meta("replayed", {"ticks": replay_ticks})
        self.metrics.counter("service.replayed_ticks").inc(replay_ticks)
        self._checkpoint()  # forward progress: repeated crashes never loop
        self._retention.prune_checkpoints(self._checkpoint_dir)

    def _read_service_checkpoint(self, path: Path) -> dict:
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"{path}: not valid JSON ({exc})") from None
        if not isinstance(doc, dict) or doc.get("schema") != SERVICE_CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"{path}: not a {SERVICE_CHECKPOINT_SCHEMA!r} document"
            )
        if doc.get("version") != SERVICE_CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: service checkpoint version {doc.get('version')!r} is not "
                f"supported (this build reads version {SERVICE_CHECKPOINT_VERSION})"
            )
        return doc
