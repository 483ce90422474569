"""Supervised mediation: detect a dead or hung mediator and warm-restart it.

The :class:`Supervisor` owns the whole crash-tolerance loop. It drives a
mediator through a declarative *script* of commands (:class:`AdmitApp`,
:class:`SetCap`, :class:`Advance`), journaling each command before it
executes and each tick as it completes, and checkpointing every
``checkpoint_every_ticks`` ticks. When the mediator dies
(:class:`MediatorKilled`, raised by a crash-injection hook or a real bug)
or hangs past the per-tick deadline (:class:`MediatorHung`), the supervisor

1. tears the journal's un-fsynced tail if asked to (simulating what a real
   crash does to buffered writes - fsynced bytes are never lost),
2. restores the latest checkpoint and replays every journal record after
   its marker - commands re-execute, ticks re-step - landing on the exact
   pre-crash state (everything is deterministic, so the replay is
   bit-identical to the lost execution),
3. writes a *fresh* checkpoint, so repeated crashes always make forward
   progress, and
4. optionally holds the server in the PR 1 guard-banded safe posture
   (:meth:`~repro.core.mediator.PowerMediator.begin_safe_hold`) while trust
   in the restarted loop is re-established.

Recovery cost is tracked in :class:`RecoveryStats`, including the learning
state (calibration samples) that checkpoint restore saved from a cold
relearn.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.mediator import PowerMediator
from repro.errors import CheckpointError, ConfigurationError, ReproError
from repro.learning.sampling import Sampler
from repro.observability.trace import NULL_TRACE_BUS, TraceBus
from repro.persistence.checkpoint import (
    RunRecipe,
    read_checkpoint,
    restore_mediator,
    write_checkpoint,
)
from repro.persistence.journal import JournalWriter, read_journal, repair_torn_tail
from repro.workloads.generator import PhasedProfile
from repro.workloads.profiles import WorkloadProfile


class MediatorKilled(ReproError):
    """The mediator process died mid-tick (raised by crash injection).

    The one kill signal: the :class:`Supervisor` and the streaming
    :class:`~repro.service.loop.MediatorService` both recover from it.
    """


class MediatorHung(ReproError):
    """A mediator tick overran the supervisor's liveness deadline."""


# --------------------------------------------------------------------- script


@dataclass(frozen=True)
class AdmitApp:
    """Script command: admit one application (mediator event E2)."""

    profile: WorkloadProfile
    phased: PhasedProfile | None = None
    group_width: int | None = None
    skip_overhead: bool = False


@dataclass(frozen=True)
class SetCap:
    """Script command: change the PSys cap (mediator event E1)."""

    p_cap_w: float


@dataclass(frozen=True)
class Advance:
    """Script command: run the mediation loop for a stretch of sim time."""

    duration_s: float


Command = AdmitApp | SetCap | Advance


def command_to_dict(command: Command) -> dict:
    """Serialize a script command for the write-ahead journal."""
    if isinstance(command, AdmitApp):
        return {
            "kind": "admit",
            "profile": command.profile.to_dict(),
            "phased": None
            if command.phased is None
            else [[t, p.to_dict()] for t, p in command.phased.segments],
            "group_width": command.group_width,
            "skip_overhead": command.skip_overhead,
        }
    if isinstance(command, SetCap):
        return {"kind": "set_cap", "p_cap_w": command.p_cap_w}
    if isinstance(command, Advance):
        return {"kind": "advance", "duration_s": command.duration_s}
    raise TypeError(f"not a script command: {command!r}")


def command_from_dict(data: dict) -> Command:
    """Inverse of :func:`command_to_dict` (extra keys like ``end_s`` are
    resume context, not part of the command, and are ignored here)."""
    kind = data["kind"]
    if kind == "admit":
        phased = data["phased"]
        return AdmitApp(
            profile=WorkloadProfile.from_dict(data["profile"]),
            phased=None
            if phased is None
            else PhasedProfile(
                [(float(t), WorkloadProfile.from_dict(p)) for t, p in phased]
            ),
            group_width=data["group_width"],
            skip_overhead=bool(data["skip_overhead"]),
        )
    if kind == "set_cap":
        return SetCap(p_cap_w=float(data["p_cap_w"]))
    if kind == "advance":
        return Advance(duration_s=float(data["duration_s"]))
    raise ValueError(f"unknown command kind {kind!r}")


def apply_command(mediator: PowerMediator, command: Command) -> None:
    """Execute one script command on ``mediator``, unsupervised.

    The one dispatch shared by :func:`~repro.chaos.harness.run_script` and
    the :class:`Supervisor` (which handles ``Advance`` itself, to journal
    its deadline and tick by tick, so it only passes admits and caps here).
    """
    if isinstance(command, AdmitApp):
        mediator.add_application(
            command.profile,
            phased=command.phased,
            group_width=command.group_width,
            skip_overhead=command.skip_overhead,
        )
    elif isinstance(command, SetCap):
        mediator.set_power_cap(command.p_cap_w)
    elif isinstance(command, Advance):
        mediator.run_for(command.duration_s)
    else:
        raise ConfigurationError(f"not a script command: {command!r}")


# ---------------------------------------------------------------- accounting


@dataclass
class RecoveryStats:
    """Counters describing what crash recovery cost - and what it saved.

    Attributes:
        restarts: Warm restarts performed (kills + hangs recovered from).
        hangs_detected: Restarts triggered by the tick deadline rather
            than outright death.
        downtime_ticks: Ticks that had to be re-executed from the journal
            because they happened after the last checkpoint.
        journal_records_replayed: Total journal records (commands + ticks)
            replayed across all recoveries.
        checkpoints_written: Snapshots written, including the post-recovery
            ones.
        samples_restored: Calibration samples that arrived intact inside
            checkpoints instead of being re-measured.
        cold_relearns_avoided: Per-application calibrations that restore
            made unnecessary (one per managed app per recovery, for
            learning policies).
    """

    restarts: int = 0
    hangs_detected: int = 0
    downtime_ticks: int = 0
    journal_records_replayed: int = 0
    checkpoints_written: int = 0
    samples_restored: int = 0
    cold_relearns_avoided: int = 0


@dataclass
class _Position:
    """Where script execution stands: the command index, plus - when that
    command is an in-progress ``Advance`` - its absolute deadline."""

    command: int = 0
    end_s: float | None = None


# ---------------------------------------------------------------- supervisor


class Supervisor:
    """Runs a script against a crash-prone mediator, restarting as needed.

    Args:
        recipe: How to (re)build the mediator; also stamped into every
            checkpoint so a restore never depends on live objects.
        script: The commands to execute, in order.
        workdir: Directory receiving ``journal.jsonl`` and the
            ``ckpt-*.json`` snapshots.
        checkpoint_every_ticks: Snapshot cadence during ``Advance``.
        fsync_every_ticks: Journal tick-record durability cadence.
        tick_deadline_s: Wall-clock budget for one mediator tick; ``None``
            disables hang detection.
        tick_hook: Called as ``tick_hook(tick_count)`` before every tick -
            the chaos harness's :func:`~repro.chaos.harness.kill_at` hook
            raises :class:`MediatorKilled` from here.
        safe_hold_ticks: Guard-banded safe-posture length applied after
            each warm restart (0 keeps restarts bit-identical).
        tear_journal_bytes_on_crash: On each crash, drop up to this many
            bytes from the journal tail - clamped so fsynced bytes never
            disappear - to exercise the torn-tail rule.
        max_restarts: Hard stop against a deterministically crashing loop.
        trace_bus: Optional trace sink. The supervisor attaches it to every
            mediator incarnation, records the bus mark alongside each
            checkpoint, and on recovery truncates to the restored
            checkpoint's mark before replay - so the stitched sim stream
            hashes identically to an uninterrupted run (when
            ``safe_hold_ticks`` is 0). Crash/restore forensics land in the
            trace as meta events, outside the hash.
    """

    JOURNAL_NAME = "journal.jsonl"

    def __init__(
        self,
        recipe: RunRecipe,
        script: list[Command],
        workdir: str | Path,
        *,
        checkpoint_every_ticks: int = 50,
        fsync_every_ticks: int = 25,
        tick_deadline_s: float | None = None,
        tick_hook: Callable[[int], None] | None = None,
        safe_hold_ticks: int = 0,
        tear_journal_bytes_on_crash: int = 0,
        max_restarts: int = 50,
        trace_bus: TraceBus | None = None,
    ) -> None:
        self._recipe = recipe
        self._script = list(script)
        self._workdir = Path(workdir)
        self._checkpoint_every_ticks = checkpoint_every_ticks
        self._fsync_every_ticks = fsync_every_ticks
        self._tick_deadline_s = tick_deadline_s
        self._tick_hook = tick_hook
        self._safe_hold_ticks = safe_hold_ticks
        self._tear_bytes = tear_journal_bytes_on_crash
        self._max_restarts = max_restarts
        self._stats = RecoveryStats()
        self._mediator: PowerMediator | None = None
        self._journal: JournalWriter | None = None
        self._pos = _Position()
        self._ticks_since_checkpoint = 0
        self._trace = NULL_TRACE_BUS if trace_bus is None else trace_bus
        # Checkpoint file name -> bus mark (the seq the next sim event gets)
        # at snapshot time. In-memory only: traces belong to one process run.
        self._bus_marks: dict[str, int] = {}

    @property
    def stats(self) -> RecoveryStats:
        return self._stats

    @property
    def mediator(self) -> PowerMediator | None:
        """The currently supervised mediator (changes across restarts)."""
        return self._mediator

    @property
    def journal_path(self) -> Path:
        return self._workdir / self.JOURNAL_NAME

    def run(self) -> PowerMediator:
        """Execute the whole script, surviving kills and hangs.

        Returns:
            The mediator that completed the final command (after any number
            of warm restarts).

        Raises:
            CheckpointError: if recovery exceeds ``max_restarts``.
        """
        self._mediator = self._recipe.build()
        if self._trace.active:
            self._mediator.attach_trace_bus(self._trace)
        self._journal = JournalWriter(
            self.journal_path, fsync_every_ticks=self._fsync_every_ticks
        )
        self._journal.append_meta(dt_s=self._mediator.dt_s)
        self._checkpoint()
        while True:
            try:
                self._execute()
                break
            except (MediatorKilled, MediatorHung) as exc:
                if isinstance(exc, MediatorHung):
                    self._stats.hangs_detected += 1
                if self._stats.restarts >= self._max_restarts:
                    raise CheckpointError(
                        f"gave up after {self._stats.restarts} restarts: {exc}"
                    ) from exc
                if self._trace.active:
                    self._trace.emit_meta(
                        "crash",
                        {
                            "reason": "hang" if isinstance(exc, MediatorHung) else "kill",
                            "restarts_so_far": self._stats.restarts,
                        },
                    )
                self._crash_journal()
                self._recover()
        self._journal.close()
        return self._mediator

    # ----------------------------------------------------------- execution

    def _execute(self) -> None:
        """Run the script from the current position to the end."""
        assert self._mediator is not None and self._journal is not None
        while self._pos.command < len(self._script):
            index = self._pos.command
            command = self._script[index]
            if isinstance(command, Advance):
                if self._pos.end_s is None:
                    # Journal the absolute deadline once; recomputing it
                    # after a restart could drift by a float ulp.
                    end_s = self._mediator.server.now_s + command.duration_s
                    record = command_to_dict(command)
                    record["end_s"] = end_s
                    self._journal.append_command(index, record)
                    self._pos = _Position(command=index, end_s=end_s)
                self._advance(self._pos.end_s)
            else:
                self._journal.append_command(index, command_to_dict(command))
                apply_command(self._mediator, command)
            self._pos = _Position(command=index + 1, end_s=None)
        self._checkpoint()

    def _advance(self, end_s: float) -> None:
        """Tick the mediator up to ``end_s`` (mirrors ``run_for``'s loop)."""
        mediator, journal = self._mediator, self._journal
        assert mediator is not None and journal is not None
        while mediator.server.now_s < end_s - 1e-9:
            if self._tick_hook is not None:
                self._tick_hook(mediator.tick_count)
            started = time.monotonic()
            mediator.step()
            if (
                self._tick_deadline_s is not None
                and time.monotonic() - started > self._tick_deadline_s
            ):
                # Do NOT journal the overrun tick: recovery replays to the
                # previous durable tick and redoes this one from scratch.
                raise MediatorHung(
                    f"tick {mediator.tick_count} exceeded the "
                    f"{self._tick_deadline_s:.3f} s deadline"
                )
            journal.append_tick(mediator.tick_count)
            self._ticks_since_checkpoint += 1
            if self._ticks_since_checkpoint >= self._checkpoint_every_ticks:
                self._checkpoint()

    def _checkpoint(self) -> None:
        assert self._mediator is not None and self._journal is not None
        path = write_checkpoint(self._workdir, self._mediator, self._recipe)
        self._journal.append_checkpoint(
            tick=self._mediator.tick_count,
            path=path.name,
            command=self._pos.command,
            end_s=self._pos.end_s,
        )
        if self._trace.active:
            # The mark pins the sim-event prefix this snapshot captured;
            # recovery truncates back to it before replay re-emits the rest.
            self._bus_marks[path.name] = self._trace.mark()
            self._trace.emit_meta(
                "checkpoint", {"tick": self._mediator.tick_count, "path": path.name}
            )
        self._ticks_since_checkpoint = 0
        self._stats.checkpoints_written += 1

    # ------------------------------------------------------------ recovery

    def _crash_journal(self) -> None:
        """Close the journal the way a crash would: buffered writes may be
        torn, fsynced bytes survive."""
        assert self._journal is not None
        durable = self._journal.durable_offset
        self._journal.abort()
        if self._tear_bytes > 0:
            size = self.journal_path.stat().st_size
            keep = max(durable, size - self._tear_bytes)
            if keep < size:
                os.truncate(self.journal_path, keep)

    def _recover(self) -> None:
        """Warm restart: latest checkpoint + journal replay."""
        repair_torn_tail(self.journal_path)
        records = read_journal(self.journal_path)
        marker_at = max(
            (i for i, rec in enumerate(records) if rec["op"] == "checkpoint"),
            default=None,
        )
        if marker_at is None:
            raise CheckpointError(
                f"journal {self.journal_path} holds no checkpoint marker; "
                "cannot recover"
            )
        marker = records[marker_at]
        doc = read_checkpoint(self._workdir / marker["path"])
        self._mediator = restore_mediator(doc)
        if self._trace.active:
            # Rewind the sim stream to the snapshot's prefix, note the
            # restore for forensics, then re-attach so replay (and the rest
            # of the run) re-emits onto the same bus. attach_trace_bus syncs
            # the tick cursor from the restored timeline, so re-applied
            # commands stamp exactly as they did pre-crash.
            mark = self._bus_marks.get(marker["path"])
            dropped = 0 if mark is None else self._trace.truncate_to_mark(mark)
            self._trace.emit_meta(
                "restore",
                {
                    "tick": self._mediator.tick_count,
                    "checkpoint": marker["path"],
                    "dropped_events": dropped,
                },
            )
            self._mediator.attach_trace_bus(self._trace)
        self._credit_restored_learning()
        self._pos = _Position(
            command=int(marker["command"]),
            end_s=None if marker["end_s"] is None else float(marker["end_s"]),
        )
        tail = records[marker_at + 1 :]
        replayed_ticks = 0
        for rec in tail:
            if rec["op"] == "command":
                command = command_from_dict(rec["command"])
                if isinstance(command, Advance):
                    self._pos = _Position(
                        command=int(rec["index"]),
                        end_s=float(rec["command"]["end_s"]),
                    )
                else:
                    apply_command(self._mediator, command)
                    self._pos = _Position(command=int(rec["index"]) + 1)
            elif rec["op"] == "tick":
                self._mediator.step()
                self._stats.downtime_ticks += 1
                replayed_ticks += 1
        self._stats.journal_records_replayed += len(tail)
        if self._trace.active:
            self._trace.emit_meta(
                "replayed", {"records": len(tail), "ticks": replayed_ticks}
            )
        self._stats.restarts += 1
        last_seq = records[-1]["seq"]
        self._journal = JournalWriter(
            self.journal_path,
            fsync_every_ticks=self._fsync_every_ticks,
            start_seq=last_seq + 1,
        )
        # A fresh snapshot caps the replay a *second* crash would need and
        # guarantees forward progress under repeated failures.
        self._checkpoint()
        self._mediator.begin_safe_hold(self._safe_hold_ticks)

    def _credit_restored_learning(self) -> None:
        """Account for the calibration state the checkpoint carried over."""
        assert self._mediator is not None
        if not self._mediator.policy.needs_learning:
            return
        if self._recipe.use_oracle_estimates:
            return
        apps = self._mediator.managed_apps()
        if not apps:
            return
        per_app = Sampler.budget_from_fraction(
            self._recipe.config, self._recipe.sampler_fraction
        )
        self._stats.cold_relearns_avoided += len(apps)
        self._stats.samples_restored += len(apps) * per_app
