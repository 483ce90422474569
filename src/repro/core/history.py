"""SealedHistory: the fixed-size summary of a mediator's sealed past.

A mediator records one :class:`~repro.core.mediator.TickRecord` per tick,
the Accountant logs every E1-E4/F/R event, and departed applications leave
their final handles behind. No future tick reads any of that - it is output
for the post-run readers (cap audit, throughput, figures). A service that
runs indefinitely cannot keep it all, nor copy it into every checkpoint, so
:meth:`~repro.core.mediator.PowerMediator.seal_history` folds it into one
:class:`SealedHistory` and drops it from memory, the way the streaming
trace bus seals its prefix.

The summary keeps exactly what the readers' *invariants* need - tick and
breach counts, the first silent over-cap tick, event counts by kind,
departures by outcome - and nothing whose size grows with run length. The
fold consumes records strictly one at a time, in order, and holds only
counts and first-occurrence facts, so the summary never depends on where
the seals fell: sealing every tick or once at the end gives the same
result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.units import POWER_EPSILON_W

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.events import Event
    from repro.core.mediator import TickRecord
    from repro.server.server import ApplicationHandle

__all__ = ["SealedHistory"]


@dataclass
class SealedHistory:
    """Running summary of every sealed tick, event and departure.

    Attributes:
        ticks: Ticks sealed so far.
        last_time_s: End time of the newest sealed tick (``None`` before
            the first seal that held a tick).
        breach_ticks: Sealed ticks flagged as breaches (the emergency
            throttle fired).
        silent_over_cap: Sealed ticks whose wall power exceeded the cap by
            more than :data:`~repro.units.POWER_EPSILON_W` *without* a
            breach flag - each one is a cap-invariant violation.
        first_silent: ``(time_s, wall_w, p_cap_w)`` of the first such tick.
        event_counts: Sealed Accountant events by class name.
        departed_completed: Sealed departures that ran out of work.
        departed_evicted: Sealed departures forced out (crash, cancel).
    """

    ticks: int = 0
    last_time_s: float | None = None
    breach_ticks: int = 0
    silent_over_cap: int = 0
    first_silent: tuple[float, float, float] | None = None
    event_counts: dict[str, int] = field(default_factory=dict)
    departed_completed: int = 0
    departed_evicted: int = 0

    @property
    def departed(self) -> int:
        """Sealed departures of either kind."""
        return self.departed_completed + self.departed_evicted

    def fold_ticks(self, records: Iterable["TickRecord"]) -> None:
        """Fold timeline records, oldest first."""
        for record in records:
            self.ticks += 1
            self.last_time_s = record.time_s
            if record.breach:
                self.breach_ticks += 1
            elif record.wall_w > record.p_cap_w + POWER_EPSILON_W:
                self.silent_over_cap += 1
                if self.first_silent is None:
                    self.first_silent = (record.time_s, record.wall_w, record.p_cap_w)

    def fold_events(self, events: Iterable["Event"]) -> None:
        """Fold Accountant events, oldest first."""
        counts = self.event_counts
        for event in events:
            kind = type(event).__name__
            counts[kind] = counts.get(kind, 0) + 1

    def fold_departures(self, handles: Iterable["ApplicationHandle"]) -> None:
        """Fold the final handles of departed applications."""
        for handle in handles:
            if handle.completed:
                self.departed_completed += 1
            else:
                self.departed_evicted += 1

    def to_dict(self) -> dict:
        return {
            "ticks": self.ticks,
            "last_time_s": self.last_time_s,
            "breach_ticks": self.breach_ticks,
            "silent_over_cap": self.silent_over_cap,
            "first_silent": None if self.first_silent is None else list(self.first_silent),
            "event_counts": dict(self.event_counts),
            "departed_completed": self.departed_completed,
            "departed_evicted": self.departed_evicted,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SealedHistory":
        last = data["last_time_s"]
        first = data["first_silent"]
        return cls(
            ticks=int(data["ticks"]),
            last_time_s=None if last is None else float(last),
            breach_ticks=int(data["breach_ticks"]),
            silent_over_cap=int(data["silent_over_cap"]),
            first_silent=None if first is None else tuple(float(v) for v in first),
            event_counts={str(k): int(v) for k, v in data["event_counts"].items()},
            departed_completed=int(data["departed_completed"]),
            departed_evicted=int(data["departed_evicted"]),
        )
