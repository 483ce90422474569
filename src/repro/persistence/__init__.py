"""Crash-tolerant mediation: checkpoints, write-ahead journal, supervision.

The mediator of :mod:`repro.core.mediator` is a long-running control loop;
this package makes one run survive the loop's *own* death. Three layers:

* :mod:`repro.persistence.checkpoint` - versioned, schema-stamped snapshots
  of every stateful component (utility matrices, sampling state, accountant
  ledgers, coordinator cursor, battery SoC, resilience counters, RNG
  streams) plus the :class:`~repro.persistence.checkpoint.RunRecipe` that
  rebuilds the surrounding objects, so a resumed run replays
  **bit-identically**;
* :mod:`repro.persistence.journal` - an append-only write-ahead event
  journal (JSONL) recording commands before they execute and ticks as they
  complete, with explicit fsync points and a torn-tail recovery rule;
* :mod:`repro.persistence.supervisor` - the watchdog that detects a died or
  hung mediator, warm-restarts it from checkpoint + journal replay, and
  optionally holds the server in the PR 1 guard-banded safe posture while
  trust is re-established.

See DESIGN.md section 8 ("Crash model and recovery") for the invariants.
"""

from repro.persistence.checkpoint import (
    CHECKPOINT_SCHEMA,
    CHECKPOINT_VERSION,
    RunRecipe,
    atomic_write_json,
    checkpoint_filename,
    latest_checkpoint,
    read_checkpoint,
    restore_mediator,
    write_checkpoint,
)
from repro.persistence.journal import (
    JOURNAL_SCHEMA,
    JOURNAL_VERSION,
    JournalWriter,
    read_journal,
    repair_torn_tail,
)
from repro.persistence.segments import (
    SegmentedJournalWriter,
    list_segments,
    prune_segments,
    read_segmented,
    repair_segmented_tail,
    replay_records_from,
    segment_filename,
    segment_start_seq,
    segments_size_bytes,
)
from repro.persistence.supervisor import (
    AdmitApp,
    Advance,
    MediatorHung,
    MediatorKilled,
    RecoveryStats,
    SetCap,
    Supervisor,
    command_from_dict,
    command_to_dict,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_VERSION",
    "JOURNAL_SCHEMA",
    "JOURNAL_VERSION",
    "AdmitApp",
    "Advance",
    "JournalWriter",
    "MediatorHung",
    "MediatorKilled",
    "RecoveryStats",
    "RunRecipe",
    "SegmentedJournalWriter",
    "SetCap",
    "Supervisor",
    "atomic_write_json",
    "checkpoint_filename",
    "command_from_dict",
    "command_to_dict",
    "latest_checkpoint",
    "list_segments",
    "prune_segments",
    "read_checkpoint",
    "read_journal",
    "read_segmented",
    "repair_segmented_tail",
    "repair_torn_tail",
    "replay_records_from",
    "restore_mediator",
    "segment_filename",
    "segment_start_seq",
    "segments_size_bytes",
    "write_checkpoint",
]
