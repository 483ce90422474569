"""Long-running service mode: streaming ingest around the mediator.

Every other entry point in this repo is a *batch experiment*: build a
mediator, run a fixed script or horizon, report. This package turns the
mediator into a **service**: a deterministic, sim-time event loop that
consumes an open-loop command stream (job submissions, cancellations, cap
changes from the provisioner) and produces a subscription stream (per-client
acknowledgements, job completions, periodic telemetry), indefinitely.

The robustness core, layer by layer:

* :mod:`repro.service.commands` - the typed command stream, with cap-safety
  commands distinguished so overload can prioritize them;
* :mod:`repro.service.ingest` - the bounded ingest buffer and its explicit
  backpressure policies (``block``, ``reject``, ``shed-oldest``), every drop
  counted, never silent;
* :mod:`repro.service.sessions` - client sessions with sequence-numbered
  delivery and gap-checked replay-on-reconnect;
* :mod:`repro.service.retention` - compaction that keeps the trace window,
  journal segments, and checkpoint set bounded for multi-day soaks;
* :mod:`repro.service.loop` - :class:`MediatorService`, the event loop that
  ties them to the PR 2 checkpoint/journal substrate: a kill mid-stream is
  recovered by full-tick re-execution from the last durable checkpoint, and
  the stitched trace hashes identically to an uninterrupted run.

See DESIGN.md section 11 for the architecture and invariants.
"""

from repro.service.commands import (
    CancelJob,
    SetCapCommand,
    SubmitJob,
    command_from_dict,
    command_to_dict,
    is_cap_safety,
)
from repro.service.ingest import BACKPRESSURE_POLICIES, IngestBuffer
from repro.service.loop import MediatorService, ServiceConfig
from repro.service.retention import RetentionConfig, RetentionManager
from repro.service.sessions import ClientSession, Delivery, SessionRegistry

__all__ = [
    "BACKPRESSURE_POLICIES",
    "CancelJob",
    "ClientSession",
    "Delivery",
    "IngestBuffer",
    "MediatorService",
    "RetentionConfig",
    "RetentionManager",
    "ServiceConfig",
    "SessionRegistry",
    "SetCapCommand",
    "SubmitJob",
    "command_from_dict",
    "command_to_dict",
    "is_cap_safety",
]
