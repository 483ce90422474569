"""Spans around the public calls into each layer of ``repro``.

A traced run installs wrappers on the functions named in :data:`HOOKS`
before the workload is set up. Each wrapper records one span
``(name, start, end, parent, unit)`` per call into an in-memory
:class:`SpanRecorder`; the spans are written out once, when the run ends.
Untraced runs install nothing.

Hooks are resolved by name when they are installed. A target that was
renamed or deleted is reported as absent for its span and never stops the
run, so a change that removes or renames a function leaves the benchmark
working and says which span it lost.

A span's *self time* is its duration minus the durations of its direct
child spans. A layer is the first component of a span name (``netsim`` in
``netsim.send``), named after the package under ``src/repro/``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
import weakref
from array import array
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Hook:
    """One wrapped call site.

    Attributes:
        span: Span name, ``<layer>.<what>``.
        module: Module that holds the binding the program calls through.
        target: Attribute path inside ``module`` (``Class.method`` or a
            module-level name).
        track: Optional kind of object to keep hold of after the call, for
            counters the object itself keeps (``"mediator"``, ``"network"``
            or ``"fleet"``; the object is the call's first argument).
    """

    span: str
    module: str
    target: str
    track: str | None = None


#: Every wrapped call site. ``learning.corpus`` wraps the binding the
#: mediator calls, so a corpus built elsewhere is not counted as the
#: mediator's.
HOOKS: tuple[Hook, ...] = (
    Hook("learning.corpus", "repro.core.mediator", "build_exhaustive_corpus"),
    Hook("core.mediator_init", "repro.core.mediator", "PowerMediator.__init__", "mediator"),
    Hook("core.mediator_run", "repro.core.mediator", "PowerMediator.run_for"),
    Hook("core.mediator_run", "repro.core.mediator", "PowerMediator.step"),
    Hook("core.state_dict", "repro.core.mediator", "PowerMediator.state_dict"),
    Hook("core.mix_experiment", "repro.cluster.manager", "run_mix_experiment"),
    Hook("server.tick", "repro.server.server", "SimulatedServer.tick"),
    Hook("engine.surface_build", "repro.engine.surface", "_build_surface"),
    Hook("engine.fleet_init", "repro.engine.planner", "MediatedFleet.__init__", "fleet"),
    Hook("cluster.bin_lookup", "repro.cluster.cluster", "evaluate_equal_policy_bin"),
    Hook("cluster.controller_step", "repro.cluster.controlplane", "ClusterController.step"),
    Hook("netsim.init", "repro.netsim.network", "SimNetwork.__init__", "network"),
    Hook("netsim.send", "repro.netsim.network", "SimNetwork.send"),
    Hook("netsim.deliver", "repro.netsim.network", "SimNetwork.deliver"),
    Hook("hierarchy.leaf_index", "repro.hierarchy.tree", "TreeTopology.leaf_index"),
    Hook("service.ingest_offer", "repro.service.ingest", "IngestBuffer.offer"),
    Hook("service.session_deliver", "repro.service.sessions", "ClientSession.deliver"),
    Hook("service.retention", "repro.service.retention", "RetentionManager.run"),
    Hook("service.retention", "repro.service.retention", "RetentionManager.prune_checkpoints"),
    # The service writes its checkpoint in a private method; it is the one
    # private hook, kept because checkpointing is the service's largest cost.
    Hook("persistence.checkpoint", "repro.service.loop", "MediatorService._checkpoint"),
    Hook("persistence.journal_append", "repro.persistence.segments", "SegmentedJournalWriter.append_meta"),
    Hook("persistence.journal_append", "repro.persistence.segments", "SegmentedJournalWriter.append_command"),
    Hook("persistence.journal_append", "repro.persistence.segments", "SegmentedJournalWriter.append_tick"),
    Hook("persistence.journal_append", "repro.persistence.segments", "SegmentedJournalWriter.append_checkpoint"),
    Hook("persistence.fsync", "os", "fsync"),
    Hook("observability.emit", "repro.observability.trace", "TraceBus.emit"),
)

#: Layers reported on every traced run, in table order.
LAYERS = (
    "cluster",
    "hierarchy",
    "service",
    "core",
    "learning",
    "server",
    "engine",
    "netsim",
    "persistence",
    "observability",
)


class SpanRecorder:
    """Spans kept in flat arrays; a stack supplies each span's parent."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit = array("i")
        self._stack: list[int] = []
        #: Identifier shared by the spans of one outside step (-1: set-up).
        self.current_unit = -1

    def name_index(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def open(self, name_index: int) -> int:
        index = len(self.start)
        self.name_id.append(name_index)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit.append(self.current_unit)
        self.end.append(math.nan)
        self._stack.append(index)
        self.start.append(self._clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self._clock()
        self._stack.pop()

    def wrap(self, fn, name: str, on_return=None):
        """``fn`` with a span named ``name`` around every call."""
        name_index = self.name_index(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = self.open(name_index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_return is not None:
                on_return(args)
            return result

        return spanned

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        """Per span: its duration minus its direct children's durations."""
        own = [e - s for s, e in zip(self.start, self.end)]
        result = list(own)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                result[parent] -= own[index]
        return result

    def by_name(self) -> dict[str, dict[str, float]]:
        """``{span name: {"calls": n, "self_s": s}}``."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for name_index, self_s in zip(self.name_id, self.self_times()):
            row = out[self.names[name_index]]
            row["calls"] += 1
            row["self_s"] += self_s
        return out

    def write(self, path: Path) -> None:
        """Write the spans: ``path`` gets a JSON header (span names, field
        names and array type codes, count); ``path`` + ``.bin`` gets the
        five arrays back to back in native byte order."""
        columns = {
            "name_id": self.name_id,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "unit": self.unit,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self),
            "columns": [[name, column.typecode] for name, column in columns.items()],
        }
        path.write_text(json.dumps(header), encoding="utf-8")
        with open(path.with_name(path.name + ".bin"), "wb") as handle:
            for column in columns.values():
                column.tofile(handle)


def read_spans(path: Path) -> SpanRecorder:
    """Load spans written by :meth:`SpanRecorder.write`."""
    header = json.loads(path.read_text(encoding="utf-8"))
    recorder = SpanRecorder()
    for name in header["names"]:
        recorder.name_index(name)
    with open(path.with_name(path.name + ".bin"), "rb") as handle:
        for name, typecode in header["columns"]:
            column = array(typecode)
            column.fromfile(handle, header["count"])
            setattr(recorder, name, column)
    return recorder


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _resolve(hook: Hook):
    """``(owner, attribute, original)`` for ``hook``, or a reason it is absent."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError as exc:
        return f"module {hook.module} not importable ({exc})"
    *path, attribute = hook.target.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return f"{hook.module}.{'.'.join(path)} not found"
    try:
        original = inspect.getattr_static(owner, attribute)
    except AttributeError:
        return f"{hook.module}.{hook.target} not found"
    if inspect.isclass(owner) and not inspect.isfunction(original):
        return f"{hook.module}.{hook.target} is not a plain method"
    if not callable(original):
        return f"{hook.module}.{hook.target} is not callable"
    return owner, attribute, original


class Tracer:
    """Installs :data:`HOOKS` around one run and collects what they saw.

    Args:
        hooks: Call sites to wrap (tests pass a list with a missing name).
    """

    def __init__(self, hooks: tuple[Hook, ...] = HOOKS) -> None:
        self.recorder = SpanRecorder()
        self._hooks = hooks
        self._installed: list[tuple[object, str, object]] = []
        #: Hook target -> reason, for every hook that could not be installed.
        self.absent: dict[str, str] = {}
        self.networks: list = []
        self.fleets: list = []
        self.phases: dict[str, dict[str, float]] = {}
        self.engine_fallbacks = 0
        self._finalizers: list[weakref.finalize] = []

    # ------------------------------------------------------------- install

    def install(self) -> None:
        for hook in self._hooks:
            resolved = _resolve(hook)
            if isinstance(resolved, str):
                self.absent[f"{hook.module}.{hook.target}"] = resolved
                continue
            owner, attribute, original = resolved
            on_return = self._tracker(hook.track)
            setattr(owner, attribute, self.recorder.wrap(original, hook.span, on_return))
            self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Restore every original and harvest mediators still alive."""
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()
        for finalizer in self._finalizers:
            finalizer()
        self._finalizers.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _tracker(self, kind: str | None):
        if kind == "mediator":
            return lambda args: self._track_mediator(args[0])
        if kind == "network":
            return lambda args: self.networks.append(args[0])
        if kind == "fleet":
            return lambda args: self.fleets.append(args[0])
        return None

    # ------------------------------------------------------------- harvest

    def _track_mediator(self, mediator) -> None:
        # Harvest when the mediator dies: fig12 builds hundreds of
        # short-lived mediators and holding them would inflate memory.
        profiler = getattr(mediator, "profiler", None)
        server = getattr(mediator, "server", None)
        self._finalizers.append(
            weakref.finalize(mediator, self._harvest, profiler, server)
        )

    def _harvest(self, profiler, server) -> None:
        report = getattr(profiler, "report", None)
        if callable(report):
            for phase, row in report().items():
                total = self.phases.setdefault(phase, {"calls": 0, "total_s": 0.0})
                total["calls"] += row.get("calls", 0)
                total["total_s"] += row.get("total_s", 0.0)
        if server is not None:
            for model in ("perf_model", "power_model"):
                self.engine_fallbacks += getattr(
                    getattr(server, model, None), "fallbacks", 0
                )

    def network_stats(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for network in self.networks:
            stats = getattr(network, "stats", None)
            to_dict = getattr(stats, "to_dict", None)
            if callable(to_dict):
                for key, value in to_dict().items():
                    totals[key] = totals.get(key, 0) + value
        return totals

    def fleet_fast_fraction(self) -> float:
        fast = sum(getattr(fleet, "fast_ticks", 0) for fleet in self.fleets)
        scalar = sum(getattr(fleet, "scalar_ticks", 0) for fleet in self.fleets)
        return fast / (fast + scalar) if fast + scalar else 0.0
