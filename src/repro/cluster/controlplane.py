"""Cap distribution over a lossy network: epochs, leases, safe fallbacks.

The oracle :class:`~repro.cluster.cluster.ClusterSimulator` moves watts
between servers by fiat - the controller sees every node instantly and cap
commands arrive losslessly. This module is the production-shaped
replacement: a :class:`ClusterController` and per-node :class:`NodeAgent`\\ s
exchanging messages over a :class:`~repro.netsim.network.SimNetwork`, built
so that the defining invariant of distributed power capping holds *by
construction*:

    **The sum of effective node caps never exceeds the cluster budget,
    no matter which messages are lost, delayed, duplicated, or cut off.**

The construction (full math in DESIGN.md section 10):

* Every node permanently owns a guard-banded **safe cap** ``s`` - the even
  budget share shrunk by ``safe_guard_band`` and quantized down. Safe caps
  are unconditional: a node that hears nothing may always draw up to ``s``.
  The remainder ``E = B - n*s`` is the **extras pool** the controller
  distributes dynamically.
* Extras move only via **lease-based grants**: an epoch-numbered, idempotent
  ``SetCap`` carrying an *absolute* expiry step. A node that misses renewal
  falls back to its safe cap on its own clock; the controller counts every
  grant as outstanding until it is superseded by an acknowledged later epoch
  or its lease expires - whichever the controller can actually prove.
* **Epochs** are globally monotone. A node accepts a command only with an
  epoch at or above its own, so a delayed duplicate of an old grant can
  never resurrect a revoked cap; stale commands are rejected (and the
  rejection reported, which doubles as anti-entropy).
* **Heartbeats** replace oracle outage knowledge: the controller infers a
  node's death from missed heartbeats, stops issuing to it, and reclaims
  its extras only once their leases have provably expired. A heartbeat from
  a suspect node reintegrates it; a heartbeat reporting a stale epoch after
  a partition heal triggers reconciliation (the current target is reissued
  under a fresh epoch).
* Commands are retried with the shared
  :class:`~repro.util.retry.RetryPolicy` - capped exponential backoff plus
  seeded jitter, the same policy the single-server actuation retrier uses.

This module holds the two protocol halves; the replay loop that steps them
is :func:`~repro.hierarchy.runner.run_budget_tree`, whose one-level tree
(``TreeSpec(fanouts=(n,), ...)``) is the flat cluster control plane.
Everything is deterministic given the network seed, so control-plane traces
hash stably like every other sim event stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import NetworkError, RetryExhaustedError
from repro.netsim.network import CONTROLLER, SimNetwork
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import NULL_TRACE_BUS, TraceBus
from repro.util.retry import RetryPolicy

__all__ = [
    "CapAck",
    "ClusterController",
    "ControlPlaneConfig",
    "Heartbeat",
    "NodeAgent",
    "SetCapCmd",
]

#: Tolerance for cap-budget comparisons (quantization keeps values exact,
#: but float sums deserve an epsilon).
_EPS = 1e-6


@dataclass(frozen=True)
class ControlPlaneConfig:
    """Protocol tunables, all in trace steps.

    Attributes:
        lease_steps: Lifetime of a grant; a node falls back to its safe cap
            this many steps after the grant was issued unless renewed.
        renew_before_steps: The controller reissues a live grant when its
            lease has this many steps (or fewer) left.
        heartbeat_every_steps: Per-node heartbeat period (staggered by node
            id so the fabric sees a smooth stream).
        suspect_after_steps: Silence (no heartbeat or ack) before the
            controller declares a node suspect.
        safe_guard_band: Fraction of the even budget share withheld from
            safe caps and pooled for dynamic grants.
        retry: RPC retry/backoff policy (jitter decorrelates the per-node
            retransmit clocks; draws come from the controller's seeded rng).
    """

    lease_steps: int = 10
    renew_before_steps: int = 4
    heartbeat_every_steps: int = 2
    suspect_after_steps: int = 5
    safe_guard_band: float = 0.10
    retry: RetryPolicy = RetryPolicy(
        base_ticks=1, max_backoff_ticks=8, max_attempts=5, jitter_ticks=1
    )

    def __post_init__(self) -> None:
        if self.lease_steps < 2:
            raise NetworkError("lease_steps must be >= 2")
        if not 1 <= self.renew_before_steps < self.lease_steps:
            raise NetworkError(
                "renew_before_steps must be >= 1 and below lease_steps"
            )
        if self.heartbeat_every_steps < 1:
            raise NetworkError("heartbeat_every_steps must be >= 1")
        if self.suspect_after_steps <= self.heartbeat_every_steps:
            raise NetworkError(
                "suspect_after_steps must exceed heartbeat_every_steps "
                "(one late heartbeat is not an outage)"
            )
        if not 0.0 < self.safe_guard_band < 1.0:
            raise NetworkError("safe_guard_band must be in (0, 1)")


# ------------------------------------------------------------------ messages


@dataclass(frozen=True)
class SetCapCmd:
    """Controller -> node: hold ``extra_w`` above your safe cap until the
    (absolute) lease expiry step. Idempotent: re-applying the same epoch is
    a no-op because the expiry is absolute, not relative."""

    node: int
    epoch: int
    extra_w: float
    lease_expiry_step: int


@dataclass(frozen=True)
class CapAck:
    """Node -> controller: my state after processing your command.

    ``rejected`` marks a stale-epoch command; the carried state is then the
    node's *current* grant, which gives the controller the reconciliation
    evidence for free.
    """

    node: int
    epoch: int
    extra_w: float
    lease_expiry_step: int
    rejected: bool = False


@dataclass(frozen=True)
class Heartbeat:
    """Node -> controller: I am alive, and this is the grant I hold.

    ``demand_w`` is upward telemetry: how many watts of offered load the
    sender (or, for a hierarchy's interior node, its whole subtree)
    currently wants. It is advisory - safety never depends on it - and
    defaults to 0 so the flat single-level protocol is unchanged.
    """

    node: int
    epoch: int
    extra_w: float
    lease_expiry_step: int
    demand_w: float = 0.0


# ---------------------------------------------------------------- node agent


class NodeAgent:
    """One server's cap-enforcement endpoint.

    The agent is deliberately tiny: it accepts the highest-epoch grant it
    has seen, enforces the lease expiry on its own clock, answers every
    command with its resulting state, and heartbeats. All the hard
    decisions live in the controller; the agent only has to be *safe*,
    which it is even when it hears nothing at all (safe-cap fallback).
    """

    def __init__(
        self,
        node_id: int,
        *,
        safe_cap_w: float,
        rated_cap_w: float,
        config: ControlPlaneConfig,
        trace_bus: TraceBus = NULL_TRACE_BUS,
        metrics: MetricsRegistry | None = None,
        scope: str = "",
    ) -> None:
        self.node_id = node_id
        self.safe_cap_w = safe_cap_w
        self.rated_cap_w = rated_cap_w
        self._config = config
        self._trace = trace_bus
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._scope = scope
        self.up = True
        #: Highest epoch ever accepted (survives outages: the epoch counter
        #: is journaled to the node's local store, PR 2 style).
        self.epoch = 0
        self.extra_w = 0.0
        self.lease_expiry_step = 0
        #: Advisory upward telemetry carried in heartbeats (a hierarchy's
        #: interior node reports its subtree's aggregate want here).
        self.demand_w = 0.0

    def _payload(self, payload: dict) -> dict:
        """Label trace payloads with the mediation scope when one is set.

        The flat single-level plane never sets a scope, so its payloads -
        and therefore its trace hashes - are byte-identical to before.
        """
        if self._scope:
            payload["scope"] = self._scope
        return payload

    def live_extra_w(self, step: int) -> float:
        """The granted extra still in force at ``step`` (0 past the lease)."""
        return self.extra_w if step < self.lease_expiry_step else 0.0

    def effective_cap_w(self, step: int) -> float:
        """The cap this node enforces at ``step``, up or not."""
        return min(self.rated_cap_w, self.safe_cap_w + self.live_extra_w(step))

    def state_dict(self) -> dict:
        """The agent's journaled state (PR 2 codec convention)."""
        return {
            "epoch": self.epoch,
            "extra_w": self.extra_w,
            "lease_expiry_step": self.lease_expiry_step,
            "up": self.up,
            "demand_w": self.demand_w,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot exactly."""
        self.epoch = int(state["epoch"])
        self.extra_w = float(state["extra_w"])
        self.lease_expiry_step = int(state["lease_expiry_step"])
        self.up = bool(state["up"])
        self.demand_w = float(state.get("demand_w", 0.0))

    def _accept(self, message: SetCapCmd, step: int, network: SimNetwork) -> None:
        """Adopt a current-or-newer command and ack the resulting state.

        Split out of :meth:`step` so a hierarchy's interior agent can defer
        *shrinks* while its own children still hold leases backed by the
        watts being taken away; a leaf applies everything immediately.
        """
        self.epoch = message.epoch
        self.extra_w = message.extra_w
        self.lease_expiry_step = message.lease_expiry_step
        network.send(
            self.node_id,
            CONTROLLER,
            CapAck(
                node=self.node_id,
                epoch=self.epoch,
                extra_w=self.extra_w,
                lease_expiry_step=self.lease_expiry_step,
            ),
            step,
        )

    def _lease_clock(self, step: int) -> None:
        """Expire the held grant on the node's own clock."""
        if self.extra_w > 0 and step >= self.lease_expiry_step:
            # Missed renewal: fall back to the guard-banded safe cap.
            self._metrics.counter("controlplane.lease_expiries").inc()
            self._trace.emit(
                "cp-lease-expired",
                self._payload(
                    {
                        "node": self.node_id,
                        "epoch": self.epoch,
                        "lost_extra_w": self.extra_w,
                        "step": step,
                    }
                ),
            )
            self.extra_w = 0.0

    def step(self, step: int, network: SimNetwork) -> None:
        """Process one step: inbox, lease clock, heartbeat."""
        if not self.up:
            # A crashed node loses its in-flight inbox; the lease keeps
            # counting down on the absolute clock regardless.
            network.deliver(self.node_id, step)
            return
        for _, message in network.deliver(self.node_id, step):
            if not isinstance(message, SetCapCmd):
                continue
            if message.epoch < self.epoch:
                self._metrics.counter("controlplane.epoch_rejections").inc()
                self._trace.emit(
                    "cp-epoch-reject",
                    self._payload(
                        {
                            "node": self.node_id,
                            "stale_epoch": message.epoch,
                            "current_epoch": self.epoch,
                            "step": step,
                        }
                    ),
                )
                network.send(
                    self.node_id,
                    CONTROLLER,
                    CapAck(
                        node=self.node_id,
                        epoch=self.epoch,
                        extra_w=self.live_extra_w(step),
                        lease_expiry_step=self.lease_expiry_step,
                        rejected=True,
                    ),
                    step,
                )
                continue
            self._accept(message, step, network)
        self._lease_clock(step)
        if (step + self.node_id) % self._config.heartbeat_every_steps == 0:
            network.send(
                self.node_id,
                CONTROLLER,
                Heartbeat(
                    node=self.node_id,
                    epoch=self.epoch,
                    extra_w=self.live_extra_w(step),
                    lease_expiry_step=self.lease_expiry_step,
                    demand_w=self.demand_w,
                ),
                step,
            )


# ---------------------------------------------------------------- controller


@dataclass(frozen=True)
class _Grant:
    epoch: int
    extra_w: float
    expiry_step: int


@dataclass
class _PendingRpc:
    grant: _Grant
    attempts: int
    next_retry_step: int
    #: Step the first send happened, so a deadline-carrying RetryPolicy can
    #: bound the whole sequence, not just the attempt count.
    first_step: int = 0


class ClusterController:
    """Budget-safe cap distribution over an unreliable fabric.

    Args:
        n_nodes: Fleet size.
        budget_w: The cluster budget ``B`` (the shave ceiling).
        quantum_w: Per-node cap grid; every safe cap and grant is floored
            to a multiple of it, so the per-node cap values the evaluator
            sees form a small finite set.
        rated_cap_w: A node's physical maximum (grants are advisory above
            it; the effective cap clamps).
        config: Protocol tunables.
        seed: Seed for the retry-jitter rng.
        safe_cap_w: Override the computed guard-banded safe cap (a budget
            tree pins every level's safe tier statically so the fallback
            waterfall composes; ``None`` keeps the flat formula).
        scope: Optional label added to trace payloads so events from many
            stacked control planes stay distinguishable. Empty (the flat
            default) adds nothing, keeping historical trace hashes.
    """

    def __init__(
        self,
        n_nodes: int,
        budget_w: float,
        *,
        quantum_w: float,
        rated_cap_w: float,
        config: ControlPlaneConfig,
        seed: int = 0,
        trace_bus: TraceBus = NULL_TRACE_BUS,
        metrics: MetricsRegistry | None = None,
        safe_cap_w: float | None = None,
        scope: str = "",
    ) -> None:
        if n_nodes < 1:
            raise NetworkError("controller needs at least one node")
        if budget_w <= 0:
            raise NetworkError("cluster budget must be positive")
        if quantum_w <= 0:
            raise NetworkError("cap quantum must be positive")
        self._n = n_nodes
        self.budget_w = budget_w
        self._quantum_w = quantum_w
        self._rated_cap_w = rated_cap_w
        self._config = config
        self._trace = trace_bus
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._scope = scope
        self._rng = np.random.default_rng(seed)
        if safe_cap_w is None:
            safe_cap_w = self._quantize(
                (1.0 - config.safe_guard_band) * budget_w / n_nodes
            )
        self.safe_cap_w = safe_cap_w
        if self.safe_cap_w <= 0:
            raise NetworkError(
                f"budget {budget_w} W over {n_nodes} nodes leaves no safe cap "
                f"at quantum {quantum_w} W"
            )
        #: What the controller may hand out dynamically *unconditionally*
        #: (its own budget minus the children's unconditional safe tier).
        self.extras_pool_w = budget_w - n_nodes * self.safe_cap_w
        if self.extras_pool_w < -_EPS:
            raise NetworkError(
                f"safe caps {n_nodes} x {self.safe_cap_w} W exceed the "
                f"budget {budget_w} W"
            )
        #: Leased headroom from upstream (a budget tree's delegation path):
        #: spendable only until its expiry, never part of the safe tier.
        self._bonus_w = 0.0
        self._bonus_expiry_step = 0
        self._has_bonus = False
        self._hold_until = 0
        self._epoch = 0
        self._grants: list[dict[int, _Grant]] = [dict() for _ in range(n_nodes)]
        self._issued: list[_Grant | None] = [None] * n_nodes
        self._pending: list[_PendingRpc | None] = [None] * n_nodes
        self._reported_epoch = [0] * n_nodes
        self._last_heard = [0] * n_nodes
        self._suspect = [False] * n_nodes
        self._reconcile = [False] * n_nodes
        self._reported_demand = [0.0] * n_nodes

    # ------------------------------------------------------------- inspection

    def _quantize(self, value_w: float) -> float:
        return max(0.0, float(np.floor(value_w / self._quantum_w)) * self._quantum_w)

    def _payload(self, payload: dict) -> dict:
        """Label trace payloads with the mediation scope when one is set."""
        if self._scope:
            payload["scope"] = self._scope
        return payload

    def outstanding_w(self, node: int, step: int) -> float:
        """The extra the controller must assume ``node`` may still enforce."""
        live = [g.extra_w for g in self._grants[node].values() if g.expiry_step > step]
        return max(live, default=0.0)

    def total_outstanding_w(self, step: int) -> float:
        """Sum of per-node outstanding extras (the whole level's exposure)."""
        return float(
            sum(self.outstanding_w(node, step) for node in range(self._n))
        )

    def issued_epoch(self, node: int) -> int:
        grant = self._issued[node]
        return 0 if grant is None else grant.epoch

    def in_safe_hold(self, step: int) -> bool:
        """Whether the controller is still holding after a stale restore.

        While held, the outstanding accounting may UNDER-count reality
        (the dead incarnation's forgotten grants are still live out
        there), so callers must not treat it as an upper bound until the
        hold expires.
        """
        return step < self._hold_until

    def issued_extra_w(self, node: int) -> float:
        grant = self._issued[node]
        return 0.0 if grant is None else grant.extra_w

    def is_suspect(self, node: int) -> bool:
        return self._suspect[node]

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def n_nodes(self) -> int:
        return self._n

    def reported_demand_w(self, node: int) -> float:
        """Last heartbeat-reported demand for ``node`` (advisory)."""
        return self._reported_demand[node]

    def total_reported_demand_w(self) -> float:
        """Aggregate heartbeat-reported demand across the fleet (advisory)."""
        return float(sum(self._reported_demand))

    # ----------------------------------------------------------- bonus lease

    def bonus_w(self, step: int) -> float:
        """The upstream-leased headroom still live at ``step``."""
        if self._has_bonus and step < self._bonus_expiry_step:
            return self._bonus_w
        return 0.0

    def set_bonus(self, extra_w: float, expiry_step: int) -> None:
        """Adopt leased headroom from upstream.

        Grants that dip into this bonus get their lease expiry clamped to
        the bonus expiry, so when the upstream lease runs out every watt
        issued against it is provably back - the level's outstanding total
        collapses to its unconditional ``extras_pool_w`` (full argument in
        DESIGN.md section 14).
        """
        if extra_w < 0:
            raise NetworkError("bonus extra_w must be non-negative")
        self._bonus_w = extra_w
        self._bonus_expiry_step = expiry_step
        self._has_bonus = True

    # ----------------------------------------------------- crash/restart path

    def state_dict(self) -> dict:
        """Snapshot for the PR 2 checkpoint codecs (restores bit-exactly)."""
        return {
            "epoch": self._epoch,
            "grants": [
                {
                    str(e): {
                        "epoch": g.epoch,
                        "extra_w": g.extra_w,
                        "expiry_step": g.expiry_step,
                    }
                    for e, g in grants.items()
                }
                for grants in self._grants
            ],
            "issued": [
                None
                if g is None
                else {
                    "epoch": g.epoch,
                    "extra_w": g.extra_w,
                    "expiry_step": g.expiry_step,
                }
                for g in self._issued
            ],
            "pending": [
                None
                if p is None
                else {
                    "grant": {
                        "epoch": p.grant.epoch,
                        "extra_w": p.grant.extra_w,
                        "expiry_step": p.grant.expiry_step,
                    },
                    "attempts": p.attempts,
                    "next_retry_step": p.next_retry_step,
                    "first_step": p.first_step,
                }
                for p in self._pending
            ],
            "reported_epoch": list(self._reported_epoch),
            "last_heard": list(self._last_heard),
            "suspect": list(self._suspect),
            "reconcile": list(self._reconcile),
            "reported_demand": list(self._reported_demand),
            "bonus": {
                "extra_w": self._bonus_w,
                "expiry_step": self._bonus_expiry_step,
                "has_bonus": self._has_bonus,
            },
            "hold_until": self._hold_until,
            "rng": self._rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot exactly."""

        def _grant(doc: dict) -> _Grant:
            return _Grant(
                epoch=int(doc["epoch"]),
                extra_w=float(doc["extra_w"]),
                expiry_step=int(doc["expiry_step"]),
            )

        self._epoch = int(state["epoch"])
        self._grants = [
            {int(e): _grant(g) for e, g in grants.items()}
            for grants in state["grants"]
        ]
        self._issued = [
            None if g is None else _grant(g) for g in state["issued"]
        ]
        self._pending = [
            None
            if p is None
            else _PendingRpc(
                grant=_grant(p["grant"]),
                attempts=int(p["attempts"]),
                next_retry_step=int(p["next_retry_step"]),
                first_step=int(p.get("first_step", 0)),
            )
            for p in state["pending"]
        ]
        self._reported_epoch = [int(e) for e in state["reported_epoch"]]
        self._last_heard = [int(s) for s in state["last_heard"]]
        self._suspect = [bool(s) for s in state["suspect"]]
        self._reconcile = [bool(r) for r in state["reconcile"]]
        self._reported_demand = [float(d) for d in state["reported_demand"]]
        bonus = state["bonus"]
        self._bonus_w = float(bonus["extra_w"])
        self._bonus_expiry_step = int(bonus["expiry_step"])
        self._has_bonus = bool(bonus["has_bonus"])
        self._hold_until = int(state["hold_until"])
        self._rng.bit_generator.state = state["rng"]

    def restart(self, step: int, *, epochs_to_skip: int = 0) -> None:
        """Enter the safe-hold posture after restoring a stale checkpoint.

        A crashed-and-restored controller may have issued grants *after*
        the checkpoint it came back from; those are real leases it no
        longer remembers. Three defenses make the restored accounting a
        superset of reality again within one lease:

        * the epoch counter jumps past anything the dead incarnation could
          have issued (``epochs_to_skip``, an upper bound the supervisor
          computes from the checkpoint age), so no epoch is ever reused;
        * issuance is suspended for ``lease_steps`` (the hold) - every
          forgotten grant either expires in that window or shows up in a
          heartbeat;
        * during the hold, heartbeat-reported live grants the controller
          does not know are adopted into the outstanding accounting
          (see :meth:`_process_inbox`).

        In-flight RPCs died with the process, so pending slots are cleared;
        failure detection restarts from a fresh hearing at ``step``.
        """
        if epochs_to_skip < 0:
            raise NetworkError("epochs_to_skip must be non-negative")
        self._epoch += epochs_to_skip
        self._hold_until = step + self._config.lease_steps
        self._pending = [None] * self._n
        self._reconcile = [False] * self._n
        self._last_heard = [step] * self._n
        self._metrics.counter("controlplane.restarts").inc()
        self._trace.emit(
            "cp-restart",
            self._payload(
                {
                    "step": step,
                    "hold_until": self._hold_until,
                    "epoch": self._epoch,
                }
            ),
        )

    # ------------------------------------------------------------------ step

    def step(self, step: int, network: SimNetwork, loaded: frozenset[int]) -> None:
        """Run one controller step: inbox, detection, distribution, retries."""
        self._process_inbox(step, network)
        self._prune_expired(step)
        self._detect_failures(step)
        issued_now = self._distribute(step, network, loaded)
        self._retry_pending(step, network, issued_now)

    def _process_inbox(self, step: int, network: SimNetwork) -> None:
        for _, message in network.deliver(CONTROLLER, step):
            if not isinstance(message, (CapAck, Heartbeat)):
                continue
            node = message.node
            self._last_heard[node] = step
            if self._suspect[node]:
                self._suspect[node] = False
                self._metrics.counter("controlplane.reintegrations").inc()
                self._trace.emit(
                    "cp-reintegrate", self._payload({"node": node, "step": step})
                )
            if isinstance(message, Heartbeat):
                self._reported_demand[node] = message.demand_w
                if (
                    step < self._hold_until
                    and message.extra_w > _EPS
                    and message.lease_expiry_step > step
                    and message.epoch >= self._reported_epoch[node]
                    and message.epoch not in self._grants[node]
                ):
                    # Safe-hold adoption: the node enforces a live grant a
                    # stale checkpoint never heard of. Count it outstanding
                    # (conservative - over-counting only withholds extras)
                    # and keep the epoch counter above it.
                    self._grants[node][message.epoch] = _Grant(
                        epoch=message.epoch,
                        extra_w=message.extra_w,
                        expiry_step=message.lease_expiry_step,
                    )
                    if message.epoch > self.issued_epoch(node):
                        self._issued[node] = self._grants[node][message.epoch]
                    self._epoch = max(self._epoch, message.epoch)
                    self._metrics.counter("controlplane.adoptions").inc()
            if isinstance(message, CapAck):
                self._metrics.counter("controlplane.acks").inc()
                self._trace.emit(
                    "cp-ack",
                    self._payload(
                        {
                            "node": node,
                            "epoch": message.epoch,
                            "rejected": message.rejected,
                            "step": step,
                        }
                    ),
                )
            if message.epoch > self._reported_epoch[node]:
                self._reported_epoch[node] = message.epoch
            # The node will reject everything below its reported epoch
            # forever, so those grants can never come back to life.
            reported = self._reported_epoch[node]
            grants = self._grants[node]
            for old in [e for e in grants if e < reported]:
                del grants[old]
            pending = self._pending[node]
            if pending is not None and reported >= pending.grant.epoch:
                self._pending[node] = None
            issued = self._issued[node]
            if (
                issued is not None
                and reported < issued.epoch
                and self._pending[node] is None
            ):
                # The node missed our latest command and nothing is in
                # flight for it any more (retries exhausted during a
                # partition, say): reissue on the next distribution pass.
                # Judged on the *highest* epoch the node ever reported, not
                # this message's - a delayed duplicate of an old ack is not
                # evidence that a newer grant was lost.
                self._reconcile[node] = True

    def _prune_expired(self, step: int) -> None:
        for node in range(self._n):
            grants = self._grants[node]
            for epoch in [e for e, g in grants.items() if g.expiry_step <= step]:
                del grants[epoch]

    def _detect_failures(self, step: int) -> None:
        for node in range(self._n):
            if self._suspect[node]:
                continue
            if step - self._last_heard[node] > self._config.suspect_after_steps:
                self._suspect[node] = True
                self._pending[node] = None  # no point retrying into the void
                self._reconcile[node] = False
                self._metrics.counter("controlplane.suspects").inc()
                self._trace.emit(
                    "cp-suspect",
                    self._payload(
                        {
                            "node": node,
                            "silent_steps": step - self._last_heard[node],
                            "step": step,
                        }
                    ),
                )

    def _distribute(
        self, step: int, network: SimNetwork, loaded: frozenset[int]
    ) -> set[int]:
        """Issue new grants toward the even-share target, pool permitting."""
        if step < self._hold_until:
            # Safe-hold after a restart: no issuance until every grant the
            # dead incarnation could have issued has expired or been
            # adopted from heartbeats. Nodes whose leases lapse meanwhile
            # fall back to their safe caps - degraded, never unsafe.
            return set()
        healthy = [i for i in sorted(loaded) if not self._suspect[i]]
        outstanding = [self.outstanding_w(i, step) for i in range(self._n)]
        total_outstanding = sum(outstanding)
        pool = self.extras_pool_w + self.bonus_w(step)
        free = pool - total_outstanding
        share = self._quantize(pool / len(healthy)) if healthy else 0.0
        issued_now: set[int] = set()
        for node in range(self._n):
            if self._suspect[node]:
                continue
            target = share if node in healthy else 0.0
            grantable = target
            if target > outstanding[node] + _EPS:
                room = max(0.0, free)
                grantable = self._quantize(
                    outstanding[node] + min(target - outstanding[node], room)
                )
            issued = self._issued[node]
            issued_extra = 0.0 if issued is None else issued.extra_w
            changed = abs(grantable - issued_extra) > _EPS
            if issued is None and grantable <= _EPS and not self._reconcile[node]:
                continue  # nothing granted, nothing wanted
            renewal_due = (
                issued is not None
                and issued.extra_w > _EPS
                and not changed
                and issued.expiry_step - step <= self._config.renew_before_steps
            )
            if not (changed or renewal_due or self._reconcile[node]):
                continue
            reconciled = self._reconcile[node]
            self._reconcile[node] = False
            growth = max(0.0, grantable - outstanding[node])
            expiry_clamp = None
            if (
                self._has_bonus
                and total_outstanding + growth > self.extras_pool_w + _EPS
            ):
                # This grant dips into the upstream bonus: its lease may
                # not outlive the lease backing it.
                expiry_clamp = self._bonus_expiry_step
            grant = self._issue(
                step, network, node, grantable, expiry_clamp=expiry_clamp
            )
            issued_now.add(node)
            if reconciled:
                self._metrics.counter("controlplane.reconciliations").inc()
                self._trace.emit(
                    "cp-reconcile",
                    self._payload(
                        {"node": node, "epoch": grant.epoch, "step": step}
                    ),
                )
            free -= growth
            total_outstanding += growth
            outstanding[node] = max(outstanding[node], grantable)
        return issued_now

    def _issue(
        self,
        step: int,
        network: SimNetwork,
        node: int,
        extra_w: float,
        *,
        expiry_clamp: int | None = None,
    ) -> _Grant:
        self._epoch += 1
        expiry = step + self._config.lease_steps
        if expiry_clamp is not None:
            expiry = min(expiry, expiry_clamp)
        grant = _Grant(
            epoch=self._epoch,
            extra_w=extra_w,
            expiry_step=expiry,
        )
        if extra_w > _EPS:
            self._grants[node][grant.epoch] = grant
        self._issued[node] = grant
        self._pending[node] = _PendingRpc(
            grant=grant,
            attempts=1,
            next_retry_step=step
            + self._config.retry.backoff_ticks(1, self._rng),
            first_step=step,
        )
        self._send(step, network, node, grant, attempt=1)
        return grant

    def _send(
        self, step: int, network: SimNetwork, node: int, grant: _Grant, attempt: int
    ) -> None:
        self._metrics.counter("controlplane.commands").inc()
        if attempt > 1:
            self._metrics.counter("controlplane.retries").inc()
        self._trace.emit(
            "cp-command",
            self._payload(
                {
                    "node": node,
                    "epoch": grant.epoch,
                    "extra_w": grant.extra_w,
                    "lease_expiry_step": grant.expiry_step,
                    "attempt": attempt,
                    "step": step,
                }
            ),
        )
        network.send(
            CONTROLLER,
            node,
            SetCapCmd(
                node=node,
                epoch=grant.epoch,
                extra_w=grant.extra_w,
                lease_expiry_step=grant.expiry_step,
            ),
            step,
        )

    def _retry_pending(
        self, step: int, network: SimNetwork, issued_now: set[int]
    ) -> None:
        for node in range(self._n):
            if node in issued_now or self._suspect[node]:
                continue
            pending = self._pending[node]
            if pending is None or step < pending.next_retry_step:
                continue
            elapsed = step - pending.first_step
            try:
                self._config.retry.require(
                    pending.attempts, elapsed, what=f"SetCap rpc to node {node}"
                )
            except RetryExhaustedError:
                # Park: anti-entropy (heartbeat evidence) will reissue.
                self._pending[node] = None
                self._metrics.counter("controlplane.rpc_exhausted").inc()
                self._metrics.counter("retry.exhausted").inc()
                continue
            pending.attempts += 1
            pending.next_retry_step = step + self._config.retry.backoff_ticks(
                pending.attempts, self._rng, elapsed_ticks=elapsed
            )
            self._send(step, network, node, pending.grant, attempt=pending.attempts)
