"""Client sessions: sequencing, replay-on-reconnect, gap detection."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError, ServiceError
from repro.observability.metrics import MetricsRegistry
from repro.service import ClientSession, SessionRegistry
from repro.service.sessions import Delivery


def _registry(clients=3, window=16):
    return SessionRegistry(clients=clients, window=window, metrics=MetricsRegistry())


def test_deliveries_are_sequenced_per_client():
    registry = _registry()
    for tick in range(3):
        registry.deliver(0, tick, "ack", {"n": tick})
    registry.deliver(1, 0, "ack", {})
    assert registry.session(0).next_seq == 3
    assert registry.session(1).next_seq == 1
    assert registry.session(0).delivered_through == 2  # connected: consumed live
    assert registry.session(0).pending == 0


def test_unknown_client_is_loud():
    registry = _registry()
    with pytest.raises(ServiceError, match="unknown client"):
        registry.deliver(7, 0, "ack", {})
    with pytest.raises(ConfigurationError):
        ClientSession(0, window=0)


def test_disconnect_accrues_and_reconnect_replays_gap_free():
    registry = _registry()
    registry.deliver(0, 0, "ack", {"n": 0})
    registry.disconnect(0)
    for tick in range(1, 5):
        registry.deliver(0, tick, "telemetry", {"n": tick})
    session = registry.session(0)
    assert session.delivered_through == 0  # frozen while away
    assert session.pending == 4
    missed = registry.reconnect(0)
    assert [d.seq for d in missed] == [1, 2, 3, 4]
    assert [d.payload["n"] for d in missed] == [1, 2, 3, 4]
    assert session.delivered_through == 4
    assert registry.reconnect(0) == []  # idempotent


def test_reconnect_detects_window_overrun():
    registry = _registry(window=4)
    registry.deliver(0, 0, "ack", {})
    registry.disconnect(0)
    for tick in range(6):  # more than the window retains
        registry.deliver(0, tick, "telemetry", {})
    with pytest.raises(ServiceError, match="replay gap"):
        registry.reconnect(0)


def test_reconnect_detects_fully_evicted_window():
    session = ClientSession(0, window=2)
    session.deliver(0, "ack", {})
    session.disconnect()
    session.deliver(1, "a", {})
    session.deliver(2, "b", {})
    session.deliver(3, "c", {})  # seq 1 evicted; cursor still at 0
    with pytest.raises(ServiceError, match="replay gap"):
        session.reconnect()


def test_broadcast_reaches_disconnected_sessions():
    registry = _registry(clients=2)
    registry.disconnect(1)
    registry.broadcast(5, "telemetry", {"tick": 5})
    assert registry.session(0).delivered_through == 0
    assert registry.session(1).pending == 1
    missed = registry.reconnect(1)
    assert len(missed) == 1 and missed[0].kind == "telemetry"


def test_counters_track_session_traffic():
    registry = _registry(clients=2)
    metrics = registry._metrics
    registry.deliver(0, 0, "ack", {})
    registry.disconnect(0)
    registry.disconnect(0)  # idempotent: counted once
    registry.deliver(0, 1, "ack", {})
    registry.reconnect(0)
    assert metrics.counter("service.sessions.deliveries").value == 2
    assert metrics.counter("service.sessions.disconnects").value == 1
    assert metrics.counter("service.sessions.reconnects").value == 1
    assert metrics.counter("service.sessions.replayed").value == 1


def test_state_round_trip_preserves_cursors():
    registry = _registry(clients=2, window=8)
    registry.deliver(0, 0, "ack", {"n": 0})
    registry.disconnect(0)
    registry.deliver(0, 1, "ack", {"n": 1})
    state = json.loads(json.dumps(registry.state_dict()))
    restored = _registry(clients=2, window=8)
    restored.load_state_dict(state)
    session = restored.session(0)
    assert session.connected is False
    assert session.next_seq == 2
    assert session.delivered_through == 0
    missed = restored.reconnect(0)
    assert [d.payload["n"] for d in missed] == [1]
    assert Delivery.from_dict(missed[0].to_dict()) == missed[0]


def test_connected_sessions_retain_nothing():
    session = ClientSession(0, window=8)
    for tick in range(5):
        session.deliver(tick, "telemetry", {"n": tick})
    assert session.state_dict()["window"] == []
    session.disconnect()
    session.deliver(5, "telemetry", {"n": 5})
    assert [d["seq"] for d in session.state_dict()["window"]] == [5]
    assert [d.seq for d in session.reconnect()] == [5]
    assert session.state_dict()["window"] == []  # replayed, so released


def test_restore_drops_consumed_deliveries_from_full_windows():
    # Checkpoints written before windows released consumed deliveries hold
    # every delivery; restoring one keeps only the unconsumed suffix, and
    # the reconnect after it replays that suffix with no gap.
    state = {
        "client": 0,
        "window_size": 8,
        "connected": False,
        "next_seq": 5,
        "delivered_through": 2,
        "window": [
            Delivery(seq, seq, "telemetry", {"n": seq}).to_dict() for seq in range(5)
        ],
    }
    session = ClientSession.from_state(json.loads(json.dumps(state)))
    assert [d["seq"] for d in session.state_dict()["window"]] == [3, 4]
    session.deliver(5, "telemetry", {"n": 5})
    assert [d.seq for d in session.reconnect()] == [3, 4, 5]
    assert session.delivered_through == 5 and session.pending == 0
