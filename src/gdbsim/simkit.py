"""Deterministic broadcast-channel simulator.

Every transmission is an Emission on a shared true clock; it reaches
every other node after exactly distance / c seconds.  There is no loss,
no interference, and no queueing, so a run is a pure function of the
scenario and its seed.  Each node also carries a fixed local clock
offset; nodes only ever reason about local readings, and any quantity a
node derives must come out identical whatever the offsets are.

Arrival ordering ties are broken by (t_arrive, seq, receiver id), which
keeps exported traces byte-identical across platforms for a given
scenario and seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import GdbSimError, NodeId, Scenario, distance

PHASES = ("pre", "rapid", "post", "report")


class CausalityViolation(GdbSimError):
    """A node tried to transmit before the event that triggers the send."""


@dataclass
class Emission:
    seq: int
    sender: NodeId
    t_send: float            # true clock, seconds
    kind: str                # challenge | response | commit | open | report | relay | beacon
    phase: str               # one of PHASES
    payload: bytes = b""
    round_index: Optional[int] = None

    def payload_digest(self) -> str:
        return hashlib.sha256(self.payload).hexdigest()


@dataclass(frozen=True)
class ArrivalRecord:
    seq: int
    receiver: NodeId
    t_arrive: float          # true clock, seconds


@dataclass
class LocalClock:
    """A node's private clock: local reading = true time + offset."""

    owner: NodeId
    offset: float

    def read(self, t_true: float) -> float:
        return t_true + self.offset


@dataclass
class Trace:
    """Everything that happened on the channel during one run."""

    node_ids: Tuple[NodeId, ...]
    offsets: Dict[NodeId, float]
    emissions: List[Emission] = field(default_factory=list)
    arrival_rows: List[np.ndarray] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._index = {nid: i for i, nid in enumerate(self.node_ids)}

    def arrival_true(self, seq: int, receiver: NodeId) -> float:
        t = float(self.arrival_rows[seq][self._index[receiver]])
        if t != t:
            raise KeyError(f"node {receiver} sent message {seq}, it does not receive it")
        return t

    def arrival_local(self, seq: int, receiver: NodeId) -> float:
        return self.arrival_true(seq, receiver) + self.offsets[receiver]

    def send_local(self, seq: int) -> float:
        em = self.emissions[seq]
        return em.t_send + self.offsets[em.sender]

    def arrivals(self) -> Iterator[ArrivalRecord]:
        """All arrivals in delivery order: (t_arrive, seq, receiver)."""
        recs = []
        for em in self.emissions:
            row = self.arrival_rows[em.seq]
            for nid, idx in self._index.items():
                t = row[idx]
                if not np.isnan(t):
                    recs.append(ArrivalRecord(em.seq, nid, float(t)))
        recs.sort(key=lambda r: (r.t_arrive, r.seq, r.receiver))
        return iter(recs)

    def count(self, phase: Optional[str] = None, kind: Optional[str] = None) -> int:
        return sum(
            1
            for em in self.emissions
            if (phase is None or em.phase == phase) and (kind is None or em.kind == kind)
        )

    def records(self) -> Iterator[dict]:
        """Unified emission and arrival records in deterministic order."""
        rows: List[Tuple[float, int, int, int, dict]] = []
        for em in self.emissions:
            rows.append((
                em.t_send, em.seq, 0, -1,
                {
                    "kind": em.kind,
                    "seq": em.seq,
                    "sender": em.sender,
                    "receiver": None,
                    "t_send": em.t_send,
                    "t_arrive": None,
                    "payload_digest": em.payload_digest(),
                },
            ))
        for rec in self.arrivals():
            em = self.emissions[rec.seq]
            rows.append((
                rec.t_arrive, rec.seq, 1, rec.receiver,
                {
                    "kind": "arrival",
                    "seq": rec.seq,
                    "sender": em.sender,
                    "receiver": rec.receiver,
                    "t_send": em.t_send,
                    "t_arrive": rec.t_arrive,
                    "payload_digest": em.payload_digest(),
                },
            ))
        rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
        return (r[4] for r in rows)

    def to_jsonl(self) -> str:
        lines = [json.dumps({
            "kind": "meta",
            "node_ids": list(self.node_ids),
            "offsets": {str(k): v for k, v in sorted(self.offsets.items())},
        }, sort_keys=True)]
        lines.extend(json.dumps(rec, sort_keys=True) for rec in self.records())
        return "\n".join(lines) + "\n"


class BroadcastChannel:
    """Single shared medium connecting every node in a scenario."""

    def __init__(
        self,
        positions: Dict[NodeId, Tuple[float, float]],
        c: float,
        offsets: Optional[Dict[NodeId, float]] = None,
    ) -> None:
        self.node_ids: Tuple[NodeId, ...] = tuple(sorted(positions))
        self._index = {nid: i for i, nid in enumerate(self.node_ids)}
        self.c = c
        self._tof = np.array([
            [distance(positions[a], positions[b]) / c if a != b else 0.0 for b in self.node_ids]
            for a in self.node_ids
        ])
        self.offsets = dict(offsets) if offsets else {nid: 0.0 for nid in self.node_ids}
        self.trace = Trace(node_ids=self.node_ids, offsets=dict(self.offsets))
        self._last_send: Dict[NodeId, float] = {}

    def tof(self, a: NodeId, b: NodeId) -> float:
        return float(self._tof[self._index[a], self._index[b]])

    def dist(self, a: NodeId, b: NodeId) -> float:
        return self.tof(a, b) * self.c

    def flights(self, sender: NodeId, receivers: Sequence[NodeId]) -> np.ndarray:
        """Flight times from sender to each receiver, as broadcast adds them to t_send."""
        idx = self._index
        return self._tof[idx[sender]][[idx[r] for r in receivers]]

    def reach(self, node: Optional[NodeId] = None) -> float:
        """Longest flight time from node, or between any two nodes."""
        tof = self._tof if node is None else self._tof[self._index[node]]
        return float(tof.max())

    def clock(self, node: NodeId) -> LocalClock:
        return LocalClock(owner=node, offset=self.offsets[node])

    def broadcast(
        self,
        sender: NodeId,
        t_send: float,
        kind: str,
        phase: str,
        payload: bytes = b"",
        round_index: Optional[int] = None,
        after: Optional[int] = None,
        allow_early: bool = False,
    ) -> Emission:
        """Emit a message; it arrives everywhere after the flight time.

        after names the message this send reacts to; the send must not
        precede that message's arrival at the sender.  Policies that
        deliberately jump the gun pass allow_early.
        """
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        prev = self._last_send.get(sender)
        if not allow_early:
            if after is not None:
                t_trigger = self.trace.arrival_true(after, sender)
                if t_send < t_trigger - 1e-15:
                    raise CausalityViolation(
                        f"node {sender} sends at {t_send} before message "
                        f"{after} arrives at {t_trigger}"
                    )
            if prev is not None and t_send < prev - 1e-15:
                raise CausalityViolation(
                    f"node {sender} send at {t_send} precedes its own last send at {prev}"
                )
        self._last_send[sender] = prev if prev is not None and prev > t_send else t_send
        seq = len(self.trace.emissions)
        em = Emission(
            seq=seq, sender=sender, t_send=t_send, kind=kind, phase=phase,
            payload=payload, round_index=round_index,
        )
        i = self._index[sender]
        row = t_send + self._tof[i]
        row[i] = np.nan
        self.trace.emissions.append(em)
        self.trace.arrival_rows.append(row)
        return em

    def arrival_true(self, seq: int, receiver: NodeId) -> float:
        return self.trace.arrival_true(seq, receiver)

    def arrival_local(self, seq: int, receiver: NodeId) -> float:
        return self.trace.arrival_local(seq, receiver)


def channel_for_scenario(scenario: Scenario, offsets: Optional[Dict[NodeId, float]] = None) -> BroadcastChannel:
    return BroadcastChannel(scenario.positions(), scenario.config.c, offsets)


def run(scenario: Scenario, zero_offsets: bool = False):
    """Validate and execute a scenario; returns the protocol RunResult.

    The result's .trace is the full channel history.  Identical scenario
    and seed give a byte-identical trace export.
    """
    from .proto.runner import run_scenario

    return run_scenario(scenario, zero_offsets=zero_offsets)
