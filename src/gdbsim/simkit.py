"""Deterministic broadcast-channel simulator.

Every transmission is an Emission on a shared true clock; it reaches
every other node after exactly distance / c seconds.  There is no loss,
no interference, and no queueing, so a run is a pure function of the
scenario and its seed.  Each node also carries a fixed local clock
offset; nodes only ever reason about local readings, and any quantity a
node derives must come out identical whatever the offsets are.

The trace stores emissions only.  Arrivals are derived, never stored:
message seq reaches receiver r at t_send + tof[sender, r], one float64
add on the channel's flight-time matrix.  The export orders emissions
and arrivals by (time, seq, receiver id), an emission ahead of its own
arrivals, which keeps traces byte-identical across platforms for a
given scenario and seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import GdbSimError, NodeId, distance

PHASES = ("pre", "rapid", "post", "report")

# float noise by which a send may precede its trigger or its node's last send
SEND_SLACK_S = 1e-15


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


# Export lines per yielded chunk: a writer holds one chunk's line list and
# text at once, never the whole export.
EXPORT_CHUNK_LINES = 1 << 13


@dataclass
class Trace:
    """Everything that happened on the channel during one run.

    Only emissions are stored; an arrival is derived on demand as
    t_send + tof[sender, receiver] from the channel's flight-time matrix.
    """

    node_ids: Tuple[NodeId, ...]
    offsets: Dict[NodeId, float]
    tof: np.ndarray          # flight seconds, indexed like node_ids
    emissions: List[Emission] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._index = {nid: i for i, nid in enumerate(self.node_ids)}

    def arrival_true(self, seq: int, receiver: NodeId) -> float:
        em = self.emissions[seq]
        if receiver == em.sender:
            raise KeyError(f"node {receiver} sent message {seq}, it does not receive it")
        return em.t_send + self.tof.item(self._index[em.sender], self._index[receiver])

    def arrival_local(self, seq: int, receiver: NodeId) -> float:
        return self.arrival_true(seq, receiver) + self.offsets[receiver]

    def local_arrivals(self, seqs, receivers: Sequence[NodeId]) -> np.ndarray:
        """arrival_local of every message in seqs at every receiver, as one array.

        The shape is seqs' shape plus one axis over receivers.  Each entry
        is (t_send + tof) + offset, the adds arrival_local makes, so it is
        bit for bit the same; a message's own sender reads NaN.
        """
        seqs = np.asarray(seqs)
        ems = [self.emissions[s] for s in seqs.ravel().tolist()]
        cols = np.array([self._index[r] for r in receivers], dtype=np.intp)
        sender = np.array([self._index[em.sender] for em in ems], dtype=np.intp)
        t_send = np.array([em.t_send for em in ems], dtype=float)
        offsets = np.array([self.offsets[r] for r in receivers], dtype=float)
        out = (t_send[:, None] + self.tof[sender][:, cols]) + offsets
        out[sender[:, None] == cols] = np.nan
        return out.reshape(seqs.shape + (len(cols),))

    def count(self, phase: Optional[str] = None, kind: Optional[str] = None) -> int:
        return sum(
            1
            for em in self.emissions
            if (phase is None or em.phase == phase) and (kind is None or em.kind == kind)
        )

    def jsonl_chunks(self) -> Iterator[str]:
        """A meta line, then every emission and arrival as one JSON object per line.

        Lines are ordered by (time, seq, receiver), an emission ahead of
        its own arrivals.  Keys are written in sorted order and floats as
        repr, so each line equals json.dumps(record, sort_keys=True).
        Yields newline-terminated text, EXPORT_CHUNK_LINES lines at a
        time, so a caller writing to a file holds one chunk at once.
        """
        yield json.dumps({
            "kind": "meta",
            "node_ids": list(self.node_ids),
            "offsets": {str(k): v for k, v in sorted(self.offsets.items())},
        }, sort_keys=True) + "\n"
        ems = self.emissions
        sender = np.array([self._index[em.sender] for em in ems], dtype=np.intp)
        t_send = np.array([em.t_send for em in ems], dtype=float)
        ids = np.array(self.node_ids)
        # one column per receiver, then the emission itself under a receiver
        # key below every node id
        own = min(self.node_ids, default=0) - 1
        times = np.column_stack((t_send[:, None] + self.tof[sender], t_send))
        receivers = np.append(ids, own)
        seqs, cols = np.nonzero(receivers != ids[sender][:, None])
        times, receivers = times[seqs, cols], receivers[cols]
        order = np.lexsort((receivers, seqs, times))
        # the text an emission shares with its arrivals, formatted once: an
        # arrival line is head + receiver + mid + t_arrive + tail
        head, mid, tail, own_line = [], [], [], []
        for s, em in enumerate(ems):
            digest = hashlib.sha256(em.payload).hexdigest()
            rest = f'"sender": {em.sender}, "seq": {s}, '
            sent = f'"t_send": {em.t_send!r}}}'
            head.append(f'{{"kind": "arrival", "payload_digest": "{digest}", "receiver": ')
            mid.append(f', {rest}"t_arrive": ')
            tail.append(f', {sent}')
            own_line.append(f'{{"kind": "{em.kind}", "payload_digest": "{digest}", '
                            f'"receiver": null, {rest}"t_arrive": null, {sent}')
        for lo in range(0, len(order), EXPORT_CHUNK_LINES):
            part = order[lo:lo + EXPORT_CHUNK_LINES]
            lines = [
                own_line[s] if r == own else f"{head[s]}{r}{mid[s]}{t!r}{tail[s]}"
                for s, r, t in zip(seqs[part].tolist(), receivers[part].tolist(),
                                   times[part].tolist())
            ]
            lines.append("")
            yield "\n".join(lines)

    def to_jsonl(self) -> str:
        """The whole export as one string: the join of jsonl_chunks()."""
        return "".join(self.jsonl_chunks())


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
        self.trace = Trace(node_ids=self.node_ids, offsets=dict(self.offsets), tof=self._tof)
        self._emissions = self.trace.emissions
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

    def in_order(self, node: NodeId, t: float) -> float:
        """t, or node's latest send when t would precede it: a node sends in order."""
        prev = self._last_send.get(node)
        return prev if prev is not None and t < prev - SEND_SLACK_S else t

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
        last_send = self._last_send
        prev = last_send.get(sender)
        if not allow_early:
            if after is not None:
                t_trigger = self.trace.arrival_true(after, sender)
                if t_send < t_trigger - SEND_SLACK_S:
                    raise CausalityViolation(
                        f"node {sender} sends at {t_send} before message "
                        f"{after} arrives at {t_trigger}"
                    )
            if prev is not None and t_send < prev - SEND_SLACK_S:
                raise CausalityViolation(
                    f"node {sender} send at {t_send} precedes its own last send at {prev}"
                )
        last_send[sender] = prev if prev is not None and prev > t_send else t_send
        emissions = self._emissions
        em = Emission(len(emissions), sender, t_send, kind, phase, payload, round_index)
        emissions.append(em)
        return em

    def arrival_true(self, seq: int, receiver: NodeId) -> float:
        return self.trace.arrival_true(seq, receiver)

    def arrival_local(self, seq: int, receiver: NodeId) -> float:
        return self.trace.arrival_local(seq, receiver)

