"""Deterministic broadcast-channel simulator.

Every transmission is an Emission on a shared true clock; it reaches
every other node after exactly distance / c seconds.  There is no loss,
no interference, and no queueing, so a run is a pure function of the
scenario and its seed.  Each node also carries a fixed local clock
offset; nodes only ever reason about local readings, and any quantity a
node derives must come out identical whatever the offsets are.

The trace stores emissions only.  Arrivals are derived, never stored:
message seq reaches receiver r at t_send + tof[sender, r], one float64
add on the channel's flight-time matrix.  The channel also keeps that
matrix as rows of Python floats, the same doubles, and every per-send
read (tof, and broadcast's check that a reply does not precede its
trigger's arrival) makes the add from those, with no numpy scalar on
the send path; an Emission is a slotted record.

The export, trace format 2, is JSON lines: a meta line {"kind":
"meta", "node_ids", "offsets", "tof", "trace_format": 2}, then one
line per emission in seq order, {"kind", "payload" (hex), "phase",
"round_index", "sender", "seq", "t_send"}.  Keys are sorted and floats written as repr, so the text is
byte-identical across platforms for a given scenario and seed, and
Trace.from_jsonl rebuilds the same trace bit for bit; a reader derives
each arrival itself as t_send + tof[sender][r].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import GdbSimError, NodeId

PHASES = ("pre", "rapid", "post", "report")

# float noise by which a send may precede its trigger or its node's last send
SEND_SLACK_S = 1e-15


class CausalityViolation(GdbSimError):
    """A node tried to transmit before the event that triggers the send."""


class TraceFormatError(GdbSimError):
    """A trace text that Trace.from_jsonl cannot read back."""


@dataclass(slots=True)
class Emission:
    seq: int
    sender: NodeId
    t_send: float            # true clock, seconds
    kind: str                # challenge | response | closing | relay | commit | open | report
    phase: str               # one of PHASES
    payload: bytes = b""
    round_index: Optional[int] = None


# the trace format to_jsonl writes and from_jsonl reads
TRACE_FORMAT = 2


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

    def to_jsonl(self) -> str:
        """The trace as format-2 JSON lines (see the module docstring).

        Each line equals json.dumps(record, sort_keys=True).
        """
        meta = json.dumps({
            "kind": "meta",
            "node_ids": list(self.node_ids),
            "offsets": {str(k): v for k, v in sorted(self.offsets.items())},
            "tof": self.tof.tolist(),
            "trace_format": TRACE_FORMAT,
        }, sort_keys=True)
        lines = [meta]
        for em in self.emissions:
            r = "null" if em.round_index is None else em.round_index
            lines.append(f'{{"kind": {_json_str(em.kind)}, "payload": "{em.payload.hex()}", '
                         f'"phase": {_json_str(em.phase)}, "round_index": {r}, '
                         f'"sender": {em.sender}, "seq": {em.seq}, "t_send": {em.t_send!r}}}')
        lines.append("")
        return "\n".join(lines)

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """The Trace that to_jsonl wrote; raises TraceFormatError naming the bad line."""
        lines = text.splitlines() or [""]
        meta = _record(lines[0], 1)
        if meta.get("kind") != "meta":
            raise TraceFormatError("line 1: the first line is not a meta record")
        fmt = meta.get("trace_format")
        if fmt is None:
            raise TraceFormatError(
                "line 1: no trace_format, so this is a format-1 trace; it holds neither "
                "bit-exact flight times nor payloads and cannot be read back")
        if fmt != TRACE_FORMAT:
            raise TraceFormatError(
                f"line 1: unknown trace_format {fmt!r}; this reader reads {TRACE_FORMAT}")
        try:
            node_ids = tuple(meta["node_ids"])
            offsets = {int(k): v for k, v in meta["offsets"].items()}
            n = len(node_ids)
            shape_ok = len(meta["tof"]) == n and all(len(row) == n for row in meta["tof"])
            tof = np.array(meta["tof"], dtype=float).reshape(n, n) if shape_ok else None
        except (KeyError, AttributeError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"line 1: bad meta record: {exc!r}") from None
        if tof is None:
            raise TraceFormatError(
                f"line 1: tof is not {n} x {n}, one row and column per node in node_ids")
        trace = cls(node_ids, offsets, tof)
        for i in range(1, len(lines)):
            rec = _record(lines[i], i + 1)
            try:
                em = Emission(rec["seq"], rec["sender"], rec["t_send"], rec["kind"],
                              rec["phase"], bytes.fromhex(rec["payload"]), rec["round_index"])
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceFormatError(f"line {i + 1}: bad emission record: {exc!r}") from None
            if em.seq != i - 1:
                raise TraceFormatError(f"line {i + 1}: seq {em.seq!r} where {i - 1} was due")
            if em.sender not in trace._index:
                raise TraceFormatError(f"line {i + 1}: sender {em.sender!r} is not in node_ids")
            trace.emissions.append(em)
        return trace


def _record(line: str, number: int) -> dict:
    """One line of a JSON-lines text, which must hold a JSON object."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"line {number}: not JSON: {exc}") from None
    if not isinstance(rec, dict):
        raise TraceFormatError(f"line {number}: not a JSON object")
    return rec


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
        pts = [positions[a] for a in self.node_ids]
        tof = [[0.0] * len(pts) for _ in pts]
        for i, (a, row) in enumerate(zip(pts, tof)):
            for j in range(i + 1, len(pts)):
                b = pts[j]
                # core.distance's hypot, once per unordered pair: hypot(-dx, -dy) is hypot(dx, dy)
                row[j] = tof[j][i] = math.hypot(a[0] - b[0], a[1] - b[1]) / c
        self._tof = np.array(tof)
        self._tof_rows = tof
        self.offsets = dict(offsets) if offsets else {nid: 0.0 for nid in self.node_ids}
        self.trace = Trace(node_ids=self.node_ids, offsets=dict(self.offsets), tof=self._tof)
        self._emissions = self.trace.emissions
        self._last_send: Dict[NodeId, float] = {}

    def tof(self, a: NodeId, b: NodeId) -> float:
        return self._tof_rows[self._index[a]][self._index[b]]

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
                # Trace.arrival_true(after, sender), read off the flight-time lists
                trig = self._emissions[after]
                if trig.sender == sender:
                    raise KeyError(f"node {sender} sent message {after}, it does not receive it")
                index = self._index
                t_trigger = trig.t_send + self._tof_rows[index[trig.sender]][index[sender]]
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

