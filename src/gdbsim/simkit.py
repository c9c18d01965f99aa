"""Deterministic broadcast-channel simulator.

Every transmission is an emission on a shared true clock; it reaches
every other node after exactly distance / c seconds.  There is no loss,
no interference, and no queueing, so a run is a pure function of the
scenario and its seed.  Each node also carries a fixed local clock
offset; nodes only ever reason about local readings, and any quantity a
node derives must come out identical whatever the offsets are.

The trace stores emissions only, as columns: one list each for sender,
t_send, kind, phase, payload and round_index, an emission's seq being
its position.  Trace.append writes one row and returns its seq, and
Trace.extend writes a block of rows, so no object is built per send;
Trace.emissions reads the columns as Emission rows, built only when
iterated or indexed.  Arrivals are derived, never stored: message seq
reaches receiver r at t_send + tof[sender][r], a float add on the
trace's flight-time rows, the run's one copy, so no numpy scalar is on
the send path; the block pricers read Trace.tof_array, the same doubles
as a float64 array derived from the rows on first use.

No send may precede its node's last send, nor a reply its trigger's
arrival, by more than SEND_SLACK_S: broadcast raises CausalityViolation
on the first, and a timed rapid send, proto.base.RunContext.emit,
holds it to the first and raises on the second unless it is sent early.

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
import re
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from functools import partial
from itertools import count
from json.encoder import encode_basestring_ascii as _json_str
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import GdbSimError, NodeId

PHASES = ("pre", "rapid", "post", "report")

# float noise by which a send may precede its trigger or its node's last send
SEND_SLACK_S = 1e-15


class CausalityViolation(GdbSimError):
    """A node tried to transmit before the event that triggers the send."""


class TraceFormatError(GdbSimError):
    """A trace text that Trace.from_jsonl cannot read back."""


class Emission(NamedTuple):
    """One transmission: a row of the trace's columns."""

    seq: int
    sender: NodeId
    t_send: float            # true clock, seconds
    kind: str                # challenge | response | closing | relay | commit | open | report
    phase: str               # one of PHASES
    payload: bytes = b""
    round_index: Optional[int] = None


_emission = partial(tuple.__new__, Emission)

# the trace format to_jsonl writes and from_jsonl reads
TRACE_FORMAT = 2


class Emissions(SequenceABC):
    """A trace's columns read as Emission rows, each built on access."""

    def __init__(self, trace: "Trace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.sender)

    def __getitem__(self, i):
        columns = self._trace.columns()
        seq = range(len(columns[0]))[i]  # a negative i or a slice selects as in a list
        if isinstance(i, slice):  # a list of the rows, as a list's slice is
            return list(map(_emission, zip(seq, *(column[i] for column in columns))))
        return _emission((seq, *(column[seq] for column in columns)))

    def __iter__(self) -> Iterator[Emission]:
        return map(_emission, zip(count(), *self._trace.columns()))

    def __eq__(self, other) -> bool:
        if isinstance(other, (Emissions, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Emissions({list(self)!r})"


@dataclass
class Trace:
    """Everything that happened on the channel during one run.

    Only emissions are stored, one list per Emission field after seq;
    an arrival is derived on demand as t_send + tof[sender][receiver].
    tof, the run's one copy of the flight times, holds rows of Python
    floats, fixed once built, and index maps a node id to its row.  Two
    traces compare equal by their fields, so two runs compare as values.
    """

    node_ids: Tuple[NodeId, ...]
    offsets: Dict[NodeId, float]
    tof: List[List[float]] = field(repr=False)  # flight seconds
    sender: List[NodeId] = field(default_factory=list)
    t_send: List[float] = field(default_factory=list)
    kind: List[str] = field(default_factory=list)
    phase: List[str] = field(default_factory=list)
    payload: List[bytes] = field(default_factory=list)
    round_index: List[Optional[int]] = field(default_factory=list)
    _tof_array: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                             compare=False)

    def __post_init__(self) -> None:
        self.index = {nid: i for i, nid in enumerate(self.node_ids)}

    @property
    def emissions(self) -> Emissions:
        return Emissions(self)

    @property
    def tof_array(self) -> np.ndarray:
        """tof as a float64 array for the block pricers, built on first use; nothing writes it.

        A plain memo: functools.cached_property takes a lock on each first access.
        """
        if self._tof_array is None:
            self._tof_array = np.array(self.tof, dtype=float)
        return self._tof_array

    def columns(self) -> Tuple[List, ...]:
        return (self.sender, self.t_send, self.kind, self.phase, self.payload, self.round_index)

    def append(self, sender: NodeId, t_send: float, kind: str, phase: str, payload: bytes,
               round_index: Optional[int]) -> int:
        """Write one emission row and return its seq."""
        seq = len(self.sender)
        self.sender.append(sender)
        self.t_send.append(t_send)
        self.kind.append(kind)
        self.phase.append(phase)
        self.payload.append(payload)
        self.round_index.append(round_index)
        return seq

    def extend(self, *columns: Sequence) -> None:
        """Write a block of rows, given as one sequence per column in columns() order."""
        for column, values in zip(self.columns(), columns):
            column.extend(values)

    def arrival_true(self, seq: int, receiver: NodeId) -> float:
        sender = self.sender[seq]
        if receiver == sender:
            raise KeyError(f"node {receiver} sent message {seq}, it does not receive it")
        index = self.index
        return self.t_send[seq] + self.tof[index[sender]][index[receiver]]

    def local_arrivals(self, seqs, receivers: Sequence[NodeId]) -> np.ndarray:
        """Every message in seqs' arrival at every receiver, on the receiver's clock.

        The shape is seqs' shape plus one axis over receivers.  Each entry
        is (t_send + tof) + offset, arrival_true plus the receiver's
        offset, bit for bit; a message's own sender reads NaN.
        """
        seqs = np.asarray(seqs)
        flat = seqs.ravel().tolist()
        index, senders, t_sends = self.index, self.sender, self.t_send
        cols = np.array([index[r] for r in receivers], dtype=np.intp)
        sender = np.array([index[senders[s]] for s in flat], dtype=np.intp)
        t_send = np.array([t_sends[s] for s in flat], dtype=float)
        offsets = np.array([self.offsets[r] for r in receivers], dtype=float)
        out = (t_send[:, None] + self.tof_array[sender][:, cols]) + offsets
        out[sender[:, None] == cols] = np.nan
        return out.reshape(seqs.shape + (len(cols),))

    def count(self, phase: Optional[str] = None, kind: Optional[str] = None) -> int:
        if kind is None:
            return len(self.phase) if phase is None else self.phase.count(phase)
        if phase is None:
            return self.kind.count(kind)
        return sum(p == phase and k == kind for p, k in zip(self.phase, self.kind))

    def to_jsonl(self) -> str:
        """The trace as format-2 JSON lines (see the module docstring).

        Each line equals json.dumps(record, sort_keys=True).
        """
        meta = json.dumps({
            "kind": "meta",
            "node_ids": list(self.node_ids),
            "offsets": {str(k): v for k, v in sorted(self.offsets.items())},
            "tof": self.tof,
            "trace_format": TRACE_FORMAT,
        }, sort_keys=True)
        lines = [meta]
        for seq, (sender, t_send, kind, phase, payload, r) in enumerate(zip(*self.columns())):
            r = "null" if r is None else r
            lines.append(f'{{"kind": {_json_str(kind)}, "payload": "{payload.hex()}", '
                         f'"phase": {_json_str(phase)}, "round_index": {r}, '
                         f'"sender": {sender}, "seq": {seq}, "t_send": {t_send!r}}}')
        lines.append("")
        return "\n".join(lines)

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """The Trace that to_jsonl wrote; raises TraceFormatError naming the bad line and field."""
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
        trace = cls(*_meta_fields(meta))
        columns = trace.columns()
        for i in range(1, len(lines)):
            number = i + 1
            rec = _record(lines[i], number)
            try:
                seq, *row = (rec[key] for key in ("seq", *_EMISSION_FIELDS))
            except KeyError as exc:
                raise TraceFormatError(f"line {number}: bad emission record: no {exc}") from None
            if not _is_int(seq) or seq != i - 1:
                raise TraceFormatError(f"line {number}: seq {seq!r} where {i - 1} was due")
            for key, value, (ok, what) in zip(_EMISSION_FIELDS, row, _EMISSION_FIELDS.values()):
                if not ok(value):
                    raise TraceFormatError(f"line {number}: {key} {value!r} is not {what}")
            sender, t_send, kind, phase, payload, r = row
            if sender not in trace.index:
                raise TraceFormatError(f"line {number}: sender {sender!r} is not in node_ids")
            for column, value in zip(columns, (sender, t_send, kind, phase,
                                               bytes.fromhex(payload), r)):
                column.append(value)
        return trace


def _is_int(value) -> bool:
    return type(value) is int  # JSON's true and false read as bools, which are not ids


def _is_finite(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


_HEX = re.compile("(?:[0-9a-f]{2})*")

# what from_jsonl requires of each emission field after seq, in column order
_EMISSION_FIELDS = {
    "sender": (_is_int, "an integer"),
    "t_send": (_is_finite, "a finite number"),
    "kind": (lambda v: type(v) is str, "a string"),
    "phase": (lambda v: type(v) is str and v in PHASES, f"one of {', '.join(PHASES)}"),
    "payload": (lambda v: type(v) is str and _HEX.fullmatch(v) is not None, "lowercase hex"),
    "round_index": (lambda v: v is None or _is_int(v), "an integer or null"),
}


def _meta_fields(meta: dict) -> Tuple[Tuple[NodeId, ...], Dict[NodeId, float], List[List[float]]]:
    """node_ids, offsets and tof (floats) of a format-2 meta record, every entry checked."""
    try:
        node_ids, offsets, tof = meta["node_ids"], meta["offsets"], meta["tof"]
        seen = set()
        for nid in node_ids:
            if not _is_int(nid):
                raise TraceFormatError(f"line 1: node id {nid!r} in node_ids is not an integer")
            if nid in seen:
                raise TraceFormatError(f"line 1: node id {nid} appears twice in node_ids")
            seen.add(nid)
        bad = [(key, offset) for key, offset in offsets.items() if not _is_finite(offset)]
    except (KeyError, AttributeError, TypeError) as exc:
        raise TraceFormatError(f"line 1: bad meta record: {exc!r}") from None
    if bad:
        raise TraceFormatError(f"line 1: offset {bad[0][1]!r} of node {bad[0][0]} "
                               "is not a finite number")
    # each key is its id's decimal text, as to_jsonl writes it: "01" or " 1" would fold into 1
    if offsets.keys() != set(map(str, seen)):
        raise TraceFormatError("line 1: offsets do not name exactly the nodes in node_ids")
    read_offsets = {int(key): offset for key, offset in offsets.items()}
    n = len(node_ids)
    if type(tof) is not list or len(tof) != n or any(
            type(row) is not list or len(row) != n for row in tof):
        raise TraceFormatError(
            f"line 1: tof is not {n} x {n}, one row and column per node in node_ids")
    bad = [flight for row in tof for flight in row if not _is_finite(flight)]
    if bad:
        raise TraceFormatError(f"line 1: tof entry {bad[0]!r} is not a finite number")
    return tuple(node_ids), read_offsets, [list(map(float, row)) for row in tof]


def _record(line: str, number: int) -> dict:
    """One line of a JSON-lines text, which must hold a JSON object."""
    try:
        rec = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise TraceFormatError(f"line {number}: not JSON: {exc}") from None
    if not isinstance(rec, dict):
        raise TraceFormatError(f"line {number}: not a JSON object")
    return rec


class BroadcastChannel:
    """Single shared medium connecting every node in a scenario.

    It builds the flight-time rows and hands them, with the node ids and
    clock offsets, to its trace, the one copy; they are fixed from then
    on, as reach's memo and Trace.tof_array assume.  last_send holds each
    node's latest send time, which no later send of that node may precede.
    """

    def __init__(
        self,
        positions: Dict[NodeId, Tuple[float, float]],
        c: float,
        offsets: Optional[Dict[NodeId, float]] = None,
    ) -> None:
        node_ids = tuple(sorted(positions))
        xs = [positions[a][0] for a in node_ids]
        ys = [positions[a][1] for a in node_ids]
        hypot, n = math.hypot, len(node_ids)
        tof = [[0.0] * n for _ in node_ids]
        for i, (x, y, row) in enumerate(zip(xs, ys, tof)):
            for j in range(i + 1, n):
                # core.distance's hypot, once per unordered pair: hypot(-dx, -dy) is hypot(dx, dy)
                row[j] = tof[j][i] = hypot(x - xs[j], y - ys[j]) / c
        offsets = dict(offsets) if offsets else dict.fromkeys(node_ids, 0.0)
        self.trace = Trace(node_ids, offsets, tof)
        self._reach: Dict[Optional[NodeId], float] = {}
        self.last_send: Dict[NodeId, float] = {}
        self.arrival_true = self.trace.arrival_true  # one call, no hop through the channel

    def tof(self, a: NodeId, b: NodeId) -> float:
        return self.trace.tof[self.trace.index[a]][self.trace.index[b]]

    def reach(self, node: Optional[NodeId] = None) -> float:
        """Longest flight time from node, or between any two nodes; memoised per node."""
        longest = self._reach.get(node)
        if longest is None:
            rows = self.trace.tof
            longest = self._reach[node] = (
                max(map(max, rows)) if node is None else max(rows[self.trace.index[node]]))
        return longest

    def broadcast(self, sender: NodeId, t_send: float, kind: str, phase: str,
                  payload: bytes = b"") -> int:
        """Emit a message and return its seq; it arrives everywhere after the flight time.

        The send must not precede sender's last send, and its row's
        round_index is None: no rapid send is written here.
        """
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        prev = self.last_send.get(sender)
        if prev is not None and t_send < prev - SEND_SLACK_S:
            raise CausalityViolation(
                f"node {sender} send at {t_send} precedes its own last send at {prev}")
        self.last_send[sender] = prev if prev is not None and prev > t_send else t_send
        return self.trace.append(sender, t_send, kind, phase, payload, None)
