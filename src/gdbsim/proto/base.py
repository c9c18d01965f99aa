"""Shared protocol types, the per-run bootstrap and the protocol skeleton.

Every driver follows the Brands-Chaum shape: commit_phase draws and
commits each party's rapid nonces into the run's nonce ledger, every
timed message's send time comes from one per-send step,
RunContext.sender (or is its nominal time, where RunContext.unstepped
shows no step would move it, and RunContext.sent records it as the
steps would), every rapid value is a RunContext.answer (an operand
XOR its sender's next committed nonce), and open_phase decommits
(signing when auth is on) and replays every answer against the opened
nonces.  A driver names each timed round by its two seqs in
RunContext.timed, and active_bounds reads the measurer's stamps for
them off the trace's columns and flight-time rows and prices them; the
group driver prices a verifier's row from its own stamps instead
(pairwise.active_row_bounds), with the same float operations.
A run hands back its bounds as one columnar Estimates table, written as
rows or, for the ring, as one block of columns.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import repeat
from operator import indexOf
from typing import Callable, Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..core import (
    EPS_TIME,
    GdbSimError,
    LengthMismatch,
    NodeId,
    Scenario,
    ensure_valid,
)
from ..crypto import (
    Commitment,
    KeyRegistry,
    Opening,
    OpeningMismatch,
    UnknownKey,
    commit,
    open_commitment,
)
from ..estimate import NegativeTimeOfFlight, TofSolution, TofSystem, edge_times
from ..simkit import SEND_SLACK_S, BroadcastChannel, CausalityViolation, Trace
from ..threat import TIMING_POLICIES, AdversaryPolicy, DetectionReport, apply_policy


class ResponseMismatch(GdbSimError):
    """A rapid-phase answer does not match its challenge XOR committed nonce."""

    def __init__(self, round_index: int, node: NodeId, nonce_index: int) -> None:
        self.round_index, self.node, self.nonce_index = round_index, node, nonce_index
        super().__init__(f"node {node}'s answer on nonce {nonce_index} in round "
                         f"{round_index} is not its challenge XOR that nonce")

    def __reduce__(self):
        # rebuilt from the fields, so it crosses a process pool intact
        return type(self), (self.round_index, self.node, self.nonce_index)


class CommitMismatch(GdbSimError):
    """A decommitment does not open the earlier commitment."""


class AuthFailure(GdbSimError):
    """A required transcript signature is missing or does not verify."""


class NoActiveVerifier(GdbSimError):
    """The active-verifier fraction selects nobody."""


def response_bits(challenge: int, responder_nonce: int, bit_len: int) -> int:
    """Rapid-phase reply value: challenge XOR nonce over bit_len bits."""
    top = 1 << bit_len
    if not (0 <= challenge < top and 0 <= responder_nonce < top):
        raise LengthMismatch(
            f"values {challenge}, {responder_nonce} do not fit {bit_len} bits"
        )
    return challenge ^ responder_nonce


METHOD_ACTIVE = "active"
METHOD_PASSIVE = "passive"
METHOD_MULTIPARTY = "multiparty"


class DbEstimate(NamedTuple):
    """One directional distance bound produced by a run: a row of Estimates.

    verified_auth (auth_ok in bounds.csv) is true iff auth is on and
    every signature the run required from either endpoint verified.
    surplus marks bounds a composite protocol produced although nobody
    asked for them (intra-group pairs in a joint-group run).
    """

    measurer: NodeId
    target: NodeId
    bound_m: float
    method: str
    rounds_used: int
    verified_auth: bool
    surplus: bool = False


_row = partial(tuple.__new__, DbEstimate)


@dataclass
class Estimates:
    """Every directional bound a run produced, one list per DbEstimate field.

    A driver writes its rows through from_rows, or a whole block of
    columns at once, as the ring writes its bound matrix.  Iterating
    yields DbEstimate rows in the order they were written.
    """

    measurer: List[NodeId] = field(default_factory=list)
    target: List[NodeId] = field(default_factory=list)
    bound_m: List[float] = field(default_factory=list)
    method: List[str] = field(default_factory=list)
    rounds_used: List[int] = field(default_factory=list)
    verified_auth: List[bool] = field(default_factory=list)
    surplus: List[bool] = field(default_factory=list)

    @classmethod
    def from_rows(cls, rows: Sequence[Tuple]) -> "Estimates":
        """The table of rows, each a full DbEstimate-shaped tuple."""
        return cls(*map(list, zip(*rows)))

    def columns(self) -> Tuple[List, ...]:
        return (self.measurer, self.target, self.bound_m, self.method,
                self.rounds_used, self.verified_auth, self.surplus)

    def __len__(self) -> int:
        return len(self.measurer)

    def __iter__(self) -> Iterator[DbEstimate]:
        return map(_row, zip(*self.columns()))


@dataclass
class RunResult:
    """Everything a protocol run leaves behind.

    A ring run keeps its flight-time solve in ring_solve, and
    ring_solutions reads it, on first use, as each solved observer's
    {(low id, high id): seconds}.
    """

    scenario: Scenario
    trace: Trace
    estimates: Estimates = field(default_factory=Estimates)
    detection: Optional[DetectionReport] = None
    ring_order: Optional[Tuple[NodeId, ...]] = None
    ring_solve: Optional[Tuple[TofSystem, TofSolution]] = field(default=None, compare=False)
    rejections: List[str] = field(default_factory=list)

    @cached_property
    def ring_solutions(self) -> Optional[Dict[NodeId, Dict[Tuple[NodeId, NodeId], float]]]:
        return edge_times(*self.ring_solve) if self.ring_solve else None

    def estimate_for(self, measurer: NodeId, target: NodeId) -> DbEstimate:
        """The first (measurer, target) row; KeyError if the run has none."""
        est = self.estimates
        try:
            k = indexOf(zip(est.measurer, est.target), (measurer, target))
        except ValueError:
            raise KeyError(f"no estimate {measurer} -> {target}") from None
        return _row([column[k] for column in est.columns()])


@dataclass
class RunContext:
    """Channel, RNG, registry and nonce ledger shared by one protocol execution.

    nonces holds each party's committed rapid nonces; answer takes them
    in order, answered counting them off, and logs each to answers.
    timed logs every timed round, in order, as (ask seq, reply seq): the
    ask's sender measures, the reply's sender is its target.  bit_len is
    the scenario's, held here for answer; _steps holds the per-send
    steps sender has made.
    """

    scenario: Scenario
    channel: BroadcastChannel
    rng: random.Random
    registry: KeyRegistry
    slot_s: float
    policies: Dict[NodeId, AdversaryPolicy]
    nonces: Dict[NodeId, Tuple[int, ...]] = field(default_factory=dict)
    answered: Dict[NodeId, int] = field(default_factory=dict)
    # (node, nonce index, operand, value, round index) for every answer in turn
    answers: List[Tuple[NodeId, int, int, int, int]] = field(default_factory=list)
    timed: List[Tuple[int, int]] = field(default_factory=list)
    bit_len: int = field(init=False)
    _steps: Dict[NodeId, Callable[..., float]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.bit_len = self.scenario.config.bit_len

    def sender(self, node: NodeId) -> Callable[..., float]:
        """node's per-send step, send(t_nominal, after, t_trigger, guess, measurer) -> t_send.

        Made once per node and run.  A node with one of the
        TIMING_POLICIES counts its sends here, and apply_policy shifts each
        by its index (SelectiveDelay, toward measurer, the node whose
        measurement the send answers) or sends it early (EarlyChallenge).
        A send not made early waits for the node's last send: an early
        challenge can reach a prover before it answered the last one.  A
        guessed answer then leaves advance_s earlier still.  Any other
        send before t_trigger, message after's arrival, raises
        CausalityViolation.  A writer may skip the step for sends that
        unstepped shows it would leave as they are, recording them with sent.
        """
        step = self._steps.get(node)
        if step is not None:
            return step
        last_send, rng = self.channel.last_send, self.rng
        policy = self.policies[node]
        timing = isinstance(policy, TIMING_POLICIES)
        transform = partial(apply_policy, policy, node) if timing else None
        index = -1  # apply_policy's last send_index; the node's first send gets 0

        def send(t: float, after: Optional[int] = None, t_trigger: Optional[float] = None,
                 guess: bool = False, measurer: Optional[NodeId] = None) -> float:
            nonlocal index
            early = False
            if transform is not None:
                index += 1
                t, early = transform(index, t, measurer, rng)
            prev = last_send.get(node)
            if not early and prev is not None and t < prev - SEND_SLACK_S:
                t = prev
            if guess:
                t -= policy.advance_s
            elif not early and t_trigger is not None and t < t_trigger - SEND_SLACK_S:
                # the hold keeps a send from preceding the last one: only a reply can be late
                raise CausalityViolation(
                    f"node {node} sends at {t} before message {after} arrives at {t_trigger}")
            last_send[node] = prev if prev is not None and prev > t else t
            return t

        self._steps[node] = send
        return send

    def unstepped(self, node: NodeId, t_first: float) -> bool:
        """Whether node's step would leave its sends from t_first on as they are.

        So it is when node has no timing policy and its last send cannot
        hold a send at t_first, for a run of sends none of which precedes
        an earlier one or its trigger, or is guessed.  A writer whose sends
        are such may time them itself and record them with sent.
        """
        prev = self.channel.last_send.get(node)
        return not isinstance(self.policies[node], TIMING_POLICIES) and (
            prev is None or t_first >= prev - SEND_SLACK_S)

    def sent(self, asker: NodeId, replier: NodeId, sends: Sequence[float]) -> None:
        """Record rounds timed without the steps as the steps record them.

        sends alternate asker's and replier's, ask first, each node's in
        time order; a node's last_send keeps the later of it and its last.
        """
        last_send = self.channel.last_send
        for node, own in ((asker, sends[0::2]), (replier, sends[1::2])):
            if own:
                t, prev = own[-1], last_send.get(node)
                last_send[node] = prev if prev is not None and prev > t else t

    def emit(self, node: NodeId, t_nominal: float, kind: str, payload: bytes, round_index: int,
             after: Optional[int] = None, t_trigger: Optional[float] = None,
             measurer: Optional[NodeId] = None) -> int:
        """The per-send step plus one row for a send reacting to message after; returns its seq.

        t_trigger is after's arrival at node, as the caller read it to schedule the send.
        """
        step = self._steps.get(node) or self.sender(node)
        return self.channel.trace.append(node, step(t_nominal, after, t_trigger, False, measurer),
                                         kind, "rapid", payload, round_index)

    def answer(self, node: NodeId, operand: int, round_index: int) -> int:
        """operand XOR node's next committed nonce, logged for open_phase's replay."""
        k = self.answered.get(node, 0)
        self.answered[node] = k + 1
        value = response_bits(operand, self.nonces[node][k], self.bit_len)
        self.answers.append((node, k, operand, value, round_index))
        return value


def start_run(scenario: Scenario) -> RunContext:
    """Validate the scenario and set up channel, clocks, keys.

    All randomness (clock offsets first, then protocol nonces) comes
    from one generator seeded with the scenario seed, so a (scenario,
    seed) pair fixes the whole run.
    """
    ensure_valid(scenario)
    rng = random.Random(scenario.rng_seed)
    positions = scenario.positions()
    node_ids = sorted(positions)
    offsets = {nid: rng.random() for nid in node_ids}
    channel = BroadcastChannel(positions, scenario.config.c, offsets)
    registry = KeyRegistry()
    certified = {n.id for n in scenario.nodes if n.has_cert}
    for nid in node_ids:
        if nid in certified:
            registry.register(nid, rng)
    # flight times are symmetric and x*c is monotone, so this is the largest distance
    max_d = channel.reach() * scenario.config.c
    slot = 2.0 * max_d / scenario.config.c + scenario.config.alpha + 1e-6
    return RunContext(
        scenario=scenario, channel=channel, rng=rng, registry=registry, slot_s=slot,
        policies={n.id: n.policy for n in scenario.nodes},
    )


Bundle = Tuple[Commitment, Opening]


def commit_phase(
    ctx: RunContext, counts: Mapping[NodeId, int]
) -> Tuple[Dict[NodeId, Bundle], float]:
    """Each owner in turn draws its nonces, commits, and announces the digest.

    counts maps every committing party, in announcement order, to the
    number of rapid nonces it needs; the nonces go into ctx.nonces,
    where RunContext.answer takes them in turn.  The announcements take
    one slot each from the first; returns the bundles and the time the
    rapid phase may start.
    """
    bit_len = ctx.scenario.config.bit_len
    bundles: Dict[NodeId, Bundle] = {}
    t = ctx.slot_s
    for nid, count in counts.items():
        nonces = ctx.nonces[nid] = tuple(map(ctx.rng.getrandbits, repeat(bit_len, count)))
        bundles[nid] = commit(nonces, bit_len, ctx.rng)
        ctx.channel.broadcast(nid, t, "commit", "pre", payload=bundles[nid][0].digest)
        t += ctx.slot_s
    return bundles, t


def open_phase(
    ctx: RunContext, bundles: Mapping[NodeId, Bundle], t: float, sign: bool = True
) -> float:
    """Every owner opens, signing when auth is on; then every answer is replayed.

    A signature covers the commitment digest, which binds the nonces.
    An owner without a registered key, or whose signature does not
    verify, stops the run with AuthFailure; an opening that does not
    match its commitment stops it with CommitMismatch.  The ring passes
    sign=False because it signs its report instead.  Once every owner
    has opened, every logged answer is replayed, in order, against the
    opened nonces; the first value that is not its operand XOR the nonce
    it was due to answer stops the run with ResponseMismatch.
    """
    auth = sign and ctx.scenario.config.auth_enabled
    for nid, (commitment, opening) in bundles.items():
        payload = opening.blinding + encode_value(b"o", 0, 0)
        if auth:
            try:
                sig = ctx.registry.sign(nid, commitment.digest)
            except UnknownKey as exc:
                raise AuthFailure(f"node {nid} presented no registered key") from exc
            if not ctx.registry.verify(nid, commitment.digest, sig):
                raise AuthFailure(f"opening signature of node {nid} rejected")
            payload += sig
        ctx.channel.broadcast(nid, t, "open", "post", payload=payload)
        t += ctx.slot_s
        try:
            open_commitment(commitment, opening)
        except OpeningMismatch as exc:
            raise CommitMismatch(f"node {nid}: {exc}") from exc

    bit_len = ctx.scenario.config.bit_len
    top = 1 << bit_len
    nonces = ctx.nonces
    for node, k, operand, value, round_index in ctx.answers:
        nonce = nonces[node][k]  # response_bits, inline
        if not (0 <= operand < top and 0 <= nonce < top):
            raise LengthMismatch(f"values {operand}, {nonce} do not fit {bit_len} bits")
        if value != operand ^ nonce:
            raise ResponseMismatch(round_index, node, k)
    return t


def active_bounds(ctx: RunContext, start: int = 0) -> Dict[Tuple[NodeId, NodeId], List]:
    """Every (measurer, target) pair's [bound_m, rounds] over ctx.timed[start:].

    Each round is stamped on the measurer's own clock, its ask going out
    and the reply coming in, and priced as estimate.active_distance
    prices it, its float operations inline; a pair's bound is the
    largest over its rounds, the first of equal ones.  Pairs come in the
    order they were first timed, and the first impossible round, in
    ledger order, raises active_distance's NegativeTimeOfFlight.
    """
    cfg = ctx.scenario.config
    alpha, c = cfg.alpha, cfg.c
    trace = ctx.channel.trace
    sender, t_send, offsets = trace.sender, trace.t_send, trace.offsets
    rows, index = trace.tof, trace.index
    out: Dict[Tuple[NodeId, NodeId], List] = {}
    pair = entry = None
    for ask, reply in ctx.timed[start:]:
        m, target = sender[ask], sender[reply]
        if (m, target) != pair:  # a run of one pair's rounds reads these once
            pair = (m, target)
            off, flight = offsets[m], rows[index[target]][index[m]]
            entry = out.setdefault(pair, [None, 0])
        # active_distance on t_send + offset and arrival_true(reply, m) + offset
        t_sent, t_back = t_send[ask] + off, (t_send[reply] + flight) + off
        tof2 = (t_back - t_sent) - alpha
        if tof2 < -EPS_TIME:
            raise NegativeTimeOfFlight(
                f"round trip {t_back - t_sent!r} s shorter than processing {alpha!r} s")
        bound = max(c * tof2 / 2.0, 0.0)
        if entry[0] is None or bound > entry[0]:
            entry[0] = bound
        entry[1] += 1
    return out


def active_rows(ctx: RunContext, start: int = 0) -> List[Tuple]:
    """active_bounds as estimate rows; a run whose signatures fail stops in open_phase."""
    auth = ctx.scenario.config.auth_enabled
    return [(m, t, bound, METHOD_ACTIVE, rounds, auth, False)
            for (m, t), (bound, rounds) in active_bounds(ctx, start).items()]


def encode_value(kind: bytes, round_index: int, value: int) -> bytes:
    """Canonical payload bytes for a rapid-phase message: kind|round|value in ASCII."""
    return b"%s|%d|%d" % (kind, round_index, value)


def transcript_digest(trace: Trace) -> str:
    """Digest of the trace's ordered rapid-phase payloads, as any receiver saw them."""
    h = hashlib.sha256()
    for seq, (sender, phase, payload) in enumerate(zip(trace.sender, trace.phase, trace.payload)):
        if phase == "rapid":
            h.update(f"{seq}|{sender}|".encode("ascii"))
            h.update(payload)
            h.update(b"\x00")
    return h.hexdigest()
