"""Shared protocol types, the per-run bootstrap and the protocol skeleton.

Every driver follows the Brands-Chaum shape: commit_phase draws and
commits each party's rapid nonces into the run's nonce ledger, every
timed message's send time comes from one send rule, RunContext.emit
(or is its nominal time, where RunContext.unstepped shows emit would
not move it, and RunContext.sent records it as emit would), every
rapid value is an operand XOR its sender's next committed nonce, and
open_phase decommits (signing when auth is on) and replays every
answer against the opened nonces: a plain block's with one compare,
walked answer by answer only to name its first failing one, and every
other answer one at a time.  A rapid message is written one of
two ways: in a plain block (pairwise.run_exchange), a phase's plain
verifier rows, or one plain row, written together, their answers as
one AnswerBlock; everything else, relayed rows too, through
RunContext.emit, which times it and writes its trace row, each answer
through RunContext.answer.  A verifier's row is itself the
record of its rounds; the interleaved chain and 1toM return theirs as
Rounds.  active_bounds prices rounds one at a time from either record,
the measurer's stamps read off the trace's flight-time rows; the group
driver prices a phase as a whole, not row by row, with the same float
operations (pairwise.price_phase): every row's active rounds in one
array pass, the listeners in blocks of a few rows.
pairwise.passive_bounds prices a one-way row's listeners round by
round, as active_bounds prices its rounds.  A run hands back
its bounds as one columnar Estimates table, written as rows or, for
the ring, as one block of columns.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import repeat
from operator import floordiv, indexOf, or_, xor
from typing import (
    Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union,
)

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


Answer = Tuple[NodeId, int, int, int, int]  # as RunContext.answer logs one


def due_nonces(nonces: Mapping[NodeId, Sequence[int]], nodes: Sequence[NodeId],
               starts: Sequence[int], rounds: int) -> List[int]:
    """rounds of nodes[e]'s nonces from starts[e], for each e in turn; fewer where it has fewer."""
    due: List[int] = []
    for node, start in zip(nodes, starts):
        due += nonces.get(node, ())[start:start + rounds]
    return due


@dataclass
class AnswerBlock:
    """A plain block's answers as columns, for open_phase's replay.

    A block is a phase's plain rows, or one plain row, and its exchanges
    run row by row, each row's prover by prover.  Exchange e's answers
    are nodes[e]'s, rounds of them on its nonces from starts[e];
    operands and values run over the block's answers in turn.  A plain
    block writes all of them or none.  failure checks the whole block
    with one compare against its due nonces, and walks it answer by
    answer only to name the first that fails.
    """

    nodes: List[NodeId]
    starts: List[int]
    rounds: int
    operands: List[int]
    values: List[int]

    def failure(self, nonces: Mapping[NodeId, Sequence[int]], top: int) -> Optional[Answer]:
        """The first answer that is not its operand XOR its nonce, both below top, or None."""
        rounds, operands, values = self.rounds, self.operands, self.values
        due = due_nonces(nonces, self.nodes, self.starts, rounds)
        # every answer due and its operand XOR its nonce, both in [0, top): top being a power
        # of two, exactly when (x | y) // top is 0, as a negative x or y makes x | y negative
        if len(due) == len(values) == len(self.nodes) * rounds and list(
                map(xor, operands, due)) == values and not any(
                map(floordiv, map(or_, operands, due), repeat(top))):
            return None
        j = 0
        for node, start in zip(self.nodes, self.starts):
            own = nonces[node]
            for k in range(start, start + rounds):
                operand, value, nonce = operands[j], values[j], own[k]
                j += 1
                if value != operand ^ nonce or not (0 <= operand < top and 0 <= nonce < top):
                    return node, k, operand, value, k - start + 1
        return None


@dataclass
class RunContext:
    """Channel, RNG, registry and nonce ledger shared by one protocol execution.

    nonces holds each party's committed rapid nonces, taken in order,
    answered counting them off.  answers logs them in turn: a plain
    block's as one AnswerBlock, every other answer as answer's
    (node, nonce index, operand, value, round index).  emit and answer
    are the one per-message writer.  policy_sends counts each timing-policy
    node's emits; bit_len is the scenario's, held here for answer.
    """

    scenario: Scenario
    channel: BroadcastChannel
    rng: random.Random
    registry: KeyRegistry
    slot_s: float
    policies: Dict[NodeId, AdversaryPolicy]
    nonces: Dict[NodeId, Tuple[int, ...]] = field(default_factory=dict)
    answered: Dict[NodeId, int] = field(default_factory=dict)
    answers: List[Union[Answer, AnswerBlock]] = field(default_factory=list)
    policy_sends: Dict[NodeId, int] = field(default_factory=dict, init=False)
    bit_len: int = field(init=False)

    def __post_init__(self) -> None:
        self.bit_len = self.scenario.config.bit_len

    def unstepped(self, nodes: Sequence[NodeId], firsts: Sequence[float]) -> bool:
        """Whether emit would leave each node's sends, from its first in firsts on, as they are.

        So it is when no node has a timing policy and none's last send
        can hold its first, for runs of sends none of which precedes an
        earlier one of its node or its trigger, or is guessed.  A writer
        whose sends are such may time them itself and record them with sent.
        """
        last_send, policies = self.channel.last_send, self.policies
        for node, t_first in zip(nodes, firsts):
            prev = last_send.get(node)
            if isinstance(policies[node], TIMING_POLICIES) or (
                    prev is not None and t_first < prev - SEND_SLACK_S):
                return False
        return True

    def sent(self, nodes: Sequence[NodeId], lasts: Sequence[float]) -> None:
        """Record sends timed without emit as emit records them.

        lasts holds each node's latest such send, the nodes in the order
        they first sent; a node's last_send keeps the later of it and its last.
        """
        last_send = self.channel.last_send
        for node, t in zip(nodes, lasts):
            prev = last_send.get(node)
            last_send[node] = prev if prev is not None and prev > t else t

    def emit(self, node: NodeId, t_nominal: float, kind: str, payload: bytes, round_index: int,
             after: Optional[int] = None, t_trigger: Optional[float] = None,
             measurer: Optional[NodeId] = None, guess: bool = False) -> int:
        """One timed rapid send reacting to message after, as one trace row; returns its seq.

        t_trigger is after's arrival at node, as the caller read it to
        schedule the send.  A node with one of the TIMING_POLICIES counts
        its sends in policy_sends, and apply_policy shifts each by its
        index (SelectiveDelay, toward measurer, the node whose measurement
        the send answers) or sends it early (EarlyChallenge).  A send not
        made early waits for the node's last send: an early challenge can
        reach a prover before it answered the last one.  A guessed answer
        then leaves advance_s earlier still.  Any other send before
        t_trigger raises CausalityViolation, and writes nothing.  A writer
        may time sends itself that unstepped shows emit would leave as
        they are, recording them with sent.
        """
        policy = self.policies[node]
        t, early = t_nominal, False
        if isinstance(policy, TIMING_POLICIES):
            index = self.policy_sends.get(node, 0)
            self.policy_sends[node] = index + 1
            t, early = apply_policy(policy, node, index, t, measurer, self.rng)
        last_send = self.channel.last_send
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
        return self.channel.trace.append(node, t, kind, "rapid", payload, round_index)

    def answer(self, node: NodeId, operand: int, round_index: int,
               heard: Optional[int] = None) -> int:
        """heard (operand unless given) XOR node's next committed nonce, logged for open_phase.

        A guessing prover passes the bits it guessed as heard; the log
        keeps the true operand, so that the replay refuses a wrong guess.
        """
        k = self.answered.get(node, 0)
        self.answered[node] = k + 1
        value = response_bits(operand if heard is None else heard, self.nonces[node][k],
                              self.bit_len)
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
    opened nonces, a plain block's as one compare (AnswerBlock.failure).
    The first answer whose value is not its operand XOR the nonce it was
    due to answer, both fitting bit_len, stops the run: with LengthMismatch
    if the operand or the nonce does not fit, else with ResponseMismatch.
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
    for entry in ctx.answers:
        if type(entry) is not tuple:  # a row's block: only its first failing answer is replayed
            entry = entry.failure(nonces, top)
            if entry is None:
                continue
        node, k, operand, value, round_index = entry
        nonce = nonces[node][k]  # response_bits, inline
        if not (0 <= operand < top and 0 <= nonce < top):
            raise LengthMismatch(f"values {operand}, {nonce} do not fit {bit_len} bits")
        if value != operand ^ nonce:
            raise ResponseMismatch(round_index, node, k)
    return t


Round = Tuple[NodeId, NodeId, float, float]


def active_bounds(ctx: RunContext, rounds: Iterable[Round]) -> Dict[Tuple[NodeId, NodeId], List]:
    """Every (measurer, target) pair's [bound_m, rounds] over rounds.

    A round is (measurer, target, ask's send, reply's send), true
    times.  Each is stamped on the measurer's own clock, its ask going
    out and the reply coming in, and priced one at a time: the round
    trip less alpha, as c * tof2 / 2 floored at zero; a pair's bound is
    the largest over its rounds, the first of equal ones.  Pairs come in
    the order they were first timed, and the first round whose trip
    falls short of alpha by more than EPS_TIME raises NegativeTimeOfFlight.
    """
    cfg = ctx.scenario.config
    alpha, c, short = cfg.alpha, cfg.c, -EPS_TIME
    trace = ctx.channel.trace
    offsets, rows, index = trace.offsets, trace.tof, trace.index
    out: Dict[Tuple[NodeId, NodeId], List] = {}
    measurer = responder = entry = None
    for m, target, ask, reply in rounds:
        if m != measurer or target != responder:  # a run of one pair's rounds reads these once
            measurer, responder = m, target
            off, flight = offsets[m], rows[index[target]][index[m]]
            entry = out.setdefault((m, target), [None, 0])
        # the ask's send and the reply's arrival_true at m, each on m's clock
        t_sent, t_back = ask + off, (reply + flight) + off
        tof2 = (t_back - t_sent) - alpha
        if tof2 < short:
            raise NegativeTimeOfFlight(
                f"round trip {t_back - t_sent!r} s shorter than processing {alpha!r} s")
        bound = c * tof2 / 2.0
        if 0.0 > bound:  # max(bound, 0.0), which keeps -0.0
            bound = 0.0
        if entry[0] is None or bound > entry[0]:
            entry[0] = bound
        entry[1] += 1
    return out


def active_rows(ctx: RunContext, rounds: Iterable[Round]) -> List[Tuple]:
    """active_bounds as estimate rows; a run whose signatures fail stops in open_phase."""
    auth = ctx.scenario.config.auth_enabled
    return [(m, t, bound, METHOD_ACTIVE, n, auth, False)
            for (m, t), (bound, n) in active_bounds(ctx, rounds).items()]


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
