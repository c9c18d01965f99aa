"""A verifier's row message by message, and per-round active pricing, as test oracles.

gdbsim runs a phase's verifier rows, each with every prover, in one
writer call.  A phase of plain rows is one block, timed by one running
sum, a float list's or a float64 array's, with no emit calls: one
extend per trace column and its answers logged as one AnswerBlock.
Any other phase goes row by row, a plain row as a block of its own;
any other row, one that a timing policy, a guess, a held first send or
a relay touches, goes send by send through RunContext.emit and answer
by answer through RunContext.answer, a relay front's round inside the
same loop as a direct prover's.  gdbsim prices a group phase's active
rounds as one array pass, and a row of one exchange, and the rounds the
interleaved chain and 1toM return, with active_bounds' inline loop.
This module keeps the earlier path: the rows in turn (run_exchange), a
row one exchange per prover in turn (run_row), a relayed row its own
loop (run_relay_exchange); every send goes
through emit, which counts it per node and run, lets apply_policy shift
it, holds it behind its node's last send, applies a guess's advance and
makes one broadcast that checks causality and appends one row; every
value goes through answer, one log entry each; and every round is
priced by active_distance, off the row's stamps and the trace's
flight-time array (group_oracle.price_rows prices a group phase row
after row with it).  So the tests can demand that the writer leave the
same trace, answers, last sends, row record and errors, bit for bit.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple
from weakref import WeakKeyDictionary

from gdbsim.core import EPS_TIME, SPEED_OF_LIGHT
from gdbsim.estimate import NegativeTimeOfFlight
from gdbsim.proto.base import AnswerBlock, RunContext, response_bits
from gdbsim.proto.pairwise import Row, encode_value
from gdbsim.simkit import SEND_SLACK_S, BroadcastChannel, CausalityViolation
from gdbsim.threat import GuessAhead, Relay, apply_policy


def active_distance(
    t_sent: float, t_back: float, alpha_p: float, c: float = SPEED_OF_LIGHT
) -> float:
    """Round-trip distance bound measured by the challenger itself.

    t_sent and t_back are the challenger's own clock readings for
    challenge out and response in; alpha_p is the responder's known
    processing delay.  The per-round reference that active_bounds and
    estimate.active_distances are held to.
    """
    tof2 = (t_back - t_sent) - alpha_p
    if tof2 < -EPS_TIME:
        raise NegativeTimeOfFlight(
            f"round trip {t_back - t_sent!r} s shorter than processing {alpha_p!r} s"
        )
    return max(c * tof2 / 2.0, 0.0)


def answer_log(answers) -> List[Tuple]:
    """Every logged answer as answer logs it, (node, nonce index, operand, value, round),
    a row's AnswerBlock spelled out exchange by exchange and round by round."""
    out = []
    for entry in answers:
        if not isinstance(entry, AnswerBlock):
            out.append(entry)
            continue
        for e, node in enumerate(entry.nodes):
            for i in range(entry.rounds):
                j = e * entry.rounds + i
                out.append((node, entry.starts[e] + i, entry.operands[j], entry.values[j], i + 1))
    return out


def broadcast(ctx: RunContext, sender, t_send: float, kind: str, payload: bytes,
              round_index: int, after: Optional[int], early: bool) -> int:
    """One rapid-phase row, checked, unless early, against its trigger and
    its sender's last send."""
    chan = ctx.channel
    trace = chan.trace
    prev = chan.last_send.get(sender)
    if not early:
        if after is not None:
            trigger = trace.sender[after]
            if trigger == sender:
                raise KeyError(f"node {sender} sent message {after}, it does not receive it")
            t_trigger = arrival(ctx, after, sender)
            if t_send < t_trigger - SEND_SLACK_S:
                raise CausalityViolation(
                    f"node {sender} sends at {t_send} before message "
                    f"{after} arrives at {t_trigger}"
                )
        if prev is not None and t_send < prev - SEND_SLACK_S:
            raise CausalityViolation(
                f"node {sender} send at {t_send} precedes its own last send at {prev}"
            )
    chan.last_send[sender] = prev if prev is not None and prev > t_send else t_send
    seq = len(trace.sender)
    for column, value in zip(trace.columns(),
                             (sender, t_send, kind, "rapid", payload, round_index)):
        column.append(value)
    return seq


# each run's rapid sends so far, per node, keyed by the run's channel
SENDS: "WeakKeyDictionary[BroadcastChannel, Dict]" = WeakKeyDictionary()


def emit(ctx: RunContext, node, t_nominal: float, kind: str, payload: bytes, round_index: int,
         after: Optional[int] = None, measurer=None, guess: bool = False) -> int:
    """One rapid send: count, policy shift, in-order hold, guess advance, broadcast."""
    sends = SENDS.setdefault(ctx.channel, {})
    index = sends.get(node, 0)
    sends[node] = index + 1
    policy = ctx.policies[node]
    t, early = apply_policy(policy, node, index, t_nominal, measurer, ctx.rng)
    if not early:
        prev = ctx.channel.last_send.get(node)
        if prev is not None and t < prev - SEND_SLACK_S:
            t = prev
    if guess:
        t -= policy.advance_s
        early = True
    return broadcast(ctx, node, t, kind, payload, round_index, after, early)


def answer(ctx: RunContext, node, operand: int, round_index: int,
           heard: Optional[int] = None) -> int:
    """operand XOR node's next committed nonce, logged with the true operand."""
    k = ctx.answered.get(node, 0)
    ctx.answered[node] = k + 1
    heard = operand if heard is None else heard
    value = response_bits(heard, ctx.nonces[node][k], ctx.scenario.config.bit_len)
    ctx.answers.append((node, k, operand, value, round_index))
    return value


def draw(ctx: RunContext, bit_len: int) -> int:
    return ctx.rng.getrandbits(bit_len) if bit_len else 0


def arrival(ctx: RunContext, seq: int, receiver) -> float:
    """t_send plus the flight, read off the trace's derived flight-time array, not its rows."""
    trace = ctx.channel.trace
    return trace.t_send[seq] + float(trace.tof_array[trace.index[trace.sender[seq]],
                                                     trace.index[receiver]])


def run_exchange(ctx: RunContext, verifiers, provers, n_rounds: int, t_start: float,
                 closing: bool) -> List[Row]:
    """Each verifier's row in turn, each one slot after the last one's t_end."""
    rows = []
    for verifier in verifiers:
        rows.append(run_row(ctx, verifier, provers, n_rounds, t_start, closing))
        t_start = rows[-1].t_end + ctx.slot_s
    return rows


def run_row(ctx: RunContext, verifier, provers, n_rounds: int, t_start: float,
            closing: bool) -> Row:
    """The verifier's row: each prover's exchange in turn, one slot after the last one's t_end.

    A relaying prover's row, one exchange, is run_relay_exchange's.
    """
    if len(provers) == 1 and isinstance(ctx.policies[provers[0]], Relay):
        return run_relay_exchange(ctx, verifier, provers[0], ctx.policies[provers[0]].victim,
                                  t_start, closing)
    schedule: List[float] = []
    stamps: List[float] = []
    t_end = t_start
    for k, prover in enumerate(provers):
        sends, sent, t_end = exchange(ctx, verifier, prover, n_rounds,
                                      t_end + ctx.slot_s if k else t_start, closing)
        schedule += sends
        stamps += sent
    return Row(verifier, list(provers), schedule, stamps, t_end)


def exchange(ctx: RunContext, verifier, prover, n_rounds: int, t_start: float, closing: bool):
    """n_rounds challenge/response rounds, one emit and one answer at a time.

    Returns the published schedule, each round's ask and reply send
    times and then the closing's, and the exchange's t_end.
    """
    cfg = ctx.scenario.config
    t_sends = ctx.channel.trace.t_send
    p_policy = ctx.policies[prover]
    guessed = p_policy.p_rounds if isinstance(p_policy, GuessAhead) else 0
    nominal_sends: List[float] = []
    stamps: List[float] = []
    t_nominal = t_end = t_start
    for i in range(1, n_rounds + 1):
        c_i = draw(ctx, cfg.bit_len)
        ch = emit(ctx, verifier, t_nominal, "challenge", encode_value(b"c", i, c_i), i)
        t_actual = t_sends[ch]
        nominal_sends.append(t_nominal)
        guess = i <= guessed
        value = answer(ctx, prover, c_i, i, draw(ctx, cfg.bit_len) if guess else None)
        resp = emit(ctx, prover, arrival(ctx, ch, prover) + cfg.alpha, "response",
                    encode_value(b"r", i, value), i, ch, verifier, guess)
        stamps += [t_actual, t_sends[resp]]
        t_back = arrival(ctx, resp, verifier)
        t_nominal = (t_back + (t_nominal - t_actual)) + cfg.alpha
        t_end = max(t_end, t_back)
    if closing:
        em = emit(ctx, verifier, t_nominal, "closing",
                  encode_value(b"x", n_rounds + 1, 0), n_rounds + 1)
        nominal_sends.append(t_nominal)
        stamps.append(t_sends[em])
        t_end = max(t_end, t_sends[em] + ctx.channel.reach(verifier))
    return nominal_sends, stamps, t_end


def run_relay_exchange(ctx: RunContext, verifier, front, victim, t_start: float,
                       closing: bool) -> Row:
    """The relayed rounds, the front forwarding both ways, one emit at a time."""
    cfg = ctx.scenario.config
    trace = ctx.channel.trace
    nominal_sends: List[float] = []
    stamps: List[float] = []
    t_nominal = t_end = t_start
    for i in range(1, cfg.n + 1):
        c_i = draw(ctx, cfg.bit_len)
        ch = emit(ctx, verifier, t_nominal, "challenge", encode_value(b"c", i, c_i), i)
        nominal_sends.append(t_nominal)
        fwd = emit(ctx, front, arrival(ctx, ch, front), "relay", trace.payload[ch], i,
                   ch, verifier)
        value = answer(ctx, front, c_i, i)
        vr = emit(ctx, victim, arrival(ctx, fwd, victim) + cfg.alpha, "response",
                  encode_value(b"r", i, value), i, fwd, verifier)
        resp = emit(ctx, front, arrival(ctx, vr, front), "response", trace.payload[vr], i,
                    vr, verifier)
        stamps += [trace.t_send[ch], trace.t_send[resp]]
        t_back = arrival(ctx, resp, verifier)
        t_nominal = (t_back + (t_nominal - trace.t_send[ch])) + cfg.alpha
        t_end = max(t_end, t_back)
    if closing:
        em = emit(ctx, verifier, t_nominal, "closing",
                  encode_value(b"x", cfg.n + 1, 0), cfg.n + 1)
        nominal_sends.append(t_nominal)
        stamps.append(trace.t_send[em])
        t_end = max(t_end, trace.t_send[em] + ctx.channel.reach(verifier))
    return Row(verifier, [front], nominal_sends, stamps, t_end)


def row_rounds(row: Row) -> List[Tuple]:
    """A row's rounds, (verifier, responder, ask send, reply send), exchange by exchange."""
    per = len(row.stamps) // len(row.responders)
    out = []
    for e, p in enumerate(row.responders):
        stamps = row.stamps[e * per:(e + 1) * per]
        for i in range(per // 2):
            out.append((row.verifier, p, stamps[2 * i], stamps[2 * i + 1]))
    return out


def active_bounds(ctx: RunContext, rounds) -> Dict[Tuple, List]:
    """Every pair's [bound_m, rounds], each round priced by active_distance in turn, the
    reply's arrival read off the trace's flight-time array."""
    cfg = ctx.scenario.config
    trace = ctx.channel.trace
    out: Dict[Tuple, List] = {}
    for m, target, ask, reply in rounds:
        flight = float(trace.tof_array[trace.index[target], trace.index[m]])
        bound = active_distance(ask + trace.offsets[m], (reply + flight) + trace.offsets[m],
                                cfg.alpha, cfg.c)
        entry = out.setdefault((m, target), [bound, 0])
        if bound > entry[0]:
            entry[0] = bound
        entry[1] += 1
    return out
