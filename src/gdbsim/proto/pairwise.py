"""Two-party distance bounding and its sequential baselines.

The one-way driver runs a single timed verifier against a prover, with
optional eavesdropping observers; the mutual driver interleaves both
directions into 2n+1 rapid messages.  Both schedule the challenger's
emissions on an arrival-chained nominal timeline: each emission is due
one processing delay after the previous reply arrives.  The challenger
publishes those nominal times, and observers price their overheard
timings against the published schedule, which is exactly what a
schedule-advancing challenger exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core import NodeId, ProtocolConfig, Role, Scenario, distance
from ..crypto import commit  # noqa: F401  (perfbench/tracing.py patches this name here)
from ..estimate import NegativeTimeOfFlight, direct_bounds
from ..threat import FakeLocationReport, GuessAhead, Relay
from ..threat import apply_policy  # noqa: F401  (perfbench/tracing.py patches this name here)
from .base import (
    METHOD_PASSIVE,
    Estimates,
    RunContext,
    RunResult,
    active_rows,
    commit_phase,
    encode_value,
    open_phase,
    response_bits,
    start_run,
)


@dataclass
class ExchangeResult:
    """Outcome of one verifier-prover rapid exchange; its rounds are in ctx.timed."""

    verifier: NodeId
    prover: NodeId
    nominal_sends: List[float]      # published schedule, true clock, one per verifier emission
    response_seqs: List[int]        # one per round, as the verifier heard it
    t_end: float                    # true time of the last arrival anyone needs


def run_exchange(
    ctx: RunContext,
    verifier: NodeId,
    prover: NodeId,
    n_rounds: int,
    t_start: float,
    closing: bool,
) -> ExchangeResult:
    """n_rounds timed challenge/response rounds, optionally closed.

    The closing emission carries no new challenge to time; it exists so
    that listeners get a schedule point after the final response.  The
    prover answers on its next n_rounds committed nonces.  A guessing
    prover answers its first rounds ahead of the challenge, on guessed
    bits.  The rows, answers and timed rounds are written with one extend
    per column and log, also when a send raises.
    """
    cfg = ctx.scenario.config
    chan = ctx.channel
    trace = chan.trace
    alpha = cfg.alpha
    bit_len = cfg.bit_len
    draw = ctx.rng.getrandbits  # draw(0) is 0 and draws nothing, as in ctx.draw_bits
    v_send, p_send = ctx.sender(verifier), ctx.sender(prover)
    # the adds Trace.arrival_true makes, with the pair's flights read once
    tof_out, tof_back = chan.tof(verifier, prover), chan.tof(prover, verifier)
    p_policy = ctx.policies[prover]
    guessed = p_policy.p_rounds if isinstance(p_policy, GuessAhead) else 0
    # RunContext.answer on the prover's next nonces, logged here
    nonces, answered = ctx.nonces[prover], ctx.answered.get(prover, 0)
    first = answered
    seq = len(trace.sender)
    nominal_sends: List[float] = []
    t_sends, payloads, answers, timed = [], [], [], []  # the exchange's rows and logs
    t_nominal = t_end = t_start

    try:
        for i in range(1, n_rounds + 1):
            c_i = draw(bit_len)
            t_actual = v_send(t_nominal)
            t_sends.append(t_actual)
            payloads.append(encode_value(b"c", i, c_i))
            nominal_sends.append(t_nominal)

            # a guessing prover draws its bits once the challenge is out
            guess = i <= guessed
            heard = draw(bit_len) if guess else c_i
            k = answered
            answered += 1
            value = response_bits(heard, nonces[k], bit_len)
            answers.append((prover, k, c_i, value, i))
            t_arrival = t_actual + tof_out
            t_resp = p_send(t_arrival + alpha, seq, t_arrival, guess, verifier)
            t_sends.append(t_resp)
            payloads.append(encode_value(b"r", i, value))
            timed.append((seq, seq + 1))
            seq += 2

            t_back = t_resp + tof_back
            # the verifier recovers its honest timeline by adding back its own advance
            t_nominal = (t_back + (t_nominal - t_actual)) + alpha
            if t_back > t_end:
                t_end = t_back

        if closing:
            t_close = v_send(t_nominal)
            t_sends.append(t_close)
            payloads.append(encode_value(b"x", n_rounds + 1, 0))
            nominal_sends.append(t_nominal)
            t_end = max(t_end, t_close + chan.reach(verifier))
    finally:
        sent = len(t_sends)
        # rows alternate challenge and response, round by round, then the closing
        trace.extend(([verifier, prover] * n_rounds + [verifier])[:sent], t_sends,
                     (["challenge", "response"] * n_rounds + ["closing"])[:sent],
                     ["rapid"] * sent, payloads, [j // 2 + 1 for j in range(sent)])
        if answered > first:
            ctx.answered[prover] = answered
        ctx.answers.extend(answers)
        ctx.timed.extend(timed)

    return ExchangeResult(
        verifier=verifier,
        prover=prover,
        nominal_sends=nominal_sends,
        response_seqs=[reply for _, reply in timed],
        t_end=t_end,
    )


def _claimed_baseline(ctx: RunContext, pol: FakeLocationReport, observer: NodeId) -> float:
    """Verifier-observer distance as a verifier faking its location advertises it."""
    if pol.claimed_distance_m is not None:
        return pol.claimed_distance_m
    return distance(pol.claimed_pos, ctx.scenario.node(observer).pos)


def _framed(ex: ExchangeResult) -> int:
    """Rounds a listener can frame.

    A round needs a follow-up emission, so the last round counts only
    when the exchange was closed.
    """
    return max(0, min(len(ex.response_seqs), len(ex.nominal_sends) - 1))


def passive_observations(
    ctx: RunContext, row: Sequence[ExchangeResult], watchers: Sequence[NodeId]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each watcher's timing triples for every fully-framed round of a row.

    The row's exchanges share one verifier and frame the same number of
    rounds.  Returns (exchanges x rounds x watchers) arrays t1, t2, t3 on
    each watcher's own clock, and each watcher's advertised baseline.
    T1 and T3 come from the verifier's published schedule plus the
    physical flight to the watcher; T2 is the physically overheard
    response.  The baseline is the true verifier-watcher distance unless
    the verifier advertises a fake location or distance, which poisons it.
    """
    chan = ctx.channel
    c = ctx.scenario.config.c
    verifier = row[0].verifier
    n_framed = _framed(row[0])
    off = np.array([chan.offsets[w] for w in watchers])
    dist = chan.flights(verifier, watchers) * c
    base_tof = dist / c  # physical flight for schedule anchoring
    pol = ctx.policies[verifier]
    if isinstance(pol, FakeLocationReport):
        base = np.array([_claimed_baseline(ctx, pol, w) for w in watchers])
    else:
        base = dist
    nominal = np.array([ex.nominal_sends[:n_framed + 1] for ex in row])
    schedule = (nominal[:, :, None] + base_tof) + off
    # the prover sends every response, relayed ones included
    t2 = chan.trace.local_arrivals([ex.response_seqs[:n_framed] for ex in row], watchers)
    return schedule[:, :-1], t2, schedule[:, 1:], base


def observed_bound(
    cfg: ProtocolConfig, t1: np.ndarray, t2: np.ndarray, t3: np.ndarray, base: np.ndarray
) -> np.ndarray:
    """Each (exchange, watcher) bound of a passive_observations block.

    The largest direct bound over the rounds, floored at zero.  A round
    whose leg sum undercuts the verifier-prover distance is impossible
    honestly; it scores distance zero rather than aborting the run, since
    the cheat only ever shortens the bound.  An impossible timing raises
    the NegativeTimeOfFlight that pricing one exchange, watcher and round
    at a time, in that order, meets first.
    """
    try:
        bounds = direct_bounds(t1, t2, t3, cfg.alpha, cfg.alpha, base, cfg.c)
    except NegativeTimeOfFlight:
        # the block names its first bad entry in round order; re-price
        # observation by observation to raise what per-watcher pricing meets first
        exchanges, rounds, watchers = t1.shape
        for e, w, r in np.ndindex(exchanges, watchers, rounds):
            direct_bounds(t1[e, r, w], t2[e, r, w], t3[e, r, w],
                          cfg.alpha, cfg.alpha, base[w], cfg.c)
        raise
    # a round that scores zero has a bound below zero, which cannot raise
    # a maximum floored at zero, so the raw maximum over rounds decides
    best = bounds.max(axis=1)
    return np.where(best > 0.0, best, 0.0)


def passive_bounds(
    ctx: RunContext, row: Sequence[ExchangeResult], watchers: Sequence[NodeId]
) -> Tuple[List[NodeId], np.ndarray, int]:
    """Every watcher's passive bound on each prover of a row, in one pass.

    row holds exchanges that share one verifier and frame the same number
    of rounds, priced as one (exchanges x rounds x watchers) block: the
    stamps passive_observations gathers, scored by observed_bound.
    Returns (others, best, rounds): the watchers other than the verifier,
    their (exchanges x others) bounds, and the number of rounds each
    framed.  A row that frames no round prices nobody: others is empty.
    """
    others = [w for w in watchers if w != row[0].verifier]
    rounds = _framed(row[0])
    if not others or not rounds:
        return [], np.empty((len(row), 0)), 0
    best = observed_bound(ctx.scenario.config, *passive_observations(ctx, row, others))
    return others, best, rounds


def run_one_way_db(scenario: Scenario) -> RunResult:
    """One verifier times one prover; anyone else listens.

    Emits 2n rapid messages, plus one closing schedule point when
    listeners are present, between the prover's commit and open.  A relaying
    prover is driven through its victim, which lengthens every round
    trip by the detour.
    """
    ctx = start_run(scenario)
    s = scenario
    cfg = s.config
    verifier = s.with_role(Role.ACTIVE_VERIFIER)[0].id
    provers = [n.id for n in s.with_role(Role.PROVER)]
    observers = [n.id for n in s.with_role(Role.PASSIVE_VERIFIER)]

    relay_front: Optional[NodeId] = None
    if len(provers) == 2:
        relay_front = [p for p in provers if isinstance(ctx.policies[p], Relay)][0]
    partner = relay_front if relay_front is not None else provers[0]

    bundles, t = commit_phase(ctx, {partner: cfg.n})
    if relay_front is None:
        ex = run_exchange(ctx, verifier, partner, cfg.n, t_start=t, closing=bool(observers))
    else:
        victim = ctx.policies[relay_front].victim  # type: ignore[union-attr]
        ex = _run_relay_exchange(ctx, verifier, relay_front, victim, t, bool(observers))
    rows = active_rows(ctx)
    open_phase(ctx, bundles, ex.t_end + ctx.slot_s)

    others, best, rounds = passive_bounds(ctx, [ex], observers)
    rows += [(w, partner, bound, METHOD_PASSIVE, rounds, cfg.auth_enabled, False)
             for w, bound in zip(others, best[0].tolist())]
    return RunResult(scenario=s, trace=ctx.channel.trace, estimates=Estimates.from_rows(rows))


def _run_relay_exchange(
    ctx: RunContext,
    verifier: NodeId,
    front: NodeId,
    victim: NodeId,
    t_start: float,
    closing: bool,
) -> ExchangeResult:
    """Rapid rounds where the front forwards both directions verbatim.

    The front retransmits with zero turnaround, so each round trip costs
    the full detour verifier-front-victim and back; no schedule trick
    can make that shorter than the direct path.  The victim answers on
    the front's committed nonces, the ones the verifier checks.
    """
    cfg = ctx.scenario.config
    chan = ctx.channel
    t_sends, payloads = chan.trace.t_send, chan.trace.payload
    alpha = cfg.alpha
    nominal_sends: List[float] = []
    response_seqs: List[int] = []
    t_nominal = t_start
    t_end = t_start
    for i in range(1, cfg.n + 1):
        c_i = ctx.draw_bits(cfg.bit_len)
        ch = ctx.emit(verifier, t_nominal, "challenge", encode_value(b"c", i, c_i), i)
        nominal_sends.append(t_nominal)
        fwd = ctx.emit(front, chan.arrival_true(ch, front), "relay", payloads[ch], i,
                       ch, verifier)
        value = ctx.answer(front, c_i, i)
        vr = ctx.emit(victim, chan.arrival_true(fwd, victim) + alpha, "response",
                      encode_value(b"r", i, value), i, fwd, verifier)
        resp = ctx.emit(front, chan.arrival_true(vr, front), "response", payloads[vr], i,
                        vr, verifier)
        response_seqs.append(resp)
        ctx.timed.append((ch, resp))  # the front answers the verifier
        t_back = chan.arrival_true(resp, verifier)
        t_nominal = (t_back + (t_nominal - t_sends[ch])) + alpha
        t_end = max(t_end, t_back)
    if closing:
        em = ctx.emit(verifier, t_nominal, "closing", encode_value(b"x", cfg.n + 1, 0), cfg.n + 1)
        nominal_sends.append(t_nominal)
        t_end = max(t_end, t_sends[em] + chan.reach(verifier))
    return ExchangeResult(
        verifier=verifier, prover=front, nominal_sends=nominal_sends,
        response_seqs=response_seqs, t_end=t_end,
    )


# ---------------------------------------------------------------------------
# mutual interleaved


def run_mutual_interleaved(scenario: Scenario) -> RunResult:
    """Both peers bound each other through one 2n+1 message chain.

    Message values alternate c_k XOR s_k (responder) and c_{k+1} XOR s_k
    (initiator), so every message both answers the newest foreign nonce
    and issues a fresh one.
    """
    ctx = start_run(scenario)
    cfg = scenario.config
    a, b = sorted(n.id for n in scenario.with_role(Role.PEER))
    bundles, t = commit_phase(ctx, {a: cfg.n + 1, b: cfg.n})
    t_end = _interleaved_rapid(ctx, a, b, t)
    estimates = Estimates.from_rows(active_rows(ctx))
    open_phase(ctx, bundles, t_end + ctx.slot_s)
    return RunResult(scenario=scenario, trace=ctx.channel.trace, estimates=estimates)


def _interleaved_rapid(
    ctx: RunContext,
    a: NodeId,
    b: NodeId,
    t_start: float,
) -> float:
    """The 2n+1 message chain; returns the true time its last message has reached everyone.

    The initiator a sends messages 1, 3, ..., 2n+1 and times b off each
    odd-even gap; b times a off each even-odd gap.  Each party strips
    its own last nonce from what it hears to recover the challenge it
    answers.
    """
    cfg = ctx.scenario.config
    chan = ctx.channel
    alpha = cfg.alpha

    # a opens on its first nonce, 0 XOR nonce; c is a's newest nonce, b's challenge
    c = ctx.answer(a, 0, 1)
    prev = ctx.emit(a, t_start, "challenge", encode_value(b"m", 1, c), 1, None, b)
    for k in range(1, cfg.n + 1):
        v_b = ctx.answer(b, c, k)
        em_b = ctx.emit(b, chan.arrival_true(prev, b) + alpha, "response",
                        encode_value(b"m", 2 * k, v_b), k, prev, a)
        ctx.timed.append((prev, em_b))
        s = v_b ^ c  # b's nonce, a's challenge
        v_a = ctx.answer(a, s, k)
        em_a = ctx.emit(a, chan.arrival_true(em_b, a) + alpha, "response",
                        encode_value(b"m", 2 * k + 1, v_a), k, em_b, b)
        ctx.timed.append((em_b, em_a))
        c = v_a ^ s
        prev = em_a
    return chan.trace.t_send[prev] + chan.reach(a)


# ---------------------------------------------------------------------------
# sequential baselines for group coverage


def run_sequential_pairwise(scenario: Scenario) -> RunResult:
    """Full mutual coverage of a peer group by one-way runs, both ways.

    Every unordered pair runs 2n rapid messages in each direction (4n
    per pair); each node commits once up front, opens once at the end,
    and only then are the answers checked.  This is the costliest
    coverage strategy and the yardstick the ring protocol is compared
    against.
    """
    ctx = start_run(scenario)
    cfg = scenario.config
    peers = sorted(n.id for n in scenario.with_role(Role.PEER))
    bundles, t = commit_phase(ctx, {nid: cfg.n * (len(peers) - 1) for nid in peers})
    for i, x in enumerate(peers):
        for y in peers[i + 1:]:
            for measurer, target in ((x, y), (y, x)):
                t = run_exchange(ctx, measurer, target, cfg.n, t, False).t_end + ctx.slot_s
    estimates = Estimates.from_rows(active_rows(ctx))
    open_phase(ctx, bundles, t)
    return RunResult(scenario=scenario, trace=ctx.channel.trace, estimates=estimates)


def run_sequential_interleaved(scenario: Scenario) -> RunResult:
    """Full mutual coverage by per-pair interleaved chains, 2n+1 each.

    A peer opens the chain with each later peer (n+1 nonces) and answers
    each earlier one (n nonces), so it commits exactly that many.
    """
    ctx = start_run(scenario)
    cfg = scenario.config
    peers = sorted(n.id for n in scenario.with_role(Role.PEER))
    last = len(peers) - 1
    bundles, t = commit_phase(
        ctx, {nid: (last - i) * (cfg.n + 1) + i * cfg.n for i, nid in enumerate(peers)}
    )

    for i, x in enumerate(peers):
        for y in peers[i + 1:]:
            t = _interleaved_rapid(ctx, x, y, t) + ctx.slot_s
    estimates = Estimates.from_rows(active_rows(ctx))
    open_phase(ctx, bundles, t)
    return RunResult(scenario=scenario, trace=ctx.channel.trace, estimates=estimates)
