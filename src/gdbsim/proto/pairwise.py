"""Two-party distance bounding and its sequential baselines.

A verifier's row, its exchanges with each prover in turn, is the
record of its rounds, a Row of lists; one run_exchange call writes a
phase's rows, each verifier's in turn.  A one-way row is priced round
by round in floats on both sides, by active_bounds and by
passive_bounds for its listeners; a group phase as a whole, not row by
row (price_phase): its active rounds in one array pass, its listeners
in blocks of a few rows.  A plain row is one that
no timing policy, guess, relay, held first send or ill-fitting nonce
touches.  When every row of a call is plain, the call is one plain
block: all its rows' trace rows in one extend, their answers as one
AnswerBlock, no RunContext.emit call (RunContext.unstepped and
RunContext.sent in base hold that contract), and payloads from one
template per exchange, each round's text written once.  Its times are
one running sum over its flights and delays, row after row: a block of
one exchange sums a float list, since an array timeline made a one-way
run (n = 4 or 8, one listener) 33 us slower on 98 us (2-core x86-64
VM, numpy 2.4); any larger block sums one float64 array in place,
whose read-only views are its rows' blocks.  Otherwise the rows go one
by one, a plain one as a block of its own.  Any other row and the
interleaved chain send through RunContext.emit and answer through
RunContext.answer, one message at a time; the chain returns its
rounds.  The one-way driver runs a row of one prover, direct or
relayed, with optional eavesdropping observers; the interleaved driver
runs a 2n+1 message chain per pair of peers, both directions at once,
and with two peers is MutualInterleaved.  Both schedule the
challenger's emissions on an arrival-chained nominal timeline: each
emission is due one processing delay after the previous reply arrives.
The challenger publishes those nominal times, and observers price
their overheard timings against the published schedule, which is
exactly what a schedule-advancing challenger exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from operator import xor
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core import EPS_TIME, NodeId, ProtocolConfig, Role, Scenario, distance
from ..crypto import commit  # noqa: F401  (perfbench/tracing.py patches this name here)
from ..estimate import NegativeTimeOfFlight, active_distances, direct_bounds
from ..threat import TIMING_POLICIES, FakeLocationReport, GuessAhead, Relay
from ..threat import apply_policy  # noqa: F401  (perfbench/tracing.py patches this name here)
from .base import (
    METHOD_PASSIVE,
    AnswerBlock,
    Estimates,
    Round,
    RunContext,
    RunResult,
    active_bounds,
    active_rows,
    commit_phase,
    due_nonces,
    encode_value,
    open_phase,
    start_run,
)


@dataclass
class Row:
    """A verifier's exchanges, one per responder in run order, as true-clock lists.

    responders[e] sent exchange e's replies (a relayed exchange's front);
    t_end is the true time of the last arrival anyone needs.  A row of a
    plain block's array timeline comes with its blocks, views of it.
    """

    verifier: NodeId
    responders: List[NodeId]
    schedule: List[float]   # the verifier's published schedule, exchange by exchange
    stamps: List[float]     # each round's ask and reply send times, then any closing's
    t_end: float
    _blocks: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def blocks(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (exchanges x sends) schedule, (exchanges x rounds) asks and replies; built once,
        unless an array timeline gave them.

        A plain memo: functools.cached_property takes a lock on each first access.
        """
        if self._blocks is None:
            schedule = np.array(self.schedule).reshape(len(self.responders), -1)
            stamps = np.array(self.stamps).reshape(len(self.responders), -1)
            self._blocks = schedule, stamps[:, 0:-1:2], stamps[:, 1::2]  # any closing is last
        return self._blocks

    def rounds(self) -> Iterator[Round]:
        """The row's rounds as active_bounds takes them, exchange by exchange.

        Each is (verifier, responder, ask, reply); a closing, if any, is an
        ask past its exchange's last reply, which zip leaves out.
        """
        stamps, sent = self.stamps, len(self.stamps) // len(self.responders)
        return chain.from_iterable(
            zip(repeat(self.verifier), repeat(p), stamps[e * sent:(e + 1) * sent:2],
                stamps[e * sent + 1:(e + 1) * sent:2]) for e, p in enumerate(self.responders))


def _columns(
    verifiers: Sequence[NodeId], provers: Sequence[NodeId], n_rounds: int, closing: bool
) -> Tuple[List[NodeId], List[str], List[int]]:
    """A block's senders, kinds and round numbers, send by send, row by row.

    Each exchange alternates challenge and response, round by round,
    then sends its closing, numbered one past the last round.
    """
    c = 1 if closing else 0
    senders: List[NodeId] = []
    for v in verifiers:
        for p in provers:
            senders += [v, p] * n_rounds + [v] * c
    exchanges = len(verifiers) * len(provers)
    kinds = ["challenge", "response"] * n_rounds + ["closing"] * c
    numbers = sorted([*range(1, n_rounds + 1)] * 2) + [n_rounds + 1] * c
    return senders, kinds * exchanges, numbers * exchanges


def _plain_rows(
    ctx: RunContext,
    verifiers: Sequence[NodeId],
    provers: Sequence[NodeId],
    n_rounds: int,
    t_start: float,
    closing: bool,
) -> Optional[List[Row]]:
    """run_exchange's rows as one block, or None, having drawn and written nothing, if one is
    not plain.

    A row is plain when no party has a timing policy, guesses or relays, no
    party's last send could hold its first send in the row, and every
    nonce the row answers on is there and fits bit_len.  Then every
    send leaves at its nominal time, and each row starts at the last
    one's t_end plus the slot, so the block's times are the loop's own
    additions in its order, one running sum over [tof_out, alpha,
    tof_back, alpha] per round, row after row: a closing adds reach and
    the slot to the time it leaves, and an exchange without one adds the
    slot in place of its last alpha.  A closing's four additions end
    with two + 0.0, exact on a positive time, so that every exchange
    takes four per slot: the schedule is a stride-4 slice of the times
    and the sends a stride-2 one, less the time after each closing.
    A block of one exchange sums a float list with itertools.accumulate;
    any larger one sums one float64 array in place with
    np.add.accumulate, a strict left-to-right sum and so the same
    doubles, and each row's blocks are read-only views of it.  The
    challenges are one getrandbits map, the same stream; the payloads
    are one template per exchange, each round's text written once and
    the values filled in one pass.
    """
    policies = ctx.policies
    if n_rounds < 1 or not provers or not verifiers or any(
            isinstance(policies[v], TIMING_POLICIES) for v in verifiers):
        return None
    for p in provers:
        policy = policies[p]
        if isinstance(policy, (*TIMING_POLICIES, Relay)) or (
                isinstance(policy, GuessAhead) and policy.p_rounds):
            return None
    cfg = ctx.scenario.config
    chan = ctx.channel
    alpha, bit_len, slot = cfg.alpha, cfg.bit_len, ctx.slot_s
    answered, nonces = ctx.answered, ctx.nonces
    n, c = n_rounds, 1 if closing else 0
    width = n + c  # each exchange's slots: its rounds, then any closing
    span, sent = 4 * width, 2 * n + c  # each exchange's additions, four a slot, and sends
    exchanges = len(verifiers) * len(provers)
    row_slots, row_sends = len(provers) * width, len(provers) * sent
    # row r answers on each prover's nonces from its next one plus r rows of n
    answerers = list(provers) * len(verifiers)
    starts = [answered.get(p, 0) + r * n for r in range(len(verifiers)) for p in provers]
    due = due_nonces(nonces, answerers, starts, n)
    if len(due) < exchanges * n or not (0 <= min(due) and max(due) < 1 << bit_len):
        return None
    if exchanges == 1:
        (v,), (p,) = verifiers, provers
        tof, index = chan.trace.tof, chan.trace.index
        adds = [t_start] + [tof[index[v]][index[p]], alpha, tof[index[p]][index[v]], alpha] * n
        if closing:
            adds += [chan.reach(v), slot, 0.0, 0.0]
        else:
            adds[-1] = slot
        times = list(accumulate(adds))
        t_sends = times[0:span:2]
        t_ends, blocks = [times[span - 3] if closing else times[span - 1]], [None]
    else:
        tof, index = chan.trace.tof_array, chan.trace.index
        vs, ps = [index[v] for v in verifiers], [index[p] for p in provers]
        timeline = np.empty(1 + exchanges * span)
        timeline[0] = t_start
        adds = timeline[1:].reshape(len(verifiers), len(provers), width, 4)
        adds[:, :, :, 1::2] = alpha
        adds[:, :, :n, 0] = tof[np.ix_(vs, ps)][:, :, None]
        adds[:, :, :n, 2] = tof[np.ix_(ps, vs)].T[:, :, None]
        if closing:
            adds[:, :, n, 0] = [[chan.reach(v)] for v in verifiers]
            adds[:, :, n, 1:] = slot, 0.0, 0.0
        else:
            adds[:, :, n - 1, 3] = slot
        np.add.accumulate(timeline, out=timeline)
        timeline.flags.writeable = False
        times = timeline[:-1].reshape(len(verifiers), len(provers), width, 4)
        t_sends = times[..., 0:3:2].ravel().tolist()
        t_ends = times[:, -1, -1, 1 if closing else 3].tolist()
        blocks = [(s, times[r, :, :n, 0], times[r, :, :n, 2])
                  for r, s in enumerate(times[..., 0])]
    # each slot's first send, a challenge or a closing, leads the slot's two
    schedule = t_sends[0::2]
    if closing:
        del t_sends[2 * width - 1::2 * width]  # the time each closing's slot ends
    # the nodes in the order they first send: the first row's verifier and provers, the rest
    nodes = [verifiers[0], *provers, *verifiers[1:]]
    firsts = schedule[::row_slots]  # each verifier's first challenge
    if not ctx.unstepped(nodes, [firsts[0], *t_sends[1:row_sends:sent], *firsts[1:]]):
        return None

    challenges = list(map(ctx.rng.getrandbits, repeat(bit_len, exchanges * n)))
    values = list(map(xor, challenges, due))
    senders, kinds, numbers = _columns(verifiers, provers, n, closing)
    # one exchange's payload text, round numbers filled in and values left open
    text = b" ".join([b"c|%d|%%d r|%d|%%d"] * n + [b"x|%d|0"] * c) % tuple(numbers[:sent])
    fields = [None] * (2 * exchanges * n)
    fields[0::2], fields[1::2] = challenges, values
    payloads = (b" ".join([text] * exchanges) % tuple(fields)).split(b" ")
    chan.trace.extend(senders, t_sends, kinds, repeat("rapid", len(t_sends)), payloads, numbers)
    ctx.answers.append(AnswerBlock(answerers, starts, n, challenges, values))
    answered.update(zip(provers, [k + n for k in starts[-len(provers):]]))
    # a verifier's last send is its row's last closing or challenge, a prover's its last reply
    lasts = schedule[row_slots - 1::row_slots]
    ctx.sent(nodes, [lasts[0], *t_sends[2 * n - 1 - row_sends::sent], *lasts[1:]])
    rows = []
    for r, v in enumerate(verifiers):
        rows.append(Row(v, list(provers), schedule[r * row_slots:(r + 1) * row_slots],
                        t_sends[r * row_sends:(r + 1) * row_sends], t_ends[r]))
        rows[-1]._blocks = blocks[r]
    return rows


def run_exchange(
    ctx: RunContext,
    verifiers: Sequence[NodeId],
    provers: Sequence[NodeId],
    n_rounds: int,
    t_start: float,
    closing: bool,
) -> List[Row]:
    """Each verifier's row in turn: n_rounds timed rounds with each prover, optionally closed.

    Each row, and each exchange in it, starts one slot after the last
    one's t_end.  The closing emission carries no new challenge to
    time; it exists so that listeners get a schedule point after the
    final response.  A prover answers on its next n_rounds committed
    nonces; a guessing prover answers its first rounds ahead of the
    challenge, on guessed bits; a relaying prover's victim answers on
    its nonces, each round trip costing the whole detour.  When every
    row is plain, the whole call is one block (_plain_rows), with no
    emit calls, its closings' included.  Otherwise the rows go verifier
    by verifier: a plain one as a block of its own, any other round by
    round (_stepped_row).
    """
    rows = _plain_rows(ctx, verifiers, provers, n_rounds, t_start, closing)
    if rows is not None:
        return rows
    rows = []
    for verifier in verifiers:
        rows += _plain_rows(ctx, [verifier], provers, n_rounds, t_start, closing) or [
            _stepped_row(ctx, verifier, provers, n_rounds, t_start, closing)]
        t_start = rows[-1].t_end + ctx.slot_s
    return rows


def _stepped_row(
    ctx: RunContext,
    verifier: NodeId,
    provers: Sequence[NodeId],
    n_rounds: int,
    t_start: float,
    closing: bool,
) -> Row:
    """A verifier's row round by round, each send through RunContext.emit and each answer
    through RunContext.answer."""
    cfg = ctx.scenario.config
    chan = ctx.channel
    t_sends, payloads = chan.trace.t_send, chan.trace.payload
    alpha, bit_len = cfg.alpha, cfg.bit_len
    draw = ctx.rng.getrandbits  # draw(0) is 0 and draws nothing
    nominal_sends, stamps = [], []
    t_next = t_end = t_start
    for prover in provers:
        p_policy = ctx.policies[prover]
        guessed = p_policy.p_rounds if isinstance(p_policy, GuessAhead) else 0
        victim = p_policy.victim if isinstance(p_policy, Relay) else None
        t_nominal = t_end = t_next
        for i in range(1, n_rounds + 1):
            c_i = draw(bit_len)
            ch = ctx.emit(verifier, t_nominal, "challenge", encode_value(b"c", i, c_i), i)
            nominal_sends.append(t_nominal)
            t_in = chan.arrival_true(ch, prover)
            if victim is None:
                # a guessing prover draws its bits once the challenge is out
                guess = i <= guessed
                value = ctx.answer(prover, c_i, i, draw(bit_len) if guess else None)
                resp = ctx.emit(prover, t_in + alpha, "response", encode_value(b"r", i, value),
                                i, ch, t_in, verifier, guess)
            else:
                # the front forwards both ways at once, so no schedule trick shortens the detour
                fwd = ctx.emit(prover, t_in, "relay", payloads[ch], i, ch, t_in, verifier)
                value = ctx.answer(prover, c_i, i)
                t_in = chan.arrival_true(fwd, victim)
                vr = ctx.emit(victim, t_in + alpha, "response", encode_value(b"r", i, value), i,
                              fwd, t_in, verifier)
                t_in = chan.arrival_true(vr, prover)
                resp = ctx.emit(prover, t_in, "response", payloads[vr], i, vr, t_in, verifier)
            stamps += t_sends[ch], t_sends[resp]
            t_back = chan.arrival_true(resp, verifier)
            # the verifier recovers its honest timeline by adding back its own advance
            t_nominal = (t_back + (t_nominal - t_sends[ch])) + alpha
            t_end = max(t_end, t_back)
        if closing:
            em = ctx.emit(verifier, t_nominal, "closing", encode_value(b"x", n_rounds + 1, 0),
                          n_rounds + 1)
            nominal_sends.append(t_nominal)
            stamps.append(t_sends[em])
            t_end = max(t_end, t_sends[em] + chan.reach(verifier))
        t_next = t_end + ctx.slot_s
    return Row(verifier, list(provers), nominal_sends, stamps, t_end)


def _claimed_baseline(ctx: RunContext, pol: FakeLocationReport, observer: NodeId) -> float:
    """Verifier-observer distance as a verifier faking its location advertises it."""
    if pol.claimed_distance_m is not None:
        return pol.claimed_distance_m
    return distance(pol.claimed_pos, ctx.scenario.node(observer).pos)


def passive_observations(
    ctx: RunContext, row: Row, watchers: Sequence[NodeId]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each watcher's timing triples for every fully-framed round of a row.

    A round needs a follow-up emission, so the last round counts only
    when the exchange was closed.  Returns (exchanges x rounds x
    watchers) arrays t1, t2, t3 on each watcher's own clock, and each
    watcher's advertised baseline.  T1 and T3 are the verifier's
    published schedule plus the physical flight to the watcher; T2 is
    the overheard reply, arrival_true plus the watcher's offset.
    The baseline is the true verifier-watcher distance unless the
    verifier advertises a fake location or distance, which poisons it.
    """
    trace = ctx.channel.trace
    c = ctx.scenario.config.c
    sends, _, replies = row.blocks
    index, off = trace.index, np.array([trace.offsets[w] for w in watchers])
    # the verifier's flights to the watchers, then each responder's
    flights = trace.tof_array[[index[row.verifier]] + [index[p] for p in row.responders]][
        :, [index[w] for w in watchers]]
    dist = flights[0] * c
    base_tof = dist / c  # physical flight for schedule anchoring
    pol = ctx.policies[row.verifier]
    if isinstance(pol, FakeLocationReport):
        base = np.array([_claimed_baseline(ctx, pol, w) for w in watchers])
    else:
        base = dist
    schedule = (sends[:, :, None] + base_tof) + off
    t2 = (replies[:, :sends.shape[1] - 1, None] + flights[1:, None]) + off  # the framed rounds
    return schedule[:, :-1], t2, schedule[:, 1:], base


def observed_bound(
    cfg: ProtocolConfig, t1: np.ndarray, t2: np.ndarray, t3: np.ndarray, base: np.ndarray
) -> np.ndarray:
    """Each (exchange, watcher) bound of a passive_observations block.

    The largest direct bound over the rounds, floored at zero.  A round
    whose leg sum undercuts the verifier-prover distance is impossible
    honestly; it scores distance zero rather than aborting the run, since
    the cheat only ever shortens the bound.  An impossible timing raises
    the kernels' NegativeTimeOfFlight, the block's first in round order.
    """
    bounds = direct_bounds(t1, t2, t3, cfg.alpha, cfg.alpha, base, cfg.c)
    # a round that scores zero has a bound below zero, which cannot raise
    # a maximum floored at zero, so the raw maximum over rounds decides
    best = bounds.max(axis=1)
    return np.where(best > 0.0, best, 0.0)


def _exchange_bounds(ctx: RunContext, row: Row, e: int, others: Sequence[NodeId]) -> List[float]:
    """Each watcher's passive bound on exchange e of a row, round by round in Python floats.

    The kernels' float64 operations in the kernels' order, so the bound
    is observed_bound's bit for bit: per watcher, then per framed round,
    the leg sum, the verifier-prover distance floored at zero, their
    difference; the maximum floored at +0.0.  The first impossible
    round, watcher by watcher, raises the kernels' NegativeTimeOfFlight.
    """
    cfg = ctx.scenario.config
    alpha, c, short = cfg.alpha, cfg.c, -EPS_TIME
    trace = ctx.channel.trace
    tof, index = trace.tof, trace.index
    v_flights, p_flights = tof[index[row.verifier]], tof[index[row.responders[e]]]
    pol = ctx.policies[row.verifier]
    exchanges = len(row.responders)
    sends, sent = len(row.schedule) // exchanges, len(row.stamps) // exchanges
    schedule = row.schedule[e * sends:(e + 1) * sends]
    replies = row.stamps[e * sent + 1:(e + 1) * sent:2]
    out = []
    for w in others:
        off, dist = trace.offsets[w], v_flights[index[w]] * c
        base_tof = dist / c  # physical flight for schedule anchoring
        base = _claimed_baseline(ctx, pol, w) if isinstance(pol, FakeLocationReport) else dist
        heard = [(t + base_tof) + off for t in schedule]
        flight, best = p_flights[index[w]], 0.0
        for t1, reply, t3 in zip(heard, replies, heard[1:]):  # the framed rounds
            t2 = (reply + flight) + off
            gamma = c * ((t2 - t1) - alpha) + base
            if gamma < 0.0:
                raise NegativeTimeOfFlight(f"negative leg sum {gamma!r} m")
            tof2 = ((t3 - t1) - alpha) - alpha
            if tof2 < short:
                raise NegativeTimeOfFlight(
                    f"overheard round trip {t3 - t1!r} s shorter than processing")
            vp = c * tof2 / 2.0
            bound = gamma - (0.0 if 0.0 > vp else vp)
            if bound > best:
                best = bound
        out.append(best)
    return out


def passive_bounds(
    ctx: RunContext, row: Row, watchers: Sequence[NodeId]
) -> Tuple[List[NodeId], np.ndarray, int]:
    """Every watcher's passive bound on each responder of a row, exchange by exchange.

    Each exchange is priced round by round in floats (_exchange_bounds),
    so the first impossible round, exchange by exchange and watcher by
    watcher, raises.  Returns (others, best, rounds): the watchers other
    than the verifier, their (exchanges x others) bounds, and the number
    of rounds each framed.  A row that frames no round prices nobody:
    others is empty.
    """
    others = [w for w in watchers if w != row.verifier]
    exchanges = len(row.responders)
    rounds = len(row.schedule) // exchanges - 1
    if not others or rounds < 1:
        return [], np.empty((exchanges, 0)), 0
    return others, np.array([_exchange_bounds(ctx, row, e, others)
                             for e in range(exchanges)]), rounds


# a passive block's largest temporary, its rows' (watchers x sends x provers) stamps, holds
# at most this many float64 elements, or one row's if that is more: two rows of a 30 x 30
# MPNV phase at n_a = 8, about 128 KB; one block per phase, about 2 MB, was the slowest
_BLOCK_ELEMENTS = 1 << 14


def price_phase(
    ctx: RunContext, rows: Sequence[Row], watchers: Sequence[NodeId]
) -> Tuple[np.ndarray, np.ndarray]:
    """A group phase priced as a whole: (rows x watchers x provers) candidates, and each
    watcher's rounds.

    The rows are one phase's, every verifier's with the same provers,
    and each row's verifier is a watcher.  A row's verifier holds its
    active bounds, every other watcher its passive ones (-inf if the
    row frames no round); a watcher's rounds are n_a for the row it ran
    and the framed rounds of each row it heard.  Every float64
    operation is the one-row pricers', in their order.  The active
    bounds are one pass over the phase's (rows x provers x rounds) asks
    and replies, a prover's bound its largest round's, the first of
    equal ones.  The passive ones are priced in blocks of rows, every
    watcher at once, against flights and offsets gathered once per
    phase, each row's own verifier masked out of the checks.  If any
    pass meets an impossible round, the rows are priced again in run
    order, each row's active rounds (active_bounds) before its
    listeners (passive_bounds), to raise what pricing row by row raises
    first.
    """
    cfg = ctx.scenario.config
    alpha, c = cfg.alpha, cfg.c
    trace = ctx.channel.trace
    index, tof, offsets = trace.index, trace.tof_array, trace.offsets
    verifiers = [row.verifier for row in rows]
    place = {w: i for i, w in enumerate(watchers)}
    own = [place[v] for v in verifiers]
    vs, ws = [index[v] for v in verifiers], [index[w] for w in watchers]
    ps = [index[p] for p in rows[0].responders]
    n_rows, n_provers, n_watchers = len(rows), len(ps), len(ws)
    sends, asks, replies = (np.concatenate(block).reshape(n_rows, n_provers, -1)
                            for block in zip(*(row.blocks for row in rows)))
    n = asks.shape[2]
    framed = sends.shape[2] - 1 if n_watchers > 1 else 0
    candidates = np.full((n_rows, n_watchers, n_provers), -np.inf)
    try:
        v_off = np.array([offsets[v] for v in verifiers])[:, None, None]
        flight = tof[np.ix_(ps, vs)].T[:, :, None]  # each prover's flight to each row's verifier
        bounds = active_distances(asks + v_off, (replies + flight) + v_off, alpha, c)
        active = np.take_along_axis(bounds, bounds.argmax(axis=2)[:, :, None], axis=2)[:, :, 0]
        if framed:
            # a block is (rows x watchers x sends x provers): each (sends x provers) run of it
            # is contiguous, and so is each operand's
            sends = sends.transpose(0, 2, 1).copy()
            replies = replies[:, :, :framed].transpose(0, 2, 1).copy()
            w_off = np.array([offsets[w] for w in watchers])[:, None, None]
            # each prover's flight to each watcher, once per framed round
            flights = np.repeat(tof[np.ix_(ps, ws)].T[:, None], framed, axis=1)
            dist = tof[np.ix_(vs, ws)] * c
            base_tof = (dist / c)[:, :, None, None]  # physical flight for schedule anchoring
            base = dist.copy()
            for r, v in enumerate(verifiers):
                pol = ctx.policies[v]
                if isinstance(pol, FakeLocationReport):
                    base[r] = [_claimed_baseline(ctx, pol, w) for w in watchers]
            base = base[:, :, None, None]
            step = max(1, _BLOCK_ELEMENTS // (n_watchers * (framed + 1) * n_provers))
            for r in range(0, n_rows, step):
                block = slice(r, r + step)
                mask = np.arange(len(own[block])), own[block]  # each row's own verifier
                heard = (sends[block, None] + base_tof[block]) + w_off
                t1 = heard[:, :, :-1]
                gamma = (replies[block, None] + flights) + w_off  # t2
                gamma -= t1
                gamma -= alpha
                gamma *= c
                gamma += base[block]
                tof2 = heard[:, :, 1:] - t1
                tof2 -= alpha
                tof2 -= alpha
                gamma[mask] = tof2[mask] = 0.0  # a verifier hears no rounds of its own
                if gamma.min() < 0.0 or tof2.min() < -EPS_TIME:
                    raise NegativeTimeOfFlight("an impossible overheard round")
                tof2 *= c
                tof2 /= 2.0
                gamma -= np.maximum(tof2, 0.0, out=tof2)
                best = gamma.max(axis=2)
                candidates[block] = np.where(best > 0.0, best, 0.0)
    except NegativeTimeOfFlight:
        for row in rows:  # in run order: each row's active rounds, then its listeners
            active_bounds(ctx, row.rounds())
            passive_bounds(ctx, row, watchers)
        raise
    candidates[np.arange(n_rows), own] = active
    counts = np.full(n_watchers, n_rows * framed, dtype=np.int64)
    counts[own] += n - framed
    return candidates, counts


def run_one_way_db(scenario: Scenario) -> RunResult:
    """One verifier times one prover; anyone else listens.

    Emits 2n rapid messages, plus one closing schedule point when
    listeners are present, between the prover's commit and open.  A relaying
    prover is the verifier's partner, driven through its victim, which
    lengthens every round trip by the detour.
    """
    ctx = start_run(scenario)
    s = scenario
    cfg = s.config
    verifier = s.with_role(Role.ACTIVE_VERIFIER)[0].id
    provers = [n.id for n in s.with_role(Role.PROVER)]
    observers = [n.id for n in s.with_role(Role.PASSIVE_VERIFIER)]

    partner = next((p for p in provers if isinstance(ctx.policies[p], Relay)), provers[0])

    bundles, t = commit_phase(ctx, {partner: cfg.n})
    row, = run_exchange(ctx, [verifier], [partner], cfg.n, t_start=t, closing=bool(observers))
    rows = active_rows(ctx, row.rounds())
    open_phase(ctx, bundles, row.t_end + ctx.slot_s)

    others, best, rounds = passive_bounds(ctx, row, observers)
    rows += [(w, partner, bound, METHOD_PASSIVE, rounds, cfg.auth_enabled, False)
             for w, bound in zip(others, best[0].tolist())]
    return RunResult(scenario=s, trace=ctx.channel.trace, estimates=Estimates.from_rows(rows))


_run_relay_exchange = run_exchange  # noqa: F401  (perfbench/tracing.py patches this name here)


# ---------------------------------------------------------------------------
# interleaved chains and sequential baselines for group coverage


def _interleaved_rapid(
    ctx: RunContext,
    a: NodeId,
    b: NodeId,
    t_start: float,
) -> Tuple[float, List[Round]]:
    """The 2n+1 message chain: the true time its last message has reached everyone, and its rounds.

    The initiator a sends messages 1, 3, ..., 2n+1 and times b off each
    odd-even gap; b times a off each even-odd gap.  Each party strips
    its own last nonce from what it hears to recover the challenge it
    answers.  The rounds come in the order they close.
    """
    cfg = ctx.scenario.config
    chan = ctx.channel
    t_sends = chan.trace.t_send
    alpha = cfg.alpha
    rounds: List[Round] = []

    # a opens on its first nonce, 0 XOR nonce; c is a's newest nonce, b's challenge
    c = ctx.answer(a, 0, 1)
    prev = ctx.emit(a, t_start, "challenge", encode_value(b"m", 1, c), 1, measurer=b)
    for k in range(1, cfg.n + 1):
        v_b = ctx.answer(b, c, k)
        t_in = chan.arrival_true(prev, b)
        em_b = ctx.emit(b, t_in + alpha, "response", encode_value(b"m", 2 * k, v_b), k,
                        prev, t_in, a)
        rounds.append((a, b, t_sends[prev], t_sends[em_b]))
        s = v_b ^ c  # b's nonce, a's challenge
        v_a = ctx.answer(a, s, k)
        t_in = chan.arrival_true(em_b, a)
        em_a = ctx.emit(a, t_in + alpha, "response", encode_value(b"m", 2 * k + 1, v_a), k,
                        em_b, t_in, b)
        rounds.append((b, a, t_sends[em_b], t_sends[em_a]))
        c = v_a ^ s
        prev = em_a
    return t_sends[prev] + chan.reach(a), rounds


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
    rows = []
    for i, x in enumerate(peers):
        for y in peers[i + 1:]:
            for measurer, target in ((x, y), (y, x)):
                rows += run_exchange(ctx, [measurer], [target], cfg.n, t, False)
                t = rows[-1].t_end + ctx.slot_s
    rounds = chain.from_iterable(row.rounds() for row in rows)
    estimates = Estimates.from_rows(active_rows(ctx, rounds))
    open_phase(ctx, bundles, t)
    return RunResult(scenario=scenario, trace=ctx.channel.trace, estimates=estimates)


def run_sequential_interleaved(scenario: Scenario) -> RunResult:
    """Full mutual coverage by per-pair interleaved chains, 2n+1 each.

    A peer opens the chain with each later peer (n+1 nonces) and answers
    each earlier one (n nonces), so it commits exactly that many.  With
    two peers this is MutualInterleaved: both bound each other through
    one chain whose messages alternate c_k XOR s_k (responder) and
    c_{k+1} XOR s_k (initiator), each answering the newest foreign nonce
    and issuing a fresh one.
    """
    ctx = start_run(scenario)
    cfg = scenario.config
    peers = sorted(n.id for n in scenario.with_role(Role.PEER))
    last = len(peers) - 1
    bundles, t = commit_phase(
        ctx, {nid: (last - i) * (cfg.n + 1) + i * cfg.n for i, nid in enumerate(peers)}
    )
    rounds: List[Round] = []
    for i, x in enumerate(peers):
        for y in peers[i + 1:]:
            t_end, chain_rounds = _interleaved_rapid(ctx, x, y, t)
            rounds += chain_rounds
            t = t_end + ctx.slot_s
    estimates = Estimates.from_rows(active_rows(ctx, rounds))
    open_phase(ctx, bundles, t)
    return RunResult(scenario=scenario, trace=ctx.channel.trace, estimates=estimates)
