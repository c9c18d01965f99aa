"""The rapid-phase row writer against the message-by-message oracle.

Every one-way and group run is made twice: once as gdbsim makes it,
a phase's rows in one writer call (a phase of plain rows as one block
of columns with its answers as one block, otherwise row by row, a
plain row as a block of its own and any other send by send through
RunContext.emit and RunContext.answer), priced as arrays or round by
round off its stamps; and once with exchange_oracle's emit, broadcast,
answer, one exchange per prover, per-round active_distance pricing and
group_oracle's row-after-row phase pricing patched in.  Both must leave the same trace, answers (a block spelled
out answer by answer), last sends, row records (the rows of every
call, in turn) and error, bit for bit.
"""
import dataclasses
import gc
from collections import Counter
from functools import reduce
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exchange_oracle
import group_oracle
from gdbsim.core import (
    LengthMismatch, NodeSpec, Protocol, Role, active_verifier_count, validate_scenario,
)
from gdbsim.estimate import NegativeTimeOfFlight
from gdbsim.proto import base, group, pairwise
from gdbsim.proto.base import AnswerBlock, ResponseMismatch, commit_phase, start_run
from gdbsim.proto.pairwise import Row
from gdbsim.proto.runner import run_scenario
from gdbsim.scenarios import mpnv_scenario, ntom_scenario, oneway_scenario, with_policy
from gdbsim.simkit import CausalityViolation
from gdbsim.threat import EarlyChallenge, GuessAhead, Honest, Relay, SelectiveDelay

ORACLE = [
    (pairwise, "run_exchange", exchange_oracle.run_exchange),
    (group, "run_exchange", exchange_oracle.run_exchange),
    (base, "active_bounds", exchange_oracle.active_bounds),
    (group, "price_phase", group_oracle.price_rows),
    (Row, "rounds", exchange_oracle.row_rounds),
]
WRITERS = [(pairwise, "run_exchange"), (group, "run_exchange")]


def run(scenario, oracle, patches=()):
    """(context, result, error, row records) of one run, by the writer or by the oracle.

    A scenario must declare bit_len >= 1; the runs here may have 0, for
    which no bits are drawn, so validation sees the scenario with 1.
    patches are (module, name, value) to set for the run as well.
    """
    contexts, records = [], []
    config = scenario.config
    assert validate_scenario(dataclasses.replace(
        scenario, config=dataclasses.replace(config, bit_len=max(config.bit_len, 1)))) == []

    def spy(s):
        contexts.append(start_run(s))
        return contexts[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(base, "ensure_valid", lambda s: s)
        for module in (pairwise, group):
            mp.setattr(module, "start_run", spy)
        for module, name, value in [*patches, *(ORACLE if oracle else ())]:
            mp.setattr(module, name, value)
        for module, name in WRITERS:
            mp.setattr(module, name, recorded(getattr(module, name), records))
        try:
            result, error = run_scenario(scenario), None
        except Exception as exc:  # compared below, type and text
            result, error = None, exc
    ctx, = contexts
    return ctx, result, error, records


def recorded(writer, records):
    """writer, recording each row it returns: the records are rows, flattened over calls."""
    def run_and_record(*args, **kwargs):
        rows = writer(*args, **kwargs)
        records.extend(rows)
        return rows
    return run_and_record


def floats(values):
    """An array's shape and its entries by repr, so -0.0 and 0.0 differ."""
    values = np.asarray(values)
    return values.shape, list(map(repr, values.ravel().tolist()))


def state(ctx, result, error, records):
    """Everything the writer must reproduce, floats by repr."""
    trace = ctx.channel.trace
    return {
        "rows": [(row.verifier, row.responders, floats(row.schedule), floats(row.stamps),
                  repr(row.t_end)) for row in records],
        "columns": [trace.sender, list(map(repr, trace.t_send)), trace.kind, trace.phase,
                    trace.payload, trace.round_index],
        "answers": exchange_oracle.answer_log(ctx.answers),
        "answered": ctx.answered,
        # by repr: the order each node first sent in, and each time's bits
        "last_send": repr(ctx.channel.last_send),
        "estimates": None if result is None else [repr(row) for row in result.estimates],
        "error": None if error is None else (type(error), str(error)),
    }


def assert_writer_matches_oracle(scenario):
    writer, oracle = run(scenario, False), run(scenario, True)
    assert state(*writer) == state(*oracle)
    if writer[1] is not None:
        assert writer[1] == oracle[1]


delays = st.floats(min_value=0.0, max_value=2e-6)
early_challenges = st.builds(EarlyChallenge, advance_s=delays,
                             pr_ch=st.floats(min_value=0.0, max_value=1.0))


@st.composite
def selective_delays(draw, targets):
    indices = draw(st.lists(st.integers(min_value=0, max_value=12), unique=True, max_size=4))
    return SelectiveDelay(
        delay_s=draw(st.sampled_from([0.0, 3e-8]) | delays),
        per_message=tuple((i, draw(delays)) for i in indices),
        target=draw(st.sampled_from([None, *targets])),
    )


@st.composite
def prover_policies(draw, n, targets):
    guesses = st.builds(GuessAhead, p_rounds=st.integers(min_value=0, max_value=n),
                        advance_s=delays)
    return draw(st.just(Honest()) | guesses | selective_delays(targets))


@st.composite
def one_way_runs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    coord = st.floats(min_value=-300.0, max_value=300.0)
    places = draw(st.lists(st.tuples(coord, coord), min_size=4, max_size=4, unique=True))
    relay = draw(st.booleans())
    scenario = oneway_scenario(
        v_pos=places[0], p_pos=places[1], n=n, seed=draw(st.integers(0, 2**16)),
        alpha=draw(st.sampled_from([0.0, 1e-8])),
        observer_pos=draw(st.sampled_from([None, places[2]])),
        prover_policy=draw(prover_policies(n, [1, 3] if relay else [1])),
        extra_nodes=[NodeSpec(id=3, pos=places[3], role=Role.PROVER, policy=Relay(victim=2))]
        if relay else (),
        bit_len=draw(st.integers(min_value=0, max_value=3)),
    )
    if relay:
        # the victim answers honestly: a relayed exchange has no guessed rounds
        scenario = with_policy(scenario, 2, Honest())
    return with_policy(scenario, 1, draw(st.just(Honest()) | early_challenges))


@st.composite
def mpnv_runs(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    n_v = draw(st.integers(min_value=2, max_value=4))
    m_p = draw(st.integers(min_value=1, max_value=3))
    scenario = mpnv_scenario(n=n, n_a=draw(st.integers(min_value=1, max_value=n)),
                             d_a=draw(st.sampled_from([0.5, 1.0])), n_verifiers=n_v,
                             m_provers=m_p, seed=draw(st.integers(0, 2**16)))
    scenario = dataclasses.replace(scenario, config=dataclasses.replace(
        scenario.config, bit_len=draw(st.integers(min_value=0, max_value=3))))
    verifiers = list(range(1, n_v + 1))
    for v in draw(st.lists(st.sampled_from(verifiers), unique=True, max_size=2)):
        scenario = with_policy(scenario, v, draw(early_challenges))
    for p in draw(st.lists(st.sampled_from(range(n_v + 1, n_v + m_p + 1)), unique=True,
                           max_size=2)):
        scenario = with_policy(scenario, p, draw(prover_policies(n, verifiers)))
    return scenario


@settings(max_examples=200, deadline=None)
@given(scenario=one_way_runs())
# an early challenge reaches the guesser before its last answer left: held guesses
@example(scenario=with_policy(
    oneway_scenario(v_pos=(0.0, 0.0), p_pos=(30.0, 0.0), n=3, seed=213,
                    prover_policy=GuessAhead(p_rounds=3, advance_s=20e-9)),
    1, EarlyChallenge(advance_s=1e-6, pr_ch=0.5)))
# the passive pricing refuses the run with NegativeTimeOfFlight
@example(scenario=with_policy(
    oneway_scenario(n=8, seed=3, observer_pos=(40.0, 30.0)),
    1, EarlyChallenge(advance_s=1e-6, pr_ch=1.0)))
def test_one_way_writer_matches_the_oracle(scenario):
    assert_writer_matches_oracle(scenario)


@settings(max_examples=120, deadline=None)
@given(scenario=mpnv_runs())
def test_mpnv_writer_matches_the_oracle(scenario):
    assert_writer_matches_oracle(scenario)


@st.composite
def honest_group_runs(draw):
    """An honest MPNV run, or an NtoM-passive one, whose second phase's verifiers are
    the first phase's provers; each phase from one active verifier up to all, with
    and without closings; and the run's number of phases."""
    n = draw(st.integers(min_value=1, max_value=4))
    sizes = st.integers(min_value=1, max_value=6)
    seed = draw(st.integers(0, 2**16))

    def phase(size):  # (n_a, d_a) selecting `active` of size verifiers
        active = draw(st.integers(min_value=1, max_value=size))
        d_a = active / size
        assert active_verifier_count(d_a, size) == active
        return draw(st.integers(min_value=1, max_value=n)), d_a

    if draw(st.booleans()):
        n_v, m_p = draw(sizes), draw(sizes)
        n_a, d_a = phase(n_v)
        scenario = mpnv_scenario(n=n, n_a=n_a, d_a=d_a, n_verifiers=n_v, m_provers=m_p,
                                 seed=seed)
        phases = 1
    else:
        size_n, size_m = draw(sizes), draw(sizes)
        (n_a1, d_1), (n_a2, d_2) = phase(size_n), phase(size_m)
        scenario = ntom_scenario(Protocol.NTOM_PASSIVE, size_n, size_m, n=n, seed=seed,
                                 d_1=d_1, d_2=d_2, n_a1=n_a1, n_a2=n_a2)
        phases = 2
    return dataclasses.replace(scenario, config=dataclasses.replace(
        scenario.config, bit_len=draw(st.integers(min_value=0, max_value=3)))), phases


@settings(max_examples=150, deadline=None)
@given(drawn=honest_group_runs())
# full activity, so no closings: the all-active baseline as one block
@example(drawn=(mpnv_scenario(n=2, n_a=2, d_a=1.0, n_verifiers=3, m_provers=2), 1))
# one verifier and one prover: a block of one exchange, the float timeline
@example(drawn=(mpnv_scenario(n=3, n_a=2, d_a=1.0, n_verifiers=1, m_provers=1), 1))
def test_an_honest_phase_is_one_block_that_matches_the_oracle(drawn):
    """Every honest group phase is written as one block: no emit call, one
    AnswerBlock a phase, holding every selected verifier's row, and the
    oracle's rows, trace columns, answers, answered counts, last sends and
    estimates, by repr, message by message."""
    scenario, phases = drawn
    writer, oracle = run(scenario, False), run(scenario, True)
    assert writer[2] is None
    assert state(*writer) == state(*oracle)
    calls, (ctx, _, _, records) = emit_calls(scenario)
    assert calls == []
    blocks = ctx.answers
    assert len(blocks) == phases and all(isinstance(b, AnswerBlock) for b in blocks)
    assert [p for b in blocks for p in b.nodes] == [p for r in records for p in r.responders]


@settings(max_examples=300, deadline=None)
@given(t_start=st.floats(allow_nan=False),
       adds=st.lists(st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, 5e-324]),
                     max_size=40))
def test_the_array_timeline_is_accumulate_by_repr(t_start, adds):
    """np.add.accumulate in place over one array, t_start at index 0, is
    itertools.accumulate's strict left-to-right sum of the same additions,
    signed zeros and rounding included, by repr."""
    timeline = np.empty(1 + len(adds))
    timeline[0], timeline[1:] = t_start, adds
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan, as the floats give them
        np.add.accumulate(timeline, out=timeline)
    assert list(map(repr, timeline.tolist())) == list(map(repr, accumulate([t_start, *adds])))


def test_refused_runs_match_the_oracle():
    """A run refused by active or by passive pricing leaves the same state and text."""
    held = with_policy(
        oneway_scenario(v_pos=(0.0, 0.0), p_pos=(30.0, 0.0), n=3, seed=213, alpha=1e-8,
                        prover_policy=GuessAhead(p_rounds=3, advance_s=1e-6)),
        1, EarlyChallenge(advance_s=1e-6, pr_ch=1.0))
    passive = with_policy(oneway_scenario(n=8, seed=3, observer_pos=(40.0, 30.0)),
                          1, EarlyChallenge(advance_s=1e-6, pr_ch=1.0))
    for scenario in (held, passive):
        assert isinstance(run(scenario, True)[2], NegativeTimeOfFlight)
        assert_writer_matches_oracle(scenario)


@pytest.mark.parametrize("scenario, node", [
    (oneway_scenario(n=3, observer_pos=(40.0, 30.0)), 2),
    # the second prover of the first row: the row stops mid-way
    (mpnv_scenario(n=3, n_a=2, d_a=0.5, n_verifiers=4, m_provers=3), 6),
])
def test_an_oversized_nonce_raises_what_the_oracle_raises(scenario, node):
    """A committed nonce wider than bit_len stops the row with the oracle's
    LengthMismatch, its text, and the trace, logs and last sends written
    up to it, also inside a plain exchange."""
    def widened(commit_phase):
        def commit_and_widen(ctx, counts):
            out = commit_phase(ctx, counts)
            nonces = ctx.nonces[node]
            ctx.nonces[node] = nonces[:1] + (1 << ctx.bit_len,) + nonces[2:]
            return out
        return commit_and_widen

    patches = [(module, "commit_phase", widened(module.commit_phase))
               for module in (pairwise, group)]
    writer, oracle = run(scenario, False, patches), run(scenario, True, patches)
    assert isinstance(writer[2], LengthMismatch)
    assert state(*writer) == state(*oracle)
    # the nonce's row would be plain, but is sent through emit up to the nonce;
    # the rows before ran plain
    calls, (ctx, _, _, records) = emit_calls(scenario, patches)
    assert Counter(calls) == expected_emit_calls(ctx, records)
    trace = ctx.channel.trace
    cut = [node for node, phase in zip(trace.sender, trace.phase) if phase == "rapid"][
        sum(len(row.stamps) for row in records):]
    assert cut and Counter(calls) == Counter(cut)
    assert emit_calls(scenario)[0] == []  # unwidened, every row is plain


def emit_calls(scenario, patches=()):
    """The node of every RunContext.emit call a run by the writer makes, in order, and the run."""
    calls = []
    emit = base.RunContext.emit

    def spied(ctx, node, *args, **kwargs):
        calls.append(node)
        return emit(ctx, node, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(base.RunContext, "emit", spied)
        outcome = run(scenario, False, patches)
    return calls, outcome


def stepping(policy):
    return isinstance(policy, (SelectiveDelay, EarlyChallenge)) or (
        isinstance(policy, GuessAhead) and policy.p_rounds > 0)


def expected_emit_calls(ctx, records):
    """Each node's emit calls: every send of a row where any party has a timing
    policy or guesses, closings included, and none of a plain row's.  A row
    cut short by an error, after the recorded ones, went through emit."""
    trace = ctx.channel.trace
    rapid = [node for node, phase in zip(trace.sender, trace.phase) if phase == "rapid"]
    want, at = Counter(), 0
    for row in records:
        sends = rapid[at:at + len(row.stamps)]
        at += len(sends)
        if any(stepping(ctx.policies[node]) for node in [row.verifier, *row.responders]):
            want.update(sends)
    want.update(rapid[at:])
    return want


MPNV = mpnv_scenario(n=3, n_a=2, d_a=0.5, n_verifiers=4, m_provers=3)


@pytest.mark.parametrize("scenario", [
    # plain rows: every exchange is honest, and not even the closings go through emit
    MPNV,
    oneway_scenario(n=4, observer_pos=(40.0, 30.0)),
    # mixed rows: one prover in each row would be stepped, so the whole row is
    with_policy(MPNV, 6, SelectiveDelay(delay_s=3e-8)),
    with_policy(MPNV, 5, GuessAhead(p_rounds=1, advance_s=1e-9)),
    # stepped rows: every verifier may challenge early
    reduce(lambda s, v: with_policy(s, v, EarlyChallenge(1e-8, 0.5)), [1, 2, 3, 4], MPNV),
    with_policy(oneway_scenario(n=4, observer_pos=(40.0, 30.0)), 2, SelectiveDelay(3e-8)),
], ids=["mpnv-plain", "oneway-plain", "mpnv-mixed-delay", "mpnv-mixed-guess",
        "mpnv-stepped", "oneway-stepped"])
def test_plain_stepped_and_mixed_rows_match_the_oracle(scenario):
    """Plain rows, stepped ones and rows with one stepping party leave the
    oracle's state; a send goes through emit exactly when its row is stepped.
    A plain row's closings skip emit too: unstepped clears every send of the
    row, which RunContext.emit's contract lets skip it."""
    assert_writer_matches_oracle(scenario)
    calls, (ctx, _, _, records) = emit_calls(scenario)
    assert Counter(calls) == expected_emit_calls(ctx, records)


@pytest.mark.parametrize("early", [1, 4])  # the two verifiers MPNV selects
def test_one_early_verifier_steps_only_its_own_row(early):
    """A phase with one stepping row is not one block: it runs row by row, the
    early verifier's row send by send through emit and the other one as a plain
    block of its own, one AnswerBlock, and the run leaves the oracle's state."""
    scenario = with_policy(MPNV, early, EarlyChallenge(1e-8, 0.5))
    assert_writer_matches_oracle(scenario)
    calls, (ctx, _, _, records) = emit_calls(scenario)
    assert [row.verifier for row in records] == [1, 4]
    assert Counter(calls) == expected_emit_calls(ctx, records)
    stepped, = (row for row in records if row.verifier == early)
    plain, = (row for row in records if row.verifier != early)
    assert set(calls) == {early, *stepped.responders} and len(calls) == len(stepped.stamps)
    block, = (entry for entry in ctx.answers if isinstance(entry, AnswerBlock))
    assert block.nodes == plain.responders


def test_a_phase_short_of_nonces_is_refused_whole_then_runs_row_by_row():
    """A phase whose last row would run past a prover's committed nonces is no
    block: _plain_rows refuses it having drawn and written nothing, and
    run_exchange then runs it row by row as the oracle does, its first rows
    plain, up to the missing nonce's IndexError."""
    scenario = mpnv_scenario(n=3, n_a=2, d_a=1.0, n_verifiers=3, m_provers=3)
    verifiers, provers = [1, 2, 3], [4, 5, 6]
    outcomes, entries = [], []
    for writer in (pairwise.run_exchange, exchange_oracle.run_exchange):
        ctx = start_run(scenario)
        # prover 5 commits one nonce short of the last row's two
        _, t = commit_phase(ctx, {p: 2 * len(verifiers) - (p == 5) for p in provers})
        trace = ctx.channel.trace

        def snapshot():
            return (ctx.rng.getstate(), [list(column) for column in trace.columns()],
                    list(ctx.answers), dict(ctx.answered), repr(ctx.channel.last_send))

        before = snapshot()
        assert pairwise._plain_rows(ctx, verifiers, provers, 2, t, True) is None
        assert snapshot() == before
        with pytest.raises(IndexError) as exc:
            writer(ctx, verifiers, provers, 2, t, True)
        outcomes.append(state(ctx, None, exc.value, []))
        entries.append([type(entry).__name__ for entry in ctx.answers])
    assert outcomes[0] == outcomes[1]
    # the writer's first two rows are blocks of their own; the last answers one at a
    # time, prover 4's two rounds and 5's first, as the oracle answers all of them
    assert entries == [["AnswerBlock"] * 2 + ["tuple"] * 3, ["tuple"] * (2 * 2 * 3 + 3)]


def test_an_honest_mpnv_row_makes_no_step_calls():
    """With every verifier active for all n rounds there is no closing, so an
    honest run's rapid phase calls no emit at all: the plain path ran."""
    scenario = mpnv_scenario(n=3, n_a=3, d_a=1.0, n_verifiers=3, m_provers=4)
    assert emit_calls(scenario)[0] == []
    assert_writer_matches_oracle(scenario)


def test_a_delayed_prover_counts_only_its_own_sends():
    """SelectiveDelay's per_message index is the prover's own count of its
    rapid sends, though the other provers go through emit in the same rows
    and count nothing: exactly the named replies, one in each of the second
    and third rows, leave their delay late, and the run leaves the oracle's
    state."""
    delays = {3: 4e-8, 4: 5e-8}  # its second row's last reply, its third row's first
    scenario = with_policy(mpnv_scenario(n=3, n_a=2, d_a=1.0, n_verifiers=3, m_provers=3),
                           5, SelectiveDelay(per_message=tuple(delays.items())))
    assert_writer_matches_oracle(scenario)
    ctx, _, _, records = run(scenario, False)
    alpha = scenario.config.alpha
    replies = Counter()
    for v, prover, ask, reply in (r for row in records for r in exchange_oracle.row_rounds(row)):
        late = delays.get(replies[prover], 0.0) if prover == 5 else 0.0
        replies[prover] += 1
        assert reply == (ask + ctx.channel.tof(v, prover) + alpha) + late
    assert replies == {4: 6, 5: 6, 6: 6}  # three rows of two rounds
    calls, (ctx, _, _, records) = emit_calls(scenario)
    assert Counter(calls) == expected_emit_calls(ctx, records)


@pytest.mark.parametrize("held", ["prover", "verifiers"])
def test_a_held_first_send_takes_the_stepped_path(held):
    """A row with a first send its node's last_send holds goes through emit,
    which holds that send: the oracle's state, and only that row is stepped."""
    nodes = [4] if held == "prover" else [1, 2, 3]  # 4 is every row's first prover
    holds = []

    def holding(commit_phase):
        def commit_and_hold(ctx, counts):
            bundles, t = commit_phase(ctx, counts)
            holds.append(t + 1e-6)
            for node in nodes:
                ctx.channel.last_send[node] = holds[-1]
            return bundles, t
        return commit_and_hold

    scenario = mpnv_scenario(n=3, n_a=2, d_a=0.5, n_verifiers=3, m_provers=3)
    patches = [(group, "commit_phase", holding(group.commit_phase))]
    writer, oracle = run(scenario, False, patches), run(scenario, True, patches)
    assert state(*writer) == state(*oracle)
    calls = emit_calls(scenario, patches)[0]
    ctx, records = writer[0], writer[3]
    trace, row = ctx.channel.trace, records[0]
    ask = trace.phase.index("rapid")  # the first row's first challenge
    first = ask + 1 if held == "prover" else ask
    assert trace.sender[first] in nodes and trace.t_send[first] == holds[-1]
    # the held row's sends all stepped, both ways, its closings too; every other row ran plain
    assert Counter(calls) == Counter(trace.sender[ask:ask + len(row.stamps)])
    assert expected_emit_calls(ctx, records) == Counter()


@settings(max_examples=300, deadline=None)
@given(prevs=st.lists(st.none() | st.sampled_from([1.0, 1.0 + 1e-15, 2.0]), min_size=2,
                      max_size=2),
       gaps=st.lists(st.sampled_from([0.0, 1e-16, 1e-15, 2e-15, 1e-9, 1.0]), max_size=6),
       start=st.sampled_from([-1e-15, -5e-16, 0.0, 1e-16, -1e-9]))
def test_sent_records_what_the_steps_record(prevs, gaps, start):
    """RunContext.unstepped says emit leaves every send of a non-decreasing
    run of rounds as it is exactly when it does, and then RunContext.sent
    leaves the last_send emit leaves, by repr, the slack included.
    Node 1 asks, node 2 replies."""
    t, sends = 1.0 + start, []
    for gap in gaps:
        t += gap
        sends.append(t)
    contexts = []
    for _ in range(2):
        contexts.append(start_run(oneway_scenario()))
        for node, prev in zip((1, 2), prevs):
            if prev is not None:
                contexts[-1].channel.last_send[node] = prev
    stepped, recorded = contexts
    unstepped = stepped.unstepped((1, 2), sends)
    t_sends = stepped.channel.trace.t_send
    timed = [t_sends[stepped.emit(1 + k % 2, t, "response", b"", 1)] for k, t in enumerate(sends)]
    assert (timed == sends) == unstepped
    lasts = [(node, own[-1]) for node, own in ((1, sends[0::2]), (2, sends[1::2])) if own]
    recorded.sent([node for node, _ in lasts], [t for _, t in lasts])
    if unstepped:
        assert repr(stepped.channel.last_send) == repr(recorded.channel.last_send)


def test_a_late_reply_raises_what_broadcast_raised():
    """emit's causality check: same error, same text, same last sends, no row."""
    got = []
    for oracle in (False, True):
        ctx = start_run(oneway_scenario())
        chan = ctx.channel
        ask = chan.broadcast(1, 1.0, "challenge", "rapid")
        t_in = chan.arrival_true(ask, 2)
        with pytest.raises(CausalityViolation) as exc:
            if oracle:
                exchange_oracle.emit(ctx, 2, t_in - 1e-9, "response", b"", 1, ask, 1)
            else:
                ctx.emit(2, t_in - 1e-9, "response", b"", 1, ask, t_in, 1)
        got.append((str(exc.value), chan.last_send, chan.trace.count()))
    assert got[0] == got[1]
    assert got[0][0].startswith("node 2 sends at ")


@settings(max_examples=150, deadline=None)
@given(scenario=one_way_runs() | mpnv_runs(), data=st.data())
def test_active_bounds_match_per_round_pricing(scenario, data):
    """Any rounds paired from a run's rapid sends, impossible ones included, price as
    active_distance does."""
    ctx = run(scenario, False)[0]
    trace = ctx.channel.trace
    rapid = [seq for seq, phase in enumerate(trace.phase) if phase == "rapid"]
    pairs = st.tuples(st.sampled_from(rapid), st.sampled_from(rapid)).filter(
        lambda pair: trace.sender[pair[0]] != trace.sender[pair[1]])
    rounds = [(trace.sender[ask], trace.sender[reply], trace.t_send[ask], trace.t_send[reply])
              for ask, reply in data.draw(st.lists(pairs, max_size=12), label="rounds")]
    priced = []
    for oracle in (base, exchange_oracle):
        try:
            priced.append(repr(oracle.active_bounds(ctx, rounds)))
        except NegativeTimeOfFlight as exc:
            priced.append((type(exc), str(exc)))
    assert priced[0] == priced[1]


@pytest.mark.parametrize("short_s", [1.5e-12, 0.5e-12, 0.0, -3e-9])
def test_active_bounds_refuse_exactly_past_eps_time(short_s):
    """A round trip short of alpha by more than EPS_TIME is refused, as per round."""
    ctx = start_run(oneway_scenario(n=1, alpha=1e-8))
    trace = ctx.channel.trace
    back = 1.0 + 1e-8 - short_s  # the reply's arrival at node 1
    rounds = [(1, 2, 1.0, back - ctx.channel.tof(2, 1))]
    priced = []
    for oracle in (base, exchange_oracle):
        try:
            priced.append(repr(oracle.active_bounds(ctx, rounds)))
        except NegativeTimeOfFlight as exc:
            priced.append(str(exc))
    assert priced[0] == priced[1]
    assert priced[0].startswith("round trip") == (short_s > 1e-12)


signed_zeros = st.sampled_from([0.0, -0.0])


@st.composite
def timed_rows(draw):
    """(alpha, verifier offset, each responder's flight, asks, replies) of a verifier row.

    Stamps near zero, with both signed zeros, so that rounds tie at
    -0.0 and 0.0 and some are impossible.
    """
    exchanges = draw(st.integers(min_value=1, max_value=3))
    rounds = draw(st.integers(min_value=1, max_value=4))
    stamp = signed_zeros | st.sampled_from([1e-8, 1e-6]) | st.floats(0.0, 2e-6)
    block = st.lists(st.lists(stamp, min_size=rounds, max_size=rounds),
                     min_size=exchanges, max_size=exchanges)
    return (draw(st.sampled_from([0.0, 1e-8])), draw(signed_zeros | st.floats(0.0, 1.0)),
            draw(st.lists(signed_zeros | st.floats(0.0, 1e-6), min_size=exchanges,
                          max_size=exchanges)),
            draw(block), draw(block))


@settings(max_examples=300, deadline=None)
@given(timed=timed_rows())
# a round reads -0.0, then one reads 0.0, or the other way round: the first of equal bounds wins
@example(timed=(0.0, -0.0, [-0.0], [[0.0, 1e-8]], [[-0.0, 1e-8]]))
@example(timed=(0.0, -0.0, [-0.0, -0.0], [[0.0, 0.0], [0.0, 0.0]], [[-0.0, 0.0], [0.0, -0.0]]))
# the second exchange's first round and the first's second are impossible
@example(timed=(1e-8, 0.5, [1e-7, 1e-7], [[0.0, 1e-6], [1e-6, 0.0]], [[0.0, 0.0], [0.0, 0.0]]))
def test_row_active_pricing_matches_the_loop_and_per_round_pricing(timed):
    """A row's rounds priced as arrays give active_bounds' loop, fed the rounds or the
    row's stamps, and active_distance, by repr.

    Each responder's bound is the first of its largest rounds', signed
    zeros told apart; an impossible round raises the same first error,
    with the same text, as pricing the rounds one by one.  Each flight
    is injected in one place, the trace's rows, before anything reads
    them, and every reader sees it.
    """
    alpha, offset, flights, asks, replies = timed
    exchanges, rounds = len(asks), len(asks[0])
    scenario = mpnv_scenario(n=rounds, n_a=rounds, d_a=1.0, n_verifiers=1,
                             m_provers=exchanges)
    ctx = start_run(dataclasses.replace(
        scenario, config=dataclasses.replace(scenario.config, alpha=alpha)))
    trace = ctx.channel.trace
    responders = list(range(2, exchanges + 2))
    trace.offsets[1] = offset
    ledger, stamps = [], []
    for p, flight in zip(responders, flights):
        trace.tof[trace.index[p]][trace.index[1]] = flight
        for ask, reply in zip(asks[p - 2], replies[p - 2]):
            ledger.append((1, p, ask, reply))
            stamps += [ask, reply]
        stamps.append(0.0)  # the exchange's closing
    for p, flight in zip(responders, flights):
        reply = trace.append(p, replies[p - 2][0], "response", "rapid", b"", 1)
        at = trace.index[p], trace.index[1]
        assert repr(ctx.channel.tof(p, 1)) == repr(float(trace.tof_array[at])) == repr(flight)
        assert repr(trace.arrival_true(reply, 1)) == repr(trace.t_send[reply] + flight)
    row = Row(1, responders, [0.0] * (exchanges * (rounds + 1)), stamps, 0.0)
    # the rounds and the row's stamps name the same rounds, signed zeros included
    assert repr(ledger) == repr(exchange_oracle.row_rounds(row))
    assert repr(list(row.rounds())) == repr(exchange_oracle.row_rounds(row))
    priced = []
    for pricer, fed in ((base, ledger), (exchange_oracle, ledger),
                        (base, exchange_oracle.row_rounds(row)), (pairwise, None)):
        try:
            if fed is None:
                # a phase of this one row, its verifier the only watcher: active bounds only
                candidates, counts = pairwise.price_phase(ctx, [row], [1])
                assert counts.tolist() == [rounds] and candidates.shape == (1, 1, exchanges)
                bounds = candidates[0, 0].tolist()
            else:
                out = pricer.active_bounds(ctx, fed)
                assert [out[(1, p)][1] for p in responders] == [rounds] * exchanges
                bounds = [out[(1, p)][0] for p in responders]
            priced.append(list(map(repr, bounds)))
        except NegativeTimeOfFlight as exc:
            priced.append((type(exc), str(exc)))
    assert priced[0] == priced[1] == priced[2] == priced[3]


def tampered(tamper, j):
    """open_phase patches that apply tamper(ctx, j) to the log and the nonces just before
    the replay, in each driver module that opens."""
    def wrap(open_phase):
        def tamper_and_open(ctx, bundles, t, *args):
            tamper(ctx, j)
            return open_phase(ctx, bundles, t, *args)
        return tamper_and_open
    return [(module, "open_phase", wrap(module.open_phase)) for module in (pairwise, group)]


def flip_value(ctx, j, bit=1):
    """Flip a bit, the low one by default, of the jth logged value, in a row's block or in
    an answer's entry."""
    for e, entry in enumerate(ctx.answers):
        if isinstance(entry, AnswerBlock):
            if j < len(entry.values):
                entry.values[j] ^= bit
                return
            j -= len(entry.values)
        elif j == 0:
            node, k, operand, value, round_index = entry
            ctx.answers[e] = (node, k, operand, value ^ bit, round_index)
            return
        else:
            j -= 1
    raise IndexError("no such answer")


def widen_nonce(ctx, j):
    """Make the nonce the jth answer is due on one bit too wide."""
    node, k, *_ = exchange_oracle.answer_log(ctx.answers)[j]
    nonces = ctx.nonces[node]
    ctx.nonces[node] = nonces[:k] + (1 << ctx.bit_len,) + nonces[k + 1:]


def widen_answer(ctx, j):
    """Set the bit just above bit_len in the nonce the jth answer is due on and in its
    value, which so stays its operand XOR that nonce."""
    node, k, *_ = exchange_oracle.answer_log(ctx.answers)[j]
    nonces = ctx.nonces[node]
    ctx.nonces[node] = nonces[:k] + (nonces[k] | 1 << ctx.bit_len,) + nonces[k + 1:]
    flip_value(ctx, j, 1 << ctx.bit_len)


@pytest.mark.parametrize("scenario", [
    MPNV,
    reduce(lambda s, v: with_policy(s, v, EarlyChallenge(1e-8, 0.5)), [1, 2, 3, 4], MPNV),
    oneway_scenario(n=4, observer_pos=(40.0, 30.0)),
    with_policy(oneway_scenario(n=4, observer_pos=(40.0, 30.0)), 2, SelectiveDelay(3e-8)),
], ids=["mpnv-plain", "mpnv-stepped", "oneway-plain", "oneway-stepped"])
@pytest.mark.parametrize("tamper, error", [(flip_value, ResponseMismatch),
                                           (widen_nonce, LengthMismatch),
                                           (widen_answer, LengthMismatch)])
def test_a_tampered_answer_fails_the_replay_as_the_per_answer_replay_does(
        scenario, tamper, error):
    """Each answer in turn, a flipped value, a nonce too wide for it, or a nonce and
    value both widened so that the value still matches, fails the replay of a row's
    block, or of a stepped row's per-answer entries, with the error and text of the
    oracle's log, which holds one entry per answer, replayed one at a time, and
    names that answer."""
    ctx = run(scenario, False)[0]
    log = exchange_oracle.answer_log(ctx.answers)
    plain = not any(stepping(node.policy) for node in scenario.nodes)
    assert log and all(isinstance(entry, AnswerBlock) == plain for entry in ctx.answers)
    for j, (node, k, _, _, round_index) in enumerate(log):
        patches = tampered(tamper, j)
        writer, oracle = run(scenario, False, patches), run(scenario, True, patches)
        assert isinstance(writer[2], error)
        assert state(*writer) == state(*oracle)
        if error is ResponseMismatch:
            assert str(writer[2]) == str(ResponseMismatch(round_index, node, k))


def replayed(block, nonces, top):
    """The per-answer replay of a block: each answer in turn against its nonce, the first
    that is not its operand XOR the nonce, both in [0, top), named as failure names it."""
    j = 0
    for node, start in zip(block.nodes, block.starts):
        for k in range(start, start + block.rounds):
            operand, value, nonce = block.operands[j], block.values[j], nonces[node][k]
            j += 1
            if value != operand ^ nonce or not (0 <= operand < top and 0 <= nonce < top):
                return node, k, operand, value, k - start + 1
    return None


def outcome(replay, block, nonces, top):
    """What a replay returns, or the type and text of what it raises."""
    try:
        return replay(block, nonces, top)
    except Exception as exc:  # compared by type and text
        return type(exc), str(exc)


TAMPERS = ["none", "value", "operand-top", "operand-negative", "nonce-wide", "nonces-short"]


@st.composite
def tampered_blocks(draw):
    """(block, nonces, top, tamper): an honest block over 1-4 provers, 1-3 rows and 1-4
    rounds at a drawn bit_len, each prover's nonces from a drawn offset, and at most one
    tamper applied to it at a drawn answer.  An operand or nonce out of range may keep
    its value its operand XOR its nonce, so that only the range check refuses it."""
    bit_len = draw(st.sampled_from([1, 2, 8, 9, 63, 64, 65]))
    top = 1 << bit_len
    provers = list(range(7, 7 + draw(st.integers(1, 4))))
    rows, rounds = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    bits = st.integers(0, top - 1)
    offsets = {p: draw(st.integers(0, 2)) for p in provers}
    nonces = {p: tuple(draw(st.lists(bits, min_size=offsets[p] + rows * rounds,
                                     max_size=offsets[p] + rows * rounds + 2)))
              for p in provers}
    nodes = provers * rows
    starts = [offsets[p] + r * rounds for r in range(rows) for p in provers]
    operands = draw(st.lists(bits, min_size=len(nodes) * rounds, max_size=len(nodes) * rounds))
    due = [nonces[node][k] for node, start in zip(nodes, starts)
           for k in range(start, start + rounds)]
    block = AnswerBlock(nodes, starts, rounds, operands,
                        [operand ^ nonce for operand, nonce in zip(operands, due)])
    tamper = draw(st.sampled_from(TAMPERS))
    j = draw(st.integers(0, len(operands) - 1))
    node, k = nodes[j // rounds], starts[j // rounds] + j % rounds
    if tamper == "value":
        block.values[j] ^= 1 << draw(st.integers(0, bit_len - 1))
    elif tamper == "nonces-short":
        nonces[node] = nonces[node][:draw(st.integers(0, k))]
    elif tamper != "none":
        if tamper == "nonce-wide":
            nonces[node] = nonces[node][:k] + (nonces[node][k] | top,) + nonces[node][k + 1:]
        else:
            block.operands[j] = top if tamper == "operand-top" else -1
        if draw(st.booleans()):  # the value still its operand XOR its nonce: out of range only
            block.values[j] = block.operands[j] ^ nonces[node][k]
    return block, nonces, top, tamper


@settings(max_examples=300, deadline=None)
@given(tampered_blocks())
def test_the_block_replay_names_what_the_per_answer_replay_names(drawn):
    """AnswerBlock.failure, its one compare and its naming loop, returns the answer the
    per-answer replay returns, or raises what it raises, for an honest block and for
    each tamper: a flipped value, an operand equal to top or to -1, a nonce one bit too
    wide, or a prover's nonces cut short."""
    block, nonces, top, tamper = drawn
    want = outcome(replayed, block, nonces, top)
    assert (want is None) == (tamper == "none")
    assert outcome(AnswerBlock.failure, block, nonces, top) == want


def test_a_forged_opening_is_refused_before_any_answer_is_replayed():
    """An MPNV run whose second prover opens to other nonces stops in open_phase with
    CommitMismatch, naming that prover, and replays no answer."""
    replays = []

    def forge(ctx, bundles, t, *args):
        node = list(bundles)[1]
        commitment, opening = bundles[node]
        forged = (1 - opening.values[0],) + opening.values[1:]
        bundles = {**bundles, node: (commitment, dataclasses.replace(opening, values=forged))}
        return base.open_phase(ctx, bundles, t, *args)

    patches = [(group, "open_phase", forge),
               (AnswerBlock, "failure", lambda *args: replays.append(args))]
    ctx, result, error, _ = run(MPNV, False, patches)
    node = sorted(ctx.nonces)[1]
    assert result is None and type(error) is base.CommitMismatch
    assert str(error) == f"node {node}: opening does not match commitment"
    assert replays == [] and ctx.answers
    assert ctx.channel.trace.kind.count("open") == 2


@pytest.mark.parametrize("seed, text", [
    # the first row's answers are all guessed right, the second row's first one is not
    (0, "node 6's answer on nonce 3 in round 1 is not its challenge XOR that nonce"),
    (2, "node 6's answer on nonce 1 in round 2 is not its challenge XOR that nonce"),
])
def test_a_guessing_mpnv_prover_is_refused(seed, text):
    """A GuessAhead prover's rows go through emit, logging one entry per answer,
    and the replay of those entries refuses the run with the oracle's text."""
    scenario = with_policy(mpnv_scenario(n=4, n_a=3, d_a=0.5, n_verifiers=4, m_provers=3,
                                         seed=seed), 6, GuessAhead(p_rounds=3, advance_s=2e-8))
    writer = run(scenario, False)
    assert isinstance(writer[2], ResponseMismatch) and str(writer[2]) == text
    assert_writer_matches_oracle(scenario)


def test_a_plain_mpnv_row_is_one_answer_entry_and_leaves_no_per_round_tuples():
    """A plain row appends one AnswerBlock to the log, calls no emit, and leaves
    fewer new tracked objects than it has rounds: no tuple per round survives it."""
    provers, n = list(range(7, 13)), 8
    scenario = mpnv_scenario(n=n, n_a=n, d_a=1.0, n_verifiers=6, m_provers=len(provers))
    ctx = start_run(scenario)
    _, t = commit_phase(ctx, {p: n for p in provers})
    emits = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(base.RunContext, "emit", lambda ctx, node, *args, **kwargs: emits.append(node))
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            row, = pairwise.run_exchange(ctx, [1], provers, n, t, True)
            grown = len(gc.get_objects()) - before
        finally:
            gc.enable()
    rounds = len(provers) * n
    assert emits == []
    block, = ctx.answers
    assert isinstance(block, AnswerBlock)
    assert (block.nodes, block.starts, block.rounds) == (provers, [0] * len(provers), n)
    assert len(block.operands) == len(block.values) == rounds
    assert len(row.stamps) == len(provers) * (2 * n + 1)
    assert grown < rounds
