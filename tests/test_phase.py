"""A group phase priced as a whole against the same rows priced one at a time.

pairwise.price_phase prices every row of an MPNV or NtoM-passive phase
in one active pass and its listeners in blocks of rows, each row's own
verifier masked out; group_oracle.price_rows prices the same rows row
after row, one round at a time, in plain floats.  Every phase a run
prices must give the same candidates and rounds, bit for bit
(float.hex), or raise the same exception with the same text.
"""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import group_oracle
from gdbsim.core import (
    ExperimentParams, GdbSimError, NodeSpec, Protocol, ProtocolConfig, Role, Scenario,
    active_verifier_count,
)
from gdbsim.estimate import NegativeTimeOfFlight
from gdbsim.proto import base, group, pairwise
from gdbsim.proto.runner import run_scenario
from gdbsim.scenarios import with_policy
from gdbsim.threat import EarlyChallenge, FakeLocationReport, GuessAhead, Honest, SelectiveDelay


def outcome(price, ctx, rows, watchers):
    """A pricer's candidates by float.hex and its rounds, or its exception's type and text."""
    try:
        candidates, counts = price(ctx, rows, watchers)
    except NegativeTimeOfFlight as exc:
        return type(exc), str(exc)
    return candidates.shape, [b.hex() for b in candidates.ravel().tolist()], counts.tolist()


def priced_phases(scenario):
    """(price_phase's outcome, price_rows' outcome) for each phase the run prices.

    Validation is bypassed, so that a peer may carry a verifier's or a
    prover's policy; the run's own error, if any, ends it.
    """
    seen = []

    def compared(ctx, rows, watchers):
        seen.append((outcome(pairwise.price_phase, ctx, rows, watchers),
                     outcome(group_oracle.price_rows, ctx, rows, watchers)))
        return pairwise.price_phase(ctx, rows, watchers)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(base, "ensure_valid", lambda s: s)
        mp.setattr(group, "price_phase", compared)
        try:
            run_scenario(scenario)
        except GdbSimError:
            pass
    return seen


coord = st.floats(min_value=-300.0, max_value=300.0)
advances = st.sampled_from([0.0, 2e-8, 4e-7, 1e-6]) | st.floats(min_value=0.0, max_value=1e-6)


@st.composite
def verifier_policies(draw):
    return draw(st.sampled_from([Honest()])
                | st.builds(FakeLocationReport, claimed_pos=st.tuples(coord, coord))
                | st.builds(FakeLocationReport,
                            claimed_distance_m=st.floats(min_value=0.0, max_value=500.0))
                | st.builds(EarlyChallenge, advance_s=advances,
                            pr_ch=st.sampled_from([0.5, 1.0])))


@st.composite
def prover_policies(draw, n):
    return draw(st.sampled_from([Honest()])
                | st.builds(GuessAhead, p_rounds=st.integers(min_value=0, max_value=n),
                            advance_s=advances)
                | st.builds(SelectiveDelay, delay_s=st.sampled_from([0.0, 3e-8, 1e-7])))


@st.composite
def group_runs(draw):
    """An MPNV or NtoM-passive scenario, any policy on any party, both phases' sizes drawn."""
    n = draw(st.integers(min_value=1, max_value=4))
    protocol = draw(st.sampled_from([Protocol.MPNV, Protocol.NTOM_PASSIVE]))
    sizes = st.integers(min_value=1, max_value=5)
    first, second = draw(sizes), draw(sizes)
    places = draw(st.lists(st.tuples(coord, coord), min_size=first + second,
                           max_size=first + second, unique=True))
    fraction = st.sampled_from([0.25, 0.5, 1.0])
    if protocol == Protocol.MPNV:
        d_a = draw(fraction)
        # enough ActiveVerifiers for the draw, any others passive
        pool = draw(st.integers(min_value=active_verifier_count(d_a, first), max_value=first))
        roles = [Role.ACTIVE_VERIFIER] * pool + [Role.PASSIVE_VERIFIER] * (first - pool)
        roles += [Role.PROVER] * second
        experiment = ExperimentParams(n_a=draw(st.integers(min_value=1, max_value=n)), d_a=d_a,
                                      N=first, M=second)
    else:
        roles = [Role.PEER] * (first + second)
        rounds = st.integers(min_value=1, max_value=n)
        experiment = ExperimentParams(N=first, M=second, n_a1=draw(rounds), n_a2=draw(rounds),
                                      d_1=draw(fraction), d_2=draw(fraction))
    nodes = []
    for k, (role, pos) in enumerate(zip(roles, places)):
        checks = role != Role.PROVER and (role != Role.PEER or draw(st.booleans()))
        policy = draw(verifier_policies() if checks else prover_policies(n))
        nodes.append(NodeSpec(id=k + 1, pos=pos, role=role, policy=policy))
    config = ProtocolConfig(n=n, alpha=draw(st.sampled_from([0.0, 1e-8])))
    return Scenario(nodes=tuple(nodes), protocol=protocol, config=config,
                    experiment=experiment, rng_seed=draw(st.integers(0, 2**16)))


def node(nid, pos, role, policy=Honest()):
    return NodeSpec(id=nid, pos=pos, role=role, policy=policy)


def mpnv(nodes, n=3, n_a=3, d_a=1.0):
    verifiers = sum(n.role != Role.PROVER for n in nodes)
    return Scenario(nodes=tuple(nodes), protocol=Protocol.MPNV, config=ProtocolConfig(n=n),
                    experiment=ExperimentParams(n_a=n_a, d_a=d_a, N=verifiers,
                                                M=len(nodes) - verifiers), rng_seed=3)


# verifier 1 sits 30 m from prover 4 and every other watcher is over 200 m from it: an
# early challenge of 400 ns (120 m) leaves every overheard round possible, while the rounds
# verifier 1 would overhear of its own row are not, so only the masking keeps the run going
OWN_ROW_ONLY = mpnv([node(1, (0.0, 0.0), Role.ACTIVE_VERIFIER, EarlyChallenge(4e-7, 1.0)),
                     node(2, (-250.0, 0.0), Role.PASSIVE_VERIFIER),
                     node(3, (0.0, 260.0), Role.PASSIVE_VERIFIER),
                     node(4, (30.0, 0.0), Role.PROVER), node(5, (-40.0, -20.0), Role.PROVER)],
                    d_a=0.3)
HONEST = mpnv([node(1, (0.0, 0.0), Role.ACTIVE_VERIFIER),
               node(2, (100.0, 0.0), Role.ACTIVE_VERIFIER),
               node(3, (0.0, 120.0), Role.PASSIVE_VERIFIER),
               node(4, (40.0, 40.0), Role.PROVER), node(5, (-40.0, 20.0), Role.PROVER)], d_a=0.6)
# prover 4 answers its first round 10 us early: both rows' active rounds are impossible
EARLY_REPLY = with_policy(HONEST, 4, GuessAhead(1, 1e-5))
# the second row's verifier challenges 1 us early: only its listeners' rounds are impossible
EARLY_SECOND_ROW = with_policy(HONEST, 2, EarlyChallenge(1e-6, 1.0))


@settings(max_examples=150, deadline=None)
@given(scenario=group_runs())
@example(scenario=OWN_ROW_ONLY)
@example(scenario=EARLY_REPLY)
@example(scenario=EARLY_SECOND_ROW)
def test_a_phase_prices_as_its_rows_one_at_a_time(scenario):
    for got, want in priced_phases(scenario):
        assert got == want


@pytest.mark.parametrize("scenario, refusal", [
    (HONEST, None),
    (OWN_ROW_ONLY, None),
    (EARLY_REPLY, "round trip "),
    (EARLY_SECOND_ROW, "negative leg sum "),
], ids=["honest", "own row only", "active", "passive"])
def test_the_examples_reach_what_they_name(scenario, refusal):
    """Each example prices its phase, or meets the impossible round its comment names."""
    (got, _), = priced_phases(scenario)
    if refusal is None:
        assert got[0] == (2 if scenario is HONEST else 1, 3, 2)
    else:
        assert got[0] is NegativeTimeOfFlight and got[1].startswith(refusal)


def test_a_row_s_own_verifier_is_masked_out_of_the_checks(monkeypatch):
    """Priced as a listener of its own early row, verifier 1 would meet an impossible round."""
    phases = []
    monkeypatch.setattr(group, "price_phase",
                        lambda *args: phases.append(args) or pairwise.price_phase(*args))
    result = run_scenario(OWN_ROW_ONLY)
    (ctx, (row,), watchers), = phases
    assert [(m, t) for m, t, *_ in result.estimates] == [
        (w, p) for w in watchers for p in row.responders]
    with pytest.raises(NegativeTimeOfFlight, match="^negative leg sum "):
        pairwise._exchange_bounds(ctx, row, 0, [1])


def test_a_pass_that_raises_alone_still_refuses_the_run(monkeypatch):
    """Were an array pass to meet an impossible round that no row priced alone meets, the
    ordered pricing would find none, and the run would still stop on the pass's error."""
    def refuse(*args):
        raise NegativeTimeOfFlight("an impossible round in the array pass")

    monkeypatch.setattr(pairwise, "active_distances", refuse)
    with pytest.raises(NegativeTimeOfFlight, match="^an impossible round in the array pass$"):
        run_scenario(HONEST)
