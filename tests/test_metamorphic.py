"""Metamorphic relations: what must not change when a scenario changes unseen by the protocol.

An order-preserving relabelling of node ids keeps every RNG draw in
place (offsets, then nonces, follow sorted ids), so every send time and
every estimate must map through the relabelling exactly, for every
protocol.  Payloads that hash or sign ids are left out.  A SelectiveDelay
indexes its per_message delays by its node's own count of rapid sends,
so the relation pins that count too.
"""
import dataclasses
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_proto import point, verifier_policies

from gdbsim.core import (
    ExperimentParams, GdbSimError, NodeSpec, Protocol, ProtocolConfig, Role,
)
from gdbsim.estimate import NegativeTimeOfFlight
from gdbsim.proto.runner import run_scenario
from gdbsim.scenarios import mpnv_scenario, oneway_scenario, peer_scenario, with_policy
from gdbsim.threat import GuessAhead, Honest, Relay, SelectiveDelay


def prover_policies(verifiers, n):
    """Policies a prover of n rounds may hold; a SelectiveDelay may target one of the verifiers."""
    return st.one_of(
        st.just(Honest()),
        st.builds(SelectiveDelay, delay_s=st.sampled_from([1e-8, 1e-7]),
                  target=st.sampled_from([None, *verifiers])),
        st.builds(GuessAhead, p_rounds=st.integers(min_value=1, max_value=n),
                  advance_s=st.sampled_from([0.0, 1e-7])),
    )


@st.composite
def relabellings(draw, ids):
    """A strictly increasing map of ids onto positive ids."""
    gaps = draw(st.lists(st.integers(min_value=1, max_value=40), min_size=len(ids),
                         max_size=len(ids)))
    return dict(zip(sorted(ids), accumulate(gaps)))


def relabel(scenario, new):
    """scenario with every node id, Relay.victim and SelectiveDelay.target mapped through new."""
    def policy(p):
        if isinstance(p, Relay):
            return Relay(victim=new[p.victim])
        if isinstance(p, SelectiveDelay) and p.target is not None:
            return dataclasses.replace(p, target=new[p.target])
        return p

    return dataclasses.replace(scenario, nodes=tuple(
        dataclasses.replace(n, id=new[n.id], policy=policy(n.policy)) for n in scenario.nodes))


def observed(scenario, new=None):
    """The run's estimate rows (each bound as .hex()) and its senders and send times.

    With new, node ids are mapped through it.  A run that raises gives
    the exception's type, and its text when that names no node.
    """
    new = new or {n.id: n.id for n in scenario.nodes}
    try:
        result = run_scenario(scenario)
    except GdbSimError as exc:
        return type(exc), str(exc) if isinstance(exc, NegativeTimeOfFlight) else None
    rows = [(new[m], new[t], b.hex(), method, k, auth, surplus)
            for m, t, b, method, k, auth, surplus in result.estimates]
    trace = result.trace
    return rows, [new[s] for s in trace.sender], trace.t_send


def assert_relabelling_maps(scenario, new):
    assert observed(relabel(scenario, new)) == observed(scenario, new)


@st.composite
def oneway_runs(draw):
    """A one-way run with one to three listeners, its prover direct or relayed."""
    relayed = draw(st.booleans())
    v_pos, p_pos, *rest = draw(st.lists(point, min_size=3 + relayed, max_size=5 + relayed,
                                        unique=True))
    extra = []
    if relayed:
        extra.append(NodeSpec(id=3, pos=rest.pop(), role=Role.PROVER, policy=Relay(victim=2)))
    extra += [NodeSpec(id=4 + k, pos=pos, role=Role.PASSIVE_VERIFIER)
              for k, pos in enumerate(rest)]
    n = draw(st.integers(min_value=1, max_value=5))
    s = oneway_scenario(
        v_pos=v_pos, p_pos=p_pos, n=n, seed=draw(st.integers(min_value=0, max_value=2**16)),
        alpha=draw(st.sampled_from([0.0, 1e-8])), extra_nodes=extra,
        prover_policy=Honest() if relayed else draw(prover_policies([1], n)),
        bit_len=draw(st.integers(min_value=1, max_value=3)), auth=draw(st.booleans()))
    return with_policy(s, 1, draw(verifier_policies))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_oneway_relabelling_maps_every_estimate_and_send(data):
    s = data.draw(oneway_runs())
    assert_relabelling_maps(s, data.draw(relabellings([n.id for n in s.nodes])))


@st.composite
def mpnv_runs(draw):
    """A small MPNV run, one verifier and one prover possibly misbehaving."""
    n = draw(st.integers(min_value=1, max_value=4))
    n_verifiers = draw(st.integers(min_value=1, max_value=5))
    s = mpnv_scenario(n=n, n_a=draw(st.integers(min_value=1, max_value=n)),
                      d_a=draw(st.sampled_from([0.3, 0.5, 1.0])), n_verifiers=n_verifiers,
                      m_provers=draw(st.integers(min_value=1, max_value=3)),
                      seed=draw(st.integers(min_value=0, max_value=2**16)))
    verifiers = list(range(1, n_verifiers + 1))
    s = with_policy(s, draw(st.sampled_from(verifiers)), draw(verifier_policies))
    return with_policy(s, n_verifiers + 1, draw(prover_policies(verifiers, n)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mpnv_relabelling_maps_every_estimate_and_send(data):
    s = data.draw(mpnv_runs())
    assert_relabelling_maps(s, data.draw(relabellings([n.id for n in s.nodes])))


RINGS = (Protocol.MULTI_PARTY_RING, Protocol.NTOM_MULTIPARTY)
TWO_GROUPS = (Protocol.NTOM_PASSIVE, Protocol.NTOM_ONETOMANY, Protocol.NTOM_MULTIPARTY)


@st.composite
def peer_runs(draw, protocol):
    """A small run of a peer protocol, up to two peers holding a SelectiveDelay.

    Its per_message delays name sends by the peer's own count, and it
    targets one peer wherever validation allows a target (not in a ring).
    """
    low = 4 if protocol in RINGS else 2
    high = 2 if protocol == Protocol.MUTUAL_INTERLEAVED else 6
    positions = draw(st.lists(point, min_size=low, max_size=high, unique=True))
    n = draw(st.integers(min_value=1, max_value=4))
    experiment = None
    if protocol in TWO_GROUPS:
        size_n = draw(st.integers(min_value=1, max_value=len(positions) - 1))
        fractions, rounds = st.sampled_from([0.3, 0.5, 1.0]), st.integers(1, n)
        extra = {} if protocol != Protocol.NTOM_PASSIVE else dict(
            d_1=draw(fractions), d_2=draw(fractions), n_a1=draw(rounds), n_a2=draw(rounds))
        experiment = ExperimentParams(N=size_n, M=len(positions) - size_n, **extra)
    s = dataclasses.replace(
        peer_scenario(protocol, positions=positions, experiment=experiment,
                      seed=draw(st.integers(min_value=0, max_value=2**16))),
        config=ProtocolConfig(n=n, bit_len=draw(st.integers(min_value=1, max_value=3)),
                              alpha=draw(st.sampled_from([0.0, 1e-8])),
                              auth_enabled=draw(st.booleans())))
    peers = [node.id for node in s.nodes]
    delay = st.builds(
        SelectiveDelay, delay_s=st.sampled_from([0.0, 1e-8, 1e-7]),
        per_message=st.sampled_from([(), ((0, 5e-8),), ((1, 5e-8), (3, 1e-8))]),
        target=st.just(None) if protocol in RINGS else st.sampled_from([None, *peers]))
    for peer in draw(st.lists(st.sampled_from(peers), max_size=2, unique=True)):
        s = with_policy(s, peer, draw(delay))
    return s


@pytest.mark.parametrize("protocol", [
    Protocol.MUTUAL_INTERLEAVED, Protocol.ONE_TO_MANY, Protocol.MULTI_PARTY_RING,
    Protocol.NTOM_PASSIVE, Protocol.NTOM_ONETOMANY, Protocol.NTOM_MULTIPARTY,
], ids=lambda p: p.value)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_peer_relabelling_maps_every_estimate_and_send(protocol, data):
    s = data.draw(peer_runs(protocol))
    assert_relabelling_maps(s, data.draw(relabellings([n.id for n in s.nodes])))
