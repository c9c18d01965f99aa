"""Semantic validation: every rule broken alone, and the rule tables against
the branch ladder they replaced (validation_oracle)."""
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from validation_oracle import validate_scenario as ladder

from gdbsim import core
from gdbsim.core import (
    SPEED_OF_LIGHT,
    ExperimentParams,
    NodeSpec,
    Protocol,
    ProtocolConfig,
    Role,
    Scenario,
    validate_scenario,
)
from gdbsim.scenarios import (
    mpnv_scenario,
    ntom_scenario,
    oneway_scenario,
    peer_scenario,
    with_policy,
)
from gdbsim.threat import (
    EarlyChallenge,
    FakeLocationReport,
    GuessAhead,
    Honest,
    NodeInsertion,
    Relay,
    SelectiveDelay,
)

ROLE, RANGE, POLICY = "RoleMismatch", "ParamOutOfRange", "PolicyInapplicable"
PAIRING = (ROLE, "nodes",
           "OneWayDB needs exactly 1 Prover, or 2 Provers where one relays to the other")

ONEWAY = oneway_scenario()                                # verifier 1, prover 2, n = 2
OBSERVED = oneway_scenario(observer_pos=(0.0, 50.0))      # and passive observer 9
MUTUAL = peer_scenario(Protocol.MUTUAL_INTERLEAVED, 2)
ONE_TO_MANY = peer_scenario(Protocol.ONE_TO_MANY, 3)
RING = peer_scenario(Protocol.MULTI_PARTY_RING, 4)
MPNV = mpnv_scenario(n=2, n_a=1, d_a=0.5, n_verifiers=2, m_provers=2)  # verifiers 1-2, provers 3-4
PASSIVE = ntom_scenario(Protocol.NTOM_PASSIVE, 2, 2, n=4, d_1=0.5, d_2=0.5, n_a1=2, n_a2=2)
JOINT = ntom_scenario(Protocol.NTOM_MULTIPARTY, 2, 2)
CHAIN = ntom_scenario(Protocol.NTOM_ONETOMANY, 1, 2)
BASES = [ONEWAY, OBSERVED, MUTUAL, ONE_TO_MANY, RING, MPNV, PASSIVE, JOINT, CHAIN]


def plus(s: Scenario, *nodes: NodeSpec) -> Scenario:
    return dataclasses.replace(s, nodes=s.nodes + nodes)


def roled(s: Scenario, node_id: int, role: Role) -> Scenario:
    return dataclasses.replace(s, nodes=tuple(
        dataclasses.replace(n, role=role) if n.id == node_id else n for n in s.nodes))


def config(s: Scenario, **changes) -> Scenario:
    return dataclasses.replace(s, config=dataclasses.replace(s.config, **changes))


def experiment(s: Scenario, **changes) -> Scenario:
    return dataclasses.replace(s, experiment=dataclasses.replace(s.experiment, **changes))


def peer(node_id: int, x: float = 7.0) -> NodeSpec:
    return NodeSpec(id=node_id, pos=(x, 7.0), role=Role.PEER)


def prover(node_id: int, policy=Honest()) -> NodeSpec:
    return NodeSpec(id=node_id, pos=(7.0, 7.0), role=Role.PROVER, policy=policy)


RELAYED = plus(ONEWAY, prover(3, Relay(victim=2)))        # prover 3 relays to prover 2


# (id, the scenario with one rule broken, the issues as (code, field, text)); each
# case breaks one rule of a valid scenario from gdbsim.scenarios and, where
# no other scenario breaks that rule alone, one more that it implies
BROKEN = [
    # rules kept as code: ids, positions, config ranges
    ("duplicate-id", plus(ONEWAY, dataclasses.replace(OBSERVED.nodes[2], id=2)),
     [("DuplicateNodeId", "nodes", "node id 2 appears 2 times")]),
    ("shared-position", plus(ONEWAY, dataclasses.replace(OBSERVED.nodes[2], pos=(90.0, 0.0))),
     [(RANGE, "nodes", "nodes 2 and 9 share position (90.0, 0.0)")]),
    ("config-n", config(ONEWAY, n=0), [(RANGE, "config.n", "n must be >= 1")]),
    ("config-bit_len", config(ONEWAY, bit_len=0),
     [(RANGE, "config.bit_len", "bit_len must be >= 1")]),
    ("config-alpha", config(ONEWAY, alpha=-1e-9), [(RANGE, "config.alpha", "alpha must be >= 0")]),
    ("config-c", config(ONEWAY, c=0.0), [(RANGE, "config.c", "c must be > 0")]),
    # _ROLE_RULES, each entry of each rule
    ("oneway-peer", plus(ONEWAY, peer(3)), [(ROLE, "nodes", "one-way scenarios contain no Peer")]),
    ("oneway-no-active", roled(ONEWAY, 1, Role.PASSIVE_VERIFIER),
     [(ROLE, "nodes", "OneWayDB needs exactly 1 ActiveVerifier, got 0")]),
    ("oneway-two-actives", roled(OBSERVED, 9, Role.ACTIVE_VERIFIER),
     [(ROLE, "nodes", "OneWayDB needs exactly 1 ActiveVerifier, got 2")]),
    ("mutual-three-peers", plus(MUTUAL, peer(3)),
     [(ROLE, "nodes", "MutualInterleaved needs exactly 2 Peer nodes")]),
    ("mutual-a-prover-too", plus(MUTUAL, prover(3)),
     [(ROLE, "nodes", "MutualInterleaved needs exactly 2 Peer nodes")]),
    ("onetomany-one-peer", dataclasses.replace(ONE_TO_MANY, nodes=ONE_TO_MANY.nodes[:1]),
     [(ROLE, "nodes", "OneToMany needs >= 2 nodes, all Peer")]),
    ("onetomany-a-prover-too", plus(ONE_TO_MANY, prover(4)),
     [(ROLE, "nodes", "OneToMany needs >= 2 nodes, all Peer")]),
    ("ring-a-prover-too", plus(RING, prover(5)),
     [(ROLE, "nodes", "mutual multi-party scenarios contain only Peer")]),
    ("ring-of-three", peer_scenario(Protocol.MULTI_PARTY_RING, 3),
     [(RANGE, "nodes", "N must be >= 4 for MultiPartyRing")]),
    ("mpnv-peer", plus(MPNV, peer(5)),
     [(ROLE, "nodes", "one-way group scenarios contain no Peer")]),
    ("mpnv-no-prover", mpnv_scenario(n=2, n_a=1, d_a=0.5, n_verifiers=2, m_provers=0),
     [(ROLE, "nodes", "MPNV needs at least one Prover")]),
    # any d_a in (0, 1] selects one verifier, so none at all fails d_a as well
    ("mpnv-no-verifier", mpnv_scenario(n=2, n_a=1, d_a=0.5, n_verifiers=0, m_provers=2),
     [(ROLE, "nodes", "MPNV needs at least one verifier"),
      (RANGE, "experiment.d_a",
       "d_a=0.5 selects 1 of 0 verifiers but only 0 are ActiveVerifiers")]),
    ("passive-a-prover-too", plus(PASSIVE, prover(5)),
     [(ROLE, "nodes", "mutual multi-party scenarios contain only Peer")]),
    ("joint-a-verifier-too",
     plus(JOINT, NodeSpec(id=5, pos=(7.0, 7.0), role=Role.PASSIVE_VERIFIER)),
     [(ROLE, "nodes", "mutual multi-party scenarios contain only Peer")]),
    ("chain-a-verifier-too", plus(CHAIN, NodeSpec(id=4, pos=(7.0, 7.0), role=Role.ACTIVE_VERIFIER)),
     [(ROLE, "nodes", "mutual multi-party scenarios contain only Peer")]),
    # one-way's relay pairing, kept as code
    ("oneway-two-plain-provers", plus(ONEWAY, prover(3)), [PAIRING]),
    ("oneway-no-prover", roled(ONEWAY, 2, Role.PASSIVE_VERIFIER), [PAIRING]),
    ("oneway-lone-relay", with_policy(ONEWAY, 2, Relay(victim=1)), [PAIRING]),
    # the fields a group protocol needs, and the two-group sizes, kept as code
    ("mpnv-no-experiment", dataclasses.replace(MPNV, experiment=None),
     [(RANGE, "experiment", "MPNV needs experiment.n_a and experiment.d_a")]),
    ("mpnv-no-d_a", experiment(MPNV, d_a=None),
     [(RANGE, "experiment", "MPNV needs experiment.n_a and experiment.d_a")]),
    ("joint-no-experiment", dataclasses.replace(JOINT, experiment=None),
     [(RANGE, "experiment", "two-group protocols need experiment.N and experiment.M")]),
    ("chain-no-M", experiment(CHAIN, M=None),
     [(RANGE, "experiment", "two-group protocols need experiment.N and experiment.M")]),
    ("joint-empty-group", experiment(JOINT, N=0, M=4),
     [(RANGE, "experiment", "group sizes must be >= 1")]),
    ("chain-sizes-miss-nodes", experiment(CHAIN, M=3),
     [(RANGE, "experiment", "N + M = 4 but scenario has 3 nodes")]),
    ("joint-ring-of-three", ntom_scenario(Protocol.NTOM_MULTIPARTY, 1, 2),
     [(RANGE, "experiment", "N must be >= 4 for the joint ring run")]),
    *((f"passive-no-{key}", experiment(PASSIVE, **{key: None}),
       [(RANGE, f"experiment.{key}", f"NtoM-passive needs experiment.{key}")])
      for key in ("d_1", "d_2", "n_a1", "n_a2")),
    # _RANGED_FIELDS, both edges of each range
    ("mpnv-n_a-0", experiment(MPNV, n_a=0, n_p=None),
     [(RANGE, "experiment.n_a", "n_a must be in 1..n (2), got 0")]),
    ("mpnv-n_a-past-n", experiment(MPNV, n_a=3, n_p=None),
     [(RANGE, "experiment.n_a", "n_a must be in 1..n (2), got 3")]),
    ("mpnv-d_a-0", experiment(MPNV, d_a=0.0),
     [(RANGE, "experiment.d_a", "d_a must be in (0, 1], got 0.0")]),
    ("mpnv-d_a-past-1", experiment(MPNV, d_a=1.5),
     [(RANGE, "experiment.d_a", "d_a must be in (0, 1], got 1.5")]),
    ("mpnv-d_a-selects-a-passive", experiment(roled(MPNV, 2, Role.PASSIVE_VERIFIER), d_a=1.0),
     [(RANGE, "experiment.d_a",
       "d_a=1.0 selects 2 of 2 verifiers but only 1 are ActiveVerifiers")]),
    ("mpnv-N", experiment(MPNV, N=3),
     [(RANGE, "experiment.N", "N=3 but scenario has 2 verifiers")]),
    ("mpnv-M", experiment(MPNV, M=1), [(RANGE, "experiment.M", "M=1 but scenario has 2 provers")]),
    ("mpnv-n_p", experiment(MPNV, n_p=0),
     [(RANGE, "experiment.n_p", "n_p must equal n - n_a = 1, got 0")]),
    ("passive-d_1-0", experiment(PASSIVE, d_1=0.0),
     [(RANGE, "experiment.d_1", "d_1 must be in (0, 1], got 0.0")]),
    ("passive-d_2-past-1", experiment(PASSIVE, d_2=1.5),
     [(RANGE, "experiment.d_2", "d_2 must be in (0, 1], got 1.5")]),
    ("passive-n_a1-0", experiment(PASSIVE, n_a1=0),
     [(RANGE, "experiment.n_a1", "n_a1 must be in 1..n (4), got 0")]),
    ("passive-n_a2-past-n", experiment(PASSIVE, n_a2=5),
     [(RANGE, "experiment.n_a2", "n_a2 must be in 1..n (4), got 5")]),
    ("passive-n_p1", experiment(PASSIVE, n_p1=7),
     [(RANGE, "experiment.n_p1", "n_p1 must equal n - n_a1 = 2, got 7")]),
    ("passive-n_p2", experiment(PASSIVE, n_p2=-3),
     [(RANGE, "experiment.n_p2", "n_p2 must equal n - n_a2 = 2, got -3")]),
    # _POLICY_ROLES, then each policy's own fields, kept as code
    ("guess-on-a-verifier", with_policy(ONEWAY, 1, GuessAhead(p_rounds=1)),
     [(POLICY, "nodes[0].policy", "GuessAhead applies to provers only")]),
    ("guess-past-n", with_policy(ONEWAY, 2, GuessAhead(p_rounds=3)),
     [(RANGE, "nodes[1].policy", "GuessAhead p_rounds exceeds round count")]),
    ("delay-on-a-verifier", with_policy(ONEWAY, 1, SelectiveDelay(delay_s=1e-9)),
     [(POLICY, "nodes[0].policy",
       "SelectiveDelay applies to responding nodes (provers or peers)")]),
    ("delay-target-missing", with_policy(ONEWAY, 2, SelectiveDelay(delay_s=1e-9, target=7)),
     [(RANGE, "nodes[1].policy", "SelectiveDelay target 7 not in scenario")]),
    *((f"delay-targets-one-{s.protocol.value}-peer",
       with_policy(s, 1, SelectiveDelay(delay_s=1e-9, target=2)),
       [(POLICY, "nodes[0].policy",
         "SelectiveDelay cannot target one ring peer: every send feeds every solve")])
      for s in (RING, JOINT)),
    ("relay-on-a-verifier", with_policy(OBSERVED, 9, Relay(victim=2)),
     [(POLICY, "nodes[2].policy", "Relay applies to a node posing as prover")]),
    ("relay-outside-oneway", with_policy(MPNV, 3, Relay(victim=4)),
     [(POLICY, "nodes[2].policy", "Relay is driven only by OneWayDB")]),
    # a one-way relay whose victim is no other prover also breaks the pairing
    ("relay-victim-missing", with_policy(RELAYED, 3, Relay(victim=7)),
     [PAIRING, (RANGE, "nodes[2].policy", "Relay victim 7 not in scenario")]),
    ("relay-victim-itself", with_policy(RELAYED, 3, Relay(victim=3)),
     [PAIRING, (RANGE, "nodes[2].policy", "Relay victim must be another node")]),
    ("fake-location-on-a-prover",
     with_policy(ONEWAY, 2, FakeLocationReport(claimed_distance_m=5.0)),
     [(POLICY, "nodes[1].policy",
       "FakeLocationReport applies to verifiers whose position feeds passive observers")]),
    ("early-challenge-on-a-prover",
     with_policy(ONEWAY, 2, EarlyChallenge(advance_s=1e-9, pr_ch=0.5)),
     [(POLICY, "nodes[1].policy", "EarlyChallenge applies to verifiers")]),
    ("insertion-with-a-cert", with_policy(ONEWAY, 2, NodeInsertion()),
     [(POLICY, "nodes[1].policy", "NodeInsertion requires has_cert false")]),
]


@pytest.mark.parametrize("s", BASES, ids=[s.protocol.value for s in BASES])
def test_every_base_scenario_is_valid(s):
    assert validate_scenario(s) == []


def test_each_policy_rule_is_met_by_its_base():
    """The policy cases' bases pass with each policy where it applies."""
    assert validate_scenario(RELAYED) == []
    assert validate_scenario(with_policy(ONEWAY, 2, NodeInsertion(), has_cert=False)) == []
    assert validate_scenario(with_policy(ONEWAY, 2, GuessAhead(p_rounds=2))) == []
    early = EarlyChallenge(advance_s=1e-9, pr_ch=0.5)
    assert validate_scenario(with_policy(OBSERVED, 9, early)) == []


@pytest.mark.parametrize("s, expected", [case[1:] for case in BROKEN],
                         ids=[case[0] for case in BROKEN])
def test_each_rule_broken_alone_gives_its_issue(s, expected):
    assert [(i.code, i.fld, i.message) for i in validate_scenario(s)] == expected


def _issues(protocol):
    """Every (code, field, text) the cases above expect of scenarios of protocol."""
    return {issue for _, s, expected in BROKEN if s.protocol == protocol for issue in expected}


def test_the_cases_break_every_table_row():
    """Each row of _ROLE_RULES, _POLICY_ROLES and _RANGED_FIELDS gives an issue above."""
    for protocol, rules in core._ROLE_RULES.items():
        for code, _, text in rules:
            assert any(issue[:2] == (code, "nodes") and issue[2].startswith(text.split("{")[0])
                       for issue in _issues(protocol)), (protocol, text)
    policy_issues = set().union(*map(_issues, Protocol))
    for _, text in core._POLICY_ROLES.values():
        assert any(fld.endswith(".policy") and t == text for _, fld, t in policy_issues), text
    for protocol, fields in core._RANGED_FIELDS.items():
        for key, check in fields:
            texts = [check(key, getattr(s.experiment, key), s, [n.role for n in s.nodes])
                     for _, s, _ in BROKEN if s.protocol == protocol
                     and getattr(s.experiment, key, None) is not None]
            assert any((RANGE, f"experiment.{key}", text) in _issues(protocol)
                       for text in texts if text is not None), (protocol, key, check)


# ---------------------------------------------------------------------------
# the tables give the ladder's issues, in its order, for any scenario

EDGE_INTS = st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 8])
EDGE_FRACTIONS = st.sampled_from([-0.5, 0.0, 5e-324, 0.25, 0.5, 1.0, 1.0000000000000002, 2.0])
IDS = st.integers(0, 7)
POLICIES = st.one_of(
    st.just(Honest()),
    st.builds(GuessAhead, p_rounds=st.integers(0, 6)),
    st.builds(SelectiveDelay, delay_s=st.just(1e-9), target=st.none() | IDS),
    st.builds(Relay, victim=IDS),
    st.just(FakeLocationReport(claimed_distance_m=5.0)),
    st.just(EarlyChallenge(advance_s=1e-9, pr_ch=0.5)),
    st.just(NodeInsertion()),
)
NODES = st.lists(st.builds(
    NodeSpec, id=IDS,
    pos=st.sampled_from([(0.0, 0.0), (-0.0, 0.0), (90.0, 0.0), (3.0, 4.0), (7.0, 7.0)]),
    role=st.sampled_from(Role), policy=POLICIES, has_cert=st.booleans()), max_size=7)
CONFIGS = st.builds(
    ProtocolConfig, n=EDGE_INTS, bit_len=st.sampled_from([-1, 0, 1, 2]),
    alpha=st.sampled_from([-1e-9, 0.0, 1e-9]), c=st.sampled_from([-1.0, 0.0, 1.0, SPEED_OF_LIGHT]))
MAYBE_INT, MAYBE_FRACTION = st.none() | EDGE_INTS, st.none() | EDGE_FRACTIONS
EXPERIMENTS = st.none() | st.builds(
    ExperimentParams, n_a=MAYBE_INT, n_p=MAYBE_INT, d_a=MAYBE_FRACTION, d_1=MAYBE_FRACTION,
    d_2=MAYBE_FRACTION, n_a1=MAYBE_INT, n_a2=MAYBE_INT, n_p1=MAYBE_INT, n_p2=MAYBE_INT,
    N=MAYBE_INT, M=MAYBE_INT)


@settings(max_examples=1000, deadline=None)
@given(nodes=NODES, protocol=st.sampled_from(Protocol), cfg=CONFIGS, exp=EXPERIMENTS)
def test_the_tables_give_the_ladders_issues(nodes, protocol, cfg, exp):
    s = Scenario(nodes=tuple(nodes), protocol=protocol, config=cfg, rng_seed=1, experiment=exp)
    assert validate_scenario(s) == ladder(s)


@pytest.mark.parametrize("case", BROKEN, ids=[case[0] for case in BROKEN])
def test_the_ladder_gives_each_broken_rule_the_same_issues(case):
    assert validate_scenario(case[1]) == ladder(case[1])
