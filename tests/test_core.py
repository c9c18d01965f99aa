"""Scenario model: arithmetic helpers, strict JSON I/O, semantic validation."""
import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdbsim.core import (
    ExperimentParams,
    NodeSpec,
    Protocol,
    ProtocolConfig,
    Role,
    Scenario,
    ScenarioFormatError,
    ScenarioInvalid,
    active_verifier_count,
    distance,
    ensure_valid,
    load_scenario,
    round_half_up,
    scenario_from_json,
    scenario_to_json,
    validate_scenario,
)
from gdbsim.proto import run_scenario
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
    NodeInsertion,
    Relay,
    SelectiveDelay,
)


def test_distance_345():
    assert distance((0.0, 0.0), (3.0, 4.0)) == 5.0
    assert distance((1.0, 1.0), (1.0, 1.0)) == 0.0


@pytest.mark.parametrize("x,expected", [
    (0.0, 0), (0.4, 0), (0.5, 1), (1.5, 2), (2.5, 3), (2.49, 2), (-0.5, 0), (-0.6, -1),
])
def test_round_half_up(x, expected):
    assert round_half_up(x) == expected


def test_active_verifier_count():
    assert active_verifier_count(0.0, 30) == 0
    assert active_verifier_count(1.0, 30) == 30
    assert active_verifier_count(0.8, 30) == 24
    assert active_verifier_count(0.5, 10) == 5
    # nearest-integer on the fraction, floor of one
    assert active_verifier_count(0.25, 10) == 3
    assert active_verifier_count(0.05, 4) == 1


# ---------------------------------------------------------------------------
# JSON round trip


def rich_scenario() -> Scenario:
    """One node of every role, several policies, experiment block."""
    nodes = (
        NodeSpec(id=1, pos=(0.0, 0.0), role=Role.ACTIVE_VERIFIER,
                 policy=EarlyChallenge(advance_s=1e-8, pr_ch=0.25)),
        NodeSpec(id=2, pos=(50.0, 0.0), role=Role.PROVER,
                 policy=SelectiveDelay(delay_s=1e-9, per_message=((0, 2e-9),), target=1)),
        NodeSpec(id=3, pos=(0.0, 80.0), role=Role.PASSIVE_VERIFIER),
        NodeSpec(id=4, pos=(30.0, 30.0), role=Role.PROVER, policy=GuessAhead(p_rounds=2)),
        NodeSpec(id=5, pos=(10.0, 70.0), role=Role.PROVER, has_cert=False,
                 policy=NodeInsertion()),
    )
    return Scenario(
        nodes=nodes, protocol=Protocol.MPNV,
        config=ProtocolConfig(n=4, bit_len=2, alpha=1e-6),
        rng_seed=99,
        experiment=ExperimentParams(n_a=2, n_p=2, d_a=0.5, N=2, M=3),
    )


def test_scenario_round_trip():
    s = rich_scenario()
    doc = scenario_to_json(s)
    again = scenario_from_json(json.dumps(doc))
    assert again == s


def test_round_trip_preserves_policies():
    s = rich_scenario()
    again = scenario_from_json(scenario_to_json(s))
    assert again.node(2).policy == SelectiveDelay(
        delay_s=1e-9, per_message=((0, 2e-9),), target=1)
    assert again.node(5).has_cert is False


def minimal_doc() -> dict:
    return {
        "nodes": [
            {"id": 1, "pos": [0.0, 0.0], "role": "ActiveVerifier"},
            {"id": 2, "pos": [10.0, 0.0], "role": "Prover"},
        ],
        "protocol": "OneWayDB",
        "config": {"n": 2},
        "rng_seed": 7,
    }


def test_parse_minimal():
    s = scenario_from_json(minimal_doc())
    assert s.protocol is Protocol.ONE_WAY
    assert s.config.bit_len == 1
    assert s.experiment is None


def test_parse_rejects_bad_json_text():
    with pytest.raises(ScenarioFormatError, match="invalid JSON"):
        scenario_from_json("{nope")


@pytest.mark.parametrize("doc", [b"\xc3\x28", "[" * 5000, b"[" * 5000],
                         ids=["not-utf8-bytes", "nested-text", "nested-bytes"])
def test_parse_refuses_undecodable_json_as_a_format_error(doc):
    with pytest.raises(ScenarioFormatError, match="^invalid JSON: "):
        scenario_from_json(doc)


@pytest.mark.parametrize("encoding", ["utf-16", "utf-16-le", "utf-32"])
def test_parse_reads_bytes_as_utf8_only(tmp_path, encoding):
    """A document in another encoding is refused as bytes, as it is in a file."""
    doc = json.dumps(minimal_doc())
    assert scenario_from_json(doc.encode("utf-8")) == scenario_from_json(doc)
    with pytest.raises(ScenarioFormatError, match="^invalid JSON: "):
        scenario_from_json(doc.encode(encoding))
    path = tmp_path / "s.json"
    path.write_bytes(doc.encode(encoding))
    with pytest.raises(ScenarioFormatError):
        load_scenario(str(path))


def test_parse_refuses_bytes_that_are_not_utf8():
    with pytest.raises(ScenarioFormatError,
                       match="^invalid JSON: 'utf-8' codec can't decode byte 0xff in position 0"):
        scenario_from_json(b"\xff\xfe\x00bad")


def test_parse_names_missing_key():
    doc = minimal_doc()
    del doc["rng_seed"]
    with pytest.raises(ScenarioFormatError, match="scenario.rng_seed"):
        scenario_from_json(doc)


def test_parse_names_extra_key():
    # a document that still sets the removed pre_post_msgs is refused like any other
    for key in ("fudge", "pre_post_msgs"):
        doc = minimal_doc()
        doc["config"][key] = 1
        with pytest.raises(ScenarioFormatError, match=f"unknown keys at config.*{key}"):
            scenario_from_json(doc)


def test_parse_names_bad_node_field():
    doc = minimal_doc()
    doc["nodes"][1]["pos"] = [1.0]
    with pytest.raises(ScenarioFormatError, match=r"nodes\[1\].pos"):
        scenario_from_json(doc)


def test_parse_rejects_unknown_protocol():
    doc = minimal_doc()
    doc["protocol"] = "Telepathy"
    with pytest.raises(ScenarioFormatError, match="Telepathy"):
        scenario_from_json(doc)


def test_parse_rejects_unknown_policy_kind():
    doc = minimal_doc()
    doc["nodes"][1]["policy"] = {"kind": "Bribe"}
    with pytest.raises(ScenarioFormatError, match=r"nodes\[1\].policy"):
        scenario_from_json(doc)


@pytest.mark.parametrize("node, policy", [
    (0, {"kind": "FakeLocationReport", "claimed_distance_m": -500.0}),
    (1, {"kind": "GuessAhead", "p_rounds": 1, "advance_s": -1e-6}),
])
def test_parse_rejects_negative_policy_distance_and_advance(node, policy):
    doc = minimal_doc()
    doc["nodes"].append({"id": 9, "pos": [0.0, 10.0], "role": "PassiveVerifier"})
    doc["nodes"][node]["policy"] = policy
    with pytest.raises(ScenarioFormatError, match=rf"nodes\[{node}\]\.policy: .* must be >= 0"):
        scenario_from_json(doc)


def doc_with_policy(policy: dict) -> dict:
    """minimal_doc plus an experiment block, with the prover given policy."""
    doc = minimal_doc()
    doc["experiment"] = {"n_a": 1, "d_a": 0.5}
    doc["nodes"][1]["policy"] = policy
    return doc


@pytest.mark.parametrize("where,key,bad", [
    ("config", "n", True),
    ("config", "alpha", float("nan")),
    ("config", "c", float("inf")),
    ("config", "auth_enabled", 1),
    ("node", "pos", [float("nan"), 0.0]),
    ("node", "id", 1.0),
    ("experiment", "n_a", True),
    ("experiment", "d_a", "0.5"),
    ("GuessAhead", "p_rounds", True),
    ("GuessAhead", "advance_s", "x"),
    ("Relay", "victim", True),
    ("SelectiveDelay", "target", False),
    ("SelectiveDelay", "delay_s", "1e-9"),
    ("SelectiveDelay", "delay_s", None),
    ("FakeLocationReport", "claimed_distance_m", "5"),
    ("FakeLocationReport", "claimed_pos", ["a", "b"]),
], ids=lambda v: repr(v) if not isinstance(v, str) else v)
def test_parse_rejects_bad_leaf_values(where, key, bad):
    policies = {
        "GuessAhead": {"kind": "GuessAhead", "p_rounds": 1},
        "Relay": {"kind": "Relay", "victim": 1},
        "SelectiveDelay": {"kind": "SelectiveDelay", "delay_s": 1e-9},
        "FakeLocationReport": {"kind": "FakeLocationReport", "claimed_distance_m": 5.0},
    }
    doc = doc_with_policy(policies.get(where, {"kind": "Honest"}))
    section, path = {
        "config": (doc["config"], "config"),
        "node": (doc["nodes"][1], "nodes[1]"),
        "experiment": (doc["experiment"], "experiment"),
    }.get(where, (doc["nodes"][1]["policy"], "nodes[1].policy"))
    scenario_from_json(doc)
    section[key] = bad
    with pytest.raises(ScenarioFormatError) as info:
        scenario_from_json(doc)
    assert str(info.value).startswith(f"{path}.{key} must be ")


def leaf_paths(value, path, keys):
    """(path as parse errors name it, key chain) for every leaf under value.

    A leaf is a scalar, or a list of scalars such as a position.
    """
    if isinstance(value, dict):
        for k, v in value.items():
            yield from leaf_paths(v, f"{path}.{k}", keys + (k,))
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        for i, v in enumerate(value):
            yield from leaf_paths(v, f"{path}[{i}]", keys + (i,))
    else:
        yield path, keys


def document_leaves(doc):
    """Sections are named from the root (config.n); root leaves as scenario.<key>."""
    for key, value in doc.items():
        top = key if isinstance(value, (dict, list)) else f"scenario.{key}"
        yield from leaf_paths(value, top, (key,))


def builder_documents():
    fake = NodeSpec(id=7, pos=(5.0, 95.0), role=Role.PASSIVE_VERIFIER,
                    policy=FakeLocationReport(claimed_pos=(1.0, 2.0)))
    relay = NodeSpec(id=8, pos=(40.0, 40.0), role=Role.PROVER, policy=Relay(victim=2))
    return [
        scenario_to_json(rich_scenario()),
        scenario_to_json(oneway_scenario(extra_nodes=[fake, relay], auth=True,
                                         observer_pos=(30.0, 60.0))),
        scenario_to_json(oneway_scenario(prover_policy=FakeLocationReport(claimed_distance_m=4.0))),
        scenario_to_json(ntom_scenario(Protocol.NTOM_PASSIVE, 2, 2, d_1=0.5, d_2=1.0,
                                       n_a1=1, n_a2=1)),
    ]


DOCUMENTS = builder_documents()
# leaves whose field is Optional, where null is a value of the right kind
NULLABLE = ("target", "claimed_pos", "claimed_distance_m")


@settings(max_examples=300, deadline=None)
@given(data=st.data(), bad=st.sampled_from([None, "x", True, ["a", "b"], float("nan")]))
def test_any_wrong_kind_leaf_is_a_format_error_naming_it(data, bad):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(DOCUMENTS))))
    path, keys = data.draw(st.sampled_from(list(document_leaves(doc))))
    section = doc
    for k in keys[:-1]:
        section = section[k]
    if isinstance(bad, bool) and isinstance(section[keys[-1]], bool):
        return  # a bool is a boolean field's own kind
    if bad is None and (keys[0] == "experiment" or keys[-1] in NULLABLE):
        return  # null is an Optional field's own value
    section[keys[-1]] = bad
    with pytest.raises(ScenarioFormatError) as info:
        scenario_from_json(doc)
    assert path in str(info.value)


# ---------------------------------------------------------------------------
# semantic validation


def issue_codes(s: Scenario):
    return {(i.code, i.fld) for i in validate_scenario(s)}


def test_valid_scenarios_have_no_issues():
    assert validate_scenario(oneway_scenario()) == []
    assert validate_scenario(peer_scenario(Protocol.MULTI_PARTY_RING, 4)) == []
    assert validate_scenario(mpnv_scenario(n=2, n_a=1, d_a=0.5,
                                           n_verifiers=3, m_provers=2)) == []
    assert validate_scenario(ntom_scenario(Protocol.NTOM_MULTIPARTY, 2, 2)) == []


def test_duplicate_node_id_flagged():
    s = oneway_scenario()
    s = Scenario(nodes=s.nodes + (s.nodes[0],), protocol=s.protocol,
                 config=s.config, rng_seed=s.rng_seed)
    assert ("DuplicateNodeId", "nodes") in issue_codes(s)


def test_shared_position_flagged():
    s = oneway_scenario(v_pos=(5.0, 5.0), p_pos=(5.0, 5.0))
    assert any(i.code == "ParamOutOfRange" and "share position" in i.message
               for i in validate_scenario(s))


def test_ring_needs_four_nodes():
    s = peer_scenario(Protocol.MULTI_PARTY_RING, 3)
    msgs = [str(i) for i in validate_scenario(s)]
    assert any("N must be >= 4 for MultiPartyRing" in m for m in msgs)


def test_oneway_rejects_two_plain_provers():
    extra = NodeSpec(id=3, pos=(40.0, 40.0), role=Role.PROVER)
    s = oneway_scenario(extra_nodes=[extra])
    assert ("RoleMismatch", "nodes") in issue_codes(s)


def test_oneway_allows_relay_pair():
    relay = NodeSpec(id=3, pos=(40.0, 40.0), role=Role.PROVER, policy=Relay(victim=2))
    s = oneway_scenario(extra_nodes=[relay])
    assert validate_scenario(s) == []


def test_relay_outside_oneway_is_refused():
    s = mpnv_scenario(n=3, n_a=2, d_a=0.5, n_verifiers=2, m_provers=2)
    relayed = with_policy(s, 3, Relay(victim=4))
    assert [(i.code, i.fld) for i in validate_scenario(relayed)] == [
        ("PolicyInapplicable", "nodes[2].policy")]


@pytest.mark.parametrize("key, value", [("n_p1", 7), ("n_p2", -3)])
def test_ntom_passive_checks_implied_passive_rounds(key, value):
    s = ntom_scenario(Protocol.NTOM_PASSIVE, 1, 1, n=2, d_1=1.0, d_2=1.0,
                      n_a1=1, n_a2=1, n_p1=1, n_p2=1)
    assert validate_scenario(s) == []
    bad = dataclasses.replace(s, experiment=dataclasses.replace(s.experiment, **{key: value}))
    assert [(i.code, i.fld) for i in validate_scenario(bad)] == [
        ("ParamOutOfRange", f"experiment.{key}")]


def test_mpnv_requires_experiment_params():
    s = mpnv_scenario(n=2, n_a=1, d_a=0.5, n_verifiers=3, m_provers=2)
    bare = Scenario(nodes=s.nodes, protocol=s.protocol, config=s.config,
                    rng_seed=s.rng_seed, experiment=None)
    assert any("experiment.n_a" in str(i) or i.fld == "experiment"
               for i in validate_scenario(bare))


def test_mpnv_rejects_out_of_range_fraction():
    s = mpnv_scenario(n=2, n_a=1, d_a=1.5, n_verifiers=3, m_provers=2)
    assert ("ParamOutOfRange", "experiment.d_a") in issue_codes(s)


@pytest.mark.parametrize("n_a, d_a, fld, text", [
    (2, 0.0, "experiment.d_a", "d_a must be in (0, 1], got 0.0"),
    (0, 0.5, "experiment.n_a", "n_a must be in 1..n (3), got 0"),
    (4, 0.5, "experiment.n_a", "n_a must be in 1..n (3), got 4"),
])
def test_mpnv_refuses_each_range_edge_alone(n_a, d_a, fld, text):
    """d_a = 0 and n_a just outside 1..n each break one rule alone (n_p follows
    n_a), and give exactly that one issue, field and text."""
    s = mpnv_scenario(n=3, n_a=n_a, d_a=d_a, n_verifiers=4, m_provers=2)
    assert [(i.code, i.fld, i.message) for i in validate_scenario(s)] == [
        ("ParamOutOfRange", fld, text)]
    fixed = dataclasses.replace(s, experiment=dataclasses.replace(
        s.experiment, n_a=2, n_p=1, d_a=0.5))
    assert validate_scenario(fixed) == []


def test_ntom_group_sizes_must_cover_nodes():
    s = ntom_scenario(Protocol.NTOM_MULTIPARTY, 2, 2)
    wrong = Scenario(nodes=s.nodes, protocol=s.protocol, config=s.config,
                     rng_seed=s.rng_seed,
                     experiment=ExperimentParams(N=3, M=3))
    assert any("N + M" in i.message for i in validate_scenario(wrong))


@pytest.mark.parametrize("role,policy", [
    (Role.ACTIVE_VERIFIER, GuessAhead(p_rounds=1)),
    (Role.PROVER, EarlyChallenge(advance_s=1e-9, pr_ch=0.5)),
    (Role.ACTIVE_VERIFIER, SelectiveDelay(delay_s=1e-9)),
])
def test_policy_role_mismatches_flagged(role, policy):
    nodes = (
        NodeSpec(id=1, pos=(0.0, 0.0), role=Role.ACTIVE_VERIFIER),
        NodeSpec(id=2, pos=(10.0, 0.0), role=Role.PROVER),
        NodeSpec(id=3, pos=(0.0, 10.0), role=role, policy=policy),
    )
    s = Scenario(nodes=nodes, protocol=Protocol.ONE_WAY,
                 config=ProtocolConfig(n=2), rng_seed=1)
    assert any(i.code == "PolicyInapplicable" for i in validate_scenario(s))


@pytest.mark.parametrize("s", [peer_scenario(Protocol.MULTI_PARTY_RING, 4),
                               ntom_scenario(Protocol.NTOM_MULTIPARTY, 2, 2)],
                         ids=["ring", "ntom-multiparty"])
def test_a_targeted_delay_in_a_ring_is_refused(s):
    """Every ring send feeds every observer's solve, so a SelectiveDelay cannot
    single out one target there; an untargeted one is still valid."""
    peer, other = s.nodes[0].id, s.nodes[1].id
    assert validate_scenario(with_policy(s, peer, SelectiveDelay(delay_s=5e-8))) == []
    targeted = with_policy(s, peer, SelectiveDelay(delay_s=5e-8, target=other))
    assert [(i.code, i.fld) for i in validate_scenario(targeted)] == [
        ("PolicyInapplicable", "nodes[0].policy")]
    with pytest.raises(ScenarioInvalid, match="cannot target one ring peer"):
        run_scenario(targeted)


def test_policy_issues_name_the_node_by_index():
    nodes = (
        NodeSpec(id=7, pos=(0.0, 0.0), role=Role.ACTIVE_VERIFIER, policy=GuessAhead(p_rounds=1)),
        NodeSpec(id=2, pos=(10.0, 0.0), role=Role.PROVER),
    )
    s = Scenario(nodes=nodes, protocol=Protocol.ONE_WAY, config=ProtocolConfig(n=2), rng_seed=1)
    assert ("PolicyInapplicable", "nodes[0].policy") in issue_codes(s)


def test_relay_victim_must_be_another_node():
    bad = oneway_scenario(prover_policy=Relay(victim=2))  # points at itself
    assert any("another node" in i.message for i in validate_scenario(bad))


def test_guess_ahead_rounds_capped_by_n():
    s = oneway_scenario(n=2, prover_policy=GuessAhead(p_rounds=5))
    assert any("p_rounds exceeds round count" in i.message
               for i in validate_scenario(s))


def test_node_insertion_needs_missing_cert():
    s = oneway_scenario(prover_policy=NodeInsertion())
    assert any("has_cert" in i.message for i in validate_scenario(s))


def test_ensure_valid_raises_with_issue_text():
    s = peer_scenario(Protocol.MULTI_PARTY_RING, 3)
    with pytest.raises(ScenarioInvalid, match="N must be >= 4"):
        ensure_valid(s)
