"""The scenario validator as a ladder of branches, kept as a test oracle.

gdbsim's validate_scenario reads the role counts each protocol admits,
the roles each policy applies to and the ranged experiment fields from
tables, one loop each.  This module keeps the earlier form: one `if
protocol ==` branch per protocol, one `isinstance` branch per policy,
and a helper per group protocol, each appending its issues in turn.  So
a property can demand that the tables give the same issues, code, field,
text and order, for any scenario.
"""
from __future__ import annotations

from typing import Dict, List

from gdbsim import threat
from gdbsim.core import (
    NodeId,
    Protocol,
    Role,
    Scenario,
    ValidationIssue,
    active_verifier_count,
    distance,
)


def _policy_issues(s: Scenario) -> List[ValidationIssue]:
    issues: List[ValidationIssue] = []
    ids = {n.id for n in s.nodes}
    for i, n in enumerate(s.nodes):
        p = n.policy
        fld = f"nodes[{i}].policy"
        if isinstance(p, threat.GuessAhead):
            if n.role != Role.PROVER:
                issues.append(ValidationIssue(
                    "PolicyInapplicable", fld, "GuessAhead applies to provers only"))
            elif p.p_rounds > s.config.n:
                issues.append(ValidationIssue(
                    "ParamOutOfRange", fld, "GuessAhead p_rounds exceeds round count"))
        elif isinstance(p, threat.SelectiveDelay):
            if n.role not in (Role.PROVER, Role.PEER):
                issues.append(ValidationIssue(
                    "PolicyInapplicable", fld,
                    "SelectiveDelay applies to responding nodes (provers or peers)"))
            if p.target is not None and p.target not in ids:
                issues.append(ValidationIssue(
                    "ParamOutOfRange", fld, f"SelectiveDelay target {p.target} not in scenario"))
            elif p.target is not None and s.protocol in (
                    Protocol.MULTI_PARTY_RING, Protocol.NTOM_MULTIPARTY):
                issues.append(ValidationIssue("PolicyInapplicable", fld, "SelectiveDelay cannot "
                                              "target one ring peer: every send feeds every solve"))
        elif isinstance(p, threat.Relay):
            if n.role != Role.PROVER:
                issues.append(ValidationIssue(
                    "PolicyInapplicable", fld, "Relay applies to a node posing as prover"))
            elif s.protocol != Protocol.ONE_WAY:
                issues.append(ValidationIssue(
                    "PolicyInapplicable", fld, "Relay is driven only by OneWayDB"))
            if p.victim not in ids:
                issues.append(ValidationIssue(
                    "ParamOutOfRange", fld, f"Relay victim {p.victim} not in scenario"))
            elif p.victim == n.id:
                issues.append(ValidationIssue(
                    "ParamOutOfRange", fld, "Relay victim must be another node"))
        elif isinstance(p, threat.FakeLocationReport):
            if n.role not in (Role.ACTIVE_VERIFIER, Role.PASSIVE_VERIFIER):
                issues.append(ValidationIssue(
                    "PolicyInapplicable", fld,
                    "FakeLocationReport applies to verifiers whose position feeds passive observers"))
        elif isinstance(p, threat.EarlyChallenge):
            if n.role not in (Role.ACTIVE_VERIFIER, Role.PASSIVE_VERIFIER):
                issues.append(ValidationIssue(
                    "PolicyInapplicable", fld, "EarlyChallenge applies to verifiers"))
        elif isinstance(p, threat.NodeInsertion):
            if n.has_cert:
                issues.append(ValidationIssue(
                    "PolicyInapplicable", fld, "NodeInsertion requires has_cert false"))
    return issues


def _role_counts(s: Scenario):
    provers = s.provers()
    actives = s.with_role(Role.ACTIVE_VERIFIER)
    passives = s.with_role(Role.PASSIVE_VERIFIER)
    peers = s.peers()
    return provers, actives, passives, peers


def validate_scenario(s: Scenario) -> List[ValidationIssue]:
    """Every semantic problem the branch ladder finds, in its order."""
    issues: List[ValidationIssue] = []

    seen: Dict[NodeId, int] = {}
    for n in s.nodes:
        seen[n.id] = seen.get(n.id, 0) + 1
    for node_id, count in seen.items():
        if count > 1:
            issues.append(ValidationIssue(
                "DuplicateNodeId", "nodes", f"node id {node_id} appears {count} times"))

    # distance 0.0 needs both coordinates equal as floats, so the pairs
    # run only when a set of positions finds a repeat
    if len({(float(n.pos[0]), float(n.pos[1])) for n in s.nodes}) < len(s.nodes):
        for i, a in enumerate(s.nodes):
            for b in s.nodes[i + 1 :]:
                if distance(a.pos, b.pos) == 0.0 and a.id != b.id:
                    issues.append(ValidationIssue(
                        "ParamOutOfRange", "nodes",
                        f"nodes {a.id} and {b.id} share position {a.pos}"))

    # ProtocolConfig field, lowest value, whether the lowest itself is allowed
    for name, lowest, inclusive in (("n", 1, True), ("bit_len", 1, True), ("alpha", 0, True),
                                    ("c", 0, False)):
        v = getattr(s.config, name)
        if v < lowest or (v == lowest and not inclusive):
            rule = f"{'>=' if inclusive else '>'} {lowest}"
            issues.append(ValidationIssue(
                "ParamOutOfRange", f"config.{name}", f"{name} must be {rule}"))

    provers, actives, passives, peers = _role_counts(s)
    proto = s.protocol

    if proto == Protocol.ONE_WAY:
        if peers:
            issues.append(ValidationIssue(
                "RoleMismatch", "nodes", "one-way scenarios contain no Peer"))
        if len(actives) != 1:
            issues.append(ValidationIssue(
                "RoleMismatch", "nodes",
                f"OneWayDB needs exactly 1 ActiveVerifier, got {len(actives)}"))
        relays = [n for n in provers if isinstance(n.policy, threat.Relay)]
        if len(provers) == 1 and not relays:
            pass
        elif len(provers) == 2 and len(relays) == 1 and relays[0].policy.victim in {
            n.id for n in provers
        } and relays[0].policy.victim != relays[0].id:
            pass
        else:
            issues.append(ValidationIssue(
                "RoleMismatch", "nodes",
                "OneWayDB needs exactly 1 Prover, or 2 Provers where one relays to the other"))
    elif proto == Protocol.MUTUAL_INTERLEAVED:
        if len(peers) != 2 or len(s.nodes) != 2:
            issues.append(ValidationIssue(
                "RoleMismatch", "nodes", "MutualInterleaved needs exactly 2 Peer nodes"))
    elif proto == Protocol.ONE_TO_MANY:
        if len(peers) < 2 or len(peers) != len(s.nodes):
            issues.append(ValidationIssue(
                "RoleMismatch", "nodes", "OneToMany needs >= 2 nodes, all Peer"))
    elif proto == Protocol.MULTI_PARTY_RING:
        if len(peers) != len(s.nodes):
            issues.append(ValidationIssue(
                "RoleMismatch", "nodes", "mutual multi-party scenarios contain only Peer"))
        if len(peers) < 4:
            issues.append(ValidationIssue(
                "ParamOutOfRange", "nodes", "N must be >= 4 for MultiPartyRing"))
    elif proto == Protocol.MPNV:
        if peers:
            issues.append(ValidationIssue(
                "RoleMismatch", "nodes", "one-way group scenarios contain no Peer"))
        if not provers:
            issues.append(ValidationIssue(
                "RoleMismatch", "nodes", "MPNV needs at least one Prover"))
        if not (actives or passives):
            issues.append(ValidationIssue(
                "RoleMismatch", "nodes", "MPNV needs at least one verifier"))
        issues.extend(_check_mpnv_params(s, len(actives), len(passives), len(provers)))
    else:  # the two-group protocols
        if len(peers) != len(s.nodes):
            issues.append(ValidationIssue(
                "RoleMismatch", "nodes", "mutual multi-party scenarios contain only Peer"))
        issues.extend(_check_ntom_params(s, len(peers)))

    issues.extend(_policy_issues(s))
    return issues


def _check_mpnv_params(
    s: Scenario, n_actives: int, n_passives: int, n_provers: int
) -> List[ValidationIssue]:
    issues: List[ValidationIssue] = []
    n_verifiers = n_actives + n_passives
    exp = s.experiment
    if exp is None or exp.n_a is None or exp.d_a is None:
        issues.append(ValidationIssue(
            "ParamOutOfRange", "experiment", "MPNV needs experiment.n_a and experiment.d_a"))
        return issues
    if not 0 < exp.n_a <= s.config.n:
        issues.append(ValidationIssue(
            "ParamOutOfRange", "experiment.n_a",
            f"n_a must be in 1..n ({s.config.n}), got {exp.n_a}"))
    if not 0.0 < exp.d_a <= 1.0:
        issues.append(ValidationIssue(
            "ParamOutOfRange", "experiment.d_a", f"d_a must be in (0, 1], got {exp.d_a}"))
    elif (want := active_verifier_count(exp.d_a, n_verifiers)) > n_actives:
        issues.append(ValidationIssue(
            "ParamOutOfRange", "experiment.d_a", f"d_a={exp.d_a} selects {want} of "
            f"{n_verifiers} verifiers but only {n_actives} are ActiveVerifiers"))
    if exp.N is not None and exp.N != n_verifiers:
        issues.append(ValidationIssue(
            "ParamOutOfRange", "experiment.N",
            f"N={exp.N} but scenario has {n_verifiers} verifiers"))
    if exp.M is not None and exp.M != n_provers:
        issues.append(ValidationIssue(
            "ParamOutOfRange", "experiment.M",
            f"M={exp.M} but scenario has {n_provers} provers"))
    issues.extend(_implied_n_p(s, ""))
    return issues


def _implied_n_p(s: Scenario, group: str) -> List[ValidationIssue]:
    """n_p<group>, when given, must be n - n_a<group>."""
    n_a, n_p = getattr(s.experiment, "n_a" + group), getattr(s.experiment, "n_p" + group)
    if n_p is None or n_a is None or n_p == s.config.n - n_a:
        return []
    return [ValidationIssue("ParamOutOfRange", f"experiment.n_p{group}",
                            f"n_p{group} must equal n - n_a{group} = {s.config.n - n_a}, got {n_p}")]


def _check_ntom_params(s: Scenario, n_peers: int) -> List[ValidationIssue]:
    issues: List[ValidationIssue] = []
    exp = s.experiment
    if exp is None or exp.N is None or exp.M is None:
        issues.append(ValidationIssue(
            "ParamOutOfRange", "experiment",
            "two-group protocols need experiment.N and experiment.M"))
        return issues
    if exp.N < 1 or exp.M < 1:
        issues.append(ValidationIssue(
            "ParamOutOfRange", "experiment", "group sizes must be >= 1"))
    if exp.N + exp.M != n_peers:
        issues.append(ValidationIssue(
            "ParamOutOfRange", "experiment",
            f"N + M = {exp.N + exp.M} but scenario has {n_peers} nodes"))
    if s.protocol == Protocol.NTOM_MULTIPARTY and exp.N + exp.M < 4:
        issues.append(ValidationIssue(
            "ParamOutOfRange", "experiment", "N must be >= 4 for the joint ring run"))
    if s.protocol == Protocol.NTOM_PASSIVE:
        for key in ("d_1", "d_2", "n_a1", "n_a2"):
            if getattr(exp, key) is None:
                issues.append(ValidationIssue(
                    "ParamOutOfRange", f"experiment.{key}",
                    f"NtoM-passive needs experiment.{key}"))
        for key in ("d_1", "d_2"):
            v = getattr(exp, key)
            if v is not None and not 0.0 < v <= 1.0:
                issues.append(ValidationIssue(
                    "ParamOutOfRange", f"experiment.{key}",
                    f"{key} must be in (0, 1], got {v}"))
        for key in ("n_a1", "n_a2"):
            v = getattr(exp, key)
            if v is not None and not 0 < v <= s.config.n:
                issues.append(ValidationIssue(
                    "ParamOutOfRange", f"experiment.{key}",
                    f"{key} must be in 1..n ({s.config.n}), got {v}"))
        issues += _implied_n_p(s, "1") + _implied_n_p(s, "2")
    return issues
