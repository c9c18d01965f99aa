"""Scenario model, units, and validation for distance-bounding simulations.

All geometry is planar.  Distances are meters, times are seconds on a
shared true clock; each node additionally owns a local clock offset.
Propagation is line-of-sight at the configured signal speed, and every
transmission is a broadcast heard by every other node in the scenario.

A Scenario is a closed description of one run: node placement, roles,
per-node adversary policies, protocol selection, protocol parameters,
and the RNG seed.  Serialization is strict JSON; unknown keys anywhere
in the document are rejected so that typos cannot silently change an
experiment.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from types import UnionType
from typing import Dict, List, Optional, Tuple, Union, get_args, get_origin, get_type_hints

from . import threat
from .threat import AdversaryPolicy, Honest, PolicyError

# Signal propagation speed, meters per second.  Vacuum light speed, exact.
SPEED_OF_LIGHT = 299792458.0

# Absolute comparison tolerances for ideal-channel runs.
EPS_TIME = 1e-12   # seconds
EPS_DIST = 1e-6    # meters

NodeId = int


class GdbSimError(Exception):
    """Base class for all package errors."""


class ScenarioFormatError(GdbSimError, ValueError):
    """The scenario document is structurally malformed."""


class ScenarioInvalid(GdbSimError, ValueError):
    """The scenario parsed but failed semantic validation."""

    def __init__(self, issues: List["ValidationIssue"]):
        self.issues = issues
        super().__init__("; ".join(str(i) for i in issues))

    def __reduce__(self):
        # rebuilt from the issues, so it crosses a process pool intact
        return type(self), (self.issues,)


class LengthMismatch(GdbSimError, ValueError):
    """Two sequences that must have equal length do not."""


def distance(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    """Euclidean distance between two planar points, meters."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def round_half_up(x: float) -> int:
    """Round to nearest integer, halves away from zero toward +inf."""
    return int(math.floor(x + 0.5))


def active_verifier_count(d_a: float, n_verifiers: int) -> int:
    """Number of verifiers selected for active rounds.

    Nearest-integer rounding of the fraction, with a floor of one so a
    positive fraction always yields at least one active verifier.
    """
    if d_a <= 0.0:
        return 0
    return max(1, round_half_up(d_a * n_verifiers))


class Role(str, Enum):
    PROVER = "Prover"
    ACTIVE_VERIFIER = "ActiveVerifier"
    PASSIVE_VERIFIER = "PassiveVerifier"
    PEER = "Peer"


class Protocol(str, Enum):
    ONE_WAY = "OneWayDB"
    MUTUAL_INTERLEAVED = "MutualInterleaved"
    ONE_TO_MANY = "OneToMany"
    MULTI_PARTY_RING = "MultiPartyRing"
    MPNV = "MPNV"
    NTOM_PASSIVE = "NtoM-passive"
    NTOM_MULTIPARTY = "NtoM-multiparty"
    NTOM_ONETOMANY = "NtoM-onetomany"


@dataclass(frozen=True)
class ProtocolConfig:
    """Knobs shared by every protocol.

    n: rapid rounds per measuring relationship.
    bit_len: challenge/response width in bits per rapid message.
    alpha: processing delay a responder waits before answering, seconds.
    c: signal speed, meters per second.
    auth_enabled: sign and verify transcripts with registered keys.
    """

    n: int
    bit_len: int = 1
    alpha: float = 0.0
    c: float = SPEED_OF_LIGHT
    auth_enabled: bool = False


@dataclass(frozen=True)
class ExperimentParams:
    """Group-protocol parameters; unused fields stay None.

    n_a / d_a parameterize one-way group runs: each selected active
    verifier runs n_a active rounds, and d_a is the selected fraction.
    n_p is the per-verifier passive round count, implied as n - n_a.
    The *_1 / *_2 variants apply per group in two-group runs.
    N and M are group sizes (verifiers/provers, or group 1/group 2).
    """

    n_a: Optional[int] = None
    n_p: Optional[int] = None
    d_a: Optional[float] = None
    d_1: Optional[float] = None
    d_2: Optional[float] = None
    n_a1: Optional[int] = None
    n_a2: Optional[int] = None
    n_p1: Optional[int] = None
    n_p2: Optional[int] = None
    N: Optional[int] = None
    M: Optional[int] = None


@dataclass(frozen=True)
class NodeSpec:
    id: NodeId
    pos: Tuple[float, float]
    role: Role
    policy: AdversaryPolicy = field(default_factory=Honest)
    has_cert: bool = True


@dataclass(frozen=True)
class Scenario:
    # builtin generics: the codec evaluates these hints, and typing's
    # Tuple[...] / Optional[...] cache would keep this module's classes
    # alive after a re-import
    nodes: tuple[NodeSpec, ...]
    protocol: Protocol
    config: ProtocolConfig
    rng_seed: int
    experiment: ExperimentParams | None = None

    def node(self, node_id: NodeId) -> NodeSpec:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(f"no node with id {node_id}")

    def positions(self) -> Dict[NodeId, Tuple[float, float]]:
        return {n.id: n.pos for n in self.nodes}

    def with_role(self, *roles: Role) -> List[NodeSpec]:
        return [n for n in self.nodes if n.role in roles]

    def provers(self) -> List[NodeSpec]:
        return self.with_role(Role.PROVER)

    def verifiers(self) -> List[NodeSpec]:
        return self.with_role(Role.ACTIVE_VERIFIER, Role.PASSIVE_VERIFIER)

    def peers(self) -> List[NodeSpec]:
        return self.with_role(Role.PEER)


@dataclass(frozen=True)
class ValidationIssue:
    code: str      # DuplicateNodeId | RoleMismatch | ParamOutOfRange | PolicyInapplicable
    fld: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}({self.fld}): {self.message}"


# ---------------------------------------------------------------------------
# strict JSON codec
#
# The dataclasses above (and the policies in threat) are the format: one
# decoder and one encoder per record are built at import time from its
# fields and type hints.  decode(value, where, key) formats the path of
# member key of section where only to report an error.  Sections (config,
# nodes[1].policy) are named from the root; root leaves as scenario.<key>.

_ROOT = "scenario"
_FLOAT_MAX = sys.float_info.max


def _path(where: str, key) -> str:
    return f"{where}[{key}]" if isinstance(key, int) else f"{where}.{key}"


def _section(where: Optional[str], key) -> str:
    """The name of section key of where; the root record's where is None."""
    return key if where is None or where == _ROOT else _path(where, key)


def _is_finite_number(obj) -> bool:
    return (isinstance(obj, (int, float)) and not isinstance(obj, bool)
            and -_FLOAT_MAX <= obj <= _FLOAT_MAX)


def _int(obj, where: str, key) -> int:
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj
    raise ScenarioFormatError(f"{_path(where, key)} must be an integer")


def _number(obj, where: str, key) -> float:
    if _is_finite_number(obj):
        return float(obj)
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        raise ScenarioFormatError(f"{_path(where, key)} must be finite")
    raise ScenarioFormatError(f"{_path(where, key)} must be a number")


def _bool(obj, where: str, key) -> bool:
    if isinstance(obj, bool):
        return obj
    raise ScenarioFormatError(f"{_path(where, key)} must be a boolean")


def _point(obj, where: str, key) -> Tuple[float, float]:
    if isinstance(obj, list) and len(obj) == 2:
        x, y = obj
        if _is_finite_number(x) and _is_finite_number(y):
            return (float(x), float(y))
    raise ScenarioFormatError(f"{_path(where, key)} must be [x, y]")


def _per_message(obj, where: str, key) -> Tuple[Tuple[int, float], ...]:
    """{"send index": delay_s} into (index, delay) pairs sorted by index."""
    path = _path(where, key)
    if not (isinstance(obj, dict) and all(isinstance(k, str) and k.isdecimal() for k in obj)):
        raise ScenarioFormatError(f"{path} must be an object from send index to delay")
    return tuple(sorted((int(k), _number(v, path, k)) for k, v in obj.items()))


def _policy(obj, where: str, key) -> AdversaryPolicy:
    """A policy object tagged by its class name in "kind"; null is Honest."""
    if obj is None:
        return Honest()
    section = _section(where, key)
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"{section} must be an object")
    kind = obj.get("kind")
    if not (isinstance(kind, str) and kind in _POLICY_CODECS):
        raise ScenarioFormatError(
            f"{section}.kind: unknown policy kind {kind!r}, expected one of {sorted(_POLICY_CODECS)}")
    return _POLICY_CODECS[kind][0](obj, where, key)


def _enum(cls):
    values = [member.value for member in cls]

    def decode(obj, where: str, key):
        try:
            return cls(obj)
        except ValueError:
            raise ScenarioFormatError(
                f"{_path(where, key)} must be one of {values}, got {obj!r}") from None
    return decode, lambda member: member.value


def _optional(decode):
    return lambda obj, where, key: None if obj is None else decode(obj, where, key)


def _array(decode):
    def array(obj, where: str, key):
        if not isinstance(obj, list) or not obj:
            raise ScenarioFormatError(f"{_path(where, key)} must be a non-empty array")
        section = _section(where, key)
        return tuple(decode(item, section, i) for i, item in enumerate(obj))
    return array


# field type -> (decode(obj, where, key), encode(value)); encode None: the value is its own JSON
_LEAVES = {
    int: (_int, None),
    float: (_number, None),
    bool: (_bool, None),
    Tuple[float, float]: (_point, list),
    Tuple[Tuple[int, float], ...]: (_per_message, lambda pm: {str(k): v for k, v in pm}),
    AdversaryPolicy: (_policy, lambda policy: _POLICY_CODECS[type(policy).__name__][1](policy)),
}


def _codec(tp):
    if tp in _LEAVES:
        return _LEAVES[tp]
    if isinstance(tp, type) and issubclass(tp, Enum):
        return _enum(tp)
    if is_dataclass(tp):
        return _record(tp)
    args = get_args(tp)
    if get_origin(tp) in (Union, UnionType) and args[1:] == (type(None),):
        decode, encode = _codec(args[0])
        return _optional(decode), encode
    if get_origin(tp) is tuple and args[1:] == (...,):
        decode, encode = _codec(args[0])
        return _array(decode), lambda items: [encode(item) for item in items]
    raise TypeError(f"no scenario codec for {tp!r}")


def _record(cls, tagged: bool = False):
    """Codec for a dataclass; a tagged record also carries "kind": its class name."""
    hints = get_type_hints(cls)
    specs = [(f.name, *_codec(hints[f.name])) for f in fields(cls)]
    required = [f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING]
    known = {name for name, _, _ in specs} | ({"kind"} if tagged else set())

    def decode(obj, where: Optional[str], key):
        section = _section(where, key)
        if not isinstance(obj, dict):
            raise ScenarioFormatError(f"{section} must be an object")
        for name in required:
            if name not in obj:
                raise ScenarioFormatError(f"missing key {section}.{name}")
        if not known.issuperset(obj):
            raise ScenarioFormatError(f"unknown keys at {section}: {sorted(set(obj) - known)}")
        kwargs = {name: dec(obj[name], section, name) for name, dec, _ in specs if name in obj}
        try:
            return cls(**kwargs)
        except PolicyError as exc:
            raise ScenarioFormatError(f"{section}: {exc}") from exc

    def encode(value) -> dict:
        out = {"kind": cls.__name__} if tagged else {}
        for name, _, enc in specs:
            v = getattr(value, name)
            if v is not None and v != ():
                out[name] = v if enc is None else enc(v)
        return out
    return decode, encode


_POLICY_CODECS = {cls.__name__: _record(cls, tagged=True) for cls in get_args(AdversaryPolicy)}
_decode_scenario, _encode_scenario = _record(Scenario)


def scenario_from_json(doc) -> Scenario:
    """Parse a scenario document (dict or JSON string).  Strict keys."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario must be a JSON object")
    return _decode_scenario(doc, None, _ROOT)


def scenario_to_json(s: Scenario) -> dict:
    """The scenario's document: None fields and empty tuples are left out."""
    return _encode_scenario(s)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_json(fh.read())


# ---------------------------------------------------------------------------
# semantic validation


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
    """Return all semantic problems; an empty list means the scenario runs."""
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


def ensure_valid(s: Scenario) -> Scenario:
    issues = validate_scenario(s)
    if issues:
        raise ScenarioInvalid(issues)
    return s
