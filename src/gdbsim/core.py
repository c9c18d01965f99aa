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
    """Parse a scenario document (dict, or JSON text as str or UTF-8 bytes).  Strict keys."""
    if isinstance(doc, (str, bytes)):
        try:  # bytes are UTF-8, as a scenario file is: json.loads would also take UTF-16 or -32
            doc = json.loads(doc.decode("utf-8") if isinstance(doc, bytes) else doc)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ScenarioFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario must be a JSON object")
    return _decode_scenario(doc, None, _ROOT)


def scenario_to_json(s: Scenario) -> dict:
    """The scenario's document: None fields and empty tuples are left out."""
    return _encode_scenario(s)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioFormatError(f"{path} is not UTF-8 text: {exc}") from None
    return scenario_from_json(text)


# ---------------------------------------------------------------------------
# semantic validation: three kinds of rule are tables, each read by one loop;
# the rules that fit no table stay as code in validate_scenario and its helpers

_VERIFIERS = (Role.ACTIVE_VERIFIER, Role.PASSIVE_VERIFIER)
_NOT_PEER = (Role.PROVER, *_VERIFIERS)
_ONLY_PEERS = ("RoleMismatch", {_NOT_PEER: (0, 0)},
               "mutual multi-party scenarios contain only Peer")

# protocol -> [(issue code, {roles: (fewest, most)}, text)]: a rule gives one issue on
# nodes when, for any of its entries, the count of nodes holding one of roles is out
# of range; {got} in its text is the count of its first entry
_ROLE_RULES = {
    Protocol.ONE_WAY: [
        ("RoleMismatch", {(Role.PEER,): (0, 0)}, "one-way scenarios contain no Peer"),
        ("RoleMismatch", {(Role.ACTIVE_VERIFIER,): (1, 1)},
         "OneWayDB needs exactly 1 ActiveVerifier, got {got}"),
    ],
    Protocol.MUTUAL_INTERLEAVED: [("RoleMismatch", {(Role.PEER,): (2, 2), _NOT_PEER: (0, 0)},
                                   "MutualInterleaved needs exactly 2 Peer nodes")],
    Protocol.ONE_TO_MANY: [("RoleMismatch", {(Role.PEER,): (2, sys.maxsize), _NOT_PEER: (0, 0)},
                            "OneToMany needs >= 2 nodes, all Peer")],
    Protocol.MULTI_PARTY_RING: [
        _ONLY_PEERS,
        ("ParamOutOfRange", {(Role.PEER,): (4, sys.maxsize)}, "N must be >= 4 for MultiPartyRing"),
    ],
    Protocol.MPNV: [
        ("RoleMismatch", {(Role.PEER,): (0, 0)}, "one-way group scenarios contain no Peer"),
        ("RoleMismatch", {(Role.PROVER,): (1, sys.maxsize)}, "MPNV needs at least one Prover"),
        ("RoleMismatch", {_VERIFIERS: (1, sys.maxsize)}, "MPNV needs at least one verifier"),
    ],
    Protocol.NTOM_PASSIVE: [_ONLY_PEERS],
    Protocol.NTOM_MULTIPARTY: [_ONLY_PEERS],
    Protocol.NTOM_ONETOMANY: [_ONLY_PEERS],
}

# policy class -> (the roles it applies to, the text of its issue on a node of another role)
_POLICY_ROLES = {
    threat.GuessAhead: ((Role.PROVER,), "GuessAhead applies to provers only"),
    threat.SelectiveDelay: ((Role.PROVER, Role.PEER),
                            "SelectiveDelay applies to responding nodes (provers or peers)"),
    threat.Relay: ((Role.PROVER,), "Relay applies to a node posing as prover"),
    threat.FakeLocationReport: (_VERIFIERS, "FakeLocationReport applies to verifiers "
                                "whose position feeds passive observers"),
    threat.EarlyChallenge: (_VERIFIERS, "EarlyChallenge applies to verifiers"),
}


# a ranged field's check(key, value, s, roles) returns the text of its issue, or
# None when value, the value of experiment field key, is in range
def _rounds(key: str, value, s: Scenario, roles: List[Role]) -> Optional[str]:
    return None if 0 < value <= s.config.n else f"{key} must be in 1..n ({s.config.n}), got {value}"


def _fraction(key: str, value, s: Scenario, roles: List[Role]) -> Optional[str]:
    return None if 0.0 < value <= 1.0 else f"{key} must be in (0, 1], got {value}"


def _implied(key: str, value, s: Scenario, roles: List[Role]) -> Optional[str]:
    """n_p<g> equals n - n_a<g>, when n_a<g> is set."""
    group = key[3:]
    n_a = getattr(s.experiment, "n_a" + group)
    if n_a is None or value == s.config.n - n_a:
        return None
    return f"n_p{group} must equal n - n_a{group} = {s.config.n - n_a}, got {value}"


def _selects_actives(key: str, d_a, s: Scenario, roles: List[Role]) -> Optional[str]:
    """d_a in range selects no more verifiers than are ActiveVerifiers."""
    verifiers, actives = sum(map(roles.count, _VERIFIERS)), roles.count(Role.ACTIVE_VERIFIER)
    if 0.0 < d_a <= 1.0 and (want := active_verifier_count(d_a, verifiers)) > actives:
        return (f"d_a={d_a} selects {want} of {verifiers} verifiers "
                f"but only {actives} are ActiveVerifiers")
    return None


def _counts(of: Tuple[Role, ...], noun: str):
    """The check that a field equals the count of nodes holding one of the roles of."""
    def check(key: str, value, s: Scenario, roles: List[Role]) -> Optional[str]:
        got = sum(map(roles.count, of))
        return None if value == got else f"{key}={value} but scenario has {got} {noun}"
    return check


# protocol -> [(experiment field, check)], in issue order: a field left None is not
# checked; one whose check returns a text gives one issue on experiment.<field>
_RANGED_FIELDS = {
    Protocol.MPNV: [
        ("n_a", _rounds), ("d_a", _fraction), ("d_a", _selects_actives),
        ("N", _counts(_VERIFIERS, "verifiers")), ("M", _counts((Role.PROVER,), "provers")),
        ("n_p", _implied),
    ],
    Protocol.NTOM_PASSIVE: [("d_1", _fraction), ("d_2", _fraction), ("n_a1", _rounds),
                            ("n_a2", _rounds), ("n_p1", _implied), ("n_p2", _implied)],
}


def validate_scenario(s: Scenario) -> List[ValidationIssue]:
    """Return all semantic problems; an empty list means the scenario runs.

    Issues come in this order: duplicate ids, shared positions, config
    ranges; the protocol's _ROLE_RULES (the fewest and most nodes of each
    role, one issue on nodes per rule) and OneWayDB's relay pairing; the
    experiment fields a protocol needs, the two-group sizes, then its
    _RANGED_FIELDS; last each node's policy, its _POLICY_ROLES and then
    its own fields.
    """
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

    roles = [n.role for n in s.nodes]
    for code, bounds, text in _ROLE_RULES[s.protocol]:
        for of, (fewest, most) in bounds.items():
            if not fewest <= sum(map(roles.count, of)) <= most:
                got = sum(map(roles.count, next(iter(bounds))))
                issues.append(ValidationIssue(code, "nodes", text.format(got=got)))
                break
    if s.protocol == Protocol.ONE_WAY:
        provers = s.provers()
        relays = [n for n in provers if isinstance(n.policy, threat.Relay)]
        relayed = (len(provers) == 2 and len(relays) == 1
                   and relays[0].policy.victim in {n.id for n in provers} - {relays[0].id})
        if not (len(provers) == 1 and not relays or relayed):
            issues.append(ValidationIssue(
                "RoleMismatch", "nodes",
                "OneWayDB needs exactly 1 Prover, or 2 Provers where one relays to the other"))
    return issues + _experiment_issues(s, roles) + _policy_issues(s)


def _experiment_issues(s: Scenario, roles: List[Role]) -> List[ValidationIssue]:
    """The fields a group protocol needs and the two-group sizes, then its ranged fields."""
    exp, issues = s.experiment, []
    if s.protocol == Protocol.MPNV:
        if exp is None or exp.n_a is None or exp.d_a is None:
            return [ValidationIssue("ParamOutOfRange", "experiment",
                                    "MPNV needs experiment.n_a and experiment.d_a")]
    elif s.protocol in (Protocol.NTOM_PASSIVE, Protocol.NTOM_MULTIPARTY, Protocol.NTOM_ONETOMANY):
        if exp is None or exp.N is None or exp.M is None:
            return [ValidationIssue("ParamOutOfRange", "experiment",
                                    "two-group protocols need experiment.N and experiment.M")]
        if exp.N < 1 or exp.M < 1:
            issues.append(ValidationIssue(
                "ParamOutOfRange", "experiment", "group sizes must be >= 1"))
        if exp.N + exp.M != (peers := roles.count(Role.PEER)):
            issues.append(ValidationIssue(
                "ParamOutOfRange", "experiment",
                f"N + M = {exp.N + exp.M} but scenario has {peers} nodes"))
        if s.protocol == Protocol.NTOM_MULTIPARTY and exp.N + exp.M < 4:
            issues.append(ValidationIssue(
                "ParamOutOfRange", "experiment", "N must be >= 4 for the joint ring run"))
        if s.protocol == Protocol.NTOM_PASSIVE:
            issues += [ValidationIssue("ParamOutOfRange", f"experiment.{key}",
                                       f"NtoM-passive needs experiment.{key}")
                       for key in ("d_1", "d_2", "n_a1", "n_a2") if getattr(exp, key) is None]
    else:
        return []
    for key, check in _RANGED_FIELDS.get(s.protocol, ()):
        value = getattr(exp, key)
        if value is not None and (text := check(key, value, s, roles)) is not None:
            issues.append(ValidationIssue("ParamOutOfRange", f"experiment.{key}", text))
    return issues


def _policy_issues(s: Scenario) -> List[ValidationIssue]:
    issues: List[ValidationIssue] = []
    for i, n in enumerate(s.nodes):
        p, kind = n.policy, type(n.policy)
        fld = f"nodes[{i}].policy"
        applies = kind not in _POLICY_ROLES or n.role in _POLICY_ROLES[kind][0]
        if not applies:
            issues.append(ValidationIssue("PolicyInapplicable", fld, _POLICY_ROLES[kind][1]))
        if kind is threat.GuessAhead:
            if applies and p.p_rounds > s.config.n:
                issues.append(ValidationIssue(
                    "ParamOutOfRange", fld, "GuessAhead p_rounds exceeds round count"))
        elif kind is threat.SelectiveDelay and p.target is not None:
            if p.target not in {m.id for m in s.nodes}:
                issues.append(ValidationIssue(
                    "ParamOutOfRange", fld, f"SelectiveDelay target {p.target} not in scenario"))
            elif s.protocol in (Protocol.MULTI_PARTY_RING, Protocol.NTOM_MULTIPARTY):
                issues.append(ValidationIssue("PolicyInapplicable", fld, "SelectiveDelay cannot "
                                              "target one ring peer: every send feeds every solve"))
        elif kind is threat.Relay:
            if applies and s.protocol != Protocol.ONE_WAY:
                issues.append(ValidationIssue(
                    "PolicyInapplicable", fld, "Relay is driven only by OneWayDB"))
            if p.victim not in {m.id for m in s.nodes}:
                issues.append(ValidationIssue(
                    "ParamOutOfRange", fld, f"Relay victim {p.victim} not in scenario"))
            elif p.victim == n.id:
                issues.append(ValidationIssue(
                    "ParamOutOfRange", fld, "Relay victim must be another node"))
        elif kind is threat.NodeInsertion and n.has_cert:
            issues.append(ValidationIssue(
                "PolicyInapplicable", fld, "NodeInsertion requires has_cert false"))
    return issues


def ensure_valid(s: Scenario) -> Scenario:
    issues = validate_scenario(s)
    if issues:
        raise ScenarioInvalid(issues)
    return s
