"""Adversary policies and consistency checking for distance-bounding runs.

A policy describes how a single node deviates from the honest protocol
schedule.  Policies only shape behavior that a radio actually controls:
when to transmit, what bits to transmit, and what to claim out of band.
They never grant access to another node's secrets.

The cross-check detector compares the distance bounds published by the
participants of a mutual run pairwise.  A node that delays its
transmissions inconsistently shows up as a disagreement between two
honest observers; a node that tampers with payload bits shows up as a
transcript digest mismatch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

# Floor of the detection threshold for pairwise bound disagreement, in
# meters: three times the ideal-channel distance tolerance used elsewhere.
EPS_DETECT_M = 3.0e-6


class PolicyError(ValueError):
    """Malformed or inapplicable policy description."""


@dataclass(frozen=True)
class Honest:
    """Follow the protocol exactly."""


@dataclass(frozen=True)
class GuessAhead:
    """Answer rapid challenges before they arrive, guessing the bits.

    p_rounds: number of leading rounds answered early; remaining rounds
        are answered honestly.
    advance_s: how far before the true challenge arrival the response is
        emitted.  The guesser commits to its response nonces honestly and
        cheats only on timing and on the guessed challenge bits.
    """

    p_rounds: int
    advance_s: float = 0.0

    def __post_init__(self) -> None:
        if self.p_rounds < 0:
            raise PolicyError("GuessAhead p_rounds must be >= 0")
        if self.advance_s < 0.0:
            raise PolicyError("GuessAhead advance_s must be >= 0")


@dataclass(frozen=True)
class SelectiveDelay:
    """Hold back own transmissions to appear farther away.

    delay_s applies to every send.  per_message overrides the delay for
    specific sends, indexed by the node's own send counter within the
    rapid phase (0 is its first rapid-phase transmission).  target
    restricts the delay to exchanges with one measuring node; exchanges
    with other nodes stay honest.  A broadcast is delayed toward all
    receivers at once, never selectively per receiver.
    """

    delay_s: float = 0.0
    per_message: Tuple[Tuple[int, float], ...] = ()
    target: Optional[int] = None

    def __post_init__(self) -> None:
        if self.delay_s < 0.0 or any(d < 0.0 for _, d in self.per_message):
            raise PolicyError("SelectiveDelay delays must be >= 0")
        if len({i for i, _ in self.per_message}) < len(self.per_message):
            raise PolicyError("SelectiveDelay per_message names a send index twice")

    def delay_for(self, send_index: int, measurer: Optional[int] = None) -> float:
        if self.target is not None and measurer is not None and measurer != self.target:
            return 0.0
        for idx, d in self.per_message:
            if idx == send_index:
                return d
        return self.delay_s


@dataclass(frozen=True)
class Relay:
    """Proxy a rapid exchange to a distant victim prover (mafia fraud).

    The relay poses as the prover toward the verifier, forwarding each
    challenge to the victim and each response back.  It cannot shorten
    the measured distance because every bit still travels the full
    verifier-relay-victim path.
    """

    victim: int


@dataclass(frozen=True)
class FakeLocationReport:
    """Misreport own location (or distance) to passive observers.

    Exactly one of claimed_pos / claimed_distance_m is set.  Only
    meaningful for an active verifier whose position feeds the passive
    derivation of other observers.
    """

    claimed_pos: Optional[Tuple[float, float]] = None
    claimed_distance_m: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.claimed_pos is None) == (self.claimed_distance_m is None):
            raise PolicyError(
                "FakeLocationReport needs exactly one of claimed_pos, claimed_distance_m"
            )
        if self.claimed_distance_m is not None and self.claimed_distance_m < 0.0:
            raise PolicyError("FakeLocationReport claimed_distance_m must be >= 0")


@dataclass(frozen=True)
class EarlyChallenge:
    """Emit some challenges ahead of the honest schedule.

    advance_s: how early a selected challenge is transmitted relative to
        the honest absolute schedule.  The verifier re-anchors afterwards,
        so an isolated early challenge compresses exactly one timing gap
        observed by passive listeners.
    pr_ch: probability that any given round is selected.
    """

    advance_s: float
    pr_ch: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.pr_ch <= 1.0:
            raise PolicyError("EarlyChallenge pr_ch must lie in [0, 1]")
        if self.advance_s < 0.0:
            raise PolicyError("EarlyChallenge advance_s must be >= 0")


@dataclass(frozen=True)
class NodeInsertion:
    """Participate without holding a registered certificate."""


AdversaryPolicy = (
    Honest
    | GuessAhead
    | SelectiveDelay
    | Relay
    | FakeLocationReport
    | EarlyChallenge
    | NodeInsertion
)


TIMING_POLICIES = (SelectiveDelay, EarlyChallenge)  # apply_policy is the identity for others


def apply_policy(
    policy: AdversaryPolicy,
    node: int,
    send_index: int,
    t_nominal: float,
    measurer: Optional[int] = None,
    rng=None,
) -> Tuple[float, bool]:
    """The emission time policy gives node's send, and whether it may be early.

    node is the sender; send_index counts node's earlier rapid sends in
    the run; t_nominal is the honest emission time on the true clock;
    measurer is the node whose measurement the send answers.  Returns
    (t, early): t_nominal with the policy's timing shift applied, and
    whether the policy moved the send ahead of its trigger.  Every rapid
    send of a node with one of the TIMING_POLICIES goes through
    RunContext.emit, which counts send_index, holds a send not made
    early behind the node's last send and applies a guess's advance;
    content-level deviations stay with the drivers.
    """
    if isinstance(policy, SelectiveDelay):
        d = policy.delay_for(send_index, measurer)
        return (t_nominal + d if d else t_nominal), False
    if isinstance(policy, EarlyChallenge):
        if rng is None:
            raise PolicyError("EarlyChallenge needs an RNG stream for round selection")
        if rng.random() < policy.pr_ch:
            return t_nominal - policy.advance_s, True
    return t_nominal, False


@dataclass(frozen=True)
class PairMismatch:
    node_a: int
    node_b: int
    bound_ab_m: float
    bound_ba_m: float

    @property
    def discrepancy_m(self) -> float:
        return abs(self.bound_ab_m - self.bound_ba_m)


@dataclass
class DetectionReport:
    """Outcome of cross-checking published bounds and transcript digests.

    Flagging establishes that some participant misbehaved; singling out
    the culprit is out of scope for the check itself.  unsolved names
    the observers whose own solve failed and who therefore published no
    bounds: the run is not consistent, but they are not accused.
    """

    mismatches: List[PairMismatch] = field(default_factory=list)
    digest_outliers: List[int] = field(default_factory=list)
    accused: frozenset = frozenset()
    verdicts: Dict[int, str] = field(default_factory=dict)
    eps_detect_m: float = EPS_DETECT_M
    bound_error_m: Dict[int, float] = field(default_factory=dict)
    unsolved: List[int] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.mismatches and not self.digest_outliers and not self.unsolved

    def threshold_m(self, a: int, b: int) -> float:
        """Largest disagreement pair (a, b) may show without being flagged.

        The two bounds' own rounding errors, summed, but never below
        the eps_detect_m floor.
        """
        err = self.bound_error_m
        return max(self.eps_detect_m, err.get(a, 0.0) + err.get(b, 0.0))

    def flags_pair(self, a: int, b: int) -> bool:
        return any({m.node_a, m.node_b} == {a, b} for m in self.mismatches)

    def to_dict(self) -> dict:
        return {
            "consistent": self.consistent,
            "mismatches": [
                {
                    "node_a": m.node_a,
                    "node_b": m.node_b,
                    "bound_ab_m": m.bound_ab_m,
                    "bound_ba_m": m.bound_ba_m,
                    "discrepancy_m": m.discrepancy_m,
                }
                for m in self.mismatches
            ],
            "digest_outliers": list(self.digest_outliers),
            "accused": sorted(self.accused),
            "verdicts": {str(k): v for k, v in sorted(self.verdicts.items())},
            "eps_detect_m": self.eps_detect_m,
            "bound_error_m": {str(k): v for k, v in sorted(self.bound_error_m.items())},
            "unsolved": list(self.unsolved),
        }


def cross_check_detect(
    nodes: Sequence[int],
    bounds: np.ndarray,
    digests: Optional[Mapping[int, bytes]] = None,
    eps_detect: float = EPS_DETECT_M,
    bound_error_m: Optional[Mapping[int, float]] = None,
    unsolved: Sequence[int] = (),
) -> DetectionReport:
    """Compare each pair's two directional bounds and the transcript digests.

    bounds[i, j] is the bound nodes[i] derived for its distance to
    nodes[j], in meters, NaN where it derived none.  bound_error_m[x],
    when given, bounds the rounding error of every bound x derived.  A
    pair is flagged when its two views differ by more than both
    endpoints' errors together, and at least eps_detect; the whole
    matrix is compared with its transpose in one array pass, and
    mismatches come out in (lower id, higher id) order.  Digest
    comparison flags any node whose transcript digest disagrees with the
    strict majority.  unsolved lists observers that published no bounds
    because their own solve failed; they get the verdict "unsolved" and
    make the report inconsistent without being accused.
    """
    report = DetectionReport(eps_detect_m=eps_detect, bound_error_m=dict(bound_error_m or {}),
                             unsolved=sorted(unsolved))
    ids = np.asarray(nodes)
    bounds = np.asarray(bounds, dtype=float)
    err = np.array([report.bound_error_m.get(x, 0.0) for x in nodes])
    both = err[:, None] + err
    # threshold_m's max(eps, both): eps unless both exceeds it, also for NaN
    threshold = np.where(both > eps_detect, both, eps_detect)
    # a NaN bound on either side compares false: nothing to cross-check
    flagged = (ids[:, None] < ids) & (np.abs(bounds - bounds.T) > threshold)
    rows, cols = np.nonzero(flagged)
    report.mismatches = [
        PairMismatch(a, b, ab, ba) for a, b, ab, ba in sorted(zip(
            ids[rows].tolist(), ids[cols].tolist(),
            bounds[rows, cols].tolist(), bounds[cols, rows].tolist()))
    ]
    if digests:
        tally: Dict[bytes, int] = {}
        for d in digests.values():
            tally[d] = tally.get(d, 0) + 1
        majority = max(tally.items(), key=lambda kv: (kv[1], kv[0]))[0]
        if tally[majority] > len(digests) // 2:
            report.digest_outliers = sorted(
                n for n, d in digests.items() if d != majority
            )
    disputed = {m.node_a for m in report.mismatches} | {m.node_b for m in report.mismatches}
    report.accused = frozenset(disputed | set(report.digest_outliers))
    for n in sorted(set(nodes) | set(report.unsolved)):
        if n in report.digest_outliers:
            report.verdicts[n] = "bad_digest"
        elif n in disputed:
            report.verdicts[n] = "disputed"
        elif n in report.unsolved:
            report.verdicts[n] = "unsolved"
        else:
            report.verdicts[n] = "consistent"
    return report


def distance_fraud_game(
    trials: int,
    n: int,
    bit_len: int = 1,
    seed: int = 0,
    advance_s: float = 2e-8,
) -> float:
    """Monte Carlo success rate of a guess-ahead prover against one verifier.

    Each trial is one full one-way run through the channel, with the
    prover answering every round advance_s before the challenge arrives,
    on guessed bits, at a seed drawn from random.Random(seed).  A trial
    succeeds when the run completes and the verifier's bound falls short
    of the true distance by more than EPS_DIST; a mismatched response or
    a rejected timing loses.  The expected rate is 2 ** (-n * bit_len)
    whenever the advance buys distance.  Returns the success fraction.
    """
    from .core import EPS_DIST, distance
    from .estimate import NegativeTimeOfFlight
    from .proto import ResponseMismatch, run_scenario
    from .scenarios import oneway_scenario

    base = oneway_scenario(n=n, bit_len=bit_len,
                           prover_policy=GuessAhead(p_rounds=n, advance_s=advance_s))
    truth = distance(base.node(1).pos, base.node(2).pos)
    seeds = random.Random(seed)
    wins = 0
    for _ in range(trials):
        scenario = replace(base, rng_seed=seeds.getrandbits(32))
        try:
            bound = run_scenario(scenario).estimate_for(1, 2).bound_m
        except (ResponseMismatch, NegativeTimeOfFlight):
            continue
        if bound < truth - EPS_DIST:
            wins += 1
    return wins / trials
