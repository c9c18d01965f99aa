"""Executable acceptance suite for the simulator's headline claims.

Each criterion is a standalone check that prints one pass/fail line.
Two delay-attack sub-checks (6a, 6b) are expected to fail and stay in
the suite on purpose: they pin the skew a hand derivation predicts for
a lone delaying node, but the full-cycle least-squares solve cancels a
symmetric delay exactly, so the solved edge sits at truth and no pair
mismatch appears.  The collusion variant (6c) survives the cancellation
and is the detectable signature.  See each check's docstring for the
numbers involved.

run_suite() executes everything; quick=True caps the Monte Carlo game
at 10^4 trials, quick=False at 10^5.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .analysis import (
    CountFormulaInput,
    dbc,
    dbc_ap,
    dbc_avg,
    mpnv_run_count,
    msg_count,
    ntom_passive_run_count,
    reconcile,
    savings_percent,
)
from .core import (
    EPS_DIST,
    NodeSpec,
    Protocol,
    Role,
    SPEED_OF_LIGHT,
    Scenario,
    distance,
)
from .estimate import intersect_circles, leg_sums, verifier_prover_distances
from .proto.pairwise import run_sequential_interleaved, run_sequential_pairwise
from .proto.ring import run_ring_with_delays
from .proto.runner import run_scenario
from .scenarios import (
    mpnv_scenario,
    ntom_scenario,
    oneway_scenario,
    peer_scenario,
    regular_ring_scenario,
)
from .threat import Relay, SelectiveDelay, distance_fraud_game

QUICK_TRIALS = 10_000
FULL_TRIALS = 100_000

C = SPEED_OF_LIGHT


@dataclass(frozen=True)
class CriterionResult:
    label: str
    title: str
    passed: bool
    detail: str
    elapsed_s: float
    expected: bool = True    # False marks a documented, intentional failure

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = "" if self.expected or self.passed else " [expected failure]"
        return f"{status} {self.label:>3}  {self.title}: {self.detail}{note} ({self.elapsed_s:.1f}s)"


# ---------------------------------------------------------------------------
# random placements


def _scatter(rng: random.Random, count: int, box_m: float = 800.0,
             min_sep_m: float = 5.0) -> List[Tuple[float, float]]:
    pts: List[Tuple[float, float]] = []
    while len(pts) < count:
        cand = (rng.uniform(0.0, box_m), rng.uniform(0.0, box_m))
        if all(distance(cand, q) >= min_sep_m for q in pts):
            pts.append(cand)
    return pts


# ---------------------------------------------------------------------------
# criterion 1: thirty-by-thirty message savings


def check_message_savings(quick: bool) -> Tuple[bool, str]:
    """Simulated many-to-many emission counts hit the closed forms exactly.

    Thirty verifiers bound thirty provers over ten rounds.  Full
    activity must cost 18000 messages (the pairwise base), reduced
    activity 12240 (32.0% saved) and 7020 (61.0% saved).
    """
    n, big_n, big_m = 10, 30, 30
    base_expected = msg_count(CountFormulaInput("MPNV", n=n, N=big_n, M=big_m), "base")
    cases = [
        (10, 1.0, base_expected, None),
        (8, 0.8, msg_count(CountFormulaInput("MPNV", n_a=8, d_a=0.8, N=big_n, M=big_m), "ours"), 32.0),
        (6, 0.6, msg_count(CountFormulaInput("MPNV", n_a=6, d_a=0.6, N=big_n, M=big_m), "ours"), 61.0),
    ]
    got: List[int] = []
    for i, (n_a, d_a, expected, saving) in enumerate(cases):
        res = run_scenario(mpnv_scenario(n, n_a, d_a, big_n, big_m, seed=101 + i))
        emitted = res.trace.count(phase="rapid")
        got.append(emitted)
        if emitted != expected:
            return False, (
                f"n_a={n_a}, d_a={d_a}: emitted {emitted} rapid messages, "
                f"closed form says {expected}"
            )
        if saving is not None:
            s = savings_percent(base_expected, emitted)
            if abs(s - saving) > 1e-9:
                return False, f"n_a={n_a}: saving {s}% instead of {saving}%"
    if got[0] != 18000 or got[1] != 12240 or got[2] != 7020:
        return False, f"counts {got} instead of [18000, 12240, 7020]"
    return True, f"counts {got}, savings 32.0% and 61.0%"


# ---------------------------------------------------------------------------
# criterion 2: four-node rapid counts


def check_four_node_counts(quick: bool) -> Tuple[bool, str]:
    """One ring round beats both pairwise coverage strategies: 8 vs 24 vs 18."""
    ring_scn = regular_ring_scenario(4, 400.0, seed=21, n_rounds=1)
    ring_msgs = run_scenario(ring_scn).trace.count(phase="rapid")
    seq_scn = peer_scenario(
        Protocol.MULTI_PARTY_RING,
        positions=[(0.0, 0.0), (400.0, 0.0), (400.0, 400.0), (0.0, 400.0)], n=1, seed=22,
    )
    pair_msgs = run_sequential_pairwise(seq_scn).trace.count(phase="rapid")
    inter_msgs = run_sequential_interleaved(seq_scn).trace.count(phase="rapid")
    ok = (ring_msgs, pair_msgs, inter_msgs) == (8, 24, 18)
    return ok, f"ring {ring_msgs}, sequential pairwise {pair_msgs}, interleaved {inter_msgs}"


# ---------------------------------------------------------------------------
# criterion 3: overheard-exchange geometry


def check_overheard_geometry(quick: bool) -> Tuple[bool, str]:
    """A one-way run recovers the worked two-verifier layout.

    Verifier at the origin, prover at (-7, -7), observer at (0, 10):
    the observer's stamps of the first round in the run's trace must
    yield the verifier-prover distance sqrt(98), leg sum 20*sqrt(2) and
    candidate positions (+-7, -7), and the run's own passive bound must
    be their difference, sqrt(338), each to a millionth of a meter.
    """
    v_pos, o_pos = (0.0, 0.0), (0.0, 10.0)
    scn = oneway_scenario(v_pos, (-7.0, -7.0), n=3, seed=31, observer_pos=o_pos)
    cfg = scn.config
    res = run_scenario(scn)
    rapid = [em for em in res.trace.emissions if em.phase == "rapid"]
    sends = [em.seq for em in rapid if em.sender == 1]  # challenges, then the closing
    responses = [em.seq for em in rapid if em.kind == "response"]
    t1, t3, t2 = res.trace.local_arrivals([sends[0], sends[1], responses[0]], [9])
    d_vp = float(verifier_prover_distances(t1, t3, cfg.alpha, cfg.alpha, cfg.c)[0])
    gamma = float(leg_sums(t1, t2, cfg.alpha, distance(v_pos, o_pos), cfg.c)[0])
    bound = res.estimate_for(9, 2).bound_m
    pts = sorted(intersect_circles(v_pos, d_vp, o_pos, gamma - d_vp))
    tol = 1e-6
    checks = [
        ("verifier-prover distance", d_vp, 9.899495),
        ("leg sum", gamma, 28.284271),
        ("observer bound", bound, 18.384776),
        ("leg sum minus distance", gamma - d_vp, bound),
    ]
    for name, val, want in checks:
        if abs(val - want) > tol:
            return False, f"{name} {val!r} is off {want} by {abs(val - want):.2e} m"
    want_pts = [(-7.0, -7.0), (7.0, -7.0)]
    if len(pts) != 2 or any(
        abs(a - c) > tol or abs(b - d) > tol
        for (a, b), (c, d) in zip(pts, want_pts)
    ):
        return False, f"candidate positions {pts} instead of {want_pts}"
    return True, (
        f"distance {d_vp:.6f}, leg sum {gamma:.6f}, bound {bound:.6f}, "
        f"candidates ({pts[0][0]:+.6f}, {pts[0][1]:.6f}) and ({pts[1][0]:+.6f}, {pts[1][1]:.6f})"
    )


# ---------------------------------------------------------------------------
# criterion 4: confidence arithmetic


def check_confidence_values(quick: bool) -> Tuple[bool, str]:
    """Group confidence means match exact rational arithmetic to 1e-6.

    Ten verifiers, ten rounds each.  Five cheating half the time gives
    exactly 2015/2048; five cheating ninety percent of the time gives
    exactly 1535/2048.
    """
    n = 10
    cases = [
        ([0.5] * 5 + [0.0] * 5, Fraction(2015, 2048)),
        ([0.9] * 5 + [0.0] * 5, Fraction(1535, 2048)),
    ]
    outs = []
    for rates, exact in cases:
        got = dbc_avg([n] * 10, rates)
        if abs(got - float(exact)) > 1e-6:
            return False, f"rates {rates[:1]}...: {got!r} vs exact {float(exact)!r}"
        outs.append(got)
    return True, (
        f"half-cheaters {outs[0]!r} (= 2015/2048), "
        f"heavy cheaters {outs[1]!r} (= 1535/2048)"
    )


# ---------------------------------------------------------------------------
# criterion 5: guessing game


def check_guessing_game(quick: bool) -> Tuple[bool, str]:
    """A guess-ahead prover survives 5 one-bit rounds at rate 2^-5.

    Monte Carlo estimate must land within three standard errors of
    0.03125.
    """
    trials = QUICK_TRIALS if quick else FULL_TRIALS
    p = 2.0 ** -5
    rate = distance_fraud_game(trials, n=5, bit_len=1, seed=5150)
    se = math.sqrt(p * (1.0 - p) / trials)
    ok = abs(rate - p) <= 3.0 * se
    return ok, f"rate {rate} over {trials} trials, |dev| {abs(rate - p):.2e} vs 3se {3 * se:.2e}"


# ---------------------------------------------------------------------------
# criterion 6: ring delay attacks


def _delay_run(delays: Dict[int, Tuple[float, float]]):
    res = run_ring_with_delays(n_nodes=4, delays=delays, seed=7, side_m=400.0)
    order = res.ring_order
    assert order is not None and res.ring_solutions is not None
    p1, p2 = order[0], order[1]
    pos = res.scenario.positions()
    truth = distance(pos[p1], pos[p2]) / C
    key = (p1, p2) if p1 <= p2 else (p2, p1)
    t_p1 = res.ring_solutions[p1][key]
    t_p2 = res.ring_solutions[p2][key]
    return res, p1, p2, truth, t_p1, t_p2


def check_single_delay_skew(quick: bool) -> Tuple[bool, str]:
    """Third node delays both its sends by 50 ns; is the shared edge skewed?

    A chain-substitution derivation predicts the second node solves the
    first edge 75 ns short.  The full-cycle solve instead absorbs equal
    delays into the two unknowns the attacker's sends feed, leaving the
    edge at truth with a (d1 - d2)/2 signature that vanishes when the
    two delays match.  Expected to fail; kept as the executable record
    of that disagreement.
    """
    _, p1, p2, truth, t_p1, t_p2 = _delay_run({2: (50e-9, 50e-9)})
    predicted = truth - 75e-9
    dev = abs(t_p2 - predicted)
    ok = dev <= 1e-12
    return ok, (
        f"node {p2} solved {t_p2:.12e} s, prediction truth-75ns = {predicted:.12e} s "
        f"(gap {dev:.2e} s; solved value sits {abs(t_p2 - truth):.2e} s from truth)"
    )


def check_single_delay_flagged(quick: bool) -> Tuple[bool, str]:
    """Is the 50/50 ns lone delayer flagged by the bound cross-check?

    Every observer's solve shifts the attacker-adjacent edges by the
    same +25 ns, so all reported bounds still agree pairwise and no
    mismatch exists to flag.  Expected to fail; the asymmetric and the
    colluding variants are the detectable ones.
    """
    res, p1, p2, _, _, _ = _delay_run({2: (50e-9, 50e-9)})
    det = res.detection
    assert det is not None
    ok = det.flags_pair(p1, p2)
    return ok, (
        f"pair ({p1}, {p2}) flagged: {ok}; report consistent: {det.consistent}, "
        f"{len(det.mismatches)} mismatches"
    )


def check_collusion_detected(quick: bool) -> Tuple[bool, str]:
    """Two colluding delayers leave the half-second-delay signature.

    Third node delays its sends by 25 and 50 ns, fourth by 0 and 25 ns.
    The two solves then disagree on the shared first edge by the full
    50 ns: the second node lands exactly 25 ns (= half the 50 ns second
    delay) below truth, the first node 25 ns above, and the cross-check
    flags the pair.
    """
    res, p1, p2, truth, t_p1, t_p2 = _delay_run(
        {2: (25e-9, 50e-9), 3: (0.0, 25e-9)}
    )
    det = res.detection
    assert det is not None
    want_p2 = truth - 25e-9
    want_p1 = truth + 25e-9
    if abs(t_p2 - want_p2) > 1e-12:
        return False, f"node {p2} solved {t_p2:.12e}, wanted truth-25ns {want_p2:.12e}"
    if abs(t_p1 - want_p1) > 1e-12:
        return False, f"node {p1} solved {t_p1:.12e}, wanted truth+25ns {want_p1:.12e}"
    if not det.flags_pair(p1, p2):
        return False, f"split present but pair ({p1}, {p2}) not flagged"
    return True, (
        f"edge split +25ns/-25ns around truth, discrepancy "
        f"{abs(t_p1 - t_p2) * C:.3f} m, pair ({p1}, {p2}) flagged"
    )


# ---------------------------------------------------------------------------
# criterion 7: solver versus geometry


def check_solver_oracle(quick: bool) -> Tuple[bool, str]:
    """100 random honest rings: solved flight times match positions.

    Every observer's solved time for every pair, in metres, and every
    bound it reports must sit within that observer's own rounding-error
    bound (detection.bound_error_m) of the straight-line distance.
    """
    rng = random.Random(77)
    worst = 0.0
    for trial in range(100):
        n_nodes = rng.choice([4, 5, 6, 7, 8])
        pts = _scatter(rng, n_nodes)
        scn = peer_scenario(Protocol.MULTI_PARTY_RING, positions=pts, n=1,
                            seed=7000 + trial)
        res = run_scenario(scn)
        if res.rejections:
            return False, f"trial {trial}: solver rejections {res.rejections}"
        pos = scn.positions()
        err = res.detection.bound_error_m
        assert res.ring_solutions is not None
        for o, edges in res.ring_solutions.items():
            for (a, b), t in edges.items():
                worst = max(worst, abs(C * t - distance(pos[a], pos[b])) / err[o])
        for est in res.estimates:
            off = abs(est.bound_m - distance(pos[est.measurer], pos[est.target]))
            worst = max(worst, off / err[est.measurer])
        if worst > 1.0:
            return False, f"trial {trial} (N={n_nodes}): error {worst:.2f}x its bound"
    return True, f"100 rings, worst error {worst:.3f}x its observer's error bound"


# ---------------------------------------------------------------------------
# criterion 8: passive equals active


def check_passive_equals_active(quick: bool) -> Tuple[bool, str]:
    """100 random one-way runs: overhearing matches measuring.

    Each run places a verifier, a prover and a listener in a 300 m box
    with a random processing delay.  The listener's passive bound must
    equal its true distance to the prover, and the active bound a run
    of the same geometry reports with the listener as verifier.
    """
    rng = random.Random(88)
    worst_true = worst_active = 0.0
    for trial in range(100):
        va, vp, p = _scatter(rng, 3, box_m=300.0, min_sep_m=1.0)
        alpha = rng.uniform(0.0, 1e-6)
        seed = 8800 + trial
        passive = run_scenario(oneway_scenario(va, p, seed=seed, alpha=alpha, observer_pos=vp))
        active = run_scenario(oneway_scenario(vp, p, seed=seed, alpha=alpha))
        got, want = passive.estimate_for(9, 2).bound_m, active.estimate_for(1, 2).bound_m
        worst_true = max(worst_true, abs(got - distance(vp, p)))
        worst_active = max(worst_active, abs(got - want))
        if max(worst_true, worst_active) > EPS_DIST:
            return False, f"trial {trial}: passive {got} vs true {distance(vp, p)}, active {want}"
    return True, (
        f"100 runs, worst passive gap {worst_true:.2e} m to the true distance, "
        f"{worst_active:.2e} m to the active bound"
    )


# ---------------------------------------------------------------------------
# criterion 9: property sweep


def _non_shortening(rng: random.Random, count: int,
                    case: Callable[..., Tuple[Scenario, float]]) -> Tuple[int, float]:
    """First trial whose 1 -> 2 bound undercuts its floor, or -1 and the worst slack.

    case(rng, trial) draws one placement: its scenario and that floor.
    """
    worst = math.inf
    for trial in range(count):
        scn, floor = case(rng, trial)
        slack = run_scenario(scn).estimate_for(1, 2).bound_m - floor
        worst = min(worst, slack)
        if slack < -EPS_DIST:
            return trial, slack
    return -1, worst


def _delay_case(rng: random.Random, trial: int) -> Tuple[Scenario, float]:
    v, p = _scatter(rng, 2, box_m=500.0, min_sep_m=1.0)
    delay = rng.uniform(0.0, 2e-7)
    scn = oneway_scenario(v, p, n=2, seed=9000 + trial,
                          prover_policy=SelectiveDelay(delay_s=delay))
    return scn, distance(v, p)


def _relay_case(rng: random.Random, trial: int) -> Tuple[Scenario, float]:
    v, front, victim = _scatter(rng, 3, box_m=500.0, min_sep_m=1.0)
    extra = NodeSpec(id=3, pos=victim, role=Role.PROVER)
    scn = oneway_scenario(v, front, n=2, seed=9500 + trial,
                          prover_policy=Relay(victim=3), extra_nodes=(extra,))
    return scn, max(distance(v, victim), distance(v, front))


def _reconcile_sweep() -> Tuple[int, List[str]]:
    points: List[Tuple[Scenario, int]] = []
    seed = 40000

    for n in (1, 2, 3, 4, 6, 8, 10):
        for with_obs in (False, True):
            scn = oneway_scenario((0.0, 0.0), (30.0, 40.0), n=n, seed=seed,
                                  observer_pos=(0.0, 80.0) if with_obs else None)
            points.append((scn, 2 * n + (1 if with_obs else 0)))
            seed += 1
    for n in range(1, 7):
        scn = peer_scenario(Protocol.MUTUAL_INTERLEAVED,
                            positions=[(0.0, 0.0), (120.0, 50.0)], n=n, seed=seed)
        points.append((scn, 2 * n + 1))
        seed += 1
    for n in (1, 2, 3):
        for m in (2, 3, 4):
            scn = peer_scenario(Protocol.ONE_TO_MANY, m + 1, n=n, seed=seed)
            points.append((scn, n * (2 * m + 1)))
            seed += 1
    for n_nodes in (4, 5, 6, 7):
        for rounds in (1, 2):
            if (n_nodes, rounds) == (7, 2):
                continue
            scn = peer_scenario(Protocol.MULTI_PARTY_RING, n_nodes, n=rounds, seed=seed)
            points.append((scn, 2 * n_nodes * rounds))
            seed += 1
    for n, n_a, d_a, big_n, big_m in (
        (2, 1, 0.5, 3, 2), (2, 2, 1.0, 3, 2), (3, 2, 0.7, 4, 3),
        (4, 4, 1.0, 2, 2), (3, 1, 0.34, 3, 3),
    ):
        scn = mpnv_scenario(n, n_a, d_a, big_n, big_m, seed=seed)
        points.append((scn, mpnv_run_count(n, n_a, d_a, big_n, big_m)))
        seed += 1
    for n, big_n, big_m in ((1, 2, 2), (2, 2, 3), (1, 3, 3)):
        scn = ntom_scenario(Protocol.NTOM_MULTIPARTY, big_n, big_m, n=n, seed=seed)
        points.append((scn, 2 * n * (big_n + big_m)))
        seed += 1
    for n, big_n, big_m in ((1, 2, 2), (2, 2, 2), (1, 3, 2)):
        scn = ntom_scenario(Protocol.NTOM_ONETOMANY, big_n, big_m, n=n, seed=seed)
        points.append((scn, big_n * n * (2 * big_m + 1)))
        seed += 1
    for n, n_a1, d_1, n_a2, d_2, big_n, big_m in (
        (2, 1, 0.5, 1, 0.5, 2, 2), (2, 2, 1.0, 2, 1.0, 2, 2),
        (3, 2, 0.6, 1, 0.4, 3, 2),
    ):
        scn = ntom_scenario(Protocol.NTOM_PASSIVE, big_n, big_m, n=n, seed=seed,
                            n_a1=n_a1, n_a2=n_a2, d_1=d_1, d_2=d_2)
        points.append((scn, ntom_passive_run_count(n, n_a1, d_1, n_a2, d_2,
                                                   big_n, big_m)))
        seed += 1

    failures: List[str] = []
    for scn, expected in points:
        rep = reconcile(run_scenario(scn).trace, expected)
        if not rep.matches:
            failures.append(f"{scn.protocol.value}: {rep.discrepancies[0]}")
    return len(points), failures


def check_property_suite(quick: bool) -> Tuple[bool, str]:
    """Non-shortening, confidence shape, and count reconciliation.

    1000 random delaying/relaying placements never shorten a bound;
    dbc is monotone in rounds and guess rate; the combined confidence
    never drops below its active-rounds floor and touches it when every
    passive round is certain-guessable; and simulated rapid counts match
    the closed forms across a parameter sweep of every protocol.
    """
    rng = random.Random(99)
    bad, worst_delay = _non_shortening(rng, 500, _delay_case)
    if bad >= 0:
        return False, f"selective delay shortened a bound at trial {bad} by {-worst_delay:.2e} m"
    bad, worst_relay = _non_shortening(rng, 500, _relay_case)
    if bad >= 0:
        return False, f"relay shortened a bound at trial {bad} by {-worst_relay:.2e} m"

    probs = [i / 10 for i in range(11)]
    for p in probs:
        for n in range(0, 20):
            if dbc(n + 1, p) < dbc(n, p) - 1e-15:
                return False, f"dbc not monotone in n at (n={n}, pr={p})"
    for n in range(0, 21):
        for a, b in zip(probs, probs[1:]):
            if dbc(n, b) > dbc(n, a) + 1e-15:
                return False, f"dbc not monotone in pr at (n={n}, pr={b})"

    for n_a in range(1, 8):
        floor = 1.0 - 2.0 ** (-n_a)
        for pr in probs:
            val = dbc_ap(n_a, [6] * 5, [pr] * 5)
            if val < floor - 1e-12:
                return False, f"dbc_ap below floor at n_a={n_a}, pr={pr}"
        at_one = dbc_ap(n_a, [6] * 5, [1.0] * 5)
        if abs(at_one - floor) > 1e-12:
            return False, f"dbc_ap floor not tight at n_a={n_a}: {at_one} vs {floor}"

    count, failures = _reconcile_sweep()
    if failures:
        return False, f"count reconciliation failed at {len(failures)}/{count} points: {failures[0]}"
    return True, (
        f"1000 placements non-shortening (worst slack {min(worst_delay, worst_relay):.2e} m), "
        f"confidence shape holds, {count}-point count sweep clean"
    )


# ---------------------------------------------------------------------------
# suite driver


CRITERIA: List[Tuple[str, str, Callable[[bool], Tuple[bool, str]], bool]] = [
    ("1", "message savings at thirty by thirty", check_message_savings, True),
    ("2", "four-node rapid counts", check_four_node_counts, True),
    ("3", "overheard-exchange geometry", check_overheard_geometry, True),
    ("4", "confidence arithmetic", check_confidence_values, True),
    ("5", "guessing-game rate", check_guessing_game, True),
    ("6a", "lone delayer skews shared edge", check_single_delay_skew, False),
    ("6b", "lone delayer flagged", check_single_delay_flagged, False),
    ("6c", "colluding delayers detected", check_collusion_detected, True),
    ("7", "solver matches geometry", check_solver_oracle, True),
    ("8", "passive equals active", check_passive_equals_active, True),
    ("9", "property sweep", check_property_suite, True),
]


def run_suite(quick: bool = True,
              labels: Optional[Sequence[str]] = None) -> List[CriterionResult]:
    """Run all (or the named) criteria and collect one result each."""
    wanted = set(labels) if labels is not None else None
    results: List[CriterionResult] = []
    for label, title, fn, expected in CRITERIA:
        if wanted is not None and label not in wanted:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn(quick)
        except Exception as exc:  # a crashed criterion is a failed criterion
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CriterionResult(
            label=label, title=title, passed=passed, detail=detail,
            elapsed_s=time.perf_counter() - t0, expected=expected,
        ))
    return results


def format_table(results: Sequence[CriterionResult]) -> str:
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)


def suite_ok(results: Sequence[CriterionResult]) -> bool:
    return all(r.passed for r in results)
