"""Distance estimation from timing observations.

Two families live here.  The first turns a passive observer's three
overheard arrival times into distance bounds: an observer Vp that hears
an active verifier Va's challenge, the prover's response, and Va's
follow-up learns both Va's distance to the prover and the sum of the
two prover legs, and can bound (or with geometry, localize) the prover
without ever transmitting.  The second builds and solves the linear
system that recovers pairwise flight times from the rapid-phase
arrivals of a ring run, one observer at a time, so that independently
recovered edges can be cross-checked between observers.

Every estimator consumes local clock readings only and is offset-free
by construction: only differences of same-clock readings enter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .core import EPS_DIST, EPS_TIME, GdbSimError, NodeId, SPEED_OF_LIGHT

Point = Tuple[float, float]


class NegativeTimeOfFlight(GdbSimError):
    """Timestamps imply a signal arriving before it could have been sent."""


class NegativeBound(GdbSimError):
    """The overheard leg sum is shorter than the verifier-prover distance.

    No honest prover can produce this; it means the verifier understated
    its own round trip, e.g. by sending challenges ahead of schedule.
    """


class NoIntersection(GdbSimError):
    """The two location circles do not meet; observations are inconsistent."""


class SolveFailure(GdbSimError):
    """The time-of-flight system is rank deficient or inconsistent."""


class IncompleteCycle(SolveFailure):
    """An observer is missing arrivals from a rapid-phase round."""


# ---------------------------------------------------------------------------
# active round trip


def active_distance(
    t_sent: float, t_back: float, alpha_p: float, c: float = SPEED_OF_LIGHT
) -> float:
    """Round-trip distance bound measured by the challenger itself.

    t_sent and t_back are the challenger's own clock readings for
    challenge out and response in; alpha_p is the responder's known
    processing delay.
    """
    tof2 = (t_back - t_sent) - alpha_p
    if tof2 < -EPS_TIME:
        raise NegativeTimeOfFlight(
            f"round trip {t_back - t_sent!r} s shorter than processing {alpha_p!r} s"
        )
    return max(c * tof2 / 2.0, 0.0)


# ---------------------------------------------------------------------------
# passive observation of someone else's exchange


@dataclass(frozen=True)
class PassiveObservation:
    """Arrival times, on one observer's clock, of an overheard exchange.

    t1: the active verifier's challenge arrives at the observer.
    t2: the prover's response arrives.
    t3: the verifier's follow-up message (sent once the response reached
        it) arrives.
    alpha_p: prover processing between challenge in and response out.
    alpha_v: verifier processing between response in and follow-up out.
    d_verifier: known distance from the observer to the active verifier.
    """

    t1: float
    t2: float
    t3: float
    alpha_p: float
    alpha_v: float
    d_verifier: float
    c: float = SPEED_OF_LIGHT


# The kernels below take numpy float64 scalars or arrays alike: the scalar
# helpers price one observation (passing t1 as np.float64, so every
# intermediate is a numpy value), passive pricing in the drivers prices a
# whole (rounds x watchers) block.  Both run the same float64 operations in
# the same order, so they give bit-identical bounds.


def _floor_zero(x):
    """max(x, 0.0) elementwise, with Python's choice on ties and NaN."""
    return np.where(0.0 > x, 0.0, x)


def _first(values, bad) -> float:
    return float(np.asarray(values)[bad][0])


def verifier_prover_distances(t1, t3, alpha_p, alpha_v, c):
    """Array kernel of verifier_prover_distance; raises on any negative flight."""
    tof2 = ((t3 - t1) - alpha_p) - alpha_v
    bad = tof2 < -EPS_TIME
    if bad.any():
        raise NegativeTimeOfFlight(
            f"overheard round trip {_first(t3 - t1, bad)!r} s shorter than processing"
        )
    return _floor_zero(c * tof2 / 2.0)


def leg_sums(t1, t2, alpha_p, d_verifier, c):
    """Array kernel of passive_gamma; raises on any negative leg sum."""
    gamma = c * ((t2 - t1) - alpha_p) + d_verifier
    bad = gamma < 0.0
    if bad.any():
        raise NegativeTimeOfFlight(f"negative leg sum {_first(gamma, bad)!r} m")
    return gamma


def direct_bounds(t1, t2, t3, alpha_p, alpha_v, d_verifier, c):
    """Leg sum minus verifier-prover distance, before the NegativeBound rule."""
    gamma = leg_sums(t1, t2, alpha_p, d_verifier, c)
    return gamma - verifier_prover_distances(t1, t3, alpha_p, alpha_v, c)


def verifier_prover_distance(obs: PassiveObservation) -> float:
    """Distance between the active verifier and the prover.

    t3 - t1 spans challenge-out to follow-up-out plus one observer leg at
    each end; the observer legs cancel, leaving twice the verifier-prover
    flight plus the two processing delays.
    """
    return float(verifier_prover_distances(
        np.float64(obs.t1), obs.t3, obs.alpha_p, obs.alpha_v, obs.c
    ))


def passive_gamma(obs: PassiveObservation) -> float:
    """Sum of the two prover legs: d(verifier, prover) + d(observer, prover).

    With delta1 = t2 - t1,

        c * delta1 = d_vp + c * alpha_p + d_op - d_verifier

    so gamma = c * (delta1 - alpha_p) + d_verifier.  The prover lies on
    the ellipse with foci at the two verifiers and leg sum gamma.
    """
    return float(leg_sums(np.float64(obs.t1), obs.t2, obs.alpha_p, obs.d_verifier, obs.c))


def passive_bound_direct(obs: PassiveObservation) -> float:
    """Observer-prover bound: gamma minus the verifier-prover distance.

    Honest timings make this exactly the distance the observer would
    have measured actively.  A prover that shortens it must also have
    shortened the active verifier's own bound.
    """
    bound = float(direct_bounds(
        np.float64(obs.t1), obs.t2, obs.t3, obs.alpha_p, obs.alpha_v, obs.d_verifier, obs.c
    ))
    if bound < -EPS_DIST:
        raise NegativeBound(
            f"leg sum falls {-bound!r} m short of the verifier-prover distance"
        )
    return max(bound, 0.0)


def passive_bound_annulus(obs: PassiveObservation) -> Tuple[float, float]:
    """Distance bounds when only the baseline, not positions, is known.

    The prover's distance from the observer focus of the gamma ellipse
    lies between the near and far vertices: ((gamma - d) / 2,
    (gamma + d) / 2) with d the verifier baseline.  The outer radius is
    the usable bound and never undercuts the direct one.
    """
    gamma = passive_gamma(obs)
    d = obs.d_verifier
    return ((gamma - d) / 2.0, (gamma + d) / 2.0)


def intersect_circles(
    center_a: Point, r_a: float, center_b: Point, r_b: float, eps: float = EPS_DIST
) -> List[Point]:
    """Intersection points of two circles, tangency collapsed to one point."""
    ax, ay = center_a
    bx, by = center_b
    d = float(np.hypot(bx - ax, by - ay))
    if d < eps:
        raise NoIntersection("concentric circles")
    if d > r_a + r_b + eps or d < abs(r_a - r_b) - eps:
        raise NoIntersection(
            f"circles (r={r_a}, r={r_b}) at separation {d} do not intersect"
        )
    a = (r_a * r_a - r_b * r_b + d * d) / (2.0 * d)
    h_sq = r_a * r_a - a * a
    h = float(np.sqrt(max(h_sq, 0.0)))
    mx = ax + a * (bx - ax) / d
    my = ay + a * (by - ay) / d
    ux = -(by - ay) / d
    uy = (bx - ax) / d
    if h <= eps:
        return [(mx, my)]
    return [(mx + h * ux, my + h * uy), (mx - h * ux, my - h * uy)]


def candidate_positions(
    obs: PassiveObservation, verifier_pos: Point, observer_pos: Point
) -> List[Point]:
    """Prover locations consistent with the observation.

    Intersects the circle around the active verifier (radius the
    recovered verifier-prover distance) with the gamma ellipse; on that
    ellipse the remaining leg is gamma minus the circle radius, so the
    ellipse is replaced by the equivalent circle around the observer.
    """
    d_vp = verifier_prover_distance(obs)
    gamma = passive_gamma(obs)
    return intersect_circles(verifier_pos, d_vp, observer_pos, gamma - d_vp)


# ---------------------------------------------------------------------------
# ring time-of-flight recovery


@dataclass(frozen=True)
class RingTiming:
    """Rapid-phase arrivals of one ring round as one observer saw them.

    ring: the agreed cyclic order of the N participants.
    observer: which participant's clock produced the stamps.
    arrivals: local arrival time of each message the observer received,
        keyed by the message's 1-based index in the round's send order.
        The observer's own sends are absent.
    alpha: per-hop processing delay, seconds.
    t_start_local: the observer's clock reading when it sent the round's
        first message, if the observer opened the round; None otherwise
        (the start instant is then an unknown of the system).
    """

    ring: Tuple[NodeId, ...]
    observer: NodeId
    arrivals: Mapping[int, float]
    alpha: float
    t_start_local: Optional[float] = None


def snake_order(ring: Sequence[NodeId]) -> List[NodeId]:
    """Sender sequence of one rapid round: around the ring and back.

    For ring (p1 .. pN) the 2N sends are p1, p2, ... pN, p1, pN, ... p2;
    message m is triggered by the arrival of message m-1 at its sender.
    """
    ring = list(ring)
    return ring + [ring[0]] + ring[:0:-1]


def snake_hops(ring: Sequence[NodeId]) -> List[Tuple[NodeId, NodeId]]:
    """The 2N - 1 directed hops (previous sender, next sender) of a round."""
    order = snake_order(ring)
    return list(zip(order[:-1], order[1:]))


def _edge_key(a: NodeId, b: NodeId) -> Tuple[NodeId, NodeId]:
    return (a, b) if a <= b else (b, a)


def ring_edges(ring: Sequence[NodeId]) -> List[Tuple[NodeId, NodeId]]:
    n = len(ring)
    return [_edge_key(ring[i], ring[(i + 1) % n]) for i in range(n)]


@dataclass
class TofSystem:
    """Linear system A x = b over unknown flight times.

    Unknowns are ("edge", (a, b)) flight times for the N ring edges plus
    the chords from non-adjacent senders to the observer, and one
    ("anchor", round) term per round whose start the observer did not
    stamp itself: the round's start relative to its first stamp.

    rows and rhs are float64 arrays.  Each round's stamps are rebased on
    its first stamp (or on t_start_local), so rhs holds spans of flight
    and processing time rather than clock readings; stamp_max is the
    largest clock reading that went into it, which sets its rounding.
    """

    unknowns: List[Tuple[str, object]]
    rows: np.ndarray
    rhs: np.ndarray
    stamp_max: float = 0.0


@dataclass(frozen=True)
class TofSolution:
    """Solved unknowns of a TofSystem and their rounding error bound.

    error_s bounds, in seconds, how far any one unknown can move when
    every stamp is off by half an ulp: |dx| <= ||A+||_2 * ||db||_2 with
    ||A+||_2 = 1 / sigma_min and ||db||_2 <= sqrt(rows) * ulp / 2.
    """

    values: Dict[Tuple[str, object], float]
    error_s: float


def build_tof_system(rounds: Sequence[RingTiming]) -> TofSystem:
    """One equation per logged arrival, pooled over rounds.

    Message m of a round leaves its sender at

        t_start + (flight times of hops 1 .. m-1) + (m - 1) * alpha

    and reaches the observer one sender-to-observer flight later.  Hop
    flights are ring edges; the final leg is a ring edge when the sender
    neighbours the observer and a chord otherwise.  All stamps share the
    observer's clock, so each round contributes at most one anchor
    unknown for its start instant.
    """
    if not rounds:
        raise SolveFailure("no rounds to solve")
    ring = rounds[0].ring
    observer = rounds[0].observer
    for rt in rounds:
        if rt.ring != ring or rt.observer != observer:
            raise SolveFailure("rounds mix different rings or observers")
    if observer not in ring:
        raise SolveFailure(f"observer {observer} not on the ring")
    expected = 2 * len(ring) - 2
    for rt in rounds:
        if len(rt.arrivals) < expected:
            raise IncompleteCycle(
                f"round logged {len(rt.arrivals)} arrivals, cycle has {expected}"
            )

    edge_col: Dict[Tuple[NodeId, NodeId], int] = {}
    for e in ring_edges(ring):
        edge_col.setdefault(e, len(edge_col))
    for node in ring:
        if node != observer:
            edge_col.setdefault(_edge_key(node, observer), len(edge_col))
    unknowns: List[Tuple[str, object]] = [("edge", e) for e in edge_col]
    anchor_col: List[Optional[int]] = []
    for ridx, rt in enumerate(rounds):
        if rt.t_start_local is None:
            anchor_col.append(len(unknowns))
            unknowns.append(("anchor", ridx))
        else:
            anchor_col.append(None)

    # row m - 1 of table is message m's equation without its anchor: one
    # cumulative sum of the hop-incidence rows counts the ring edges of
    # hops 1 .. m-1, then the final leg to the observer is added
    order = snake_order(ring)
    steps = np.zeros((len(order), len(unknowns)))
    hop_cols = [edge_col[_edge_key(a, b)] for a, b in snake_hops(ring)]
    steps[np.arange(1, len(order)), hop_cols] = 1.0
    table = np.cumsum(steps, axis=0)
    own = np.array([s == observer for s in order])
    legs = [edge_col[_edge_key(s, observer)] for s in order if s != observer]
    table[np.flatnonzero(~own), legs] += 1.0

    blocks: List[np.ndarray] = []
    rhs: List[np.ndarray] = []
    stamp_max = 0.0
    for ridx, rt in enumerate(rounds):
        logged = sorted(rt.arrivals.items())
        ms = np.array([m for m, _ in logged])
        stamps = np.array([t for _, t in logged], dtype=float)
        outside = (ms < 1) | (ms > len(order))
        if outside.any():
            raise SolveFailure(
                f"message index {ms[outside][0]} outside round of {len(order)} sends"
            )
        if own[ms - 1].any():
            raise SolveFailure(f"arrival logged for the observer's own send m={ms[own[ms - 1]][0]}")
        block = table[ms - 1]
        if anchor_col[ridx] is None:
            base = float(rt.t_start_local)  # type: ignore[arg-type]
        else:
            block[:, anchor_col[ridx]] = 1.0
            base = float(stamps[0])
        blocks.append(block)
        rhs.append((stamps - base) - (ms - 1) * rt.alpha)
        stamp_max = max(stamp_max, abs(base), float(np.max(np.abs(stamps))))

    return TofSystem(unknowns=unknowns, rows=np.vstack(blocks), rhs=np.concatenate(rhs),
                     stamp_max=stamp_max)


def solve_tof(system: TofSystem, residual_tol: float = 1e-10) -> TofSolution:
    """Least-squares flight times; raises SolveFailure when ill posed.

    One backward-stable SVD solve of A x = b (never the normal
    equations, which square the condition number).  A rank-deficient A
    leaves some flight time undetermined; a residual above residual_tol
    means the observations are mutually inconsistent.
    """
    a = np.asarray(system.rows, dtype=float)
    b = np.asarray(system.rhs, dtype=float)
    if a.ndim != 2 or a.shape[0] == 0:
        raise SolveFailure("empty system")
    n_eq, n_unknown = a.shape
    if n_eq < n_unknown:
        raise SolveFailure(f"{n_eq} equations for {n_unknown} unknowns")
    x, _, rank, sigma = np.linalg.lstsq(a, b, rcond=None)
    if rank < n_unknown:
        raise SolveFailure(f"rank {rank} for {n_unknown} unknowns")
    residual = float(np.max(np.abs(a @ x - b)))
    if residual > residual_tol:
        raise SolveFailure(f"residual {residual} exceeds {residual_tol}")
    error_s = 0.5 * float(np.spacing(system.stamp_max)) * n_eq ** 0.5 / float(sigma[-1])
    return TofSolution({key: float(v) for key, v in zip(system.unknowns, x)}, error_s)


def edge_times(solution: TofSolution) -> Dict[Tuple[NodeId, NodeId], float]:
    """Just the edge unknowns of a solve, keyed by (low id, high id)."""
    return {key[1]: v for key, v in solution.values.items() if key[0] == "edge"}
