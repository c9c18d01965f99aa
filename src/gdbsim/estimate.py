"""Distance estimation from timing observations.

Two families live here.  The first turns a passive observer's three
overheard arrival times into distance bounds: an observer Vp that hears
an active verifier Va's challenge, the prover's response, and Va's
follow-up learns both Va's distance to the prover and the sum of the
two prover legs, and can bound (or with geometry, localize) the prover
without ever transmitting.  Three array kernels (leg_sums,
verifier_prover_distances, direct_bounds) price every overheard round,
active_distances a verifier's own rounds, and intersect_circles turns
a distance and a leg sum into candidate positions.  The second builds
and solves the linear system that recovers pairwise flight times from
the rapid-phase arrivals of a ring run, every observer from its own
clock's stamps alone, so that independently recovered edges can be
cross-checked between observers; all observers are solved in one
batched pass.

Every estimator consumes local clock readings only and is offset-free
by construction: only differences of same-clock readings enter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .core import EPS_DIST, EPS_TIME, GdbSimError, NodeId

Point = Tuple[float, float]


class NegativeTimeOfFlight(GdbSimError):
    """Timestamps imply a signal arriving before it could have been sent."""


class NoIntersection(GdbSimError):
    """The two location circles do not meet; observations are inconsistent."""


class SolveFailure(GdbSimError):
    """The time-of-flight system is rank deficient or inconsistent."""


class IncompleteCycle(SolveFailure):
    """An observer is missing arrivals from a rapid-phase round."""


# ---------------------------------------------------------------------------
# passive observation of someone else's exchange
#
# An observer that overhears an active verifier's exchange logs three
# arrivals on its own clock: t1, the verifier's challenge; t2, the
# prover's response; t3, the verifier's follow-up, sent once the response
# reached it.  alpha_p and alpha_v are the prover's and the verifier's
# processing delays and d_verifier the observer's known distance to the
# verifier.  The kernels take numpy float64 arrays or scalars, one stamp
# per entry; passive pricing in the drivers runs them on a whole
# (exchanges x rounds x watchers) block.


def _floor_zero(x):
    """max(x, 0.0) elementwise, with Python's choice on ties and NaN."""
    return np.where(0.0 > x, 0.0, x)


def _first(values, bad) -> float:
    return float(np.asarray(values)[bad][0])


def active_distances(t_sent, t_back, alpha_p, c):
    """A verifier's own round-trip bounds on arrays of rounds, entry by entry.

    t_sent and t_back are the challenger's own clock readings for
    challenge out and response in, alpha_p the responder's known
    processing delay: each bound is c * ((t_back - t_sent) - alpha_p) / 2,
    floored at zero.  A round short of alpha_p by more than EPS_TIME is
    impossible; raises the NegativeTimeOfFlight that pricing the entries
    one at a time, in row-major order, meets first.
    """
    span = t_back - t_sent
    tof2 = span - alpha_p
    bad = tof2 < -EPS_TIME
    if bad.any():
        raise NegativeTimeOfFlight(
            f"round trip {_first(span, bad)!r} s shorter than processing {alpha_p!r} s")
    return _floor_zero(c * tof2 / 2.0)


def verifier_prover_distances(t1, t3, alpha_p, alpha_v, c):
    """Distance between the active verifier and the prover.

    t3 - t1 spans challenge-out to follow-up-out plus one observer leg at
    each end; the observer legs cancel, leaving twice the verifier-prover
    flight plus the two processing delays.  Raises NegativeTimeOfFlight
    on any negative flight.
    """
    tof2 = ((t3 - t1) - alpha_p) - alpha_v
    bad = tof2 < -EPS_TIME
    if bad.any():
        raise NegativeTimeOfFlight(
            f"overheard round trip {_first(t3 - t1, bad)!r} s shorter than processing"
        )
    return _floor_zero(c * tof2 / 2.0)


def leg_sums(t1, t2, alpha_p, d_verifier, c):
    """Sum of the two prover legs: d(verifier, prover) + d(observer, prover).

    With delta1 = t2 - t1,

        c * delta1 = d_vp + c * alpha_p + d_op - d_verifier

    so gamma = c * (delta1 - alpha_p) + d_verifier.  The prover lies on
    the ellipse with foci at the two verifiers and leg sum gamma.
    Raises NegativeTimeOfFlight on any negative leg sum.
    """
    gamma = c * ((t2 - t1) - alpha_p) + d_verifier
    bad = gamma < 0.0
    if bad.any():
        raise NegativeTimeOfFlight(f"negative leg sum {_first(gamma, bad)!r} m")
    return gamma


def direct_bounds(t1, t2, t3, alpha_p, alpha_v, d_verifier, c):
    """Observer-prover bound: leg sum minus the verifier-prover distance.

    Honest timings make this exactly the distance the observer would
    have measured actively.  A prover that shortens it must also have
    shortened the active verifier's own bound.  Nothing is floored: a
    bound below -EPS_DIST means the leg sum undercuts the verifier-prover
    distance, which no honest prover can produce (the verifier understated
    its own round trip, e.g. by sending challenges ahead of schedule), and
    the caller decides how to score it.
    """
    gamma = leg_sums(t1, t2, alpha_p, d_verifier, c)
    return gamma - verifier_prover_distances(t1, t3, alpha_p, alpha_v, c)


def intersect_circles(
    center_a: Point, r_a: float, center_b: Point, r_b: float, eps: float = EPS_DIST
) -> List[Point]:
    """Intersection points of two circles, tangency collapsed to one point.

    With the verifier-prover distance d_vp and the leg sum gamma, the
    prover lies on the circle of radius d_vp around the verifier and, on
    the gamma ellipse, at gamma - d_vp from the observer: intersecting
    those two circles gives its candidate positions.
    """
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


# ---------------------------------------------------------------------------
# ring time-of-flight recovery


def snake_order(ring: Sequence[NodeId]) -> List[NodeId]:
    """Sender sequence of one rapid round: around the ring and back.

    For ring (p1 .. pN) the 2N sends are p1, p2, ... pN, p1, pN, ... p2;
    message m is triggered by the arrival of message m-1 at its sender.
    """
    ring = list(ring)
    return ring + [ring[0]] + ring[:0:-1]


def _edge_key(a: NodeId, b: NodeId) -> Tuple[NodeId, NodeId]:
    return (a, b) if a <= b else (b, a)


def ring_edges(ring: Sequence[NodeId]) -> List[Tuple[NodeId, NodeId]]:
    n = len(ring)
    return [_edge_key(ring[i], ring[(i + 1) % n]) for i in range(n)]


_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _largest(a: np.ndarray, axis=None):
    """max |a| over every entry, or along axis."""
    return np.maximum.reduce(np.abs(a), axis=axis)


class _SnakeInverse(NamedTuple):
    steps: np.ndarray     # (N, 2N - 2) m - 1 of each message the observer logs
    cols: np.ndarray      # (N, 2N - 2, 4) each term's stamp in a flat (N, 2N - 2) block
    weights: np.ndarray   # (N, 2N - 2, 4) weight of each term
    chords: np.ndarray    # (N, N - 3) ring index at the far end of each chord
    targets: np.ndarray   # (N, N) flight column from the observer to each ring index


@lru_cache(maxsize=8)
def _snake_inverse(n: int) -> _SnakeInverse:
    """The inverse of each observer's square round system, four terms a row.

    Entry [q] is the observer at ring index q.  Its rows follow the
    unknowns (the N ring edges, the chords in ring order, the anchor)
    and hold solve_tof's formulas as (stamp, weight) terms, the stamp
    indexing the flattened (ring index, logged column) block of every
    observer's stamps; unused terms have weight 0.  targets[q, j] is the column of the flight from
    ring index q to ring index j among the rows' N + (N - 3) flights
    (0 for j = q, which has no flight).
    """
    first = np.arange(n)
    second = 2 * n - first
    second[0] = n
    qs = np.arange(n)
    lo, hi = (qs - 1) % n, (qs + 1) % n
    half = np.full(n, 0.5)
    half[0] = 1.0
    # T_j = (g_j - f_j) / 2, T_0 = g_0 - f_0, T_N = 0; e_j = T_j - T_{j+1}
    t_pos = np.column_stack((np.append(second, 0), np.append(first, 0)))
    t_wt = np.column_stack((np.append(half, 0.0), -np.append(half, 0.0)))
    edge_pos = np.repeat(np.hstack((t_pos[:-1], t_pos[1:]))[None], n, axis=0)
    edge_wt = np.repeat(np.hstack((t_wt[:-1], -t_wt[1:]))[None], n, axis=0)
    # z = (f_lo + g_hi) / 2, or f_{N-1} for q = 0; leg_j = midpoint_j - z
    z_pos = np.column_stack((first[lo], second[hi]))
    z_wt = np.full((n, 2), 0.5)
    z_pos[0], z_wt[0] = (n - 1, 0), (1.0, 0.0)
    mid_pos = np.column_stack((first, second))
    mid_wt = np.column_stack((1.0 - half, half))
    leg_pos = np.concatenate((np.broadcast_to(mid_pos, (n, n, 2)),
                              np.broadcast_to(z_pos[:, None], (n, n, 2))), axis=2)
    leg_wt = np.concatenate((np.broadcast_to(mid_wt, (n, n, 2)),
                             -np.broadcast_to(z_wt[:, None], (n, n, 2))), axis=2)
    # the observer's own edges are neighbour legs
    edge_pos[qs, qs], edge_wt[qs, qs] = leg_pos[qs, hi], leg_wt[qs, hi]
    on = qs[1:]
    edge_pos[on, lo[on]], edge_wt[on, lo[on]] = leg_pos[on, lo[on]], leg_wt[on, lo[on]]
    chords = np.sort((qs[:, None] + 2 + np.arange(n - 3)) % n, axis=1)
    # anchor = z - perimeter = z - (g_0 - f_0), or 2 f_{N-1} - g_1 for q = 0
    anchor_pos = np.column_stack((z_pos, np.full(n, n), np.zeros(n, dtype=int)))
    anchor_wt = np.column_stack((z_wt, np.full(n, -1.0), np.ones(n)))
    anchor_pos[0], anchor_wt[0] = (n - 1, 2 * n - 1, 0, 0), (2.0, -1.0, 0.0, 0.0)
    pos = np.concatenate((edge_pos, leg_pos[qs[:, None], chords], anchor_pos[:, None]), axis=1)
    wt = np.concatenate((edge_wt, leg_wt[qs[:, None], chords], anchor_wt[:, None]), axis=1)

    # stamp position to logged column: skip the observer's own two sends
    cols = pos - (pos > qs[:, None, None]) - (pos > second[:, None, None])
    cols += (2 * n - 2) * qs[:, None, None]
    logged = np.ones((n, 2 * n), dtype=bool)
    logged[qs, qs] = logged[qs, second] = False
    steps = np.nonzero(logged)[1].reshape(n, 2 * n - 2)
    targets = np.zeros((n, n), dtype=np.intp)
    targets[qs, hi] = qs
    targets[qs, lo] = lo
    targets[qs[:, None], chords] = n + np.arange(n - 3)
    for shared in (steps, cols, wt, chords, targets):
        shared.flags.writeable = False  # every caller of the cache reads these
    return _SnakeInverse(steps, cols, wt, chords, targets)


@dataclass
class TofSystem:
    """Every observer's flight-time equations on one ring, pooled over rounds.

    Observer k is observers[k], at ring index index[k].  Its unknowns are
    the flight times of the N ring edges, then of its chords to the
    non-adjacent members in ring order (flight_keys names them), and
    one anchor per round: the round's start relative to its first stamp.

    rhs[k] has one row per round and one column per message observer k
    logged: the stamp less the round's first stamp and less
    (m - 1) * alpha, a span of flight time that is the right-hand side of
    one equation.  A round logs 2N - 2 stamps for N edges, N - 3 chords
    and its anchor, so each round alone is square.  The coefficient
    matrices are never formed; rows enumerates the equations and
    unknowns the unknowns of every observer.  stamp_max[k] is the
    largest clock reading that went into rhs[k].  failures names the
    observers whose stamps cannot be solved, and why.
    """

    ring: Tuple[NodeId, ...]
    observers: Tuple[NodeId, ...]
    index: np.ndarray
    rhs: np.ndarray
    stamp_max: np.ndarray
    failures: Dict[NodeId, SolveFailure]

    @property
    def rows(self) -> range:
        return range(self.rhs.size)

    @property
    def unknowns(self) -> range:
        observers, rounds, logged = self.rhs.shape
        return range(observers * (logged - 1 + rounds))

    def flight_keys(self) -> List[Tuple[Tuple[NodeId, NodeId], ...]]:
        """(low id, high id) of each observer's flights, in column order."""
        ids = np.array(self.ring)
        far = ids[_snake_inverse(len(ids)).chords[self.index]]
        near = np.array(self.observers)[:, None]
        lows, highs = np.minimum(far, near).tolist(), np.maximum(far, near).tolist()
        edges = tuple(ring_edges(self.ring))
        return [edges + tuple(zip(lo, hi)) for lo, hi in zip(lows, highs)]


@dataclass(frozen=True)
class TofSolution:
    """Every observer's solved unknowns and their rounding error bounds.

    flights[k] holds observer k's flight times in flight_keys order
    and anchors[k] its round anchors.  error_s[k] bounds, in seconds,
    how far any of observer k's flight times can sit from the channel's
    flight time d / c, counting every rounding that reaches it; see
    solve_tof.  failures names the observers whose values mean nothing,
    and why, in observer order.
    """

    flights: np.ndarray
    anchors: np.ndarray
    error_s: np.ndarray
    failures: Dict[NodeId, SolveFailure]


def _stamp_failure(stamps: np.ndarray, logged: np.ndarray, q: int, n: int) -> SolveFailure:
    """Why one observer's (rounds x 2N) stamps, logged columns apart, cannot be solved."""
    own = [q, 2 * n - q if q else n]
    heard = ~np.isnan(stamps[:, own])
    if heard.any():
        m = own[np.flatnonzero(heard.any(axis=0))[0]] + 1
        return SolveFailure(f"arrival logged for the observer's own send m={m}")
    return IncompleteCycle(
        f"round logged {2 * n - 2 - np.isnan(logged).sum(axis=1).max()} arrivals, "
        f"cycle has {2 * n - 2}"
    )


def build_tof_system(
    ring: Sequence[NodeId], observers: Sequence[NodeId], stamps: np.ndarray, alpha
) -> TofSystem:
    """Rebase every observer's stamps into the right-hand sides of its equations.

    stamps is the (rounds x 2N x observers) block that
    Trace.local_arrivals returns: stamps[r, m - 1, k] is message m of
    round r on observers[k]'s clock, NaN where it logged nothing.  A
    complete round logs every message but the observer's own two sends.
    alpha is the per-hop processing delay, one value or one per round.

    Message m of a round leaves its sender at

        t_start + (flight times of hops 1 .. m-1) + (m - 1) * alpha

    and reaches the observer one sender-to-observer flight later.  Hop
    flights are ring edges; the final leg is a ring edge when the sender
    neighbours the observer and a chord otherwise.  All of an observer's
    stamps share its clock, so each round adds one anchor unknown for its
    start.

    One gather through the snake tables picks every observer's logged
    stamps.  An observer that missed an arrival or logged one of its own
    sends goes into failures and leaves the others alone; a block that
    does not fit the ring raises SolveFailure.
    """
    ring, observers = tuple(ring), tuple(observers)
    stamps = np.asarray(stamps, dtype=float)
    if stamps.ndim != 3 or stamps.shape[2] != len(observers):
        raise SolveFailure(
            f"stamps of shape {stamps.shape} are not rounds x 2N x {len(observers)} observers")
    n_rounds = stamps.shape[0]
    if not n_rounds:
        raise SolveFailure("no rounds to solve")
    position = {p: i for i, p in enumerate(ring)}
    for o in observers:
        if o not in position:
            raise SolveFailure(f"observer {o} not on the ring")
    if len(set(observers)) < len(observers):
        raise SolveFailure(f"observers {observers} name one node twice")
    n = len(ring)
    if n < 3:
        raise SolveFailure(f"a ring of {n} has no snake to solve")
    if stamps.shape[1] != 2 * n:
        raise SolveFailure(
            f"round has {stamps.shape[1]} message slots, its snake has {2 * n} sends")
    index = np.array([position[o] for o in observers], dtype=np.intp)
    steps = _snake_inverse(n).steps[index]
    # (observers, rounds, logged) with the logged axis contiguous, as the
    # per-round sums in solve_tof need it
    columns = np.arange(len(observers))[:, None, None]
    logged = np.ascontiguousarray(stamps[np.arange(n_rounds)[:, None], steps[:, None, :], columns])
    stamp_max = _largest(logged, axis=(1, 2))
    # NaN propagates into the largest stamp, so it is finite iff every
    # logged slot holds a reading; then each NaN must be an own send
    unheard = np.add.reduce(np.isnan(stamps), axis=(0, 1))
    bad = np.flatnonzero(np.isnan(stamp_max) | (unheard != 2 * n_rounds)).tolist()
    failures = {observers[k]: _stamp_failure(stamps[:, :, k], logged[k], int(index[k]), n)
                for k in bad}
    alpha = np.reshape(np.asarray(alpha, dtype=float), (-1, 1))
    rhs = (logged - logged[:, :, :1]) - steps[:, None, :] * alpha
    return TofSystem(ring=ring, observers=observers, index=index, rhs=rhs,
                     stamp_max=stamp_max, failures=failures)


def _ulps(values: np.ndarray) -> np.ndarray:
    return np.array([math.ulp(v) for v in values.tolist()])


def solve_tof(system: TofSystem, residual_tol: float = 1e-10) -> TofSolution:
    """Every observer's flight times by elimination on the snake, in one pass.

    An observer whose rounds disagree by more than residual_tol joins
    the build's failures; the others solve as if alone.  Each
    observer's numbers come out bit for bit as a solve of that observer
    by itself would give them: every sum adds the same numbers in the
    same order, over rounds, over one round's stamps (a contiguous axis,
    which numpy sums pairwise) and over each row's four terms.

    Rounds pool by averaging: least squares over rounds that share every
    flight time but each have their own anchor is the square solve on
    the round-averaged right-hand sides.  Its residual is each round's
    deviation from that average less the deviation's own mean (the
    anchor absorbs a round-wide shift), so a residual above residual_tol
    needs no solve to find.

    The square solve is O(N) per observer.  With the observer at ring
    index q, and f_j, g_j the rebased stamps of ring index j's two sends
    (p0's second send is message N + 1):

    - g_j - f_j = 2 T_j for j >= 1, and g_0 - f_0 = T_0, where T_j is
      the suffix sum e_j + ... + e_{N-1} of ring edges (T_N = 0), so
      every edge e_j = T_j - T_{j+1} follows that does not need T_q.
    - Each sender's midpoint (f_j + g_j) / 2, and g_0 for p0, is one
      common instant z plus that sender's leg to the observer, so every
      chord and both neighbour edges are a midpoint less z.
    - z = (f_{q-1} + g_{q+1}) / 2, from the known sum of the observer's
      two edges, T_{q-1} - T_{q+1}; for q = 0, z = f_{N-1}, since
      e_{N-1} = T_{N-1} is known.  The anchor is z less the perimeter.

    So every unknown is a sum of at most four weighted stamps, which
    _snake_inverse tabulates once per ring size.

    error_s counts every rounding that reaches a flight time, each at
    most h, half an ulp of stamp_max (the send chain runs on clock
    readings no larger than the stamps), weighted by two numbers of the
    inverse's rows: the norm, the sum of |weights|, and the chain, the
    sum over the snake's hops of |the weights of the stamps sent after
    the hop|.  Both are largest for e_0 = T_0 - T_1, whose perimeter
    stamps see every forward hop: norm 3 and chain N, or 2 and N - 1
    when e_0 is one of the observer's own edges (q < 2); the tests
    check both against the dense system's inverse.  With u the unit
    roundoff:
    - the send chain, an arrival add and an alpha add per hop: 2h
      times the chain;
    - per stamp, its two adds (+ flight, + offset), the rebase and its
      alpha term, 5h, and with several rounds the average, h plus
      R + 1 ulps of the largest deviation between rounds: times the norm;
    - the elimination's sums of four weighted stamps: 4u times the
      norm times the largest stamp;
    - the conversion to metres and the channel's own d / c: 2u times
      the flight time, at most the norm times the largest stamp.
    """
    n = len(system.ring)
    q = system.index
    rhs = system.rhs
    n_rounds, width = rhs.shape[1:]
    dev = rhs - rhs[:, :1]
    mean_dev = np.add.reduce(dev, axis=1) / n_rounds
    spread = dev - mean_dev[:, None]
    shift = np.add.reduce(spread, axis=2, keepdims=True) / width
    residual = _largest(spread - shift, axis=(1, 2)).tolist()
    failures = {}
    for k, o in enumerate(system.observers):
        failure = system.failures.get(o)
        if failure is None and residual[k] > residual_tol:
            failure = SolveFailure(f"residual {residual[k]} exceeds {residual_tol}")
        if failure is not None:
            failures[o] = failure

    inverse = _snake_inverse(n)
    b = rhs[:, 0] + mean_dev
    # the whole table at once, with each observer's stamps at its ring
    # index; ring indices that observe nothing solve zeros, unread
    by_ring = np.zeros((n, width))
    by_ring[q] = b
    terms = np.take(by_ring, inverse.cols)
    terms *= inverse.weights
    x = np.add.reduce(terms, axis=2)[q]
    h = 0.5 * _ulps(system.stamp_max)
    pooled = h + (n_rounds + 1) * _ulps(_largest(dev, axis=(1, 2))) if n_rounds > 1 else 0.0
    # N and 3, or N - 1 and 2 when e_0 is one of the observer's own edges
    chain, norm = n - (q < 2), 3 - (q < 2)
    # |flight time| <= norm * max |b|
    error = (2 * h * chain + (5 * h + pooled) * norm
             + 6 * _UNIT_ROUNDOFF * norm * _largest(b, axis=1))
    return TofSolution(flights=x[:, :-1], anchors=x[:, -1:] + shift[:, :, 0],
                       error_s=error, failures=failures)


def edge_times(
    system: TofSystem, solution: TofSolution
) -> Dict[NodeId, Dict[Tuple[NodeId, NodeId], float]]:
    """Each solved observer's flight times, keyed by (low id, high id)."""
    return {
        o: dict(zip(keys, flights))
        for o, keys, flights in zip(system.observers, system.flight_keys(),
                                    solution.flights.tolist())
        if o not in solution.failures
    }


def ring_bounds(system: TofSystem, solution: TofSolution, c: float) -> np.ndarray:
    """The (observers x observers) bound matrix, metres.

    bounds[k, l] is c times observer k's flight time to observers[l],
    floored at 0.0 as max(c * t, 0.0) floors it; one gather through
    the per-ring-size target table.  The diagonal and a failed
    observer's row are NaN: no bound.
    """
    q = system.index
    cols = _snake_inverse(len(system.ring)).targets[q[:, None], q]
    bounds = _floor_zero(c * np.take_along_axis(solution.flights, cols, axis=1))
    np.fill_diagonal(bounds, np.nan)
    bounds[[k for k, o in enumerate(system.observers) if o in solution.failures]] = np.nan
    return bounds
