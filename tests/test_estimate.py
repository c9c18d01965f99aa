"""Distance estimation: round trips, overheard geometry, ring solver."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdbsim.core import EPS_DIST, SPEED_OF_LIGHT, distance
from gdbsim.estimate import (
    IncompleteCycle,
    NegativeBound,
    NegativeTimeOfFlight,
    NoIntersection,
    PassiveObservation,
    RingTiming,
    SolveFailure,
    active_distance,
    build_tof_system,
    candidate_positions,
    edge_times,
    intersect_circles,
    passive_bound_annulus,
    passive_bound_direct,
    passive_gamma,
    ring_edges,
    snake_hops,
    snake_order,
    solve_tof,
    verifier_prover_distance,
)

C = SPEED_OF_LIGHT


def test_active_distance_round_trip():
    tof = 120.0 / C
    assert active_distance(1.0, 1.0 + 2 * tof, 0.0) == pytest.approx(120.0)


def test_active_distance_subtracts_processing():
    tof = 120.0 / C
    alpha = 3e-6
    assert active_distance(1.0, 1.0 + 2 * tof + alpha, alpha) == pytest.approx(120.0)


def test_active_distance_negative_raises():
    with pytest.raises(NegativeTimeOfFlight):
        active_distance(1.0, 1.0 + 1e-9, alpha_p=5e-9)


def test_active_distance_clamps_rounding_noise():
    # a femtosecond of slack is measurement noise, not an error
    assert active_distance(1.0, 1.0 - 1e-16, 0.0) == 0.0


# ---------------------------------------------------------------------------
# passive observation of a one-way exchange


def physical_observation(v_pos, p_pos, o_pos, alpha_p=0.0, alpha_v=0.0,
                         offset=0.0, t0=0.0, c=C) -> PassiveObservation:
    """Stamp the three arrivals exactly as the geometry dictates."""
    d_vp = distance(v_pos, p_pos)
    d_vo = distance(v_pos, o_pos)
    d_po = distance(p_pos, o_pos)
    t1 = t0 + d_vo / c
    t2 = t0 + d_vp / c + alpha_p + d_po / c
    t3 = t0 + 2 * d_vp / c + alpha_p + alpha_v + d_vo / c
    return PassiveObservation(
        t1=t1 + offset, t2=t2 + offset, t3=t3 + offset,
        alpha_p=alpha_p, alpha_v=alpha_v, d_verifier=d_vo, c=c,
    )


V_POS = (0.0, 0.0)
P_POS = (7.0, -7.0)
O_POS = (0.0, 10.0)


def test_overheard_distance_oracle():
    obs = physical_observation(V_POS, P_POS, O_POS, alpha_p=1e-6, alpha_v=2e-6,
                               offset=0.37, t0=4.2)
    assert verifier_prover_distance(obs) == pytest.approx(math.sqrt(98.0), abs=1e-6)
    assert passive_gamma(obs) == pytest.approx(math.sqrt(98.0) + math.sqrt(338.0), abs=1e-6)
    assert passive_bound_direct(obs) == pytest.approx(math.sqrt(338.0), abs=1e-6)


def test_annulus_brackets_the_direct_bound():
    obs = physical_observation(V_POS, P_POS, O_POS)
    inner, outer = passive_bound_annulus(obs)
    gamma = passive_gamma(obs)
    assert inner == pytest.approx((gamma - 10.0) / 2.0)
    assert outer == pytest.approx((gamma + 10.0) / 2.0)
    assert inner - EPS_DIST <= passive_bound_direct(obs) <= outer + EPS_DIST


def test_candidate_positions_oracle():
    obs = physical_observation(V_POS, P_POS, O_POS)
    pts = candidate_positions(obs, V_POS, O_POS)
    assert len(pts) == 2
    pts = sorted(pts)
    assert pts[0] == pytest.approx((-7.0, -7.0), abs=1e-6)
    assert pts[1] == pytest.approx((7.0, -7.0), abs=1e-6)


def test_overheard_round_trip_too_short_raises():
    obs = PassiveObservation(t1=0.0, t2=1e-9, t3=1e-9, alpha_p=1e-8, alpha_v=0.0,
                             d_verifier=10.0)
    with pytest.raises(NegativeTimeOfFlight):
        verifier_prover_distance(obs)


def test_impossible_leg_sum_raises_negative_bound():
    # response overheard so early the leg sum undercuts d_vp (but stays positive)
    honest = physical_observation(V_POS, P_POS, O_POS)
    rigged = PassiveObservation(
        t1=honest.t1, t2=honest.t1 - 5.0 / C, t3=honest.t3,
        alpha_p=0.0, alpha_v=0.0, d_verifier=honest.d_verifier,
    )
    assert passive_gamma(rigged) == pytest.approx(5.0)
    with pytest.raises(NegativeBound):
        passive_bound_direct(rigged)


coord = st.floats(min_value=-500.0, max_value=500.0)


@settings(max_examples=200, deadline=None)
@given(vx=coord, vy=coord, px=coord, py=coord, ox=coord, oy=coord,
       alpha_p=st.floats(min_value=0.0, max_value=1e-5),
       offset=st.floats(min_value=-1.0, max_value=1.0))
def test_direct_bound_recovers_true_distance(vx, vy, px, py, ox, oy, alpha_p, offset):
    """For honest timings the passive bound IS the observer-prover distance."""
    v, p, o = (vx, vy), (px, py), (ox, oy)
    if distance(v, p) < 1.0 or distance(v, o) < 1.0 or distance(p, o) < 1.0:
        return
    obs = physical_observation(v, p, o, alpha_p=alpha_p, offset=offset)
    direct = passive_bound_direct(obs)
    assert direct == pytest.approx(distance(o, p), abs=1e-5)
    inner, outer = passive_bound_annulus(obs)
    assert inner - 1e-5 <= direct <= outer + 1e-5


# ---------------------------------------------------------------------------
# circle intersection


def test_circles_two_points():
    pts = intersect_circles((0.0, 0.0), 5.0, (6.0, 0.0), 5.0)
    assert len(pts) == 2
    assert sorted(pts) == [pytest.approx((3.0, -4.0)), pytest.approx((3.0, 4.0))]


def test_circles_tangent_single_point():
    pts = intersect_circles((0.0, 0.0), 5.0, (10.0, 0.0), 5.0)
    assert pts == [pytest.approx((5.0, 0.0))]


def test_circles_disjoint_raise():
    with pytest.raises(NoIntersection):
        intersect_circles((0.0, 0.0), 1.0, (10.0, 0.0), 1.0)


def test_circles_nested_raise():
    with pytest.raises(NoIntersection):
        intersect_circles((0.0, 0.0), 10.0, (1.0, 0.0), 1.0)


def test_circles_concentric_raise():
    with pytest.raises(NoIntersection):
        intersect_circles((0.0, 0.0), 2.0, (0.0, 0.0), 3.0)


# ---------------------------------------------------------------------------
# ring time-of-flight recovery


SQUARE = {1: (0.0, 0.0), 2: (400.0, 0.0), 3: (400.0, 400.0), 4: (0.0, 400.0)}
RING = (1, 2, 3, 4)


def flight_times(positions):
    return {a: {b: distance(pa, pb) / C for b, pb in positions.items()}
            for a, pa in positions.items()}


def snake_round(tof, ring, observer, t0=0.0, alpha=0.0, offset=0.0, delays=None):
    """One snake round with the ring protocol's arithmetic.

    Each send is (previous send + hop flight) + alpha, plus any delay on
    that message; each stamp is (send + flight to the observer) + offset.
    Returns the observer's arrivals and the next round's start.
    """
    order = snake_order(ring)
    arrivals = np.full(len(order), np.nan)
    t = t0
    for m, sender in enumerate(order):
        if m:
            t = (t + tof[order[m - 1]][sender]) + alpha
        if delays and m in delays:
            t += delays[m]
        if sender != observer:
            arrivals[m] = (t + tof[sender][observer]) + offset
    return arrivals, (t + tof[order[-1]][ring[0]]) + alpha


def square_round(observer, alpha=0.0, offset=0.0, t0=0.0):
    arrivals, _ = snake_round(flight_times(SQUARE), RING, observer, t0, alpha, offset)
    return RingTiming(ring=RING, observer=observer, arrivals=arrivals, alpha=alpha)


def true_edge_tofs():
    out = {}
    for e in ring_edges(RING):
        out[e] = distance(SQUARE[e[0]], SQUARE[e[1]]) / C
    return out


@pytest.mark.parametrize("observer", [1, 2, 3, 4])
def test_square_ring_edges_recovered(observer):
    rt = square_round(observer, alpha=2e-7, offset=0.11)
    solution = solve_tof(build_tof_system([rt]))
    solved = edge_times(solution)
    for e, t in true_edge_tofs().items():
        assert solved[e] == pytest.approx(t, abs=1e-15)
    # the chord to the opposite corner comes out too
    far = {1: 3, 2: 4, 3: 1, 4: 2}[observer]
    chord = tuple(sorted((observer, far)))
    assert solved[chord] == pytest.approx(distance(SQUARE[observer], SQUARE[far]) / C,
                                          abs=1e-15)


def test_multiple_rounds_pool_into_one_system():
    rounds = [square_round(2, t0=0.0), square_round(2, t0=1e-3)]
    solution = solve_tof(build_tof_system(rounds))
    solved = edge_times(solution)
    assert solved[(1, 2)] == pytest.approx(400.0 / C, abs=1e-15)


def hop_walk(system, rounds):
    """The system's equations written out hop by hop, as a dense matrix.

    Row order is each round's logged messages in send order; columns
    follow system.unknowns.  The right-hand side rebases each round on
    its first stamp and takes off (m - 1) * alpha.
    """
    ring, observer = system.ring, system.observer
    order = snake_order(ring)
    hops = snake_hops(ring)
    col = {key: i for i, key in enumerate(system.unknowns)}
    rows, rhs = [], []
    for r, rt in enumerate(rounds):
        logged = [m for m in range(1, len(order) + 1) if order[m - 1] != observer]
        base = rt.arrivals[logged[0] - 1]
        for m in logged:
            row = [0.0] * len(col)
            for a, b in hops[: m - 1]:
                row[col[("edge", tuple(sorted((a, b))))]] += 1.0
            row[col[("edge", tuple(sorted((order[m - 1], observer))))]] += 1.0
            row[col[("anchor", r)]] = 1.0
            rows.append(row)
            rhs.append((rt.arrivals[m - 1] - base) - (m - 1) * rt.alpha)
    return np.array(rows), np.array(rhs)


@pytest.mark.parametrize("n_nodes", [3, 4, 5, 8])
def test_rows_match_a_walk_over_the_hops(n_nodes):
    """The system holds the hop walk's equations, and the elimination
    solves them in the least-squares sense even when rounds disagree."""
    ring = tuple(range(10, 10 + n_nodes))
    order = snake_order(ring)
    for observer in ring:
        rounds = [
            RingTiming(ring=ring, observer=observer, alpha=1e-7 * (r + 1),
                       arrivals=np.array([np.nan if order[m - 1] == observer
                                          else 0.3 + 1e-3 * r + 1e-6 * m + 1e-9 * m * m * r
                                          for m in range(1, 2 * n_nodes + 1)]))
            for r in range(3)
        ]
        system = build_tof_system(rounds)
        rows, rhs = hop_walk(system, rounds)
        assert len(system.rows) == len(rows)
        assert len(system.unknowns) == rows.shape[1] == 2 * n_nodes - 3 + len(rounds)
        assert system.rhs.ravel().tolist() == rhs.tolist()
        assert system.stamp_max == np.nanmax([rt.arrivals for rt in rounds])
        solution = solve_tof(system, residual_tol=np.inf)
        x = np.array([solution.values[k] for k in system.unknowns])
        # the normal equations: the residual is orthogonal to every column
        assert np.max(np.abs(rows.T @ (rows @ x - rhs))) < 1e-15


@pytest.mark.parametrize("n_nodes", [3, 4, 5, 8, 13])
def test_error_weights_match_the_dense_inverse(n_nodes):
    """error_s weighs each rounding by the inverse's rows: the largest
    1-norm of a flight time's row is 3 and its send-chain weight N, or 2
    and N - 1 for the observer at ring index 0 or 1."""
    ring = tuple(range(1, n_nodes + 1))
    order = snake_order(ring)
    tof = flight_times({nid: (float(nid), float(nid * nid % 7)) for nid in ring})
    for q, observer in enumerate(ring):
        arrivals, _ = snake_round(tof, ring, observer)
        rounds = [RingTiming(ring=ring, observer=observer, arrivals=arrivals, alpha=0.0)]
        rows, _ = hop_walk(build_tof_system(rounds), rounds)
        flights = np.linalg.inv(rows)[:-1]
        logged = [m for m in range(1, 2 * n_nodes + 1) if order[m - 1] != observer]
        # a rounding at hop k shifts every stamp sent after it
        later = np.array([[m > k for m in logged] for k in range(1, 2 * n_nodes)], dtype=float)
        chain = np.abs(flights @ later.T).sum(axis=1).max()
        norm = np.abs(flights).sum(axis=1).max()
        want = (n_nodes - 1, 2) if q < 2 else (n_nodes, 3)
        assert (chain, norm) == pytest.approx(want, abs=1e-9)


def test_missing_arrival_is_incomplete_cycle():
    arrivals = square_round(2).arrivals.copy()
    arrivals[0] = np.nan
    with pytest.raises(IncompleteCycle):
        build_tof_system([RingTiming(ring=RING, observer=2, arrivals=arrivals, alpha=0.0)])


def test_own_send_logged_is_rejected():
    arrivals = square_round(2).arrivals.copy()
    arrivals[1] = 0.5  # message 2 is observer 2's own first send
    with pytest.raises(SolveFailure, match="own send m=2"):
        build_tof_system([RingTiming(ring=RING, observer=2, arrivals=arrivals, alpha=0.0)])


def test_short_round_is_rejected():
    arrivals = square_round(2).arrivals[:-1]
    with pytest.raises(SolveFailure, match="7 message slots"):
        build_tof_system([RingTiming(ring=RING, observer=2, arrivals=arrivals, alpha=0.0)])


def test_mixed_observers_rejected():
    with pytest.raises(SolveFailure, match="mix"):
        build_tof_system([square_round(1), square_round(2)])


def test_observer_off_ring_rejected():
    rt = square_round(2)
    with pytest.raises(SolveFailure, match="not on the ring"):
        build_tof_system([RingTiming(ring=RING, observer=9, arrivals=rt.arrivals, alpha=0.0)])


def test_inconsistent_stamps_fail_residual_check():
    # one round alone is square and fits any stamps; a second round whose
    # message 4 is bent cannot share the first round's flight times
    plain = square_round(1)
    bent = square_round(1, t0=1e-3)
    arrivals = bent.arrivals.copy()
    arrivals[3] += 1e-6
    system = build_tof_system([plain, RingTiming(ring=RING, observer=1, arrivals=arrivals,
                                                 alpha=0.0)])
    with pytest.raises(SolveFailure, match="residual"):
        solve_tof(system)
    # unbent, the same two rounds solve
    solve_tof(build_tof_system([plain, bent]))


def test_snake_order_shape():
    assert snake_order([1, 2, 3, 4]) == [1, 2, 3, 4, 1, 4, 3, 2]
    assert len(snake_hops([1, 2, 3, 4])) == 7


@settings(max_examples=40, deadline=None)
@given(n_nodes=st.integers(4, 40), n_rounds=st.integers(1, 6),
       alpha=st.floats(0.0, 0.5), offset=st.floats(0.0, 1.0),
       side_m=st.floats(0.0, 5.0).map(lambda e: 10.0 ** e),
       delayed=st.lists(st.tuples(st.integers(0, 10**6), st.floats(0.0, 1e-7)), max_size=4),
       seed=st.integers(0, 2**16))
@example(n_nodes=40, n_rounds=6, alpha=0.5, offset=1.0, side_m=1.0, delayed=[], seed=1)
@example(n_nodes=4, n_rounds=1, alpha=0.0, offset=0.0, side_m=1e5, delayed=[], seed=2)
def test_elimination_matches_lstsq_on_the_hop_walk(n_nodes, n_rounds, alpha, offset, side_m,
                                                   delayed, seed):
    """The elimination and an SVD least-squares solve of the hop-walk
    rows agree within their two error bounds; with no delays, every
    flight time sits within error_s of the truth.  The observers checked
    are the opener, its two neighbours (the special cases of the
    elimination) and one more."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, side_m, size=(n_nodes, 2))
    ids = rng.permutation(np.arange(1, n_nodes + 1)).tolist()
    tof = flight_times({nid: tuple(p) for nid, p in zip(ids, pts.tolist())})
    ring = tuple(ids)
    # per-message delays: (send index over all rounds, seconds)
    delays = {}
    for k, d in delayed:
        k %= 2 * n_nodes * n_rounds
        delays.setdefault(k // (2 * n_nodes), {})[k % (2 * n_nodes)] = d
    for observer in {ring[0], ring[1], ring[-1], ring[int(rng.integers(n_nodes))]}:
        rounds, t0 = [], float(rng.uniform(0.0, 1.0))
        for r in range(n_rounds):
            arrivals, t0 = snake_round(tof, ring, observer, t0, alpha, offset, delays.get(r))
            rounds.append(RingTiming(ring=ring, observer=observer, arrivals=arrivals,
                                     alpha=alpha))
        system = build_tof_system(rounds)
        solution = solve_tof(system, residual_tol=np.inf)
        rows, rhs = hop_walk(system, rounds)
        x, _, rank, sigma = np.linalg.lstsq(rows, rhs, rcond=None)
        assert rank == rows.shape[1]
        lstsq_error = 0.5 * np.spacing(system.stamp_max) * len(rows) ** 0.5 / sigma[-1]
        for key, want in zip(system.unknowns, x):
            if key[0] == "edge":
                assert abs(solution.values[key] - want) <= solution.error_s + lstsq_error
                if not delays:
                    a, b = key[1]
                    assert abs(solution.values[key] - tof[a][b]) <= solution.error_s
