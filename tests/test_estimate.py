"""Distance estimation: round trips, overheard geometry, ring solver."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    TofSystem,
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


def square_round(observer, alpha=0.0, offset=0.0, t0=0.0, anchor_known=None):
    """Arrival stamps of one honest snake round over the unit square ring."""
    order = snake_order(RING)
    hops = snake_hops(RING)
    tof = {pair: distance(SQUARE[pair[0]], SQUARE[pair[1]]) / C
           for pair in {(a, b) for a in RING for b in RING if a != b}}
    sends = []
    t = t0
    for m in range(len(order)):
        if m > 0:
            t += tof[hops[m - 1]] + alpha
        sends.append(t)
    arrivals = {
        m + 1: sends[m] + tof[(order[m], observer)] + offset
        for m in range(len(order))
        if order[m] != observer
    }
    if anchor_known is None:
        anchor_known = observer == RING[0]
    return RingTiming(
        ring=RING, observer=observer, arrivals=arrivals, alpha=alpha,
        t_start_local=(t0 + offset) if anchor_known else None,
    )


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


def test_anchored_round_is_overdetermined_but_consistent():
    rt = square_round(1)  # opener knows its own start stamp
    system = build_tof_system([rt])
    assert len(system.rows) > len(system.unknowns)
    solution = solve_tof(system)
    x = np.array([solution.values[k] for k in system.unknowns])
    assert np.max(np.abs(system.rows @ x - system.rhs)) < 1e-12


def test_multiple_rounds_pool_into_one_system():
    rounds = [square_round(2, t0=0.0), square_round(2, t0=1e-3)]
    solution = solve_tof(build_tof_system(rounds))
    solved = edge_times(solution)
    assert solved[(1, 2)] == pytest.approx(400.0 / C, abs=1e-15)


@pytest.mark.parametrize("n_nodes", [3, 4, 5, 8])
def test_rows_match_a_walk_over_the_hops(n_nodes):
    """Array-built rows equal the equations written out hop by hop."""
    ring = tuple(range(10, 10 + n_nodes))
    order = snake_order(ring)
    hops = snake_hops(ring)
    for observer in ring:
        rounds = [
            RingTiming(ring=ring, observer=observer, alpha=1e-7 * (r + 1),
                       arrivals={m: 0.3 + 1e-3 * r + 1e-6 * m
                                 for m in range(1, 2 * n_nodes + 1)
                                 if order[m - 1] != observer},
                       t_start_local=0.2 if r == 1 else None)
            for r in range(3)
        ]
        system = build_tof_system(rounds)
        col = {key: i for i, key in enumerate(system.unknowns)}
        want_rows, want_rhs = [], []
        for r, rt in enumerate(rounds):
            base = rt.t_start_local
            if base is None:
                base = rt.arrivals[min(rt.arrivals)]
            for m, t in sorted(rt.arrivals.items()):
                row = [0.0] * len(col)
                for a, b in hops[: m - 1]:
                    row[col[("edge", tuple(sorted((a, b))))]] += 1.0
                row[col[("edge", tuple(sorted((order[m - 1], observer))))]] += 1.0
                if rt.t_start_local is None:
                    row[col[("anchor", r)]] = 1.0
                want_rows.append(row)
                want_rhs.append((t - base) - (m - 1) * rt.alpha)
        assert system.rows.tolist() == want_rows
        assert system.rhs.tolist() == want_rhs
        assert system.stamp_max == max(max(rt.arrivals.values()) for rt in rounds)


def test_missing_arrival_is_incomplete_cycle():
    rt = square_round(2)
    partial = dict(rt.arrivals)
    partial.popitem()
    with pytest.raises(IncompleteCycle):
        build_tof_system([RingTiming(ring=RING, observer=2, arrivals=partial,
                                     alpha=0.0, t_start_local=None)])


def test_mixed_observers_rejected():
    with pytest.raises(SolveFailure, match="mix"):
        build_tof_system([square_round(1), square_round(2)])


def test_observer_off_ring_rejected():
    rt = square_round(2)
    with pytest.raises(SolveFailure, match="not on the ring"):
        build_tof_system([RingTiming(ring=RING, observer=9, arrivals=rt.arrivals,
                                     alpha=0.0, t_start_local=None)])


def test_inconsistent_stamps_fail_residual_check():
    # bending message 4 cannot be absorbed by any edge assignment;
    # messages touching a single redundant equation would be
    rt = square_round(1)
    bent = dict(rt.arrivals)
    bent[4] += 1e-6
    with pytest.raises(SolveFailure, match="residual"):
        solve_tof(build_tof_system([RingTiming(ring=RING, observer=1, arrivals=bent,
                                               alpha=0.0, t_start_local=rt.t_start_local)]))


def test_snake_order_shape():
    assert snake_order([1, 2, 3, 4]) == [1, 2, 3, 4, 1, 4, 3, 2]
    assert len(snake_hops([1, 2, 3, 4])) == 7


def test_rank_deficient_system_raises():
    # the two flight times only ever appear summed, so neither is determined
    system = TofSystem(
        unknowns=[("edge", (1, 2)), ("edge", (2, 3))],
        rows=np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 1.0]]),
        rhs=np.array([1e-6, 2e-6, 1e-6]),
    )
    with pytest.raises(SolveFailure, match="rank"):
        solve_tof(system)
