"""Distance estimation: round trips, overheard geometry, ring solver."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ring_oracle
from exchange_oracle import active_distance
from gdbsim.core import EPS_DIST, SPEED_OF_LIGHT, Protocol, distance
from gdbsim.estimate import (
    IncompleteCycle,
    NegativeTimeOfFlight,
    NoIntersection,
    SolveFailure,
    _edge_key,
    build_tof_system,
    direct_bounds,
    edge_times,
    intersect_circles,
    leg_sums,
    ring_edges,
    snake_order,
    solve_tof,
    verifier_prover_distances,
)
from gdbsim.proto import run_scenario
from gdbsim.scenarios import oneway_scenario, peer_scenario, with_policy
from gdbsim.threat import EarlyChallenge, SelectiveDelay

C = SPEED_OF_LIGHT


def snake_hops(ring):
    """The 2N - 1 directed hops (previous sender, next sender) of a round."""
    order = snake_order(ring)
    return list(zip(order[:-1], order[1:]))


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
                         offset=0.0, t0=0.0, c=C):
    """Stamp the three arrivals exactly as the geometry dictates.

    Returns one-round arrays t1, t2, t3 and the scalars the kernels take
    after them, keyed by the kernels' argument names.
    """
    d_vp = distance(v_pos, p_pos)
    d_vo = distance(v_pos, o_pos)
    d_po = distance(p_pos, o_pos)
    t1 = t0 + d_vo / c
    t2 = t0 + d_vp / c + alpha_p + d_po / c
    t3 = t0 + 2 * d_vp / c + alpha_p + alpha_v + d_vo / c
    return dict(t1=np.array([t1 + offset]), t2=np.array([t2 + offset]),
                t3=np.array([t3 + offset]), alpha_p=alpha_p, alpha_v=alpha_v,
                d_verifier=d_vo, c=c)


def priced(obs):
    """Verifier-prover distance, leg sum and direct bound of a one-round observation."""
    d_vp = verifier_prover_distances(obs["t1"], obs["t3"], obs["alpha_p"], obs["alpha_v"],
                                     obs["c"])
    gamma = leg_sums(obs["t1"], obs["t2"], obs["alpha_p"], obs["d_verifier"], obs["c"])
    return float(d_vp[0]), float(gamma[0]), float(direct_bounds(**obs)[0])


V_POS = (0.0, 0.0)
P_POS = (7.0, -7.0)
O_POS = (0.0, 10.0)


def test_overheard_distance_oracle():
    obs = physical_observation(V_POS, P_POS, O_POS, alpha_p=1e-6, alpha_v=2e-6,
                               offset=0.37, t0=4.2)
    d_vp, gamma, direct = priced(obs)
    assert d_vp == pytest.approx(math.sqrt(98.0), abs=1e-6)
    assert gamma == pytest.approx(math.sqrt(98.0) + math.sqrt(338.0), abs=1e-6)
    assert direct == pytest.approx(math.sqrt(338.0), abs=1e-6)


def test_direct_bound_lies_in_the_leg_sum_annulus():
    # on the gamma ellipse the observer focus is between (gamma - d) / 2 and (gamma + d) / 2 away
    _, gamma, direct = priced(physical_observation(V_POS, P_POS, O_POS))
    assert (gamma - 10.0) / 2.0 - EPS_DIST <= direct <= (gamma + 10.0) / 2.0 + EPS_DIST


def test_candidate_positions_oracle():
    d_vp, gamma, _ = priced(physical_observation(V_POS, P_POS, O_POS))
    pts = intersect_circles(V_POS, d_vp, O_POS, gamma - d_vp)
    assert len(pts) == 2
    pts = sorted(pts)
    assert pts[0] == pytest.approx((-7.0, -7.0), abs=1e-6)
    assert pts[1] == pytest.approx((7.0, -7.0), abs=1e-6)


def test_overheard_round_trip_too_short_raises():
    with pytest.raises(NegativeTimeOfFlight, match="overheard round trip 1e-09 s"):
        verifier_prover_distances(np.array([0.0]), np.array([1e-9]), 1e-8, 0.0, C)


def test_short_leg_sum_scores_the_round_zero():
    # response overheard so early the leg sum undercuts d_vp (but stays positive)
    obs = physical_observation(V_POS, P_POS, O_POS)
    obs["t2"] = obs["t1"] - 5.0 / C
    _, gamma, direct = priced(obs)
    assert gamma == pytest.approx(5.0)
    assert direct < -EPS_DIST
    # a live run: 63 ns early makes the leg sum fall 0.50 m short, and the round scores zero
    run = run_scenario(with_policy(
        oneway_scenario(V_POS, P_POS, n=1, seed=42, observer_pos=O_POS),
        1, EarlyChallenge(advance_s=63e-9, pr_ch=1.0)))
    assert run.estimate_for(9, 2).bound_m == 0.0


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
    _, gamma, direct = priced(physical_observation(v, p, o, alpha_p=alpha_p, offset=offset))
    assert direct == pytest.approx(distance(o, p), abs=1e-5)
    d = distance(v, o)
    assert (gamma - d) / 2.0 - 1e-5 <= direct <= (gamma + d) / 2.0 + 1e-5


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


def test_circles_internally_tangent_meet_once():
    """A circle just inside another and touching it meets it at exactly one
    point, on the far side; moved 1 mm further inside, it meets it nowhere."""
    assert intersect_circles((0.0, 0.0), 10.0, (9.0, 0.0), 1.0) == [(10.0, 0.0)]
    with pytest.raises(NoIntersection):
        intersect_circles((0.0, 0.0), 10.0, (9.0 - 1e-3, 0.0), 1.0)


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
    """One round on the square as observer logs it: a (1 x 8 x 1) stamp block."""
    arrivals, _ = snake_round(flight_times(SQUARE), RING, observer, t0, alpha, offset)
    return arrivals[None, :, None]


def snake_block(tof, ring, observers, n_rounds=1, t0=0.0, alpha=0.0, offsets=None, delays=None):
    """n_rounds rounds as every observer logs them: (rounds x 2N x observers)."""
    offsets = offsets or {}
    delays = delays or {}
    rounds = []
    for r in range(n_rounds):
        cols = [snake_round(tof, ring, o, t0, alpha, offsets.get(o, 0.0), delays.get(r))
                for o in observers]
        rounds.append(np.stack([arrivals for arrivals, _ in cols], axis=-1))
        t0 = cols[0][1]
    return np.array(rounds)


def true_edge_tofs():
    out = {}
    for e in ring_edges(RING):
        out[e] = distance(SQUARE[e[0]], SQUARE[e[1]]) / C
    return out


@pytest.mark.parametrize("observer", [1, 2, 3, 4])
def test_square_ring_edges_recovered(observer):
    system = build_tof_system(RING, [observer], square_round(observer, alpha=2e-7, offset=0.11),
                              2e-7)
    solved = edge_times(system, solve_tof(system))[observer]
    for e, t in true_edge_tofs().items():
        assert solved[e] == pytest.approx(t, abs=1e-15)
    # the chord to the opposite corner comes out too
    far = {1: 3, 2: 4, 3: 1, 4: 2}[observer]
    chord = tuple(sorted((observer, far)))
    assert solved[chord] == pytest.approx(distance(SQUARE[observer], SQUARE[far]) / C,
                                          abs=1e-15)


def test_multiple_rounds_pool_into_one_system():
    block = np.concatenate([square_round(2, t0=0.0), square_round(2, t0=1e-3)])
    system = build_tof_system(RING, [2], block, 0.0)
    solved = edge_times(system, solve_tof(system))[2]
    assert solved[(1, 2)] == pytest.approx(400.0 / C, abs=1e-15)


def hop_walk(system, k, stamps, alphas):
    """Observer k's equations written out hop by hop, as a dense matrix.

    Row order is each round's logged messages in send order; columns
    follow the observer's flights (system.flight_keys()[k]), then one
    anchor per round.  The right-hand side rebases each round on its
    first stamp and takes off (m - 1) * alpha.
    """
    ring, observer = system.ring, system.observers[k]
    order = snake_order(ring)
    hops = snake_hops(ring)
    keys = system.flight_keys()[k]
    col = {key: i for i, key in enumerate(keys)}
    rows, rhs = [], []
    for r, alpha in enumerate(alphas):
        arrivals = stamps[r, :, k]
        logged = [m for m in range(1, len(order) + 1) if order[m - 1] != observer]
        base = arrivals[logged[0] - 1]
        for m in logged:
            row = [0.0] * (len(keys) + len(alphas))
            for a, b in hops[: m - 1]:
                row[col[tuple(sorted((a, b)))]] += 1.0
            row[col[tuple(sorted((order[m - 1], observer)))]] += 1.0
            row[len(keys) + r] = 1.0
            rows.append(row)
            rhs.append((arrivals[m - 1] - base) - (m - 1) * alpha)
    return np.array(rows), np.array(rhs)


@pytest.mark.parametrize("n_nodes", [3, 4, 5, 8])
def test_rows_match_a_walk_over_the_hops(n_nodes):
    """The system holds the hop walk's equations, and the elimination
    solves them in the least-squares sense even when rounds disagree."""
    ring = tuple(range(10, 10 + n_nodes))
    order = snake_order(ring)
    alphas = [1e-7 * (r + 1) for r in range(3)]
    stamps = np.array([
        [[np.nan if order[m - 1] == o else 0.3 + 1e-3 * r + 1e-6 * m + 1e-9 * m * m * r
          for o in ring] for m in range(1, 2 * n_nodes + 1)]
        for r in range(3)
    ])
    system = build_tof_system(ring, ring, stamps, alphas)
    solution = solve_tof(system, residual_tol=np.inf)
    assert not solution.failures
    assert len(system.rows) == n_nodes * 3 * (2 * n_nodes - 2)
    assert len(system.unknowns) == n_nodes * (2 * n_nodes - 3 + 3)
    for k in range(n_nodes):
        rows, rhs = hop_walk(system, k, stamps, alphas)
        assert rows.shape == (3 * (2 * n_nodes - 2), 2 * n_nodes - 3 + 3)
        assert system.rhs[k].ravel().tolist() == rhs.tolist()
        assert system.stamp_max[k] == np.nanmax(stamps[:, :, k])
        x = np.concatenate((solution.flights[k], solution.anchors[k]))
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
    stamps = snake_block(tof, ring, ring)
    system = build_tof_system(ring, ring, stamps, 0.0)
    for q, observer in enumerate(ring):
        rows, _ = hop_walk(system, q, stamps, [0.0])
        flights = np.linalg.inv(rows)[:-1]
        logged = [m for m in range(1, 2 * n_nodes + 1) if order[m - 1] != observer]
        # a rounding at hop k shifts every stamp sent after it
        later = np.array([[m > k for m in logged] for k in range(1, 2 * n_nodes)], dtype=float)
        chain = np.abs(flights @ later.T).sum(axis=1).max()
        norm = np.abs(flights).sum(axis=1).max()
        want = (n_nodes - 1, 2) if q < 2 else (n_nodes, 3)
        assert (chain, norm) == pytest.approx(want, abs=1e-9)


def test_missing_arrival_is_incomplete_cycle():
    block = np.concatenate([square_round(1), square_round(2)], axis=2)
    block[0, 0, 1] = np.nan
    system = build_tof_system(RING, [1, 2], block, 0.0)
    assert list(system.failures) == [2]
    assert isinstance(system.failures[2], IncompleteCycle)
    assert str(system.failures[2]) == "round logged 5 arrivals, cycle has 6"
    solution = solve_tof(system)
    assert list(solution.failures) == [2]
    # the other observer solves as it would alone
    alone = solve_tof(build_tof_system(RING, [1], block[:, :, :1], 0.0))
    assert solution.flights[0].tolist() == alone.flights[0].tolist()
    assert list(edge_times(system, solution)) == [1]


def test_own_send_logged_is_rejected():
    block = square_round(2)
    block[0, 1, 0] = 0.5  # message 2 is observer 2's own first send
    failure = build_tof_system(RING, [2], block, 0.0).failures[2]
    assert type(failure) is SolveFailure
    assert str(failure) == "arrival logged for the observer's own send m=2"


def test_short_round_is_rejected():
    with pytest.raises(SolveFailure, match="7 message slots"):
        build_tof_system(RING, [2], square_round(2)[:, :-1], 0.0)


def test_mixed_observers_rejected():
    # one observer's column cannot stand for two observers
    with pytest.raises(SolveFailure, match="not rounds x 2N x 2 observers"):
        build_tof_system(RING, [1, 2], square_round(1), 0.0)


def test_observer_off_ring_rejected():
    with pytest.raises(SolveFailure, match="not on the ring"):
        build_tof_system(RING, [9], square_round(2), 0.0)


@pytest.mark.parametrize("ring, observers, stamps, match", [
    (RING, [2], np.empty((0, 8, 1)), "no rounds to solve"),
    (RING, [2, 2], np.repeat(square_round(2), 2, axis=2),
     r"observers \(2, 2\) name one node twice"),
    ((1, 2), [1], np.zeros((1, 4, 1)), "a ring of 2 has no snake to solve"),
], ids=["no-rounds", "one-observer-twice", "ring-of-two"])
def test_a_block_no_ring_can_solve_is_refused(ring, observers, stamps, match):
    with pytest.raises(SolveFailure, match=match):
        build_tof_system(ring, observers, stamps, 0.0)


def test_inconsistent_stamps_fail_residual_check():
    # one round alone is square and fits any stamps; a second round whose
    # message 4 is bent cannot share the first round's flight times
    plain = square_round(1)
    bent = square_round(1, t0=1e-3)
    bent[0, 3, 0] += 1e-6
    system = build_tof_system(RING, [1], np.concatenate([plain, bent]), 0.0)
    assert not system.failures
    failure = solve_tof(system).failures[1]
    assert str(failure).startswith("residual ") and str(failure).endswith(" exceeds 1e-10")
    # unbent, the same two rounds solve
    unbent = np.concatenate([plain, square_round(1, t0=1e-3)])
    assert not solve_tof(build_tof_system(RING, [1], unbent, 0.0)).failures


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
    observers = sorted({ring[0], ring[1], ring[-1], ring[int(rng.integers(n_nodes))]})
    stamps = snake_block(tof, ring, observers, n_rounds, float(rng.uniform(0.0, 1.0)), alpha,
                         dict.fromkeys(observers, offset), delays)
    system = build_tof_system(ring, observers, stamps, alpha)
    solution = solve_tof(system, residual_tol=np.inf)
    assert not solution.failures
    for k, keys in enumerate(system.flight_keys()):
        rows, rhs = hop_walk(system, k, stamps, [alpha] * n_rounds)
        x, _, rank, sigma = np.linalg.lstsq(rows, rhs, rcond=None)
        assert rank == rows.shape[1]
        lstsq_error = 0.5 * np.spacing(system.stamp_max[k]) * len(rows) ** 0.5 / sigma[-1]
        error_s = solution.error_s[k]
        for (a, b), got, want in zip(keys, solution.flights[k], x):
            assert abs(got - want) <= error_s + lstsq_error
            if not delays:
                assert abs(got - tof[a][b]) <= error_s


def ring_run(n_nodes, n_rounds, alpha, seed, colluders):
    """A ring over random positions whose colluders (ring positions) delay
    their two sends per round by unequal amounts; returns the run and the
    stamp block its solve read."""
    rng = np.random.default_rng(seed)
    pts = [tuple(p) for p in rng.uniform(0.0, 1e3, size=(n_nodes, 2)).tolist()]
    scn = peer_scenario(Protocol.MULTI_PARTY_RING, positions=pts, n=n_rounds, seed=seed)
    scn = replace(scn, config=replace(scn.config, alpha=alpha))
    ring = run_scenario(scn).ring_order
    for pos in colluders:
        per = tuple((i, float(d)) for i, d in enumerate(rng.uniform(0.0, 5e-8, 2 * n_rounds)))
        scn = with_policy(scn, ring[pos % n_nodes], SelectiveDelay(per_message=per))
    res = run_scenario(scn)
    peers = sorted(ring)
    seqs = [[em.seq for em in res.trace.emissions if em.phase == "rapid" and em.round_index == r]
            for r in range(1, n_rounds + 1)]
    return res, peers, res.trace.local_arrivals(seqs, peers)


def assert_same_solve(system, solution, reference):
    """Batched and per-observer solves agree bit for bit, failures and their text too."""
    failed = [o for o, ref in reference.items() if isinstance(ref, SolveFailure)]
    assert list(solution.failures) == failed
    edges = edge_times(system, solution)
    for k, o in enumerate(system.observers):
        ref = reference[o]
        if o in failed:
            got = solution.failures[o]
            assert (type(got), str(got)) == (type(ref), str(ref))
            continue
        want = [(key, v.hex()) for key, v in ring_oracle.edge_times(ref).items()]
        assert [(key, v.hex()) for key, v in edges[o].items()] == want
        assert float(solution.error_s[k]).hex() == ref.error_s.hex()


@settings(max_examples=40, deadline=None)
@given(n_nodes=st.integers(4, 40), n_rounds=st.integers(1, 3),
       alpha=st.sampled_from([0.0, 1e-7]) | st.floats(0.0, 1e-3), seed=st.integers(0, 2**16),
       spoil=st.sampled_from(["residual", "missing", "own send"]))
@example(n_nodes=4, n_rounds=2, alpha=0.0, seed=7, spoil="residual")
@example(n_nodes=40, n_rounds=3, alpha=1e-7, seed=8, spoil="own send")
def test_batched_solve_matches_the_per_observer_reference(n_nodes, n_rounds, alpha, seed, spoil):
    """One batched solve gives every observer what solving it alone gives:
    the same flight times and error bound by float.hex, and the same
    failures with the same text.  The run has a colluding pair of ring
    neighbours; then one observer's stamps are spoiled, and only that
    observer may fail."""
    res, peers, stamps = ring_run(n_nodes, n_rounds, alpha, seed, colluders=(seed, seed + 1))
    ring = res.ring_order
    reference = ring_oracle.solve_each(ring, peers, stamps, alpha)
    system = build_tof_system(ring, peers, stamps, alpha)
    solution = solve_tof(system)
    assert_same_solve(system, solution, reference)
    # the run itself published exactly these solves and bounds
    assert res.detection.unsolved == sorted(solution.failures)
    assert [f"node {o}: flight-time solve failed: {exc}" for o, exc in reference.items()
            if isinstance(exc, SolveFailure)] == res.rejections
    for o, edges in edge_times(system, solution).items():
        assert [(k, v.hex()) for k, v in res.ring_solutions[o].items()] == [
            (k, v.hex()) for k, v in edges.items()]
        assert res.detection.bound_error_m[o].hex() == (
            res.scenario.config.c * reference[o].error_s).hex()
    for est in res.estimates:
        t = ring_oracle.edge_times(reference[est.measurer])[_edge_key(est.measurer, est.target)]
        assert est.bound_m.hex() == max(res.scenario.config.c * t, 0.0).hex()

    rng = np.random.default_rng(seed + 1)
    k = int(rng.integers(n_nodes))
    q = ring.index(peers[k])
    own = (q, 2 * n_nodes - q if q else n_nodes)
    logged = [m for m in range(2 * n_nodes) if m not in own]
    spoilt = stamps.copy()
    if spoil == "residual":
        spoilt[-1, logged[int(rng.integers(len(logged)))], k] += 1e-6
    elif spoil == "missing":
        spoilt[int(rng.integers(n_rounds)), logged[int(rng.integers(len(logged)))], k] = np.nan
    else:
        spoilt[int(rng.integers(n_rounds)), own[int(rng.integers(2))], k] = 0.5
    reference_spoilt = ring_oracle.solve_each(ring, peers, spoilt, alpha)
    system = build_tof_system(ring, peers, spoilt, alpha)
    assert_same_solve(system, solve_tof(system), reference_spoilt)
    # only the spoilt observer changed; a single round fits any stamps
    for o in peers:
        if o != peers[k]:
            assert type(reference_spoilt[o]) is type(reference[o])
    if spoil != "residual" or n_rounds > 1:
        assert isinstance(reference_spoilt[peers[k]], SolveFailure)
