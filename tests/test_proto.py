"""End-to-end protocol drivers: message counts, bound accuracy, attacks."""
import dataclasses
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exchange_oracle
import group_oracle
import passive_oracle
from gdbsim.core import (
    ExperimentParams,
    NodeSpec,
    Protocol,
    ProtocolConfig,
    Role,
    Scenario,
    ScenarioInvalid,
    SPEED_OF_LIGHT,
    active_verifier_count,
    distance,
    load_scenario,
)
from gdbsim.crypto import KeyRegistry
from gdbsim.estimate import NegativeTimeOfFlight, SolveFailure
from gdbsim.proto import base, group
from gdbsim.proto import onetomany as onetomany_driver
from gdbsim.proto import pairwise as pairwise_driver
from gdbsim.proto import ring as ring_driver
from gdbsim.proto.base import AuthFailure, ResponseMismatch, start_run
from gdbsim.proto.pairwise import (
    Row,
    passive_bounds,
    passive_observations,
    run_exchange,
    run_sequential_interleaved,
    run_sequential_pairwise,
)
from gdbsim.proto.ring import run_ring_with_delays
from gdbsim.proto.runner import run_scenario
from gdbsim.scenarios import (
    mpnv_scenario,
    ntom_scenario,
    oneway_scenario,
    peer_scenario,
    regular_ring_scenario,
    with_policy,
)
from gdbsim.threat import (
    EarlyChallenge,
    FakeLocationReport,
    GuessAhead,
    Honest,
    NodeInsertion,
    Relay,
    SelectiveDelay,
)

C = SPEED_OF_LIGHT
GOLDEN = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# message counts


def test_oneway_counts():
    r = run_scenario(oneway_scenario(n=10, seed=4))
    assert r.trace.count(phase="rapid") == 20          # 2n
    assert r.trace.count() == 22                       # plus commit and open


def test_oneway_observer_adds_one_closing_message():
    r = run_scenario(oneway_scenario(n=10, seed=4, observer_pos=(30.0, 60.0)))
    assert r.trace.count(phase="rapid") == 21          # 2n + 1


def test_mutual_interleaved_counts():
    r = run_scenario(peer_scenario(Protocol.MUTUAL_INTERLEAVED, 2, n=12, radius=100.0))
    assert r.trace.count(phase="rapid") == 25          # 2n + 1


def test_one_to_many_counts():
    # n (2M + 1) rapid messages for the whole group
    r = run_scenario(peer_scenario(Protocol.ONE_TO_MANY, 4, n=2))
    assert r.trace.count(phase="rapid") == 14
    assert len(r.estimates) == 6                       # both directions, 3 responders


def test_ring_counts():
    r = run_scenario(regular_ring_scenario(4, 400.0, seed=21))
    assert r.trace.count(phase="rapid") == 8           # 2 sends per node per round
    assert len(r.estimates) == 12                      # 4 observers x 3 known edges


def test_mpnv_counts_partial_and_degenerate():
    r = run_scenario(mpnv_scenario(n=2, n_a=1, d_a=0.5, n_verifiers=3, m_provers=2))
    assert r.trace.count(phase="rapid") == 12          # (2 n_a + 1) a M, a = 2
    full = run_scenario(mpnv_scenario(n=2, n_a=2, d_a=1.0, n_verifiers=3, m_provers=2))
    assert full.trace.count(phase="rapid") == 24       # closing dropped: 2 n N M


def test_ntom_counts():
    mp = run_scenario(ntom_scenario(Protocol.NTOM_MULTIPARTY, 2, 2, n=1))
    assert mp.trace.count(phase="rapid") == 8          # 2 n (N + M)
    chain = run_scenario(ntom_scenario(Protocol.NTOM_ONETOMANY, 2, 3, n=2))
    assert chain.trace.count(phase="rapid") == 28      # N n (2M + 1)
    passive = run_scenario(ntom_scenario(
        Protocol.NTOM_PASSIVE, 3, 3, n=2, n_a1=1, n_a2=2, d_1=0.5, d_2=1.0,
        n_p1=1, n_p2=0))
    assert passive.trace.count(phase="rapid") == 54    # phase sums with closings


# ---------------------------------------------------------------------------
# honest accuracy


def test_oneway_bound_is_true_distance():
    r = run_scenario(oneway_scenario(n=3))
    est = r.estimate_for(1, 2)
    assert est.bound_m == pytest.approx(90.0, abs=1e-6)
    assert est.method == "active" and est.rounds_used == 3


def test_passive_observer_matches_its_own_geometry():
    s = oneway_scenario(n=3, observer_pos=(30.0, 60.0))
    r = run_scenario(s)
    est = r.estimate_for(9, 2)
    truth = distance((30.0, 60.0), (90.0, 0.0))
    assert est.bound_m == pytest.approx(truth, abs=1e-6)
    assert est.method == "passive"


def test_clock_offsets_do_not_leak_into_bounds():
    # offsets of ~0.5 s against ~1e-7 s flights cost a few 1e-9 m to
    # float cancellation; anything beyond EPS_DIST would be a real leak
    truth = {(1, 2): 90.0, (9, 2): distance((30.0, 60.0), (90.0, 0.0))}
    runs = [run_scenario(oneway_scenario(n=3, seed=seed, observer_pos=(30.0, 60.0)))
            for seed in (3, 4)]
    assert runs[0].trace.offsets != runs[1].trace.offsets
    for r in runs:
        assert {(e.measurer, e.target) for e in r.estimates} == set(truth)
        for e in r.estimates:
            assert e.bound_m == pytest.approx(truth[(e.measurer, e.target)], abs=1e-6)


def test_mutual_bounds_both_directions():
    s = peer_scenario(Protocol.MUTUAL_INTERLEAVED, 2, n=4, radius=100.0)
    truth = distance(s.nodes[0].pos, s.nodes[1].pos)
    r = run_scenario(s)
    assert r.estimate_for(1, 2).bound_m == pytest.approx(truth, abs=1e-6)
    assert r.estimate_for(2, 1).bound_m == pytest.approx(truth, abs=1e-6)


def test_chain_bounds_match_geometry():
    s = peer_scenario(Protocol.ONE_TO_MANY, 4, n=2)
    pos = s.positions()
    r = run_scenario(s)
    for est in r.estimates:
        assert est.bound_m == pytest.approx(
            distance(pos[est.measurer], pos[est.target]), abs=1e-6)


def test_a_targeted_delay_on_the_1tom_initiator_moves_only_its_target_bound():
    """An initiator emission closes the previous responder's round, so a
    SelectiveDelay aimed at responder 3 delays only the emissions 3 measures:
    3 -> 1 reads c * delay / 2 long, every other bound the honest run's."""
    s = peer_scenario(Protocol.ONE_TO_MANY, n=2, seed=3,
                      positions=[(0.0, 0.0), (100.0, 0.0), (0.0, 100.0), (-100.0, 0.0)])
    delay = 1e-7
    honest = run_scenario(s)
    delayed = run_scenario(with_policy(s, 1, SelectiveDelay(delay_s=delay, target=3)))
    assert [(e.measurer, e.target) for e in delayed.estimates] == [
        (e.measurer, e.target) for e in honest.estimates]
    for est in delayed.estimates:
        truth = honest.estimate_for(est.measurer, est.target).bound_m
        assert truth == pytest.approx(100.0, abs=1e-6)
        late = s.config.c * delay / 2.0 if (est.measurer, est.target) == (3, 1) else 0.0
        assert est.bound_m == pytest.approx(truth + late, abs=1e-6)


@pytest.mark.parametrize("baseline", [run_sequential_pairwise, run_sequential_interleaved])
def test_sequential_baselines_bound_every_ordered_pair(baseline):
    """The criterion-2 square: each baseline bounds all 12 ordered pairs actively."""
    s = peer_scenario(
        Protocol.MULTI_PARTY_RING,
        positions=[(0.0, 0.0), (400.0, 0.0), (400.0, 400.0), (0.0, 400.0)], n=1, seed=22,
    )
    pos = s.positions()
    r = baseline(s)
    assert sorted((e.measurer, e.target) for e in r.estimates) == [
        (a, b) for a in sorted(pos) for b in sorted(pos) if a != b]
    for est in r.estimates:
        assert est.method == "active" and est.rounds_used == s.config.n
        assert est.bound_m == pytest.approx(
            distance(pos[est.measurer], pos[est.target]), abs=1e-6)


def test_ring_every_observer_agrees_with_geometry():
    s = regular_ring_scenario(5, 300.0, seed=2)
    pos = s.positions()
    r = run_scenario(s)
    assert r.detection is not None and r.detection.consistent
    for est in r.estimates:
        assert est.bound_m == pytest.approx(
            distance(pos[est.measurer], pos[est.target]), abs=1e-5)
    # per-observer solved edges exposed for audit
    assert set(r.ring_solutions) == {1, 2, 3, 4, 5}


@settings(max_examples=8, deadline=None)
@given(n_nodes=st.integers(4, 32), n_rounds=st.integers(1, 40),
       alpha=st.floats(0.0, 0.5), side_m=st.floats(0.0, 5.0).map(lambda e: 10.0 ** e),
       seed=st.integers(0, 2**16))
@example(n_nodes=12, n_rounds=40, alpha=0.0, side_m=400.0, seed=6)
@example(n_nodes=10, n_rounds=16, alpha=0.0, side_m=400.0, seed=2)
@example(n_nodes=16, n_rounds=4, alpha=0.01, side_m=1e5, seed=4)
@example(n_nodes=64, n_rounds=2, alpha=0.5, side_m=1.0, seed=1)
@example(n_nodes=128, n_rounds=2, alpha=0.0, side_m=100.0, seed=3)
def test_honest_ring_is_consistent(n_nodes, n_rounds, alpha, side_m, seed):
    """No honest ring accuses anyone, and every bound sits within its
    observer's rounding-error model of the straight-line distance."""
    s = regular_ring_scenario(n_nodes, side_m, seed, n_rounds=n_rounds, alpha=alpha)
    pos = s.positions()
    r = run_scenario(s)
    assert r.rejections == []
    assert r.detection.consistent and not r.detection.accused
    err = r.detection.bound_error_m
    for est in r.estimates:
        truth = distance(pos[est.measurer], pos[est.target])
        assert abs(est.bound_m - truth) <= err[est.measurer]


@pytest.mark.parametrize("n_nodes", [128, 256])
def test_large_honest_ring_stays_within_its_error_model(n_nodes):
    """At 128 and 256 members an honest ring still accuses and rejects
    nobody, and every bound and every solved flight time sits within
    its observer's rounding-error bound of the straight-line distance."""
    s = regular_ring_scenario(n_nodes, 100.0, seed=n_nodes, n_rounds=2)
    pos = s.positions()
    r = run_scenario(s)
    assert r.rejections == []
    assert r.detection.consistent and not r.detection.accused
    assert len(r.estimates) == n_nodes * (n_nodes - 1)
    err = r.detection.bound_error_m
    for est in r.estimates:
        assert abs(est.bound_m - distance(pos[est.measurer], pos[est.target])) <= err[est.measurer]
    c = s.config.c
    assert set(r.ring_solutions) == set(pos)
    for o, edges in r.ring_solutions.items():
        assert len(edges) == 2 * n_nodes - 3
        for (a, b), t in edges.items():
            assert abs(c * t - distance(pos[a], pos[b])) <= err[o]


def test_voided_ring_is_not_consistent():
    """A delayer that bends one round only leaves every observer's rounds
    irreconcilable: no bound is published, and the report says so
    without accusing the victims."""
    s = regular_ring_scenario(6, 100.0, 3, n_rounds=2)
    ring = run_scenario(s).ring_order
    # the node's sends 2 and 3 are its two sends of round 2
    r = run_scenario(with_policy(s, ring[2], SelectiveDelay(per_message=((2, 5e-8), (3, 5e-8)))))
    assert not r.estimates
    assert len(r.rejections) == 6
    assert not r.detection.consistent
    assert r.detection.unsolved == sorted(ring)
    assert r.detection.accused == frozenset()
    assert r.detection.verdicts == {p: "unsolved" for p in ring}
    assert r.detection.to_dict()["unsolved"] == sorted(ring)


def test_ring_order_is_seed_stable():
    a = run_scenario(regular_ring_scenario(4, 400.0, seed=21)).ring_order
    b = run_scenario(regular_ring_scenario(4, 400.0, seed=21)).ring_order
    assert a == b and set(a) == {1, 2, 3, 4}


# ---------------------------------------------------------------------------
# the estimates table


def rows(result):
    return [(e.measurer, e.target, e.method) for e in result.estimates]


def test_estimate_rows_keep_each_driver_shapes_order():
    """Rows iterate in the order each driver shape writes them."""
    # one-way: the active row, then the listeners in scenario order
    listener = NodeSpec(id=12, pos=(40.0, -50.0), role=Role.PASSIVE_VERIFIER)
    oneway = run_scenario(oneway_scenario(n=2, observer_pos=(30.0, 60.0),
                                          extra_nodes=[listener]))
    assert rows(oneway) == [(1, 2, "active"), (12, 2, "passive"), (9, 2, "passive")]
    # group: the folded pairs, sorted
    mpnv = run_scenario(mpnv_scenario(n=2, n_a=1, d_a=0.5, n_verifiers=3, m_provers=2))
    assert [r[:2] for r in rows(mpnv)] == [(v, p) for v in (1, 2, 3) for p in (4, 5)]
    # chain: each initiator's own bounds, then the responders' on it
    chain = run_scenario(ntom_scenario(Protocol.NTOM_ONETOMANY, 2, 3, n=2))
    assert [r[:2] for r in rows(chain)] == [
        (1, 3), (1, 4), (1, 5), (3, 1), (4, 1), (5, 1),
        (2, 3), (2, 4), (2, 5), (3, 2), (4, 2), (5, 2)]
    # ring: observer-major, both in id order
    ring = run_scenario(regular_ring_scenario(5, 300.0, seed=2))
    ids = range(1, 6)
    assert rows(ring) == [(o, x, "multiparty") for o in ids for x in ids if x != o]
    for r in (oneway, mpnv, chain, ring):
        assert len(r.estimates) == len(list(r.estimates))
        first = next(iter(r.estimates))
        assert r.estimate_for(first.measurer, first.target) == first


def test_estimate_for_raises_for_a_missing_pair():
    r = run_scenario(oneway_scenario(n=2))
    with pytest.raises(KeyError, match="no estimate 2 -> 1"):
        r.estimate_for(2, 1)


def test_ring_publishes_no_row_for_a_failed_observer(monkeypatch):
    """An observer whose solve fails drops out of the table and of
    ring_solutions; every other row is what the clean run published."""
    s = regular_ring_scenario(5, 300.0, seed=2)
    clean = run_scenario(s)
    solve = ring_driver.solve_tof

    def fail_node_3(system):
        return dataclasses.replace(solve(system), failures={3: SolveFailure("injected")})

    monkeypatch.setattr(ring_driver, "solve_tof", fail_node_3)
    r = run_scenario(s)
    assert r.rejections == ["node 3: flight-time solve failed: injected"]
    with pytest.raises(KeyError, match="no estimate 3 -> 1"):
        r.estimate_for(3, 1)
    assert list(r.estimates) == [e for e in clean.estimates if e.measurer != 3]
    assert len(r.estimates) == 4 * 4
    assert list(r.ring_solutions) == [1, 2, 4, 5]
    assert r.ring_solutions[4] == clean.ring_solutions[4]


def test_mpnv_passive_watchers_cover_all_pairs():
    s = mpnv_scenario(n=2, n_a=1, d_a=0.5, n_verifiers=3, m_provers=2)
    pos = s.positions()
    r = run_scenario(s)
    pairs = {(e.measurer, e.target) for e in r.estimates}
    # every verifier ends with a bound on every prover
    assert pairs == {(v, p) for v in (1, 2, 3) for p in (4, 5)}
    for est in r.estimates:
        assert est.bound_m == pytest.approx(
            distance(pos[est.measurer], pos[est.target]), abs=1e-5)


def test_ntom_multiparty_marks_intra_group_bounds_surplus():
    r = run_scenario(ntom_scenario(Protocol.NTOM_MULTIPARTY, 2, 2, n=1))
    surplus = {(e.measurer, e.target) for e in r.estimates if e.surplus}
    wanted = {(e.measurer, e.target) for e in r.estimates if not e.surplus}
    assert surplus == {(1, 2), (2, 1), (3, 4), (4, 3)}
    assert wanted == {(a, b) for a in (1, 2) for b in (3, 4)} | \
                     {(b, a) for a in (1, 2) for b in (3, 4)}


def test_ntom_passive_produces_only_cross_group_bounds():
    r = run_scenario(ntom_scenario(
        Protocol.NTOM_PASSIVE, 3, 3, n=2, n_a1=1, n_a2=2, d_1=0.5, d_2=1.0,
        n_p1=1, n_p2=0))
    g1, g2 = {1, 2, 3}, {4, 5, 6}
    pairs = {(e.measurer, e.target) for e in r.estimates}
    assert pairs == {(a, b) for a in g1 for b in g2} | {(b, a) for a in g1 for b in g2}
    pos = r.scenario.positions()
    for est in r.estimates:
        assert est.bound_m == pytest.approx(
            distance(pos[est.measurer], pos[est.target]), abs=1e-5)


def one_way_group_phases(scenario):
    """(watchers, eligible pool, provers, n_a, d_a) of each listening phase."""
    exp = scenario.experiment
    if scenario.protocol == Protocol.MPNV:
        def ids(*roles):
            return sorted(n.id for n in scenario.with_role(*roles))

        return [(ids(Role.ACTIVE_VERIFIER, Role.PASSIVE_VERIFIER), ids(Role.ACTIVE_VERIFIER),
                 ids(Role.PROVER), exp.n_a, exp.d_a)]
    g1, g2 = list(range(1, exp.N + 1)), list(range(exp.N + 1, exp.N + exp.M + 1))
    return [(g1, g1, g2, exp.n_a1, exp.d_1), (g2, g2, g1, exp.n_a2, exp.d_2)]


@st.composite
def one_way_group_scenarios(draw):
    n = draw(st.integers(1, 4))
    rounds = st.integers(1, n)
    fractions = st.sampled_from([0.1, 0.25, 0.5, 0.6, 0.75, 1.0])
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        n_v, m_p = draw(st.integers(1, 6)), draw(st.integers(1, 5))
        s = mpnv_scenario(n=n, n_a=draw(rounds), d_a=draw(fractions), n_verifiers=n_v,
                          m_provers=m_p, seed=seed)
        # some verifiers only listen, so the eligible pool is smaller than the watchers
        listening = draw(st.sets(st.integers(1, n_v), max_size=n_v - 1))
        return dataclasses.replace(s, nodes=tuple(
            dataclasses.replace(v, role=Role.PASSIVE_VERIFIER) if v.id in listening else v
            for v in s.nodes))
    return ntom_scenario(Protocol.NTOM_PASSIVE, draw(st.integers(1, 5)), draw(st.integers(1, 5)),
                         n=n, seed=seed, n_a1=draw(rounds), n_a2=draw(rounds),
                         d_1=draw(fractions), d_2=draw(fractions))


@settings(max_examples=60, deadline=None)
@given(scenario=one_way_group_scenarios())
def test_group_estimates_compose_every_source(scenario):
    """Each (watcher, prover) estimate counts the rounds of every source.

    A phase's A active verifiers come from its eligible pool.  A watcher
    bounds each prover from its own n_a active rounds, if it is one of
    them, plus the rounds it framed in each other active verifier's
    exchange: n_a with the closing emission, n_a - 1 without it.
    """
    phases = one_way_group_phases(scenario)
    if any(active_verifier_count(d_a, len(w)) > len(pool) for w, pool, _, _, d_a in phases):
        with pytest.raises(ScenarioInvalid):
            run_scenario(scenario)
        return
    r = run_scenario(scenario)
    pos = scenario.positions()
    est = {(e.measurer, e.target): e for e in r.estimates}
    assert len(est) == len(r.estimates)
    assert set(est) == {(w, p) for watchers, _, provers, _, _ in phases
                        for w in watchers for p in provers}
    for watchers, pool, provers, n_a, d_a in phases:
        a = active_verifier_count(d_a, len(watchers))
        active = {w for w in watchers if est[(w, provers[0])].method == "active"}
        assert len(active) == a and active <= set(pool)
        closing = not (n_a == scenario.config.n and a == len(watchers))
        framed = n_a if closing else n_a - 1
        for w in watchers:
            k = int(w in active)
            for p in provers:
                e = est[(w, p)]
                assert e.method == ("active" if k else "passive")
                assert e.rounds_used == n_a * k + framed * (a - k)
                assert e.bound_m == pytest.approx(distance(pos[w], pos[p]), abs=1e-5)


def test_identical_seed_identical_run():
    s = mpnv_scenario(n=2, n_a=1, d_a=0.5, n_verifiers=3, m_provers=2)
    assert run_scenario(s).trace.to_jsonl() == run_scenario(s).trace.to_jsonl()


# ---------------------------------------------------------------------------
# adversaries end to end


def test_delaying_prover_inflates_bound():
    delay = 2e-7
    r = run_scenario(oneway_scenario(n=2, prover_policy=SelectiveDelay(delay_s=delay)))
    assert r.estimate_for(1, 2).bound_m == pytest.approx(90.0 + C * delay / 2.0, abs=1e-6)


def test_delay_cannot_shorten():
    honest = run_scenario(oneway_scenario(n=2)).estimate_for(1, 2).bound_m
    for delay in (1e-9, 5e-8, 3e-7):
        r = run_scenario(oneway_scenario(n=2, prover_policy=SelectiveDelay(delay_s=delay)))
        assert r.estimate_for(1, 2).bound_m >= honest - 1e-6


def test_relay_pays_the_detour():
    relay = NodeSpec(id=3, pos=(50.0, 40.0), role=Role.PROVER, policy=Relay(victim=2))
    s = oneway_scenario(p_pos=(200.0, 0.0), n=3, extra_nodes=[relay])
    r = run_scenario(s)
    pos = s.positions()
    detour = distance(pos[1], pos[3]) + distance(pos[3], pos[2])
    # the verifier believes it measured the front, and the bound carries
    # the full two-leg path, so the victim's distance is never understated
    est = r.estimate_for(1, 3)
    assert est.bound_m == pytest.approx(detour, abs=1e-6)
    assert est.bound_m > distance(pos[1], pos[2])


def test_guess_ahead_usually_caught():
    s = oneway_scenario(n=2, seed=0, prover_policy=GuessAhead(p_rounds=2, advance_s=2e-7))
    with pytest.raises(ResponseMismatch):
        run_scenario(s)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(min_value=1, max_value=8), data=st.data(),
       bit_len=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_guess_ahead_fails_exactly_on_a_wrong_guess(n, data, bit_len, seed):
    """A guessing run is refused iff a guessed value differs from its challenge.

    The challenges and the guesses are read off the channel: a challenge
    payload carries c_i, and a response carries the guess XOR the
    prover's committed nonce i.
    """
    p_rounds = data.draw(st.integers(min_value=0, max_value=n), label="p_rounds")
    s = oneway_scenario(n=n, seed=seed, bit_len=bit_len,
                        prover_policy=GuessAhead(p_rounds=p_rounds, advance_s=2e-8))
    with pytest.MonkeyPatch.context() as mp:
        contexts = ledgers(mp)
        try:
            run_scenario(s)
            refused = None
        except ResponseMismatch as exc:
            refused = exc
    ctx, = contexts
    sent = {(em.kind, em.round_index): int(em.payload.split(b"|")[2])
            for em in ctx.channel.trace.emissions if em.phase == "rapid"}
    wrong = [i for i in range(1, p_rounds + 1)
             if sent["response", i] ^ ctx.nonces[2][i - 1] != sent["challenge", i]]
    if wrong:
        assert refused is not None and refused.round_index == wrong[0]
    else:
        assert refused is None


@pytest.mark.parametrize("observer_pos", [None, (30.0, 60.0)])
def test_impossible_round_is_refused_before_a_wrong_guess(observer_pos):
    """Active pricing runs before the replay: a 1 us head start at 90 m is
    an impossible round trip, reported even though a guess is also wrong."""
    s = oneway_scenario(n=3, seed=0, observer_pos=observer_pos,
                        prover_policy=GuessAhead(p_rounds=3, advance_s=1e-6))
    with pytest.raises(NegativeTimeOfFlight) as got:
        run_scenario(s)
    assert str(got.value) == "round trip -3.995846286075633e-07 s shorter than processing 0.0 s"


def test_group_prices_active_rounds_before_passive_ones(monkeypatch):
    """A guessing prover's replies leave 10 us early: every row's active rounds and the
    rounds its listeners overhear are impossible, and the first row's active error wins."""
    priced = []
    monkeypatch.setattr(pairwise_driver, "passive_bounds",
                        lambda *args: priced.append(args) or passive_bounds(*args))
    s = with_policy(mpnv_scenario(3, 2, 0.5, 4, 3, seed=11), 6, GuessAhead(2, 1e-5))
    with pytest.raises(NegativeTimeOfFlight) as got:
        run_scenario(s)
    assert str(got.value).startswith("round trip")
    assert priced == []


GROUP_GOLDEN = [p.stem for p in sorted((Path(__file__).parent / "golden").glob("*.json"))
                if p.name != "digests.json"
                and load_scenario(str(p)).protocol in (Protocol.MPNV, Protocol.NTOM_PASSIVE)]


def folded_rows(monkeypatch, scenario, signed_zero=False):
    """Run scenario, recording each verifier row as the group driver priced it.

    With signed_zero every active bound reads 0.0 and every passive one
    -0.0, so a pair that both priced holds equal bounds from two rows.
    """
    rows = []

    def priced(ctx, phase, watchers):
        candidates, counts = pairwise_driver.price_phase(ctx, phase, watchers)
        for r, row in enumerate(phase):
            own = watchers.index(row.verifier)
            framed = row.blocks[0].shape[1] - 1 if len(watchers) > 1 else 0
            others = [w for w in watchers if w != row.verifier] if framed else []
            heard = [watchers.index(w) for w in others]
            if signed_zero:
                candidates[r, own] = 0.0
                candidates[r, heard] = -0.0
            rounds = row.blocks[1].shape[1]
            active = {(row.verifier, p): [b, rounds]
                      for p, b in zip(row.responders, candidates[r, own].tolist())}
            rows.append((row.verifier, row.responders, active, others,
                         candidates[r, heard].T.tolist(), framed))
        return candidates, counts

    monkeypatch.setattr(group, "price_phase", priced)
    return run_scenario(scenario), rows


@pytest.mark.parametrize("signed_zero", [False, True])
@pytest.mark.parametrize("name", GROUP_GOLDEN)
def test_group_fold_matches_the_dict_fold(monkeypatch, name, signed_zero):
    """The bound and rounds matrices give the dict fold's estimates bit for bit.

    Every bound's repr (so -0.0 apart from 0.0), then rounds, method and
    row order, on every MPNV and NtoM-passive golden scenario; with
    signed_zero each active verifier also holds equal bounds from two
    rows, and the first row's must win.
    """
    scenario = load_scenario(str(Path(__file__).parent / "golden" / f"{name}.json"))
    result, rows = folded_rows(monkeypatch, scenario, signed_zero)
    want = group_oracle.estimate_rows(group_oracle.fold_rows(rows), {v for v, *_ in rows})
    est = result.estimates
    assert [repr(b) for b in est.bound_m] == [repr(b) for _, _, b, _, _ in want]
    assert [type(r) for r in est.rounds_used] == [int] * len(want)
    assert list(zip(est.measurer, est.target, est.method, est.rounds_used)) == [
        (w, p, method, rounds) for w, p, _, method, rounds in want]
    assert est.verified_auth == [scenario.config.auth_enabled] * len(want)
    assert est.surplus == [False] * len(want)
    if signed_zero and len(rows) > 1:
        assert {repr(b) for b in est.bound_m} == {"0.0", "-0.0"}


def test_guess_ahead_lucky_seed_shortens_bound():
    """A fraudster that wins its coin flips beats the true distance; the
    per-run risk assessment is what bounds how often that happens."""
    s = oneway_scenario(n=2, seed=3, prover_policy=GuessAhead(p_rounds=2, advance_s=2e-7))
    r = run_scenario(s)
    bound = r.estimate_for(1, 2).bound_m
    assert bound == pytest.approx(90.0 - C * 2e-7 / 2.0, abs=1e-6)
    assert bound < 90.0


@pytest.mark.parametrize("path", ["direct", "relay"])
def test_early_challenge_shrinks_passive_bounds_only(path):
    advance = 2e-7
    if path == "direct":
        s = oneway_scenario(n=4, seed=6, observer_pos=(30.0, 60.0))
        partner = 2
    else:
        front = NodeSpec(id=3, pos=(50.0, 40.0), role=Role.PROVER, policy=Relay(victim=2))
        s = oneway_scenario(p_pos=(200.0, 0.0), n=4, seed=6, observer_pos=(30.0, 60.0),
                            extra_nodes=[front])
        partner = 3
    honest = run_scenario(s)
    rigged = run_scenario(with_policy(s, 1, EarlyChallenge(advance_s=advance, pr_ch=1.0)))
    h = honest.estimate_for(9, partner).bound_m
    a = rigged.estimate_for(9, partner).bound_m
    assert a == pytest.approx(h - C * advance, abs=1e-6)
    # the verifier's own active bound is untouched
    assert rigged.estimate_for(1, partner).bound_m == pytest.approx(
        honest.estimate_for(1, partner).bound_m, abs=1e-6)


def test_fake_baseline_shifts_passive_bound_by_the_lie():
    s = oneway_scenario(n=4, seed=6, observer_pos=(30.0, 60.0))
    d_vo = distance((0.0, 0.0), (30.0, 60.0))
    rigged = run_scenario(with_policy(
        s, 1, FakeLocationReport(claimed_distance_m=d_vo + 8.0)))
    honest = run_scenario(s)
    assert rigged.estimate_for(9, 2).bound_m == pytest.approx(
        honest.estimate_for(9, 2).bound_m + 8.0, abs=1e-6)


coord = st.floats(min_value=-300.0, max_value=300.0)
point = st.tuples(coord, coord)
verifier_policies = st.one_of(
    st.just(Honest()),
    st.builds(FakeLocationReport, claimed_pos=point),
    st.builds(FakeLocationReport, claimed_distance_m=st.floats(min_value=0.0, max_value=500.0)),
    st.builds(EarlyChallenge,
              advance_s=st.one_of(st.sampled_from([0.0, 2e-8, 1e-7, 1e-6]),
                                  st.floats(min_value=0.0, max_value=1e-6)),
              pr_ch=st.sampled_from([0.5, 1.0])),
)


def priced_one_by_one(ctx, row, e, replies, watchers):
    """Per-watcher scalar pricing of exchange e, each stamp checked against the trace.

    replies holds the seqs of the row's replies to its verifier, exchange by exchange.
    """
    chan = ctx.channel
    trace = chan.trace
    cfg = ctx.scenario.config
    exchanges = len(row.responders)
    sends, sent = len(row.schedule) // exchanges, len(row.stamps) // exchanges
    one = dataclasses.replace(row, responders=row.responders[e:e + 1],
                              schedule=row.schedule[e * sends:(e + 1) * sends],
                              stamps=row.stamps[e * sent:(e + 1) * sent])
    schedule = row.blocks[0]
    out = {}
    for w in watchers:
        if w == row.verifier:
            continue
        t1, t2, t3, base = passive_observations(ctx, one, [w])
        base_tof = chan.tof(row.verifier, w) * cfg.c / cfg.c
        stamps = list(zip(t1[0, :, 0].tolist(), t2[0, :, 0].tolist(), t3[0, :, 0].tolist()))
        for i, (a, b, d) in enumerate(stamps):
            assert a == schedule[e, i] + base_tof + trace.offsets[w]
            assert b == trace.arrival_true(replies[e][i], w) + trace.offsets[w]
            assert d == schedule[e, i + 1] + base_tof + trace.offsets[w]
        if stamps:
            out[w] = (passive_oracle.observed_bound(stamps, cfg.alpha, float(base[0]), cfg.c),
                      len(stamps))
    return out


def verifier_row(places, provers, relay, n, alpha, closing, policy, seed):
    """One verifier's row, one exchange per prover; its replies' seqs; and its watchers.

    places[0] is verifier 1, then come provers 20, 21, ..., a front 30
    relaying to prover 20 when relay is set, and passive watchers 10,
    11, ... on whatever places are left.  A relayed exchange runs after
    the others and is stacked onto their row.
    """
    v_pos, *rest = places
    relay = relay and len(rest) >= 3
    m = max(1, min(provers, len(rest) - 1 - relay))
    prover_ids = [20 + k for k in range(m)]
    nodes = [NodeSpec(id=1, pos=v_pos, role=Role.ACTIVE_VERIFIER, policy=policy)]
    nodes += [NodeSpec(id=p, pos=rest.pop(0), role=Role.PROVER) for p in prover_ids]
    if relay:
        # driven by hand below: MPNV refuses a Relay policy
        nodes.append(NodeSpec(id=30, pos=rest.pop(0), role=Role.PROVER))
    watchers = [10 + k for k in range(len(rest))]
    nodes += [NodeSpec(id=w, pos=pos, role=Role.PASSIVE_VERIFIER)
              for w, pos in zip(watchers, rest)]
    ctx = start_run(Scenario(
        nodes=tuple(nodes), protocol=Protocol.MPNV, config=ProtocolConfig(n=n, alpha=alpha),
        # d_a selects exactly the one ActiveVerifier
        experiment=ExperimentParams(n_a=n, d_a=1.0 / (1 + len(watchers))), rng_seed=seed,
    ))
    for p in prover_ids:
        nonces = ctx.nonces[p] = tuple(ctx.rng.getrandbits(1) for _ in range(n))
    row, = run_exchange(ctx, [1], prover_ids, n, ctx.slot_s, closing)
    if relay:
        ctx.nonces[30] = nonces
        ctx.policies[30] = Relay(victim=20)
        relayed, = run_exchange(ctx, [1], [30], n, row.t_end + ctx.slot_s, closing)
        row = Row(1, row.responders + relayed.responders, row.schedule + relayed.schedule,
                  row.stamps + relayed.stamps, relayed.t_end)
    # each responder's response rows, in order: a prover's own, then any it sent as a victim
    responses = {}
    trace = ctx.channel.trace
    for seq, (sender, kind) in enumerate(zip(trace.sender, trace.kind)):
        if kind == "response":
            responses.setdefault(sender, []).append(seq)
    replies = [responses[p][:n] for p in row.responders]
    return ctx, row, replies, watchers


@settings(max_examples=150, deadline=None)
@given(places=st.lists(point, min_size=4, max_size=10, unique=True),
       provers=st.integers(min_value=1, max_value=4), relay=st.booleans(),
       n=st.integers(min_value=1, max_value=6),
       alpha=st.floats(min_value=0.0, max_value=1e-6), closing=st.booleans(),
       policy=verifier_policies, seed=st.integers(min_value=0, max_value=2**16))
@example(places=[(0.0, 0.0), (90.0, 0.0), (30.0, 60.0), (-40.0, 10.0)], provers=1,
         relay=False, n=4, alpha=0.0, closing=True,
         policy=EarlyChallenge(advance_s=1e-6, pr_ch=1.0), seed=6)
@example(places=[(0.0, 0.0), (0.0, 1.0), (0.0, 2.0), (0.0, 32.0)], provers=1, relay=False,
         n=3, alpha=0.0, closing=False, policy=EarlyChallenge(advance_s=2e-08, pr_ch=0.5),
         seed=0)
# one watcher at a time, watcher 10's bad round 4 comes before watcher 11's bad round 3
@example(places=[(5.0, 6.0), (4.0, 2.0), (-4.0, -1.0), (-6.0, 2.0), (5.0, -2.0), (-3.0, -4.0)],
         provers=2, relay=False, n=4, alpha=0.0, closing=True,
         policy=EarlyChallenge(advance_s=1e-6, pr_ch=0.5), seed=14)
# one exchange: watcher 10's only bad round 3 comes before watcher 11's bad round 2,
# which pricing the block in round order would name first
@example(places=[(3.0, 1.0), (-5.0, -4.0), (4.0, 1.0), (2.0, 2.0)], provers=1, relay=False,
         n=6, alpha=0.0, closing=False, policy=EarlyChallenge(advance_s=1e-6, pr_ch=0.5),
         seed=34)
# one exchange under a claimed distance, 8 m longer than verifier 1 to watcher 10
@example(places=[(0.0, 0.0), (90.0, 0.0), (30.0, 60.0), (-40.0, 10.0)], provers=1,
         relay=False, n=4, alpha=0.0, closing=True,
         policy=FakeLocationReport(claimed_distance_m=75.08203932499369), seed=6)
def test_passive_bounds_match_per_watcher_pricing(
    places, provers, relay, n, alpha, closing, policy, seed
):
    """A verifier's row priced by passive_bounds gives each watcher the oracle's bound, and
    so does the row's array form, passive_observations scored by observed_bound.

    Bounds and round counts match passive_oracle pricing each exchange
    in turn, one watcher and one round at a time, bit for bit; when that
    raises, passive_bounds raises the same exception with the same
    message, and the array form raises too.
    """
    ctx, row, replies, watchers = verifier_row(places, provers, relay, n, alpha, closing, policy,
                                               seed)
    watchers = [1] + watchers  # the exchange's own verifier is never priced
    others = watchers[1:] if len(row.schedule) > len(row.responders) else []
    cfg = ctx.scenario.config
    try:
        want = [priced_one_by_one(ctx, row, e, replies, watchers)
                for e in range(len(row.responders))]
    except NegativeTimeOfFlight as exc:
        with pytest.raises(NegativeTimeOfFlight) as got:
            passive_bounds(ctx, row, watchers)
        assert str(got.value) == str(exc)
        with pytest.raises(NegativeTimeOfFlight):
            pairwise_driver.observed_bound(cfg, *passive_observations(ctx, row, others))
        return
    assert passive_bounds(ctx, row, watchers)[0] == others
    best, rounds = passive_bounds(ctx, row, watchers)[1:]
    assert [[(w, b.hex(), rounds) for w, b in zip(others, g)] for g in best.tolist()] == [
        [(w, b.hex(), k) for w, (b, k) in g.items()] for g in want
    ]
    if others:
        block = pairwise_driver.observed_bound(cfg, *passive_observations(ctx, row, others))
        assert [b.hex() for b in block.ravel().tolist()] == [
            b.hex() for b in best.ravel().tolist()]


def gapped_row(ctx, provers, gaps):
    """A hand-built row of ctx's verifier 1: one exchange per prover, honest replies.

    gaps[e][i] is the published gap after exchange e's round i, in units
    of alpha, or None for the honest gap: the round trip plus 2 alpha.
    """
    alpha, chan = ctx.scenario.config.alpha, ctx.channel
    schedule, stamps, t = [], [], ctx.slot_s
    for p, exchange in zip(provers, gaps):
        flight = chan.tof(1, p)
        schedule.append(t)
        for gap in exchange:
            stamps += [t, t + flight + alpha]
            t += 2 * (flight + alpha) if gap is None else gap * alpha
            schedule.append(t)
        stamps.append(t)  # the closing
        t += ctx.slot_s
    return Row(1, list(provers), schedule, stamps, t)


@pytest.mark.parametrize("gaps", [[[None, 0.5, None]], [[None, 0.5], [0.25, None]]],
                         ids=["one exchange", "two exchanges"])
def test_a_schedule_gap_below_two_alphas_is_refused(gaps):
    """A published gap below 2 alpha makes an overheard round trip impossible.

    No driver publishes one, since the verifier adds its advance back;
    so the rows are built by hand.  passive_bounds, exchange by
    exchange, and a phase of the one row priced as a whole raise
    passive_oracle's error, one watcher and one round at a time.
    """
    places = [(0.0, 0.0), (90.0, 0.0), (-60.0, 30.0), (30.0, 60.0), (-40.0, 10.0)]
    ctx, _, _, watchers = verifier_row(places, 2, False, 2, 1e-7, True, Honest(), 0)
    row = gapped_row(ctx, [20, 21][:len(gaps)], gaps)
    cfg, chan, offsets = ctx.scenario.config, ctx.channel, ctx.channel.trace.offsets
    sends, sent = len(row.schedule) // len(gaps), len(row.stamps) // len(gaps)
    with pytest.raises(NegativeTimeOfFlight) as want:
        for e, p in enumerate(row.responders):
            schedule = row.schedule[e * sends:(e + 1) * sends]
            replies = row.stamps[e * sent + 1:(e + 1) * sent:2]
            for w in watchers:
                dist = chan.tof(1, w) * cfg.c
                heard = [(t + dist / cfg.c) + offsets[w] for t in schedule]
                stamps = [(t1, (reply + chan.tof(p, w)) + offsets[w], t3)
                          for t1, reply, t3 in zip(heard, replies, heard[1:])]
                passive_oracle.observed_bound(stamps, cfg.alpha, dist, cfg.c)
    assert str(want.value).startswith("overheard round trip")
    with pytest.raises(NegativeTimeOfFlight) as got:
        passive_bounds(ctx, row, [1] + watchers)
    assert str(got.value) == str(want.value)
    with pytest.raises(NegativeTimeOfFlight) as got:
        pairwise_driver.price_phase(ctx, [row], [1] + watchers)
    assert str(got.value) == str(want.value)


def outcome(scenario):
    """A run's estimate rows, each bound as .hex(), or its NegativeTimeOfFlight text."""
    try:
        est = run_scenario(scenario).estimates
    except NegativeTimeOfFlight as exc:
        return str(exc)
    return [(m, t, b.hex(), method, k, auth) for m, t, b, method, k, auth, _ in est]


def test_a_one_exchange_row_builds_no_block(monkeypatch):
    """A one-way row, one exchange, is priced in floats: no Row.blocks, no price_phase, to
    the same bits.

    A group phase of one prover is a one-exchange row too, but price_phase
    prices it as a block on purpose, so no MPNV run is here."""
    listener = NodeSpec(id=8, pos=(-40.0, 10.0), role=Role.PASSIVE_VERIFIER)
    oneway = oneway_scenario(n=4, seed=6, observer_pos=(30.0, 60.0), extra_nodes=[listener])
    cases = [oneway, with_policy(oneway, 1, EarlyChallenge(advance_s=1e-6, pr_ch=1.0))]
    want = [outcome(s) for s in cases]
    assert [type(w) for w in want] == [list, str]

    def refuse(*args):
        raise AssertionError("a one-way row was priced as an array")

    monkeypatch.setattr(pairwise_driver.Row, "blocks", property(refuse))
    monkeypatch.setattr(pairwise_driver, "price_phase", refuse)
    assert [outcome(s) for s in cases] == want


def with_config(scenario, **changes):
    return dataclasses.replace(scenario, config=dataclasses.replace(scenario.config, **changes))


def two_party(protocol):
    if protocol == Protocol.ONE_WAY:
        return oneway_scenario(n=2)
    return peer_scenario(Protocol.MUTUAL_INTERLEAVED, 2, n=2, radius=100.0)


@pytest.mark.parametrize("protocol", [Protocol.ONE_WAY, Protocol.MUTUAL_INTERLEAVED])
def test_uncertified_node_cannot_sign(protocol):
    s = with_config(two_party(protocol), auth_enabled=True)
    s = with_policy(s, 2, NodeInsertion(), has_cert=False)
    with pytest.raises(AuthFailure):
        run_scenario(s)


# every protocol with auth on, and the committing node a NodeInsertion would replace
AUTH_CASES = {
    Protocol.ONE_WAY: (oneway_scenario(n=2, observer_pos=(30.0, 60.0)), 2),
    Protocol.MUTUAL_INTERLEAVED: (peer_scenario(Protocol.MUTUAL_INTERLEAVED, 2, n=2), 2),
    Protocol.ONE_TO_MANY: (peer_scenario(Protocol.ONE_TO_MANY, 4, n=2), 3),
    Protocol.MULTI_PARTY_RING: (regular_ring_scenario(4, 400.0, seed=21), 3),
    Protocol.MPNV: (mpnv_scenario(n=2, n_a=1, d_a=0.5, n_verifiers=3, m_provers=2), 4),
    Protocol.NTOM_PASSIVE: (ntom_scenario(
        Protocol.NTOM_PASSIVE, 3, 3, n=2, n_a1=1, n_a2=2, d_1=0.5, d_2=1.0,
        n_p1=1, n_p2=0), 5),
    Protocol.NTOM_MULTIPARTY: (ntom_scenario(Protocol.NTOM_MULTIPARTY, 2, 2, n=1), 3),
    Protocol.NTOM_ONETOMANY: (ntom_scenario(Protocol.NTOM_ONETOMANY, 2, 3, n=2), 4),
}
ACCUSING = (Protocol.MULTI_PARTY_RING, Protocol.NTOM_MULTIPARTY)


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
def test_auth_ok_means_every_required_signature_verified(protocol):
    scenario, committer = AUTH_CASES[protocol]
    assert scenario.protocol == protocol
    s = with_config(scenario, auth_enabled=True)
    r = run_scenario(s)
    assert r.estimates and all(e.verified_auth for e in r.estimates)

    inserted = with_policy(s, committer, NodeInsertion(), has_cert=False)
    if protocol not in ACCUSING:
        with pytest.raises(AuthFailure):
            run_scenario(inserted)
        return
    r = run_scenario(inserted)
    assert r.detection.accused == {committer}
    for e in r.estimates:
        assert e.verified_auth == (committer not in (e.measurer, e.target))


@pytest.mark.parametrize("protocol", [p for p in Protocol if p not in ACCUSING],
                         ids=lambda p: p.value)
def test_a_rejected_opening_signature_stops_the_run(monkeypatch, protocol):
    """A registry whose verify refuses every signature stops the run at the first opening."""
    monkeypatch.setattr(KeyRegistry, "verify", lambda self, node_id, message, signature: False)
    scenario = with_config(AUTH_CASES[protocol][0], auth_enabled=True)
    first = min(n.id for n in scenario.nodes if n.role in (Role.PROVER, Role.PEER))
    with pytest.raises(AuthFailure) as got:
        run_scenario(scenario)
    assert str(got.value) == f"opening signature of node {first} rejected"


# every driver and both sequential baselines, each on a scenario it accepts
FRAMING_CASES = [(p.value, run_scenario, AUTH_CASES[p][0]) for p in Protocol] + [
    (baseline.__name__, baseline, peer_scenario(Protocol.MULTI_PARTY_RING, 4, n=1, seed=22))
    for baseline in (run_sequential_pairwise, run_sequential_interleaved)
]


@pytest.mark.parametrize("driver, scenario", [case[1:] for case in FRAMING_CASES],
                         ids=[case[0] for case in FRAMING_CASES])
def test_each_committing_party_sends_one_commit_and_one_open(driver, scenario):
    """commit_phase and open_phase are the whole framing of every run."""
    r = driver(with_config(scenario, auth_enabled=True))
    committers = sorted(n.id for n in scenario.nodes if n.role in (Role.PROVER, Role.PEER))
    for phase, kind in (("pre", "commit"), ("post", "open")):
        sent = sorted((e.kind, e.sender) for e in r.trace.emissions if e.phase == phase)
        assert sent == [(kind, p) for p in committers]
    assert r.estimates and all(e.verified_auth for e in r.estimates)


def test_ring_lone_asymmetric_delayer_detected():
    r = run_ring_with_delays(n_nodes=4, delays={2: (5e-8, 0.0)}, seed=7)
    assert not r.detection.consistent
    worst = max(m.discrepancy_m for m in r.detection.mismatches)
    # the two views of the shared edge split by the full c * delta
    assert worst == pytest.approx(C * 5e-8, abs=1e-3)


def test_ring_without_delays_is_the_plain_polygon_run():
    """No delays run the polygon ring as it is; a position off the ring is refused."""
    r = run_ring_with_delays(n_nodes=4, delays={}, seed=7)
    plain = ring_driver.run_multiparty_gdb(regular_ring_scenario(4, 400.0, 7, 1))
    assert (r.trace, r.estimates) == (plain.trace, plain.estimates)
    with pytest.raises(ValueError, match=r"^ring position 4 outside 0\.\.3$"):
        run_ring_with_delays(n_nodes=4, delays={4: (1e-8, 0.0)})


def test_ring_symmetric_delayer_cancels_in_the_solve():
    """Equal delay on both of a node's sends shifts every observer's
    estimate of the shared edges identically, so no cross-check fires."""
    r = run_ring_with_delays(n_nodes=4, delays={2: (5e-8, 5e-8)}, seed=7)
    assert r.detection.consistent


def slip_on_answer(monkeypatch, nth):
    """Flip the nth rapid value a run computes, counting from 1."""
    calls = []
    honest = base.response_bits

    def slip(heard, nonce, bit_len):
        calls.append(heard)
        value = honest(heard, nonce, bit_len)
        return value ^ 1 if len(calls) == nth else value

    monkeypatch.setattr(base, "response_bits", slip)


def test_ring_replay_names_the_message_off_the_chain(monkeypatch):
    """A value that is not heard XOR nonce fails the replay after the open."""
    scenario = regular_ring_scenario(4, 100.0, seed=7, n_rounds=2)
    ring = run_scenario(scenario).ring_order
    slip_on_answer(monkeypatch, 11)
    # a 4-ring sends 8 messages a round, senders p1 p2 p3 p4 p1 p4 p3 p2, so
    # message 11 is round 2, position 3: p3's third send, on its nonce 2
    with pytest.raises(
        ResponseMismatch, match=rf"^node {ring[2]}'s answer on nonce 2 in round 2 "
    ) as exc:
        run_scenario(scenario)
    assert exc.value.round_index == 2


@pytest.mark.parametrize("scenario, estimates, initiator, nth", [
    # 1 -> {2, 3, 4}: message 3 is initiator 1's second chain value
    (peer_scenario(Protocol.ONE_TO_MANY, 4, n=2, seed=5), 6, 1, 3),
    # {1, 2} -> {3, 4}: chain 1 computes 2 * 3 + 2 * 2 values, so
    # message 13 is initiator 2's second chain value
    (ntom_scenario(Protocol.NTOM_ONETOMANY, 2, 2, n=2, seed=5), 8, 2, 13),
], ids=["one_to_many", "ntom_onetomany"])
def test_chain_replay_checks_the_initiator(monkeypatch, scenario, estimates, initiator, nth):
    """An initiator's chain value off its committed nonce fails the replay."""
    assert len(run_scenario(scenario).estimates) == estimates
    slip_on_answer(monkeypatch, nth)
    with pytest.raises(
        ResponseMismatch, match=rf"^node {initiator}'s answer on nonce 1 in round 1 "
    ) as exc:
        run_scenario(scenario)
    assert exc.value.round_index == 1


def ledgers(monkeypatch):
    """Every RunContext a run starts, in order, captured from start_run."""
    contexts = []

    def spy(scenario):
        contexts.append(start_run(scenario))
        return contexts[-1]

    for module in (pairwise_driver, group, ring_driver, onetomany_driver):
        monkeypatch.setattr(module, "start_run", spy)
    return contexts


def answered_once(ctx):
    """Every committed nonce answered once, a row's answer block spelled out answer by answer."""
    return sorted((node, k) for node, k, *_ in exchange_oracle.answer_log(ctx.answers)) == sorted(
        (node, k) for node, ns in ctx.nonces.items() for k in range(len(ns)))


@pytest.mark.parametrize(
    "name", sorted(p.stem for p in GOLDEN.glob("*.json") if p.stem != "digests"))
def test_every_committed_nonce_is_answered_once(name, monkeypatch):
    contexts = ledgers(monkeypatch)
    run_scenario(load_scenario(str(GOLDEN / f"{name}.json")))
    assert len(contexts) == 1 and contexts[0].answers
    assert answered_once(contexts[0])


@pytest.mark.parametrize("baseline", [run_sequential_pairwise, run_sequential_interleaved])
@pytest.mark.parametrize("count, n", [(4, 1), (5, 2), (6, 1)])
def test_sequential_baselines_answer_every_committed_nonce_once(
    baseline, count, n, monkeypatch
):
    contexts = ledgers(monkeypatch)
    baseline(peer_scenario(Protocol.MULTI_PARTY_RING, count, n=n, seed=22))
    assert len(contexts) == 1 and answered_once(contexts[0])


# ---------------------------------------------------------------------------
# the timing hook



@pytest.mark.parametrize(
    "name", sorted(p.stem for p in GOLDEN.glob("*.json") if p.stem != "digests"))
def test_every_rapid_message_passes_the_timing_hook_once(name, monkeypatch):
    """Every rapid send of a node with a timing policy passes apply_policy
    once, indexed by its place among that node's rapid sends; apply_policy
    is the identity for every other policy, so their sends skip it."""
    calls = []
    hook = base.apply_policy

    def counted(*args):
        calls.append(args)
        return hook(*args)

    monkeypatch.setattr(base, "apply_policy", counted)
    contexts = ledgers(monkeypatch)
    r = run_scenario(load_scenario(str(GOLDEN / f"{name}.json")))
    ctx, = contexts
    timing = {nid for nid, policy in ctx.policies.items()
              if isinstance(policy, (SelectiveDelay, EarlyChallenge))}
    rapid = [em.sender for em in r.trace.emissions if em.phase == "rapid"]
    assert sorted(args[1] for args in calls) == sorted(n for n in rapid if n in timing)
    for node in timing:
        indices = [args[2] for args in calls if args[1] == node]
        assert indices == list(range(len(indices)))


def test_emit_holds_a_send_back_to_the_last_one():
    ctx = start_run(oneway_scenario())
    t_send = ctx.channel.trace.t_send

    def sent(node, t):
        return t_send[ctx.emit(node, t, "challenge", b"", 1)]

    assert sent(1, 0.5) == 0.5
    assert sent(1, 1.0) == 1.0
    assert sent(1, 0.5) == 1.0
    assert sent(1, 1.0 - 1e-16) == 1.0 - 1e-16  # inside the float slack
    assert sent(2, 0.5) == 0.5
    assert ctx.channel.last_send == {1: 1.0, 2: 0.5}


def test_held_guess_leaves_one_advance_before_the_answer_it_waited_for():
    """An early challenge reaches the guesser before its last answer left;
    the in-order hold comes first, then the guess's advance."""
    s = oneway_scenario(v_pos=(0.0, 0.0), p_pos=(30.0, 0.0), n=3, seed=213,
                        prover_policy=GuessAhead(p_rounds=3, advance_s=20e-9))
    r = run_scenario(with_policy(s, 1, EarlyChallenge(advance_s=1e-6, pr_ch=0.5)))
    answers = {em.round_index: em for em in r.trace.emissions if em.kind == "response"}
    assert answers[2].t_send == answers[1].t_send - 20e-9
    assert r.estimate_for(1, 2).bound_m == 146.8983044217279
