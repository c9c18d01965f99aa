"""Adversary policies, timing shaping, and cross-check detection."""
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ring_oracle

from gdbsim.core import (
    NodeSpec,
    Protocol,
    ProtocolConfig,
    Role,
    Scenario,
    ScenarioFormatError,
    scenario_from_json,
    scenario_to_json,
)
from gdbsim.proto.ring import run_ring_with_delays
from gdbsim.threat import (
    DetectionReport,
    EarlyChallenge,
    FakeLocationReport,
    GuessAhead,
    Honest,
    NodeInsertion,
    PolicyError,
    Relay,
    SelectiveDelay,
    apply_policy,
    cross_check_detect,
    distance_fraud_game,
)

ALL_POLICIES = [
    Honest(),
    GuessAhead(p_rounds=3, advance_s=1e-8),
    SelectiveDelay(delay_s=2e-9, per_message=((0, 1e-9), (3, 0.0)), target=7),
    Relay(victim=4),
    FakeLocationReport(claimed_pos=(1.0, -2.0)),
    FakeLocationReport(claimed_distance_m=55.0),
    EarlyChallenge(advance_s=3e-8, pr_ch=0.4),
    NodeInsertion(),
]


def policy_doc(policy) -> dict:
    """A one-node scenario document carrying the policy."""
    node = NodeSpec(id=1, pos=(0.0, 0.0), role=Role.PROVER, policy=policy)
    return scenario_to_json(Scenario(nodes=(node,), protocol=Protocol.ONE_WAY,
                                     config=ProtocolConfig(n=1), rng_seed=0))


def parse_policy(policy_obj):
    doc = policy_doc(Honest())
    doc["nodes"][0]["policy"] = policy_obj
    return scenario_from_json(doc).nodes[0].policy


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: type(p).__name__)
def test_policy_json_round_trip(policy):
    doc = policy_doc(policy)
    assert doc["nodes"][0]["policy"]["kind"] == type(policy).__name__
    assert scenario_from_json(json.dumps(doc)).nodes[0].policy == policy


def test_unknown_kind_rejected():
    with pytest.raises(ScenarioFormatError, match="unknown policy kind"):
        parse_policy({"kind": "Jam"})


def test_unknown_keys_rejected():
    with pytest.raises(ScenarioFormatError, match="unknown keys"):
        parse_policy({"kind": "Relay", "victim": 2, "speed": 3})


def test_honest_takes_no_parameters():
    with pytest.raises(ScenarioFormatError):
        parse_policy({"kind": "Honest", "delay_s": 1.0})


def test_fake_location_needs_exactly_one_claim():
    with pytest.raises(PolicyError):
        FakeLocationReport()
    with pytest.raises(PolicyError):
        FakeLocationReport(claimed_pos=(0.0, 0.0), claimed_distance_m=1.0)


def test_early_challenge_validates_parameters():
    with pytest.raises(PolicyError):
        EarlyChallenge(advance_s=1e-9, pr_ch=1.5)
    with pytest.raises(PolicyError):
        EarlyChallenge(advance_s=-1e-9, pr_ch=0.5)


def test_negative_delays_rejected_in_json():
    for policy_obj in ({"kind": "SelectiveDelay", "delay_s": -1e-9},
                       {"kind": "SelectiveDelay", "per_message": {"2": -1e-9}},
                       {"kind": "GuessAhead", "p_rounds": -1}):
        with pytest.raises(ScenarioFormatError, match=r"nodes\[0\]\.policy: .*>= 0"):
            parse_policy(policy_obj)


def test_policy_domains_checked_on_construction():
    with pytest.raises(PolicyError, match=">= 0"):
        GuessAhead(p_rounds=-1)
    with pytest.raises(PolicyError, match=">= 0"):
        SelectiveDelay(per_message=((2, -1e-9),))
    # a negative advance would run as a delay, a negative claimed distance
    # would make every listener's leg sum negative and abort the run
    with pytest.raises(PolicyError, match="advance_s must be >= 0"):
        GuessAhead(p_rounds=1, advance_s=-1e-6)
    with pytest.raises(PolicyError, match="claimed_distance_m must be >= 0"):
        FakeLocationReport(claimed_distance_m=-500.0)


def test_per_message_send_index_appears_once():
    # "1" and "01" are both index 1: one override would be lost on output
    with pytest.raises(ScenarioFormatError, match="send index twice"):
        parse_policy({"kind": "SelectiveDelay", "per_message": {"1": 1e-9, "01": 2e-9}})


def test_selective_delay_indexing():
    pol = SelectiveDelay(delay_s=5e-9, per_message=((2, 1e-9),))
    assert pol.delay_for(0) == 5e-9
    assert pol.delay_for(2) == 1e-9  # override wins


def test_selective_delay_target_filter():
    pol = SelectiveDelay(delay_s=5e-9, target=3)
    assert pol.delay_for(0, measurer=3) == 5e-9
    assert pol.delay_for(0, measurer=4) == 0.0
    assert pol.delay_for(0, measurer=None) == 5e-9  # broadcast: everyone sees it


def shaped(policy, rng=None, t=1.0):
    """apply_policy on node 2's first rapid send, which answers node 1."""
    return apply_policy(policy, 2, 0, t, 1, rng)


def test_apply_policy_honest_is_identity():
    assert shaped(Honest()) == (1.0, False)


def test_apply_policy_delay_shifts_send():
    t, early = shaped(SelectiveDelay(delay_s=4e-9))
    assert t == pytest.approx(1.0 + 4e-9) and not early
    # a targeted delay leaves sends answering anyone else untouched
    assert shaped(SelectiveDelay(delay_s=4e-9, target=3)) == (1.0, False)


def test_apply_policy_early_challenge_needs_rng():
    with pytest.raises(PolicyError, match="RNG"):
        shaped(EarlyChallenge(advance_s=1e-8, pr_ch=1.0))


def test_apply_policy_early_challenge_selection():
    rng = random.Random(0)
    t, early = shaped(EarlyChallenge(advance_s=1e-8, pr_ch=1.0), rng)
    assert t == pytest.approx(1.0 - 1e-8)
    assert early

    never = EarlyChallenge(advance_s=1e-8, pr_ch=0.0)
    assert shaped(never, rng) == (1.0, False)

    # pr_ch is the share of sends selected, from one draw of the stream each
    half = EarlyChallenge(advance_s=1e-8, pr_ch=0.5)
    rng, replay = random.Random(5), random.Random(5)
    picks = [shaped(half, rng)[1] for _ in range(400)]
    assert picks == [replay.random() < 0.5 for _ in range(400)]
    assert 150 < sum(picks) < 250


# ---------------------------------------------------------------------------
# cross-check detection


def as_matrix(bounds, nodes=None):
    """The (nodes, matrix) form of {measurer: {target: bound}}, NaN where none.

    nodes defaults to the measurers, the nodes the pairwise check compares.
    """
    nodes = sorted(bounds) if nodes is None else nodes
    rows = [[bounds.get(a, {}).get(b, math.nan) for b in nodes] for a in nodes]
    return nodes, np.array(rows, dtype=float).reshape(len(nodes), len(nodes))


def check(bounds, *args, **kwargs):
    return cross_check_detect(*as_matrix(bounds), *args, **kwargs)


def test_consistent_bounds_pass():
    bounds = {1: {2: 10.0}, 2: {1: 10.0 + 1e-7}}
    rep = check(bounds)
    assert rep.consistent and rep.accused == frozenset()
    assert rep.verdicts == {1: "consistent", 2: "consistent"}


def test_disputed_pair_flagged():
    bounds = {1: {2: 10.0}, 2: {1: 25.0}}
    rep = check(bounds)
    assert not rep.consistent
    assert rep.flags_pair(1, 2) and rep.flags_pair(2, 1)
    assert rep.mismatches[0].discrepancy_m == pytest.approx(15.0)
    assert rep.accused == frozenset({1, 2})
    assert rep.verdicts[1] == "disputed"


def test_one_sided_bounds_are_not_comparable():
    # nothing to cross-check without both directions
    rep = check({1: {2: 10.0}, 2: {}})
    assert rep.consistent


def test_digest_outlier_flagged():
    bounds = {1: {2: 5.0}, 2: {1: 5.0}, 3: {}}
    digests = {1: b"aa", 2: b"aa", 3: b"zz"}
    rep = check(bounds, digests)
    assert rep.digest_outliers == [3]
    assert rep.verdicts[3] == "bad_digest"
    assert 3 in rep.accused


def test_detection_report_serializes():
    rep = check({1: {2: 10.0}, 2: {1: 25.0}})
    d = rep.to_dict()
    assert d["consistent"] is False
    assert d["mismatches"][0]["discrepancy_m"] == pytest.approx(15.0)
    assert d["accused"] == [1, 2]


def test_custom_threshold_respected():
    bounds = {1: {2: 10.0}, 2: {1: 10.5}}
    assert check(bounds).consistent is False
    assert check(bounds, eps_detect=1.0).consistent is True


# ---------------------------------------------------------------------------
# attack games


def test_guess_game_is_seed_deterministic():
    a = distance_fraud_game(50, n=2, seed=9)
    b = distance_fraud_game(50, n=2, seed=9)
    assert a == b


def test_guess_game_rate_tracks_two_to_minus_n():
    rate = distance_fraud_game(2000, n=1, seed=31)
    se = (0.5 * 0.5 / 2000) ** 0.5
    assert abs(rate - 0.5) <= 3 * se


def test_guess_game_an_advance_below_eps_dist_never_wins():
    """A guess 1e-15 s early buys c * 1e-15 / 2, about 1.5e-7 m, under EPS_DIST: every
    right guess still reads the true distance within EPS_DIST, so none is a win."""
    assert distance_fraud_game(200, n=1, seed=1, advance_s=1e-15) == 0.0


def test_guess_game_wider_challenges_are_harder():
    easy = distance_fraud_game(400, n=1, bit_len=1, seed=3)
    hard = distance_fraud_game(400, n=1, bit_len=8, seed=3)
    assert hard < easy


def test_ring_delay_sweep_symmetry_law():
    """A lone delayer is invisible iff its two sends shift alike."""
    grid = [
        ((0.0, 0.0), (0.0, 0.0)),
        ((5e-8, 5e-8), (0.0, 0.0)),    # symmetric: cancels in the solve
        ((5e-8, 0.0), (0.0, 0.0)),     # asymmetric: detectable
        ((2.5e-8, 5e-8), (0.0, 2.5e-8)),
    ]
    out = []
    for delays in grid:
        rep = run_ring_with_delays(n_nodes=4, delays=dict(enumerate(delays, start=2))).detection
        out.append((not rep.consistent, max((m.discrepancy_m for m in rep.mismatches), default=0.0)))
    assert [detected for detected, _ in out] == [False, False, True, True]
    assert out[2][1] > 3.0  # metres of discrepancy, well over threshold
    assert out[0][1] == 0.0


def test_bound_errors_raise_the_threshold_above_the_floor():
    bounds = {1: {2: 10.0, 3: 10.0}, 2: {1: 10.0 + 5e-5}, 3: {1: 10.0 + 2e-6}}
    errors = {1: 1e-6, 2: 3e-5, 3: 1e-7}
    rep = check(bounds, bound_error_m=errors)
    # 5e-5 m exceeds 1e-6 + 3e-5 m; 2e-6 m stays under the 3 um floor
    assert [(m.node_a, m.node_b) for m in rep.mismatches] == [(1, 2)]
    assert rep.threshold_m(1, 2) == pytest.approx(3.1e-5)
    assert rep.threshold_m(1, 3) == 3e-6
    d = rep.to_dict()
    assert d["eps_detect_m"] == 3e-6
    assert d["bound_error_m"] == {"1": 1e-6, "2": 3e-5, "3": 1e-7}
    errors[2] = 5e-5
    assert check(bounds, bound_error_m=errors).consistent


def test_unsolved_observers_void_the_report_without_accusing_them():
    rep = check({1: {2: 10.0}, 2: {1: 10.0}}, unsolved=[3])
    assert not rep.consistent
    assert rep.accused == frozenset()
    assert rep.verdicts == {1: "consistent", 2: "consistent", 3: "unsolved"}
    assert rep.to_dict()["unsolved"] == [3]
    assert check({1: {2: 10.0}, 2: {1: 10.0}}).consistent


def test_discrepancy_exactly_at_the_threshold_is_not_flagged():
    bounds = {1: {2: 10.0}, 2: {1: 10.5}}
    # 0.5 m apart against 0.25 + 0.25 m of error, and against a 0.5 m floor
    assert check(bounds, bound_error_m={1: 0.25, 2: 0.25}).consistent
    assert check(bounds, eps_detect=0.5).consistent
    bounds[2][1] = math.nextafter(10.5, 11.0)
    assert [(m.node_a, m.node_b) for m in check(bounds, eps_detect=0.5).mismatches] == [(1, 2)]


SIXTEENTHS = st.integers(0, 48).map(lambda k: k / 16)


@st.composite
def cross_check_inputs(draw):
    """Published bounds, errors, digests and unsolved observers.

    Values are sixteenths, so every sum is exact and discrepancies can
    land exactly on a threshold, an ulp above it or an ulp below.
    """
    ids = draw(st.lists(st.integers(1, 40), max_size=8, unique=True))
    unsolved = draw(st.sets(st.sampled_from(ids))) if ids else set()
    publishers = [a for a in ids if a not in unsolved]
    errors = {a: draw(SIXTEENTHS) for a in publishers if draw(st.booleans())}
    eps = draw(SIXTEENTHS)
    bounds = {a: {} for a in publishers}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            ab = draw(SIXTEENTHS) * 8
            gap = max(eps, errors.get(a, 0.0) + errors.get(b, 0.0))
            ba = draw(st.sampled_from([
                ab, ab + gap, ab - gap, math.nextafter(ab + gap, math.inf),
                math.nextafter(ab - gap, -math.inf), ab + 2 * gap + 1.0]))
            # either direction may be missing, as from an unsolved observer
            if a in bounds and draw(st.integers(0, 3)):
                bounds[a][b] = ab
            if b in bounds and draw(st.integers(0, 3)):
                bounds[b][a] = ba
    digests = {a: draw(st.sampled_from([b"x", b"y", b"z"])) for a in ids if draw(st.booleans())}
    # the driver's form lists unsolved observers as all-NaN rows
    nodes = sorted(ids) if draw(st.booleans()) else None
    return bounds, errors, eps, digests, sorted(unsolved), nodes


@settings(max_examples=300, deadline=None)
@given(cross_check_inputs())
@example(({1: {2: 10.0}, 2: {1: 10.5}}, {1: 0.25, 2: 0.25}, 0.0, {}, [], None))
@example(({1: {2: 10.0, 3: 1.0}, 2: {1: 25.0}, 4: {1: 1.0}}, {}, 0.5,
          {1: b"x", 2: b"x", 3: b"y"}, [3], [1, 2, 3, 4]))
def test_array_cross_check_matches_the_pairwise_loop(inputs):
    """The matrix cross-check reports what the pair-by-pair loop reports:
    the same mismatches in the same (a < b) order, outliers, accused
    nodes, verdicts and serialised report."""
    bounds, errors, eps, digests, unsolved, nodes = inputs
    got = cross_check_detect(*as_matrix(bounds, nodes), digests, eps, errors, unsolved)
    want = ring_oracle.cross_check_pairwise(bounds, digests, eps, errors, unsolved)

    def pairs(report):
        return [(m.node_a, m.node_b, m.bound_ab_m.hex(), m.bound_ba_m.hex())
                for m in report.mismatches]

    assert pairs(got) == pairs(want)
    assert got.digest_outliers == want.digest_outliers
    assert got.accused == want.accused
    assert list(got.verdicts.items()) == list(want.verdicts.items())
    assert got.consistent == want.consistent
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
