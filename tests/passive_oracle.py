"""Reference passive pricing, one overheard round at a time, in plain floats.

The drivers price a verifier's whole row as (exchanges x rounds x
watchers) numpy blocks.  This prices the same stamps from the formulas,
with Python floats and none of the kernels, running the kernels'
float64 operations in the kernels' order: the leg sum first, then the
verifier-prover distance, then the direct bound with its score-zero
rule, then the maximum over rounds.  So a test can hold the blocks to it
bit for bit, and to the same exception with the same message.
"""
from gdbsim.core import EPS_DIST, EPS_TIME
from gdbsim.estimate import NegativeTimeOfFlight


def leg_sum(t1, t2, alpha_p, d_verifier, c):
    gamma = c * ((t2 - t1) - alpha_p) + d_verifier
    if gamma < 0.0:
        raise NegativeTimeOfFlight(f"negative leg sum {gamma!r} m")
    return gamma


def verifier_prover_distance(t1, t3, alpha_p, alpha_v, c):
    tof2 = ((t3 - t1) - alpha_p) - alpha_v
    if tof2 < -EPS_TIME:
        raise NegativeTimeOfFlight(f"overheard round trip {t3 - t1!r} s shorter than processing")
    d = c * tof2 / 2.0
    return 0.0 if 0.0 > d else d


def direct_bound(t1, t2, t3, alpha_p, alpha_v, d_verifier, c):
    """Leg sum minus verifier-prover distance; a leg sum that undercuts the distance scores zero."""
    gamma = leg_sum(t1, t2, alpha_p, d_verifier, c)
    bound = gamma - verifier_prover_distance(t1, t3, alpha_p, alpha_v, c)
    if bound < -EPS_DIST:
        return 0.0
    return max(bound, 0.0)


def observed_bound(rounds, alpha, d_verifier, c):
    """The largest direct bound over (t1, t2, t3) rounds, floored at zero."""
    best = 0.0
    for t1, t2, t3 in rounds:
        best = max(best, direct_bound(t1, t2, t3, alpha, alpha, d_verifier, c))
    return best
