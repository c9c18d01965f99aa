#!/usr/bin/env python3
"""Walk through what a passive observer recovers from one exchange.

Runs a single one-way exchange with a listener, prints the three
arrival stamps, and compares every derived quantity (verifier-prover
distance, leg sum, direct bound, annulus, candidate positions) against
the planted geometry.  Optionally repeats the run with the verifier
sending challenges early, which is the one manipulation that shows up
as a shortened passive bound.

Usage:
    python3 scripts/passive_geometry_demo.py
    python3 scripts/passive_geometry_demo.py --advance-ns 30
    python3 scripts/passive_geometry_demo.py --advance-ns 63
    python3 scripts/passive_geometry_demo.py --advance-ns 200

A small advance shaves c*tau off the recovered bound.  A larger one
makes the leg sum undercut the verifier-prover distance, which a live
run scores as distance zero; a larger one still pushes the leg sum
negative, which aborts a live run with NegativeTimeOfFlight.  Either
rejection is itself the give-away.
"""
import argparse
import sys

from gdbsim.core import EPS_DIST, SPEED_OF_LIGHT, distance
from gdbsim.estimate import (
    NegativeTimeOfFlight,
    NoIntersection,
    intersect_circles,
    leg_sums,
    verifier_prover_distances,
)
from gdbsim.proto.base import start_run
from gdbsim.proto.pairwise import passive_observations, run_exchange
from gdbsim.scenarios import oneway_scenario, with_policy
from gdbsim.threat import EarlyChallenge

V_POS = (0.0, 0.0)
P_POS = (7.0, -7.0)
O_POS = (0.0, 10.0)


def observe(scenario, n):
    """The observer's (rounds x 1) stamps t1, t2, t3 and its baseline."""
    ctx = start_run(scenario)
    ctx.nonces[2] = tuple(ctx.rng.getrandbits(1) for _ in range(n))
    row, = run_exchange(ctx, [1], [2], n, t_start=ctx.slot_s, closing=True)
    t1, t2, t3, base = passive_observations(ctx, row, [9])
    return t1[0], t2[0], t3[0], base


def report(scenario, stamps):
    cfg = scenario.config
    alpha, c = cfg.alpha, cfg.c
    d_vp_true = distance(V_POS, P_POS)
    d_op_true = distance(O_POS, P_POS)
    t1, t2, t3, base = stamps
    for i in range(len(t1)):
        print(f"round {i + 1}: stamps t1={t1[i, 0]:.9f}  t2={t2[i, 0]:.9f}  t3={t3[i, 0]:.9f}")
        try:
            d_vp = float(verifier_prover_distances(t1[i], t3[i], alpha, alpha, c)[0])
            gamma = float(leg_sums(t1[i], t2[i], alpha, base, c)[0])
        except NegativeTimeOfFlight as exc:
            print(f"  round rejected: {exc}")
            print("  no prover position fits these stamps; a live run raises"
                  " this NegativeTimeOfFlight and aborts")
            continue
        direct = gamma - d_vp
        if direct < -EPS_DIST:
            print(f"  round rejected: leg sum falls {-direct!r} m short of the"
                  " verifier-prover distance")
            print("  no prover position fits these stamps; a live run scores"
                  " the round as distance zero")
            continue
        d = float(base[0])
        print(f"  verifier-prover distance {d_vp:10.6f} m   (true {d_vp_true:.6f})")
        print(f"  prover leg sum           {gamma:10.6f} m")
        print(f"  observer-prover bound    {max(direct, 0.0):10.6f} m   (true {d_op_true:.6f})")
        print(f"  annulus without position [{(gamma - d) / 2.0:.6f}, {(gamma + d) / 2.0:.6f}] m")
        try:
            pts = intersect_circles(V_POS, d_vp, O_POS, direct)
        except NoIntersection as exc:
            print(f"  candidate prover spots   none: {exc}")
            continue
        spots = "  ".join(f"({x:+.6f}, {y:+.6f})" for x, y in pts)
        print(f"  candidate prover spots   {spots}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--advance-ns", type=float, default=0.0,
                    help="also run with the verifier this many ns early")
    args = ap.parse_args(argv)

    print("honest exchange:")
    honest = oneway_scenario(V_POS, P_POS, n=args.rounds, seed=args.seed,
                             observer_pos=O_POS)
    report(honest, observe(honest, args.rounds))

    if args.advance_ns > 0:
        tau = args.advance_ns * 1e-9
        print(f"\nverifier {args.advance_ns:.0f} ns ahead of its published "
              f"schedule (shortens the bound by c*tau = "
              f"{SPEED_OF_LIGHT * tau:.3f} m):")
        rigged = with_policy(honest, 1, EarlyChallenge(advance_s=tau, pr_ch=1.0))
        report(rigged, observe(rigged, args.rounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
