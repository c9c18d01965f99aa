#!/usr/bin/env python3
"""Sweep group sizes and activity levels; tabulate message savings.

For each group size the all-active baseline costs 2nNM rapid messages.
Selecting a fraction d_a of verifiers for n_a active rounds each drops
the cost to (2 n_a + 1) A M, checked here against a real simulated run
before being tabulated.

Usage:
    python3 scripts/message_savings_sweep.py
    python3 scripts/message_savings_sweep.py --sizes 10 20 30 --rounds 10 \
        --out savings.csv --simulate-up-to 6
"""
import argparse
import csv
import sys

from gdbsim.analysis import (
    CountFormulaInput,
    mpnv_run_count,
    msg_count,
    reconcile,
    savings_percent,
)
from gdbsim.core import round_half_up
from gdbsim.proto.runner import run_scenario
from gdbsim.scenarios import mpnv_scenario


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[5, 10, 20, 30])
    ap.add_argument("--rounds", type=int, default=10, help="rapid rounds n")
    ap.add_argument("--fractions", type=float, nargs="+",
                    default=[0.2, 0.4, 0.6, 0.8, 1.0])
    ap.add_argument("--simulate-up-to", type=int, default=5,
                    help="cross-check sizes up to this with a full run")
    ap.add_argument("--out", default=None, help="also write rows as CSV")
    args = ap.parse_args(argv)

    n = args.rounds
    rows = []
    print(f"{'N=M':>5} {'frac':>5} {'n_a':>4} {'base':>8} {'ours':>8} {'saving':>8}")
    for size in args.sizes:
        base = msg_count(CountFormulaInput(setting="MPNV", n=n, N=size, M=size), "base")
        for frac in args.fractions:
            # halves round up, as in Figure 6d and active_verifier_count
            n_a = max(1, round_half_up(frac * n))
            ours = mpnv_run_count(n, n_a, frac, size, size)
            saving = savings_percent(base, ours)
            rows.append((size, frac, n_a, base, ours, saving))
            print(f"{size:>5} {frac:>5.2f} {n_a:>4} {base:>8} {ours:>8} {saving:>7.1f}%")

            if size <= args.simulate_up_to:
                run = run_scenario(mpnv_scenario(n, n_a, frac, size, size, seed=101))
                rep = reconcile(run.trace, ours)
                if not rep.matches:
                    print(f"  !! simulated run disagrees: {rep.discrepancies}",
                          file=sys.stderr)
                    return 1

    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["group_size", "fraction", "n_a", "base", "ours", "saving_pct"])
            w.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
