"""Reference group-phase fold, one (watcher, prover) entry at a time, in plain Python.

The group driver folds each verifier row's bounds into one bound matrix
and one rounds matrix.  This folds the same priced rows into a dict of
[bound, rounds] entries instead, in the order the row priced them: each
exchange's passive watchers, then the row's own verifier.  The larger
bound wins by a strict >, so the first of equal ones stays, signed zero
included, and rounds add.  So a test can hold the matrices to it bit for
bit.
"""
from itertools import repeat


def fold_rows(rows):
    """The {(watcher, prover): [bound, rounds]} fold of priced verifier rows.

    rows holds, in run order, one (verifier, provers, active, others,
    best, framed) per row: active maps (verifier, prover) to [bound,
    rounds], and best[e][k] is others[k]'s bound on provers[e], over
    framed rounds.
    """
    fold = {}
    for v, provers, active, others, best, framed in rows:
        for p, per_watcher in zip(provers, best):
            priced = dict(zip(others, zip(per_watcher, repeat(framed))))
            priced[v] = active[(v, p)]
            for w, (bound, rounds) in priced.items():
                entry = fold.get((w, p))
                if entry is None:
                    fold[(w, p)] = [bound, rounds]
                    continue
                if bound > entry[0]:
                    entry[0] = bound
                entry[1] += rounds
    return fold


def estimate_rows(fold, actives):
    """(watcher, prover, bound, method, rounds) in sorted pair order; active iff selected."""
    return [(w, p, bound, "active" if w in actives else "passive", rounds)
            for (w, p), (bound, rounds) in sorted(fold.items())]
