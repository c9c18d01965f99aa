"""Reference group-phase pricing and fold, one row and one entry at a time, in plain Python.

The group driver prices a phase as a whole (pairwise.price_phase).
price_rows prices the same rows one at a time, in run order, from the
rows' stamps and the trace's flight-time rows: each row's rounds in
turn, then each exchange's watchers in turn, one round at a time, by
exchange_oracle.active_distance and passive_oracle.observed_bound.  So
a test can hold the phase to it bit for bit, and to the first
impossible round in run order, with its exception and text.

The group driver folds each verifier row's bounds into one bound matrix
and one rounds matrix.  This folds the same priced rows into a dict of
[bound, rounds] entries instead, in the order the row priced them: each
exchange's passive watchers, then the row's own verifier.  The larger
bound wins by a strict >, so the first of equal ones stays, signed zero
included, and rounds add.  So a test can hold the matrices to it bit for
bit.
"""
from itertools import repeat

import numpy as np

import exchange_oracle
import passive_oracle
from gdbsim.core import distance
from gdbsim.threat import FakeLocationReport


def price_rows(ctx, rows, watchers):
    """A phase's (rows x watchers x provers) candidates, -inf where nobody priced, and each
    watcher's rounds; or the first exception pricing row after row raises."""
    cfg = ctx.scenario.config
    trace = ctx.channel.trace
    tof, index, offsets = trace.tof, trace.index, trace.offsets
    provers = rows[0].responders
    candidates = np.full((len(rows), len(watchers), len(provers)), -np.inf)
    counts = np.zeros(len(watchers), dtype=np.int64)
    for r, row in enumerate(rows):
        v, own = row.verifier, watchers.index(row.verifier)
        sends, sent = len(row.schedule) // len(provers), len(row.stamps) // len(provers)
        exchanges = [(p, row.schedule[e * sends:(e + 1) * sends],
                      row.stamps[e * sent:(e + 1) * sent]) for e, p in enumerate(provers)]
        for e, (p, _, stamps) in enumerate(exchanges):
            flight, off = tof[index[p]][index[v]], offsets[v]
            bounds = [exchange_oracle.active_distance(ask + off, (reply + flight) + off,
                                                      cfg.alpha, cfg.c)
                      for ask, reply in zip(stamps[0::2], stamps[1::2])]
            candidates[r, own, e] = max(bounds)  # the first of the largest, as max keeps it
        counts[own] += sent // 2
        others = [w for w in watchers if w != v] if sends > 1 else []
        pol = ctx.policies[v]
        for e, (p, schedule, stamps) in enumerate(exchanges):
            for w in others:
                dist = tof[index[v]][index[w]] * cfg.c
                if not isinstance(pol, FakeLocationReport):
                    base = dist
                elif pol.claimed_distance_m is not None:
                    base = pol.claimed_distance_m
                else:
                    base = distance(pol.claimed_pos, ctx.scenario.node(w).pos)
                heard = [(t + dist / cfg.c) + offsets[w] for t in schedule]
                overheard = [(t1, (reply + tof[index[p]][index[w]]) + offsets[w], t3)
                             for t1, reply, t3 in zip(heard, stamps[1::2], heard[1:])]
                candidates[r, watchers.index(w), e] = passive_oracle.observed_bound(
                    overheard, cfg.alpha, base, cfg.c)
        for w in others:
            counts[watchers.index(w)] += sends - 1
    return candidates, counts


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
