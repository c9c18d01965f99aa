"""Group protocols built from shared one-way rapid rounds.

A fraction of the verifier group is drawn at random to run active
exchanges, each one row; a phase's rows are one pairwise.run_exchange
call, one plain block when every row is plain, and the phase is then
priced as a whole, not row by row (pairwise.price_phase): the selected
verifiers' rounds in one array pass, and everyone else's passive
bounds on the same rows, from the published schedule, in blocks of a
few rows, trading rounds of their own for overheard ones.  A phase's
priced rows are folded into its estimates once, at its end.
The two-group variants either run that machinery in both directions,
share one joint ring, or chain per-verifier one-to-many runs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from ..core import NodeId, Role, Scenario, active_verifier_count
from ..crypto import commit  # noqa: F401  (perfbench/tracing.py patches this name here)
from .base import (
    METHOD_ACTIVE,
    METHOD_PASSIVE,
    Estimates,
    RunContext,
    RunResult,
    commit_phase,
    open_phase,
    start_run,
)
from .onetomany import run_chains
from .onetomany import run_chain  # noqa: F401  (perfbench/tracing.py patches this name here)
from .pairwise import price_phase, run_exchange
from .pairwise import observed_bound, passive_observations  # noqa: F401  (perfbench/tracing.py patches these names here)
from .ring import run_multiparty_gdb

# watchers, eligible pool (sorted), provers, n_a, d_a
Phase = Tuple[Sequence[NodeId], Sequence[NodeId], Sequence[NodeId], int, float]


def _run_oneway_groups(ctx: RunContext, phases: Sequence[Phase]) -> RunResult:
    """Commit in ascending id order, run the listening phases in turn, open.

    In a phase every selected verifier runs its row of exchanges, one
    per prover, all rows in one run_exchange call; price_phase then
    prices the whole phase, actively for each row's verifier and
    passively for every other watcher, and the first impossible round
    in run order, each row's active rounds before its passive ones,
    raises.  The closing emission after each exchange's last response
    is what lets listeners frame all n_a rounds; when every watcher is
    active for all n rounds nobody needs it and it is omitted, which
    collapses the phase to the all-active baseline.

    Each (watcher, prover) estimate is the conservative composite: the
    largest bound any source produced (the first of equal ones, signed
    zero included, so ties follow selection order) and the rounds of all
    sources, active if the watcher ran rounds itself.  A phase's
    candidates are one (rows x watchers x provers) array, -inf where a
    watcher priced nothing, with each row's active column and passive
    block, and the phase folds it once, at its end, by the first argmax
    over the rows, into one bound matrix (from -inf) and one rounds
    matrix indexed by the channel's node ids; a later phase's bound
    replaces an earlier one only where it is larger.
    The estimates are the nonzero-rounds entries, row-major, which is
    sorted (watcher, prover) order.
    """
    cfg = ctx.scenario.config
    need: Dict[NodeId, int] = {}
    for watchers, _, provers, n_a, d_a in phases:
        for p in provers:
            need[p] = need.get(p, 0) + active_verifier_count(d_a, len(watchers)) * n_a
    bundles, t = commit_phase(ctx, {p: need[p] for p in sorted(need)})
    ids = ctx.channel.trace.node_ids
    at = {nid: i for i, nid in enumerate(ids)}
    bound = np.full((len(ids), len(ids)), -np.inf)
    rounds = np.zeros((len(ids), len(ids)), dtype=np.int64)
    actives: Set[NodeId] = set()
    for watchers, pool, provers, n_a, d_a in phases:
        # a seeded draw; validation keeps the count in 1..len(pool)
        selected = sorted(ctx.rng.sample(pool, active_verifier_count(d_a, len(watchers))))
        actives.update(selected)
        closing = not (n_a == cfg.n and len(selected) == len(watchers))
        rows = run_exchange(ctx, selected, provers, n_a, t, closing)
        t = rows[-1].t_end + ctx.slot_s
        candidates, counts = price_phase(ctx, rows, watchers)
        first = np.take_along_axis(candidates, candidates.argmax(axis=0)[None], axis=0)[0]
        block = np.ix_([at[w] for w in watchers], [at[p] for p in provers])
        held = bound[block]
        bound[block] = np.where(first > held, first, held)
        rounds[block] += counts[:, None]
    open_phase(ctx, bundles, t)
    w, p = np.nonzero(rounds)
    node = np.array(ids)
    measurer = node[w].tolist()
    n = len(measurer)
    estimates = Estimates(
        measurer, node[p].tolist(), bound[w, p].tolist(),
        [METHOD_ACTIVE if m in actives else METHOD_PASSIVE for m in measurer],
        rounds[w, p].tolist(), [cfg.auth_enabled] * n, [False] * n)
    return RunResult(scenario=ctx.scenario, trace=ctx.channel.trace, estimates=estimates)


def run_mpnv(scenario: Scenario) -> RunResult:
    """Many verifiers bound many provers, most of them by listening.

    Each selected verifier runs n_a rounds against every prover; every
    other verifier converts the overheard rounds into passive bounds.
    With the full group active for all n rounds this is exactly the
    2nNM all-active baseline.
    """
    ctx = start_run(scenario)
    pool = sorted(n.id for n in scenario.with_role(Role.ACTIVE_VERIFIER))
    watchers = sorted(n.id for n in scenario.verifiers())
    provers = sorted(n.id for n in scenario.with_role(Role.PROVER))
    exp = scenario.experiment
    return _run_oneway_groups(ctx, [(watchers, pool, provers, exp.n_a, exp.d_a)])


def ntom_groups(scenario: Scenario) -> Tuple[List[NodeId], List[NodeId]]:
    """Split the peers into the two declared groups by sorted id."""
    peers = sorted(n.id for n in scenario.with_role(Role.PEER))
    n_first = scenario.experiment.N
    return peers[:n_first], peers[n_first:]


def run_ntom_passive(scenario: Scenario) -> RunResult:
    """Each group runs a one-way listening phase against the other.

    No intra-group bounds exist to waste messages on.
    """
    ctx = start_run(scenario)
    g1, g2 = ntom_groups(scenario)
    exp = scenario.experiment
    return _run_oneway_groups(ctx, [
        (g1, g1, g2, exp.n_a1, exp.d_1),
        (g2, g2, g1, exp.n_a2, exp.d_2),
    ])


def run_ntom_multiparty(scenario: Scenario) -> RunResult:
    """One joint ring over both groups.

    The intra-group bounds it cannot help producing are marked surplus.
    """
    result = run_multiparty_gdb(scenario)
    g1 = set(ntom_groups(scenario)[0])
    est = result.estimates
    est.surplus = [(m in g1) == (t in g1) for m, t in zip(est.measurer, est.target)]
    return result


def run_ntom_onetomany(scenario: Scenario) -> RunResult:
    """Every member of the first group drives a chain over the second."""
    ctx = start_run(scenario)
    return run_chains(ctx, *ntom_groups(scenario))
