"""Group protocols built from shared one-way rapid rounds.

A fraction of the verifier group is drawn at random to run active
exchanges; everyone else prices the same exchanges passively from the
published schedule, trading rounds of their own for overheard ones.
The two-group variants either run that machinery in both directions,
share one joint ring, or chain per-verifier one-to-many runs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Mapping, Sequence, Tuple

from ..core import (
    NodeId,
    Protocol,
    Role,
    Scenario,
    active_verifier_count,
)
from ..crypto import commit  # noqa: F401  (perfbench/tracing.py patches this name here)
from .base import (
    DbEstimate,
    METHOD_ACTIVE,
    METHOD_PASSIVE,
    NoActiveVerifier,
    RunContext,
    RunResult,
    check_responses,
    commit_phase,
    open_phase,
    start_run,
)
from .onetomany import chain_estimates, run_chain
from .pairwise import ExchangeResult, passive_bounds, run_exchange
from .pairwise import observed_bound, passive_observations  # noqa: F401  (perfbench/tracing.py patches these names here)

# (bound_m, method, observation count) accumulated per measurer-target pair
_Candidate = Tuple[float, str, int]


def _select_actives(
    ctx: RunContext, pool: Sequence[NodeId], n_verifiers: int, d_a: float
) -> List[NodeId]:
    """Seeded draw of the verifiers that run active rounds this run."""
    want = active_verifier_count(d_a, n_verifiers)
    if want == 0 or not pool:
        raise NoActiveVerifier(
            f"active fraction {d_a} selects {want} of {len(pool)} eligible verifiers"
        )
    if want > len(pool):
        raise NoActiveVerifier(
            f"need {want} active verifiers but only {len(pool)} are eligible"
        )
    return sorted(ctx.rng.sample(sorted(pool), want))


def _oneway_group_phase(
    ctx: RunContext,
    watchers: Sequence[NodeId],
    pool: Sequence[NodeId],
    provers: Sequence[NodeId],
    n_a: int,
    d_a: float,
    nonces: Mapping[NodeId, Sequence[int]],
    cursors: Dict[NodeId, int],
    t: float,
) -> Tuple[Dict[Tuple[NodeId, NodeId], List[_Candidate]], List[Tuple[ExchangeResult, NodeId, int]], float]:
    """Sequential active exchanges plus everyone's passive pricing.

    Each selected verifier runs its row of exchanges, one per prover,
    and the row is then priced for every other watcher in one call.
    The closing emission after each exchange's last response is what
    lets listeners frame all n_a rounds; when every watcher is active
    for all n rounds nobody needs it and it is omitted, which collapses
    the run to the all-active baseline.
    """
    selected = _select_actives(ctx, pool, len(watchers), d_a)
    closing = not (n_a == ctx.scenario.config.n and len(selected) == len(watchers))
    candidates: Dict[Tuple[NodeId, NodeId], List[_Candidate]] = {}
    exchanges: List[Tuple[ExchangeResult, NodeId, int]] = []
    for v in selected:
        row: List[ExchangeResult] = []
        for p in provers:
            off = cursors[p]
            ex = run_exchange(ctx, v, p, nonces[p], off, n_a, t, closing)
            cursors[p] = off + n_a
            exchanges.append((ex, p, off))
            row.append(ex)
            t = ex.t_end + ctx.slot_s
        # pricing reads only the trace, so v's row is priced as one block
        for ex, priced in zip(row, passive_bounds(ctx, row, watchers)):
            p = ex.prover
            candidates.setdefault((v, p), []).append((ex.bound_m, METHOD_ACTIVE, n_a))
            for w, (bound, rounds) in priced.items():
                candidates.setdefault((w, p), []).append((bound, METHOD_PASSIVE, rounds))
    return candidates, exchanges, t


def _estimates_from_candidates(
    candidates: Mapping[Tuple[NodeId, NodeId], List[_Candidate]],
    auth: bool,
) -> List[DbEstimate]:
    """Conservative composite: the largest bound any source produced."""
    out: List[DbEstimate] = []
    for (w, p) in sorted(candidates):
        cands = candidates[(w, p)]
        # one walk, with max()'s first-wins tie rule
        bound, method, rounds = cands[0][0], METHOD_PASSIVE, 0
        for b, m, k in cands:
            if b > bound:
                bound = b
            if m == METHOD_ACTIVE:
                method = METHOD_ACTIVE
            rounds += k
        out.append(DbEstimate(
            measurer=w, target=p, bound_m=bound, method=method,
            rounds_used=rounds, verified_auth=auth,
        ))
    return out


def run_mpnv(scenario: Scenario, zero_offsets: bool = False) -> RunResult:
    """Many verifiers bound many provers, most of them by listening.

    Each selected verifier runs n_a rounds against every prover; every
    other verifier converts the overheard rounds into passive bounds.
    With the full group active for all n rounds this is exactly the
    2nNM all-active baseline.
    """
    ctx = start_run(scenario, zero_offsets)
    cfg = scenario.config
    pool = sorted(n.id for n in scenario.with_role(Role.ACTIVE_VERIFIER))
    watchers = sorted(n.id for n in scenario.verifiers())
    provers = sorted(n.id for n in scenario.with_role(Role.PROVER))
    n_a, d_a = scenario.experiment.n_a, scenario.experiment.d_a

    need = active_verifier_count(d_a, len(watchers)) * n_a
    nonces, bundles, t = commit_phase(ctx, {p: need for p in provers}, ctx.slot_s)
    cursors = {p: 0 for p in provers}
    candidates, exchanges, t = _oneway_group_phase(
        ctx, watchers, pool, provers, n_a, d_a, nonces, cursors, t
    )
    open_phase(ctx, bundles, t)
    for ex, p, off in exchanges:
        check_responses(ex.rounds, nonces[p], off, cfg.bit_len)
    estimates = _estimates_from_candidates(candidates, cfg.auth_enabled)
    return RunResult(scenario=scenario, trace=ctx.channel.trace, estimates=estimates)


def ntom_groups(scenario: Scenario) -> Tuple[List[NodeId], List[NodeId]]:
    """Split the peers into the two declared groups by sorted id."""
    peers = sorted(n.id for n in scenario.with_role(Role.PEER))
    n_first = scenario.experiment.N
    return peers[:n_first], peers[n_first:]


def run_ntom(scenario: Scenario, zero_offsets: bool = False) -> RunResult:
    """Group-to-group mutual bounding, three strategies.

    passive: each group runs a one-way listening phase against the
    other, so no intra-group bounds exist to waste messages on.
    multiparty: one joint ring over both groups; the intra-group bounds
    it cannot help producing are marked surplus.
    onetomany: every member of the first group drives a chain over the
    second group.
    """
    if scenario.protocol == Protocol.NTOM_MULTIPARTY:
        from .ring import run_multiparty_gdb

        result = run_multiparty_gdb(scenario, zero_offsets)
        g1 = set(ntom_groups(scenario)[0])
        result.estimates = [
            replace(est, surplus=True)
            if (est.measurer in g1) == (est.target in g1)
            else est
            for est in result.estimates
        ]
        return result
    if scenario.protocol == Protocol.NTOM_PASSIVE:
        return _run_ntom_passive(scenario, zero_offsets)
    return _run_ntom_onetomany(scenario, zero_offsets)


def _run_ntom_passive(scenario: Scenario, zero_offsets: bool) -> RunResult:
    ctx = start_run(scenario, zero_offsets)
    cfg = scenario.config
    g1, g2 = ntom_groups(scenario)
    exp = scenario.experiment

    # each member answers the other group's active verifiers
    g1_need = active_verifier_count(exp.d_2, len(g2)) * exp.n_a2
    g2_need = active_verifier_count(exp.d_1, len(g1)) * exp.n_a1
    nonces, bundles, t = commit_phase(
        ctx, {**{v: g1_need for v in g1}, **{p: g2_need for p in g2}}, ctx.slot_s
    )
    cursors = {nid: 0 for nid in (*g1, *g2)}
    candidates, ex1, t = _oneway_group_phase(
        ctx, g1, g1, g2, exp.n_a1, exp.d_1, nonces, cursors, t
    )
    cand2, ex2, t = _oneway_group_phase(
        ctx, g2, g2, g1, exp.n_a2, exp.d_2, nonces, cursors, t
    )
    open_phase(ctx, bundles, t)
    for ex, p, off in ex1 + ex2:
        check_responses(ex.rounds, nonces[p], off, cfg.bit_len)
    candidates.update(cand2)
    estimates = _estimates_from_candidates(candidates, cfg.auth_enabled)
    return RunResult(scenario=scenario, trace=ctx.channel.trace, estimates=estimates)


def _run_ntom_onetomany(scenario: Scenario, zero_offsets: bool) -> RunResult:
    ctx = start_run(scenario, zero_offsets)
    cfg = scenario.config
    g1, g2 = ntom_groups(scenario)
    n = cfg.n
    counts = {**{v: n * (len(g2) + 1) for v in g1}, **{p: n * len(g1) for p in g2}}
    nonces, bundles, t = commit_phase(ctx, counts, ctx.slot_s)

    cursors = {p: 0 for p in g2}
    estimates: List[DbEstimate] = []
    checks: List[Tuple[Dict[NodeId, List], Dict[NodeId, int]]] = []
    for v in g1:
        snapshot = dict(cursors)
        v_rounds, p_rounds, t_end = run_chain(
            ctx, v, g2, n, nonces[v], 0, nonces, snapshot, t
        )
        checks.append((v_rounds, snapshot))
        estimates.extend(chain_estimates(
            v, g2, v_rounds, p_rounds, cfg.alpha, cfg.c, cfg.auth_enabled
        ))
        for p in g2:
            cursors[p] += n
        t = t_end + ctx.slot_s

    open_phase(ctx, bundles, t)
    for v_rounds, snapshot in checks:
        for p in g2:
            check_responses(v_rounds[p], nonces[p], snapshot[p], cfg.bit_len)
    return RunResult(scenario=scenario, trace=ctx.channel.trace, estimates=estimates)
