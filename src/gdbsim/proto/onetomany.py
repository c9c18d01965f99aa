"""One initiator bounding many responders in a single message chain.

Each round is one chain of 2M+1 messages: the initiator's opener
challenges the first responder, every later initiator emission both
closes the previous responder's round trip and challenges the next one,
and the final emission only closes.  Responders time the initiator off
their own response-to-closer gap, so one chain yields bounds in both
directions for every pair, replacing 4nM one-way messages with n(2M+1).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from ..core import NodeId, Role, Scenario
from ..crypto import commit  # noqa: F401  (perfbench/tracing.py patches this name here)
from ..threat import apply_policy  # noqa: F401  (perfbench/tracing.py patches this name here)
from .base import (
    DbEstimate,
    METHOD_ACTIVE,
    RoundRecord,
    RunContext,
    RunResult,
    check_answers,
    commit_phase,
    encode_value,
    max_bound,
    open_phase,
    start_run,
)


def run_chain(
    ctx: RunContext,
    v: NodeId,
    responders: Sequence[NodeId],
    n: int,
    t_start: float,
) -> Tuple[Dict[NodeId, List[RoundRecord]], Dict[NodeId, List[RoundRecord]], float]:
    """n chained rounds of 2M+1 messages each.

    Every message answers the one before it: the initiator on n * (M + 1)
    of its committed nonces, each responder on n.  Returns the round
    records both ways plus the time the chain wound down.
    """
    cfg = ctx.scenario.config
    chan = ctx.channel
    m = len(responders)
    v_rounds: Dict[NodeId, List[RoundRecord]] = {p: [] for p in responders}
    p_rounds: Dict[NodeId, List[RoundRecord]] = {p: [] for p in responders}
    prev_value = 0  # the opener hears nothing, and 0 XOR nonce is the nonce
    msg_index = 0
    t_nominal = t_start
    for i in range(1, n + 1):
        # initiator emission j challenges responder j and closes responder j-1
        for j in range(m + 1):
            value = ctx.answer(v, prev_value, i)
            msg_index += 1
            em = ctx.emit(v, t_nominal, "challenge" if j < m else "closing",
                          encode_value("m", msg_index, value), i)
            if j:
                prev_p = responders[j - 1]
                p_rounds[prev_p].append(RoundRecord(p_sent, chan.arrival_local(em.seq, prev_p)))
            prev_value = value
            if j == m:
                break

            pj = responders[j]
            msg_index += 1
            r_value = ctx.answer(pj, prev_value, i)
            resp = ctx.emit(pj, chan.arrival_true(em.seq, pj) + cfg.alpha, "response",
                            encode_value("m", msg_index, r_value), i, em.seq, v)
            v_rounds[pj].append(RoundRecord(em.t_send + chan.offsets[v],
                                            chan.arrival_local(resp.seq, v)))
            p_sent = resp.t_send + chan.offsets[pj]
            prev_value = r_value
            t_nominal = chan.arrival_true(resp.seq, v) + cfg.alpha

        t_nominal = max(chan.arrival_true(em.seq, p) for p in responders) + cfg.alpha
    return v_rounds, p_rounds, t_nominal


def chain_estimates(
    v: NodeId,
    responders: Sequence[NodeId],
    v_rounds: Mapping[NodeId, List[RoundRecord]],
    p_rounds: Mapping[NodeId, List[RoundRecord]],
    alpha: float,
    c: float,
    auth: bool,
) -> List[DbEstimate]:
    """Max-over-rounds bounds, initiator first, then the responders."""
    out: List[DbEstimate] = []
    for measurer, target, rounds in (
        [(v, pj, v_rounds[pj]) for pj in responders]
        + [(pj, v, p_rounds[pj]) for pj in responders]
    ):
        out.append(DbEstimate(
            measurer=measurer, target=target, bound_m=max_bound(rounds, alpha, c),
            method=METHOD_ACTIVE, rounds_used=len(rounds), verified_auth=auth,
        ))
    return out


def run_chains(
    ctx: RunContext, initiators: Sequence[NodeId], responders: Sequence[NodeId]
) -> RunResult:
    """Each initiator in turn drives one chain over the responders.

    Every party commits once, initiators first, and opens once after
    the last chain; only then are the answers, the initiators' chain
    values among them, checked.  Returns 2M directional bounds per
    initiator.
    """
    cfg = ctx.scenario.config
    n = cfg.n
    counts = {
        **{v: n * (len(responders) + 1) for v in initiators},
        **{p: n * len(initiators) for p in responders},
    }
    bundles, t = commit_phase(ctx, counts, ctx.slot_s)

    estimates: List[DbEstimate] = []
    for v in initiators:
        v_rounds, p_rounds, t_end = run_chain(ctx, v, responders, n, t)
        estimates.extend(chain_estimates(
            v, responders, v_rounds, p_rounds, cfg.alpha, cfg.c, cfg.auth_enabled
        ))
        t = t_end + ctx.slot_s

    open_phase(ctx, bundles, t)
    check_answers(ctx)
    return RunResult(scenario=ctx.scenario, trace=ctx.channel.trace, estimates=estimates)


def run_one_to_many(scenario: Scenario) -> RunResult:
    """The lowest peer id drives one chain over the other M peers."""
    ctx = start_run(scenario)
    peers = sorted(n.id for n in scenario.with_role(Role.PEER))
    return run_chains(ctx, peers[:1], peers[1:])
