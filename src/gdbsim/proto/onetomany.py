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
    check_responses,
    commit_phase,
    encode_value,
    max_bound,
    open_phase,
    response_bits,
    start_run,
)


def run_chain(
    ctx: RunContext,
    v: NodeId,
    responders: Sequence[NodeId],
    n: int,
    v_nonces: Sequence[int],
    v_offset: int,
    p_nonces: Mapping[NodeId, Sequence[int]],
    p_offsets: Mapping[NodeId, int],
    t_start: float,
) -> Tuple[Dict[NodeId, List[RoundRecord]], Dict[NodeId, List[RoundRecord]], float]:
    """n chained rounds of 2M+1 messages each.

    Consumes n * (M + 1) of the initiator's nonces from v_offset and n
    nonces per responder from each one's own offset.  Returns the round
    records both ways plus the time the chain wound down.
    """
    cfg = ctx.scenario.config
    chan = ctx.channel
    m = len(responders)
    v_rounds: Dict[NodeId, List[RoundRecord]] = {p: [] for p in responders}
    p_rounds: Dict[NodeId, List[RoundRecord]] = {p: [] for p in responders}
    v_used = v_offset
    prev_value = 0
    msg_index = 0
    t_nominal = t_start
    for i in range(1, n + 1):
        for j, pj in enumerate(responders, start=1):
            v_non = v_nonces[v_used]
            v_used += 1
            value = v_non if msg_index == 0 else response_bits(v_non, prev_value, cfg.bit_len)
            t_actual, early = ctx.send(v, t_nominal)
            msg_index += 1
            ch = chan.broadcast(
                v, t_actual, "challenge", "rapid",
                payload=encode_value("m", msg_index, value), round_index=i,
                allow_early=early,
            )
            if j > 1:
                prev_p = responders[j - 2]
                rec = p_rounds[prev_p][-1]
                p_rounds[prev_p][-1] = RoundRecord(
                    index=rec.index, challenge=rec.challenge, response=value,
                    t_send=rec.t_send,
                    t_recv=chan.arrival_local(ch.seq, prev_p),
                )
            prev_value = value

            msg_index += 1
            r_value = response_bits(prev_value, p_nonces[pj][p_offsets[pj] + i - 1], cfg.bit_len)
            t_resp, early = ctx.send(pj, chan.arrival_true(ch.seq, pj) + cfg.alpha, v)
            resp = chan.broadcast(
                pj, t_resp, "response", "rapid",
                payload=encode_value("m", msg_index, r_value), round_index=i,
                after=ch.seq, allow_early=early,
            )
            v_rounds[pj].append(RoundRecord(
                index=i, challenge=prev_value, response=r_value,
                t_send=t_actual + chan.offsets[v],
                t_recv=chan.arrival_local(resp.seq, v),
            ))
            # t_recv is patched once the closing emission exists
            p_rounds[pj].append(RoundRecord(
                index=i, challenge=r_value, response=0,
                t_send=resp.t_send + chan.offsets[pj],
                t_recv=float("nan"),
            ))
            prev_value = r_value
            t_nominal = chan.arrival_true(resp.seq, v) + cfg.alpha

        v_non = v_nonces[v_used]
        v_used += 1
        value = response_bits(v_non, prev_value, cfg.bit_len)
        t_actual, early = ctx.send(v, t_nominal)
        msg_index += 1
        fin = chan.broadcast(
            v, t_actual, "closing", "rapid",
            payload=encode_value("m", msg_index, value), round_index=i,
            allow_early=early,
        )
        last_p = responders[-1]
        rec = p_rounds[last_p][-1]
        p_rounds[last_p][-1] = RoundRecord(
            index=rec.index, challenge=rec.challenge, response=value,
            t_send=rec.t_send, t_recv=chan.arrival_local(fin.seq, last_p),
        )
        prev_value = value
        t_nominal = max(chan.arrival_true(fin.seq, p) for p in responders) + cfg.alpha
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


def run_one_to_many(scenario: Scenario, zero_offsets: bool = False) -> RunResult:
    """Run the chained protocol and return 2M directional bounds.

    All participants are peers; the lowest node id drives the chain and
    the remaining M peers respond in id order.
    """
    ctx = start_run(scenario, zero_offsets)
    cfg = scenario.config
    v, *provers = sorted(n.id for n in scenario.with_role(Role.PEER))
    n = cfg.n
    counts = {v: n * (len(provers) + 1), **{p: n for p in provers}}
    nonces, bundles, t = commit_phase(ctx, counts, ctx.slot_s)

    offsets = {p: 0 for p in provers}
    v_rounds, p_rounds, t_end = run_chain(
        ctx, v, provers, n, nonces[v], 0, nonces, offsets, t
    )
    open_phase(ctx, bundles, t_end + ctx.slot_s)
    for p in provers:
        check_responses(v_rounds[p], nonces[p], offsets[p], cfg.bit_len)
    estimates = chain_estimates(
        v, provers, v_rounds, p_rounds, cfg.alpha, cfg.c, cfg.auth_enabled
    )
    return RunResult(scenario=scenario, trace=ctx.channel.trace, estimates=estimates)
