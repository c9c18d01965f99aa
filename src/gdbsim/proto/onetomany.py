"""One initiator bounding many responders in a single message chain.

Each round is one chain of 2M+1 messages: the initiator's opener
challenges the first responder, every later initiator emission both
closes the previous responder's round trip and challenges the next one,
and the final emission only closes.  Responders time the initiator off
their own response-to-closer gap, so one chain yields bounds in both
directions for every pair, replacing 4nM one-way messages with n(2M+1).
"""

from __future__ import annotations

from typing import Sequence

from ..core import NodeId, Role, Scenario
from ..crypto import commit  # noqa: F401  (perfbench/tracing.py patches this name here)
from ..threat import apply_policy  # noqa: F401  (perfbench/tracing.py patches this name here)
from .base import (
    Estimates,
    RunContext,
    RunResult,
    active_rows,
    commit_phase,
    encode_value,
    open_phase,
    start_run,
    timed_rounds,
)


def run_chain(
    ctx: RunContext,
    v: NodeId,
    responders: Sequence[NodeId],
    n: int,
    t_start: float,
) -> float:
    """n chained rounds of 2M+1 messages each; returns the time the chain wound down.

    Every message answers the one before it: the initiator on n * (M + 1)
    of its committed nonces, each responder on n.  The initiator times
    each responder off its challenge and the response, the responder
    times the initiator off its response and the next initiator emission.
    """
    cfg = ctx.scenario.config
    chan = ctx.channel
    trace = chan.trace
    timed = ctx.timed
    # the per-send steps, called directly: a chain is most of a 1toM run
    v_send, sends = ctx.sender(v), [ctx.sender(pj) for pj in responders]
    m = len(responders)
    prev_value = 0  # the opener hears nothing, and 0 XOR nonce is the nonce
    msg_index = 0
    t_nominal = t_start
    for i in range(1, n + 1):
        # initiator emission j challenges responder j and closes responder j-1
        for j in range(m + 1):
            value = ctx.answer(v, prev_value, i)
            msg_index += 1
            em = trace.append(v, v_send(t_nominal), "challenge" if j < m else "closing",
                              "rapid", encode_value(b"m", msg_index, value), i)
            if j:
                timed.append((resp, em))
            prev_value = value
            if j == m:
                break

            pj = responders[j]
            msg_index += 1
            r_value = ctx.answer(pj, prev_value, i)
            t_in = chan.arrival_true(em, pj)
            resp = trace.append(pj, sends[j](t_in + cfg.alpha, em, t_in, False, v), "response",
                                "rapid", encode_value(b"m", msg_index, r_value), i)
            timed.append((em, resp))
            prev_value = r_value
            t_nominal = chan.arrival_true(resp, v) + cfg.alpha

        t_nominal = max(chan.arrival_true(em, p) for p in responders) + cfg.alpha
    return t_nominal


def run_chains(
    ctx: RunContext, initiators: Sequence[NodeId], responders: Sequence[NodeId]
) -> RunResult:
    """Each initiator in turn drives one chain over the responders.

    Every party commits once, initiators first, and opens once after
    the last chain; only then are the answers, the initiators' chain
    values among them, checked.  Returns 2M directional bounds per
    initiator, its own first, then the responders'.
    """
    n = ctx.scenario.config.n
    counts = {
        **{v: n * (len(responders) + 1) for v in initiators},
        **{p: n * len(initiators) for p in responders},
    }
    bundles, t = commit_phase(ctx, counts)

    rows = []
    for v in initiators:
        start = len(ctx.timed)
        t = run_chain(ctx, v, responders, n, t) + ctx.slot_s
        # pairs are first timed v -> p_j, p_j -> v in turn
        chain = active_rows(ctx, timed_rounds(ctx, start))
        rows += chain[0::2] + chain[1::2]

    open_phase(ctx, bundles, t)
    return RunResult(scenario=ctx.scenario, trace=ctx.channel.trace,
                     estimates=Estimates.from_rows(rows))


def run_one_to_many(scenario: Scenario) -> RunResult:
    """The lowest peer id drives one chain over the other M peers."""
    ctx = start_run(scenario)
    peers = sorted(n.id for n in scenario.with_role(Role.PEER))
    return run_chains(ctx, peers[:1], peers[1:])
