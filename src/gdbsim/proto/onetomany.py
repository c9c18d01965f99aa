"""One initiator bounding many responders in a single message chain.

Each round is one chain of 2M+1 messages: the initiator's opener
challenges the first responder, every later initiator emission both
closes the previous responder's round trip and challenges the next one,
and the final emission only closes.  Responders time the initiator off
their own response-to-closer gap, so one chain yields bounds in both
directions for every pair, replacing 4nM one-way messages with n(2M+1).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..core import NodeId, Role, Scenario
from ..crypto import commit  # noqa: F401  (perfbench/tracing.py patches this name here)
from ..threat import apply_policy  # noqa: F401  (perfbench/tracing.py patches this name here)
from .base import (
    Estimates,
    Round,
    RunContext,
    RunResult,
    active_rows,
    commit_phase,
    encode_value,
    open_phase,
    start_run,
)


def run_chain(
    ctx: RunContext,
    v: NodeId,
    responders: Sequence[NodeId],
    n: int,
    t_start: float,
) -> Tuple[float, List[Round]]:
    """n chained rounds of 2M+1 messages each: the time the chain wound down, and its rounds.

    Every message answers the one before it: the initiator on n * (M + 1)
    of its committed nonces, each responder on n.  The initiator times
    each responder off its challenge and the response, the responder
    times the initiator off its response and the next initiator emission,
    which so answers that responder's measurement.  The rounds come in
    the order they close.
    """
    cfg = ctx.scenario.config
    chan = ctx.channel
    t_sends = chan.trace.t_send
    m = len(responders)
    rounds: List[Round] = []
    prev_value = 0  # the opener hears nothing, and 0 XOR nonce is the nonce
    msg_index = 0
    t_nominal = t_start
    for i in range(1, n + 1):
        # initiator emission j challenges responder j and closes responder j-1
        for j in range(m + 1):
            value = ctx.answer(v, prev_value, i)
            msg_index += 1
            closed = responders[j - 1] if j else None
            em = ctx.emit(v, t_nominal, "challenge" if j < m else "closing",
                          encode_value(b"m", msg_index, value), i, measurer=closed)
            if j:
                rounds.append((closed, v, t_sends[resp], t_sends[em]))
            prev_value = value
            if j == m:
                break

            pj = responders[j]
            msg_index += 1
            r_value = ctx.answer(pj, prev_value, i)
            t_in = chan.arrival_true(em, pj)
            resp = ctx.emit(pj, t_in + cfg.alpha, "response",
                            encode_value(b"m", msg_index, r_value), i, em, t_in, v)
            rounds.append((v, pj, t_sends[em], t_sends[resp]))
            prev_value = r_value
            t_nominal = chan.arrival_true(resp, v) + cfg.alpha

        t_nominal = max(chan.arrival_true(em, p) for p in responders) + cfg.alpha
    return t_nominal, rounds


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
        t_end, rounds = run_chain(ctx, v, responders, n, t)
        t = t_end + ctx.slot_s
        # pairs are first timed v -> p_j, p_j -> v in turn
        chain = active_rows(ctx, rounds)
        rows += chain[0::2] + chain[1::2]

    open_phase(ctx, bundles, t)
    return RunResult(scenario=ctx.scenario, trace=ctx.channel.trace,
                     estimates=Estimates.from_rows(rows))


def run_one_to_many(scenario: Scenario) -> RunResult:
    """The lowest peer id drives one chain over the other M peers."""
    ctx = start_run(scenario)
    peers = sorted(n.id for n in scenario.with_role(Role.PEER))
    return run_chains(ctx, peers[:1], peers[1:])
