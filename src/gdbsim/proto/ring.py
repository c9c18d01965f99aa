"""Mutual multi-party distance bounding over a committed ring order.

Every participant commits to its rapid nonces, the commitment digests
fix a canonical ring order nobody controls, and each round snakes one
value chain around the ring and back: senders p1 .. pN, p1, pN .. p2.
Each node transmits twice per round and logs the arrival of everything
else, then solves its own linear system for all flight times it can
see: the N ring edges plus its chords to non-adjacent members.  The
published per-pair bounds are cross-checked; a lone delaying node only
inflates distances consistently, while colluders on adjacent ring
positions can push two observers' views of the same pair apart, which
is what the discrepancy check flags.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core import NodeId, Role, Scenario
from ..crypto import Commitment, UnknownKey, hash_bytes
from ..crypto import commit  # noqa: F401  (perfbench/tracing.py patches this name here)
from ..estimate import build_tof_system, ring_bounds, snake_order, solve_tof
from ..scenarios import regular_ring_scenario
from ..threat import SelectiveDelay, cross_check_detect
from ..threat import apply_policy  # noqa: F401  (perfbench/tracing.py patches this name here)
from .base import (
    METHOD_MULTIPARTY,
    Estimates,
    RunResult,
    commit_phase,
    encode_value,
    open_phase,
    start_run,
    transcript_digest,
)


def derive_ring_order(
    commitments: Mapping[NodeId, Commitment], peers: Sequence[NodeId]
) -> Tuple[NodeId, ...]:
    """Canonical ring order: sort by rehashed commitment digest.

    Each digest depends on secret nonces and blinding, so no member can
    steer its position without breaking its own commitment.  Node id
    breaks the (practically impossible) digest ties.
    """
    return tuple(sorted(peers, key=lambda p: (hash_bytes(commitments[p].digest), p)))


def run_multiparty_gdb(scenario: Scenario) -> RunResult:
    """Commit, snake n rounds, decommit, report, cross-check."""
    ctx = start_run(scenario)
    s = scenario
    cfg = s.config
    chan = ctx.channel
    peers = sorted(n.id for n in s.with_role(Role.PEER))
    n_nodes = len(peers)
    n = cfg.n

    bundles, t = commit_phase(ctx, {p: 2 * n for p in peers})
    ring = derive_ring_order({p: bundles[p][0] for p in peers}, peers)
    order = snake_order(ring)

    seqs: List[List[int]] = []
    prev_seq: Optional[int] = None
    prev_value = 0  # the first opener hears nothing, and 0 XOR nonce is the nonce
    for r in range(n):
        round_seqs: List[int] = []
        for pos, sender in enumerate(order, start=1):
            value = ctx.answer(sender, prev_value, r + 1)
            t_in = None if prev_seq is None else chan.arrival_true(prev_seq, sender)
            # each round's opener, ring[0], sends alpha after the last round's end reaches it
            t_nominal = t if t_in is None else t_in + cfg.alpha
            prev_seq = ctx.emit(sender, t_nominal, "challenge" if pos == 1 else "response",
                                encode_value(b"m", 2 * n_nodes * r + pos, value), r + 1,
                                prev_seq, t_in)
            prev_value = value
            round_seqs.append(prev_seq)
        seqs.append(round_seqs)

    last_sender = order[-1]
    t = max(
        chan.arrival_true(prev_seq, p) for p in peers if p != last_sender
    ) + ctx.slot_s
    # an unsigned node is accused through its report, not refused here
    t = open_phase(ctx, bundles, t, sign=False)

    digest_bytes = bytes.fromhex(transcript_digest(chan.trace))

    rejections: List[str] = []
    signed_ok: Dict[NodeId, bool] = {}

    for p in peers:
        payload = digest_bytes
        if cfg.auth_enabled:
            try:
                sig = ctx.registry.sign(p, digest_bytes)
                signed_ok[p] = ctx.registry.verify(p, digest_bytes, sig)
                payload = payload + sig
            except UnknownKey:
                signed_ok[p] = False
                rejections.append(f"node {p}: report unsigned, no registered key")
        chan.broadcast(p, t, "report", "report", payload=payload)
        t += ctx.slot_s

    system = build_tof_system(ring, peers, chan.trace.local_arrivals(seqs, peers), cfg.alpha)
    solution = solve_tof(system)
    failures = solution.failures
    for o, exc in failures.items():
        rejections.append(f"node {o}: flight-time solve failed: {exc}")
    bounds = ring_bounds(system, solution, cfg.c)
    errors = (cfg.c * solution.error_s).tolist()
    bound_error = {o: e for o, e in zip(peers, errors) if o not in failures}
    # every solved observer bounds every other member, observer-major; both
    # endpoints signed the report a bound was derived from
    published = ~np.eye(n_nodes, dtype=bool)
    published[[k for k, o in enumerate(peers) if o in failures]] = False
    k, x = np.nonzero(published)
    ids, signed = np.array(peers), np.array([signed_ok.get(p, False) for p in peers])
    estimates = Estimates(ids[k].tolist(), ids[x].tolist(), bounds[published].tolist(),
                          [METHOD_MULTIPARTY] * len(k), [n] * len(k),
                          (signed[k] & signed[x]).tolist(), [False] * len(k))

    detection = cross_check_detect(
        peers, bounds, {p: digest_bytes for p in peers}, bound_error_m=bound_error,
        unsolved=list(failures),
    )
    unauth = [p for p, ok in signed_ok.items() if not ok]
    if unauth:
        detection.accused = frozenset(set(detection.accused) | set(unauth))
        for p in unauth:
            detection.verdicts[p] = "unauthenticated"

    return RunResult(
        scenario=s, trace=chan.trace, estimates=estimates,
        detection=detection, ring_order=ring, ring_solve=(system, solution),
        rejections=rejections,
    )


def run_ring_with_delays(
    n_nodes: int = 4,
    delays: Optional[Mapping[int, Tuple[float, float]]] = None,
    seed: int = 7,
    side_m: float = 400.0,
    n_rounds: int = 1,
) -> RunResult:
    """Polygon ring run with extra send latency at chosen ring positions.

    delays maps 0-based ring positions to the (first send, second send)
    latency pair that node adds in every round.  The ring order is fixed
    by the seed alone, so a dry honest pass reveals which node sits at
    each position before the delays are attached.
    """
    scenario = regular_ring_scenario(n_nodes, side_m, seed, n_rounds)
    if not delays:
        return run_multiparty_gdb(scenario)
    for k in delays:
        if not 0 <= k < n_nodes:
            raise ValueError(f"ring position {k} outside 0..{n_nodes - 1}")
    ring = run_multiparty_gdb(scenario).ring_order
    by_id = {spec.id: spec for spec in scenario.nodes}
    for k, (d_first, d_second) in delays.items():
        nid = ring[k]
        per = tuple(sorted(
            [(2 * r, d_first) for r in range(n_rounds)]
            + [(2 * r + 1, d_second) for r in range(n_rounds)]
        ))
        by_id[nid] = replace(by_id[nid], policy=SelectiveDelay(per_message=per))
    rigged = replace(scenario, nodes=tuple(by_id[spec.id] for spec in scenario.nodes))
    return run_multiparty_gdb(rigged)
