"""The per-observer ring solve and the pairwise cross-check, as test oracles.

gdbsim solves every ring observer in one batched pass and cross-checks
the bound matrix in one array pass.  This module keeps the earlier
one-observer-at-a-time solve and the pair-by-pair cross-check loop, so
the tests can demand the batched code give the same floats, bit for
bit, the same failures with the same text, and the same verdicts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from gdbsim.core import NodeId
from gdbsim.estimate import (
    IncompleteCycle,
    SolveFailure,
    _UNIT_ROUNDOFF,
    _largest,
    _snake_inverse,
    ring_edges,
)
from gdbsim.threat import EPS_DETECT_M, DetectionReport, PairMismatch


@dataclass(frozen=True)
class RingTiming:
    """Rapid-phase arrivals of one ring round as one observer saw them.

    arrivals: 2N local clock readings, arrivals[m - 1] for message m of
        the round's send order, NaN where the observer logged nothing.
    alpha: per-hop processing delay, seconds.
    """

    ring: Tuple[NodeId, ...]
    observer: NodeId
    arrivals: np.ndarray
    alpha: float


@dataclass
class TofSystem:
    """One observer's flight-time equations, pooled over rounds."""

    ring: Tuple[NodeId, ...]
    observer: NodeId
    unknowns: List[Tuple[str, object]]
    rhs: np.ndarray
    stamp_max: float

    @property
    def rows(self) -> range:
        return range(self.rhs.size)


@dataclass(frozen=True)
class TofSolution:
    values: Dict[Tuple[str, object], float]
    error_s: float


def build_tof_system(rounds: Sequence[RingTiming]) -> TofSystem:
    """One observer's rebased right-hand sides; raises SolveFailure on bad stamps."""
    if not rounds:
        raise SolveFailure("no rounds to solve")
    ring = rounds[0].ring
    observer = rounds[0].observer
    for rt in rounds:
        if rt.ring != ring or rt.observer != observer:
            raise SolveFailure("rounds mix different rings or observers")
    if observer not in ring:
        raise SolveFailure(f"observer {observer} not on the ring")
    n = len(ring)
    if n < 3:
        raise SolveFailure(f"a ring of {n} has no snake to solve")
    for rt in rounds:
        if len(rt.arrivals) != 2 * n:
            raise SolveFailure(
                f"round has {len(rt.arrivals)} message slots, its snake has {2 * n} sends"
            )
    q = ring.index(observer)
    inverse = _snake_inverse(n)
    stamps = np.array([rt.arrivals for rt in rounds], dtype=float)
    steps = inverse.steps[q]
    logged = stamps[:, steps]
    stamp_max = float(_largest(logged))
    if math.isnan(stamp_max) or np.add.reduce(np.isnan(stamps), axis=None) != 2 * len(rounds):
        own = [q, 2 * n - q if q else n]
        heard = ~np.isnan(stamps[:, own])
        if heard.any():
            m = own[np.flatnonzero(heard.any(axis=0))[0]] + 1
            raise SolveFailure(f"arrival logged for the observer's own send m={m}")
        raise IncompleteCycle(
            f"round logged {2 * n - 2 - np.isnan(logged).sum(axis=1).max()} arrivals, "
            f"cycle has {2 * n - 2}"
        )
    alpha = np.array([[rt.alpha] for rt in rounds])
    rhs = (logged - logged[:, :1]) - steps * alpha
    near = (ring[q - 1], observer, ring[(q + 1) % n])
    unknowns = [("edge", e) for e in ring_edges(ring)] + [
        ("edge", (p, observer) if p <= observer else (observer, p)) for p in ring if p not in near
    ]
    unknowns += [("anchor", r) for r in range(len(rounds))]
    return TofSystem(ring=ring, observer=observer, unknowns=unknowns, rhs=rhs,
                     stamp_max=stamp_max)


def solve_tof(system: TofSystem, residual_tol: float = 1e-10) -> TofSolution:
    """One observer's flight times by elimination; raises SolveFailure on a residual."""
    n = len(system.ring)
    q = system.ring.index(system.observer)
    rhs = system.rhs
    dev = rhs - rhs[0]
    mean_dev = np.add.reduce(dev) / len(rhs)
    spread = dev - mean_dev
    shift = np.add.reduce(spread, axis=1, keepdims=True) / spread.shape[1]
    residual = float(_largest(spread - shift))
    if residual > residual_tol:
        raise SolveFailure(f"residual {residual} exceeds {residual_tol}")

    inverse = _snake_inverse(n)
    b = rhs[0] + mean_dev
    x = np.add.reduce(inverse.weights[q] * b[inverse.cols[q] - q * len(b)], axis=1).tolist()
    h = 0.5 * math.ulp(system.stamp_max)
    pooled = h + (len(rhs) + 1) * math.ulp(float(_largest(dev))) if len(rhs) > 1 else 0.0
    chain, norm = (n - 1, 2) if q < 2 else (n, 3)
    error = (2 * h * chain + (5 * h + pooled) * norm
             + 6 * _UNIT_ROUNDOFF * norm * float(_largest(b)))
    anchors = [x[-1] + d for d in shift[:, 0].tolist()]
    values = dict(zip(system.unknowns, x[:-1] + anchors))
    return TofSolution(values, error)


def edge_times(solution: TofSolution) -> Dict[Tuple[NodeId, NodeId], float]:
    """Just the edge unknowns of a solve, keyed by (low id, high id)."""
    return {key[1]: v for key, v in solution.values.items() if key[0] == "edge"}


def cross_check_pairwise(
    bounds: Mapping[int, Mapping[int, float]],
    digests: Optional[Mapping[int, bytes]] = None,
    eps_detect: float = EPS_DETECT_M,
    bound_error_m: Optional[Mapping[int, float]] = None,
    unsolved: Sequence[int] = (),
) -> DetectionReport:
    """The cross-check one pair at a time; bounds[x][y] is x's bound to y."""
    report = DetectionReport(eps_detect_m=eps_detect, bound_error_m=dict(bound_error_m or {}),
                             unsolved=sorted(unsolved))
    nodes = sorted(bounds)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            if b in bounds.get(a, {}) and a in bounds.get(b, {}):
                ab = bounds[a][b]
                ba = bounds[b][a]
                if abs(ab - ba) > report.threshold_m(a, b):
                    report.mismatches.append(PairMismatch(a, b, ab, ba))
    if digests:
        tally: Dict[bytes, int] = {}
        for d in digests.values():
            tally[d] = tally.get(d, 0) + 1
        majority = max(tally.items(), key=lambda kv: (kv[1], kv[0]))[0]
        if tally[majority] > len(digests) // 2:
            report.digest_outliers = sorted(
                n for n, d in digests.items() if d != majority
            )
    implicated = set(report.digest_outliers)
    for m in report.mismatches:
        implicated.add(m.node_a)
        implicated.add(m.node_b)
    report.accused = frozenset(implicated)
    for n in sorted(set(nodes) | set(report.unsolved)):
        if n in report.digest_outliers:
            report.verdicts[n] = "bad_digest"
        elif any(n in (m.node_a, m.node_b) for m in report.mismatches):
            report.verdicts[n] = "disputed"
        elif n in report.unsolved:
            report.verdicts[n] = "unsolved"
        else:
            report.verdicts[n] = "consistent"
    return report


def solve_each(ring, observers, stamps, alpha):
    """Every observer of a (rounds x 2N x observers) block solved alone.

    Maps each observer to its TofSolution, or to the SolveFailure its
    build or solve raised.
    """
    out = {}
    for k, o in enumerate(observers):
        rounds = [RingTiming(tuple(ring), o, stamps[r, :, k], alpha) for r in range(len(stamps))]
        try:
            out[o] = solve_tof(build_tof_system(rounds))
        except SolveFailure as exc:
            out[o] = exc
    return out
