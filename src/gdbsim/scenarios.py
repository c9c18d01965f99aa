"""Scenario builders shared by the acceptance suite, tests and scripts.

Each builder returns a plain Scenario; node ids, roles and positions
follow fixed layouts so that a builder call with a given seed always
describes the same run.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence, Tuple

from .core import (
    ExperimentParams,
    NodeId,
    NodeSpec,
    Protocol,
    ProtocolConfig,
    Role,
    Scenario,
)
from .threat import AdversaryPolicy, Honest


def on_circle(k: int, count: int, radius: float,
              center: Tuple[float, float] = (0.0, 0.0),
              phase: float = 0.0) -> Tuple[float, float]:
    """Point k of count evenly spaced on a circle, shifted by phase steps."""
    a = 2.0 * math.pi * (k + phase) / count
    return (center[0] + radius * math.cos(a), center[1] + radius * math.sin(a))


def oneway_scenario(
    v_pos: Tuple[float, float] = (0.0, 0.0),
    p_pos: Tuple[float, float] = (90.0, 0.0),
    n: int = 2,
    seed: int = 3,
    alpha: float = 0.0,
    observer_pos: Optional[Tuple[float, float]] = None,
    prover_policy: Optional[AdversaryPolicy] = None,
    extra_nodes: Sequence[NodeSpec] = (),
    bit_len: int = 1,
    auth: bool = False,
) -> Scenario:
    """Verifier id 1, prover id 2, extra_nodes, optional passive observer id 9."""
    nodes = [
        NodeSpec(id=1, pos=v_pos, role=Role.ACTIVE_VERIFIER),
        NodeSpec(id=2, pos=p_pos, role=Role.PROVER,
                 policy=prover_policy if prover_policy is not None else Honest()),
    ]
    nodes.extend(extra_nodes)
    if observer_pos is not None:
        nodes.append(NodeSpec(id=9, pos=observer_pos, role=Role.PASSIVE_VERIFIER))
    return Scenario(
        nodes=tuple(nodes), protocol=Protocol.ONE_WAY,
        config=ProtocolConfig(n=n, bit_len=bit_len, alpha=alpha, auth_enabled=auth),
        rng_seed=seed,
    )


def peer_scenario(
    protocol: Protocol,
    count: int = 0,
    n: int = 1,
    seed: int = 5,
    radius: float = 200.0,
    experiment: Optional[ExperimentParams] = None,
    positions: Optional[Sequence[Tuple[float, float]]] = None,
) -> Scenario:
    """Peers with ids 1.. at positions, or else count of them on a circle."""
    if positions is None:
        positions = [on_circle(k, count, radius) for k in range(count)]
    nodes = tuple(
        NodeSpec(id=i + 1, pos=p, role=Role.PEER) for i, p in enumerate(positions)
    )
    return Scenario(nodes=nodes, protocol=protocol, config=ProtocolConfig(n=n),
                    experiment=experiment, rng_seed=seed)


def mpnv_scenario(n: int, n_a: int, d_a: float, n_verifiers: int,
                  m_provers: int, seed: int = 11) -> Scenario:
    """Verifiers on a 150 m circle, provers between them on a 60 m circle."""
    nodes = []
    nid = 1
    for k in range(n_verifiers):
        nodes.append(NodeSpec(id=nid, pos=on_circle(k, n_verifiers, 150.0),
                              role=Role.ACTIVE_VERIFIER))
        nid += 1
    for k in range(m_provers):
        nodes.append(NodeSpec(id=nid, pos=on_circle(k, m_provers, 60.0, phase=0.5),
                              role=Role.PROVER))
        nid += 1
    return Scenario(
        nodes=tuple(nodes), protocol=Protocol.MPNV, config=ProtocolConfig(n=n),
        experiment=ExperimentParams(n_a=n_a, n_p=n - n_a, d_a=d_a,
                                    N=n_verifiers, M=m_provers),
        rng_seed=seed,
    )


def ntom_scenario(protocol: Protocol, size_n: int, size_m: int, n: int = 1,
                  seed: int = 13, **experiment_extra) -> Scenario:
    """An N-to-M group run over size_n + size_m peers on a circle."""
    exp = ExperimentParams(N=size_n, M=size_m, **experiment_extra)
    return peer_scenario(protocol, size_n + size_m, n=n, seed=seed, experiment=exp)


def regular_ring_scenario(
    n_nodes: int,
    side_m: float,
    seed: int,
    n_rounds: int = 1,
    alpha: float = 0.0,
) -> Scenario:
    """Ring peers on a regular polygon with the given side length, ids 1..N."""
    radius = side_m / (2.0 * math.sin(math.pi / n_nodes))
    scn = peer_scenario(Protocol.MULTI_PARTY_RING, n_nodes, seed=seed, radius=radius)
    return dataclasses.replace(scn, config=ProtocolConfig(n=n_rounds, alpha=alpha))


def with_policy(scenario: Scenario, node_id: NodeId, policy: AdversaryPolicy,
                **extra) -> Scenario:
    """The scenario with one node's policy (and any other NodeSpec fields) replaced."""
    nodes = tuple(
        dataclasses.replace(n, policy=policy, **extra) if n.id == node_id else n
        for n in scenario.nodes
    )
    return dataclasses.replace(scenario, nodes=nodes)
