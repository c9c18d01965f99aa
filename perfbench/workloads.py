"""Seeded scenario documents for the four benchmark workloads.

A workload is a fixed list of cases (its cycle); a case may recur in
it.  Each case is one scenario JSON document plus what the benchmark
expects of its run.  The
expectations are written here, from positions and from the paper's
message counts, never read back from gdbsim.  The cycle is rebuilt
identically from the same seed, so every deterministic output of a
run repeats exactly for that seed.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

WORKLOADS = ("mpnv-passive", "ring-solve", "artifact-export", "sweep-small")

# Rapid-phase messages of one MPNV run with 30 verifiers and 30 provers
# at n = 10, as printed in arXiv 1011.5295 for its three reference
# points (n_a, d_a).  Full activity is the 2nNM all-active baseline.
PAPER_MPNV_RAPID_30X30 = {(6, 0.6): 7020, (8, 0.8): 12240, (10, 1.0): 18000}


@dataclass
class Case:
    """One scenario document and the outcome its oracle demands.

    bounds: "exact" (every bound equals the true distance), "no_shorter"
        (no bound undercuts it), "active_exact" (only the active
        verifier's own bound is checked) or None (bounds unchecked).
    ring: "honest" (nobody may be accused) or "colluding" (the
        cross-check must flag the run), None for other protocols.
    refuse: the run must be refused for lack of a registered key.
    family: groups cases for the known-defect table in run.py.
    """

    label: str
    family: str
    doc: dict
    rapid: Optional[int] = None
    bounds: Optional[str] = None
    ring: Optional[str] = None
    refuse: bool = False
    auth: bool = False
    text: str = field(init=False, default="")

    def __post_init__(self) -> None:
        self.text = json.dumps(self.doc, sort_keys=True)
        self._index = {n["id"]: i for i, n in enumerate(self.doc["nodes"])}

    def distance(self, a: int, b: int) -> float:
        """True distance between two nodes, from the document's positions."""
        pa, pb = (self.doc["nodes"][i]["pos"] for i in (self._index[a], self._index[b]))
        return math.hypot(pa[0] - pb[0], pa[1] - pb[1])


# ---------------------------------------------------------------------------
# document helpers


def _node(nid: int, pos, role: str, policy: Optional[dict] = None,
          has_cert: bool = True) -> dict:
    out = {"id": nid, "pos": [pos[0], pos[1]], "role": role}
    if policy is not None:
        out["policy"] = policy
    if not has_cert:
        out["has_cert"] = False
    return out


def _doc(nodes: List[dict], protocol: str, n: int, rng: random.Random,
         auth: bool = False, experiment: Optional[dict] = None) -> dict:
    doc = {
        "nodes": nodes,
        "protocol": protocol,
        "config": {"n": n, "auth_enabled": auth},
        "rng_seed": rng.randrange(1 << 31),
    }
    if experiment is not None:
        doc["experiment"] = experiment
    return doc


def scatter(rng: random.Random, count: int, radius: float,
            min_sep: float = 1.0, taken: Sequence[Tuple[float, float]] = ()
            ) -> List[Tuple[float, float]]:
    """count points uniform in a disk, at least min_sep from each other."""
    pts: List[Tuple[float, float]] = []
    placed = list(taken)
    while len(pts) < count:
        r = radius * math.sqrt(rng.random())
        a = 2.0 * math.pi * rng.random()
        p = (round(r * math.cos(a), 3), round(r * math.sin(a), 3))
        if all(math.hypot(p[0] - q[0], p[1] - q[1]) >= min_sep for q in placed):
            pts.append(p)
            placed.append(p)
    return pts


def active_count(d: float, size: int) -> int:
    """Active verifiers for a fraction d: nearest integer, at least one."""
    return max(1, int(math.floor(d * size + 0.5)))


def mpnv_rapid(n: int, n_a: int, d_a: float, n_v: int, n_p: int) -> int:
    """The paper's MPNV count: (2 n_a + 1) d_a N M, or 2nNM at full activity."""
    a = active_count(d_a, n_v)
    if n_a == n and a == n_v:
        return 2 * n * n_v * n_p
    return (2 * n_a + 1) * a * n_p


# The formula must reproduce the paper's printed table before any run.
for (_n_a, _d_a), _count in PAPER_MPNV_RAPID_30X30.items():
    if mpnv_rapid(10, _n_a, _d_a, 30, 30) != _count:
        raise AssertionError(f"MPNV formula disagrees with the paper at {(_n_a, _d_a)}")


def mpnv_case(rng: random.Random, label: str, size: int, n_a: int, d_a: float,
              family: str = "mpnv") -> Case:
    n = 10
    verifiers = scatter(rng, size, 300.0)
    provers = scatter(rng, size, 120.0, taken=verifiers)
    nodes = [_node(i + 1, p, "ActiveVerifier") for i, p in enumerate(verifiers)]
    nodes += [_node(size + i + 1, p, "Prover") for i, p in enumerate(provers)]
    exp = {"n_a": n_a, "n_p": n - n_a, "d_a": d_a, "N": size, "M": size}
    if size == 30:
        rapid = PAPER_MPNV_RAPID_30X30[(n_a, d_a)]
    else:
        rapid = mpnv_rapid(n, n_a, d_a, size, size)
    return Case(label, family, _doc(nodes, "MPNV", n, rng, experiment=exp),
                rapid=rapid, bounds="exact")


# ---------------------------------------------------------------------------
# workloads


def mpnv_passive(rng: random.Random, tiny: bool) -> List[Case]:
    """The paper's three MPNV reference points on fresh placements."""
    size = 6 if tiny else 30
    return [mpnv_case(rng, f"mpnv{size}x{size}-na{n_a}", size, n_a, d_a)
            for (n_a, d_a) in PAPER_MPNV_RAPID_30X30]


def artifact_export(rng: random.Random, tiny: bool) -> List[Case]:
    """Reduced-activity MPNV, 16x16 up to the 7,080-emission 30x30 case.

    The smallest document recurs three times per cycle, so the median
    rests on several operations rather than on one long one.
    """
    small, mid, large = [mpnv_case(rng, f"export{s}x{s}", s, 6, 0.6, family="export")
                         for s in ((4, 5, 6) if tiny else (16, 22, 30))]
    return [small, mid, small, large, small]


def _polygon(rng: random.Random, count: int) -> List[Tuple[float, float]]:
    side = rng.uniform(20.0, 400.0)
    radius = side / (2.0 * math.sin(math.pi / count))
    jitter = 0.1 * side
    out = []
    for i in range(count):
        a = 2.0 * math.pi * i / count
        out.append((round(radius * math.cos(a) + rng.uniform(-jitter, jitter), 3),
                    round(radius * math.sin(a) + rng.uniform(-jitter, jitter), 3)))
    return out


def ring_case(rng: random.Random, count: int, n: int = 2) -> Case:
    nodes = [_node(i + 1, p, "Peer") for i, p in enumerate(_polygon(rng, count))]
    return Case(f"ring{count}", "ring-honest",
                _doc(nodes, "MultiPartyRing", n, rng),
                rapid=2 * count * n, bounds="exact", ring="honest")


def colluding_ring_case(rng: random.Random, count: int,
                        ring_order: Callable[[dict], Sequence[int]], n: int = 2) -> Case:
    """Two ring neighbours delay their two sends per round by unequal amounts.

    The ring order follows from the run's seed alone, so an honest dry
    run of the same document tells which ids sit next to each other.
    """
    case = ring_case(rng, count, n)
    order = ring_order(case.doc)
    k = rng.randrange(count)
    pair = (order[k], order[(k + 1) % count])
    for nid in pair:
        d1 = rng.choice((0.0, 5e-9, 10e-9, 25e-9))
        d2 = d1 + rng.choice((10e-9, 25e-9, 40e-9))
        per = {str(2 * r): d1 for r in range(n)}
        per.update({str(2 * r + 1): d2 for r in range(n)})
        case.doc["nodes"][nid - 1]["policy"] = {"kind": "SelectiveDelay", "per_message": per}
    return Case(f"ring{count}-colluding", "ring-colluding", case.doc,
                rapid=2 * count * n, ring="colluding")


def ring_solve(rng: random.Random, tiny: bool,
               ring_order: Callable[[dict], Sequence[int]]) -> List[Case]:
    """Honest rings at N = 8, 16, 32, 64 plus two colluding N = 8 rings.

    Three cases sit below the six N = 16 rings and three above, so the
    median is the middle of the N = 16 group and N = 64 sets the tail.
    """
    sizes = (4, 5, 4, 6) if tiny else (16, 8, 16, 32, 16, 64, 16, 32, 16, 16)
    cases = [ring_case(rng, k) for k in sizes]
    for _ in range(2):
        cases.append(colluding_ring_case(rng, 4 if tiny else 8, ring_order))
    return cases


def _oneway(rng: random.Random, n: int, observer: bool = True, auth: bool = False,
            verifier_policy: Optional[dict] = None,
            prover_policy: Optional[dict] = None, has_cert: bool = True,
            victim: bool = False) -> dict:
    # Within 60 m of the origin every leg sum stays under the 300 m a 1 us
    # early challenge removes, so that case always trips the same error.
    pts = scatter(rng, 3, 60.0)
    nodes = [_node(1, pts[0], "ActiveVerifier", verifier_policy),
             _node(2, pts[1], "Prover", prover_policy, has_cert)]
    if victim:
        nodes.append(_node(3, pts[2], "Prover"))
    elif observer:
        nodes.append(_node(3, pts[2], "PassiveVerifier"))
    return _doc(nodes, "OneWayDB", n, rng, auth=auth)


def _peers(rng: random.Random, count: int, radius: float) -> List[dict]:
    return [_node(i + 1, p, "Peer") for i, p in enumerate(scatter(rng, count, radius))]


def sweep_small(rng: random.Random, tiny: bool) -> List[Case]:
    """Many short runs across every protocol family and adversary."""
    cases: List[Case] = []
    for n in (3, 5, 8):
        cases.append(Case(f"oneway-n{n}", "oneway", _oneway(rng, n),
                          rapid=2 * n + 1, bounds="exact"))
    for n in (4, 6):
        cases.append(Case(f"oneway-auth-n{n}", "oneway", _oneway(rng, n, auth=True),
                          rapid=2 * n + 1, bounds="exact", auth=True))
    for n in (4, 7):
        cases.append(Case(f"mutual-n{n}", "mutual",
                          _doc(_peers(rng, 2, 80.0), "MutualInterleaved", n, rng),
                          rapid=2 * n + 1, bounds="exact"))
    for m in ((2, 8) if tiny else (2, 8, 32, 128)):
        n = 2
        cases.append(Case(f"onetomany-m{m}", "onetomany",
                          _doc(_peers(rng, m + 1, 40.0 + 4.0 * m), "OneToMany", n, rng),
                          rapid=n * (2 * m + 1), bounds="exact"))
    g1, g2, n = 2, 3, 2
    cases.append(Case("ntom-onetomany", "ntom",
                      _doc(_peers(rng, g1 + g2, 100.0), "NtoM-onetomany", n, rng,
                           experiment={"N": g1, "M": g2}),
                      rapid=g1 * n * (2 * g2 + 1), bounds="exact"))
    g1, g2, n, n_a, d = 4, 4, 4, 2, 0.5
    per = (2 * n_a + 1) * active_count(d, g1)
    cases.append(Case("ntom-passive", "ntom",
                      _doc(_peers(rng, g1 + g2, 100.0), "NtoM-passive", n, rng,
                           experiment={"N": g1, "M": g2, "d_1": d, "d_2": d,
                                       "n_a1": n_a, "n_a2": n_a}),
                      rapid=per * g2 + per * g1, bounds="exact"))
    for n in (4, 6):
        relay = {"kind": "Relay", "victim": 3}
        cases.append(Case(f"relay-n{n}", "relay",
                          _oneway(rng, n, prover_policy=relay, victim=True),
                          rapid=4 * n, bounds="no_shorter"))
        delay = {"kind": "SelectiveDelay", "delay_s": rng.choice((5e-9, 2e-8, 1e-7))}
        cases.append(Case(f"delay-n{n}", "delay",
                          _oneway(rng, n, observer=False, prover_policy=delay),
                          rapid=2 * n, bounds="no_shorter"))
    for adv in (2e-8, 1e-6):
        early = {"kind": "EarlyChallenge", "advance_s": adv, "pr_ch": 1.0}
        cases.append(Case(f"early-{adv:g}s", "early-challenge",
                          _oneway(rng, 5, verifier_policy=early),
                          rapid=11, bounds="active_exact"))
    cases.append(Case("uncertified-auth", "uncertified",
                      _oneway(rng, 4, observer=False, auth=True,
                              prover_policy={"kind": "NodeInsertion"}, has_cert=False),
                      refuse=True))
    return cases


def build(workload: str, seed: int, tiny: bool,
          ring_order: Callable[[dict], Sequence[int]]) -> List[Case]:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "mpnv-passive":
        return mpnv_passive(rng, tiny)
    if workload == "ring-solve":
        return ring_solve(rng, tiny, ring_order)
    if workload == "artifact-export":
        return artifact_export(rng, tiny)
    if workload == "sweep-small":
        return sweep_small(rng, tiny)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
