"""Oracles for benchmark operations, computed outside the code under test.

Ground truth is the straight-line distance between the positions in the
scenario document (``Case.distance``).  Rapid-message counts come from
the case: the paper's numbers or the benchmark's own closed forms.
Ring verdicts are judged against who actually misbehaved.  Artifact
digests are recomputed from the files on disk.  Nothing here calls
gdbsim.
"""
from __future__ import annotations

import copy
import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from workloads import Case

# Bound tolerance.  Local clocks carry offsets up to 1 s, so stamps sit
# near 1-2 s where one double ulp is 2.2e-16 s-4.4e-16 s, or up to
# 1.3e-7 m at light speed.  A bound combines a handful of stamps, so a
# few ulps of rounding stay well inside 1e-6 m; anything larger is an
# estimator error, not rounding.
TOL_M = 1e-6

# Exceptions that count as refusing an uncertified prover.
REFUSALS = ("UnknownKey", "AuthFailure")

# Failures the program is known to produce today.  They count toward
# fail_share like every other failure, but they do not make a run
# incorrect; any failure outside this table does.
KNOWN_DEFECTS = {
    ("ring-honest", "false_accusation"):
        "honest rings accuse honest nodes (ROADMAP item 2: normal-equation "
        "ToF solve on absolute stamps with a fixed 3 um threshold)",
    ("ring-honest", "shortfall"):
        "honest ring bounds fall short of the true distance (ROADMAP item 2)",
    ("ring-honest", "overshoot"):
        "honest ring bounds exceed the true distance (ROADMAP item 2)",
    ("ring-honest", "estimate_count"):
        "an honest ring observer's solve was rejected (ROADMAP item 2)",
    ("early-challenge", "raised:NegativeTimeOfFlight"):
        "a 1 us early challenge aborts the whole run (ROADMAP item 5)",
}


@dataclass
class Outcome:
    """What one operation produced, reduced to plain values."""

    error: Optional[str] = None
    estimates: List[Tuple[int, int, float, str, bool]] = field(default_factory=list)
    accused: Optional[List[int]] = None
    consistent: Optional[bool] = None
    rejections: List[str] = field(default_factory=list)
    emissions: Dict[str, int] = field(default_factory=dict)
    artifacts: Dict[str, str] = field(default_factory=dict)
    artifact_bytes: int = 0

    @property
    def rapid(self) -> int:
        return sum(v for k, v in self.emissions.items() if k.startswith("rapid/"))

    @property
    def total_emissions(self) -> int:
        return sum(self.emissions.values())

    def summary(self) -> dict:
        """Canonical, path-free form used for the output digests."""
        return {
            "error": self.error,
            "bounds": [[m, t, repr(b), meth, auth] for m, t, b, meth, auth in self.estimates],
            "accused": self.accused,
            "consistent": self.consistent,
            "rejections": self.rejections,
            "emissions": self.emissions,
            "artifacts": {k: v for k, v in self.artifacts.items() if k != "manifest.json"},
        }


def outcome_of(result, error: Optional[BaseException] = None) -> Outcome:
    if error is not None:
        return Outcome(error=type(error).__name__)
    counts = Counter(f"{em.phase}/{em.kind}" for em in result.trace.emissions)
    det = result.detection
    return Outcome(
        estimates=sorted((e.measurer, e.target, e.bound_m, e.method, e.verified_auth)
                         for e in result.estimates),
        accused=sorted(det.accused) if det is not None else None,
        consistent=det.consistent if det is not None else None,
        rejections=list(result.rejections),
        emissions=dict(sorted(counts.items())),
    )


def digest(summaries: List[dict]) -> str:
    return hashlib.sha256(json.dumps(summaries, sort_keys=True).encode()).hexdigest()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def expected_pairs(case: Case) -> Optional[int]:
    """Directional bounds a complete run of this case publishes."""
    doc = case.doc
    roles = Counter(n["role"] for n in doc["nodes"])
    proto = doc["protocol"]
    exp = doc.get("experiment", {})
    if proto == "MPNV":
        return exp["N"] * exp["M"]
    if proto == "MultiPartyRing":
        k = len(doc["nodes"])
        return k * (k - 1)
    if proto in ("MutualInterleaved", "OneToMany"):
        return 2 * (len(doc["nodes"]) - 1)
    if proto in ("NtoM-onetomany", "NtoM-passive"):
        return 2 * exp["N"] * exp["M"]
    if proto == "OneWayDB":
        return 1 + roles["PassiveVerifier"]
    return None


@dataclass
class Verdict:
    reasons: List[str]
    shortfall_m: Optional[float]     # None when the case has no checked bound
    false_accusations: int = 0
    missed_detections: int = 0


def check(case: Case, out: Outcome) -> Verdict:
    """Every way this operation broke its case's oracle."""
    reasons: List[str] = []
    if case.refuse:
        if out.error is None and any(auth for *_, auth in out.estimates):
            reasons.append("accepted_uncertified")
        elif out.error is not None and out.error not in REFUSALS:
            reasons.append(f"raised:{out.error}")
        return Verdict(reasons, None)
    if out.error is not None:
        return Verdict([f"raised:{out.error}"], None)

    if case.rapid is not None and out.rapid != case.rapid:
        reasons.append("rapid_count")
    want = expected_pairs(case)
    if want is not None and len(out.estimates) != want:
        reasons.append("estimate_count")
    if case.auth and not all(auth for *_, auth in out.estimates):
        reasons.append("auth_not_verified")

    worst: Optional[float] = None
    for m, t, b, method, _ in out.estimates:
        mode = case.bounds
        if mode == "active_exact":
            mode = "exact" if method == "active" else None
        if mode is None:
            continue
        d = case.distance(m, t)
        worst = max(worst if worst is not None else 0.0, d - b)
        if b < d - TOL_M:
            reasons.append("shortfall")
        elif mode == "exact" and b > d + TOL_M:
            reasons.append("overshoot")

    verdict = Verdict(sorted(set(reasons)), worst)
    if case.ring == "honest" and out.accused:
        verdict.reasons.append("false_accusation")
        verdict.false_accusations = len(out.accused)
    if case.ring == "colluding" and out.consistent:
        verdict.reasons.append("missed_detection")
        verdict.missed_detections = 1
    return verdict


def check_artifacts(out_dir: Path, returned: Dict[str, str],
                    reference: Optional[Dict[str, str]], out: Outcome) -> List[str]:
    """Manifest digests must match the files, the return value and setup."""
    reasons = []
    manifest_path = out_dir / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text())
        listed = {a["name"]: a["sha256"] for a in manifest["artifacts"]}
        on_disk = {name: sha256_file(out_dir / name) for name in listed}
        on_disk["manifest.json"] = sha256_file(manifest_path)
    except (OSError, ValueError, KeyError, TypeError):
        return ["artifact_unreadable"]
    if any(on_disk[name] != sha for name, sha in listed.items()):
        reasons.append("artifact_digest")
    if on_disk != returned:
        reasons.append("artifact_return_digest")
    if reference is not None and on_disk != reference:
        reasons.append("artifact_differs_from_setup")
    mine = [(m, t, repr(b)) for m, t, b, *_ in out.estimates]
    try:
        if _parse_bounds_csv(out_dir / "bounds.csv") != mine:
            reasons.append("bounds_csv")
    except ValueError:
        reasons.append("bounds_csv")
    return reasons


def _parse_bounds_csv(path: Path) -> List[Tuple[int, int, str]]:
    rows = path.read_text().splitlines()[1:]
    out = []
    for row in rows:
        m, t, b = row.split(",")[:3]
        out.append((int(m), int(t), repr(float(b))))
    return sorted(out)


def classify(family: str, reasons: List[str]) -> Tuple[List[str], List[str]]:
    """Split failure reasons into (known defects, unexpected)."""
    known = [r for r in reasons if (family, r) in KNOWN_DEFECTS]
    return known, [r for r in reasons if (family, r) not in KNOWN_DEFECTS]


# ---------------------------------------------------------------------------
# self-tests: each planted fault must register as a failure


def self_test(case: Case, out: Outcome, out_dir: Optional[Path] = None,
              returned: Optional[Dict[str, str]] = None) -> List[str]:
    """Plant faults into a copy of a good outcome; return the ones missed."""
    missed = []
    checked = [i for i, (m, t, b, meth, _) in enumerate(out.estimates)
               if case.bounds == "exact" or (case.bounds is not None and meth == "active")]
    if checked:
        bad = copy.deepcopy(out)
        m, t, _, meth, auth = bad.estimates[checked[0]]
        bad.estimates[checked[0]] = (m, t, case.distance(m, t) - 1e-3, meth, auth)
        if "shortfall" not in check(case, bad).reasons:
            missed.append("shortened bound")
    if case.rapid is not None and out.error is None:
        bad = copy.deepcopy(out)
        key = next(k for k in bad.emissions if k.startswith("rapid/"))
        bad.emissions[key] += 1
        if "rapid_count" not in check(case, bad).reasons:
            missed.append("wrong count")
    if out_dir is not None:
        target = out_dir / "bounds.csv"
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0x01
        target.write_bytes(bytes(data))
        if "artifact_digest" not in check_artifacts(out_dir, returned, None, out):
            missed.append("flipped artifact byte")
    return missed
