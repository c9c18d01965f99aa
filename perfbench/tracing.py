"""Span recorder that wraps gdbsim's layer entry points from outside.

Each wrapper replaces a name where its callers look it up: a module
attribute for names the drivers import directly (the ring driver does
``from ..estimate import solve_tof``, so the wrapper goes on
``gdbsim.proto.ring.solve_tof``), or a class attribute for methods.
Hot leaf calls such as ``Trace.arrival_local`` stay unwrapped.

Spans nest on a stack.  A span's self time is its duration minus the
durations of the spans it directly encloses, so the self times of one
operation add up to its traced duration.  Spans are folded into
per-name totals as they close; the recorder keeps one operation's
totals in memory and the caller folds them into per-run sums.
"""
from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter

# Per-layer metrics in report order: name -> (unit, how to read it).
# ("self", span) is summed self time, ("calls", span) a call count and
# ("count", key) a counter fed by a result hook or by the oracle.
LAYER_METRICS: Dict[str, Tuple[str, Tuple[str, str]]] = {
    "proto.passive_pricing_s": ("s/op", ("self", "proto.passive_pricing")),
    "proto.passive_pricings": ("count/op", ("count", "passive_pricings")),
    "proto.passive_rounds": ("count/op", ("count", "passive_rounds")),
    "estimate.tof_build_s": ("s/op", ("self", "estimate.tof_build")),
    "estimate.tof_solve_s": ("s/op", ("self", "estimate.tof_solve")),
    "estimate.tof_solves": ("count/op", ("calls", "estimate.tof_solve")),
    "estimate.tof_rows": ("count/op", ("count", "tof_rows")),
    "estimate.tof_unknowns": ("count/op", ("count", "tof_unknowns")),
    "estimate.solve_failures": ("count/op", ("count", "solve_failures")),
    "threat.false_accusations": ("count/op", ("count", "false_accusations")),
    "threat.missed_detections": ("count/op", ("count", "missed_detections")),
    "threat.cross_check_s": ("s/op", ("self", "threat.cross_check")),
    "simkit.broadcast_s": ("s/op", ("self", "simkit.broadcast")),
    "simkit.broadcasts": ("count/op", ("calls", "simkit.broadcast")),
    "simkit.export_s": ("s/op", ("self", "simkit.export")),
    "simkit.export_lines": ("count/op", ("count", "export_lines")),
    "simkit.trace_mb": ("MB/op", ("count", "export_mb")),
    "cli.artifacts_self_s": ("s/op", ("self", "cli.artifacts")),
    "core.parse_s": ("s/op", ("self", "core.parse")),
    "core.validate_s": ("s/op", ("self", "core.validate")),
    "core.validate_calls": ("count/op", ("calls", "core.validate")),
    "simkit.channel_build_s": ("s/op", ("self", "simkit.channel_build")),
    "crypto.commit_s": ("s/op", ("self", "crypto.commit")),
    "crypto.commits": ("count/op", ("calls", "crypto.commit")),
    "crypto.sign_verify_s": ("s/op", ("self", "crypto.sign_verify")),
    "threat.policy_calls": ("count/op", ("calls", "threat.policy")),
    "proto.driver_self_s": ("s/op", ("self", "proto.driver")),
    "proto.exchange_s": ("s/op", ("self", "proto.exchange")),
    "proto.exchanges": ("count/op", ("calls", "proto.exchange")),
    "proto.chain_s": ("s/op", ("self", "proto.chain")),
    "analysis.count_mismatches": ("count/op", ("count", "count_mismatches")),
}


class Recorder:
    """Nested span timing for one operation at a time."""

    def __init__(self) -> None:
        self._stack: List[List[float]] = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def exclude(self, seconds: float) -> None:
        """Take time spent on something else out of the innermost open span."""
        if self._stack:
            self._stack[-1][0] += seconds

    def reset(self) -> None:
        self._stack.clear()
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None,
             on_error: Optional[Callable] = None) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        counts = self.counts

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(counts, exc)
                raise
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self_s[name] += dur - child[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += dur
            if on_result is not None:
                on_result(counts, out)
            return out

        traced.__wrapped__ = fn
        return traced


def _pricing_result(counts: Counter, obs) -> None:
    counts["passive_pricings"] += 1
    counts["passive_rounds"] += len(obs)


def _tof_result(counts: Counter, system) -> None:
    counts["tof_rows"] += len(system.rows)
    counts["tof_unknowns"] += len(system.unknowns)


def _solve_error(counts: Counter, exc: BaseException) -> None:
    if type(exc).__name__ in ("SolveFailure", "IncompleteCycle"):
        counts["solve_failures"] += 1


def _export_result(counts: Counter, text: str) -> None:
    counts["export_lines"] += text.count("\n")
    counts["export_mb"] += len(text) / 1e6


def _targets(gdbsim) -> List[Tuple[object, str, str, Optional[Callable], Optional[Callable]]]:
    """(owner, attribute, span name, result hook, error hook) to patch."""
    proto = gdbsim.proto
    pairwise, group = proto.pairwise, proto.group
    ring, onetomany, base = proto.ring, proto.onetomany, proto.base
    simkit, crypto, threat = gdbsim.simkit, gdbsim.crypto, gdbsim.threat
    out = [
        (gdbsim.core, "scenario_from_json", "core.parse", None, None),
        (gdbsim.core, "validate_scenario", "core.validate", None, None),
        (proto, "run_scenario", "proto.driver", None, None),
        (base, "BroadcastChannel", "simkit.channel_build", None, None),
        (simkit.BroadcastChannel, "broadcast", "simkit.broadcast", None, None),
        (simkit.Trace, "to_jsonl", "simkit.export", _export_result, None),
        (crypto.KeyRegistry, "sign", "crypto.sign_verify", None, None),
        (crypto.KeyRegistry, "verify", "crypto.sign_verify", None, None),
        (threat.SelectiveDelay, "delay_for", "threat.policy", None, None),
        (ring, "cross_check_detect", "threat.cross_check", None, None),
        (ring, "build_tof_system", "estimate.tof_build", _tof_result, _solve_error),
        (ring, "solve_tof", "estimate.tof_solve", None, _solve_error),
        (gdbsim.cli, "write_run_artifacts", "cli.artifacts", None, None),
    ]
    for mod in (pairwise, group, ring, onetomany):
        out.append((mod, "commit", "crypto.commit", None, None))
    for mod in (pairwise, ring, onetomany):
        out.append((mod, "apply_policy", "threat.policy", None, None))
    for mod in (pairwise, group):
        out.append((mod, "passive_observations", "proto.passive_pricing", _pricing_result, None))
        out.append((mod, "observed_bound", "proto.passive_pricing", None, None))
        out.append((mod, "run_exchange", "proto.exchange", None, None))
    out.append((pairwise, "_run_relay_exchange", "proto.exchange", None, None))
    out.append((pairwise, "_interleaved_rapid", "proto.exchange", None, None))
    for mod in (onetomany, group):
        out.append((mod, "run_chain", "proto.chain", None, None))
    return out


class Patches:
    """Install and remove the wrappers on one imported gdbsim."""

    def __init__(self, gdbsim, recorder: Recorder) -> None:
        self._saved = []
        for owner, attr, name, on_result, on_error in _targets(gdbsim):
            self._saved.append((owner, attr, owner.__dict__[attr],
                                recorder.wrap(name, getattr(owner, attr), on_result, on_error)))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._saved:
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, original, _ in self._saved:
            setattr(owner, attr, original)


def layer_values(totals: Dict[str, Counter], ops: int) -> Dict[str, float]:
    """Per-operation means of every per-layer metric."""
    out = {}
    for metric, (_, (kind, key)) in LAYER_METRICS.items():
        out[metric] = totals[kind][key] / ops if ops else 0.0
    return out
