"""gdbsim benchmark: closed-loop scenario runs with oracles and tracing.

One process, one client, one operation at a time.  An operation takes
one scenario JSON document to a RunResult through gdbsim's public entry
points (``core.scenario_from_json`` then ``proto.run_scenario``), or on
``artifact-export`` to written artifacts (``core.load_scenario``,
``proto.run_scenario``, ``cli.write_run_artifacts``).  Operations run in
whole cycles over the workload's seeded case list, so every run sees the
same mix and every deterministic output repeats for a given seed.
The result line's ``attempted`` and ``failed`` count the first cycle;
every later cycle must reproduce its outcomes exactly, so those counts
depend on the seed alone, not on how many cycles fit the time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ring-solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20 [--trace 1]
    python3 perfbench/run.py --smoke

The last line of a single-workload run is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

import calibrate
import oracles
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work" / str(os.getpid())
SETUP_MIN_REPS = 3    # setup_s is the median of at least this many set-ups,
SETUP_MAX_REPS = 15   # and of more, up to this many, while they have
SETUP_MIN_S = 2.0     # taken less wall time than this in all
RUN_CAP_S = 150.0     # stop starting cycles after this long, whatever --seconds says

perf_counter = time.perf_counter


class BenchError(Exception):
    """The benchmark cannot run here; nothing is reported."""


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def import_gdbsim():
    """Import gdbsim afresh from this checkout's src/ and return the package."""
    for name in [m for m in sys.modules if m == "gdbsim" or m.startswith("gdbsim.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        gdbsim = importlib.import_module("gdbsim")
        for sub in ("gdbsim.cli", "gdbsim.analysis", "gdbsim.proto", "gdbsim.simkit"):
            importlib.import_module(sub)
    except ImportError as exc:
        raise BenchError(f"cannot import gdbsim from {SRC}: {exc}") from exc
    if not Path(gdbsim.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"gdbsim imported from {gdbsim.__file__}, not from {SRC}")
    return gdbsim


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# one operation


class Runner:
    """Runs one case through gdbsim's public entry points and times it."""

    def __init__(self, gdbsim, export: bool) -> None:
        self.g = gdbsim
        self.export = export

    def paths(self, slot: int):
        doc = Path(os.path.relpath(WORK / f"case{slot}.json"))
        return doc, Path(os.path.relpath(WORK / f"case{slot}"))

    def op(self, slot: int, case: workloads.Case):
        """(start, end, result, error, digests returned by the artifact writer)."""
        g = self.g
        returned = None
        if self.export:
            doc_path, out_dir = self.paths(slot)
            shutil.rmtree(out_dir, ignore_errors=True)
        t0 = perf_counter()
        try:
            if self.export:
                doc_path.write_text(case.text)
                scn = g.core.load_scenario(str(doc_path))
                result = g.proto.run_scenario(scn)
                returned = g.cli.write_run_artifacts(result, str(doc_path), scn.rng_seed, out_dir)
            else:
                result = g.proto.run_scenario(g.core.scenario_from_json(case.text))
            error = None
        except Exception as exc:    # an operation's failure is recorded, the run goes on
            result, error = None, exc
        return t0, perf_counter(), result, error, returned


# ---------------------------------------------------------------------------
# one workload run


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, traced: bool,
                 tiny: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.tiny = tiny
        self.export = workload == "artifact-export"
        self.reference: Dict[int, dict] = {}          # slot -> outcome summary
        self.ref_files: Dict[int, Dict[str, str]] = {}
        self.recorder = tracing.Recorder()
        self.speed = calibrate.Speed(on_sample=self.recorder.exclude)
        self.setup_spans: List[tuple] = []            # (start, end) of each setup
        self.self_test_missed: List[str] = []
        self.attempted = 0                    # every operation of the run
        self.failed = 0
        self.cycle_attempted = 0              # the first cycle's operations
        self.cycle_failed = 0
        self.known: Counter = Counter()
        self.unexpected: Counter = Counter()
        self.unexpected_examples: List[str] = []
        self.ops: List[tuple] = []            # (start, end, traced, emissions)
        self.shortfall = 0.0
        self.first_cycle: List[dict] = []
        self.artifact_bytes: List[int] = []
        self.totals = {"self": Counter(), "calls": Counter(), "count": Counter()}
        self.cycles = 0

    # -- setup -------------------------------------------------------------

    def setup(self) -> None:
        """Import, generate and warm up, repeatedly; keep the last import.

        Short set-ups are repeated more often, so that their median rests
        on enough samples.  The repetitions take turns over the cycle's
        first SETUP_MIN_REPS distinct documents, whose outputs become the
        reference later operations on the same document must reproduce.
        """
        rep, start = 0, perf_counter()
        while rep < SETUP_MIN_REPS or (
                rep < SETUP_MAX_REPS and perf_counter() - start < SETUP_MIN_S):
            t0 = perf_counter()
            g = import_gdbsim()
            cases = workloads.build(self.workload, self.seed, self.tiny,
                                    lambda doc: self._ring_order(g, doc))
            slots = {}
            for case in cases:
                slots.setdefault(case.text, len(slots))
            runner = Runner(g, self.export)
            slot = rep % min(len(slots), SETUP_MIN_REPS)
            case = next(c for c in cases if slots[c.text] == slot)
            _, t1, result, error, returned = runner.op(slot, case)
            self.setup_spans.append((t0, t1))
            out = oracles.outcome_of(result, error)
            out_dir = runner.paths(slot)[1] if self.export and error is None else None
            if out_dir is not None:
                out.artifacts = {p.name: oracles.sha256_file(p) for p in out_dir.iterdir()}
                self.ref_files[slot] = dict(out.artifacts)
            if self.reference.setdefault(slot, out.summary()) != out.summary():
                self.unexpected["nondeterministic"] += 1
            if rep == 0:
                self.self_test_missed = oracles.self_test(case, out, out_dir, returned)
            rep += 1
        self.g, self.cases, self.slots, self.runner = g, cases, slots, runner

    @staticmethod
    def _ring_order(g, doc: dict):
        honest = dict(doc, nodes=[{k: v for k, v in n.items() if k != "policy"}
                                  for n in doc["nodes"]])
        return g.proto.run_scenario(g.core.scenario_from_json(json.dumps(honest))).ring_order

    # -- timed phase ---------------------------------------------------------

    def measure(self) -> None:
        recorder = self.recorder
        patches = tracing.Patches(self.g, recorder) if self.traced else None
        start = perf_counter()
        min_cycles = 2 if self.traced else 1
        while True:
            traced_cycle = self.traced and self.cycles % 2 == 1
            t_cycle = perf_counter()
            if traced_cycle:
                patches.install()
            try:
                for case in self.cases:
                    self._one(self.slots[case.text], case, recorder if traced_cycle else None)
            finally:
                if traced_cycle:
                    patches.remove()
            self.cycles += 1
            now = perf_counter()
            if self.cycles >= min_cycles and (
                    now - start + (now - t_cycle) / 2 >= self.seconds
                    or now - start >= RUN_CAP_S):
                break

    def _one(self, slot: int, case: workloads.Case, recorder) -> None:
        if recorder is not None:
            recorder.reset()
        t0, t1, result, error, returned = self.runner.op(slot, case)

        out = oracles.outcome_of(result, error)
        verdict = oracles.check(case, out)
        mismatch = 0
        if result is not None and case.rapid is not None:
            mismatch = int(not self.g.analysis.reconcile(result.trace, case.rapid).matches)
        if self.export and error is None:
            out_dir = self.runner.paths(slot)[1]
            out.artifacts = {p.name: oracles.sha256_file(p) for p in out_dir.iterdir()}
            out.artifact_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
            verdict.reasons += oracles.check_artifacts(
                out_dir, returned, self.ref_files.get(slot), out)
        summary = out.summary()
        if self.reference.setdefault(slot, summary) != summary:
            verdict.reasons.append("nondeterministic")
        del result

        self.attempted += 1
        self.ops.append((t0, t1, recorder is not None, out.total_emissions))
        if verdict.shortfall_m is not None:
            self.shortfall = max(self.shortfall, verdict.shortfall_m)
        if verdict.reasons:
            self.failed += 1
            known, unexpected = oracles.classify(case.family, verdict.reasons)
            self.known.update(known)
            self.unexpected.update(unexpected)
            if unexpected and len(self.unexpected_examples) < 5:
                detail = f": {error}" if error is not None else ""
                self.unexpected_examples.append(f"{case.label} {unexpected}{detail}")
        if self.cycles == 0:
            self.cycle_attempted += 1
            self.cycle_failed += bool(verdict.reasons)
            self.first_cycle.append(summary)
            self.artifact_bytes.append(out.artifact_bytes)
        if recorder is not None:
            recorder.counts["false_accusations"] += verdict.false_accusations
            recorder.counts["missed_detections"] += verdict.missed_detections
            recorder.counts["count_mismatches"] += mismatch
            self.totals["self"].update(recorder.self_s)
            self.totals["calls"].update(recorder.calls)
            self.totals["count"].update(recorder.counts)

    # -- results ---------------------------------------------------------------

    def _seconds(self, traced: bool):
        """Wall seconds, reference seconds and emissions of the untraced or traced operations."""
        ops = [op for op in self.ops if op[2] == traced]
        wall = [self.speed.wall(t0, t1) for t0, t1, _, _ in ops]
        ref = [self.speed.seconds(t0, t1) for t0, t1, _, _ in ops]
        return wall, ref, sum(op[3] for op in ops)

    def end_to_end(self) -> Dict[str, dict]:
        wall, ref, emissions = self._seconds(traced=False)
        setup_wall = [self.speed.wall(t0, t1) for t0, t1 in self.setup_spans]
        setup_ref = [self.speed.seconds(t0, t1) for t0, t1 in self.setup_spans]
        ordered = sorted(ref)
        n = len(ordered)
        tail = {"value": None, "unit": "s", "percentile": None, "samples": n}
        if n >= 11:
            tail.update(value=ordered[n - 11], percentile=round(100.0 * (n - 10) / n, 2))
        artifact_mb = statistics.fmean(self.artifact_bytes) / 1e6 if self.export else None
        return {
            "run_p50_s": {"value": statistics.median(ref), "unit": "s"},
            "run_tail_s": tail,
            "emissions_per_s": {"value": emissions / sum(ref), "unit": "1/s"},
            "fail_share": {"value": self.failed / self.attempted, "unit": "ratio"},
            "max_shortfall_m": {"value": self.shortfall, "unit": "m"},
            "artifact_mb": {"value": artifact_mb, "unit": "MB"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
            "run_p50_wall_s": {"value": statistics.median(wall), "unit": "s"},
            "emissions_per_wall_s": {"value": emissions / sum(wall), "unit": "1/s"},
            "setup_wall_s": {"value": statistics.median(setup_wall), "unit": "s"},
            "machine_speed": {"value": self.speed.machine_speed(), "unit": "ratio"},
        }

    def per_layer(self) -> Dict[str, dict]:
        _, traced_ref, _ = self._seconds(traced=True)
        _, plain_ref, _ = self._seconds(traced=False)
        values = tracing.layer_values(self.totals, len(traced_ref))
        out = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in tracing.LAYER_METRICS.items()}
        traced, plain = statistics.fmean(traced_ref), statistics.fmean(plain_ref)
        out["trace.overhead_s"] = {"value": traced - plain, "unit": "s/op"}
        out["trace.overhead_share"] = {"value": traced / plain - 1.0, "unit": "ratio"}
        return out

    def correct(self) -> bool:
        return not self.unexpected and not self.self_test_missed


def run_workload(args, spec: dict) -> int:
    env = env_stamp()
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
        run.speed.start()
        try:
            run.setup()
            run.measure()
        finally:
            run.speed.stop()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:     # another run still uses it, or it is gone
            pass

    e2e = run.end_to_end()
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tiny": args.tiny, "cycles": run.cycles, "cases": len(run.cases),
        "operations": run.attempted, "operations_failed": run.failed,
        "end_to_end": e2e,
        "outputs_digest": oracles.digest(run.first_cycle),
        "failures": {"known": dict(run.known), "unexpected": dict(run.unexpected),
                     "examples": run.unexpected_examples},
        "self_test_missed": run.self_test_missed,
        "env": env,
    }
    if args.trace:
        layers = run.per_layer()
        detail["per_layer"] = layers
        wanted = spec["per_layer"]
    else:
        layers = e2e
        wanted = spec["end_to_end"]
    for name, m in e2e.items():
        extra = f"  (p{m['percentile']} of {m['samples']} samples)" if name == "run_tail_s" else ""
        print(f"{args.workload:16s} {name:26s} {_fmt(m['value']):>14s} {m['unit']}{extra}")
    if args.trace:
        for name, m in layers.items():
            print(f"{args.workload:16s} {name:26s} {_fmt(m['value']):>14s} {m['unit']}")
    print(f"{args.workload:16s} outputs_digest {detail['outputs_digest']}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": run.correct(),
        "attempted": run.cycle_attempted,
        "failed": run.cycle_failed,
        "metrics": {m["name"]: {"value": layers[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


def _fmt(v) -> str:
    return "n/a" if v is None else f"{v:.6g}"


# ---------------------------------------------------------------------------
# all workloads, and the smoke check


def _child(workload: str, seed: int, seconds: float, trace: int, tiny: bool):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    except subprocess.TimeoutExpired as exc:     # run() has killed and reaped the child
        raise BenchError(f"{workload} ran past {exc.timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise BenchError(f"{workload} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc, json.loads(lines[-2])["detail"], json.loads(lines[-1])


def run_all(args) -> int:
    """Every workload in its own process, one after another; one table."""
    print(f"{'workload':16s} {'metric':26s} {'value':>14s} unit")
    ok = True
    for workload in workloads.WORKLOADS:
        proc, detail, result = _child(workload, args.seed, args.seconds, args.trace, args.tiny)
        ok = ok and result["correct"]
        for line in proc.stdout.strip().splitlines()[:-2]:
            print(line)
        print(f"{workload:16s} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} known={detail['failures']['known']} "
              f"unexpected={detail['failures']['unexpected']}")
    return 0 if ok else 1


def smoke(args, spec: dict) -> int:
    """Tiny runs of every workload; every named metric must carry a unit."""
    e2e_names = ("run_p50_s", "run_tail_s", "emissions_per_s", "fail_share",
                 "max_shortfall_m", "artifact_mb", "peak_rss_mb", "setup_s")
    problems = []
    for trace in (0, 1):
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        for workload in workloads.WORKLOADS:
            _, detail, result = _child(workload, args.seed, 1, trace, True)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{workload}: result keys {sorted(result)}")
            if not result["correct"]:
                problems.append(f"{workload}: not correct: {detail['failures']} "
                                f"{detail['self_test_missed']}")
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if (got is None or got.get("unit") != m["unit"]
                        or not isinstance(got.get("value"), (int, float))):
                    problems.append(f"{workload} trace={trace}: metric {m['name']} is {got}")
            for name in e2e_names:
                if not detail["end_to_end"].get(name, {}).get("unit"):
                    problems.append(f"{workload}: end-to-end {name} has no unit")
            print(f"smoke {workload:16s} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
    for p in problems:
        print(f"smoke problem: {p}")
    print("smoke ok" if not problems else f"smoke FAILED: {len(problems)} problems")
    return 0 if not problems else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny cases, for the smoke check")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload, checking every metric is named")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if not SRC.joinpath("gdbsim", "__init__.py").exists():
            raise BenchError(f"no gdbsim sources under {SRC}")
        if args.smoke:
            return smoke(args, spec)
        if args.all:
            return run_all(args)
        if args.workload is None:
            parser.error("one of --workload, --all or --smoke is required")
        return run_workload(args, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
