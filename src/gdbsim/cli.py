"""Command line front end: run scenarios, sweep seeds, emit figures, verify.

Exit codes are fixed for scripting: 0 success, 2 input or validation
error, 3 protocol or solver error during a run.  Every artifact is
plain JSON, JSON lines, or CSV so any toolchain can pick it up; the
manifest records a sha256 digest per artifact, and a rerun of the same
scenario and seed reproduces the digests bit for bit.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from operator import itemgetter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .acceptance import format_table, run_suite, suite_ok
from .analysis import FIGURES, UnknownFigure, emit_figure_data
from .core import (
    GdbSimError,
    Scenario,
    ScenarioFormatError,
    ScenarioInvalid,
    ensure_valid,
    load_scenario,
)
from .proto.base import RunResult
from .proto.runner import run_scenario

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PROTOCOL = 3


def _fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_hashed(path: Path, text: str) -> str:
    """Write text to path; returns the sha256 of the bytes written."""
    data = text.encode()
    path.write_bytes(data)
    return _sha256(data)


def _load(path: str, seed: Optional[int]) -> Scenario:
    scn = load_scenario(path)
    if seed is not None:
        scn = dataclasses.replace(scn, rng_seed=seed)
    return scn


def _bounds_csv(result: RunResult) -> str:
    est = result.estimates
    rows = sorted(zip(est.measurer, est.target, est.bound_m, est.method, est.verified_auth),
                  key=itemgetter(0, 1))
    lines = ["measurer,target,bound_m,method,auth_ok"]
    lines += [f"{m},{t},{bound!r},{method},{'true' if auth else 'false'}"
              for m, t, bound, method, auth in rows]
    return "\n".join(lines) + "\n"


def _detection_json(result: RunResult) -> str:
    doc = {
        "detection": result.detection.to_dict() if result.detection else None,
        "rejections": list(result.rejections),
        "ring_order": list(result.ring_order) if result.ring_order else None,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_run_artifacts(result: RunResult, scenario_path: str, seed: int,
                        out_dir: Path) -> Dict[str, str]:
    """Write the four run artifacts; returns {name: sha256}."""
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = {
        "trace.jsonl": result.trace.to_jsonl(),
        "bounds.csv": _bounds_csv(result),
        "detection.json": _detection_json(result),
    }
    digests = {name: _write_hashed(out_dir / name, text) for name, text in artifacts.items()}
    manifest = {
        "scenario": scenario_path,
        "seed": seed,
        "out_dir": str(out_dir),
        "artifacts": [
            {"name": name, "sha256": digests[name]} for name in sorted(digests)
        ],
    }
    digests["manifest.json"] = _write_hashed(
        out_dir / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return digests


def _run_one(scenario_path: str, seed: Optional[int], out_dir: Path) -> Dict[str, str]:
    scn = _load(scenario_path, seed)
    result = run_scenario(scn)
    return write_run_artifacts(result, scenario_path, scn.rng_seed, out_dir)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        digests = _run_one(args.scenario, args.seed, Path(args.out))
    except (ScenarioFormatError, ScenarioInvalid, OSError) as exc:
        _fail(str(exc))
        return EXIT_INPUT
    except GdbSimError as exc:
        _fail(f"protocol: {exc}")
        return EXIT_PROTOCOL
    for name in sorted(digests):
        print(f"{digests[name]}  {Path(args.out) / name}")
    return EXIT_OK


def _sweep_task(task: Tuple[str, int, str]) -> Tuple[str, Dict[str, str]]:
    scenario_path, seed, run_dir = task
    try:
        return run_dir, _run_one(scenario_path, seed, Path(run_dir))
    except GdbSimError as exc:
        raise GdbSimError(f"{scenario_path} seed {seed}: {exc}") from exc


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError:
        _fail(f"--seeds must be a comma-separated integer list, got {args.seeds!r}")
        return EXIT_INPUT
    if not seeds:
        _fail("--seeds named no seeds")
        return EXIT_INPUT
    # each run writes out/{stem}-seed{seed}: a repeated seed or a shared
    # stem would write one directory twice
    repeated = sorted({seed for seed in seeds if seeds.count(seed) > 1})
    if repeated:
        _fail(f"--seeds repeats {', '.join(map(str, repeated))}; each seed may appear once")
        return EXIT_INPUT
    by_stem: Dict[str, List[str]] = {}
    for path in args.scenarios:
        by_stem.setdefault(Path(path).stem, []).append(path)
    for stem, paths in sorted(by_stem.items()):
        if len(paths) > 1:
            _fail(f"{' and '.join(paths)} share the run directory name {stem!r}; "
                  f"rename all but one")
            return EXIT_INPUT
    if args.workers < 1:
        _fail(f"--workers must be at least 1, got {args.workers}")
        return EXIT_INPUT
    out = Path(args.out)
    tasks: List[Tuple[str, int, str]] = []
    for path in args.scenarios:
        try:
            ensure_valid(_load(path, None))    # refuse every bad input before fanning out
        except (ScenarioFormatError, ScenarioInvalid, OSError) as exc:
            _fail(str(exc))
            return EXIT_INPUT
        stem = Path(path).stem
        for seed in seeds:
            tasks.append((path, seed, str(out / f"{stem}-seed{seed}")))

    # a failed sweep removes the run directories it created, once no run is
    # still writing, so what is left does not depend on the worker count
    fresh = [run_dir for _, _, run_dir in tasks if not Path(run_dir).exists()]
    results: List[Tuple[str, Dict[str, str]]] = []
    try:
        if args.workers > 1:
            with ProcessPoolExecutor(max_workers=args.workers) as pool:
                results = list(pool.map(_sweep_task, tasks))
        else:
            results = [_sweep_task(t) for t in tasks]
    except (GdbSimError, OSError) as exc:
        for run_dir in fresh:
            shutil.rmtree(run_dir, ignore_errors=True)
        if isinstance(exc, GdbSimError):
            _fail(f"protocol: {exc}")
            return EXIT_PROTOCOL
        _fail(str(exc))    # a run directory that cannot be written, as gdbsim run reports it
        return EXIT_INPUT

    merged_rows = ["run,measurer,target,bound_m,method,auth_ok"]
    for run_dir, _ in sorted(results):
        body = (Path(run_dir) / "bounds.csv").read_text().splitlines()[1:]
        rel = Path(run_dir).name
        merged_rows.extend(f"{rel},{row}" for row in body)
    merged_csv = ("\n".join(merged_rows) + "\n").encode()
    out.mkdir(parents=True, exist_ok=True)
    (out / "merged_bounds.csv").write_bytes(merged_csv)
    manifest = {
        "runs": [
            {"dir": Path(run_dir).name, "artifacts": digests}
            for run_dir, digests in sorted(results)
        ],
        "merged_bounds.csv": _sha256(merged_csv),
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )
    print(f"{len(results)} runs merged into {out}")
    return EXIT_OK


def cmd_figures(args: argparse.Namespace) -> int:
    try:
        csv_text = emit_figure_data(args.which)
    except UnknownFigure as exc:
        _fail(str(exc))
        return EXIT_INPUT
    path = Path(args.out) / f"fig{args.which}.csv"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(csv_text)
    except OSError as exc:
        _fail(str(exc))
        return EXIT_INPUT
    print(f"{_sha256(csv_text.encode())}  {path}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(quick=not args.full)
    print(format_table(results))
    return EXIT_OK if suite_ok(results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdbsim",
        description="Group distance bounding simulator and analysis toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario and write artifacts")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario's rng_seed")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run scenarios across seeds and merge")
    p_sweep.add_argument("scenarios", nargs="+", help="scenario JSON files")
    p_sweep.add_argument("--seeds", default="0", help="comma-separated seed list")
    p_sweep.add_argument("--out", default="sweep", help="output directory")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="parallel worker processes")
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig = sub.add_parser("figures", help="emit one figure panel as CSV")
    p_fig.add_argument("--which", required=True,
                       help=f"panel name, one of {', '.join(FIGURES)}")
    p_fig.add_argument("--out", default="figures", help="output directory")
    p_fig.set_defaults(func=cmd_figures)

    p_ver = sub.add_parser("verify", help="run the acceptance suite")
    mode = p_ver.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true", default=True,
                      help="cap Monte Carlo at 10^4 trials (default)")
    mode.add_argument("--full", action="store_true",
                      help="full 10^5-trial Monte Carlo")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
