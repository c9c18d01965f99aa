"""Command line contract: artifacts, exit codes, reproducibility."""
import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from trace_oracle import assert_same_trace, reference_jsonl

from gdbsim.analysis import emit_figure_data
from gdbsim.cli import main
from gdbsim.core import (
    Protocol,
    Role,
    ScenarioInvalid,
    load_scenario,
    scenario_to_json,
    validate_scenario,
)
from gdbsim.proto.base import ResponseMismatch
from gdbsim.proto.runner import run_scenario
from gdbsim.scenarios import mpnv_scenario, oneway_scenario, peer_scenario
from gdbsim.simkit import Trace
from gdbsim.threat import GuessAhead

GOLDEN = Path(__file__).parent / "golden"


def write_scenario(tmp_path, scenario, name="scn.json"):
    p = tmp_path / name
    p.write_text(json.dumps(scenario_to_json(scenario)))
    return p


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def ring_file(tmp_path):
    return write_scenario(tmp_path, peer_scenario(Protocol.MULTI_PARTY_RING, 4),
                          "ring4.json")


def test_run_writes_all_artifacts(tmp_path, ring_file, capsys):
    out = tmp_path / "out"
    assert main(["run", str(ring_file), "--seed", "0", "--out", str(out)]) == 0
    for name in ("trace.jsonl", "bounds.csv", "detection.json", "manifest.json"):
        assert (out / name).exists()
    rows = (out / "bounds.csv").read_text().splitlines()
    assert rows[0] == "measurer,target,bound_m,method,auth_ok"
    assert len(rows) == 1 + 12  # 4 ring observers x 3 edges each
    stdout = capsys.readouterr().out
    assert str(out / "bounds.csv") in stdout


def test_manifest_digests_match_files(tmp_path, ring_file):
    out = tmp_path / "out"
    main(["run", str(ring_file), "--seed", "0", "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 0
    for entry in manifest["artifacts"]:
        assert entry["sha256"] == sha(out / entry["name"])


def test_same_seed_reproduces_digests(tmp_path, ring_file):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", str(ring_file), "--seed", "5", "--out", str(a)])
    main(["run", str(ring_file), "--seed", "5", "--out", str(b)])
    for name in ("trace.jsonl", "bounds.csv", "detection.json"):
        assert sha(a / name) == sha(b / name)


def test_seed_flag_changes_the_run(tmp_path, ring_file):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", str(ring_file), "--seed", "5", "--out", str(a)])
    main(["run", str(ring_file), "--seed", "6", "--out", str(b)])
    assert sha(a / "trace.jsonl") != sha(b / "trace.jsonl")


def test_detection_artifact_shape(tmp_path, ring_file):
    out = tmp_path / "out"
    main(["run", str(ring_file), "--out", str(out)])
    doc = json.loads((out / "detection.json").read_text())
    assert doc["detection"]["consistent"] is True
    assert doc["rejections"] == []
    assert sorted(doc["ring_order"]) == [1, 2, 3, 4]


def test_run_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_rejects_malformed_policy_value(tmp_path, capsys):
    doc = scenario_to_json(oneway_scenario(n=2))
    doc["nodes"][1]["policy"] = {"kind": "SelectiveDelay", "delay_s": None}
    p = tmp_path / "bad_policy.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "nodes[1].policy.delay_s must be a number" in capsys.readouterr().err


def test_run_rejects_missing_file(tmp_path):
    assert main(["run", str(tmp_path / "ghost.json"), "--out", str(tmp_path)]) == 2


def test_run_rejects_invalid_scenario_naming_the_field(tmp_path, capsys):
    p = write_scenario(tmp_path, peer_scenario(Protocol.MULTI_PARTY_RING, 3))
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "N must be >= 4 for MultiPartyRing" in capsys.readouterr().err


def overdemanding_mpnv():
    """An MPNV whose d_a needs four ActiveVerifiers, with verifiers 3 and 4 only listening."""
    s = mpnv_scenario(n=2, n_a=1, d_a=1.0, n_verifiers=4, m_provers=2)
    return dataclasses.replace(s, nodes=tuple(
        dataclasses.replace(v, role=Role.PASSIVE_VERIFIER) if v.id in (3, 4) else v
        for v in s.nodes))


def test_an_overdemanding_d_a_is_refused_before_anything_runs(tmp_path, ring_file, capsys):
    """run and sweep both exit 2 naming experiment.d_a, and sweep makes no run directory."""
    p = write_scenario(tmp_path, overdemanding_mpnv(), "mpnv.json")
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "experiment.d_a" in capsys.readouterr().err
    out = tmp_path / "swept"
    assert main(["sweep", str(ring_file), str(p), "--out", str(out)]) == 2
    assert "experiment.d_a" in capsys.readouterr().err
    assert not out.exists()


def test_run_protocol_failure_is_exit_three(tmp_path, capsys):
    from gdbsim.threat import GuessAhead

    # seed 0 makes the guessing prover miss round 1
    s = oneway_scenario(n=2, seed=0,
                        prover_policy=GuessAhead(p_rounds=2, advance_s=2e-7))
    p = write_scenario(tmp_path, s, "fraud.json")
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 3
    assert "protocol:" in capsys.readouterr().err


def test_sweep_merges_every_run(tmp_path, ring_file):
    other = write_scenario(tmp_path, oneway_scenario(n=2), "pair.json")
    out = tmp_path / "sweep"
    rc = main(["sweep", str(ring_file), str(other),
               "--seeds", "1,2", "--out", str(out)])
    assert rc == 0
    merged = (out / "merged_bounds.csv").read_text().splitlines()
    assert merged[0] == "run,measurer,target,bound_m,method,auth_ok"
    assert len(merged) == 1 + 2 * 12 + 2 * 1   # ring rows + one-way rows
    assert (out / "ring4-seed1" / "trace.jsonl").exists()
    assert (out / "pair-seed2" / "bounds.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["runs"]) == 4


def test_sweep_workers_agree_with_serial(tmp_path, ring_file):
    serial = tmp_path / "s1"
    parallel = tmp_path / "s2"
    main(["sweep", str(ring_file), "--seeds", "1,2", "--out", str(serial)])
    main(["sweep", str(ring_file), "--seeds", "1,2", "--out", str(parallel),
          "--workers", "2"])
    assert sha(serial / "merged_bounds.csv") == sha(parallel / "merged_bounds.csv")


def written_tree(root):
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_whole_corpus_sweeps_byte_identically_serially_and_with_workers(tmp_path):
    """Every golden scenario over seeds 1, 2 and 3, swept serially and then
    with two workers into the same --out path, the first tree moved aside
    in between, writes the same files byte for byte.  Each run's manifest
    records its absolute out_dir, so the two sweeps share one path."""
    scenarios = sorted(str(p) for p in GOLDEN.glob("*.json") if p.name != "digests.json")
    out = tmp_path / "sweep"
    argv = ["sweep", *scenarios, "--seeds", "1,2,3", "--out", str(out)]
    assert main(argv) == 0
    serial = written_tree(out)
    out.rename(tmp_path / "serial")
    assert main(argv + ["--workers", "2"]) == 0
    parallel = written_tree(out)
    # four artifacts a run, then the merged bounds and the sweep manifest
    assert len(serial) == 3 * len(scenarios) * 4 + 2
    assert list(parallel) == list(serial)
    assert [name for name in serial if parallel[name] != serial[name]] == []


def test_sweep_rejects_bad_seed_list(tmp_path, ring_file, capsys):
    assert main(["sweep", str(ring_file), "--seeds", "1,x",
                 "--out", str(tmp_path / "o")]) == 2
    assert "--seeds" in capsys.readouterr().err


def test_sweep_refuses_a_seed_list_naming_no_seed(tmp_path, ring_file, capsys):
    out = tmp_path / "o"
    assert main(["sweep", str(ring_file), "--seeds", ",", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --seeds named no seeds\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe\x00bad", "bad.json is not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
    (b"[" * 100_000 + b"]" * 100_000, "invalid JSON: maximum recursion depth exceeded"),
], ids=["not-utf8", "nested-too-deep"])
def test_undecodable_scenario_bytes_exit_2_and_run_nothing(tmp_path, capsys, command, content,
                                                           message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    out = tmp_path / "o"
    assert main([command, str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not out.exists()


def test_sweep_validates_inputs_before_fanout(tmp_path, ring_file, capsys):
    malformed = tmp_path / "bad.json"
    malformed.write_text("[]")
    # parses, but a ring needs four nodes
    small_ring = write_scenario(tmp_path, peer_scenario(Protocol.MULTI_PARTY_RING, 3),
                                "ring3.json")
    for bad, message in ((malformed, "must be a JSON object"), (small_ring, "N must be >= 4")):
        out = tmp_path / "o"
        assert main(["sweep", str(ring_file), str(bad), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()  # nothing ran


@pytest.mark.parametrize("error", [
    ResponseMismatch(3, 2, 2),
    ScenarioInvalid(validate_scenario(peer_scenario(Protocol.MULTI_PARTY_RING, 3))),
], ids=lambda e: type(e).__name__)
def test_package_errors_survive_pickling(error):
    again = pickle.loads(pickle.dumps(error))
    assert type(again) is type(error) and str(again) == str(error)


def test_sweep_with_workers_reports_the_serial_protocol_error(tmp_path, capsys):
    guesser = write_scenario(tmp_path, oneway_scenario(n=4, prover_policy=GuessAhead(4, 0.0)),
                             "guess.json")
    errors = []
    for workers in ("1", "2"):
        argv = ["sweep", str(guesser), "--seeds", "1,2,3,4", "--workers", workers,
                "--out", str(tmp_path / f"o{workers}")]
        assert main(argv) == 3
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and "is not its challenge XOR that nonce" in errors[0]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_failed_sweep_names_the_run_and_removes_what_it_made(tmp_path, capsys, workers):
    """Seeds 1-3 and 6 run clean, 4 and 5 fail: the first failure in seed
    order is reported with its scenario and seed, and only the run
    directories the sweep itself made are gone, whatever the worker count."""
    guesser = write_scenario(tmp_path, oneway_scenario(n=4, prover_policy=GuessAhead(1, 0.0)),
                             "g.json")
    out = tmp_path / "o"
    earlier = out / "g-seed2"
    earlier.mkdir(parents=True)
    argv = ["sweep", str(guesser), "--seeds", "1,2,3,4,5,6", "--workers", workers,
            "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        f"error: protocol: {guesser} seed 4: node 2's answer on nonce 0 in round 1 "
        "is not its challenge XOR that nonce\n")
    assert [p.name for p in out.iterdir()] == ["g-seed2"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_that_cannot_write_a_run_exits_2_and_removes_what_it_made(
    tmp_path, capsys, workers
):
    """A run directory that is already a file stops the sweep with one
    error line and exit 2, as gdbsim run does; the run directories the
    sweep made are gone and the file is left."""
    scn = write_scenario(tmp_path, oneway_scenario(n=2), "p.json")
    out = tmp_path / "out"
    out.mkdir()
    (out / "p-seed2").write_text("not a directory\n")
    argv = ["sweep", str(scn), "--seeds", "1,2,3", "--workers", workers, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out / "p-seed2") in err
    assert [p.name for p in out.iterdir()] == ["p-seed2"]
    assert (out / "p-seed2").read_text() == "not a directory\n"


def test_sweep_rejects_inputs_sharing_a_stem(tmp_path, capsys):
    a = write_scenario(tmp_path, oneway_scenario(n=2), "a.json")
    (tmp_path / "b").mkdir()
    b = write_scenario(tmp_path / "b", peer_scenario(Protocol.MULTI_PARTY_RING, 4), "a.json")
    out = tmp_path / "o"
    assert main(["sweep", str(a), str(b), "--seeds", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(a) in err and str(b) in err
    assert not out.exists()  # nothing ran


def test_sweep_rejects_a_repeated_seed(tmp_path, ring_file, capsys):
    out = tmp_path / "o"
    assert main(["sweep", str(ring_file), "--seeds", "1,2,1", "--out", str(out)]) == 2
    assert "--seeds repeats 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweep_rejects_fewer_than_one_worker(tmp_path, ring_file, capsys, workers):
    out = tmp_path / "o"
    assert main(["sweep", str(ring_file), "--workers", workers, "--out", str(out)]) == 2
    assert f"--workers must be at least 1, got {workers}" in capsys.readouterr().err
    assert not out.exists()  # nothing ran


def test_written_traces_read_back_as_the_run(tmp_path, capsys):
    path = GOLDEN / "mpnv_8x8.json"
    scn = load_scenario(str(path))
    trace = run_scenario(scn).trace
    run_out, sweep_out = tmp_path / "run", tmp_path / "sweep"
    assert main(["run", str(path), "--out", str(run_out)]) == 0
    seed = scn.rng_seed
    assert main(["sweep", str(path), "--seeds", f"{seed},{seed + 1}", "--out", str(sweep_out),
                 "--workers", "2"]) == 0
    text = trace.to_jsonl()
    for written in (run_out / "trace.jsonl", sweep_out / f"mpnv_8x8-seed{seed}" / "trace.jsonl"):
        assert written.read_text() == text
        copy = Trace.from_jsonl(written.read_text())
        assert_same_trace(copy, trace)
        assert reference_jsonl(copy) == reference_jsonl(trace)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert f"{digest}  {run_out / 'trace.jsonl'}" in capsys.readouterr().out


def test_figures_bytes_match_library(tmp_path, capsys):
    out = tmp_path / "figs"
    assert main(["figures", "--which", "6d", "--out", str(out)]) == 0
    body = (out / "fig6d.csv").read_text()
    assert body == emit_figure_data("6d")
    digest = hashlib.sha256(body.encode()).hexdigest()
    assert digest in capsys.readouterr().out


def test_figures_unknown_panel(tmp_path, capsys):
    assert main(["figures", "--which", "9z", "--out", str(tmp_path)]) == 2
    assert "which" in capsys.readouterr().err


def test_figures_into_a_file_exits_2(tmp_path, capsys):
    """An --out that is a file is refused with an error line and exit 2, as gdbsim run does."""
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["figures", "--which", "6d", "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert taken.read_text() == ""


def test_verify_reports_and_exits_nonzero_on_red(capsys):
    """The suite prints one line per criterion; the two documented
    expected failures keep the exit code honest (nonzero)."""
    rc = main(["verify", "--quick"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.count("PASS") == 9
    assert "FAIL  6a" in out and "FAIL  6b" in out
    assert "expected failure" in out
    assert "9/11 criteria passed" in out


def test_python_dash_m_runs_the_cli():
    """python -m gdbsim is the gdbsim console script."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "gdbsim", "verify", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: ") and "verify" in done.stdout
