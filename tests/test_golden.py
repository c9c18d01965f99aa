"""Golden corpus: pinned artifact digests for one run of each scenario.

Every scenario JSON under tests/golden/ is run end to end and written
out with cli.write_run_artifacts; the sha256 of trace.jsonl, bounds.csv
and detection.json must match tests/golden/digests.json.  manifest.json
records paths, so it is left out.  bounds.csv carries neither
rounds_used nor surplus, so each entry also pins "estimates": the sha256
of every estimate field, one sorted line per estimate with the bound as
float.hex.  "trace_format1" is the sha256 of the written trace.jsonl
read back with Trace.from_jsonl and expanded into the format-1 export
(tests/trace_oracle.py), one line per emission and per arrival: it pins
the run itself, whatever the file format.

A change that alters a run on purpose regenerates the digests by
running this file as a script,

    PYTHONPATH=src python tests/test_golden.py

which prints every entry and file whose digest changed, trace_format1
changes first, since a change there means the run changed, not the
format; name each, with its reason, in CHANGES.md.
"""
import hashlib
import json
from pathlib import Path

import pytest
from trace_oracle import reference_jsonl

from gdbsim.cli import write_run_artifacts
from gdbsim.core import load_scenario, scenario_to_json
from gdbsim.proto.runner import run_scenario
from gdbsim.simkit import Trace

GOLDEN = Path(__file__).parent / "golden"
DIGESTS = GOLDEN / "digests.json"
PINNED = ("trace_format1", "trace.jsonl", "bounds.csv", "detection.json", "estimates")
SCENARIOS = sorted(p.stem for p in GOLDEN.glob("*.json") if p != DIGESTS)


def estimates_digest(result) -> str:
    lines = sorted(
        f"{e.measurer},{e.target},{float.hex(e.bound_m)},{e.method},"
        f"{e.rounds_used},{e.verified_auth},{e.surplus}"
        for e in result.estimates
    )
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


def artifact_digests(name: str, out_dir: Path) -> dict:
    path = GOLDEN / f"{name}.json"
    scn = load_scenario(str(path))
    result = run_scenario(scn)
    digests = write_run_artifacts(result, str(path), scn.rng_seed, out_dir)
    digests["estimates"] = estimates_digest(result)
    copy = Trace.from_jsonl((out_dir / "trace.jsonl").read_text())
    digests["trace_format1"] = hashlib.sha256(reference_jsonl(copy).encode()).hexdigest()
    return {k: digests[k] for k in PINNED}


def test_corpus_has_a_digest_per_scenario():
    assert len(SCENARIOS) >= 12
    assert sorted(json.loads(DIGESTS.read_text())) == SCENARIOS


@pytest.mark.parametrize("name", SCENARIOS)
def test_golden_digests(name, tmp_path):
    pinned = json.loads(DIGESTS.read_text())[name]
    assert artifact_digests(name, tmp_path) == pinned


@pytest.mark.parametrize("name", SCENARIOS)
def test_a_run_made_twice_compares_equal(name):
    """RunResult and Trace compare as values; a numpy field would make == raise."""
    scn = load_scenario(str(GOLDEN / f"{name}.json"))
    first, second = run_scenario(scn), run_scenario(scn)
    assert first == second
    assert first.trace == second.trace and first.trace is not second.trace


@pytest.mark.parametrize("name", SCENARIOS)
def test_golden_scenario_is_a_codec_fixed_point(name):
    path = GOLDEN / f"{name}.json"
    assert scenario_to_json(load_scenario(str(path))) == json.loads(path.read_text())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {name: artifact_digests(name, Path(tmp) / name) for name in SCENARIOS}
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for f in PINNED:
        for name in sorted(set(old) | set(table)):
            before, after = old.get(name, {}), table.get(name, {})
            state = "new" if not before else "gone" if not after else "changed"
            if before.get(f) != after.get(f):
                print(f"{state}: {name}/{f}")
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} entries to {DIGESTS}")
