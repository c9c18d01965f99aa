"""The benchmark's span recorder still finds and times gdbsim's layers.

perfbench/tracing.py wraps gdbsim's layer entry points by replacing
module and class attributes, reading each original with
owner.__dict__[attr]; a renamed or deleted target would crash a traced
benchmark run with a KeyError, so it fails here instead.  A target that
still exists but that nothing calls any more reads zero, so a traced
run must also record calls on the layers every run crosses.
"""
import importlib.util
import json
from pathlib import Path

import gdbsim
import gdbsim.cli  # noqa: F401  (loads the module the recorder patches)
import ring_oracle
from gdbsim.core import scenario_to_json
from gdbsim.scenarios import mpnv_scenario

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
GOLDEN = Path(__file__).resolve().parent / "golden"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_exists():
    tracing = load_tracing()
    targets = tracing._targets(gdbsim)
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in targets
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_traced_mpnv_run_records_every_layer_it_crosses():
    tracing = load_tracing()
    recorder = tracing.Recorder()
    patches = tracing.Patches(gdbsim, recorder)
    doc = json.dumps(scenario_to_json(mpnv_scenario(n=3, n_a=2, d_a=0.5, n_verifiers=4,
                                                    m_provers=3)))
    patches.install()
    try:
        scenario = gdbsim.core.scenario_from_json(doc)
        result = gdbsim.proto.run_scenario(scenario)
    finally:
        patches.remove()
    assert result.estimates
    layers = ("core.parse", "core.validate", "proto.driver", "proto.exchange",
              "simkit.broadcast", "simkit.channel_build")
    assert {name: recorder.calls[name] > 0 for name in layers} == dict.fromkeys(layers, True)
    # one phase: its 2 active verifiers' rows, 3 exchanges each, in one writer call
    assert recorder.calls["proto.exchange"] == 1
    # rapid sends are written by the protocol layer's writer; broadcast carries the rest
    assert recorder.calls["simkit.broadcast"] == result.trace.count() - result.trace.count("rapid")


def test_traced_ring_run_records_the_batched_solve_and_cross_check():
    """The ring's one batched build and solve and its cross-check are
    seen, and the rows and unknowns counted are every observer's."""
    tracing = load_tracing()
    recorder = tracing.Recorder()
    patches = tracing.Patches(gdbsim, recorder)
    scenario = gdbsim.core.load_scenario(str(GOLDEN / "ring_colluding.json"))
    patches.install()
    try:
        result = gdbsim.proto.run_scenario(scenario)
    finally:
        patches.remove()
    assert result.detection.mismatches
    spans = ("threat.cross_check", "estimate.tof_build", "estimate.tof_solve")
    assert {name: recorder.calls[name] for name in spans} == dict.fromkeys(spans, 1)
    peers = sorted(result.ring_order)
    n = scenario.config.n
    seqs = [[em.seq for em in result.trace.emissions
             if em.phase == "rapid" and em.round_index == r] for r in range(1, n + 1)]
    stamps = result.trace.local_arrivals(seqs, peers)
    systems = [
        ring_oracle.build_tof_system([
            ring_oracle.RingTiming(result.ring_order, o, stamps[r, :, k], scenario.config.alpha)
            for r in range(n)])
        for k, o in enumerate(peers)
    ]
    assert recorder.counts["tof_rows"] == sum(len(system.rows) for system in systems)
    assert recorder.counts["tof_unknowns"] == sum(len(system.unknowns) for system in systems)


def test_traced_artifact_write_records_one_export(tmp_path):
    tracing = load_tracing()
    recorder = tracing.Recorder()
    patches = tracing.Patches(gdbsim, recorder)
    path = GOLDEN / "mpnv_8x8.json"
    scenario = gdbsim.core.load_scenario(str(path))
    result = gdbsim.proto.run_scenario(scenario)
    patches.install()
    try:
        gdbsim.cli.write_run_artifacts(result, str(path), scenario.rng_seed, tmp_path)
    finally:
        patches.remove()
    assert recorder.calls["cli.artifacts"] == 1
    assert recorder.calls["simkit.export"] == 1
    # the meta line, then one line per emission
    assert recorder.counts["export_lines"] == len(result.trace.emissions) + 1
    size_mb = (tmp_path / "trace.jsonl").stat().st_size / 1e6
    assert recorder.counts["export_mb"] == size_mb
