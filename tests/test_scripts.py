"""The demo scripts run end to end at small sizes."""
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv, expect", [
    ("ring_delay_attack", [], "flagged"),
    ("passive_geometry_demo", ["--rounds", "1"], "observer-prover bound"),
    ("passive_geometry_demo", ["--rounds", "1", "--advance-ns", "30"], "ahead of its published"),
    ("message_savings_sweep", ["--sizes", "5", "--simulate-up-to", "5"], "61.0%"),
    ("message_savings_sweep", ["--sizes", "10", "--fractions", "0.25", "--simulate-up-to", "10"],
     "89.5%"),
])
def test_script_main(name, argv, expect, capsys):
    assert load(name).main(argv) == 0
    assert expect in capsys.readouterr().out


DEMO_OUTPUT = Path(__file__).resolve().parent / "golden" / "passive_geometry_demo"


@pytest.mark.parametrize("argv, pinned", [
    (["--rounds", "2"], "rounds_2.txt"),
    (["--rounds", "2", "--advance-ns", "30"], "rounds_2_advance_30.txt"),
    (["--advance-ns", "63"], "advance_63.txt"),    # leg sum short of the verifier-prover distance
    (["--advance-ns", "200"], "advance_200.txt"),  # negative leg sum
])
def test_passive_geometry_demo_output_is_pinned(argv, pinned, capsys):
    assert load("passive_geometry_demo").main(argv) == 0
    assert capsys.readouterr().out == (DEMO_OUTPUT / pinned).read_text()


def test_adequacy_reports_the_lines_a_traced_call_never_ran(tmp_path):
    """The coverage report of scripts/adequacy.py, on one traced call of a
    small function, names exactly the lines that call skipped."""
    adequacy = load("adequacy")
    root = tmp_path.resolve()
    module = root / "toy.py"
    module.write_text("def sign(x):\n"
                      "    if x > 0:\n"
                      "        return 1\n"
                      "    elif x < 0:\n"
                      "        return (\n"
                      "            -1)\n"
                      "    return 0\n")
    spec = importlib.util.spec_from_file_location("toy", module)
    toy = importlib.util.module_from_spec(spec)
    tracer = adequacy.LineTracer(root)
    tracer.start()
    try:
        spec.loader.exec_module(toy)
        assert toy.sign(3) == 1
    finally:
        tracer.stop()
    assert adequacy.executable_lines(module) == {1, 2, 3, 4, 5, 6, 7}
    missed = adequacy.never_ran([module], tracer.ran)
    assert missed == {module: [4, 5, 6, 7]}
    assert adequacy.report(missed, root).splitlines() == [
        f"{'toy.py':28s}    4  4-7", f"{'total':28s}    4"]
