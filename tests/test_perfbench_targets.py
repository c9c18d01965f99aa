"""Every name the benchmark's span recorder patches still exists.

perfbench/tracing.py wraps gdbsim's layer entry points by replacing
module and class attributes, reading each original with
owner.__dict__[attr]; a renamed or deleted target would crash a traced
benchmark run with a KeyError, so it fails here instead.
"""
import importlib.util
from pathlib import Path

import gdbsim
import gdbsim.cli  # noqa: F401  (loads the module the recorder patches)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing._targets(gdbsim)
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in targets
        if attr not in owner.__dict__
    ]
    assert missing == []
