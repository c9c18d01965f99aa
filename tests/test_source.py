"""Source hygiene: no module of the package imports a name it never uses,
and every name it keeps only for the benchmark's tracer is one the tracer patches."""
import ast
from pathlib import Path
from types import ModuleType

import pytest
from test_perfbench_targets import load_tracing

import gdbsim
import gdbsim.cli  # noqa: F401  (loads the module the recorder patches)

SRC = Path(gdbsim.__file__).parent
MODULES = sorted(SRC.rglob("*.py"))


def _used_names(tree: ast.Module):
    """Every name the module reads, its string annotations' names included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation such as "Trace"; any other text does not parse
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def unused_imports(path: Path):
    """(line, name) of each module-level import that path's module never reads.

    A from __future__ import, an import on a line marked noqa, and a
    package __init__'s imports, which re-export, are exempt.
    """
    if path.name == "__init__.py":
        return []
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = _used_names(tree)
    out = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if any("noqa" in line for line in lines[stmt.lineno - 1:stmt.end_lineno]):
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                out.append((stmt.lineno, name))
    return out


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_module_level_import(path):
    assert unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    """A name imported and never read is reported; one read, or marked noqa, is not."""
    module = tmp_path / "mod.py"
    module.write_text("from __future__ import annotations\n"
                      "import os\n"
                      "from typing import List, Sequence\n"
                      "from json import dumps  # noqa: F401  (patched elsewhere)\n"
                      "def f(x: 'Sequence[int]') -> List[int]:\n"
                      "    return list(x)\n")
    assert unused_imports(module) == [(2, "os")]


def tracer_kept_names():
    """(module, name) of each module-level name src/ keeps for perfbench/tracing.py.

    Those are the imports and assignments on lines whose comment names
    the tracer; nothing else in their module reads them.
    """
    out = []
    for path in MODULES:
        text = path.read_text()
        lines = text.splitlines()
        module = ".".join(("gdbsim",) + path.relative_to(SRC).with_suffix("").parts)
        for stmt in ast.parse(text).body:
            if not any("perfbench/tracing.py" in line
                       for line in lines[stmt.lineno - 1:stmt.end_lineno]):
                continue
            if isinstance(stmt, ast.ImportFrom):
                out += [(module, alias.asname or alias.name) for alias in stmt.names]
            else:
                out += [(module, target.id) for target in stmt.targets]
    return out


def test_every_name_kept_for_the_tracer_is_traced():
    """The reverse of test_every_traced_name_exists: a name kept only so the
    tracer can patch it must stay a target of its own module, or it goes."""
    traced = {(owner.__name__, attr) for owner, attr, *_ in load_tracing()._targets(gdbsim)
              if isinstance(owner, ModuleType)}
    kept = tracer_kept_names()
    assert ("gdbsim.proto.pairwise", "_run_relay_exchange") in kept
    assert [name for name in kept if name not in traced] == []
