"""Source hygiene: no module of the package imports a name it never uses,
every name it keeps only for the benchmark's tracer is one the tracer patches,
and the docs name only code that exists."""
import ast
import dataclasses
import importlib
import inspect
import io
import re
import tokenize
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


README = SRC.parent.parent / "README.md"
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
FILE_SUFFIXES = (".py", ".json", ".csv", ".jsonl")


def _package():
    """{name: objects}: every gdbsim module under its last name, and every class it defines."""
    modules = [importlib.import_module(".".join(("gdbsim",) + p.relative_to(SRC).with_suffix("")
                                                .parts).removesuffix(".__init__"))
               for p in MODULES if p.name != "__main__.py"]  # which would run the CLI
    out = {}
    for module in modules:
        out.setdefault(module.__name__.rsplit(".", 1)[-1], []).append(module)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                out.setdefault(cls.__name__, []).append(cls)
    return out


PACKAGE = _package()
FIELD = object()  # a dataclass field: it resolves, and nothing after it does


def _member(owner, name):
    """owner's attribute, submodule or dataclass field name; AttributeError if it has none."""
    if inspect.isclass(owner) and dataclasses.is_dataclass(owner) and name in {
            f.name for f in dataclasses.fields(owner)}:
        return FIELD
    if isinstance(owner, ModuleType) and not hasattr(owner, name):
        try:
            return importlib.import_module(f"{owner.__name__}.{name}")
        except ImportError:
            raise AttributeError(name) from None
    return getattr(owner, name)


def resolves(dotted: str) -> bool:
    """Whether a dotted name whose first part is a gdbsim module or class names code."""
    first, *rest = dotted.split(".")
    for owner in PACKAGE[first]:
        try:
            for part in rest:
                owner = _member(owner, part)
        except AttributeError:
            continue
        return True
    return False


def doc_names(text: str):
    """Every dotted name in text whose first part is a gdbsim module or class, file names aside."""
    return [name for name in DOTTED.findall(text)
            if name.split(".")[0] in PACKAGE and not name.endswith(FILE_SUFFIXES)]


def src_doc_texts(path: Path):
    """Every docstring and comment of one module."""
    text = path.read_text()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            yield token.string


def test_docs_name_only_code_that_exists():
    """Every backquoted dotted name in README.md, and every dotted name in a src/
    docstring or comment, that starts at a gdbsim module or class resolves to a
    module attribute, a class attribute or a dataclass field."""
    readme = [name for span in re.findall(r"`([^`]+)`", README.read_text())
              for name in doc_names(span)]
    src = [(str(path.relative_to(SRC)), name) for path in MODULES
           for doc in src_doc_texts(path) for name in doc_names(doc)]
    assert readme and src
    assert [name for name in readme if not resolves(name)] == []
    assert [(where, name) for where, name in src if not resolves(name)] == []


def test_the_doc_check_sees_a_stale_name():
    assert resolves("RunContext.emit") and resolves("proto.base.RunContext.emit")
    assert resolves("RunContext.nonces") and resolves("gdbsim.proto.runner")
    assert resolves("RunResult.ring_order") and not resolves("RunContext.nonces.get")
    assert not resolves("RunContext.sender") and not resolves("proto.base.RunContext.sender")
    assert doc_names("see `base.py` and core.Scenario.") == ["core.Scenario"]
