"""Line coverage of src/gdbsim by a test run, with the standard library only.

    python scripts/adequacy.py [pytest args]

Runs pytest in this process under a sys.settrace line tracer that
watches the files of src/gdbsim only; the tracer is installed before
gdbsim is imported, so import-time lines count.  It then prints, per
module, the executable lines (those some code object's co_lines names)
that never ran, and their count.  Lines run only in a child process
(the CLI tests that spawn one, a sweep with --workers 2) are not seen.
Tracing makes the run several times slower than plain pytest.
"""
from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType
from typing import Dict, Iterable, List, Set

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gdbsim"


class LineTracer:
    """Records the lines run, per file, in the files under one directory."""

    def __init__(self, under: Path) -> None:
        self.prefix = str(under.resolve())
        self.ran: Dict[str, Set[int]] = {}
        self._previous = None
        self._line = self._on_line  # one bound method for every frame: no object per call

    def _on_call(self, frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(self.prefix):
            return None
        self.ran.setdefault(path, set()).add(frame.f_lineno)
        return self._line

    def _on_line(self, frame, event, arg):
        if event == "line":
            self.ran[frame.f_code.co_filename].add(frame.f_lineno)
        return self._line

    def start(self) -> None:
        self._previous = sys.gettrace()
        threading.settrace(self._on_call)
        sys.settrace(self._on_call)

    def stop(self) -> None:
        sys.settrace(self._previous)
        threading.settrace(self._previous)


def executable_lines(path: Path) -> Set[int]:
    """Every line number that a code object compiled from path names in co_lines."""
    lines: Set[int] = set()
    todo: List[CodeType] = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        todo.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return lines


def never_ran(paths: Iterable[Path], ran: Dict[str, Set[int]]) -> Dict[Path, List[int]]:
    """{path: the executable lines of path that ran holds no record of}, sorted."""
    return {path: sorted(executable_lines(path) - ran.get(str(path.resolve()), set()))
            for path in paths}


def _spans(lines: List[int]) -> str:
    """[3, 4, 5, 9] as "3-5, 9"."""
    spans: List[List[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def report(missed: Dict[Path, List[int]], root: Path) -> str:
    """One line per module, its never-run count then their line spans, and a total."""
    out = [f"{str(path.relative_to(root)):28s} {len(lines):4d}  {_spans(lines)}".rstrip()
           for path, lines in sorted(missed.items())]
    out.append(f"{'total':28s} {sum(map(len, missed.values())):4d}")
    return "\n".join(out)


def main(argv: List[str]) -> int:
    tracer = LineTracer(PACKAGE)
    tracer.start()
    try:
        import pytest
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        tracer.stop()
    print(report(never_ran(sorted(PACKAGE.rglob("*.py")), tracer.ran), PACKAGE))
    return int(status)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
