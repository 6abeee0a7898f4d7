"""The lines of `src/seclus` that the test suite runs, and those it never runs.

    python3 scripts/line_coverage.py [PYTEST_ARGS...]

Runs pytest in this process (on `tests/` when no argument is given)
under a `sys.settrace` line tracer that records only frames of the
modules under `src/seclus`, and prints, per module, the lines executed,
the executable lines, and the executable lines that never ran, as
ranges:

    seclus/verify.py  598/601  262-263, 291

A line is executable when the compiled module has an instruction on it
(the union of `co_lines` over every code object of the module).  The
tracer is installed before collection, so the modules' import-time
lines count, and again before each test's setup, call and teardown, as
code under test may turn tracing off (the benchmark's opcode counter
does); a test that turns it off leaves the rest of its own phase
untraced.  Tests that run in a subprocess (the CLI run by
`python -m seclus`, the scripts' tests) are not traced: their lines
count as executed only if an in-process test runs them too.  Traced
code runs several times slower, so a test with a wall-clock bound
(`test_powerset_8_builds_fast`) may fail here and not untraced.  The
process exits with pytest's exit code.  Stdlib and pytest only.
"""

from __future__ import annotations

import os
import sys
import threading
from types import CodeType

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "seclus") + os.sep


class LineTracer:
    """Records the line of every line event in a frame of a file under
    `PACKAGE`, by file."""

    def __init__(self) -> None:
        self.lines: dict[str, set[int]] = {}
        # each file's local trace function (None outside the package),
        # made once: one made per call would leave a cycle per call for
        # the cycle collector, which a test of the suite counts
        self._local: dict[str, object] = {}

    def on_call(self, frame, event, arg):
        name = frame.f_code.co_filename
        try:
            return self._local[name]
        except KeyError:
            pass
        path = os.path.abspath(name)
        local = None
        if path.startswith(PACKAGE):
            seen = self.lines.setdefault(path, set())

            def local(frame, event, arg):
                if event == "line":
                    seen.add(frame.f_lineno)
                return local

        self._local[name] = local
        return local

    def install(self) -> None:
        sys.settrace(self.on_call)
        threading.settrace(self.on_call)


class _Reinstall:
    """A pytest plugin that installs the tracer again before each phase
    of each test."""

    def __init__(self, tracer: LineTracer) -> None:
        self.tracer = tracer

    def pytest_runtest_setup(self, item):
        self.tracer.install()

    def pytest_runtest_call(self, item):
        self.tracer.install()

    def pytest_runtest_teardown(self, item):
        self.tracer.install()


def executable_lines(path: str) -> set[int]:
    """The lines of the Python file `path` that hold an instruction."""
    with open(path, encoding="utf-8") as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines: set[int] = set()
    while todo:
        code = todo.pop()
        # line 0 is the module's own entry instruction
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def ranges(lines: list[int]) -> str:
    """`[3, 4, 5, 9]` as `3-5, 9`."""
    out: list[str] = []
    i = 0
    while i < len(lines):
        j = i
        while j + 1 < len(lines) and lines[j + 1] == lines[j] + 1:
            j += 1
        out.append(str(lines[i]) if i == j else f"{lines[i]}-{lines[j]}")
        i = j + 1
    return ", ".join(out)


def report(traced: dict[str, set[int]]) -> list[str]:
    """One line per module of the package, then the totals."""
    out = []
    total_run = total = 0
    for dirpath, _, files in sorted(os.walk(PACKAGE)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            lines = executable_lines(path)
            run = traced.get(path, set()) & lines
            never = sorted(lines - run)
            total_run += len(run)
            total += len(lines)
            label = os.path.relpath(path, SRC)
            out.append(f"{label}  {len(run)}/{len(lines)}  {ranges(never)}".rstrip())
    out.append(f"total  {total_run}/{total}")
    return out


def main(argv: list[str] | None = None) -> int:
    import pytest

    args = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, SRC)
    tracer = LineTracer()
    tracer.install()
    try:
        code = pytest.main(args or [os.path.join(ROOT, "tests")], plugins=[_Reinstall(tracer)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print()
    for line in report(tracer.lines):
        print(line)
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
