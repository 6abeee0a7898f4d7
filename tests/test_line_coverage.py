"""`scripts/line_coverage.py` on a small test module of its own."""

import importlib.util
import inspect
import os
import subprocess
import sys

from seclus import typing

SCRIPT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "scripts", "line_coverage.py"
)

# the first test turns tracing off, as the benchmark's opcode counter
# does when it ends; the second must still be traced
TESTS = '''
import sys

from seclus import typing


def test_turns_tracing_off():
    sys.settrace(None)


def test_runs_after():
    assert typing._var_key("b10") == (2, 10, "b10")
'''


def _script():
    spec = importlib.util.spec_from_file_location("line_coverage", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _body(fn) -> set:
    lines, first = inspect.getsourcelines(fn)
    return set(range(first + 1, first + len(lines)))


def test_ranges():
    ranges = _script().ranges
    assert ranges([]) == ""
    assert ranges([3, 4, 5, 9]) == "3-5, 9"
    assert ranges([1, 3, 4]) == "1, 3-4"


def test_lines_run_after_a_test_turns_tracing_off(tmp_path):
    (tmp_path / "test_small.py").write_text(TESTS)
    proc = subprocess.run(
        [sys.executable, SCRIPT, "-q", "-p", "no:cacheprovider", str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = {}
    for line in proc.stdout.splitlines():
        parts = line.split("  ")
        if len(parts) >= 2 and parts[0].startswith(("seclus", "total")):
            rows[parts[0]] = parts[1:]
    assert {"seclus/typing.py", "seclus/verify.py", "total"} <= rows.keys()
    run, executable = map(int, rows["seclus/typing.py"][0].split("/"))
    assert 0 < run < executable
    never = set()
    for part in rows["seclus/typing.py"][1].split(", "):
        lo, _, hi = part.partition("-")
        never.update(range(int(lo), int(hi or lo) + 1))
    script = _script()
    path = os.path.join(script.PACKAGE, "typing.py")
    assert never <= script.executable_lines(path)
    assert not never & _body(typing._var_key)
    assert _body(typing.render_signature) & script.executable_lines(path) <= never
