"""`scripts/layer_diff.py` on synthetic trace-1 result files."""

import json
import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts", "layer_diff.py")


def _result(tmp_path, name, values):
    path = tmp_path / name
    metrics = {k: {"value": v, "unit": "x"} for k, v in values.items()}
    path.write_text(json.dumps({"correct": True, "metrics": metrics}))
    return str(path)


def _run(*paths):
    proc = subprocess.run([sys.executable, SCRIPT, *paths], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    return proc.stdout


PARENT = {
    "parse.kops": 417.294,
    "parse.calls": 2.0,
    "parse.self_ms": 1.05,
    "infer.src.kops": 20.5,
    "codegen.calls": 5.25,
    "traced.wall_ms": 5.9,
}


def test_two_runs_of_one_tree_print_nothing(tmp_path):
    a = _result(tmp_path, "a.json", PARENT)
    b = _result(tmp_path, "b.json", PARENT)
    assert _run(a, b) == ""


def test_moved_counts_are_printed_with_their_ratio(tmp_path):
    change = dict(PARENT, **{"parse.kops": 350.124, "parse.self_ms": 0.84, "traced.wall_ms": 4.0})
    del change["codegen.calls"]
    change["denest.kops"] = 9.5
    out = _run(_result(tmp_path, "a.json", PARENT), _result(tmp_path, "b.json", change))
    # times never print; a count on one side only prints `-` for the other
    assert out.splitlines() == [
        "codegen.calls  5.250 -> -",
        "denest.kops  - -> 9.500",
        "parse.kops  417.294 -> 350.124  x0.839",
    ]
