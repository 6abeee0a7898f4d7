"""The benchmark's hooks into the program.

`bench/layers.py` traces the layers by patching functions by name, and
`instrument` raises `AttributeError` on a name that the program no
longer has.  This test loads the program as the benchmark does and
enters and leaves `instrument`, so a refactor that drops such a name
fails here.  It runs in a subprocess because `run.load_seclus` imports
the package afresh, and it writes no bytecode under `bench/`.
"""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

SCRIPT = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import layers, run
m = run.load_seclus()
with layers.instrument(m, layers.Trace()):
    pass
"""


def test_benchmark_hooks_exist():
    script = SCRIPT.format(bench=os.path.join(ROOT, "bench"), src=os.path.join(ROOT, "src"))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
