"""Every top-level import of the package is read by its module.

An import that its module never reads is left over from code that has
gone.  The one kept on purpose is a hook that the benchmark patches by
name (`bench/layers.py` traces the reference engine as `verify.run_node`),
and its line says so.
"""

import ast
import glob
import os

import seclus

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "seclus")

# (module file, imported name) of each import kept for the benchmark
HOOKS = {("verify.py", "run_node")}


def _unused(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    bound = {}
    for st in tree.body:
        if isinstance(st, ast.Import):
            bound.update((a.asname or a.name.split(".")[0], a) for a in st.names)
        elif isinstance(st, ast.ImportFrom) and st.module != "__future__":
            bound.update((a.asname or a.name, a) for a in st.names)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a forward reference in an annotation, such as "Code"
            if node.value.isidentifier():
                read.add(node.value)
    return {x for x in bound if x not in read}


def test_every_top_level_import_is_read():
    unused = set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        unused.update((os.path.basename(path), x) for x in _unused(path))
    assert unused == HOOKS
    # each hook's line says why it is kept
    for name, x in HOOKS:
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            (line,) = [ln for ln in fh if ln.strip().startswith(x + ",")]
        assert "# unused here; bench/" in line


def test_every_submodule_is_listed_in_all():
    modules = {os.path.basename(p)[:-3] for p in glob.glob(os.path.join(SRC, "*.py"))}
    assert set(seclus.__all__) == modules - {"__init__", "__main__"}
