"""One SHA-256 over an engine's histories on a fixed corpus.

    python3 scripts/reference_digest.py [--seeds N] [--horizon N] [--engine E]

Runs the reference engine (`interp.run_node`, the default) with every
column recorded, or with `--engine compiled` the compiled engine
(`compiled.CompiledProgram`) once with the outputs recorded and once
with every column recorded, and hashes each history, or the `repr` of
the error the run raised, in this order:

  1. the generated programs of seeds 0..N-1 (`verify.generate_program`),
     their entry node (the last one), on the three forms (source,
     de-nested, fby-init), each on `verify.random_inputs` drawn from the
     seed and on 64-bit boundary inputs;
  2. every node of the 14 fixtures (`fixtures/*.lus`, `fixtures/leaky/
     *.lus`, in name order), on the same three forms and two inputs;
  3. the raising corpus: the programs of part 1 with each literal
     divisor of a `div` or `mod` replaced by its dividend, so that a zero
     dividend divides by zero, run as in part 1.

Two trees whose engines give the same histories and raise the same
errors print the same line.  Standard error gives the number of runs
and of errors.  Stdlib only; imports the program from `src/` next to this
directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import hashlib
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from seclus.ast import Binop, Clock, Const, VarDecl  # noqa: E402
from seclus.compiled import CompiledProgram  # noqa: E402
from seclus.interp import INT_MAX, INT_MIN, run_node  # noqa: E402
from seclus.normalise import fby_init, normalize_program  # noqa: E402
from seclus.parser import parse_program, pretty  # noqa: E402
from seclus.verify import GenConfig, generate_program, random_inputs  # noqa: E402

BOUNDARY = tuple(range(-8, 9)) + (INT_MIN, INT_MIN + 1, INT_MAX - 1, INT_MAX, 2**53 + 1, -(2**53) - 1)


def boundary_inputs(node, N: int, rng: random.Random):
    return [
        [rng.random() < 0.5 for _ in range(N)] if d.type == "bool"
        else [rng.choice(BOUNDARY) for _ in range(N)]
        for d in node.inputs
    ]


def raising(x):
    """`x` with every `e div c` and `e mod c` by a literal `c` made
    `e div e` and `e mod e`."""
    if isinstance(x, tuple):
        return tuple(raising(y) for y in x)
    if not dataclasses.is_dataclass(x) or isinstance(x, (Clock, VarDecl)):
        return x
    y = dataclasses.replace(
        x, **{f.name: raising(getattr(x, f.name)) for f in dataclasses.fields(x) if f.compare}
    )
    if isinstance(y, Binop) and y.op in ("div", "mod") and isinstance(y.right, Const):
        y = dataclasses.replace(y, right=y.left)
    return y


def reference_runs(q, node, dialect):
    """The reference engine's run of `node` of `q`, every column recorded."""
    yield "", lambda ins, N: run_node(q, node.name, ins, N=N, dialect=dialect)


def compiled_runs(q, node, dialect):
    """The compiled engine's runs of `node` of `q`: the outputs recorded,
    then every column."""
    fast = CompiledProgram(q)
    for label, want in (" outputs", [d.name for d in node.outputs]), (" all", None):
        yield label, lambda ins, N, want=want: fast.run(node.name, ins, N=N, want=want)


ENGINES = {"reference": reference_runs, "compiled": compiled_runs}


def outcomes(p, nodes, seed: int, N: int, engine=reference_runs):
    """The label and outcome of each run of `nodes` of `p`."""
    n = normalize_program(p)
    forms = (("source", p, "lustre"), ("denest", n, "nlustre"), ("init", fby_init(n), "nlustre"))
    for node in nodes:
        rng = random.Random(seed)
        inputs = {"random": random_inputs(node, N, rng), "boundary": boundary_inputs(node, N, rng)}
        for kind, ins in inputs.items():
            for form, q, dialect in forms:
                for label, run in engine(q, node, dialect):
                    try:
                        out = repr(run(ins, N))
                    except Exception as exc:  # an outcome like any other
                        out = "error " + repr(exc)
                    yield f"{node.name} {kind} {form}{label}", out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--seeds", type=int, default=500)
    ap.add_argument("--horizon", type=int, default=20)
    ap.add_argument("--engine", choices=sorted(ENGINES), default="reference")
    args = ap.parse_args(argv)
    corpus = []
    generated = [generate_program(GenConfig(seed=s)) for s in range(args.seeds)]
    for s, p in enumerate(generated):
        corpus.append((f"seed {s}", p, p.nodes[-1:], s))
    paths = sorted(glob.glob(os.path.join(ROOT, "fixtures", "*.lus")))
    paths += sorted(glob.glob(os.path.join(ROOT, "fixtures", "leaky", "*.lus")))
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            p = parse_program(fh.read())
        corpus.append((os.path.relpath(path, ROOT), p, p.nodes, 0))
    for s, p in enumerate(generated):
        q = parse_program(pretty(raising(p)))
        corpus.append((f"raising {s}", q, q.nodes[-1:], s))
    h = hashlib.sha256()
    runs = errors = 0
    for name, p, nodes, seed in corpus:
        for label, out in outcomes(p, nodes, seed, args.horizon, ENGINES[args.engine]):
            h.update(f"{name} {label}\n{out}\n".encode())
            runs += 1
            errors += out.startswith("error ")
    print(f"{runs} runs, {errors} errors", file=sys.stderr)
    print(h.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
