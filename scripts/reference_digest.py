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
     dividend divides by zero, run as in part 1;
  4. the inputs on a derived clock: each program of part 1 with its
     entry wrapped as `node top(c: bool; x1: T1 :: base on c; ...)
     returns (o: T) let o = merge c (n(x1, ...)) (default when not c);
     tel`, on the three forms, each on inputs present exactly where `c`
     is true and on a copy with one value of one input moved off its
     clock (absent where `c` is true, or present where it is false).

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


def base_inputs(node, N: int, rng: random.Random):
    """Inputs of parts 1 to 3, all present: drawn by
    `verify.random_inputs`, and on 64-bit boundary values."""
    return {"random": random_inputs(node, N, rng), "boundary": boundary_inputs(node, N, rng)}


def clocked_inputs(node, N: int, rng: random.Random):
    """Inputs of part 4's `top`, `c` first: each other input present
    exactly where `c` is true, and a copy with one value of one of them
    moved off that clock."""
    c, *drawn = random_inputs(node, N, rng)
    xs = [[v if on else None for v, on in zip(x, c)] for x in drawn]
    off = [list(x) for x in xs]
    k, n = rng.randrange(len(xs)), rng.randrange(N)
    off[k][n] = None if c[n] else drawn[k][n]
    return {"clocked": [c] + xs, "off-clock": [c] + off}


def on_a_derived_clock(p):
    """`p` with a node `top` whose inputs, but `c`, are on `base on c`,
    and which calls `p`'s entry node on them and merges its one output
    with a default."""
    entry = p.nodes[-1]
    (out,) = entry.outputs
    xs = [f"x{k}" for k in range(1, len(entry.inputs) + 1)]
    decls = "".join(f"; {x}: {d.type} :: base on c" for x, d in zip(xs, entry.inputs))
    default = "0" if out.type == "int" else "false"
    top = (
        f"node top(c: bool{decls}) returns (o: {out.type})"
        f" let o = merge c ({entry.name}({', '.join(xs)})) ({default} when not c); tel"
    )
    return parse_program(pretty(p) + "\n" + top + "\n")


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


def outcomes(p, nodes, seed: int, N: int, engine=reference_runs, draw=base_inputs):
    """The label and outcome of each run of `nodes` of `p`, on each set
    of inputs that `draw` gives."""
    n = normalize_program(p)
    forms = (("source", p, "lustre"), ("denest", n, "nlustre"), ("init", fby_init(n), "nlustre"))
    for node in nodes:
        for kind, ins in draw(node, N, random.Random(seed)).items():
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
        corpus.append((f"seed {s}", p, p.nodes[-1:], s, base_inputs))
    paths = sorted(glob.glob(os.path.join(ROOT, "fixtures", "*.lus")))
    paths += sorted(glob.glob(os.path.join(ROOT, "fixtures", "leaky", "*.lus")))
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            p = parse_program(fh.read())
        corpus.append((os.path.relpath(path, ROOT), p, p.nodes, 0, base_inputs))
    for s, p in enumerate(generated):
        q = parse_program(pretty(raising(p)))
        corpus.append((f"raising {s}", q, q.nodes[-1:], s, base_inputs))
    for s, p in enumerate(generated):
        q = on_a_derived_clock(p)
        corpus.append((f"clocked {s}", q, q.nodes[-1:], s, clocked_inputs))
    h = hashlib.sha256()
    runs = errors = 0
    for name, p, nodes, seed, draw in corpus:
        for label, out in outcomes(p, nodes, seed, args.horizon, ENGINES[args.engine], draw):
            h.update(f"{name} {label}\n{out}\n".encode())
            runs += 1
            errors += out.startswith("error ")
    print(f"{runs} runs, {errors} errors", file=sys.stderr)
    print(h.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
