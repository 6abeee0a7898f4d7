"""Wall time per layer as programs grow, with the growth per doubling.

    python3 scripts/scaling.py [--repeat N] [--horizon N]

Two series of programs, each printed as a table:

  generated  `verify.generate_program(GenConfig(seed=0, max_nodes=1,
             max_equations=E))` for E = 256, 512, 1024, 2048, 4096: one
             node, no calls; its size is its equation count
  chain      `nk(a) = n{k-1}(a) + n{k-1}(a + 1)` for k = 2..12, entry
             `nk`: 2^(k+1) - 1 node instances in k + 1 nodes; its size is
             its instance count (`interp.call_cone`)

Each layer of the program is timed on the entry node (the last one):

  parse      `parse_program` of the printed program
  annotate   `annotate_program` of that parse
  infer.src, infer.denest, infer.init
             `typing.check_program` on the source, de-nested and
             delay-initialised forms
  denest     `normalise.normalize_program`
  fby_init   `normalise.fby_init` of the de-nested form
  codegen    `CompiledProgram.source` of the entry recording its outputs
             (the call cone, then the step code's text, not compiled)
  run.compiled, run.reference
             one run of the entry over a horizon of `--horizon` instants
             (default 50) of `verify.random_inputs`, recording its outputs:
             the compiled engine's first run compiles the text, the
             reference engine's prepares the nodes

A cell is the fastest, in milliseconds, of `--repeat` (default 3)
timings, as `timeit` advises on a shared host, each on a program parsed
anew, so nothing kept on a program object
(`Program.memo`) is reused between them.  As in `timeit`, each layer is
timed with the cycle collector off, after a full collection: with it
on, a full collection of the whole heap lands in whichever layer
happens to trigger it, and at 4096 equations that alone can take a
layer from 2x to 5x per doubling.  The last columns give the
growth factor per doubling of the size between each pair of neighbouring
sizes, `(t2 / t1) ** (1 / log2(size2 / size1))`: 2.0 is linear, 4.0
quadratic.  A run that raises (a division by zero, say) is timed up to
its error and marked `!`.  Stdlib only; imports the program from `src/`
next to this directory.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from seclus.ast import annotate_program  # noqa: E402
from seclus.compiled import CompiledProgram  # noqa: E402
from seclus.interp import ClockMismatch, EvalError, ReferenceProgram, call_cone  # noqa: E402
from seclus.normalise import fby_init, normalize_program  # noqa: E402
from seclus.parser import parse_program, pretty  # noqa: E402
from seclus.typing import check_program  # noqa: E402
from seclus.verify import GenConfig, generate_program, random_inputs  # noqa: E402

LAYERS = (
    "parse",
    "annotate",
    "infer.src",
    "denest",
    "infer.denest",
    "fby_init",
    "infer.init",
    "codegen",
    "run.compiled",
    "run.reference",
)
EQUATIONS = (256, 512, 1024, 2048, 4096)
CHAIN = range(2, 13)


def chain(k: int) -> str:
    nodes = ["node n0(a: int) returns (o: int) let o = a; tel"]
    nodes += [
        f"node n{i}(a: int) returns (o: int) let o = n{i - 1}(a) + n{i - 1}(a + 1); tel"
        for i in range(1, k + 1)
    ]
    return "\n".join(nodes) + "\n"


def timed(times: dict, layer: str, fn, *args):
    """`fn(*args)`, timed with the cycle collector off, after a full
    collection, so that no layer pays for another's garbage."""
    gc.collect()
    gc.disable()
    start = time.perf_counter()
    try:
        return fn(*args)
    finally:
        times.setdefault(layer, []).append((time.perf_counter() - start) * 1000)
        gc.enable()


def run(times: dict, raised: set, layer: str, engine, entry: str, inputs, N: int, outs) -> None:
    try:
        timed(times, layer, engine.run, entry, inputs, N, outs)
    except (ClockMismatch, EvalError):
        raised.add(layer)


def measure(text: str, repeat: int, N: int) -> tuple:
    """The fewest milliseconds of each layer on the program `text`, the
    layers whose run raised, and the entry's instance count."""
    times: dict = {}
    raised: set = set()
    for _ in range(repeat):
        p = timed(times, "parse", parse_program, text)
        a = timed(times, "annotate", annotate_program, p)
        node = a.nodes[-1]
        outs = [d.name for d in node.outputs]
        timed(times, "infer.src", check_program, a)
        n = timed(times, "denest", normalize_program, a)
        timed(times, "infer.denest", check_program, n)
        i = timed(times, "fby_init", fby_init, n)
        timed(times, "infer.init", check_program, i)
        engine = CompiledProgram(a)
        timed(times, "codegen", engine.source, node.name, outs)
        inputs = random_inputs(node, N, random.Random(0))
        run(times, raised, "run.compiled", engine, node.name, inputs, N, outs)
        run(times, raised, "run.reference", ReferenceProgram(a), node.name, inputs, N, outs)
    instances = call_cone(a, node.name)[node.name]
    return {k: min(v) for k, v in times.items()}, raised, instances


def table(title: str, sizes: list, cells: list, raised: list, extra: list) -> None:
    """One row per layer: a cell per size, then the growth factor per
    doubling between each pair of neighbouring sizes."""
    steps = [f"{a}>{b}" for a, b in zip(sizes, sizes[1:])]
    print(title)
    print(f"{'':14}" + "".join(f"{s:>10}" for s in sizes) + "  x/doubling " + " ".join(steps))
    for label, values in extra:
        print(f"{label:14}" + "".join(f"{v:>10}" for v in values))
    for layer in LAYERS:
        ms = [c[layer] for c in cells]
        shown = [f"{m:.2f}{'!' if layer in r else ''}" for m, r in zip(ms, raised)]
        growth = [
            (m2 / m1) ** (1 / math.log2(s2 / s1))
            for m1, m2, s1, s2 in zip(ms, ms[1:], sizes, sizes[1:])
        ]
        print(f"{layer:14}" + "".join(f"{v:>10}" for v in shown) + "  " + " ".join(f"{g:.2f}" for g in growth))
    print()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=3, help="timings per cell (the fastest is kept)")
    ap.add_argument("--horizon", type=int, default=50, help="instants of each run")
    args = ap.parse_args(argv)

    cells, raised, sizes, eqs = [], [], [], []
    for e in EQUATIONS:
        text = pretty(generate_program(GenConfig(seed=0, max_nodes=1, max_equations=e)))
        ms, r, _ = measure(text, args.repeat, args.horizon)
        cells.append(ms)
        raised.append(r)
        sizes.append(len(parse_program(text).nodes[-1].equations))
        eqs.append(e)
    title = "generated: GenConfig(seed=0, max_nodes=1, max_equations=E); size = equations; ms"
    table(title, sizes, cells, raised, [("E", eqs)])

    cells, raised, sizes = [], [], []
    for k in CHAIN:
        ms, r, instances = measure(chain(k), args.repeat, args.horizon)
        cells.append(ms)
        raised.append(r)
        sizes.append(instances)
    title = "chain: nk(a) = n{k-1}(a) + n{k-1}(a + 1); size = instances; ms"
    table(title, sizes, cells, raised, [("k", list(CHAIN))])
    return 0


if __name__ == "__main__":
    sys.exit(main())
