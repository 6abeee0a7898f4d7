"""Size, compile time and run cost of the compiled engine's generated code.

    python3 scripts/codegen_stats.py [--seeds N] [--horizon N] [--digest]

For each program form (source, de-nested, fby-init) and each set of
recorded columns (the entry node's outputs, or every variable), over the
two fixtures and the generated programs of seeds 0..N-1, prints:

  lines     lines of generated source, summed over the programs
  bytes     bytes of generated source, summed
  compile   milliseconds to generate and compile, the median of 5 per
            program, summed
  ops/inst  Python instructions executed inside the generated function
            per instant (an opcode counter through `sys.settrace`, as
            `bench/layers.py` counts them), over the runs that raise no
            EvalError
  wraps/inst  64-bit range tests (`interp.WRAP`) executed per instant,
            over the same runs: the stores to the scratch local `w`
  regs      delay registers that the generated code initialises before
            its loop, summed
  raised    runs that stopped with an EvalError
  dead      statements of the generated loop that are transitively dead,
            by a flow-insensitive liveness over the source (`dead_statements`)

The entry node is each program's last node; its inputs are drawn by
`verify.random_inputs` from the program's seed.  A last line counts the
step functions that each trial of `verify.differential_semantics` runs
over the generated programs (the distinct texts among the three forms'
code with the outputs recorded, of three per program), the calls of
Python's `compile` that one campaign of one trial makes over the same
programs, parsed anew, and for each pair of forms the programs whose
two texts are identical.  With `--digest`,
prints instead one SHA-256 over every generated source of the same
corpus, in that order, so two trees that generate the same code print
the same line, and after it one line per source, `label form want
sha256`, so a `diff` of two trees' output names the sources that differ.
Stdlib only; imports the program from `src/` next to this
directory.
"""

from __future__ import annotations

import argparse
import ast
import dis
import hashlib
import os
import random
import re
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from seclus import compiled  # noqa: E402
from seclus.interp import EvalError, base_clock  # noqa: E402
from seclus.normalise import fby_init, normalize_program  # noqa: E402
from seclus.parser import parse_program  # noqa: E402
from seclus.verify import (  # noqa: E402
    GenConfig,
    differential_semantics,
    generate_program,
    random_inputs,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = ("cnt_dn.lus", "re_trig.lus")
FORMS = ("source", "denest", "init")
# the pairs of forms whose identical texts the last line counts
PAIRS = (("source", "denest"), ("source", "init"), ("denest", "init"))
REPEATS = 5
# a register's initialisation, before the loop
REGISTERS = re.compile(r"^    r\d+ = ", re.M)


def programs(seeds: int):
    for name in FIXTURES:
        with open(os.path.join(ROOT, "fixtures", name), encoding="utf-8") as fh:
            yield name, parse_program(fh.read())
    for seed in range(seeds):
        yield seed, generate_program(GenConfig(seed=seed))


def forms(p):
    n = normalize_program(p)
    return dict(zip(FORMS, (p.annotation, n, fby_init(n))))


def wants(node):
    """The recorded columns of each row: the outputs, and every variable."""
    return {"outputs": tuple(d.name for d in node.outputs), "all": tuple(d.name for d in node.decls)}


def digest(seeds: int) -> list:
    """The SHA-256 over every generated source, then one line per source."""
    h = hashlib.sha256()
    lines = []
    for label, p in programs(seeds):
        for f, form in forms(p).items():
            node = form.nodes[-1]
            for w, want in wants(node).items():
                source = compiled._generate(form, node, want).source.encode()
                h.update(source + b"\0")
                lines.append(f"{label} {f} {w} {hashlib.sha256(source).hexdigest()}")
    return [h.hexdigest()] + lines


def _loads(tree) -> set:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def dead_statements(source: str) -> int:
    """The statements of the generated loop that nothing live reads.

    A flow-insensitive liveness over the parsed source: a statement
    without an assignment target (the record of the instant's row
    `row(...)`, an input check, `continue`) and an assignment that calls `div` or `mod` are live; an
    assignment is live when a live statement reads one of its targets.
    A statement under an `if` also reads the names of its test.  Names
    bound by `:=` inside an expression are not targets."""
    (run,) = ast.parse(source).body
    (loop,) = [s for s in run.body if isinstance(s, ast.For)]
    stmts = []  # (targets, reads, root)

    def walk(body, tests):
        for s in body:
            if isinstance(s, ast.If):
                reads = tests | _loads(s.test)
                walk(s.body, reads)
                walk(s.orelse, reads)
            elif isinstance(s, ast.Assign):
                targets = {n.id for t in s.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
                calls = {
                    n.func.id for n in ast.walk(s.value)
                    if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                }
                stmts.append((targets, tests | _loads(s.value), bool(calls & {"div", "mod"})))
            else:
                stmts.append((set(), tests | _loads(s), True))

    walk(loop.body, set())
    live = [False] * len(stmts)
    needed: set = set()
    changed = True
    while changed:
        changed = False
        for i, (targets, reads, root) in enumerate(stmts):
            if not live[i] and (root or not targets.isdisjoint(needed)):
                live[i] = changed = True
                needed |= reads
    return live.count(False)


def count_ops(fn, *args) -> tuple:
    """Instructions executed in frames of generated code during
    `fn(*args)`, and how many of them are the range tests' stores to `w`."""
    ops = [0, 0]
    stores = {
        i.offset for i in dis.get_instructions(fn) if i.opname == "STORE_FAST" and i.argval == "w"
    }

    def local(frame, event, arg):
        if event == "opcode":
            ops[0] += 1
            ops[1] += frame.f_lasti in stores
        return local

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith("<compiled "):
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    sys.settrace(on_call)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    return tuple(ops)


def campaign_compiles(seeds: int, horizon: int) -> int:
    """The calls of Python's `compile` in the compiled engine during one
    differential campaign of one trial per generated program."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return compile(*args, **kwargs)

    compiled.compile = spy  # found before the builtin
    try:
        for seed in range(seeds):
            p = generate_program(GenConfig(seed=seed))
            differential_semantics(p, trials=1, N=horizon, seed=seed)
    finally:
        del compiled.compile
    return len(calls)


def measure(prog, node, want, inputs, N, row) -> str:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        run = compiled._generate(prog, node, want)
        run.fn  # compiled at its first use
        times.append(time.perf_counter() - t0)
    row["lines"] += run.source.count("\n")
    row["bytes"] += len(run.source.encode())
    row["compile"] += 1000 * statistics.median(times)
    row["dead"] += dead_statements(run.source)
    row["regs"] += len(REGISTERS.findall(run.source))
    try:
        ops, wraps = count_ops(run.fn, inputs, base_clock(node, inputs, N))
    except EvalError:
        row["raised"] += 1
        return run.source
    row["ops"] += ops
    row["wraps"] += wraps
    row["instants"] += N
    return run.source


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=100)
    ap.add_argument("--horizon", type=int, default=50)
    ap.add_argument("--digest", action="store_true", help="print one SHA-256 over the generated sources, then one per source")
    args = ap.parse_args(argv)
    if args.digest:
        try:
            print("\n".join(digest(args.seeds)), flush=True)
        except BrokenPipeError:
            # the reader stopped early, as `| head -1` does: no more output
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    keys = ("lines", "bytes", "compile", "ops", "wraps", "instants", "raised", "dead", "regs")
    table = {(f, w): dict.fromkeys(keys, 0) for f in FORMS for w in ("outputs", "all")}
    count = distinct = 0
    same = dict.fromkeys(PAIRS, 0)
    for label, p in programs(args.seeds):
        count += 1
        seed = label if isinstance(label, int) else 0
        steps = {}
        for f, form in forms(p).items():
            node = form.nodes[-1]
            inputs = random_inputs(node, args.horizon, random.Random(seed))
            for w, want in wants(node).items():
                source = measure(form, node, want, inputs, args.horizon, table[(f, w)])
                if w == "outputs":
                    steps[f] = source
        if isinstance(label, int):
            distinct += len(set(steps.values()))
            for a, b in PAIRS:
                same[(a, b)] += steps[a] == steps[b]
    print(f"{count} programs, horizon {args.horizon}")
    print(
        f"{'form':8} {'want':8} {'lines':>7} {'bytes':>8} {'compile':>9} {'ops/inst':>9}"
        f" {'wraps/inst':>10} {'raised':>6} {'dead':>5} {'regs':>5}"
    )
    for (f, w), row in table.items():
        n = row["instants"] or 1
        print(
            f"{f:8} {w:8} {row['lines']:7d} {row['bytes']:8d} {row['compile']:7.1f}ms"
            f" {row['ops'] / n:9.1f} {row['wraps'] / n:10.1f} {row['raised']:6d} {row['dead']:5d} {row['regs']:5d}"
        )
    pairs = ", ".join(f"{a} = {b} {n}" for (a, b), n in same.items())
    print(
        f"distinct step functions per differential trial: {distinct} of {3 * args.seeds};"
        f" compile calls of one campaign: {campaign_compiles(args.seeds, args.horizon)};"
        f" identical texts of {args.seeds}: {pairs}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
