"""The four workloads: the make-up of each corpus and the operation the
benchmark applies to one program, with the checks on its outputs.

Every check compares against a fact worked out apart from the program
(golden signatures, the count-down oracle) or a property the paper
proves (preservation, zero divergences, zero NI violations at
analyzer-derived levels).  A wrong output raises `CheckFailed`.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace
from typing import Callable, Tuple

FIXTURES = ("cnt_dn", "re_trig")
GOLDEN = "{}(a1,a2) =>g (b1) {{ g|a1|a2 <= b1 }}"
COUNT_DOWN_INPUTS = [[True, False, False, False], [4, 4, 4, 4]]
COUNT_DOWN_CPT = [4, 3, 2, 1]

# generator seeds 0..GENERATED-1 at the default GenConfig; the first
# OPCODE_PROGRAMS of them, with the fixtures, form the opcode-count subset
GENERATED = 100
OPCODE_PROGRAMS = 4

DIFF_TRIALS, DIFF_HORIZON = 100, 50  # `seclus verify` defaults
NI_TRIALS, NI_HORIZON = 20, 25
LEAKY_TRIALS = 1000
REF_TRIALS, REF_HORIZON = 2, 25

# The boundary-value comparisons of the two engines: every operator
# over every pair of BOUNDARY_VALUES, and every generated program on
# one BOUNDARY_HORIZON-instant trace whose int inputs are drawn half
# from the campaigns' small range and half from the large values.  Their
# inputs never depend on the run's seed, so the same ones fail on every
# run.
INT_MIN, INT_MAX = -(1 << 63), (1 << 63) - 1
LARGE_VALUES = (0, INT_MIN, INT_MAX, 2**53 + 1, 2**53 - 1, -(2**53) + 1, -(2**53) - 1)
BOUNDARY_VALUES = tuple(range(-8, 9)) + LARGE_VALUES[1:]
BOUNDARY_OPS = ("+", "-", "*", "div", "mod", "neg")
BOUNDARY_HORIZON = 25


class CheckFailed(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Item:
    name: str
    text: str
    kind: str  # "fixture", "leaky", "generated", "bv-operator" or "bv-program"
    seed: int = 0  # seed of the inputs the operation draws
    policy: Tuple[Tuple[str, str], ...] = ()  # leaky: named two-point levels


# -- corpus ------------------------------------------------------------------


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _policy(path: str) -> Tuple[Tuple[str, str], ...]:
    named = []
    for line in _read(path).splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            k, v = (s.strip() for s in line.split("="))
            named.append((k, v))
    return tuple(named)


def programs(m, root: str, leaky: bool) -> list:
    """Fixtures (and the leaky pairs), then the generated programs, as
    source text; every trial seed is 0."""
    fixdir = os.path.join(root, "fixtures")
    items = [Item(n, _read(os.path.join(fixdir, n + ".lus")), "fixture") for n in FIXTURES]
    if leaky:
        leakdir = os.path.join(fixdir, "leaky")
        for f in sorted(os.listdir(leakdir)):
            if f.endswith(".lus"):
                base = os.path.join(leakdir, f[:-4])
                items.append(Item(f[:-4], _read(base + ".lus"), "leaky",
                                  policy=_policy(base + ".pol")))
    for s in range(GENERATED):
        p = m.verify.generate_program(m.verify.GenConfig(seed=s))
        items.append(Item(f"gen{s}", m.parser.pretty(p), "generated"))
    return items


def boundary_items(items: list) -> list:
    """The operator comparisons, then one comparison per generated
    program, whose input seed is the program's generator seed."""
    out = []
    for op in BOUNDARY_OPS:
        rhs = "-a" if op == "neg" else f"a {op} b"
        text = f"node bv(a: int; b: int) returns (o: int)\nlet\n  o = {rhs};\ntel\n"
        out.append(Item(f"bv.{op}", text, "bv-operator"))
    generated = [it for it in items if it.kind == "generated"]
    out += [Item("bv." + it.name, it.text, "bv-program", s) for s, it in enumerate(generated)]
    return out


def _operator_inputs(op: str):
    divisors = [b for b in BOUNDARY_VALUES if b != 0 or op not in ("div", "mod")]
    pairs = [(a, b) for a in BOUNDARY_VALUES for b in divisors]
    return [[a for a, _ in pairs], [b for _, b in pairs]]


def _boundary_inputs(node, rng: random.Random):
    out = []
    for d in node.inputs:
        if d.type == "bool":
            out.append([rng.random() < 0.5 for _ in range(BOUNDARY_HORIZON)])
        else:
            out.append([
                rng.choice(LARGE_VALUES) if rng.random() < 0.5 else rng.randrange(-8, 9)
                for _ in range(BOUNDARY_HORIZON)
            ])
    return out


def seeded(items: list, seed: int) -> list:
    """The run's order of the items and a trial seed for each."""
    rng = random.Random(seed)
    out = [replace(it, seed=rng.randrange(2**31)) for it in items]
    rng.shuffle(out)
    return out


# -- operations ----------------------------------------------------------------


def _forms(m, prog):
    n = m.normalize_program(prog)
    return [(prog, "lustre"), (n, "nlustre"), (m.fby_init(n), "nlustre")]


def preservation(m, prog, item: Item) -> None:
    verdicts = m.verify.check_preservation(prog)
    expect(len(verdicts) == len(prog.nodes), "one verdict per node")
    for v in verdicts:
        expect(v.ok, f"{item.name}: preservation fails for {v.node}")
    if item.kind == "fixture":
        for v in verdicts:
            expect(v.denesting_equal and v.init_equal, f"{item.name}: constraints change")
        sig = m.check_program(prog)[item.name]
        expect(m.typing.render_signature(sig) == GOLDEN.format(item.name),
               f"{item.name}: golden signature")


def differential(m, prog, item: Item) -> None:
    fixture = item.kind == "fixture"
    rep = m.verify.differential_semantics(
        prog, trials=DIFF_TRIALS, N=DIFF_HORIZON, seed=item.seed,
        nodes="all" if fixture else "entry",
    )
    expect(rep.ok, f"{item.name}: divergence {rep.divergences[:1]}")
    if item.name == "cnt_dn":
        for form, _ in _forms(m, prog):
            H = m.compiled.CompiledProgram(form).run("cnt_dn", COUNT_DOWN_INPUTS)
            expect(H["cpt"] == COUNT_DOWN_CPT, "count-down oracle (compiled)")


def noninterference(m, prog, item: Item) -> None:
    node = prog.nodes[-1]
    if item.kind == "leaky":
        two = m.lattices["2point"]
        named = dict(item.policy)
        sig = m.check_program(prog)[node.name]
        res = m.check_policy(sig, m.typing.policy_instantiation(node, sig, named), two)
        expect(not res.secure, f"{item.name}: policy accepted")
        rep = m.verify.check_noninterference(
            prog, node.name, two, {d.name: named[d.name] for d in node.inputs}, "L",
            trials=LEAKY_TRIALS, N=NI_HORIZON, seed=item.seed,
            output_levels={d.name: named[d.name] for d in node.outputs},
        )
        expect(not rep.ok, f"{item.name}: no violation observed")
        u, v = rep.violations[0].values
        expect(u != v, f"{item.name}: violation without differing values")
        return
    lat = m.lattices["powerset:2"]
    rng = random.Random(item.seed)
    levels = {d.name: rng.choice(lat.elements) for d in node.inputs}
    for t in lat.elements:
        rep = m.verify.check_noninterference(
            prog, node.name, lat, levels, t, trials=NI_TRIALS, N=NI_HORIZON, seed=item.seed
        )
        expect(rep.ok, f"{item.name}: NI violation at {set(t)}: {rep.violations}")
        expect(rep.trials == NI_TRIALS and not rep.skipped and not rep.errors,
               f"{item.name}: NI trials skipped or failed")


def interpret(m, prog, item: Item) -> None:
    fixture = item.kind == "fixture"
    rep = m.verify.differential_semantics(
        prog, trials=REF_TRIALS, N=REF_HORIZON, seed=item.seed, engine="reference",
        nodes="all" if fixture else "entry",
    )
    expect(rep.ok, f"{item.name}: divergence {rep.divergences[:1]}")
    forms = _forms(m, prog)
    rng = random.Random(item.seed)
    for node in prog.nodes if fixture else prog.nodes[-1:]:
        inputs = m.verify.random_inputs(node, REF_HORIZON, rng)
        for form, dialect in forms:
            H = m.run_node(form, node.name, inputs, dialect=dialect)
            expect(m.check_history(form, node.name, H, [True] * REF_HORIZON) == [],
                   f"{item.name}: replay discrepancy")
            fast = m.compiled.CompiledProgram(form).run(node.name, inputs)
            expect(fast == H, f"{item.name}: engines disagree on {node.name}")
    if item.name == "cnt_dn":
        for form, dialect in forms:
            H = m.run_node(form, "cnt_dn", COUNT_DOWN_INPUTS, dialect=dialect)
            expect(H["cpt"] == COUNT_DOWN_CPT, "count-down oracle (reference)")


def boundary(m, prog, item: Item) -> bool:
    """Do the two engines agree value for value on every variable?  A
    disagreement is a failed operation, not a wrong output of the
    benchmark: it is the program's fault, and the benchmark counts it."""
    node = prog.nodes[-1]
    if item.kind == "bv-operator":
        inputs = _operator_inputs(item.name.split(".", 1)[1])
    else:
        inputs = _boundary_inputs(node, random.Random(item.seed))
    ref = m.run_node(prog, node.name, inputs)
    fast = m.compiled.CompiledProgram(prog).run(node.name, inputs)
    return ref == fast


@dataclass(frozen=True)
class Workload:
    name: str
    op: Callable
    leaky: bool = False
    boundary: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("preservation", preservation),
        Workload("differential", differential),
        Workload("noninterference", noninterference, leaky=True),
        Workload("interpret", interpret, boundary=True),
    )
}
