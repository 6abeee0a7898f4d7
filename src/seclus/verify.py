"""Empirical checks of the analyzer's guarantees.

* `check_preservation`: the security signature of every node, after
  de-nesting and after explicit delay initialisation, is implied by the
  original signature (and equality is reported when it holds).
* `differential_semantics`: the three program forms produce bit-equal
  output streams on random inputs.
* `check_noninterference`: paired runs whose inputs agree at or below an
  observation level agree on every variable at or below that level.
* `generate_program`: a seeded random source of well-formed, causal,
  well-clocked programs used to drive the three checks at scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Tuple, Union

from seclus.ast import (
    Base,
    Binop,
    Const,
    Equation,
    Expr,
    Fby,
    Ite,
    Merge,
    Node,
    NodeCall,
    Program,
    Unop,
    VarDecl,
    Var,
    When,
    validate,
)
from seclus.compiled import CompiledProgram
from seclus.interp import (
    CausalityError,
    ClockMismatch,
    EvalError,
    History,
    ReferenceProgram,
    StreamPrefix,
    run_node,  # unused here; bench/layers.py traces the reference engine by this name
    schedule,
)
from seclus.normalise import fby_init, normalize_program
from seclus.sectypes import (
    GroundInstantiation,
    SecurityLattice,
    implies,
    reachable,
    successors,
)
from seclus.typing import NodeSignature, check_program

# ---------------------------------------------------------------------------
# Observation machinery
# ---------------------------------------------------------------------------


def minimal_instantiation(
    sig: NodeSignature,
    input_levels: Mapping[str, object],
    clock_level: object,
    lat: SecurityLattice,
) -> GroundInstantiation:
    """Least ground instantiation satisfying the signature.  Every
    constraint bounds one output by a join of variables, so the least
    model raises each output to the join of the levels of the inputs and
    the clock that reach it, an edge leading from each variable of a
    left side to the output it bounds (outputs may feed each other)."""
    s: Dict[str, object] = {sig.clock_var: clock_level}
    for a in sig.input_vars:
        s[a] = input_levels[a]
    succ = successors(sig.constraints)
    outputs = dict.fromkeys(sig.output_vars, lat.bottom)
    for a, level in s.items():
        for b in reachable(succ, a, set()):
            if b in outputs:
                outputs[b] = lat.join(outputs[b], level)
    s.update(outputs)
    return s


def variable_levels(
    node: Node,
    sig: NodeSignature,
    input_levels_by_name: Mapping[str, object],
    clock_level: object,
    lat: SecurityLattice,
    output_levels_by_name: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Ground observation level for every variable of the node: inputs
    as given, outputs from the minimal instantiation (unless overridden
    by an explicit policy), locals as the join of the levels of the
    interface variables their eliminated types join."""
    by_var = {
        a: input_levels_by_name[d.name] for d, a in zip(node.inputs, sig.input_vars)
    }
    s = minimal_instantiation(sig, by_var, clock_level, lat)
    levels: Dict[str, object] = {}
    for d, a in zip(node.inputs, sig.input_vars):
        levels[d.name] = s[a]
    for d, b in zip(node.outputs, sig.output_vars):
        levels[d.name] = s[b]
    for x, atoms in sig.local_types.items():
        levels[x] = lat.join_all(s[a] for a in atoms)
    if output_levels_by_name:
        levels.update(output_levels_by_name)
    return levels


# ---------------------------------------------------------------------------
# Guarantee harnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreservationVerdict:
    node: str
    denesting_implied: bool
    denesting_equal: bool
    init_implied: bool
    init_equal: bool
    witness: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.denesting_implied and self.init_implied


def check_preservation(G: Program) -> List[PreservationVerdict]:
    """For every node, the original constraint set implies the one
    inferred after each pass (interface variables coincide by the
    deterministic naming scheme)."""
    before = check_program(G)
    denested = normalize_program(G)
    after_n = check_program(denested)
    after_i = check_program(fby_init(denested))
    out = []
    for name, sig in before.items():
        rn = implies(sig.constraints, after_n[name].constraints)
        ri = implies(sig.constraints, after_i[name].constraints)
        witness = None
        if not rn.holds:
            witness = {"pass": "denesting", "assignment": rn.witness}
        elif not ri.holds:
            witness = {"pass": "fby-init", "assignment": ri.witness}
        out.append(
            PreservationVerdict(
                name,
                rn.holds,
                sig.constraints == after_n[name].constraints,
                ri.holds,
                sig.constraints == after_i[name].constraints,
                witness,
            )
        )
    return out


def random_inputs(node: Node, N: int, rng: random.Random) -> List[StreamPrefix]:
    """All-present input prefixes (full base clock), values drawn small.

    An int is drawn as `rng.randrange(-8, 9)` draws it: 5 random bits,
    drawn again while they are 17 or more, less 8.  The lists and the
    generator's state after are the same; the calls are cheaper."""
    out = []
    bits = rng.getrandbits
    for d in node.inputs:
        if d.type == "bool":
            out.append([rng.random() < 0.5 for _ in range(N)])
            continue
        col: StreamPrefix = []
        for _ in range(N):
            r = bits(5)
            while r >= 17:
                r = bits(5)
            col.append(r - 8)
        out.append(col)
    return out


@dataclass(frozen=True)
class Divergence:
    node: str
    trial: int
    variable: str
    instant: int
    values: Tuple[object, object, object]


@dataclass(frozen=True)
class DifferentialReport:
    nodes: Tuple[str, ...]
    trials: int
    horizon: int
    seed: int
    divergences: Tuple[Divergence, ...]
    # the trials in which every form raised the same error
    errored: int

    @property
    def ok(self) -> bool:
        return not self.divergences


def differential_semantics(
    G: Program,
    trials: int = 100,
    N: int = 50,
    seed: int = 0,
    engine: str = "compiled",
    nodes: str = "entry",
) -> DifferentialReport:
    """Bit-exact output comparison of original / de-nested / delay-
    initialised forms on random full-clock inputs.

    `engine` selects the evaluator: "compiled" (default, fast path) or
    "reference" (the instant-by-instant interpreter).  Both are covered
    against each other by the test suite.

    `nodes` is "entry" (run the last node only; its callees are still
    exercised as sub-instances) or "all" (run every node as the top).

    Each trial draws its inputs from its own seed; the report holds the
    first divergence of each node, in node order, and counts the trials
    in which every form raised the same error (`errored`), which agree
    without comparing any stream.  `trials` must be at least 1.

    On the compiled engine, forms whose step code for a node is the same
    text run once per trial: the same text is the same deterministic
    function, so it gives the same history or error.  The forms' texts
    are generated and compared before the first trial, so each distinct
    text is compiled once and run once per trial."""
    _check_trials(trials)
    engine_class = _engine(engine)
    if nodes == "entry":
        run_list = [G.nodes[-1]]
    elif nodes == "all":
        run_list = list(G.nodes)
    else:
        raise _unknown("nodes", nodes, ("entry", "all"))
    denested = normalize_program(G)
    forms = [engine_class(form) for form in (G, denested, fby_init(denested))]
    divergences: List[Divergence] = []
    errored = 0
    for ni, node in enumerate(run_list):
        outs = [d.name for d in node.outputs]
        # the form whose run stands for each form's: the first with the
        # same step code
        runs = list(range(len(forms)))
        if engine == "compiled":
            texts = [form.source(node.name, outs) for form in forms]
            runs = [texts.index(t) for t in texts]
        for trial in range(trials):
            inputs = random_inputs(node, N, _trial_rng(seed, ni, trial))
            results: List[Dict[str, list]] = []
            for k, form in enumerate(forms):
                if runs[k] != k:
                    results.append(results[runs[k]])
                    continue
                try:
                    results.append(form.run(node.name, inputs, N=N, want=outs))
                except (ClockMismatch, EvalError) as exc:
                    results.append({"!error": [repr(exc)]})
                    # the first form always runs: every form raised the
                    # same error unless the trial diverges
                    errored += k == 0
            d = _first_divergence(node.name, trial, results)
            if d is not None:
                divergences.append(d)
                errored -= "!error" in results[0]
                break
    names = tuple(n.name for n in run_list)
    return DifferentialReport(names, trials, N, seed, tuple(divergences), errored)


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be at least 1, not {trials}")


def _unknown(param: str, value: str, accepted) -> ValueError:
    """The error for a string parameter given none of the values it
    accepts."""
    names = " or ".join(map(repr, accepted))
    return ValueError(f"{param} must be {names}, not {value!r}")


def _trial_rng(seed: int, stream: int, trial: int) -> random.Random:
    return random.Random((seed * 1_000_003 + stream) * 1_000_003 + trial)


_ENGINES = {"compiled": CompiledProgram, "reference": ReferenceProgram}


def _engine(name: str):
    """The evaluator class of an engine name: "compiled" or "reference"."""
    try:
        return _ENGINES[name]
    except KeyError:
        raise _unknown("engine", name, tuple(_ENGINES)) from None


def _first_divergence(name, trial, results) -> Optional[Divergence]:
    a, b, c = results
    if a == b == c:
        return None
    if a.keys() != b.keys() or a.keys() != c.keys():
        return Divergence(name, trial, "!error", -1, (str(a), str(b), str(c)))
    for x in a:
        for i, (u, v, w) in enumerate(zip(a[x], b[x], c[x])):
            if not (u == v == w):
                return Divergence(name, trial, x, i, (u, v, w))
    return None


@dataclass(frozen=True)
class NIViolation:
    level: object
    trial: int
    variable: str
    instant: int
    values: Tuple[object, object]


@dataclass(frozen=True)
class NIReport:
    node: str
    level: object
    trials: int
    violations: Tuple[NIViolation, ...]
    skipped: int = 0
    errors: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def verdict(self) -> str:
        return "pass" if self.ok else "fail"


def check_noninterference(
    G: Program,
    f: str,
    lat: SecurityLattice,
    input_levels: Mapping[str, object],
    t: object,
    trials: int = 1000,
    N: int = 50,
    seed: int = 0,
    output_levels: Optional[Mapping[str, object]] = None,
    clock_pairing: str = "strict",
    engine: str = "compiled",
) -> NIReport:
    """Paired-run test: draw input histories equal at or below t (same
    presence everywhere), run both, and compare every variable at or
    below t pointwise.

    `input_levels` is keyed by the node's input names; `output_levels`,
    when given, overrides the minimal instantiation (used to test
    rejected policies).  With all inputs on the base clock the two runs
    always share presence, so `clock_pairing` only matters for nodes
    with declared derived-clock inputs ("skip" counts such trials out).

    When every input is at or below t, the two runs get the same inputs
    and so the same history, and each trial runs once.  Per-trial
    seeding lets the levels of a sweep share each trial's draws and
    runs: the program object keeps one table of them (see `_NITable`),
    keyed by engine, entry node, horizon and seed (a call with another
    key replaces it), so a level runs only the paired histories that no
    earlier level ran.  The first violation is the first trial, in
    order, whose paired run differs on an observed column, and the
    first such column in sorted order; the campaign stops there.
    `trials` must be at least 1."""
    _check_trials(trials)
    node = G.node(f)
    sig = check_program(G)[f]
    levels = variable_levels(node, sig, input_levels, lat.bottom, lat, output_levels)
    if clock_pairing != "strict":
        if clock_pairing != "skip":
            raise _unknown("clock_pairing", clock_pairing, ("strict", "skip"))
        if any(not isinstance(d.clock, Base) for d in node.inputs):
            return NIReport(f, t, trials, (), trials)
    low = tuple(lat.leq(levels[d.name], t) for d in node.inputs)
    paired = not all(low)
    observed = sorted(x for x in levels if lat.leq(levels[x], t))
    program = _engine(engine)(G)
    table = _NITable.of(G, engine, f, N, seed)
    violations: List[NIViolation] = []
    errors: List[str] = []
    for trial in range(trials):
        outcome = table.first(program, trial)
        if paired and not isinstance(outcome, str):
            outcome = table.differences(program, trial, low)
        if isinstance(outcome, str):
            errors.append(f"trial {trial}: {outcome}")
        elif paired:
            x = next((x for x in observed if x in outcome), None)
            if x is not None:
                i, values = outcome[x]
                violations.append(NIViolation(t, trial, x, i, values))
                break
    return NIReport(f, t, trials, tuple(violations), 0, tuple(errors))


# the columns where a paired run differs from the first run, each with
# its first differing instant and the two values there
Differences = Dict[str, Tuple[int, Tuple[object, object]]]


class _NITrial:
    """The draws and runs of one trial index, made as levels ask.  A
    run that ended in an error is kept as the error's `repr`."""

    __slots__ = ("inputs", "rng", "first", "second", "pairs")

    def __init__(self, inputs: List[StreamPrefix], rng: random.Random, first):
        self.inputs = inputs
        self.rng: Optional[random.Random] = rng  # until the second draw
        self.first: Union[History, str] = first
        self.second: Optional[List[StreamPrefix]] = None
        # the paired runs, by low-input mask
        self.pairs: Dict[Tuple[bool, ...], Union[Differences, str]] = {}


class _NITable:
    """The trials of one non-interference sweep, shared by its levels.

    A trial's inputs depend only on the seed and the trial index, and a
    run only on its inputs, so every level of a sweep draws the same
    first history and every level with the same low inputs builds the
    same paired one.  The table keeps, per trial, the first draw, its
    run, the second draw (made at the first paired level) and, per
    low-input mask, the paired run's `Differences` or error.  One table
    lives in `Program.memo["ni"]`, keyed by (engine, entry node,
    horizon, seed); a call with another key replaces it.  The table
    keeps neither `G` nor an engine over it, which would hold `G` when
    `G` is its own annotation: each call gets the engine that runs."""

    def __init__(self, G: Program, key: tuple):
        _, f, self.N, self.seed = self.key = key
        self.node = G.node(f)
        self.trials: Dict[int, _NITrial] = {}

    @classmethod
    def of(cls, G: Program, engine: str, f: str, N: int, seed: int) -> "_NITable":
        key = (engine, f, N, seed)
        table = G.memo.get("ni")
        if table is None or table.key != key:
            table = G.memo["ni"] = cls(G, key)
        return table

    def _run(self, program, inputs: List[StreamPrefix]) -> Union[History, str]:
        try:
            return program.run(self.node.name, inputs, N=self.N)
        except (ClockMismatch, EvalError) as exc:
            return repr(exc)

    def first(self, program, trial: int) -> Union[History, str]:
        """The first run's history of `trial` on the engine `program`,
        or its error."""
        tr = self.trials.get(trial)
        if tr is None:
            rng = _trial_rng(self.seed, 0, trial)
            inputs = random_inputs(self.node, self.N, rng)
            tr = self.trials[trial] = _NITrial(inputs, rng, self._run(program, inputs))
        return tr.first

    def differences(
        self, program, trial: int, low: Tuple[bool, ...]
    ) -> Union[Differences, str]:
        """The `Differences` of the paired run of `trial` whose inputs
        keep the first draw where `low` holds, or its error.  The first
        run must have succeeded."""
        tr = self.trials[trial]
        out = tr.pairs.get(low)
        if out is None:
            if tr.second is None:
                tr.second, tr.rng = random_inputs(self.node, self.N, tr.rng), None
            mixed = [a if keep else b for a, b, keep in zip(tr.inputs, tr.second, low)]
            H2 = self._run(program, mixed)
            if isinstance(H2, str):
                out = H2
            else:
                out = {}
                for x, s1 in tr.first.items():
                    s2 = H2[x]
                    if s1 != s2:
                        i = next(i for i, (u, v) in enumerate(zip(s1, s2)) if u != v)
                        out[x] = (i, (s1[i], s2[i]))
            tr.pairs[low] = out
        return out


# ---------------------------------------------------------------------------
# Random program generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    max_nodes: int = 5
    max_equations: int = 8


# the generator's other bounds: expression depth, inputs per node and
# `merge`s nested in one expression
MAX_DEPTH = 4
MAX_INPUTS = 3
MERGE_DEPTH = 2
# call sites per program; keeps the tree of node instances (which
# multiplies through chained calls) small enough to execute quickly
MAX_CALLS = 6


_INT_BIN = ["+", "-", "*"]
_CMP = ["<", "<=", ">", ">=", "=", "<>"]
_BOOL_BIN = ["and", "or", "xor"]


class _Gen:
    def __init__(self, cfg: GenConfig):
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.nodes: List[Node] = []
        self.calls_left = MAX_CALLS

    def program(self) -> Program:
        count = self.rng.randint(1, self.cfg.max_nodes)
        for k in range(count):
            self.nodes.append(self.node(f"n{k}"))
        return Program(tuple(self.nodes))

    def node(self, name: str) -> Node:
        rng = self.rng
        n_in = rng.randint(1, MAX_INPUTS)
        inputs = tuple(
            VarDecl(f"i{k}", rng.choice(["bool", "int"])) for k in range(n_in)
        )
        n_eqs = rng.randint(1, self.cfg.max_equations)
        defined = [
            (f"x{k}", rng.choice(["bool", "int"])) for k in range(n_eqs - 1)
        ]
        defined.append(("out", rng.choice(["bool", "int"])))
        rng.shuffle(defined)
        outputs = (VarDecl("out", dict(defined)["out"]),)
        locals_ = tuple(VarDecl(x, ty) for x, ty in defined if x != "out")
        all_vars = {d.name: d.type for d in inputs}
        eqs = []
        ready = dict(all_vars)  # instantaneously usable
        every = dict(all_vars)
        every.update({x: ty for x, ty in defined})
        for x, ty in defined:
            e = self.expr(ty, ready, every, MAX_DEPTH, MERGE_DEPTH)
            eqs.append(Equation((x,), (e,)))
            ready[x] = ty
        return Node(name, inputs, outputs, locals_, tuple(eqs))

    def expr(self, ty, ready, every, depth, mdepth) -> Expr:
        rng = self.rng
        if depth <= 0:
            return self.leaf(ty, ready)
        kinds = ["leaf", "op", "op", "fby", "ite"]
        if ty in [t for t in ready.values()]:
            kinds.append("leaf")
        if mdepth > 0 and any(t == "bool" for t in ready.values()):
            kinds.append("merge")
        if self.nodes and self.calls_left > 0:
            kinds.append("call")
        k = rng.choice(kinds)
        if k == "leaf":
            return self.leaf(ty, ready)
        if k == "op":
            return self.op(ty, ready, every, depth, mdepth)
        if k == "fby":
            init = self.expr(ty, ready, every, depth - 1, mdepth)
            rest = self.expr(ty, every, every, depth - 1, mdepth)
            return Fby((init,), (rest,))
        if k == "ite":
            c = self.expr("bool", ready, every, depth - 1, mdepth)
            a = self.expr(ty, ready, every, depth - 1, mdepth)
            b = self.expr(ty, ready, every, depth - 1, mdepth)
            return Ite(c, (a,), (b,))
        if k == "merge":
            bools = [x for x, t in ready.items() if t == "bool"]
            x = rng.choice(bools)
            a = self.expr(ty, ready, every, depth - 1, mdepth - 1)
            b = self.expr(ty, ready, every, depth - 1, mdepth - 1)
            return Merge(x, (When((a,), x, True),), (When((b,), x, False),))
        # call an earlier node with matching output type, else fall back
        callees = [n for n in self.nodes if n.outputs[0].type == ty]
        if not callees:
            return self.op(ty, ready, every, depth, mdepth)
        self.calls_left -= 1
        callee = rng.choice(callees)
        args = tuple(
            self.expr(d.type, ready, every, depth - 2, mdepth) for d in callee.inputs
        )
        return NodeCall(callee.name, args)

    def op(self, ty, ready, every, depth, mdepth) -> Expr:
        rng = self.rng
        if ty == "int":
            if rng.random() < 0.15:
                e = self.expr("int", ready, every, depth - 1, mdepth)
                if isinstance(e, Const):  # fold: the parser folds -literal too
                    return Const(-e.value)
                return Unop("-", e)
            if rng.random() < 0.1:
                a = self.expr("int", ready, every, depth - 1, mdepth)
                return Binop(rng.choice(["div", "mod"]), a, Const(rng.choice([2, 3, 5])))
            a = self.expr("int", ready, every, depth - 1, mdepth)
            b = self.expr("int", ready, every, depth - 1, mdepth)
            return Binop(rng.choice(_INT_BIN), a, b)
        r = rng.random()
        if r < 0.2:
            return Unop("not", self.expr("bool", ready, every, depth - 1, mdepth))
        if r < 0.5:
            a = self.expr("int", ready, every, depth - 1, mdepth)
            b = self.expr("int", ready, every, depth - 1, mdepth)
            return Binop(rng.choice(_CMP), a, b)
        a = self.expr("bool", ready, every, depth - 1, mdepth)
        b = self.expr("bool", ready, every, depth - 1, mdepth)
        return Binop(rng.choice(_BOOL_BIN), a, b)

    def leaf(self, ty, ready) -> Expr:
        rng = self.rng
        opts = [x for x, t in ready.items() if t == ty]
        if opts and rng.random() < 0.75:
            return Var(rng.choice(opts))
        if ty == "bool":
            return Const(rng.random() < 0.5)
        return Const(rng.randrange(-4, 5))


GEN_ATTEMPTS = 100


def generate_program(cfg: GenConfig) -> Program:
    """Seeded random well-formed, causal, well-clocked program; draws
    again from a derived seed until validation and scheduling succeed,
    and raises ValueError after `GEN_ATTEMPTS` draws."""
    seed = cfg.seed
    for _ in range(GEN_ATTEMPTS):
        p = _Gen(replace(cfg, seed=seed)).program()
        if not validate(p):
            try:
                for n in p.nodes:
                    schedule(n)
                return p
            except CausalityError:
                pass
        seed = seed * 1_000_003 + 17
    raise ValueError(f"no valid program in {GEN_ATTEMPTS} draws from seed {cfg.seed}")


# ---------------------------------------------------------------------------
# Report serialisation
# ---------------------------------------------------------------------------


def report_json(obj) -> dict:
    from dataclasses import asdict, is_dataclass

    if is_dataclass(obj):
        d = asdict(obj)
        for extra in ("ok", "verdict"):
            if hasattr(obj, extra):
                d[extra] = getattr(obj, extra)
        return {k: report_json(v) for k, v in sorted(d.items())}
    if isinstance(obj, (list, tuple)):
        return [report_json(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): report_json(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, frozenset):
        return sorted(str(x) for x in obj)
    return obj
