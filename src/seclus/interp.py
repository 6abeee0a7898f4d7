"""Finite-prefix executable model of the clocked stream semantics.

A stream prefix is a list of length N whose entries are either a value
(bool or int) or None, which stands for absence.  Each presence rule of
the semantics over one instant (`lift1`, `lift2`, `sample`, `choose`,
`select`, `paired`, `on`, `check_input` in `_RULES`) is written once, as
a Python source template over named operands, and is partial: mixed
presence raises ClockMismatch.  These templates are the one source of
the rules.  They are compiled, at first use, into the reference
evaluator's closures and the loops of the whole-stream operators
(`sem_*`), each with its operator's own template inline, and into the
scalar rules `on` and `check_input`, by which `base_clock` checks each
input declared on a derived clock before the first instant of a run on
either engine.

`ReferenceProgram` is a deterministic instant-by-instant evaluator
(equations scheduled by instantaneous dependency, delay state carried
across instants).  It annotates a program once and turns each node into
closures over a frame of slots once per program object, at the node's
first run, in the manner of Feeley & Lapalme, "Using closures for code
generation" (Computer Languages, 1987): a component stream that a slot
holds (a variable, a constant on the base clock, a hoisted value, a
call's output) is read from that slot, an operator's result is a
closure, which moves no state, and each equation and whatever has state
is a statement.  Each closure and statement applies its rule inline, so
an operator costs one call per instant.  As in Vélus's normal form
(Bourke et al., PLDI 2017) a call is a statement of its own, which steps
the callee once per instant and writes its outputs to slots; a callee
is prepared before its callers, in the order of the entry's call cone
(`call_cone`), which the compiled engine reads too.  Both engines
resolve a run in one order: the program (dialect, node, call cone), the
recorded columns (`columns`), then the inputs (`base_clock`), so a
request raises one error on either.  `run_node` runs one node of a
program through it.  `check_history` is an independent
route: it replays a produced history through the whole-stream operators
and reports every equation whose defined streams disagree.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from seclus.ast import (
    AnyEquation,
    Base,
    Binop,
    CallEq,
    Clock,
    Const,
    Equation,
    Expr,
    Fby,
    FbyEq,
    Ite,
    Merge,
    Node,
    NodeCall,
    On,
    Program,
    SimpleEq,
    Unop,
    Var,
    When,
    annotate_program,
    clock_env,
    fv,
    subexprs,
    targets,
)

Value = Union[bool, int]
CV = Optional[Value]  # clocked value; None = absent
StreamPrefix = List[CV]
History = Dict[str, StreamPrefix]
ClockStream = List[bool]

ABSENT: CV = None


class ClockMismatch(Exception):
    pass


class CausalityError(Exception):
    pass


class EvalError(Exception):
    pass


class InstanceLimitError(Exception):
    """An entry whose call cone holds more node instances than
    `INSTANCE_LIMIT`; it is not a run's error, so no campaign counts it
    as an errored trial."""


# ---------------------------------------------------------------------------
# Value operations (wrapping 64-bit integers)
# ---------------------------------------------------------------------------

_HALF = 1 << 63
_MASK = (1 << 64) - 1
INT_MIN = -_HALF
INT_MAX = _HALF - 1

#: Two's-complement wrapping to 64 bits, as Python source around one
#: integer operand `{}`.  A result already in range (almost every one)
#: costs two comparisons; only one outside it takes the three big-int
#: operations.  The operand is bound once to the scratch local `w`, which
#: is read right after the test, so nested wraps cannot clobber it.
#: `wrap` is compiled from this text and the compiled engine inlines it.
#: Wrapping is reduction mod 2**64 into the signed range, exact on
#: integers of any size.
WRAP = f"(w if {INT_MIN} <= (w := {{}}) <= {INT_MAX} else (w + {_HALF} & {_MASK}) - {_HALF})"


def int_mod(a: int, b: int) -> int:
    """Remainder of the division rounded toward zero (it takes the sign
    of a), exact on integers of any size."""
    if b == 0:
        raise EvalError("division by zero")
    r = a % b
    return r - b if r and (a < 0) != (b < 0) else r


def int_div(a: int, b: int) -> int:
    """Quotient rounded toward zero, wrapped to 64 bits (a less its
    remainder is an exact multiple of b)."""
    return wrap((a - int_mod(a, b)) // b)


def _function(template: str, arity: int) -> Callable:
    """The function of `arity` operands `a`, `b` whose body is `template`
    over `{0}`, `{1}`; `div` and `mod` are `int_div` and `int_mod`."""
    params = "ab"[:arity]
    source = f"lambda {', '.join(params)}: {template.format(*params)}"
    return eval(compile(source, "<operator>", "eval"), {"div": int_div, "mod": int_mod})


wrap = _function(WRAP.format("{0}"), 1)


#: The ring operators `+`, `-`, `*` and negation on unbounded integers,
#: before wrapping.  As reduction mod 2**64 commutes with each of them,
#: the compiled engine may print a tree of them with one `WRAP` around it.
RING_UNARY = {"-": "-{0}"}
RING_BINARY = {"+": "{0} + {1}", "-": "{0} - {1}", "*": "{0} * {1}"}

#: Each scalar operator by name, written once, as Python source over its
#: operands `{0}` and `{1}`.  `+`, `-`, `*` and negation are their ring
#: text wrapped by `WRAP`; `div` and `mod` call `int_div` and `int_mod`;
#: `and`, `or` and `xor`, which typing restricts to bools, are the
#: bitwise forms, which evaluate both operands.  `_UNARY` and `_BINARY`
#: are compiled from this text and the compiled engine prints it.
UNARY_TEMPLATES = {"not": "(not {0})", "-": WRAP.format(RING_UNARY["-"])}
BINARY_TEMPLATES = {
    **{op: WRAP.format(t) for op, t in RING_BINARY.items()},
    "div": "div({0}, {1})",
    "mod": "mod({0}, {1})",
    "=": "({0} == {1})",
    "<>": "({0} != {1})",
    "<": "({0} < {1})",
    "<=": "({0} <= {1})",
    ">": "({0} > {1})",
    ">=": "({0} >= {1})",
    "and": "({0} & {1})",
    "or": "({0} | {1})",
    "xor": "({0} ^ {1})",
}

# The scalar operators by name.  The stream operators and the prepared
# evaluator look them up here.
_UNARY = {op: _function(t, 1) for op, t in UNARY_TEMPLATES.items()}
_BINARY = {op: _function(t, 2) for op, t in BINARY_TEMPLATES.items()}


# ---------------------------------------------------------------------------
# Presence rules, written once as source
# ---------------------------------------------------------------------------
# Each rule of the semantics over one instant is written here once, as
# Python source over its named operands, the way `WRAP` and the operator
# templates are: statements that raise ClockMismatch where the operands'
# presence does not fit the rule, then the expression of its value, in
# which the template of an operator over the operands stands for `{op}`.
# No rule is a function of its own: `_built` compiles each construct that
# applies one, at its first use and once per (construct, operator,
# operand kinds), with the rule and the operator inline.  Those are the
# reference engine's closures (see `_Prepared`), the loops of the
# whole-stream operators (`sem_*`) and the scalar rules `on` and
# `check_input` by which `base_clock` checks a run's inputs, so an
# operator costs one Python call per instant.


class _Rule(NamedTuple):
    operands: Tuple[str, ...]
    # the scalars that the rule reads besides its operands
    params: Tuple[str, ...]
    check: str
    result: Optional[str]
    # the operator templates, over `{0}`, `{1}`, of which `{op}` is one
    ops: Optional[Dict[str, str]] = None


_RULES = {
    "lift1": _Rule(("a",), (), "", "None if a is None else {op}", UNARY_TEMPLATES),
    "lift2": _Rule(
        ("a", "b"),
        (),
        """\
if (a is None) != (b is None):
    raise ClockMismatch("mixed presence in binary operator")
""",
        "None if a is None else {op}",
        BINARY_TEMPLATES,
    ),
    # an absent `x` samples nothing, as `None == k` is false
    "sample": _Rule(
        ("x", "v"),
        ("k",),
        """\
if (x is None) != (v is None):
    raise ClockMismatch("mixed presence in sampling")
""",
        "v if x == k else None",
    ),
    # under an absent `x` both branches are absent, so `e` is its value
    "choose": _Rule(
        ("x", "t", "e"),
        (),
        """\
if x is None:
    if t is not None or e is not None:
        raise ClockMismatch("merge branch present under absent scrutinee")
elif x:
    if t is None or e is not None:
        raise ClockMismatch("merge true-branch presence mismatch")
elif e is None or t is not None:
    raise ClockMismatch("merge false-branch presence mismatch")
""",
        "t if x else e",
    ),
    # three absent operands give an absent `e`
    "select": _Rule(
        ("c", "t", "e"),
        (),
        """\
if c is None or t is None or e is None:
    if c is not None or t is not None or e is not None:
        raise ClockMismatch("mixed presence in conditional")
""",
        "t if c else e",
    ),
    # whether the two operands of a delay are present; they must be
    # present together, else ClockMismatch says `mismatch`
    "paired": _Rule(
        ("i", "v"),
        ("mismatch",),
        """\
if (i is None) != (v is None):
    raise ClockMismatch(mismatch)
""",
        "i is not None",
    ),
    # whether `... on var` (`k`) ticks, given whether its parent clock
    # does, with `x` the value of `var`, absent when the parent is off
    "on": _Rule(
        ("parent", "x"),
        ("var", "k"),
        """\
if parent:
    if x is None:
        raise ClockMismatch(f"{var} absent while its clock ticks")
elif x is not None:
    raise ClockMismatch(f"{var} present while its clock is off")
""",
        "x == k",
    ),
    # an input is present exactly when its declared clock ticks
    "check_input": _Rule(
        ("ticks", "x"),
        ("name",),
        """\
if ticks != (x is not None):
    raise ClockMismatch(f"input {name} off its declared clock")
""",
        None,
    ),
}

# content of a delay register before the delay's first present instant
_FIRST = object()

_MIXED_DELAY = "mixed presence in delay"


def _rule(name: str, op: Optional[str], pad: int) -> Tuple[str, Optional[str]]:
    """The check of the rule `name`, indented by `pad` spaces, and its
    value, with the operator `op` inline."""
    r = _RULES[name]
    check = "".join(" " * pad + line for line in r.check.splitlines(True))
    if r.ops is None:
        return check, r.result
    return check, r.result.format(op=r.ops[op].format(*r.operands))


def _read(x: str, slot: bool) -> str:
    """The source that reads the operand `x` off the frame `f`: in place
    when the factory's argument of its name in capitals is a slot, else
    by calling it."""
    return f"f[{x.upper()}]" if slot else f"{x.upper()}(f)"


def _reader_source(name: str, op: Optional[str], slots: Tuple[bool, ...]) -> Tuple[str, str]:
    """A factory of the closure that applies the rule `name`: each operand
    read in turn, its value checked and returned."""
    r = _RULES[name]
    check, result = _rule(name, op, 8)
    reads = "".join(f"        {x} = {_read(x, s)}\n" for x, s in zip(r.operands, slots))
    params = ", ".join([x.upper() for x in r.operands] + list(r.params))
    return "make", (
        f"def make({params}):\n    def {name}(f):\n{reads}{check}"
        f"        return {result}\n    return {name}\n"
    )


def _loop_source(name: str, op: Optional[str]) -> Tuple[str, str]:
    """The rule `name` mapped over whole streams `s0`, `s1`, ..."""
    r = _RULES[name]
    check, result = _rule(name, op, 8)
    streams = [f"s{j}" for j in range(len(r.operands))]
    head = ", ".join(streams + list(r.params))
    each = f"{', '.join(r.operands)} in " + (f"zip({', '.join(streams)})" if len(streams) > 1 else streams[0])
    if not check:
        return name, f"def {name}({head}):\n    return [{result} for {each}]\n"
    return name, (
        f"def {name}({head}):\n    out = []\n    append = out.append\n"
        f"    for {each}:\n{check}        append({result})\n    return out\n"
    )


def _scalar_source(name: str) -> Tuple[str, str]:
    r = _RULES[name]
    check, result = _rule(name, None, 4)
    tail = "" if result is None else f"    return {result}\n"
    return name, f"def {name}({', '.join(r.operands + r.params)}):\n{check}{tail}"


def _fby_source(slot: bool) -> Tuple[str, str]:
    """A factory of the closure that reads a delay with register `R`,
    saving its first operand's value in slot `H` (a first operand that
    is a slot is its own `H`)."""
    return "make", f"""\
def make(I, R, H):
    def fby(f):
        i = {"f[I]" if slot else "f[H] = I(f)"}
        if i is None:
            return None
        v = f[R]
        return i if v is FIRST else v
    return fby
"""


def _commit_source(slot: bool) -> Tuple[str, str]:
    """A factory of the statement that commits a delay's second operand
    `V` to its register `R`, present with the first operand saved in
    `H`."""
    check, paired = _rule("paired", None, 8)
    return "make", f"""\
def make(V, H, R, mismatch):
    def commit(f):
        v = {_read("v", slot)}
        i = f[H]
{check}        if {paired}:
            f[R] = v
    return commit
"""


def _fby_loop_source() -> Tuple[str, str]:
    check, paired = _rule("paired", None, 8)
    return "fby_L", f"""\
def fby_L(s0, s1, mismatch):
    out = []
    append = out.append
    pending = FIRST
    for i, v in zip(s0, s1):
{check}        if {paired}:
            append(i if pending is FIRST else pending)
            pending = v
        else:
            append(None)
    return out
"""


def _assign_source(slot: bool) -> Tuple[str, str]:
    return "make", f"""\
def make(V, T):
    def assign(f):
        f[T] = {_read("v", slot)}
    return assign
"""


def _checked_source(slot: bool, base: bool) -> Tuple[str, str]:
    """A factory of the statement that assigns `T` a value present
    exactly where the equation's clock `ON` ticks."""
    active = "" if base else "        active = ON(f, True)\n"
    test = "v is None" if base else "(v is None) == active"
    return "make", f"""\
def make(V, T, ON, mismatch):
    def checked(f):
{active}        v = {_read("v", slot)}
        if {test}:
            raise ClockMismatch(mismatch)
        f[T] = v
    return checked
"""


def _clock_source(base: bool) -> Tuple[str, str]:
    """A factory of the closure that tells whether `... on var` ticks,
    given whether the base clock does, `var` in slot `X`."""
    check, result = _rule("on", None, 8)
    return "make", f"""\
def make(PARENT, X, var, k):
    def on(f, base):
        parent = {"base" if base else "PARENT(f, base)"}
        x = f[X]
{check}        return {result}
    return on
"""


def _call_source(slots: Tuple[bool, ...], base: bool) -> Tuple[str, str]:
    """A factory of the statement that steps a callee (`step`, its frame
    in slot `I`) where the call's clock `ON` ticks, checking the
    presence of the arguments `A0`, `A1`, ... against it, and writes its
    outputs to the slots `outs`, all absent where it does not."""
    args = [f"A{j}" for j in range(len(slots))]
    reads = ", ".join(f"f[{a}]" if s else f"{a}(f)" for a, s in zip(args, slots))
    return "make", f"""\
def make({", ".join(["ON", "I", "step", "outs", "results", "name"] + args)}):
    def call(f):
        active = {"True" if base else "ON(f, True)"}
        a = [{reads}]
        for v in a:
            if (v is None) == active:
                raise ClockMismatch(f"call to {{name}}: mixed argument presence")
        if not active:
            for t in outs:
                f[t] = None
            return
        sub = f[I]
        step(sub, a)
        for o, t, d in results:
            v = f[t] = sub[o]
            if v is None:
                raise ClockMismatch(f"call to {{name}}: output {{d.name}} off the call's clock")
    return call
"""


_SOURCES: Dict[str, Callable[..., Tuple[str, str]]] = {
    "reader": _reader_source,
    "loop": _loop_source,
    "scalar": _scalar_source,
    "fby": _fby_source,
    "commit": _commit_source,
    "fby_L": _fby_loop_source,
    "assign": _assign_source,
    "checked": _checked_source,
    "clock": _clock_source,
    "call": _call_source,
}
_GLOBALS = {"ClockMismatch": ClockMismatch, "div": int_div, "mod": int_mod, "FIRST": _FIRST}
# each function compiled from the templates, by its key
_BUILT: Dict[Tuple, Callable] = {}


def _built(*key: Any) -> Callable:
    """The function that `key` names, (construct, arguments of its
    source), compiled at its first use."""
    fn = _BUILT.get(key)
    if fn is None:
        name, source = _SOURCES[key[0]](*key[1:])
        namespace = dict(_GLOBALS)
        exec(compile(source, f"<{key[0]}>", "exec"), namespace)
        fn = _BUILT[key] = namespace[name]
    return fn


# ---------------------------------------------------------------------------
# Whole-stream operators
# ---------------------------------------------------------------------------


def sem_const(bs: ClockStream, c: Value) -> StreamPrefix:
    return [c if b else ABSENT for b in bs]


def sem_lift1(op: str, xs: StreamPrefix) -> StreamPrefix:
    return _built("loop", "lift1", op)(xs)


def sem_lift2(op: str, xs: StreamPrefix, ys: StreamPrefix) -> StreamPrefix:
    return _built("loop", "lift2", op)(xs, ys)


def sem_when(k: bool, xs: StreamPrefix, es: StreamPrefix) -> StreamPrefix:
    return _built("loop", "sample", None)(xs, es, k)


def sem_merge(xs: StreamPrefix, ts: StreamPrefix, fs: StreamPrefix) -> StreamPrefix:
    return _built("loop", "choose", None)(xs, ts, fs)


def sem_ite(es: StreamPrefix, ts: StreamPrefix, fs: StreamPrefix) -> StreamPrefix:
    return _built("loop", "select", None)(es, ts, fs)


def sem_fby_L(xs: StreamPrefix, ys: StreamPrefix) -> StreamPrefix:
    """First present instant yields xs's value; afterwards the value of
    ys at the previous present instant (delay skips absences)."""
    return _built("fby_L")(xs, ys, _MIXED_DELAY)


def sem_fby_NL(c: Value, vs: StreamPrefix) -> StreamPrefix:
    """Initialised register: emit the stored value, store the current."""
    out: StreamPrefix = []
    stored: Value = c
    for v in vs:
        if v is ABSENT:
            out.append(ABSENT)
        else:
            out.append(stored)
            stored = v
    return out


def sem_clock(H: History, bs: ClockStream, ck: Clock) -> ClockStream:
    if isinstance(ck, Base):
        return list(bs)
    assert isinstance(ck, On)
    parent = sem_clock(H, bs, ck.clock)
    return _built("loop", "on", None)(parent, H[ck.var], ck.var, ck.value)


def base_of(vs: Sequence[StreamPrefix]) -> ClockStream:
    if not vs:
        return []
    pattern = [v is not ABSENT for v in vs[0]]
    for s in vs[1:]:
        if [v is not ABSENT for v in s] != pattern:
            raise ClockMismatch("inconsistent presence across input streams")
    return pattern


def base_clock(
    node: Node, inputs: Sequence[StreamPrefix], N: Optional[int] = None
) -> ClockStream:
    """The base clock of a run of `node` on `inputs`: the presence of its
    base-clocked inputs, else N instants that all tick.  Every input is
    checked against its declared clock here, before the first instant
    runs, on both engines: EvalError when the inputs do not fit the
    node, ClockMismatch when one is off its clock (`_check_derived`)."""
    if len(inputs) != len(node.inputs):
        raise EvalError(f"{node.name}: expected {len(node.inputs)} input streams")
    if inputs:
        N = len(inputs[0])
        for s in inputs:
            if len(s) != N:
                raise EvalError("input streams must share one length")
    elif N is None:
        raise EvalError("a horizon is required for a node without inputs")
    # one scan per base-clocked input, and no list built, when every
    # value is present (every campaign run)
    bs = None
    derived = False
    for s, d in zip(inputs, node.inputs):
        if not isinstance(d.clock, Base):
            derived = True
        elif ABSENT in s and bs is None:
            bs = base_of([s for s, d in zip(inputs, node.inputs) if isinstance(d.clock, Base)])
    if bs is None:
        bs = [True] * N
    if derived:
        _check_derived(node, inputs, bs)
    return bs


def _check_derived(node: Node, inputs: Sequence[StreamPrefix], bs: ClockStream) -> None:
    """Check each input of `node` declared on a derived clock against
    that clock, instant by instant and, within an instant, in
    declaration order, through the rules `on` and `check_input`; a clock
    variable that is not an input reads as absent, as no equation has
    run yet."""
    on, check = _built("scalar", "on"), _built("scalar", "check_input")
    streams = {d.name: s for s, d in zip(inputs, node.inputs)}
    derived = [(s, d) for s, d in zip(inputs, node.inputs) if not isinstance(d.clock, Base)]

    def ticks(ck: Clock, n: int) -> bool:
        if isinstance(ck, Base):
            return bs[n]
        s = streams.get(ck.var)
        return on(ticks(ck.clock, n), None if s is None else s[n], ck.var, ck.value)

    for n in range(len(bs)):
        for s, d in derived:
            check(ticks(d.clock, n), s[n], d.name)


def columns(node: Node, want: Optional[Sequence[str]]) -> Tuple[str, ...]:
    """The variables that a run of `node` records: `want` without
    repeats, in order, or every input, output and local when None.  A
    name that `node` does not declare is a ValueError."""
    if want is None:
        return tuple(d.name for d in node.decls)
    cols = tuple(dict.fromkeys(want))
    declared = {d.name for d in node.decls}
    for x in cols:
        if x not in declared:
            raise ValueError(f"{node.name} has no variable {x!r}")
    return cols


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------


def inst_deps(e: Expr) -> set[str]:
    """Free variables needed at the current instant: everything except
    the delayed (second) operand subtree of each fby."""
    if isinstance(e, Const):
        return set()
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Unop):
        return inst_deps(e.operand)
    if isinstance(e, Binop):
        return inst_deps(e.left) | inst_deps(e.right)
    if isinstance(e, When):
        return {e.var} | _deps_all(e.exprs)
    if isinstance(e, Merge):
        return {e.var} | _deps_all(e.on_true) | _deps_all(e.on_false)
    if isinstance(e, Ite):
        return inst_deps(e.cond) | _deps_all(e.on_true) | _deps_all(e.on_false)
    if isinstance(e, Fby):
        return _deps_all(e.init)
    if isinstance(e, NodeCall):
        return _deps_all(e.args)
    raise TypeError(type(e))


def _deps_all(es) -> set[str]:
    out: set[str] = set()
    for e in es:
        out |= inst_deps(e)
    return out


def _eq_deps(eq: AnyEquation, clocks: Dict[str, Clock]) -> set[str]:
    """Variables an equation needs at the current instant: those of its
    expressions and those of its targets' clocks."""
    if isinstance(eq, Equation):
        out = _deps_all(eq.exprs)
        for x in eq.targets:
            out |= fv(clocks[x])
        return out
    if isinstance(eq, SimpleEq):
        return inst_deps(eq.rhs) | fv(eq.clock)
    if isinstance(eq, FbyEq):
        return inst_deps(eq.init) | fv(eq.clock)
    if isinstance(eq, CallEq):
        return _deps_all(eq.args) | fv(eq.clock)
    raise TypeError(type(eq))


def schedule(n: Node) -> List[AnyEquation]:
    """Topological order by instantaneous dependency (stable w.r.t. the
    source order); CausalityError on an instantaneous cycle."""
    defined = {x: i for i, eq in enumerate(n.equations) for x in targets(eq)}
    clocks = clock_env(n)
    deps = [
        {defined[x] for x in _eq_deps(eq, clocks) if x in defined}
        for eq in n.equations
    ]
    out: List[AnyEquation] = []
    placed = [False] * len(n.equations)
    done: set[int] = set()
    while len(out) < len(n.equations):
        progress = False
        for i, eq in enumerate(n.equations):
            if not placed[i] and deps[i] <= done:
                out.append(eq)
                placed[i] = True
                done.add(i)
                progress = True
        if not progress:
            stuck = [
                ", ".join(targets(eq))
                for i, eq in enumerate(n.equations)
                if not placed[i]
            ]
            raise CausalityError(
                f"instantaneous dependency cycle among: {'; '.join(stuck)}"
            )
    return out


def node_schedule(prog: Program, node: Node) -> List[AnyEquation]:
    """The schedule of `prog`'s own node of `node`'s name, made once per
    program object (`Program.memo["schedule"]`) for both engines, so a
    node of another form of the program (the unannotated parse of an
    annotation, say) stores nothing of its own."""
    orders = prog.memo.setdefault("schedule", {})
    order = orders.get(node.name)
    if order is None:
        order = orders[node.name] = schedule(prog.node(node.name))
    return order


# the most node instances that one entry may stand for: itself and, at
# each call site, the callee's own count (seeded programs have at most
# 13; the chain `nk(a) = n{k-1}(a) + n{k-1}(a + 1)` has 2^(k+1) - 1)
INSTANCE_LIMIT = 10_000


def call_cone(prog: Program, name: str) -> Dict[str, int]:
    """The node `name` and every node it calls transitively, callees
    first, each with its instance count.  Made once per program object
    and entry (`Program.memo["cone"]`) and read by both engines before
    they prepare or generate anything, so every schedule, and so every
    `CausalityError`, comes from one walk in one order.  An entry above
    `INSTANCE_LIMIT` is an `InstanceLimitError`."""
    cones = prog.memo.setdefault("cone", {})
    cone = cones.get(name)
    if cone is None:
        cone = _cone(prog, name)
        if cone[name] > INSTANCE_LIMIT:
            raise InstanceLimitError(
                f"{name} calls {cone[name]} node instances, above the limit of {INSTANCE_LIMIT}"
            )
        cones[name] = cone
    return cone


def _cone(prog: Program, name: str) -> Dict[str, int]:
    """A walk in depth from `name`, without recursion.  A node is
    scheduled when the walk first reaches it, and the walk goes on in
    the order in which its statements are built: left to right, a call
    after its arguments (`subexprs` walks right to left, callers first).
    So of several non-causal nodes the one raised is the first reached,
    the entry before its callees.  A node joins the cone after its
    callees, with 1 plus the count of the callee at each call site."""
    cone: Dict[str, int] = {}
    # the walk's path: each node reached and not yet in the cone, with
    # the callee of each of its call sites
    path: Dict[str, List[str]] = {}
    stack = [iter([name])]
    while True:
        g = next((g for g in stack[-1] if g not in cone), None)
        if g is None:
            if not path:
                return cone
            stack.pop()
            node, calls = path.popitem()
            cone[node] = 1 + sum([cone[h] for h in calls])
        elif g in path:  # an unvalidated program may call in a cycle
            raise RecursionError(f"call cycle through {g}")
        else:
            path[g] = calls = []
            for eq in node_schedule(prog, prog.node(g)):
                calls += reversed([e.node for e in subexprs(eq) if isinstance(e, NodeCall)])
                if isinstance(eq, CallEq):
                    calls.append(eq.node)
            stack.append(iter(calls))


# ---------------------------------------------------------------------------
# Prepared instant-by-instant evaluator
# ---------------------------------------------------------------------------

# A frame is one instance of one node, as a list: the node's variables in
# declaration order (inputs, outputs, locals), then the slots the node's
# statements allocated (base-clocked constants, delay registers and
# heads, hoisted values, call outputs and callee frames).
Frame = List[Any]
# one component stream that an operator computes: its value at the
# current instant, computed off the frame
Read = Callable[[Frame], CV]
# one component stream as its reader takes it: the frame slot that holds
# it, or the closure that computes it
Operand = Union[int, Read]
# one statement of an instant
Stmt = Callable[[Frame], None]


# whether a clock ticks, given whether the base clock does; None for
# the base clock itself
Tick = Optional[Callable[[Frame, bool], bool]]


def _reader(rule: str, op: Optional[str], operands: Sequence[Operand], *params: Any) -> Read:
    """The closure of one component stream that applies `rule` (and the
    operator `op`) to `operands`."""
    return _built("reader", rule, op, tuple([type(x) is int for x in operands]))(*operands, *params)


def _delay(init: Operand, rest: Operand, r: int, h: int, mismatch: str) -> Tuple[Read, Stmt]:
    """One component of a delay with register `r`: the closure that reads
    it, saving its first operand's value in slot `h`, and the statement
    that commits its second operand, which must be present with it.  A
    first operand that is a slot is its own `h`: it holds its value for
    the rest of the instant."""
    fby = _built("fby", type(init) is int)(init, r, h)
    return fby, _built("commit", type(rest) is int)(rest, h, r, mismatch)


def _assign(t: int, rhs: Operand) -> Stmt:
    return _built("assign", type(rhs) is int)(rhs, t)


def _checked(t: int, rhs: Operand, on: Tick, mismatch: str) -> Stmt:
    """Assign `t` a value present exactly where the equation's clock `on`
    ticks."""
    return _built("checked", type(rhs) is int, on is None)(rhs, t, on, mismatch)


class _Prepared:
    """One node turned into statements over a frame, built once per
    program.  Each closure was chosen for its expression's kind when it
    was built, so an instant dispatches on nothing.

    A component stream that a slot of the frame holds is an operand given
    as that slot: a variable, a constant on the base clock (a slot of the
    frame template that no statement writes), a hoisted value and a
    call's output.  Any other, an operator's result, is a closure, which
    moves no state.  Each closure and statement is compiled from its
    template for the kinds of its operands (`_built`), so it reads a slot
    in place (`f[i]`) and calls a closure.  Whatever has state is a
    statement of its own, run before the statement that reads it: a call
    steps its callee once per instant and writes the callee's outputs to
    slots, which their readers read.  An instant runs phase 1, the
    equations in schedule order, and then phase 2.  A delay's component
    reads its register in phase 1, saving its first operand's value for
    its commit (a first operand that is a slot keeps it there), a
    phase-2 statement that stores the second operand, which sees the
    whole instant.  So phase 2 commits the delays in the order in which
    phase 1 reached them, a delay nested in another's first operand
    first.  A delay nested in a second operand is read into a slot and
    committed by phase-2 statements of its own.  The node's base clock is
    true whenever its body runs: the caller skips the instants at which
    it is false, where every stream of the node is absent and no
    register moves."""

    def __init__(self, program: "ReferenceProgram", node: Node):
        # kept while the statements are built only, so that no cycle
        # holds the program once they are
        self.program = program
        self.slots = {d.name: i for i, d in enumerate(node.decls)}
        self.nin = len(node.inputs)
        self.nvars = len(self.slots)
        self.outputs = [self.slots[d.name] for d in node.outputs]
        self.idle = [ABSENT] * (self.nvars - self.nin)  # outputs and locals
        self.template: Frame = [ABSENT] * self.nvars
        self.callees: List[Tuple[int, "_Prepared"]] = []
        # the slot of each base-clocked constant, by type and value
        self.constants: Dict[Tuple[type, Value], int] = {}
        self.phase1: List[Stmt] = []
        self.phase2: List[Stmt] = []
        for eq in node_schedule(program.prog, node):
            self.equation(eq)
        self.body = self.phase1 + self.phase2
        del self.program

    def slot(self, initial: Any) -> int:
        self.template.append(initial)
        return len(self.template) - 1

    def hoist(self, rhs: Read, sink: List[Stmt]) -> int:
        """A statement of `sink` that computes `rhs` into a slot, and the
        slot."""
        t = self.slot(ABSENT)
        sink.append(_assign(t, rhs))
        return t

    def new_frame(self) -> Frame:
        f = list(self.template)
        for i, callee in self.callees:
            f[i] = callee.new_frame()
        return f

    def step(self, f: Frame, inputs: Sequence[CV]) -> None:
        """One instant at which the base clock ticks."""
        f[: self.nin] = inputs
        f[self.nin : self.nvars] = self.idle
        for run in self.body:
            run(f)

    # -- clocks --

    def clock(self, ck: Optional[Clock]) -> Tick:
        """Whether `ck` ticks, given whether the base clock does; None
        for the base clock."""
        if ck is None or isinstance(ck, Base):
            return None
        parent = self.clock(ck.clock)
        return _built("clock", parent is None)(parent, self.slots[ck.var], ck.var, ck.value)

    # -- expressions: one slot or closure per component stream --
    # `sink` collects the statements that the closures read: the phase-1
    # list, or the phase-2 list inside a delay's second operand

    def expr(self, e: Expr, sink: List[Stmt]) -> List[Operand]:
        if isinstance(e, Const):
            v, on = e.value, self.clock(e.clock)
            if on is None:
                key = (type(v), v)
                if key not in self.constants:
                    self.constants[key] = self.slot(v)
                return [self.constants[key]]
            return [lambda f: v if on(f, True) else ABSENT]
        if isinstance(e, Var):
            return [self.slots[e.name]]
        if isinstance(e, Unop):
            (operand,) = self.expr(e.operand, sink)
            return [_reader("lift1", e.op, (operand,))]
        if isinstance(e, Binop):
            (left,) = self.expr(e.left, sink)
            (right,) = self.expr(e.right, sink)
            return [_reader("lift2", e.op, (left, right))]
        if isinstance(e, When):
            x, k = self.slots[e.var], e.value
            return [_reader("sample", None, (x, v), k) for v in self.all(e.exprs, sink)]
        if isinstance(e, Merge):
            x = self.slots[e.var]
            ts = self.all(e.on_true, sink)
            return [_reader("choose", None, (x, t, v)) for t, v in zip(ts, self.all(e.on_false, sink))]
        if isinstance(e, Ite):
            (cond,) = self.expr(e.cond, sink)
            if len(e.types) > 1 and type(cond) is not int:  # a tuple tests its condition once
                cond = self.hoist(cond, sink)
            ts = self.all(e.on_true, sink)
            return [_reader("select", None, (cond, t, v)) for t, v in zip(ts, self.all(e.on_false, sink))]
        if isinstance(e, Fby):
            return self.delay(e.init, e.rest, sink)
        if isinstance(e, NodeCall):
            return self.call(e.node, e.args, e.clock, sink)
        raise TypeError(type(e))

    def all(self, es: Sequence[Expr], sink: List[Stmt]) -> List[Operand]:
        return [c for e in es for c in self.expr(e, sink)]

    def delay(
        self,
        inits: Sequence[Expr],
        rests: Sequence[Expr],
        sink: List[Stmt],
        mismatch: str = _MIXED_DELAY,
    ) -> List[Operand]:
        """The closures that read a delay's components; their commits,
        and the statements of their second operands, join phase 2.
        Nested in a second operand (`sink` is phase 2), a component is
        read into a slot just before its commit."""
        firsts = self.all(inits, sink)
        reads: List[Operand] = []
        for init, rest in zip(firsts, self.all(rests, self.phase2)):
            h = init if type(init) is int else self.slot(ABSENT)
            fby, commit = _delay(init, rest, self.slot(_FIRST), h, mismatch)
            reads.append(self.hoist(fby, sink) if sink is self.phase2 else fby)
            self.phase2.append(commit)
        return reads

    def call(
        self,
        name: str,
        args: Sequence[Expr],
        ck: Optional[Clock],
        sink: List[Stmt],
        outs: Optional[List[int]] = None,
    ) -> List[Operand]:
        """A statement of `sink` that steps the callee `name` once per
        instant where the call's clock `ck` ticks, checking its
        arguments' presence against it, and writes the callee's outputs
        to the slots `outs` (fresh ones for a call in expression
        position), all absent where it does not; returns those slots."""
        decls = self.program.prog.node(name).outputs
        argv = self.all(args, sink)
        on = self.clock(ck)
        if outs is None:
            outs = [self.slot(ABSENT) for _ in decls]
        # prepared before its callers (see `ReferenceProgram.prepared`)
        callee = self.program.nodes[name]
        i = self.slot(None)
        self.callees.append((i, callee))
        results = list(zip(callee.outputs, outs, decls))
        make = _built("call", tuple([type(x) is int for x in argv]), on is None)
        sink.append(make(on, i, callee.step, outs, results, name, *argv))
        return outs

    # -- equations: phase-1 statements --

    def equation(self, eq: AnyEquation) -> None:
        L = self.phase1
        if isinstance(eq, Equation):
            # clock annotation has checked that the widths match
            ts = iter([self.slots[x] for x in eq.targets])
            for e in eq.exprs:
                if isinstance(e, NodeCall):  # the call writes the targets
                    self.call(e.node, e.args, e.clock, L, [next(ts) for _ in e.types])
                else:
                    rhs = self.expr(e, L)
                    L += [_assign(next(ts), c) for c in rhs]
            return
        ts = [self.slots[x] for x in targets(eq)]
        on = self.clock(eq.clock)
        if isinstance(eq, SimpleEq):
            (rhs,) = self.expr(eq.rhs, L)
            L.append(_checked(ts[0], rhs, on, f"{eq.target}: value off the equation clock"))
        elif isinstance(eq, FbyEq):
            mismatch = f"{eq.target}: delayed operand off the clock"
            (rhs,) = self.delay((eq.init,), (eq.rhs,), L, mismatch)
            L.append(_checked(ts[0], rhs, on, f"{eq.target}: operand off the equation clock"))
        elif isinstance(eq, CallEq):
            self.call(eq.node, eq.args, eq.clock, L, ts)
        else:
            raise TypeError(type(eq))


class ReferenceProgram:
    """The reference interpreter prepared for one program: annotated
    once; each node is scheduled and turned into closures once, at the
    first run of it or of a node that calls it, and kept on the
    annotation (`Program.memo`), so every `ReferenceProgram` of one
    program object shares them."""

    def __init__(self, prog: Program):
        self.prog = annotate_program(prog)
        self.nodes: Dict[str, _Prepared] = self.prog.memo.setdefault("reference", {})

    def prepared(self, name: str) -> _Prepared:
        """The node `name` prepared, with every node of its call cone,
        callees first (`call_cone`), so no preparation recurses into
        another."""
        p = self.nodes.get(name)
        if p is not None:
            return p
        for g in call_cone(self.prog, name):
            if g not in self.nodes:
                self.nodes[g] = _Prepared(self, self.prog.node(g))
        return self.nodes[name]

    def run(
        self,
        name: str,
        inputs: Sequence[StreamPrefix],
        N: Optional[int] = None,
        want: Optional[Sequence[str]] = None,
        dialect: str = "lustre",
    ) -> History:
        """Execute `name` over the given input prefixes.  Returns the
        history of the variables in `want` (every input, output and
        local when None), in that order.  With `dialect="nlustre"`, a
        program with a Lustre-form equation is refused, as
        `parser.pretty` refuses to print it in that dialect."""
        if dialect == "nlustre":
            for n in self.prog.nodes:
                if not n.is_normalised:
                    raise EvalError(f"node {n.name} is not in NLustre form")
        # a request is resolved in one order on both engines: the
        # program (dialect, node, call cone), its columns, its inputs
        node = self.prog.node(name)
        p = self.prepared(name)
        cols = columns(node, want)
        bs = base_clock(node, inputs, N)
        f = p.new_frame()
        nin, nvars, idle, body = p.nin, p.nvars, p.idle, p.body
        absent = [ABSENT] * nvars
        rows: List[Frame] = []
        for vals, base in zip(zip(*inputs) if inputs else repeat(()), bs):
            if base:
                f[:nin] = vals
                f[nin:nvars] = idle
                for run in body:
                    run(f)
                rows.append(f[:nvars])
            else:
                rows.append(absent)
        by_slot = list(zip(*rows)) or [()] * nvars
        return {x: list(by_slot[p.slots[x]]) for x in cols}


def run_node(
    prog: Program,
    name: str,
    inputs: Sequence[StreamPrefix],
    N: Optional[int] = None,
    dialect: str = "lustre",
) -> History:
    """Execute `name` over the given input prefixes; returns the full
    history (inputs, outputs and locals)."""
    return ReferenceProgram(prog).run(name, inputs, N=N, dialect=dialect)


# ---------------------------------------------------------------------------
# Relational replay checker
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Discrepancy:
    node: str
    variable: str
    instant: int
    expected: CV
    actual: CV


def _sem_expr(
    rp: ReferenceProgram, H: History, bs: ClockStream, e: Expr
) -> List[StreamPrefix]:
    if isinstance(e, Const):
        return [sem_const(sem_clock(H, bs, e.clock), e.value)]
    if isinstance(e, Var):
        return [list(H[e.name])]
    if isinstance(e, Unop):
        (s,) = _sem_expr(rp, H, bs, e.operand)
        return [sem_lift1(e.op, s)]
    if isinstance(e, Binop):
        (a,) = _sem_expr(rp, H, bs, e.left)
        (b,) = _sem_expr(rp, H, bs, e.right)
        return [sem_lift2(e.op, a, b)]
    if isinstance(e, When):
        xs = H[e.var]
        return [sem_when(e.value, xs, s) for s in _sem_all(rp, H, bs, e.exprs)]
    if isinstance(e, Merge):
        xs = H[e.var]
        ts = _sem_all(rp, H, bs, e.on_true)
        fs = _sem_all(rp, H, bs, e.on_false)
        return [sem_merge(xs, t, f) for t, f in zip(ts, fs)]
    if isinstance(e, Ite):
        (c,) = _sem_expr(rp, H, bs, e.cond)
        ts = _sem_all(rp, H, bs, e.on_true)
        fs = _sem_all(rp, H, bs, e.on_false)
        return [sem_ite(c, t, f) for t, f in zip(ts, fs)]
    if isinstance(e, Fby):
        xs = _sem_all(rp, H, bs, e.init)
        ys = _sem_all(rp, H, bs, e.rest)
        return [sem_fby_L(x, y) for x, y in zip(xs, ys)]
    if isinstance(e, NodeCall):
        return _callee_streams(rp, H, bs, e.node, _sem_all(rp, H, bs, e.args), e.clock)
    raise TypeError(type(e))


def _sem_all(rp, H, bs, es) -> List[StreamPrefix]:
    out: List[StreamPrefix] = []
    for e in es:
        out.extend(_sem_expr(rp, H, bs, e))
    return out


def _callee_streams(
    rp: ReferenceProgram,
    H: History,
    bs: ClockStream,
    name: str,
    args: List[StreamPrefix],
    ck: Clock,
) -> List[StreamPrefix]:
    """Output streams of the callee `name` run on the argument streams.
    A callee without inputs runs at the instants of the call's clock
    `ck`, and its outputs are absent at the others."""
    outs = [d.name for d in rp.prog.node(name).outputs]
    if args:
        sub = rp.run(name, args, want=outs)
        return [sub[x] for x in outs]
    ticks = sem_clock(H, bs, ck)
    sub = rp.run(name, [], N=sum(ticks), want=outs)
    return [_spread(sub[x], ticks) for x in outs]


def _spread(xs: StreamPrefix, ticks: ClockStream) -> StreamPrefix:
    """`xs` at the instants where `ticks` is true, absent elsewhere."""
    it = iter(xs)
    return [next(it) if b else ABSENT for b in ticks]


def check_history(
    prog: Program, name: str, H: History, bs: ClockStream
) -> List[Discrepancy]:
    """Replay every equation of `name` through the whole-stream
    operators against the history `H`; empty result means H satisfies
    the relational semantics of each equation."""
    rp = ReferenceProgram(prog)
    node = rp.prog.node(name)
    out: List[Discrepancy] = []
    for eq in node.equations:
        if isinstance(eq, Equation):
            expected = _sem_all(rp, H, bs, eq.exprs)
        elif isinstance(eq, SimpleEq):
            expected = _sem_expr(rp, H, bs, eq.rhs)
        elif isinstance(eq, FbyEq):
            (xs,) = _sem_expr(rp, H, bs, eq.init)
            (ys,) = _sem_expr(rp, H, bs, eq.rhs)
            if isinstance(eq.init, Const):
                expected = [sem_fby_NL(eq.init.value, ys)]
            else:
                expected = [sem_fby_L(xs, ys)]
        elif isinstance(eq, CallEq):
            expected = _callee_streams(rp, H, bs, eq.node, _sem_all(rp, H, bs, eq.args), eq.clock)
        else:
            raise TypeError(type(eq))
        for x, s in zip(targets(eq), expected):
            for i, (want, got) in enumerate(zip(s, H[x])):
                if want != got:
                    out.append(Discrepancy(name, x, i, want, got))
                    break
    return out


# ---------------------------------------------------------------------------
# Stream CSV I/O
# ---------------------------------------------------------------------------


def parse_value(text: str) -> CV:
    text = text.strip()
    if text == ".":
        return ABSENT
    low = text.lower()
    if low in ("true", "t"):
        return True
    if low in ("false", "f"):
        return False
    try:
        v = int(text)
    except ValueError:
        raise EvalError(f"bad stream value {text!r}") from None
    if not INT_MIN <= v <= INT_MAX:
        raise EvalError(f"stream value {text!r} is outside the 64-bit integers")
    return v


def format_value(v: CV) -> str:
    if v is ABSENT:
        return "."
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def read_streams(text: str) -> Tuple[List[str], History]:
    import csv

    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if r and any(c.strip() for c in r)]
    if not rows:
        raise EvalError("empty stream CSV")
    names = [c.strip() for c in rows[0]]
    H: History = {}
    for n in names:
        if n in H:
            raise EvalError(f"stream CSV names column {n!r} twice")
        H[n] = []
    for r in rows[1:]:
        if len(r) != len(names):
            raise EvalError("stream CSV row width mismatch")
        for n, c in zip(names, r):
            H[n].append(parse_value(c))
    return names, H


def write_streams(names: Sequence[str], H: History) -> str:
    import csv

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(names)
    n = len(H[names[0]]) if names else 0
    for i in range(n):
        w.writerow([format_value(H[x][i]) for x in names])
    return buf.getvalue()
