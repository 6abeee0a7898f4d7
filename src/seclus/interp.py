"""Finite-prefix executable model of the clocked stream semantics.

A stream prefix is a list of length N whose entries are either a value
(bool or int) or None, which stands for absence.  Each presence rule of
the semantics is one scalar function over one instant (`_lift2`,
`_sample`, `_choose`, `_select`, `_paired`, `_on`, `_check_input`) and is
partial: mixed presence raises ClockMismatch.  These rules are the one
source that the whole-stream operators (`sem_*`, which map them over
whole prefixes), the reference evaluator's closures and the compiled
engine's generated code apply.

`ReferenceProgram` is a deterministic instant-by-instant evaluator
(equations scheduled by instantaneous dependency, delay state carried
across instants).  It annotates a program once and turns each node into
closures over a frame of slots once per program object, at the node's
first run, in the manner of Feeley & Lapalme, "Using closures for code
generation" (Computer Languages, 1987): a component stream that a slot
holds (a variable, a constant on the base clock, a hoisted value, a
call's output) is read from that slot, an operator's result is a
closure, which moves no state, and each equation and whatever has state
is a statement.  As in Vélus's normal form (Bourke et al., PLDI 2017) a
call is a statement of its own, which steps the callee once per instant
and writes its outputs to slots.  `run_node` runs one node of a program
through it.  `check_history` is an independent
route: it replays a produced history through the whole-stream operators
and reports every equation whose defined streams disagree.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

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
# Presence rules, one instant at a time
# ---------------------------------------------------------------------------
# Each rule is written here once.  The whole-stream operators map it over
# their streams, the prepared evaluator calls it at every instant and the
# compiled engine calls `_on` and `_check_input` from its generated code.

# content of a delay register before the delay's first present instant
_FIRST = object()


def _lift2(fn: Callable[[Value, Value], Value], a: CV, b: CV) -> CV:
    if (a is ABSENT) != (b is ABSENT):
        raise ClockMismatch("mixed presence in binary operator")
    return ABSENT if a is ABSENT else fn(a, b)


def _sample(x: CV, v: CV, k: bool) -> CV:
    if (x is ABSENT) != (v is ABSENT):
        raise ClockMismatch("mixed presence in sampling")
    return v if x is not ABSENT and x == k else ABSENT


def _choose(x: CV, t: CV, e: CV) -> CV:
    if x is ABSENT:
        if t is not ABSENT or e is not ABSENT:
            raise ClockMismatch("merge branch present under absent scrutinee")
        return ABSENT
    if x:
        if t is ABSENT or e is not ABSENT:
            raise ClockMismatch("merge true-branch presence mismatch")
        return t
    if e is ABSENT or t is not ABSENT:
        raise ClockMismatch("merge false-branch presence mismatch")
    return e


def _select(c: CV, t: CV, e: CV) -> CV:
    if c is ABSENT and t is ABSENT and e is ABSENT:
        return ABSENT
    if c is ABSENT or t is ABSENT or e is ABSENT:
        raise ClockMismatch("mixed presence in conditional")
    return t if c else e


_MIXED_DELAY = "mixed presence in delay"


def _paired(i: CV, v: CV, mismatch: str = _MIXED_DELAY) -> bool:
    """Whether the two operands of a delay are present; they must be
    present together, else ClockMismatch says `mismatch`."""
    if (i is ABSENT) != (v is ABSENT):
        raise ClockMismatch(mismatch)
    return i is not ABSENT


def _on(parent: bool, x: CV, var: str, k: bool) -> bool:
    """Whether `... on var` (`k`) ticks, given whether its parent clock
    does, with `x` the value of `var`."""
    if not parent:
        if x is not ABSENT:
            raise ClockMismatch(f"{var} present while its clock is off")
        return False
    if x is ABSENT:
        raise ClockMismatch(f"{var} absent while its clock ticks")
    return x == k


def _check_input(ticks: bool, x: CV, name: str) -> None:
    """An input is present exactly when its declared clock ticks."""
    if ticks != (x is not ABSENT):
        raise ClockMismatch(f"input {name} off its declared clock")


# ---------------------------------------------------------------------------
# Whole-stream operators
# ---------------------------------------------------------------------------


def sem_const(bs: ClockStream, c: Value) -> StreamPrefix:
    return [c if b else ABSENT for b in bs]


def sem_lift1(op: str, xs: StreamPrefix) -> StreamPrefix:
    fn = _UNARY[op]
    return [ABSENT if x is ABSENT else fn(x) for x in xs]


def sem_lift2(op: str, xs: StreamPrefix, ys: StreamPrefix) -> StreamPrefix:
    return list(map(_lift2, repeat(_BINARY[op]), xs, ys))


def sem_when(k: bool, xs: StreamPrefix, es: StreamPrefix) -> StreamPrefix:
    return list(map(_sample, xs, es, repeat(k)))


def sem_merge(xs: StreamPrefix, ts: StreamPrefix, fs: StreamPrefix) -> StreamPrefix:
    return list(map(_choose, xs, ts, fs))


def sem_ite(es: StreamPrefix, ts: StreamPrefix, fs: StreamPrefix) -> StreamPrefix:
    return list(map(_select, es, ts, fs))


def sem_fby_L(xs: StreamPrefix, ys: StreamPrefix) -> StreamPrefix:
    """First present instant yields xs's value; afterwards the value of
    ys at the previous present instant (delay skips absences)."""
    out: StreamPrefix = []
    pending: Any = _FIRST
    for x, y in zip(xs, ys):
        if _paired(x, y):
            out.append(x if pending is _FIRST else pending)
            pending = y
        else:
            out.append(ABSENT)
    return out


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
    return list(map(_on, parent, H[ck.var], repeat(ck.var), repeat(ck.value)))


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
    base-clocked inputs, else N instants that all tick.  EvalError when
    the inputs do not fit the node."""
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
    for s, d in zip(inputs, node.inputs):
        if isinstance(d.clock, Base) and ABSENT in s:
            return base_of([s for s, d in zip(inputs, node.inputs) if isinstance(d.clock, Base)])
    return [True] * N


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


def _base(f: Frame, base: bool) -> bool:
    return base


def _closure(x: Operand) -> Read:
    """`x` as a closure: a slot is read by `itemgetter`."""
    return itemgetter(x) if type(x) is int else x


# -- the closures of one component stream, one per operator; those run
# -- most often read operands that are all slots in place --


def _unop(op: Callable, x: Operand) -> Read:
    x = _closure(x)

    def unop(f: Frame) -> CV:
        v = x(f)
        return ABSENT if v is ABSENT else op(v)

    return unop


def _binop(op: Callable, left: Operand, right: Operand) -> Read:
    if type(left) is int and type(right) is int:

        def binop_slots(f: Frame) -> CV:
            return _lift2(op, f[left], f[right])

        return binop_slots
    left, right = _closure(left), _closure(right)

    def binop(f: Frame) -> CV:
        return _lift2(op, left(f), right(f))

    return binop


def _when(x: int, k: bool, operand: Operand) -> Read:
    if type(operand) is int:

        def when_slot(f: Frame) -> CV:
            return _sample(f[x], f[operand], k)

        return when_slot

    def when(f: Frame) -> CV:
        return _sample(f[x], operand(f), k)

    return when


def _merge(x: int, on_true: Operand, on_false: Operand) -> Read:
    on_true, on_false = _closure(on_true), _closure(on_false)

    def merge(f: Frame) -> CV:
        t = on_true(f)
        return _choose(f[x], t, on_false(f))

    return merge


def _ite(cond: Operand, on_true: Operand, on_false: Operand) -> Read:
    if type(cond) is int and type(on_true) is int and type(on_false) is int:

        def ite_slots(f: Frame) -> CV:
            return _select(f[cond], f[on_true], f[on_false])

        return ite_slots
    cond, on_true, on_false = _closure(cond), _closure(on_true), _closure(on_false)

    def ite(f: Frame) -> CV:
        c = cond(f)
        t = on_true(f)
        return _select(c, t, on_false(f))

    return ite


def _delay(init: Operand, rest: Operand, r: int, h: int, mismatch: str) -> Tuple[Read, Stmt]:
    """One component of a delay with register `r`: the closure that reads
    it, saving its first operand's value in slot `h`, and the statement
    that commits its second operand, which must be present with it.  A
    first operand that is a slot is its own `h`: it holds its value for
    the rest of the instant."""
    if type(init) is int:

        def fby(f: Frame) -> CV:
            i = f[init]
            if i is ABSENT:
                return ABSENT
            v = f[r]
            return i if v is _FIRST else v

    else:

        def fby(f: Frame) -> CV:
            i = f[h] = init(f)
            if i is ABSENT:
                return ABSENT
            v = f[r]
            return i if v is _FIRST else v

    rest = _closure(rest)

    def commit(f: Frame) -> None:
        v = rest(f)
        if _paired(f[h], v, mismatch):
            f[r] = v

    return fby, commit


# -- statements --


def _assign(t: int, rhs: Operand) -> Stmt:
    rhs = _closure(rhs)

    def assign(f: Frame) -> None:
        f[t] = rhs(f)

    return assign


def _checked(t: int, rhs: Operand, on: Callable[[Frame, bool], bool], mismatch: str) -> Stmt:
    """Assign `t` a value present exactly where the equation's clock `on`
    ticks."""
    rhs = _closure(rhs)
    if on is _base:

        def simple_base(f: Frame) -> None:
            v = rhs(f)
            if v is ABSENT:
                raise ClockMismatch(mismatch)
            f[t] = v

        return simple_base

    def simple(f: Frame) -> None:
        active = on(f, True)
        v = rhs(f)
        if (v is ABSENT) == active:
            raise ClockMismatch(mismatch)
        f[t] = v

    return simple


class _Prepared:
    """One node turned into statements over a frame, built once per
    program.  Each closure was chosen for its expression's kind when it
    was built, so an instant dispatches on nothing.

    A component stream that a slot of the frame holds is an operand given
    as that slot: a variable, a constant on the base clock (a slot of the
    frame template that no statement writes), a hoisted value and a
    call's output.  Any other, an operator's result, is a closure, which
    moves no state.  A binary operator, a `when`, an `if` and a delay's
    read take operands that are all slots in place (`f[i]`); elsewhere a
    slot is read by `itemgetter`.  Whatever has state is a
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
        order = node_schedule(program.prog, node)
        # inputs on the base clock are present exactly when it ticks
        self.checks = [
            self.input_check(k, d) for k, d in enumerate(node.inputs)
            if not isinstance(d.clock, Base)
        ]
        for eq in order:
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
        for check in self.checks:
            check(f, True)
        for run in self.body:
            run(f)

    # -- clocks --

    def clock(self, ck: Optional[Clock]) -> Callable[[Frame, bool], bool]:
        """Whether `ck` ticks, given whether the base clock does."""
        if ck is None or isinstance(ck, Base):
            return _base
        parent = self.clock(ck.clock)
        var, i, k = ck.var, self.slots[ck.var], ck.value

        def on(f: Frame, base: bool) -> bool:
            return _on(parent(f, base), f[i], var, k)

        return on

    def input_check(self, k: int, d) -> Callable[[Frame, bool], None]:
        on, name = self.clock(d.clock), d.name

        def check(f: Frame, base: bool) -> None:
            _check_input(on(f, base), f[k], name)

        return check

    # -- expressions: one slot or closure per component stream --
    # `sink` collects the statements that the closures read: the phase-1
    # list, or the phase-2 list inside a delay's second operand

    def expr(self, e: Expr, sink: List[Stmt]) -> List[Operand]:
        if isinstance(e, Const):
            v, on = e.value, self.clock(e.clock)
            if on is _base:
                key = (type(v), v)
                if key not in self.constants:
                    self.constants[key] = self.slot(v)
                return [self.constants[key]]
            return [lambda f: v if on(f, True) else ABSENT]
        if isinstance(e, Var):
            return [self.slots[e.name]]
        if isinstance(e, Unop):
            (operand,) = self.expr(e.operand, sink)
            return [_unop(_UNARY[e.op], operand)]
        if isinstance(e, Binop):
            (left,) = self.expr(e.left, sink)
            (right,) = self.expr(e.right, sink)
            return [_binop(_BINARY[e.op], left, right)]
        if isinstance(e, When):
            x, k = self.slots[e.var], e.value
            return [_when(x, k, v) for v in self.all(e.exprs, sink)]
        if isinstance(e, Merge):
            x = self.slots[e.var]
            ts = self.all(e.on_true, sink)
            return [_merge(x, t, v) for t, v in zip(ts, self.all(e.on_false, sink))]
        if isinstance(e, Ite):
            (cond,) = self.expr(e.cond, sink)
            if len(e.types) > 1 and type(cond) is not int:  # a tuple tests its condition once
                cond = self.hoist(cond, sink)
            ts = self.all(e.on_true, sink)
            return [_ite(cond, t, v) for t, v in zip(ts, self.all(e.on_false, sink))]
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
        argv = [_closure(x) for x in self.all(args, sink)]
        on = self.clock(ck)
        if outs is None:
            outs = [self.slot(ABSENT) for _ in decls]
        callee = self.program.prepared(name)
        i = self.slot(None)
        self.callees.append((i, callee))
        results = list(zip(callee.outputs, outs, decls))

        def call(f: Frame) -> None:
            active = on(f, True)
            a = [arg(f) for arg in argv]
            for v in a:
                if (v is ABSENT) == active:
                    raise ClockMismatch(f"call to {name}: mixed argument presence")
            if not active:
                for t in outs:
                    f[t] = ABSENT
                return
            sub = f[i]
            callee.step(sub, a)
            for o, t, d in results:
                v = f[t] = sub[o]
                if v is ABSENT:
                    raise ClockMismatch(f"call to {name}: output {d.name} off the call's clock")

        sink.append(call)
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
    once; each node is scheduled and turned into closures once, at its
    first run, and kept on the annotation (`Program.memo`), so every
    `ReferenceProgram` of one program object shares them."""

    def __init__(self, prog: Program):
        self.prog = annotate_program(prog)
        self.nodes: Dict[str, _Prepared] = self.prog.memo.setdefault("reference", {})

    def prepared(self, name: str) -> _Prepared:
        p = self.nodes.get(name)
        if p is None:
            p = self.nodes[name] = _Prepared(self, self.prog.node(name))
        return p

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
        node = self.prog.node(name)
        bs = base_clock(node, inputs, N)
        p = self.prepared(name)
        cols = [d.name for d in node.decls] if want is None else list(dict.fromkeys(want))
        unknown = [x for x in cols if x not in p.slots]
        if unknown:
            raise ValueError(f"{name} has no variable {unknown[0]!r}")
        f = p.new_frame()
        nin, nvars, idle, checks, body = p.nin, p.nvars, p.idle, p.checks, p.body
        absent = [ABSENT] * nvars
        rows: List[Frame] = []
        for vals, base in zip(zip(*inputs) if inputs else repeat(()), bs):
            f[:nin] = vals
            f[nin:nvars] = idle
            for check in checks:
                check(f, base)
            if base:
                for run in body:
                    run(f)
                rows.append(f[:nvars])
            else:
                rows.append(absent)
        columns = list(zip(*rows)) or [()] * nvars
        return {x: list(columns[p.slots[x]]) for x in cols}


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
