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
generation" (Computer Languages, 1987); `run_node` runs one node of a
program through it.  `check_history` is an independent route: it replays a
produced history through the whole-stream operators and reports every
equation whose defined streams disagree.
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


def _paired(i: CV, v: CV) -> bool:
    """Whether the two operands of a delay are present; they must be
    present together."""
    if (i is ABSENT) != (v is ABSENT):
        raise ClockMismatch("mixed presence in delay")
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


def respects_clock(H: History, bs: ClockStream) -> bool:
    return all(
        v is ABSENT for s in H.values() for v, b in zip(s, bs) if not b
    )


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
# closures allocated (delay registers, saved delay heads, callee frames).
Frame = List[Any]


def _base(f: Frame, base: bool) -> bool:
    return base


def _one(vector: Callable[[Frame], List[CV]]) -> Callable[[Frame], CV]:
    """A scalar closure for an operand position that must hold one
    stream; an operand of another width raises ValueError when run."""

    def one(f: Frame) -> CV:
        (v,) = vector(f)
        return v

    return one


class _Prepared:
    """One node turned into closures over a frame, built once per
    program.  Each closure was chosen for its expression's kind when it
    was built, so an instant dispatches on nothing.

    An instant runs the node's body: phase 1 evaluates the equations in
    schedule order, every delay reading its register and saving its first
    operand's value; phase 2 visits the delays alone, in the order in
    which phase 1 reached them (a delay nested in another's first operand
    first), and evaluates each delay's second operand, which sees the
    whole instant, to commit its register.  A delay inside a second
    operand is evaluated, read and committed right there.  The node's
    base clock is true whenever its body runs: the caller skips the
    instants at which it is false, where every stream of the node is
    absent and no register moves."""

    def __init__(self, program: "ReferenceProgram", node: Node):
        # kept while the closures are built only, so that no cycle holds
        # the program once they are
        self.program = program
        self.slots = {d.name: i for i, d in enumerate(node.decls)}
        self.nin = len(node.inputs)
        self.nvars = len(self.slots)
        self.outputs = [self.slots[d.name] for d in node.outputs]
        self.idle = [ABSENT] * (self.nvars - self.nin)  # outputs and locals
        self.template: Frame = [ABSENT] * self.nvars
        self.callees: List[Tuple[int, Optional["_Prepared"]]] = []
        self.phase2: List[Callable[[Frame], None]] = []
        order = node_schedule(program.prog, node)
        # inputs on the base clock are present exactly when it ticks
        self.checks = [
            self.input_check(k, d) for k, d in enumerate(node.inputs)
            if not isinstance(d.clock, Base)
        ]
        phase1 = [self.equation(eq) for eq in order]
        self.body = phase1 + self.phase2
        del self.program

    def slot(self, initial: Any) -> int:
        self.template.append(initial)
        return len(self.template) - 1

    def new_frame(self) -> Frame:
        f = list(self.template)
        for i, callee in self.callees:
            if callee is not None:
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

    # -- expressions --
    # `expr` returns the width of `e` and its closure: a scalar when the
    # width is 1, a list otherwise.  `delayed` is true inside a delay's
    # second operand, which runs in phase 2.

    def expr(self, e: Expr, delayed: bool) -> Tuple[int, Callable[[Frame], Any]]:
        if isinstance(e, Const):
            v, on = e.value, self.clock(e.clock)
            if on is _base:
                return 1, lambda f: v
            return 1, lambda f: v if on(f, True) else ABSENT
        if isinstance(e, Var):
            return 1, itemgetter(self.slots[e.name])
        if isinstance(e, Unop):
            return 1, self.unop(e, delayed)
        if isinstance(e, Binop):
            return 1, self.binop(e, delayed)
        if isinstance(e, When):
            return self.when(e, delayed)
        if isinstance(e, Merge):
            return self.merge(e, delayed)
        if isinstance(e, Ite):
            return self.ite(e, delayed)
        if isinstance(e, Fby):
            return self.fby(e, delayed)
        if isinstance(e, NodeCall):
            return self.node_call(e, delayed)
        raise TypeError(type(e))

    def one(self, e: Expr, delayed: bool) -> Callable[[Frame], CV]:
        w, fn = self.expr(e, delayed)
        return fn if w == 1 else _one(fn)

    def many(self, es: Sequence[Expr], delayed: bool) -> Tuple[int, Callable[[Frame], Any]]:
        """Width and closure of an operand list: the scalar closure of a
        lone one-stream operand, else a closure for the flattened list."""
        parts = [self.expr(e, delayed) for e in es]
        if len(parts) == 1:
            return parts[0]

        def vector(f: Frame) -> List[CV]:
            out: List[CV] = []
            for w, fn in parts:
                if w == 1:
                    out.append(fn(f))
                else:
                    out.extend(fn(f))
            return out

        return sum(w for w, _ in parts), vector

    def vector(self, es: Sequence[Expr], delayed: bool) -> Tuple[int, Callable[[Frame], List[CV]]]:
        w, fn = self.many(es, delayed)
        if w == 1 and len(es) == 1:
            return 1, lambda f: [fn(f)]
        return w, fn

    def unop(self, e: Unop, delayed: bool) -> Callable[[Frame], CV]:
        operand = self.one(e.operand, delayed)
        op = _UNARY[e.op]

        def unop(f: Frame) -> CV:
            v = operand(f)
            return ABSENT if v is ABSENT else op(v)

        return unop

    def binop(self, e: Binop, delayed: bool) -> Callable[[Frame], CV]:
        left = self.one(e.left, delayed)
        right = self.one(e.right, delayed)
        op = _BINARY[e.op]

        def binop(f: Frame) -> CV:
            return _lift2(op, left(f), right(f))

        return binop

    def when(self, e: When, delayed: bool):
        x, k = self.slots[e.var], e.value
        w, operand = self.many(e.exprs, delayed)
        if w == 1:
            return 1, lambda f: _sample(f[x], operand(f), k)
        return w, lambda f: [_sample(f[x], v, k) for v in operand(f)]

    def merge(self, e: Merge, delayed: bool):
        x = self.slots[e.var]
        w, on_true = self.many(e.on_true, delayed)
        _, on_false = (self.many if w == 1 else self.vector)(e.on_false, delayed)
        if w == 1:

            def merge(f: Frame) -> CV:
                t = on_true(f)
                return _choose(f[x], t, on_false(f))

            return 1, merge

        def merge_n(f: Frame) -> List[CV]:
            xv, ts = f[x], on_true(f)
            return [_choose(xv, t, v) for t, v in zip(ts, on_false(f))]

        return w, merge_n

    def ite(self, e: Ite, delayed: bool):
        cond = self.one(e.cond, delayed)
        w, on_true = self.many(e.on_true, delayed)
        _, on_false = (self.many if w == 1 else self.vector)(e.on_false, delayed)
        if w == 1:

            def ite(f: Frame) -> CV:
                c = cond(f)
                t = on_true(f)
                return _select(c, t, on_false(f))

            return 1, ite

        def ite_n(f: Frame) -> List[CV]:
            c, ts = cond(f), on_true(f)
            return [_select(c, t, v) for t, v in zip(ts, on_false(f))]

        return w, ite_n

    def fby(self, e: Fby, delayed: bool):
        """A delay reads its registers and saves its first operand's
        values in phase 1, and commits in phase 2; inside a second
        operand (`delayed`) it reads and commits at once."""
        w = len(e.types)
        if w == 1 and not delayed:
            return 1, self.delay(e)
        _, init = self.vector(e.init, delayed)
        _, rest = self.vector(e.rest, True)
        regs = [self.slot(_FIRST) for _ in range(w)]

        def read(f: Frame, inits: List[CV]) -> List[CV]:
            return [
                ABSENT if i is ABSENT else (i if f[r] is _FIRST else f[r])
                for i, r in zip(inits, regs)
            ]

        def commit(f: Frame, inits: List[CV]) -> None:
            for i, v, r in zip(inits, rest(f), regs):
                if _paired(i, v):
                    f[r] = v

        if delayed:

            def fby(f: Frame) -> List[CV]:
                inits = init(f)
                out = read(f, inits)
                commit(f, inits)
                return out

        else:
            h = self.slot(ABSENT)

            def fby(f: Frame) -> List[CV]:
                inits = f[h] = init(f)
                return read(f, inits)

            self.phase2.append(lambda f: commit(f, f[h]))
        return (1, lambda f: fby(f)[0]) if w == 1 else (w, fby)

    def delay(self, e: Fby) -> Callable[[Frame], CV]:
        """`fby` for the common case, one stream in phase 1."""
        _, init = self.many(e.init, False)
        w, rest = self.many(e.rest, True)
        rest = rest if w == 1 else _one(rest)
        r, h = self.slot(_FIRST), self.slot(ABSENT)

        def fby(f: Frame) -> CV:
            i = f[h] = init(f)
            if i is ABSENT:
                return ABSENT
            v = f[r]
            return i if v is _FIRST else v

        def commit(f: Frame) -> None:
            v = rest(f)
            if _paired(f[h], v):
                f[r] = v

        self.phase2.append(commit)
        return fby

    def call_site(self, name: str) -> Callable[[Frame, List[CV], bool], List[CV]]:
        """Closure stepping the callee `name` at one call site: checks
        its arguments' presence against the call's activity and returns
        its outputs, all absent when the call is inactive."""
        absent = [ABSENT] * len(self.program.prog.node(name).outputs)
        try:
            callee: Optional[_Prepared] = self.program.prepared(name)
            error = ""
        except CausalityError as exc:
            # raised anew where the call runs: the exception's traceback
            # holds this frame, which would hold the exception
            callee, error = None, str(exc)
        i = self.slot(None)
        self.callees.append((i, callee))
        nin = callee.nin if callee is not None else -1

        def call(f: Frame, args: List[CV], active: bool) -> List[CV]:
            for a in args:
                if (a is not ABSENT) != active:
                    raise ClockMismatch(f"call to {name}: mixed argument presence")
            if callee is None:
                raise CausalityError(error)
            if len(args) != nin:
                raise EvalError(f"{name}: expected {nin} inputs")
            if not active:
                return absent
            sub = f[i]
            callee.step(sub, args)
            return [sub[o] for o in callee.outputs]

        return call

    def node_call(self, e: NodeCall, delayed: bool):
        _, args = self.vector(e.args, delayed)
        call = self.call_site(e.node)
        on = self.clock(e.clock)

        def node_call(f: Frame) -> List[CV]:
            a = args(f)
            return call(f, a, a[0] is not ABSENT if a else on(f, True))

        w = len(e.types)
        if w == 1:
            return 1, lambda f: node_call(f)[0]
        return w, node_call

    # -- equations: one phase-1 closure each --

    def equation(self, eq: AnyEquation) -> Callable[[Frame], None]:
        if isinstance(eq, Equation):
            return self.lustre_equation(eq)
        ts = [self.slots[x] for x in targets(eq)]
        on = self.clock(eq.clock)
        if isinstance(eq, SimpleEq):
            return self.simple_equation(eq, ts[0], on)
        if isinstance(eq, FbyEq):
            return self.fby_equation(eq, ts[0], on)
        if isinstance(eq, CallEq):
            return self.call_equation(eq, ts, on)
        raise TypeError(type(eq))

    def lustre_equation(self, eq: Equation) -> Callable[[Frame], None]:
        # clock annotation has checked that the widths match
        ts = [self.slots[x] for x in eq.targets]
        w, rhs = self.many(eq.exprs, False)
        if w == 1:
            (t,) = ts

            def assign(f: Frame) -> None:
                f[t] = rhs(f)

            return assign

        def assign_n(f: Frame) -> None:
            for t, v in zip(ts, rhs(f)):
                f[t] = v

        return assign_n

    def simple_equation(self, eq: SimpleEq, t: int, on) -> Callable[[Frame], None]:
        rhs = self.one(eq.rhs, False)
        message = f"{eq.target}: value off the equation clock"
        if on is _base:

            def simple_base(f: Frame) -> None:
                v = rhs(f)
                if v is ABSENT:
                    raise ClockMismatch(message)
                f[t] = v

            return simple_base

        def simple(f: Frame) -> None:
            active = on(f, True)
            v = rhs(f)
            if (v is ABSENT) == active:
                raise ClockMismatch(message)
            f[t] = v

        return simple

    def fby_equation(self, eq: FbyEq, t: int, on) -> Callable[[Frame], None]:
        init = self.one(eq.init, False)
        rest = self.one(eq.rhs, True)
        r = self.slot(_FIRST)
        x = eq.target

        def fby(f: Frame) -> None:
            active = on(f, True)
            i = init(f)
            if (i is ABSENT) == active:
                raise ClockMismatch(f"{x}: operand off the equation clock")
            if active:
                v = f[r]
                f[t] = i if v is _FIRST else v
            else:
                f[t] = ABSENT

        def commit(f: Frame) -> None:
            v = rest(f)
            active = f[t] is not ABSENT
            if (v is ABSENT) == active:
                raise ClockMismatch(f"{x}: delayed operand off the clock")
            if active:
                f[r] = v

        self.phase2.append(commit)
        return fby

    def call_equation(self, eq: CallEq, ts: List[int], on) -> Callable[[Frame], None]:
        # the arguments of a call equation hold no delays to advance
        queued = len(self.phase2)
        _, args = self.vector(eq.args, False)
        del self.phase2[queued:]
        call = self.call_site(eq.node)

        def call_eq(f: Frame) -> None:
            active = on(f, True)
            vals = call(f, args(f), active)
            if len(vals) != len(ts):
                raise EvalError("call equation width mismatch")
            for x, t, v in zip(eq.targets, ts, vals):
                if (v is ABSENT) == active:
                    raise ClockMismatch(f"{x}: callee output off the equation clock")
                f[t] = v

        return call_eq


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
        local when None), in that order."""
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
        H = {x: list(columns[p.slots[x]]) for x in cols}
        if dialect == "nlustre" and not respects_clock(H, bs):
            raise ClockMismatch("history does not respect the base clock")
        return H


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
        return _callee_streams(rp, e.node, _sem_all(rp, H, bs, e.args))
    raise TypeError(type(e))


def _sem_all(rp, H, bs, es) -> List[StreamPrefix]:
    out: List[StreamPrefix] = []
    for e in es:
        out.extend(_sem_expr(rp, H, bs, e))
    return out


def _callee_streams(
    rp: ReferenceProgram, name: str, args: List[StreamPrefix]
) -> List[StreamPrefix]:
    """Output streams of the callee `name` run on the argument streams."""
    outs = [d.name for d in rp.prog.node(name).outputs]
    sub = rp.run(name, args, want=outs)
    return [sub[x] for x in outs]


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
            expected = _callee_streams(rp, eq.node, _sem_all(rp, H, bs, eq.args))
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
