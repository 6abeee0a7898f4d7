"""Abstract syntax for Lustre and NLustre programs.

Expressions, clocks, equations, nodes and programs are dataclasses,
immutable by convention: no pass writes a field of a tree it is given
(`tests/test_immutable.py` checks every pass), and `==` and `hash`
ignore the annotations `clock`, `types` and `annotated`.  Lustre
equations (`Equation`) allow tuples and arbitrary nesting; NLustre
equations come in three restricted shapes (`SimpleEq`, `FbyEq`,
`CallEq`).  Free/defined variables are computed here, and so
is validation: `validate` checks each node's declarations and
definitions, then runs `Checker` once over each equation.  That one
walk checks scope, calls, clocks, widths and value types, and, for
`annotate_program`, builds the tree with every expression's clock and
value types set.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional, Union

Value = Union[bool, int]

BOOL = "bool"
INT = "int"

UNOPS = {"not": BOOL, "-": INT}
# op -> (operand types, result type)
BINOPS = {
    **dict.fromkeys(("+", "-", "*", "div", "mod"), ((INT,), INT)),
    **dict.fromkeys(("<", "<=", ">", ">="), ((INT,), BOOL)),
    **dict.fromkeys(("=", "<>"), ((BOOL, INT), BOOL)),
    **dict.fromkeys(("and", "or", "xor"), ((BOOL,), BOOL)),
}
# (op, operand types...) -> the value types of the result, one entry per
# well-typed application
_APPLY = {(op, t): (t,) for op, t in UNOPS.items()}
_APPLY.update(((op, t, t), (r,)) for op, (ts, r) in BINOPS.items() for t in ts)


# ---------------------------------------------------------------------------
# Clocks
# ---------------------------------------------------------------------------


class Clock:
    """Base class for clock expressions."""

    __slots__ = ()


@dataclass(unsafe_hash=True)
class Base(Clock):
    def __repr__(self) -> str:
        return "base"


@dataclass(unsafe_hash=True)
class On(Clock):
    clock: Clock
    var: str
    value: bool

    def __repr__(self) -> str:
        return f"{self.clock!r} on {self.var}={'T' if self.value else 'F'}"


BASE = Base()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(unsafe_hash=True)
class Expr:
    """Base class.  `clock` is the clock of the expression and `types`
    the value types of its component streams, one per stream, so its
    width is their number.  Both are set by `annotate_program` (None
    until annotated) and ignored by `==`; `repr` shows the clock only."""

    clock: Optional[Clock] = field(default=None, compare=False, kw_only=True)
    types: Optional[tuple[str, ...]] = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass(unsafe_hash=True)
class Const(Expr):
    value: Value


@dataclass(unsafe_hash=True)
class Var(Expr):
    name: str


@dataclass(unsafe_hash=True)
class Unop(Expr):
    op: str
    operand: Expr


@dataclass(unsafe_hash=True)
class Binop(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(unsafe_hash=True)
class When(Expr):
    exprs: tuple[Expr, ...]
    var: str
    value: bool


@dataclass(unsafe_hash=True)
class Merge(Expr):
    var: str
    on_true: tuple[Expr, ...]
    on_false: tuple[Expr, ...]


@dataclass(unsafe_hash=True)
class Ite(Expr):
    cond: Expr
    on_true: tuple[Expr, ...]
    on_false: tuple[Expr, ...]


@dataclass(unsafe_hash=True)
class Fby(Expr):
    init: tuple[Expr, ...]
    rest: tuple[Expr, ...]


@dataclass(unsafe_hash=True)
class NodeCall(Expr):
    node: str
    args: tuple[Expr, ...]


# ---------------------------------------------------------------------------
# Equations
# ---------------------------------------------------------------------------


@dataclass(unsafe_hash=True)
class Equation:
    """Lustre equation  x1,...,xn = e1,...,ek."""

    targets: tuple[str, ...]
    exprs: tuple[Expr, ...]


@dataclass(unsafe_hash=True)
class SimpleEq:
    """NLustre  x =_ck ce  with ce a control expression."""

    target: str
    rhs: Expr
    clock: Clock


@dataclass(unsafe_hash=True)
class FbyEq:
    """NLustre  x =_ck e0 fby e.  `init` is a Const in strict NLustre;
    the de-nesting pass may leave a non-constant head for fby_init to fix."""

    target: str
    init: Expr
    rhs: Expr
    clock: Clock


@dataclass(unsafe_hash=True)
class CallEq:
    """NLustre  (x1,...,xk) =_ck f(e1,...,em)."""

    targets: tuple[str, ...]
    node: str
    args: tuple[Expr, ...]
    clock: Clock


NEquation = Union[SimpleEq, FbyEq, CallEq]
AnyEquation = Union[Equation, SimpleEq, FbyEq, CallEq]


# ---------------------------------------------------------------------------
# Nodes and programs
# ---------------------------------------------------------------------------


@dataclass(unsafe_hash=True)
class VarDecl:
    name: str
    type: str  # "bool" | "int"
    clock: Clock = BASE


@dataclass(unsafe_hash=True)
class Node:
    name: str
    inputs: tuple[VarDecl, ...]
    outputs: tuple[VarDecl, ...]
    locals: tuple[VarDecl, ...]
    equations: tuple[AnyEquation, ...]

    @property
    def decls(self) -> tuple[VarDecl, ...]:
        return self.inputs + self.outputs + self.locals

    @property
    def is_normalised(self) -> bool:
        return all(not isinstance(eq, Equation) for eq in self.equations)


@dataclass(unsafe_hash=True)
class Program:
    nodes: tuple[Node, ...]
    # set by the passes that emit every expression with its clock and
    # value types: such a program is its own annotation
    annotated: bool = field(default=False, compare=False, repr=False)
    _annotation = None  # not a field: set by `annotation`

    @property
    def annotation(self) -> Program:
        """This program with every expression's clock and value types
        set, built at the first use; see `annotate_program`."""
        # an annotated program is its own annotation and does not store
        # itself: that would put it in a reference cycle, which only the
        # cycle collector frees
        if self.annotated:
            return self
        if self._annotation is None:
            self._annotation = _annotate(self)
        return self._annotation

    @cached_property
    def memo(self) -> dict:
        """What later layers derive from this program object once, keyed
        by the layer:

        - "signatures": its security signatures (`typing.check_program`);
        - "compiled": its generated code by entry node and columns
          (`compiled.CompiledProgram`);
        - "ni": the trial table of its last non-interference sweep
          (`verify._NITable`), keyed by engine, entry node, horizon and
          seed; a sweep with another key replaces it;
        - "denested": its de-nested form (`normalise.normalize_program`),
          kept on the annotation;
        - "fby_init": its delay-initialised form (`normalise.fby_init`);
        - "schedule": each node's equations in schedule order, by node
          name (`interp.node_schedule`), shared by both engines;
        - "cone": each entry's call cone, by entry name: the nodes it
          calls, callees first, with their instance counts
          (`interp.call_cone`), shared by both engines;
        - "reference": the reference engine's prepared nodes, by name
          (`interp.ReferenceProgram`).

        Nothing kept here refers back to the program, so a program and
        all of it are freed by reference counting alone."""
        return {}

    def node(self, name: str) -> Node:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(f"unknown node {name!r}")


def children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, Unop):
        return (e.operand,)
    if isinstance(e, Binop):
        return (e.left, e.right)
    if isinstance(e, When):
        return e.exprs
    if isinstance(e, (Merge, Ite)):
        head = () if isinstance(e, Merge) else (e.cond,)
        return head + e.on_true + e.on_false
    if isinstance(e, Fby):
        return e.init + e.rest
    if isinstance(e, NodeCall):
        return e.args
    return ()


def subexprs(eq: AnyEquation) -> Iterator[Expr]:
    """All expressions of an equation, recursively (pre-order)."""
    if isinstance(eq, Equation):
        roots: Iterable[Expr] = eq.exprs
    elif isinstance(eq, SimpleEq):
        roots = (eq.rhs,)
    elif isinstance(eq, FbyEq):
        roots = (eq.init, eq.rhs)
    else:
        roots = eq.args
    stack = list(roots)
    while stack:
        e = stack.pop()
        yield e
        stack.extend(children(e))


# ---------------------------------------------------------------------------
# Free and defined variables
# ---------------------------------------------------------------------------


def fv(x: Union[Expr, Clock, AnyEquation, Iterable[Expr]]) -> set[str]:
    """Free variables of an expression, clock or equation.

    For equations, defined variables are subtracted; for clocks, the base
    clock contributes nothing (it is not a program variable).
    """
    if isinstance(x, Base):
        return set()
    if isinstance(x, On):
        return fv(x.clock) | {x.var}
    if isinstance(x, Expr):
        return _fv_all((x,))
    if isinstance(x, Equation):
        return _fv_all(x.exprs) - set(x.targets)
    if isinstance(x, SimpleEq):
        return (fv(x.clock) | fv(x.rhs)) - {x.target}
    if isinstance(x, FbyEq):
        return (fv(x.clock) | _fv_all((x.init, x.rhs))) - {x.target}
    if isinstance(x, CallEq):
        return (fv(x.clock) | _fv_all(x.args)) - set(x.targets)
    return _fv_all(x)


def _fv_all(es: Iterable[Expr]) -> set[str]:
    out: set[str] = set()
    stack = list(es)
    while stack:
        e = stack.pop()
        if isinstance(e, Var):
            out.add(e.name)
        elif isinstance(e, (When, Merge)):
            out.add(e.var)
        stack.extend(children(e))
    return out


def targets(eq: AnyEquation) -> tuple[str, ...]:
    """The variables an equation defines, in source order."""
    return eq.targets if isinstance(eq, (Equation, CallEq)) else (eq.target,)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Diagnostic:
    kind: str
    node: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} in {self.node}: {self.detail}"


# the faults of scope and calls, reported before any clock or type fault
_UNBOUND = {"FreeVariable", "UnknownNode", "RecursiveCall"}


def validate(prog: Program, dialect: str = "lustre") -> list[Diagnostic]:
    """Check program invariants; returns one diagnostic per violation.

    `dialect` is "lustre" or "nlustre"; the latter additionally requires
    every equation in NEquation form with constant fby heads.
    """
    diags: list[Diagnostic] = []
    # a node may call only the nodes declared before it, so the calls of
    # a program without diagnostics form no cycle
    known: dict[str, Node] = {}
    for n in prog.nodes:
        if n.name in known:
            diags.append(Diagnostic("DuplicateNode", n.name, n.name))
            continue
        diags.extend(_validate_node(n, known, dialect))
        known[n.name] = n
    return diags


def _validate_node(n: Node, known: dict[str, Node], dialect: str) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    # a node declares at least one output, as in Vélus (`n_outgt0`): a
    # call to one without would de-nest to an equation with no target
    if not n.outputs:
        diags.append(Diagnostic("NoOutput", n.name, "declares no output"))
    declared = [d.name for d in n.decls]
    counts = Counter(declared)
    for name in declared:
        if counts[name] > 1:
            diags.append(Diagnostic("DuplicateDeclaration", n.name, name))
            return diags

    defined: list[str] = []
    for eq in n.equations:
        defined.extend(sorted(targets(eq)))
    counts = Counter(defined)
    must_define = {d.name for d in n.outputs} | {d.name for d in n.locals}
    inputs = {d.name for d in n.inputs}
    for x in defined:
        if counts[x] > 1:
            diags.append(Diagnostic("DuplicateDefinition", n.name, x))
            return diags
        if x not in must_define:
            kind = "InputRedefined" if x in inputs else "UndeclaredTarget"
            diags.append(Diagnostic(kind, n.name, x))
    for x in sorted(must_define - counts.keys()):
        diags.append(Diagnostic("MissingDefinition", n.name, x))

    # one walk per equation, which ends at its first fault
    check = Checker(n, known, build=False)
    faults: list[Diagnostic] = []
    for eq in n.equations:
        try:
            check.equation(eq)
        except ClockError as exc:
            d = Diagnostic(exc.kind, n.name, str(exc))
            (diags if exc.kind in _UNBOUND else faults).append(d)
    for d in n.decls:
        for x in sorted(fv(d.clock) - check.env.keys()):
            diags.append(Diagnostic("FreeVariable", n.name, f"{x} (clock of {d.name})"))

    if not diags:
        diags = faults
    if dialect == "nlustre" and not diags:
        diags.extend(_check_normalised(n))
    return diags


def _check_normalised(n: Node) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for eq in n.equations:
        if isinstance(eq, Equation):
            diags.append(Diagnostic("NotNormalised", n.name, "Lustre-form equation"))
            continue
        if isinstance(eq, FbyEq) and not isinstance(eq.init, Const):
            diags.append(Diagnostic("NonConstantFbyInit", n.name, eq.target))
        for e in subexprs(eq):
            if isinstance(e, (Fby, NodeCall)):
                diags.append(Diagnostic("NestedOperator", n.name, type(e).__name__))
            if isinstance(e, When) and len(e.exprs) != 1:
                diags.append(Diagnostic("TupleInNLustre", n.name, "when over a tuple"))
        if isinstance(eq, SimpleEq):
            diags.extend(
                Diagnostic("NestedControl", n.name, eq.target)
                for e in _non_ctrl_subexprs(eq.rhs)
                if isinstance(e, (Merge, Ite))
            )
    return diags


def _non_ctrl_subexprs(ce: Expr) -> Iterator[Expr]:
    """Subexpressions in simple-expression position under a control expr."""
    if isinstance(ce, Merge):
        for b in ce.on_true + ce.on_false:
            yield from _non_ctrl_subexprs(b)
    elif isinstance(ce, Ite):
        yield from _all_subexprs(ce.cond)
        for b in ce.on_true + ce.on_false:
            yield from _non_ctrl_subexprs(b)
    else:
        yield from _all_subexprs(ce)


def _all_subexprs(e: Expr) -> Iterator[Expr]:
    yield e
    for c in children(e):
        yield from _all_subexprs(c)


def type_env(n: Node) -> dict[str, str]:
    return {d.name: d.type for d in n.decls}


def clock_env(n: Node) -> dict[str, Clock]:
    return {d.name: d.clock for d in n.decls}


# ---------------------------------------------------------------------------
# The checking pass
# ---------------------------------------------------------------------------


class ClockError(Exception):
    """A fault that the checking pass meets in an equation.  `kind`
    names the diagnostic that `validate` reports for it."""

    def __init__(self, detail: str, kind: str = "ClockConflict") -> None:
        super().__init__(detail)
        self.kind = kind


def _arity(detail: str) -> ClockError:
    return ClockError(detail, "ArityMismatch")


_INT64 = range(-(1 << 63), 1 << 63)

Types = tuple[str, ...]


class Checker:
    """The rules of well-formed equations, applied to those of one node.

    A right-hand side runs on the clock of its equation (NLustre) or of
    the targets it defines (Lustre), so the clock that every
    subexpression must have is known before it is visited.  It is passed
    down, and each subexpression is checked against it once:

    - a constant takes it; a variable must be declared on it;
    - `e when x` runs on `ck on x`, where `ck` is the clock of `x`, and
      `e` runs on `ck`;
    - `merge x a b` runs on the clock of `x`, `a` on the sub-clock where
      `x` is true and `b` where it is false;
    - every other operator runs on the clock of its operands.  So do
      the components of a tuple-valued `fby` or `if`, and a node call
      with all of its arguments and outputs, so the callee must declare
      every input and output on its base clock.

    The same visit finds an undeclared variable (`FreeVariable`), a call
    to a node outside `nodes` (`UnknownNode`, or `RecursiveCall` for the
    node itself), widths that differ (`ArityMismatch`) and value types
    that do not fit (`TypeMismatch`); the first fault ends the walk of
    the equation.  Each visit returns the value types of the component
    streams of the subexpression, so its width is their number, and,
    with `build`, the subexpression with every `clock` and `types` field
    set (else None).
    """

    def __init__(self, n: Node, nodes: Mapping[str, Node], build: bool) -> None:
        self.name = n.name
        self.nodes = nodes
        self.build = build
        self.env = {d.name: (d.clock, (d.type,)) for d in n.decls}
        self.where = ""  # the targets of the equation, for messages

    def var(self, x: str) -> tuple[Clock, Types]:
        """The declared clock and the value type of `x`."""
        found = self.env.get(x)
        if found is None:
            raise ClockError(x, "FreeVariable")
        return found

    def same(self, got: Clock, want: Clock) -> None:
        if got is not want and got != want:
            raise ClockError(f"{self.where}: {got!r} vs {want!r}")

    def mismatch(self, detail: str) -> ClockError:
        return ClockError(f"{self.where}: {detail}", "TypeMismatch")

    def misapplied(self, op: str, t: str, other: Optional[str] = None) -> ClockError:
        if other is not None and other != t:
            return self.mismatch(f"{op} applied to {t} and {other}")
        return self.mismatch(f"{op} applied to {t}")

    def declared(self, got: Types, want: Types) -> None:
        if got != want:
            raise self.mismatch(f"{', '.join(got)} vs declared {', '.join(want)}")

    def disagree(self, ts: Types, fs: Types, widths: str, types: str) -> ClockError:
        """The fault of two operands of a `merge`, an `if` or a `fby`
        whose value types differ."""
        if len(ts) != len(fs):
            return _arity(f"{widths} widths {len(ts)} vs {len(fs)}")
        return self.mismatch(f"{types} types differ")

    def expr(self, e: Expr, ck: Clock) -> tuple[Types, Optional[Expr]]:
        build = self.build
        if isinstance(e, Const):
            if isinstance(e.value, bool):
                ts = (BOOL,)
            elif e.value in _INT64:
                ts = (INT,)
            else:
                raise self.mismatch(f"integer literal {e.value} is outside the 64-bit integers")
            return ts, Const(e.value, clock=ck, types=ts) if build else None
        if isinstance(e, Var):
            got, ts = self.var(e.name)
            self.same(got, ck)
            return ts, Var(e.name, clock=ck, types=ts) if build else None
        if isinstance(e, Unop):
            t, operand = self.one(e.operand, ck)
            ts = _APPLY.get((e.op, t))
            if ts is None:
                raise self.misapplied(e.op, t)
            return ts, Unop(e.op, operand, clock=ck, types=ts) if build else None
        if isinstance(e, Binop):
            tl, left = self.one(e.left, ck)
            tr, right = self.one(e.right, ck)
            ts = _APPLY.get((e.op, tl, tr))
            if ts is None:
                raise self.misapplied(e.op, tl, tr)
            return ts, Binop(e.op, left, right, clock=ck, types=ts) if build else None
        if isinstance(e, When):
            under, tx = self.var(e.var)
            self.same(On(under, e.var, e.value), ck)
            if tx != (BOOL,):
                raise self.mismatch(f"when condition {e.var} is not bool")
            ts, exprs = self.all(e.exprs, under)
            return ts, When(exprs, e.var, e.value, clock=ck, types=ts) if build else None
        if isinstance(e, Merge):
            got, tx = self.var(e.var)
            self.same(got, ck)
            if tx != (BOOL,):
                raise self.mismatch(f"merge scrutinee {e.var} is not bool")
            ts, on_true = self.all(e.on_true, On(ck, e.var, True))
            fs, on_false = self.all(e.on_false, On(ck, e.var, False))
            if ts != fs:
                raise self.disagree(ts, fs, "branch", "merge branch")
            return ts, Merge(e.var, on_true, on_false, clock=ck, types=ts) if build else None
        if isinstance(e, Ite):
            tc, cond = self.one(e.cond, ck)
            if tc != BOOL:
                raise self.mismatch("if condition is not bool")
            ts, on_true = self.all(e.on_true, ck)
            fs, on_false = self.all(e.on_false, ck)
            if ts != fs:
                raise self.disagree(ts, fs, "branch", "if branch")
            return ts, Ite(cond, on_true, on_false, clock=ck, types=ts) if build else None
        if isinstance(e, Fby):
            ts, init = self.all(e.init, ck)
            rs, rest = self.all(e.rest, ck)
            if ts != rs:
                raise self.disagree(ts, rs, "fby", "fby operand")
            return ts, Fby(init, rest, clock=ck, types=ts) if build else None
        if isinstance(e, NodeCall):
            ts, args = self.call(e.node, e.args, ck)
            return ts, NodeCall(e.node, args, clock=ck, types=ts) if build else None
        raise TypeError(type(e))

    def one(self, e: Expr, ck: Clock) -> tuple[str, Optional[Expr]]:
        ts, built = self.expr(e, ck)
        try:
            (t,) = ts
        except ValueError:
            raise _arity(f"{len(ts)} streams where one is expected") from None
        return t, built

    def all(self, es: Iterable[Expr], ck: Clock) -> tuple[Types, Optional[tuple[Expr, ...]]]:
        ts: Types = ()
        built = []
        for e in es:
            k, b = self.expr(e, ck)
            ts += k
            built.append(b)
        return ts, tuple(built) if self.build else None

    def call(
        self, node: str, args: tuple[Expr, ...], ck: Clock
    ) -> tuple[Types, Optional[tuple[Expr, ...]]]:
        """The value types of the outputs of `node`, and its arguments."""
        callee = self.nodes.get(node)
        if callee is None:
            raise ClockError(node, "RecursiveCall" if node == self.name else "UnknownNode")
        ts, built = self.all(args, ck)
        if len(ts) != len(callee.inputs):
            raise _arity(f"{node} expects {len(callee.inputs)} inputs, got {len(ts)}")
        for d in callee.inputs + callee.outputs:
            if d.clock != BASE:
                raise ClockError(
                    f"{self.where}: {node} declares {d.name} on {d.clock!r}, off its base clock"
                )
        want = [d.type for d in callee.inputs]
        if list(ts) != want:
            raise self.mismatch(f"argument types of {node}: {list(ts)} vs {want}")
        return tuple([d.type for d in callee.outputs]), built

    def equation(self, eq: AnyEquation) -> AnyEquation:
        """Check `eq`; with `build`, return it with its clocks set."""
        self.where = ", ".join(targets(eq))
        if isinstance(eq, Equation):
            return self.lustre(eq)
        ck, build = eq.clock, self.build
        on = ck
        while isinstance(on, On):
            self.var(on.var)
            on = on.clock
        if isinstance(eq, CallEq):
            ts, args = self.call(eq.node, eq.args, ck)
            if len(ts) != len(eq.targets):
                raise _arity(f"{eq.node} returns {len(ts)}, got {len(eq.targets)} targets")
            want: Types = ()
            for x in eq.targets:
                got, t = self.var(x)
                self.same(got, ck)
                want += t
            self.declared(ts, want)
            return CallEq(eq.targets, eq.node, args, ck) if build else eq
        if isinstance(eq, SimpleEq):
            t, rhs = self.one(eq.rhs, ck)
            got, want = self.var(eq.target)
            self.same(got, ck)
            self.declared((t,), want)
            return SimpleEq(eq.target, rhs, ck) if build else eq
        t, init = self.one(eq.init, ck)
        t1, rhs = self.one(eq.rhs, ck)
        got, want = self.var(eq.target)
        self.same(got, ck)
        if t != t1:
            raise self.mismatch("fby operand types differ")
        self.declared((t,), want)
        return FbyEq(eq.target, init, rhs, ck) if build else eq

    def lustre(self, eq: Equation) -> Equation:
        """Each expression of the tuple runs on the declared clock of the
        targets it defines; one beyond the targets on the clock of the
        expression before it."""
        declared = [self.var(x) for x in eq.targets]
        got: Types = ()
        exprs = []
        ck = BASE
        for e in eq.exprs:
            pos = len(got)
            if pos < len(declared):
                ck = declared[pos][0]
            ts, built = self.expr(e, ck)
            for other, _ in declared[pos + 1 : pos + len(ts)]:
                self.same(ck, other)
            exprs.append(built)
            got += ts
        if len(got) != len(declared):
            raise _arity(f"{len(declared)} targets but rhs width {len(got)}")
        self.declared(got, tuple([t for _, (t,) in declared]))
        return Equation(eq.targets, tuple(exprs)) if self.build else eq


def _annotate(prog: Program) -> Program:
    by_name = {n.name: n for n in reversed(prog.nodes)}  # the first, as `Program.node`
    nodes = []
    for n in prog.nodes:
        check = Checker(n, by_name, build=True)
        try:
            eqs = tuple(check.equation(eq) for eq in n.equations)
        except ClockError as exc:
            raise ClockError(str(Diagnostic(exc.kind, n.name, str(exc))), exc.kind) from None
        nodes.append(Node(n.name, n.inputs, n.outputs, n.locals, eqs))
    return Program(tuple(nodes), annotated=True)


def annotate_program(prog: Program) -> Program:
    """`prog` with the clock and the value types of every expression
    set, made once per program object.  Raises `ClockError` where `validate` would report
    a fault of an equation; its `kind` names the diagnostic."""
    return prog.annotation
