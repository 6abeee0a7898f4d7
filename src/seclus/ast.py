"""Abstract syntax for Lustre and NLustre programs.

Expressions, clocks, equations, nodes and programs are immutable
dataclasses.  Lustre equations (`Equation`) allow tuples and arbitrary
nesting; NLustre equations come in three restricted shapes (`SimpleEq`,
`FbyEq`, `CallEq`).  Free/defined-variable computation, stream-arity
(width) computation, program validation and the clock pass live here as
well.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Iterator, Optional, Union

Value = Union[bool, int]

BOOL = "bool"
INT = "int"

UNOPS = {"not": BOOL, "-": INT}
# op -> (operand type, result type); comparison ops take ints, return bool
ARITH_BINOPS = {"+", "-", "*", "div", "mod"}
CMP_BINOPS = {"<", "<=", ">", ">="}
EQ_BINOPS = {"=", "<>"}
BOOL_BINOPS = {"and", "or", "xor"}
BINOPS = ARITH_BINOPS | CMP_BINOPS | EQ_BINOPS | BOOL_BINOPS


# ---------------------------------------------------------------------------
# Clocks
# ---------------------------------------------------------------------------


class Clock:
    """Base class for clock expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Base(Clock):
    def __repr__(self) -> str:
        return "base"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Expr:
    """Base class; `clock` is a per-component annotation filled by clock
    inference (None until inferred, compare-insensitive)."""

    clock: Optional[Clock] = field(default=None, compare=False, kw_only=True)


@dataclass(frozen=True)
class Const(Expr):
    value: Value


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Unop(Expr):
    op: str
    operand: Expr


@dataclass(frozen=True)
class Binop(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class When(Expr):
    exprs: tuple[Expr, ...]
    var: str
    value: bool


@dataclass(frozen=True)
class Merge(Expr):
    var: str
    on_true: tuple[Expr, ...]
    on_false: tuple[Expr, ...]


@dataclass(frozen=True)
class Ite(Expr):
    cond: Expr
    on_true: tuple[Expr, ...]
    on_false: tuple[Expr, ...]


@dataclass(frozen=True)
class Fby(Expr):
    init: tuple[Expr, ...]
    rest: tuple[Expr, ...]


@dataclass(frozen=True)
class NodeCall(Expr):
    node: str
    args: tuple[Expr, ...]


# ---------------------------------------------------------------------------
# Equations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Equation:
    """Lustre equation  x1,...,xn = e1,...,ek."""

    targets: tuple[str, ...]
    exprs: tuple[Expr, ...]


@dataclass(frozen=True)
class SimpleEq:
    """NLustre  x =_ck ce  with ce a control expression."""

    target: str
    rhs: Expr
    clock: Clock


@dataclass(frozen=True)
class FbyEq:
    """NLustre  x =_ck e0 fby e.  `init` is a Const in strict NLustre;
    the de-nesting pass may leave a non-constant head for fby_init to fix."""

    target: str
    init: Expr
    rhs: Expr
    clock: Clock


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class VarDecl:
    name: str
    type: str  # "bool" | "int"
    clock: Clock = BASE


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Program:
    nodes: tuple[Node, ...]
    # set by the passes that emit every expression with its clock: such
    # a program is its own annotation
    annotated: bool = field(default=False, compare=False, repr=False)

    @cached_property
    def annotation(self) -> Program:
        """This program with every expression's clock set, built at the
        first use; see `annotate_program`."""
        return self if self.annotated else _annotate(self)

    @cached_property
    def memo(self) -> dict:
        """What later layers derive from this program object once (its
        signatures, its generated code), keyed by the layer."""
        return {}

    def __getstate__(self) -> dict:
        # the memo holds generated functions, which cannot be pickled
        state = dict(self.__dict__)
        state.pop("memo", None)
        return state

    def node(self, name: str) -> Node:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(f"unknown node {name!r}")

    def call_graph(self) -> dict[str, set[str]]:
        return {n.name: called_nodes(n) for n in self.nodes}


def called_nodes(n: Node) -> set[str]:
    calls = {eq.node for eq in n.equations if isinstance(eq, CallEq)}
    for eq in n.equations:
        calls.update(e.node for e in subexprs(eq) if isinstance(e, NodeCall))
    return calls


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


def dv(eq: AnyEquation) -> set[str]:
    return set(_targets(eq))


def _targets(eq: AnyEquation) -> tuple[str, ...]:
    return eq.targets if isinstance(eq, (Equation, CallEq)) else (eq.target,)


# ---------------------------------------------------------------------------
# Stream arity (width)
# ---------------------------------------------------------------------------


def width(e: Expr, prog: Program) -> int:
    """Number of streams an expression flattens to."""
    if isinstance(e, (Const, Var, Unop, Binop)):
        return 1
    if isinstance(e, When):
        return width_all(e.exprs, prog)
    if isinstance(e, Merge):
        return width_all(e.on_true, prog)
    if isinstance(e, Ite):
        return width_all(e.on_true, prog)
    if isinstance(e, Fby):
        return width_all(e.init, prog)
    if isinstance(e, NodeCall):
        return len(prog.node(e.node).outputs)
    raise TypeError(type(e))


def width_all(es: Iterable[Expr], prog: Program) -> int:
    return sum(width(e, prog) for e in es)


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


def validate(prog: Program, dialect: str = "lustre") -> list[Diagnostic]:
    """Check program invariants; returns one diagnostic per violation.

    `dialect` is "lustre" or "nlustre"; the latter additionally requires
    every equation in NEquation form with constant fby heads.
    """
    diags: list[Diagnostic] = []
    seen_nodes: set[str] = set()
    for n in prog.nodes:
        if n.name in seen_nodes:
            diags.append(Diagnostic("DuplicateNode", n.name, n.name))
            continue
        seen_nodes.add(n.name)
        diags.extend(_validate_node(n, prog, seen_nodes, dialect))
    return diags


def _validate_node(
    n: Node, prog: Program, known: set[str], dialect: str
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    declared = [d.name for d in n.decls]
    counts = Counter(declared)
    for name in declared:
        if counts[name] > 1:
            diags.append(Diagnostic("DuplicateDeclaration", n.name, name))
            return diags

    defined: list[str] = []
    for eq in n.equations:
        defined.extend(sorted(dv(eq)))
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

    scope = inputs | must_define
    for eq in n.equations:
        for x in sorted((fv(eq) | dv(eq)) - scope):
            diags.append(Diagnostic("FreeVariable", n.name, x))
    for d in n.decls:
        for x in sorted(fv(d.clock) - scope):
            diags.append(Diagnostic("FreeVariable", n.name, f"{x} (clock of {d.name})"))

    # a node may call only the nodes declared before it, so the calls of
    # a program without diagnostics form no cycle
    for call in sorted(called_nodes(n)):
        if call == n.name:
            diags.append(Diagnostic("RecursiveCall", n.name, call))
        elif call not in known:
            diags.append(Diagnostic("UnknownNode", n.name, call))

    if not diags:
        diags.extend(_check_equations(n, prog))
    if dialect == "nlustre" and not diags:
        diags.extend(_check_normalised(n, prog))
    return diags


def _check_equations(n: Node, prog: Program) -> list[Diagnostic]:
    """The clock pass (clocks and widths), then the value types, one
    diagnostic at most per equation."""
    diags: list[Diagnostic] = []
    clocks = _ClockPass(n, prog, build=False)
    types = type_env(n)
    for eq in n.equations:
        try:
            clocks.equation(eq)
        except ClockError as exc:
            diags.append(Diagnostic(exc.kind, n.name, str(exc)))
            continue
        where = clocks.where
        try:
            got = _rhs_types(eq, types, prog)
        except TypeError_ as exc:
            diags.append(Diagnostic("TypeMismatch", n.name, f"{where}: {exc}"))
            continue
        want = [types[x] for x in _targets(eq)]
        if got != want:
            detail = f"{where}: {', '.join(got)} vs declared {', '.join(want)}"
            diags.append(Diagnostic("TypeMismatch", n.name, detail))
    return diags


def _check_normalised(n: Node, prog: Program) -> list[Diagnostic]:
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


def topo_order(prog: Program) -> Optional[list[str]]:
    """Topological order of nodes by the call graph, or None on a cycle."""
    graph = prog.call_graph()
    state: dict[str, int] = {}
    order: list[str] = []

    def visit(name: str) -> bool:
        if state.get(name) == 1:
            return False
        if state.get(name) == 2:
            return True
        state[name] = 1
        for callee in sorted(graph.get(name, ())):
            if callee in graph and not visit(callee):
                return False
        state[name] = 2
        order.append(name)
        return True

    for n in prog.nodes:
        if not visit(n.name):
            return None
    return order


# ---------------------------------------------------------------------------
# Value-type inference
# ---------------------------------------------------------------------------


class TypeError_(Exception):
    """Value-type inconsistency (named to avoid shadowing the builtin)."""


def expr_types(e: Expr, env: dict[str, str], prog: Program) -> list[str]:
    """Value types ("bool"/"int") of each component stream of `e`."""
    if isinstance(e, Const):
        if isinstance(e.value, bool):
            return [BOOL]
        if not -(1 << 63) <= e.value < 1 << 63:
            raise TypeError_(f"integer literal {e.value} is outside the 64-bit integers")
        return [INT]
    if isinstance(e, Var):
        if e.name not in env:
            raise TypeError_(f"unbound variable {e.name}")
        return [env[e.name]]
    if isinstance(e, Unop):
        (t,) = expr_types(e.operand, env, prog)
        want = UNOPS[e.op]
        if t != want:
            raise TypeError_(f"{e.op} applied to {t}")
        return [want]
    if isinstance(e, Binop):
        (tl,) = expr_types(e.left, env, prog)
        (tr,) = expr_types(e.right, env, prog)
        if tl != tr:
            raise TypeError_(f"{e.op} applied to {tl} and {tr}")
        if e.op in ARITH_BINOPS:
            if tl != INT:
                raise TypeError_(f"{e.op} applied to {tl}")
            return [INT]
        if e.op in CMP_BINOPS:
            if tl != INT:
                raise TypeError_(f"{e.op} applied to {tl}")
            return [BOOL]
        if e.op in BOOL_BINOPS:
            if tl != BOOL:
                raise TypeError_(f"{e.op} applied to {tl}")
            return [BOOL]
        return [BOOL]  # = / <>
    if isinstance(e, When):
        if env.get(e.var) != BOOL:
            raise TypeError_(f"when condition {e.var} is not bool")
        return _types_all(e.exprs, env, prog)
    if isinstance(e, Merge):
        if env.get(e.var) != BOOL:
            raise TypeError_(f"merge scrutinee {e.var} is not bool")
        ts = _types_all(e.on_true, env, prog)
        fs = _types_all(e.on_false, env, prog)
        if ts != fs:
            raise TypeError_("merge branch types differ")
        return ts
    if isinstance(e, Ite):
        (tc,) = expr_types(e.cond, env, prog)
        if tc != BOOL:
            raise TypeError_("if condition is not bool")
        ts = _types_all(e.on_true, env, prog)
        fs = _types_all(e.on_false, env, prog)
        if ts != fs:
            raise TypeError_("if branch types differ")
        return ts
    if isinstance(e, Fby):
        t0 = _types_all(e.init, env, prog)
        t1 = _types_all(e.rest, env, prog)
        if t0 != t1:
            raise TypeError_("fby operand types differ")
        return t0
    if isinstance(e, NodeCall):
        callee = prog.node(e.node)
        got = _types_all(e.args, env, prog)
        want = [d.type for d in callee.inputs]
        if got != want:
            raise TypeError_(f"argument types of {e.node}: {got} vs {want}")
        return [d.type for d in callee.outputs]
    raise TypeError(type(e))


def _types_all(es: Iterable[Expr], env: dict[str, str], prog: Program) -> list[str]:
    out: list[str] = []
    for e in es:
        out.extend(expr_types(e, env, prog))
    return out


def type_env(n: Node) -> dict[str, str]:
    return {d.name: d.type for d in n.decls}


def _rhs_types(eq: AnyEquation, env: dict[str, str], prog: Program) -> list[str]:
    """Value types of the streams an equation's right-hand side defines."""
    if isinstance(eq, Equation):
        return _types_all(eq.exprs, env, prog)
    if isinstance(eq, SimpleEq):
        return expr_types(eq.rhs, env, prog)
    if isinstance(eq, FbyEq):
        return expr_types(Fby((eq.init,), (eq.rhs,)), env, prog)
    return expr_types(NodeCall(eq.node, eq.args), env, prog)


# ---------------------------------------------------------------------------
# The clock pass
# ---------------------------------------------------------------------------


class ClockError(Exception):
    """An expression off the clock its context expects.  `kind` names
    the diagnostic that `validate` reports for it."""

    kind = "ClockConflict"


class ArityError(ClockError):
    """Widths that differ where the clock pass pairs streams up."""

    kind = "ArityMismatch"


def clock_env(n: Node) -> dict[str, Clock]:
    return {d.name: d.clock for d in n.decls}


class _ClockPass:
    """The clock rules, applied to the equations of one node.

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

    Each visit returns the width of the subexpression and, with `build`,
    the subexpression with every `clock` field set (else None).
    """

    def __init__(self, n: Node, prog: Program, build: bool) -> None:
        self.env = clock_env(n)
        self.prog = prog
        self.build = build
        self.where = ""  # the targets of the equation, for messages

    def clock_of(self, x: str) -> Clock:
        ck = self.env.get(x)
        if ck is None:
            raise ClockError(f"{self.where}: unbound variable {x}")
        return ck

    def same(self, got: Clock, want: Clock) -> None:
        if got is not want and got != want:
            raise ClockError(f"{self.where}: {got!r} vs {want!r}")

    def expr(self, e: Expr, ck: Clock) -> tuple[int, Optional[Expr]]:
        build = self.build
        if isinstance(e, Const):
            return 1, replace(e, clock=ck) if build else None
        if isinstance(e, Var):
            self.same(self.clock_of(e.name), ck)
            return 1, replace(e, clock=ck) if build else None
        if isinstance(e, Unop):
            operand = self.one(e.operand, ck)
            return 1, replace(e, operand=operand, clock=ck) if build else None
        if isinstance(e, Binop):
            left = self.one(e.left, ck)
            right = self.one(e.right, ck)
            return 1, replace(e, left=left, right=right, clock=ck) if build else None
        if isinstance(e, When):
            under = self.clock_of(e.var)
            self.same(On(under, e.var, e.value), ck)
            w, exprs = self.all(e.exprs, under)
            return w, replace(e, exprs=exprs, clock=ck) if build else None
        if isinstance(e, Merge):
            self.same(self.clock_of(e.var), ck)
            w, on_true = self.all(e.on_true, On(ck, e.var, True))
            wf, on_false = self.all(e.on_false, On(ck, e.var, False))
            if w != wf:
                raise ArityError(f"branch widths {w} vs {wf}")
            return w, replace(e, on_true=on_true, on_false=on_false, clock=ck) if build else None
        if isinstance(e, Ite):
            cond = self.one(e.cond, ck)
            w, on_true = self.all(e.on_true, ck)
            wf, on_false = self.all(e.on_false, ck)
            if w != wf:
                raise ArityError(f"branch widths {w} vs {wf}")
            return w, (
                replace(e, cond=cond, on_true=on_true, on_false=on_false, clock=ck)
                if build else None
            )
        if isinstance(e, Fby):
            w, init = self.all(e.init, ck)
            w1, rest = self.all(e.rest, ck)
            if w != w1:
                raise ArityError(f"fby widths {w} vs {w1}")
            return w, replace(e, init=init, rest=rest, clock=ck) if build else None
        if isinstance(e, NodeCall):
            w, args = self.call(e.node, e.args, ck)
            return w, replace(e, args=args, clock=ck) if build else None
        raise TypeError(type(e))

    def one(self, e: Expr, ck: Clock) -> Optional[Expr]:
        w, built = self.expr(e, ck)
        if w != 1:
            raise ArityError(f"{w} streams where one is expected")
        return built

    def all(self, es: Iterable[Expr], ck: Clock) -> tuple[int, Optional[tuple[Expr, ...]]]:
        w = 0
        built = []
        for e in es:
            k, b = self.expr(e, ck)
            w += k
            built.append(b)
        return w, tuple(built) if self.build else None

    def call(
        self, node: str, args: tuple[Expr, ...], ck: Clock
    ) -> tuple[int, Optional[tuple[Expr, ...]]]:
        """The number of outputs of `node`, and its arguments."""
        callee = self.prog.node(node)
        w, built = self.all(args, ck)
        if w != len(callee.inputs):
            raise ArityError(f"{node} expects {len(callee.inputs)} inputs, got {w}")
        for d in callee.inputs + callee.outputs:
            if d.clock != BASE:
                raise ClockError(
                    f"{self.where}: {node} declares {d.name} on {d.clock!r}, off its base clock"
                )
        return len(callee.outputs), built

    def equation(self, eq: AnyEquation) -> AnyEquation:
        """Check `eq`; with `build`, return it with its clocks set."""
        self.where = ", ".join(_targets(eq))
        if isinstance(eq, Equation):
            return self.lustre(eq)
        ck, build = eq.clock, self.build
        if isinstance(eq, CallEq):
            k, args = self.call(eq.node, eq.args, ck)
            if k != len(eq.targets):
                raise ArityError(f"{eq.node} returns {k}, got {len(eq.targets)} targets")
            for x in eq.targets:
                self.same(self.clock_of(x), ck)
            return replace(eq, args=args) if build else eq
        if isinstance(eq, SimpleEq):
            rhs = self.one(eq.rhs, ck)
            self.same(self.clock_of(eq.target), ck)
            return replace(eq, rhs=rhs) if build else eq
        init = self.one(eq.init, ck)
        rhs = self.one(eq.rhs, ck)
        self.same(self.clock_of(eq.target), ck)
        return replace(eq, init=init, rhs=rhs) if build else eq

    def lustre(self, eq: Equation) -> Equation:
        """Each expression of the tuple runs on the declared clock of the
        targets it defines."""
        declared = [self.clock_of(x) for x in eq.targets]
        exprs = []
        pos = 0
        for k, e in enumerate(eq.exprs):
            if pos >= len(declared):
                pos += width_all(eq.exprs[k:], self.prog)
                break
            ck = declared[pos]
            w, built = self.expr(e, ck)
            for want in declared[pos + 1 : pos + w]:
                self.same(ck, want)
            exprs.append(built)
            pos += w
        if pos != len(declared):
            raise ArityError(f"{len(declared)} targets but rhs width {pos}")
        return replace(eq, exprs=tuple(exprs)) if self.build else eq


def _annotate(prog: Program) -> Program:
    nodes = []
    for n in prog.nodes:
        clocks = _ClockPass(n, prog, build=True)
        try:
            eqs = tuple(clocks.equation(eq) for eq in n.equations)
        except ClockError as exc:
            raise type(exc)(f"{n.name}: {exc}") from None
        nodes.append(replace(n, equations=eqs))
    return Program(tuple(nodes), annotated=True)


def annotate_program(prog: Program) -> Program:
    """`prog` with the clock of every expression set, made once per
    program object.  Raises `ClockError` (`ArityError` for widths) where
    `validate` reports a `ClockConflict` (an `ArityMismatch`)."""
    return prog.annotation
