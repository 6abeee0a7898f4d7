"""Abstract syntax for Lustre and NLustre programs.

Expressions, clocks, equations, nodes and programs are immutable
dataclasses.  Lustre equations (`Equation`) allow tuples and arbitrary
nesting; NLustre equations come in three restricted shapes (`SimpleEq`,
`FbyEq`, `CallEq`).  Free/defined-variable computation, stream-arity
(width) computation, program validation and a small clock-inference
pass live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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

    def node(self, name: str) -> Node:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(f"unknown node {name!r}")

    def call_graph(self) -> dict[str, set[str]]:
        return {n.name: called_nodes(n) for n in self.nodes}


def called_nodes(n: Node) -> set[str]:
    calls: set[str] = set()
    for eq in n.equations:
        if isinstance(eq, Equation):
            for e in eq.exprs:
                calls |= _calls_in(e)
        elif isinstance(eq, CallEq):
            calls.add(eq.node)
            for e in eq.args:
                calls |= _calls_in(e)
        elif isinstance(eq, (SimpleEq, FbyEq)):
            for e in subexprs(eq):
                if isinstance(e, NodeCall):
                    calls.add(e.node)
    return calls


def _calls_in(e: Expr) -> set[str]:
    out = {e.node} if isinstance(e, NodeCall) else set()
    for c in children(e):
        out |= _calls_in(c)
    return out


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
    if isinstance(x, Const):
        return set()
    if isinstance(x, Var):
        return {x.name}
    if isinstance(x, When):
        return _fv_all(x.exprs) | {x.var}
    if isinstance(x, Merge):
        return {x.var} | _fv_all(x.on_true) | _fv_all(x.on_false)
    if isinstance(x, Expr):
        return _fv_all(children(x))
    if isinstance(x, Equation):
        return _fv_all(x.exprs) - set(x.targets)
    if isinstance(x, SimpleEq):
        return (fv(x.clock) | fv(x.rhs)) - {x.target}
    if isinstance(x, FbyEq):
        return (fv(x.clock) | fv(x.init) | fv(x.rhs)) - {x.target}
    if isinstance(x, CallEq):
        return (fv(x.clock) | _fv_all(x.args)) - set(x.targets)
    return _fv_all(x)


def _fv_all(es: Iterable[Expr]) -> set[str]:
    out: set[str] = set()
    for e in es:
        out |= fv(e)
    return out


def dv(eq: AnyEquation) -> set[str]:
    if isinstance(eq, Equation):
        return set(eq.targets)
    if isinstance(eq, CallEq):
        return set(eq.targets)
    return {eq.target}


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
    diags.extend(_check_dag(prog))
    return diags


def _validate_node(
    n: Node, prog: Program, known: set[str], dialect: str
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    declared = [d.name for d in n.decls]
    for name in declared:
        if declared.count(name) > 1:
            diags.append(Diagnostic("DuplicateDeclaration", n.name, name))
            return diags

    defined: list[str] = []
    for eq in n.equations:
        defined.extend(sorted(dv(eq)))
    must_define = {d.name for d in n.outputs} | {d.name for d in n.locals}
    for x in defined:
        if defined.count(x) > 1:
            diags.append(Diagnostic("DuplicateDefinition", n.name, x))
            return diags
        if x not in must_define:
            kind = "InputRedefined" if any(d.name == x for d in n.inputs) else "UndeclaredTarget"
            diags.append(Diagnostic(kind, n.name, x))
    for x in sorted(must_define - set(defined)):
        diags.append(Diagnostic("MissingDefinition", n.name, x))

    scope = set(declared)
    for eq in n.equations:
        for x in sorted((fv(eq) | dv(eq)) - scope):
            diags.append(Diagnostic("FreeVariable", n.name, x))
    for d in n.decls:
        for x in sorted(fv(d.clock) - scope):
            diags.append(Diagnostic("FreeVariable", n.name, f"{x} (clock of {d.name})"))

    for call in sorted(called_nodes(n)):
        if call == n.name:
            diags.append(Diagnostic("RecursiveCall", n.name, call))
        elif call not in known:
            diags.append(Diagnostic("UnknownNode", n.name, call))

    if not diags:
        diags.extend(_check_arities(n, prog))
    if dialect == "nlustre" and not diags:
        diags.extend(_check_normalised(n, prog))
    return diags


def _check_arities(n: Node, prog: Program) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for eq in n.equations:
        for e in subexprs(eq):
            try:
                if isinstance(e, (Merge, Ite)):
                    wt = width_all(e.on_true, prog)
                    wf = width_all(e.on_false, prog)
                    if wt != wf:
                        diags.append(
                            Diagnostic("ArityMismatch", n.name, f"branch widths {wt} vs {wf}")
                        )
                elif isinstance(e, Fby):
                    w0 = width_all(e.init, prog)
                    w1 = width_all(e.rest, prog)
                    if w0 != w1:
                        diags.append(
                            Diagnostic("ArityMismatch", n.name, f"fby widths {w0} vs {w1}")
                        )
                elif isinstance(e, NodeCall):
                    callee = prog.node(e.node)
                    got = width_all(e.args, prog)
                    if got != len(callee.inputs):
                        diags.append(
                            Diagnostic(
                                "ArityMismatch",
                                n.name,
                                f"{e.node} expects {len(callee.inputs)} inputs, got {got}",
                            )
                        )
            except KeyError as exc:
                diags.append(Diagnostic("UnknownNode", n.name, str(exc)))
        if isinstance(eq, Equation):
            try:
                w = width_all(eq.exprs, prog)
            except KeyError:
                continue
            if w != len(eq.targets):
                diags.append(
                    Diagnostic(
                        "ArityMismatch",
                        n.name,
                        f"{len(eq.targets)} targets but rhs width {w}",
                    )
                )
        elif isinstance(eq, CallEq):
            try:
                callee = prog.node(eq.node)
            except KeyError:
                continue
            if len(eq.targets) != len(callee.outputs):
                diags.append(
                    Diagnostic(
                        "ArityMismatch",
                        n.name,
                        f"{eq.node} returns {len(callee.outputs)}, got {len(eq.targets)} targets",
                    )
                )
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


def _check_dag(prog: Program) -> list[Diagnostic]:
    # later/unknown callees are reported per node, and a self-edge is
    # already a RecursiveCall; this catches the remaining cycles
    order = topo_order(prog)
    if order is None:
        return [Diagnostic("RecursiveCall", "<program>", "node dependency cycle")]
    return []


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
        return [BOOL if isinstance(e.value, bool) else INT]
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


# ---------------------------------------------------------------------------
# Clock inference
# ---------------------------------------------------------------------------


class ClockError(Exception):
    """Clock annotation conflict or missing clock information."""


def infer_clocks(e: Expr, env: dict[str, Clock], prog: Program) -> list[Optional[Clock]]:
    """Per-component clocks of `e`; None marks a clock-polymorphic
    component (constants), resolved by the surrounding context."""
    if isinstance(e, Const):
        return [None]
    if isinstance(e, Var):
        if e.name not in env:
            raise ClockError(f"unbound variable {e.name}")
        return [env[e.name]]
    if isinstance(e, Unop):
        return infer_clocks(e.operand, env, prog)
    if isinstance(e, Binop):
        (cl,) = infer_clocks(e.left, env, prog)
        (cr,) = infer_clocks(e.right, env, prog)
        return [_unify(cl, cr)]
    if isinstance(e, When):
        base = env.get(e.var)
        if base is None:
            raise ClockError(f"unbound variable {e.var}")
        out = []
        for ck in _clocks_all(e.exprs, env, prog):
            _unify(ck, base)
            out.append(On(base, e.var, e.value))
        return out
    if isinstance(e, Merge):
        xck = env.get(e.var)
        if xck is None:
            raise ClockError(f"unbound variable {e.var}")
        ts = _clocks_all(e.on_true, env, prog)
        fs = _clocks_all(e.on_false, env, prog)
        out = []
        for ct, cf in zip(ts, fs):
            _unify(ct, On(xck, e.var, True))
            _unify(cf, On(xck, e.var, False))
            out.append(xck)
        return out
    if isinstance(e, Ite):
        (cc,) = infer_clocks(e.cond, env, prog)
        ts = _clocks_all(e.on_true, env, prog)
        fs = _clocks_all(e.on_false, env, prog)
        return [_unify(_unify(cc, ct), cf) for ct, cf in zip(ts, fs)]
    if isinstance(e, Fby):
        c0 = _clocks_all(e.init, env, prog)
        c1 = _clocks_all(e.rest, env, prog)
        return [_unify(a, b) for a, b in zip(c0, c1)]
    if isinstance(e, NodeCall):
        # arguments pulse on the callee's base clock; outputs share it
        arg_cks = _clocks_all(e.args, env, prog)
        common: Optional[Clock] = None
        for ck in arg_cks:
            common = _unify(common, ck)
        k = len(prog.node(e.node).outputs)
        return [common] * k
    raise TypeError(type(e))


def _clocks_all(
    es: Iterable[Expr], env: dict[str, Clock], prog: Program
) -> list[Optional[Clock]]:
    out: list[Optional[Clock]] = []
    for e in es:
        out.extend(infer_clocks(e, env, prog))
    return out


def _unify(a: Optional[Clock], b: Optional[Clock]) -> Optional[Clock]:
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise ClockError(f"clock conflict: {a!r} vs {b!r}")


def clock_env(n: Node) -> dict[str, Clock]:
    return {d.name: d.clock for d in n.decls}


def annotate_clocks(e: Expr, env: dict[str, Clock], prog: Program, at: Optional[Clock]) -> Expr:
    """Rebuild `e` with every subexpression's `clock` field set.

    `at` is the context clock used to resolve clock-polymorphic leaves.
    """
    if isinstance(e, Const):
        return replace(e, clock=at if at is not None else BASE)
    if isinstance(e, Var):
        return replace(e, clock=env[e.name])
    if isinstance(e, Unop):
        op = annotate_clocks(e.operand, env, prog, at)
        return replace(e, operand=op, clock=op.clock)
    if isinstance(e, Binop):
        (ck,) = infer_clocks(e, env, prog)
        ck = ck if ck is not None else at
        left = annotate_clocks(e.left, env, prog, ck)
        right = annotate_clocks(e.right, env, prog, ck)
        return replace(e, left=left, right=right, clock=ck if ck is not None else BASE)
    if isinstance(e, When):
        under = env[e.var]
        exprs = tuple(annotate_clocks(x, env, prog, under) for x in e.exprs)
        return replace(e, exprs=exprs, clock=On(under, e.var, e.value))
    if isinstance(e, Merge):
        xck = env[e.var]
        on_true = tuple(
            annotate_clocks(x, env, prog, On(xck, e.var, True)) for x in e.on_true
        )
        on_false = tuple(
            annotate_clocks(x, env, prog, On(xck, e.var, False)) for x in e.on_false
        )
        return replace(e, on_true=on_true, on_false=on_false, clock=xck)
    if isinstance(e, Ite):
        cks = infer_clocks(e, env, prog)
        ck = next((c for c in cks if c is not None), at)
        cond = annotate_clocks(e.cond, env, prog, ck)
        on_true = tuple(annotate_clocks(x, env, prog, ck) for x in e.on_true)
        on_false = tuple(annotate_clocks(x, env, prog, ck) for x in e.on_false)
        return replace(e, cond=cond, on_true=on_true, on_false=on_false,
                       clock=ck if ck is not None else BASE)
    if isinstance(e, Fby):
        cks = infer_clocks(e, env, prog)
        ck = next((c for c in cks if c is not None), at)
        init = tuple(annotate_clocks(x, env, prog, ck) for x in e.init)
        rest = tuple(annotate_clocks(x, env, prog, ck) for x in e.rest)
        return replace(e, init=init, rest=rest, clock=ck if ck is not None else BASE)
    if isinstance(e, NodeCall):
        cks = infer_clocks(e, env, prog)
        ck = next((c for c in cks if c is not None), at)
        args = tuple(annotate_clocks(a, env, prog, ck) for a in e.args)
        return replace(e, args=args, clock=ck if ck is not None else BASE)
    raise TypeError(type(e))


def annotate_node(n: Node, prog: Program) -> Node:
    """Clock-annotate every expression in a Lustre node, checking each
    defined variable's inferred clock against its declaration."""
    env = clock_env(n)
    new_eqs: list[AnyEquation] = []
    for eq in n.equations:
        if not isinstance(eq, Equation):
            new_eqs.append(_annotate_neq(eq, env, prog, n))
            continue
        declared = [env[t] for t in eq.targets]
        inferred: list[Optional[Clock]] = []
        for e in eq.exprs:
            inferred.extend(infer_clocks(e, env, prog))
        if len(inferred) != len(declared):
            raise ClockError(
                f"{n.name}: {len(declared)} targets vs rhs width {len(inferred)}"
            )
        for t, want, got in zip(eq.targets, declared, inferred):
            _unify(got, want)
        new_exprs = []
        i = 0
        for e in eq.exprs:
            w = width(e, prog)
            new_exprs.append(annotate_clocks(e, env, prog, declared[i]))
            i += w
        new_eqs.append(replace(eq, exprs=tuple(new_exprs)))
    return replace(n, equations=tuple(new_eqs))


def _annotate_neq(eq: NEquation, env: dict[str, Clock], prog: Program, n: Node) -> NEquation:
    if isinstance(eq, SimpleEq):
        return replace(eq, rhs=annotate_clocks(eq.rhs, env, prog, eq.clock))
    if isinstance(eq, FbyEq):
        return replace(
            eq,
            init=annotate_clocks(eq.init, env, prog, eq.clock),
            rhs=annotate_clocks(eq.rhs, env, prog, eq.clock),
        )
    return replace(
        eq, args=tuple(annotate_clocks(a, env, prog, eq.clock) for a in eq.args)
    )


def annotate_program(prog: Program) -> Program:
    return Program(tuple(annotate_node(n, prog) for n in prog.nodes))
