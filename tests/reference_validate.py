"""Reference validation: the former `seclus.ast.validate`, kept as the
oracle of the checking pass.

It walks each equation four times: `fv` for scope, `called_nodes` for
calls, the clock pass (`_ClockPass`, clocks and widths) and then
`expr_types` (value types).  `seclus.ast` checks all of this in one
walk per equation (`Checker`); the tests hold the two to the same
verdict on every program, and to the same diagnostics except for the
differences named in `tests/test_validate.py`.  `topo_order` is the
former dependency order of `typing.check_program`, which
`reference_typing` still uses.  The code is the former code, except
that `Program.call_graph` became the function `call_graph` here, and
`width_all` comes from `reference_clocks`, which keeps the former
stream widths of `seclus.ast`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import Iterable, Iterator, Optional

from seclus.ast import (
    BASE,
    BOOL,
    INT,
    UNOPS,
    AnyEquation,
    Binop,
    CallEq,
    Clock,
    Const,
    Diagnostic,
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
    children,
    fv,
    subexprs,
)
from seclus.ast import targets as _targets

from reference_clocks import width_all

ARITH_BINOPS = {"+", "-", "*", "div", "mod"}
CMP_BINOPS = {"<", "<=", ">", ">="}
BOOL_BINOPS = {"and", "or", "xor"}


def call_graph(prog: Program) -> dict[str, set[str]]:
    return {n.name: called_nodes(n) for n in prog.nodes}


def called_nodes(n: Node) -> set[str]:
    calls = {eq.node for eq in n.equations if isinstance(eq, CallEq)}
    for eq in n.equations:
        calls.update(e.node for e in subexprs(eq) if isinstance(e, NodeCall))
    return calls


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


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
        defined.extend(sorted(set(_targets(eq))))
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
        for x in sorted((fv(eq) | set(_targets(eq))) - scope):
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
    graph = call_graph(prog)
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
