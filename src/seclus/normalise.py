"""Source-to-source passes from full Lustre to NLustre shape.

Pass 1 (`normalize_program`) de-nests: delays, node calls and — in
expression position — merge/if expressions are pulled out into fresh
clock-annotated equations, while sampling distributes over components.
Merge/if that already sit at the top of an equation stay in place as
control expressions, so a program in NLustre shape is a fixed point.

Pass 2 (`fby_init`) rewrites every delay equation whose first operand is
not a constant into an explicit initialisation flag plus a
constant-headed delay, so all remaining delays are plain initialised
registers.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from seclus.ast import (
    AnyEquation,
    Binop,
    CallEq,
    Checker,
    Clock,
    Const,
    Equation,
    Expr,
    Fby,
    FbyEq,
    Ite,
    Merge,
    NEquation,
    Node,
    NodeCall,
    Program,
    SimpleEq,
    Unop,
    VarDecl,
    Var,
    When,
    annotate_program,
    type_env,
    width,
)


class FreshNames:
    """Generates identifiers guaranteed not to collide with `taken`."""

    def __init__(self, taken: Iterable[str], prefix: str = "v"):
        self.taken = set(taken)
        self.prefix = prefix
        self.n = 0

    def next(self, prefix: str | None = None) -> str:
        prefix = prefix or self.prefix
        while True:
            self.n += 1
            name = f"{prefix}{self.n}"
            if name not in self.taken:
                self.taken.add(name)
                return name


class _NodeNormaliser:
    def __init__(self, n: Node, prog: Program):
        self.prog = prog
        # gives the value type of each fresh local's defining component;
        # calls are pulled out of those, so it knows no node
        self.check = Checker(n, {}, build=False)
        self.fresh = FreshNames(self.check.env)
        self.aux_eqs: List[NEquation] = []
        self.new_locals: List[VarDecl] = []

    def _clock_of(self, e: Expr) -> Clock:
        assert e.clock is not None, "normalisation requires clock annotations"
        return e.clock

    def _declare(self, e: Expr, ck: Clock) -> str:
        """A fresh local on `ck` of the value type of `e`."""
        (vt,), _ = self.check.expr(e, self._clock_of(e))
        return self._local(vt, ck)

    def _local(self, vt: str, ck: Clock) -> str:
        d = VarDecl(self.fresh.next(), vt, ck)
        self.check.declare(d)
        self.new_locals.append(d)
        return d.name

    # -- expression position: results are atomic expressions -------------

    def norm_expr(self, e: Expr) -> List[Expr]:
        if isinstance(e, (Const, Var)):
            return [e]
        if isinstance(e, Unop):
            (s,) = self.norm_expr(e.operand)
            return [Unop(e.op, s, clock=e.clock)]
        if isinstance(e, Binop):
            (l,) = self.norm_expr(e.left)
            (r,) = self.norm_expr(e.right)
            return [Binop(e.op, l, r, clock=e.clock)]
        if isinstance(e, When):
            parts = self.norm_all(e.exprs)
            return [When((s,), e.var, e.value, clock=e.clock) for s in parts]
        if isinstance(e, Fby):
            inits = self.norm_all(e.init)
            rests = self.norm_all(e.rest)
            ck = self._clock_of(e)
            out = []
            for i, r in zip(inits, rests):
                x = self._declare(i, ck)
                self.aux_eqs.append(FbyEq(x, i, r, ck))
                out.append(Var(x, clock=ck))
            return out
        if isinstance(e, Merge):
            ck = self._clock_of(e)
            ts = self.norm_ctrl_all(e.on_true)
            fs = self.norm_ctrl_all(e.on_false)
            out = []
            for a, b in zip(ts, fs):
                x = self._declare(a, ck)
                self.aux_eqs.append(
                    SimpleEq(x, Merge(e.var, (a,), (b,), clock=e.clock), ck)
                )
                out.append(Var(x, clock=ck))
            return out
        if isinstance(e, Ite):
            ck = self._clock_of(e)
            (c,) = self.norm_expr(e.cond)
            ts = self.norm_ctrl_all(e.on_true)
            fs = self.norm_ctrl_all(e.on_false)
            out = []
            for a, b in zip(ts, fs):
                x = self._declare(a, ck)
                self.aux_eqs.append(SimpleEq(x, Ite(c, (a,), (b,), clock=e.clock), ck))
                out.append(Var(x, clock=ck))
            return out
        if isinstance(e, NodeCall):
            xs = self._emit_call(e, None)
            return [Var(x, clock=self._clock_of(e)) for x in xs]
        raise TypeError(type(e))

    def _emit_call(self, e: NodeCall, targets: Tuple[str, ...] | None) -> Tuple[str, ...]:
        args = tuple(self.norm_all(e.args))
        ck = self._clock_of(e)
        if targets is None:
            callee = self.prog.node(e.node)
            targets = tuple(self._local(d.type, ck) for d in callee.outputs)
        self.aux_eqs.append(CallEq(targets, e.node, args, ck))
        return targets

    def norm_all(self, es: Iterable[Expr]) -> List[Expr]:
        out: List[Expr] = []
        for e in es:
            out.extend(self.norm_expr(e))
        return out

    # -- control position: merge/if may remain, branches recurse ---------

    def norm_ctrl(self, e: Expr) -> List[Expr]:
        if isinstance(e, Merge):
            ts = self.norm_ctrl_all(e.on_true)
            fs = self.norm_ctrl_all(e.on_false)
            return [Merge(e.var, (a,), (b,), clock=e.clock) for a, b in zip(ts, fs)]
        if isinstance(e, Ite):
            (c,) = self.norm_expr(e.cond)
            ts = self.norm_ctrl_all(e.on_true)
            fs = self.norm_ctrl_all(e.on_false)
            return [Ite(c, (a,), (b,), clock=e.clock) for a, b in zip(ts, fs)]
        return self.norm_expr(e)

    def norm_ctrl_all(self, es: Iterable[Expr]) -> List[Expr]:
        out: List[Expr] = []
        for e in es:
            out.extend(self.norm_ctrl(e))
        return out

    # -- equations --------------------------------------------------------

    def equation(self, eq: AnyEquation) -> List[NEquation]:
        if not isinstance(eq, Equation):
            return [eq]  # already in NLustre shape
        out: List[NEquation] = []
        pos = 0
        for e in eq.exprs:
            w = width(e, self.prog)
            targets = eq.targets[pos : pos + w]
            pos += w
            self.aux_eqs = []
            out.extend(self._top(e, targets))
        return out

    def _top(self, e: Expr, targets: Tuple[str, ...]) -> List[NEquation]:
        ck = self._clock_of(e)
        main: List[NEquation]
        if isinstance(e, NodeCall):
            self._emit_call(e, targets)
            main = []
        elif isinstance(e, Fby):
            inits = self.norm_all(e.init)
            rests = self.norm_all(e.rest)
            main = [FbyEq(x, i, r, ck) for x, i, r in zip(targets, inits, rests)]
        elif isinstance(e, (Merge, Ite)):
            parts = self.norm_ctrl(e)
            main = [SimpleEq(x, p, ck) for x, p in zip(targets, parts)]
        else:
            parts = self.norm_expr(e)
            main = [SimpleEq(x, p, ck) for x, p in zip(targets, parts)]
        return self.aux_eqs + main


def normalize_node(n: Node, prog: Program) -> Node:
    nn = _NodeNormaliser(n, prog)
    eqs: List[NEquation] = []
    for eq in n.equations:
        eqs.extend(nn.equation(eq))
    return Node(
        n.name, n.inputs, n.outputs, n.locals + tuple(nn.new_locals), tuple(eqs)
    )


def normalize_program(p: Program) -> Program:
    """De-nest every node; the result is in NLustre shape (delays may
    still have non-constant first operands until `fby_init`) and every
    expression in it carries its clock."""
    p = annotate_program(p)
    return Program(tuple(normalize_node(n, p) for n in p.nodes), annotated=True)


# ---------------------------------------------------------------------------
# Explicit delay initialisation
# ---------------------------------------------------------------------------

_DEFAULT = {"bool": False, "int": 0}


def fby_init_node(n: Node, prog: Program) -> Node:
    types = type_env(n)
    fresh = FreshNames(types)
    eqs: List[NEquation] = []
    new_locals: List[VarDecl] = []
    for eq in n.equations:
        if not isinstance(eq, FbyEq) or isinstance(eq.init, Const):
            eqs.append(eq)
            continue
        vt = types[eq.target]
        flag = fresh.next("xinit")
        prev = fresh.next("px")
        ck = eq.clock
        new_locals.append(VarDecl(flag, "bool", ck))
        new_locals.append(VarDecl(prev, vt, ck))
        eqs.append(FbyEq(flag, Const(True, clock=ck), Const(False, clock=ck), ck))
        eqs.append(FbyEq(prev, Const(_DEFAULT[vt], clock=ck), eq.rhs, ck))
        eqs.append(
            SimpleEq(
                eq.target,
                Ite(Var(flag, clock=ck), (eq.init,), (Var(prev, clock=ck),), clock=ck),
                ck,
            )
        )
    return Node(n.name, n.inputs, n.outputs, n.locals + tuple(new_locals), tuple(eqs))


def fby_init(p: Program) -> Program:
    """Rewrite non-constant-headed delays into flag + register + select.
    The new expressions carry their clocks, so an annotated program
    stays annotated."""
    return Program(tuple(fby_init_node(n, p) for n in p.nodes), annotated=p.annotated)
