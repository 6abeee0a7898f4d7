"""Source-to-source passes from full Lustre to NLustre shape.

Pass 1 (`normalize_program`) de-nests: delays, node calls and — in
expression position — merge/if expressions are pulled out into fresh
clock-annotated equations, while sampling distributes over components.
Each fresh local takes the value type that the annotation recorded for
the component it names (`Expr.types`), so nothing is type-checked
again.  Merge/if that already sit at the top of an equation stay in
place as control expressions, so a program in NLustre shape is a fixed
point.

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


def _kept(new: List[Expr], old: Tuple[Expr, ...]) -> bool:
    """Whether de-nesting left the one operand `old` as it was, so the
    expression around it can stay as it is (expressions are immutable,
    so the forms may share it)."""
    return len(new) == len(old) == 1 and new[0] is old[0]


class _NodeNormaliser:
    def __init__(self, n: Node):
        self.fresh = FreshNames(d.name for d in n.decls)
        self.aux_eqs: List[NEquation] = []
        self.new_locals: List[VarDecl] = []

    def _clock_of(self, e: Expr) -> Clock:
        assert e.clock is not None, "normalisation requires clock annotations"
        return e.clock

    def _local(self, vt: str, ck: Clock) -> str:
        d = VarDecl(self.fresh.next(), vt, ck)
        self.new_locals.append(d)
        return d.name

    # -- expression position: results are atomic expressions -------------

    def norm_expr(self, e: Expr) -> List[Expr]:
        """The components of `e` as atomic expressions; `e` itself when
        nothing in it had to be pulled out."""
        if isinstance(e, (Const, Var)):
            return [e]
        if isinstance(e, Unop):
            (s,) = self.norm_expr(e.operand)
            return [e if s is e.operand else Unop(e.op, s, clock=e.clock, types=e.types)]
        if isinstance(e, Binop):
            (l,) = self.norm_expr(e.left)
            (r,) = self.norm_expr(e.right)
            if l is e.left and r is e.right:
                return [e]
            return [Binop(e.op, l, r, clock=e.clock, types=e.types)]
        if isinstance(e, When):
            parts = self.norm_all(e.exprs)
            if _kept(parts, e.exprs):
                return [e]
            return [
                When((s,), e.var, e.value, clock=e.clock, types=(t,))
                for s, t in zip(parts, e.types)
            ]
        if isinstance(e, Fby):
            inits = self.norm_all(e.init)
            rests = self.norm_all(e.rest)
            ck = self._clock_of(e)
            out = []
            for i, r, t in zip(inits, rests, e.types):
                x = self._local(t, ck)
                self.aux_eqs.append(FbyEq(x, i, r, ck))
                out.append(Var(x, clock=ck, types=(t,)))
            return out
        if isinstance(e, (Merge, Ite)):
            ck = self._clock_of(e)
            out = []
            for p, t in zip(self.norm_ctrl(e), e.types):
                x = self._local(t, ck)
                self.aux_eqs.append(SimpleEq(x, p, ck))
                out.append(Var(x, clock=ck, types=(t,)))
            return out
        if isinstance(e, NodeCall):
            ck = self._clock_of(e)
            xs = self._emit_call(e, None)
            return [Var(x, clock=ck, types=(t,)) for x, t in zip(xs, e.types)]
        raise TypeError(type(e))

    def _emit_call(self, e: NodeCall, targets: Tuple[str, ...] | None) -> Tuple[str, ...]:
        args = tuple(self.norm_all(e.args))
        ck = self._clock_of(e)
        if targets is None:
            targets = tuple(self._local(t, ck) for t in e.types)
        self.aux_eqs.append(CallEq(targets, e.node, args, ck))
        return targets

    def norm_all(self, es: Iterable[Expr]) -> List[Expr]:
        out: List[Expr] = []
        for e in es:
            out.extend(self.norm_expr(e))
        return out

    # -- control position: merge/if may remain, branches recurse ---------

    def norm_ctrl(self, e: Expr) -> List[Expr]:
        """The components of `e` as control expressions; `e` itself when
        it is one and nothing in it had to be pulled out."""
        if isinstance(e, Merge):
            ts = self.norm_ctrl_all(e.on_true)
            fs = self.norm_ctrl_all(e.on_false)
            if _kept(ts, e.on_true) and _kept(fs, e.on_false):
                return [e]
            return [
                Merge(e.var, (a,), (b,), clock=e.clock, types=(t,))
                for a, b, t in zip(ts, fs, e.types)
            ]
        if isinstance(e, Ite):
            (c,) = self.norm_expr(e.cond)
            ts = self.norm_ctrl_all(e.on_true)
            fs = self.norm_ctrl_all(e.on_false)
            if c is e.cond and _kept(ts, e.on_true) and _kept(fs, e.on_false):
                return [e]
            return [
                Ite(c, (a,), (b,), clock=e.clock, types=(t,))
                for a, b, t in zip(ts, fs, e.types)
            ]
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
            w = len(e.types)
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
        else:
            parts = self.norm_ctrl(e) if isinstance(e, (Merge, Ite)) else self.norm_expr(e)
            main = [SimpleEq(x, p, ck) for x, p in zip(targets, parts)]
        return self.aux_eqs + main


def normalize_node(n: Node) -> Node:
    nn = _NodeNormaliser(n)
    eqs: List[NEquation] = []
    for eq in n.equations:
        eqs.extend(nn.equation(eq))
    return Node(
        n.name, n.inputs, n.outputs, n.locals + tuple(nn.new_locals), tuple(eqs)
    )


def normalize_program(p: Program) -> Program:
    """De-nest every node; the result is in NLustre shape (delays may
    still have non-constant first operands until `fby_init`) and every
    expression in it carries its clock and value types."""
    p = annotate_program(p)
    return Program(tuple(normalize_node(n) for n in p.nodes), annotated=True)


# ---------------------------------------------------------------------------
# Explicit delay initialisation
# ---------------------------------------------------------------------------

_DEFAULT = {"bool": False, "int": 0}


def fby_init_node(n: Node) -> Node:
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
        b, v = ("bool",), (vt,)  # the value types of the flag and the register
        new_locals.append(VarDecl(flag, "bool", ck))
        new_locals.append(VarDecl(prev, vt, ck))
        eqs.append(
            FbyEq(flag, Const(True, clock=ck, types=b), Const(False, clock=ck, types=b), ck)
        )
        eqs.append(FbyEq(prev, Const(_DEFAULT[vt], clock=ck, types=v), eq.rhs, ck))
        select = Ite(
            Var(flag, clock=ck, types=b),
            (eq.init,),
            (Var(prev, clock=ck, types=v),),
            clock=ck,
            types=v,
        )
        eqs.append(SimpleEq(eq.target, select, ck))
    return Node(n.name, n.inputs, n.outputs, n.locals + tuple(new_locals), tuple(eqs))


def fby_init(p: Program) -> Program:
    """Rewrite non-constant-headed delays into flag + register + select.
    The new expressions carry their clocks and value types, so an
    annotated program stays annotated."""
    return Program(tuple(fby_init_node(n) for n in p.nodes), annotated=p.annotated)
