"""Reference clock annotation by inference and unification.

This is the former annotation of `seclus.ast`: `infer_clocks` computes
the per-component clocks of an expression bottom-up, with `None` for a
clock-polymorphic constant, and `annotate_clocks` rebuilds the tree,
inferring the clocks of each subtree again at every operator.  It is
quadratic in the nesting depth, so `seclus.ast` checks every
subexpression once against the clock its context expects instead; the
tests hold the two to literally equal annotated programs, clock fields
included.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Optional

from seclus.ast import (
    BASE,
    AnyEquation,
    Binop,
    CallEq,
    Clock,
    ClockError,
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
    On,
    Program,
    SimpleEq,
    Unop,
    Var,
    When,
    clock_env,
    width,
)


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
