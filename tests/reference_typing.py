"""Reference signature inference through the term algebra.

This is the direct transcription of the typing rules: every expression
gets a `SecType` term, node calls become refinement types, and the
locals and call-result variables are eliminated by serial substitution
(`sectypes.substitute` and `canonicalize`), one variable at a time.  It
is quadratic in the number of locals, so `seclus.typing` computes the
same signatures by reachability instead; the tests hold the two to
literally equal results.
"""

from __future__ import annotations

from typing import Dict, Mapping

from seclus.ast import (
    BASE,
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
    NodeCall,
    On,
    Program,
    SimpleEq,
    Unop,
    Var,
    When,
    clock_env,
    topo_order,
)
from seclus.sectypes import (
    BOT,
    Constraint,
    ConstraintSet,
    Refine,
    SecType,
    TVar,
    canon_constraints,
    canonicalize,
    join,
    substitute,
    tvars,
)
from seclus.typing import BASE_KEY, NodeSignature, SignatureEnv, TypingError

TypeEnv = Dict[str, SecType]


class _Fresh:
    """Counter for the d-class variables (locals + call results)."""

    def __init__(self) -> None:
        self.n = 0

    def next(self) -> str:
        self.n += 1
        return f"d{self.n}"


def _lookup(env: TypeEnv, name: str) -> SecType:
    try:
        return env[name]
    except KeyError:
        raise TypingError(f"unbound variable {name!r}") from None


def type_clock(env: TypeEnv, ck: Clock) -> SecType:
    if isinstance(ck, Base):
        return _lookup(env, BASE_KEY)
    assert isinstance(ck, On)
    return join(type_clock(env, ck.clock), _lookup(env, ck.var))


def type_expr(env: TypeEnv, sigs: SignatureEnv, e: Expr, fresh: _Fresh) -> list[SecType]:
    if isinstance(e, Const):
        return [BOT]
    if isinstance(e, Var):
        return [_lookup(env, e.name)]
    if isinstance(e, Unop):
        return type_expr(env, sigs, e.operand, fresh)
    if isinstance(e, Binop):
        (l,) = type_expr(env, sigs, e.left, fresh)
        (r,) = type_expr(env, sigs, e.right, fresh)
        return [join(l, r)]
    if isinstance(e, When):
        x = _lookup(env, e.var)
        return [join(t, x) for t in _type_all(env, sigs, e.exprs, fresh)]
    if isinstance(e, Merge):
        theta = _lookup(env, e.var)
        ts = _type_all(env, sigs, e.on_true, fresh)
        fs = _type_all(env, sigs, e.on_false, fresh)
        _same_width(ts, fs)
        return [join(theta, a, b) for a, b in zip(ts, fs)]
    if isinstance(e, Ite):
        (theta,) = type_expr(env, sigs, e.cond, fresh)
        ts = _type_all(env, sigs, e.on_true, fresh)
        fs = _type_all(env, sigs, e.on_false, fresh)
        _same_width(ts, fs)
        return [join(theta, a, b) for a, b in zip(ts, fs)]
    if isinstance(e, Fby):
        ts = _type_all(env, sigs, e.init, fresh)
        fs = _type_all(env, sigs, e.rest, fresh)
        _same_width(ts, fs)
        return [join(a, b) for a, b in zip(ts, fs)]
    if isinstance(e, NodeCall):
        return _type_call(env, sigs, e.node, e.args, _lookup(env, BASE_KEY), fresh)
    raise TypingError(f"cannot type {type(e).__name__}")


def _type_call(env, sigs, node, args, clock_type: SecType, fresh: _Fresh) -> list[SecType]:
    """Fresh result variables refined by the callee signature
    instantiated at the argument types and the call's clock type."""
    if node not in sigs:
        raise TypingError(f"unknown node {node!r}")
    sig = sigs[node]
    arg_types = _type_all(env, sigs, args, fresh)
    if len(arg_types) != len(sig.input_vars):
        raise TypingError(
            f"call to {node!r}: {len(arg_types)} argument streams,"
            f" signature has {len(sig.input_vars)}"
        )
    results = [fresh.next() for _ in sig.output_vars]
    subst: dict[str, SecType] = {sig.clock_var: clock_type}
    subst.update(zip(sig.input_vars, arg_types))
    subst.update((b, TVar(r)) for b, r in zip(sig.output_vars, results))
    rho = substitute(sig.constraints, subst)
    if not rho:
        return [TVar(r) for r in results]
    return [canonicalize(Refine(TVar(r), rho)) for r in results]


def _type_all(env, sigs, es, fresh) -> list[SecType]:
    out: list[SecType] = []
    for e in es:
        out.extend(type_expr(env, sigs, e, fresh))
    return out


def _same_width(a: list, b: list) -> None:
    if len(a) != len(b):
        raise TypingError("branch width mismatch")


def type_equation(
    env: TypeEnv, sigs: SignatureEnv, eq: AnyEquation, clocks: Mapping[str, Clock], fresh: _Fresh
) -> ConstraintSet:
    """c|t <= env(x) for every defined x; refinements flattened."""
    if isinstance(eq, Equation):
        types = _type_all(env, sigs, eq.exprs, fresh)
        if len(types) != len(eq.targets):
            raise TypingError(
                f"equation for {', '.join(eq.targets)}: width mismatch"
                f" ({len(types)} vs {len(eq.targets)})"
            )
        cons = []
        for x, t in zip(eq.targets, types):
            ckt = type_clock(env, clocks.get(x, BASE))
            cons.append(Constraint(join(ckt, t), _lookup(env, x)))
        return canon_constraints(cons)
    ckt = type_clock(env, eq.clock)
    if isinstance(eq, SimpleEq):
        (t,) = type_expr(env, sigs, eq.rhs, fresh)
        return canon_constraints([Constraint(join(ckt, t), _lookup(env, eq.target))])
    if isinstance(eq, FbyEq):
        (a,) = type_expr(env, sigs, eq.init, fresh)
        (b,) = type_expr(env, sigs, eq.rhs, fresh)
        return canon_constraints([Constraint(join(ckt, a, b), _lookup(env, eq.target))])
    if isinstance(eq, CallEq):
        types = _type_call(env, sigs, eq.node, eq.args, ckt, fresh)
        if len(types) != len(eq.targets):
            raise TypingError(f"call equation for {', '.join(eq.targets)}: width mismatch")
        cons = [Constraint(join(ckt, t), _lookup(env, x)) for x, t in zip(eq.targets, types)]
        return canon_constraints(cons)
    raise TypingError(f"cannot type equation {type(eq).__name__}")


def _eliminate(
    rho: ConstraintSet, deltas: list[str]
) -> tuple[ConstraintSet, dict[str, SecType]]:
    """Serially substitute, for each variable of `deltas`, the left side
    of its unique defining constraint."""
    rho = canon_constraints(rho)
    resolved: dict[str, SecType] = {}
    for d in deltas:
        defining = [c for c in rho if c.rhs == TVar(d)]
        if len(defining) != 1:
            if defining or any(d in tvars(c) for c in rho):
                raise TypingError(
                    f"{len(defining)} constraints define {d!r}; expected exactly one"
                )
            resolved[d] = BOT
            continue
        nu = defining[0].lhs
        step = {d: nu}
        rho = substitute(frozenset(rho - {defining[0]}), step)
        resolved = {k: substitute(v, step) for k, v in resolved.items()}
        resolved[d] = canonicalize(nu)
    return rho, resolved


def node_signature(sigs: SignatureEnv, n) -> NodeSignature:
    in_vars = tuple(f"a{i}" for i in range(1, len(n.inputs) + 1))
    out_vars = tuple(f"b{i}" for i in range(1, len(n.outputs) + 1))
    fresh = _Fresh()
    local_vars = {d.name: fresh.next() for d in n.locals}
    env: TypeEnv = {BASE_KEY: TVar("g")}
    env.update(zip((d.name for d in n.inputs), map(TVar, in_vars)))
    env.update(zip((d.name for d in n.outputs), map(TVar, out_vars)))
    env.update((x, TVar(v)) for x, v in local_vars.items())

    clocks = clock_env(n)
    rho: set[Constraint] = set()
    for eq in n.equations:
        rho |= type_equation(env, sigs, eq, clocks, fresh)

    deltas = list(local_vars.values())
    deltas += [f"d{i}" for i in range(len(n.locals) + 1, fresh.n + 1)]
    final, resolved = _eliminate(frozenset(rho), deltas)
    local_types = {x: resolved[v] for x, v in local_vars.items()}
    return NodeSignature(n.name, in_vars, out_vars, "g", final, local_types)


def check_program(prog: Program) -> SignatureEnv:
    order = topo_order(prog)
    if order is None:
        raise TypingError("node call graph is cyclic")
    sigs: SignatureEnv = {}
    for name in order:
        sigs[name] = node_signature(sigs, prog.node(name))
    return sigs
