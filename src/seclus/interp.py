"""Finite-prefix executable model of the clocked stream semantics.

A stream prefix is a list of length N whose entries are either a value
(bool or int) or None, which stands for absence.  The whole-stream
operators (`sem_*`) transcribe the relational semantics rule by rule and
are partial: mixed presence raises ClockMismatch.

`run_node` is a deterministic instant-by-instant evaluator (equations
scheduled by instantaneous dependency, delay state carried across
instants).  `check_history` is an independent route: it replays a
produced history through the whole-stream operators and reports every
equation whose defined streams disagree.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
#: integer operand `{}`.  `wrap` is compiled from it and the compiled
#: engine inlines it, so both engines wrap by the same text.
WRAP = f"(({{}}) + {_HALF} & {_MASK}) - {_HALF}"

wrap = eval(compile("lambda x: " + WRAP.format("x"), "<wrap>", "eval"))


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


def apply_unop(op: str, v: Value) -> Value:
    if op == "not":
        return not v
    if op == "-":
        return wrap(-v)
    raise EvalError(f"unknown unary operator {op!r}")


def apply_binop(op: str, a: Value, b: Value) -> Value:
    if op == "+":
        return wrap(a + b)
    if op == "-":
        return wrap(a - b)
    if op == "*":
        return wrap(a * b)
    if op == "div":
        return int_div(a, b)
    if op == "mod":
        return int_mod(a, b)
    if op == "=":
        return a == b
    if op == "<>":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    if op == "and":
        return bool(a) and bool(b)
    if op == "or":
        return bool(a) or bool(b)
    if op == "xor":
        return bool(a) != bool(b)
    raise EvalError(f"unknown binary operator {op!r}")


# ---------------------------------------------------------------------------
# Whole-stream operators
# ---------------------------------------------------------------------------


def sem_const(bs: ClockStream, c: Value) -> StreamPrefix:
    return [c if b else ABSENT for b in bs]


def sem_lift1(op: str, xs: StreamPrefix) -> StreamPrefix:
    return [ABSENT if x is ABSENT else apply_unop(op, x) for x in xs]


def sem_lift2(op: str, xs: StreamPrefix, ys: StreamPrefix) -> StreamPrefix:
    out: StreamPrefix = []
    for x, y in zip(xs, ys):
        if (x is ABSENT) != (y is ABSENT):
            raise ClockMismatch("mixed presence in binary operator")
        out.append(ABSENT if x is ABSENT else apply_binop(op, x, y))
    return out


def sem_when(k: bool, xs: StreamPrefix, es: StreamPrefix) -> StreamPrefix:
    out: StreamPrefix = []
    for x, e in zip(xs, es):
        if (x is ABSENT) != (e is ABSENT):
            raise ClockMismatch("mixed presence in sampling")
        out.append(e if x is not ABSENT and x == k else ABSENT)
    return out


def sem_merge(xs: StreamPrefix, ts: StreamPrefix, fs: StreamPrefix) -> StreamPrefix:
    out: StreamPrefix = []
    for x, t, f in zip(xs, ts, fs):
        if x is ABSENT:
            if t is not ABSENT or f is not ABSENT:
                raise ClockMismatch("merge branch present under absent scrutinee")
            out.append(ABSENT)
        elif x:
            if t is ABSENT or f is not ABSENT:
                raise ClockMismatch("merge true-branch presence mismatch")
            out.append(t)
        else:
            if f is ABSENT or t is not ABSENT:
                raise ClockMismatch("merge false-branch presence mismatch")
            out.append(f)
    return out


def sem_ite(es: StreamPrefix, ts: StreamPrefix, fs: StreamPrefix) -> StreamPrefix:
    out: StreamPrefix = []
    for e, t, f in zip(es, ts, fs):
        present = [v is not ABSENT for v in (e, t, f)]
        if not any(present):
            out.append(ABSENT)
        elif all(present):
            out.append(t if e else f)
        else:
            raise ClockMismatch("mixed presence in conditional")
    return out


def sem_fby_L(xs: StreamPrefix, ys: StreamPrefix) -> StreamPrefix:
    """First present instant yields xs's value; afterwards the value of
    ys at the previous present instant (delay skips absences)."""
    out: StreamPrefix = []
    first = True
    pending: CV = ABSENT
    for x, y in zip(xs, ys):
        if (x is ABSENT) != (y is ABSENT):
            raise ClockMismatch("mixed presence in delay")
        if x is ABSENT:
            out.append(ABSENT)
            continue
        out.append(x if first else pending)
        pending = y
        first = False
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
    xs = H[ck.var]
    out: ClockStream = []
    for p, x in zip(parent, xs):
        if p and x is ABSENT:
            raise ClockMismatch(f"{ck.var} absent while its clock ticks")
        if not p and x is not ABSENT:
            raise ClockMismatch(f"{ck.var} present while its clock is off")
        out.append(bool(p and x == ck.value))
    return out


def base_of(vs: Sequence[StreamPrefix]) -> ClockStream:
    if not vs:
        return []
    pattern = [v is not ABSENT for v in vs[0]]
    for s in vs[1:]:
        if [v is not ABSENT for v in s] != pattern:
            raise ClockMismatch("inconsistent presence across input streams")
    return pattern


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


def _eq_deps(eq: AnyEquation) -> set[str]:
    if isinstance(eq, Equation):
        return _deps_all(eq.exprs)
    if isinstance(eq, SimpleEq):
        return inst_deps(eq.rhs) | fv(eq.clock)
    if isinstance(eq, FbyEq):
        return inst_deps(eq.init) | fv(eq.clock)
    if isinstance(eq, CallEq):
        return _deps_all(eq.args) | fv(eq.clock)
    raise TypeError(type(eq))


def _eq_targets(eq: AnyEquation) -> Tuple[str, ...]:
    if isinstance(eq, (Equation, CallEq)):
        return eq.targets
    return (eq.target,)


def schedule(n: Node) -> List[AnyEquation]:
    """Topological order by instantaneous dependency (stable w.r.t. the
    source order); CausalityError on an instantaneous cycle."""
    defined = {x: i for i, eq in enumerate(n.equations) for x in _eq_targets(eq)}
    deps = [
        {defined[x] for x in _eq_deps(eq) if x in defined} for eq in n.equations
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
                ", ".join(_eq_targets(eq))
                for i, eq in enumerate(n.equations)
                if not placed[i]
            ]
            raise CausalityError(
                f"instantaneous dependency cycle among: {'; '.join(stuck)}"
            )
    return out


# ---------------------------------------------------------------------------
# Deterministic instant-by-instant evaluator
# ---------------------------------------------------------------------------


class _FbyState:
    __slots__ = ("first", "pending")

    def __init__(self) -> None:
        self.first = True
        self.pending: CV = ABSENT


class _Instance:
    """One run of one node: per-occurrence delay state plus one
    sub-instance per syntactic call site, stepped synchronously."""

    def __init__(self, prog: Program, node: Node):
        self.prog = prog
        self.node = node
        self.order = schedule(node)
        self.clocks = clock_env(node)
        self.fby: Dict[int, _FbyState] = {}
        self.calls: Dict[int, "_Instance"] = {}
        self.env: Dict[str, CV] = {}
        self.history: History = {
            d.name: [] for d in (*node.inputs, *node.outputs, *node.locals)
        }

    # -- state helpers --

    def _fby_state(self, key: int) -> _FbyState:
        st = self.fby.get(key)
        if st is None:
            st = self.fby[key] = _FbyState()
        return st

    def _call_instance(self, key: int, name: str) -> "_Instance":
        inst = self.calls.get(key)
        if inst is None:
            inst = self.calls[key] = _Instance(self.prog, self.prog.node(name))
        return inst

    def _clock_on(self, ck: Clock, base: bool) -> bool:
        if isinstance(ck, Base):
            return base
        assert isinstance(ck, On)
        if not self._clock_on(ck.clock, base):
            if self.env[ck.var] is not ABSENT:
                raise ClockMismatch(f"{ck.var} present while its clock is off")
            return False
        x = self.env[ck.var]
        if x is ABSENT:
            raise ClockMismatch(f"{ck.var} absent while its clock ticks")
        return x == ck.value

    # -- expression evaluation at the current instant --
    # phase 1 (update=False): delays emit stored state, their second
    # operands are not entered.  phase 2 (update=True): second operands
    # are evaluated under the completed instant environment and states
    # advance; each occurrence is reached exactly once per phase.

    def _eval(self, e: Expr, update: bool) -> List[CV]:
        if isinstance(e, Const):
            # clock-polymorphic: presence resolved by the annotated clock
            base = self.base_now
            ck = e.clock if e.clock is not None else BASE
            return [e.value if self._clock_on(ck, base) else ABSENT]
        if isinstance(e, Var):
            return [self.env[e.name]]
        if isinstance(e, Unop):
            (v,) = self._eval(e.operand, update)
            return [ABSENT if v is ABSENT else apply_unop(e.op, v)]
        if isinstance(e, Binop):
            (a,) = self._eval(e.left, update)
            (b,) = self._eval(e.right, update)
            if (a is ABSENT) != (b is ABSENT):
                raise ClockMismatch("mixed presence in binary operator")
            return [ABSENT if a is ABSENT else apply_binop(e.op, a, b)]
        if isinstance(e, When):
            (x,) = self._eval(Var(e.var), update)
            vals = self._eval_all(e.exprs, update)
            out = []
            for v in vals:
                if (x is ABSENT) != (v is ABSENT):
                    raise ClockMismatch("mixed presence in sampling")
                out.append(v if x is not ABSENT and x == e.value else ABSENT)
            return out
        if isinstance(e, Merge):
            (x,) = self._eval(Var(e.var), update)
            ts = self._eval_all(e.on_true, update)
            fs = self._eval_all(e.on_false, update)
            out = []
            for t, f in zip(ts, fs):
                if x is ABSENT:
                    if t is not ABSENT or f is not ABSENT:
                        raise ClockMismatch("merge branch present under absent scrutinee")
                    out.append(ABSENT)
                elif x:
                    if t is ABSENT or f is not ABSENT:
                        raise ClockMismatch("merge true-branch presence mismatch")
                    out.append(t)
                else:
                    if f is ABSENT or t is not ABSENT:
                        raise ClockMismatch("merge false-branch presence mismatch")
                    out.append(f)
            return out
        if isinstance(e, Ite):
            (c,) = self._eval(e.cond, update)
            ts = self._eval_all(e.on_true, update)
            fs = self._eval_all(e.on_false, update)
            out = []
            for t, f in zip(ts, fs):
                present = [v is not ABSENT for v in (c, t, f)]
                if not any(present):
                    out.append(ABSENT)
                elif all(present):
                    out.append(t if c else f)
                else:
                    raise ClockMismatch("mixed presence in conditional")
            return out
        if isinstance(e, Fby):
            inits = self._eval_all(e.init, update)
            out = []
            for k, i_val in enumerate(inits):
                st = self._fby_state(id(e) * 64 + k)
                if i_val is ABSENT:
                    out.append(ABSENT)
                else:
                    out.append(i_val if st.first else st.pending)
            if update:
                rests = self._eval_all(e.rest, update)
                for k, (i_val, r_val) in enumerate(zip(inits, rests)):
                    if (i_val is ABSENT) != (r_val is ABSENT):
                        raise ClockMismatch("mixed presence in delay")
                    if i_val is ABSENT:
                        continue
                    st = self._fby_state(id(e) * 64 + k)
                    st.pending = r_val
                    st.first = False
            return out
        if isinstance(e, NodeCall):
            key = id(e)
            if key in self.call_outputs:
                if update:
                    # still advance delay state inside the argument trees
                    self._eval_all(e.args, update)
                return list(self.call_outputs[key])
            args = self._eval_all(e.args, update)
            if args:
                active = args[0] is not ABSENT
            else:
                active = self._clock_on(e.clock if e.clock is not None else BASE,
                                        self.base_now)
            outs = self._step_call(key, e.node, args, active)
            self.call_outputs[key] = list(outs)
            return outs
        raise TypeError(type(e))

    def _eval_all(self, es, update: bool) -> List[CV]:
        out: List[CV] = []
        for e in es:
            out.extend(self._eval(e, update))
        return out

    def _step_call(self, key: int, name: str, args: List[CV], active: bool) -> List[CV]:
        present = [a is not ABSENT for a in args]
        if any(p != active for p in present):
            raise ClockMismatch(f"call to {name}: mixed argument presence")
        inst = self._call_instance(key, name)
        return inst.step(args, active)

    # -- one synchronous instant --

    def step(self, inputs: List[CV], base: bool) -> List[CV]:
        n = self.node
        if len(inputs) != len(n.inputs):
            raise EvalError(f"{n.name}: expected {len(n.inputs)} inputs")
        self.base_now = base
        self.call_outputs: Dict[int, List[CV]] = {}
        self.env = {d.name: v for d, v in zip(n.inputs, inputs)}
        for d in (*n.outputs, *n.locals):
            self.env[d.name] = ABSENT

        # declared input clocks must agree with actual presence
        for d in n.inputs:
            on = self._clock_on(d.clock, base)
            if on != (self.env[d.name] is not ABSENT):
                raise ClockMismatch(f"input {d.name} off its declared clock")

        # phase 1: values, in schedule order, delays reading stored state
        for eq in self.order:
            self._assign(eq)
        # phase 2: advance delay state under the completed environment
        for eq in self.order:
            self._advance(eq)

        for name, s in self.history.items():
            s.append(self.env[name])
        return [self.env[d.name] for d in n.outputs]

    def _assign(self, eq: AnyEquation) -> None:
        if isinstance(eq, Equation):
            vals = self._eval_all(eq.exprs, update=False)
            if len(vals) != len(eq.targets):
                raise EvalError("equation width mismatch")
            for x, v in zip(eq.targets, vals):
                self.env[x] = v
            return
        active = self._clock_on(eq.clock, self.base_now)
        if isinstance(eq, SimpleEq):
            (v,) = self._eval(eq.rhs, update=False)
        elif isinstance(eq, FbyEq):
            st = self._fby_state(id(eq))
            (i_val,) = self._eval(eq.init, update=False)
            if (i_val is ABSENT) == active:
                raise ClockMismatch(f"{eq.target}: operand off the equation clock")
            v = ABSENT if not active else (i_val if st.first else st.pending)
        elif isinstance(eq, CallEq):
            args = self._eval_all(eq.args, update=False)
            vals = self._step_call(id(eq), eq.node, args, active)
            if len(vals) != len(eq.targets):
                raise EvalError("call equation width mismatch")
            for x, v in zip(eq.targets, vals):
                if (v is ABSENT) == active:
                    raise ClockMismatch(f"{x}: callee output off the equation clock")
                self.env[x] = v
            return
        else:
            raise TypeError(type(eq))
        if (v is ABSENT) == active:
            raise ClockMismatch(f"{_eq_targets(eq)[0]}: value off the equation clock")
        self.env[_eq_targets(eq)[0]] = v

    def _advance(self, eq: AnyEquation) -> None:
        if isinstance(eq, Equation):
            self._eval_all(eq.exprs, update=True)
            return
        if isinstance(eq, SimpleEq):
            self._eval(eq.rhs, update=True)
            return
        if isinstance(eq, FbyEq):
            self._eval(eq.init, update=True)
            (r_val,) = self._eval(eq.rhs, update=True)
            active = self.env[eq.target] is not ABSENT
            if (r_val is ABSENT) == active:
                raise ClockMismatch(f"{eq.target}: delayed operand off the clock")
            if active:
                st = self._fby_state(id(eq))
                st.pending = r_val
                st.first = False
            return
        if isinstance(eq, CallEq):
            return  # argument expressions contain no delays or calls
        raise TypeError(type(eq))


def run_node(
    prog: Program,
    name: str,
    inputs: Sequence[StreamPrefix],
    N: Optional[int] = None,
    dialect: str = "lustre",
) -> History:
    """Execute `name` over the given input prefixes; returns the full
    history (inputs, outputs and locals)."""
    prog = annotate_program(prog)
    node = prog.node(name)
    if len(inputs) != len(node.inputs):
        raise EvalError(f"{name}: expected {len(node.inputs)} input streams")
    if inputs:
        lengths = {len(s) for s in inputs}
        if len(lengths) != 1:
            raise EvalError("input streams must share one length")
        N = lengths.pop()
    elif N is None:
        raise EvalError("a horizon is required for a node without inputs")

    base_inputs = [
        s for s, d in zip(inputs, node.inputs) if isinstance(d.clock, Base)
    ]
    bs = base_of(base_inputs) if base_inputs else [True] * N

    inst = _Instance(prog, node)
    for i in range(N):
        inst.step([s[i] for s in inputs], bs[i])
    H = inst.history
    if dialect == "nlustre" and not respects_clock(H, bs):
        raise ClockMismatch("history does not respect the base clock")
    return H


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


def _sem_expr(prog: Program, H: History, bs: ClockStream, e: Expr) -> List[StreamPrefix]:
    if isinstance(e, Const):
        ck = e.clock if e.clock is not None else BASE
        return [sem_const(sem_clock(H, bs, ck), e.value)]
    if isinstance(e, Var):
        return [list(H[e.name])]
    if isinstance(e, Unop):
        (s,) = _sem_expr(prog, H, bs, e.operand)
        return [sem_lift1(e.op, s)]
    if isinstance(e, Binop):
        (a,) = _sem_expr(prog, H, bs, e.left)
        (b,) = _sem_expr(prog, H, bs, e.right)
        return [sem_lift2(e.op, a, b)]
    if isinstance(e, When):
        xs = H[e.var]
        return [sem_when(e.value, xs, s) for s in _sem_all(prog, H, bs, e.exprs)]
    if isinstance(e, Merge):
        xs = H[e.var]
        ts = _sem_all(prog, H, bs, e.on_true)
        fs = _sem_all(prog, H, bs, e.on_false)
        return [sem_merge(xs, t, f) for t, f in zip(ts, fs)]
    if isinstance(e, Ite):
        (c,) = _sem_expr(prog, H, bs, e.cond)
        ts = _sem_all(prog, H, bs, e.on_true)
        fs = _sem_all(prog, H, bs, e.on_false)
        return [sem_ite(c, t, f) for t, f in zip(ts, fs)]
    if isinstance(e, Fby):
        xs = _sem_all(prog, H, bs, e.init)
        ys = _sem_all(prog, H, bs, e.rest)
        return [sem_fby_L(x, y) for x, y in zip(xs, ys)]
    if isinstance(e, NodeCall):
        args = _sem_all(prog, H, bs, e.args)
        callee = prog.node(e.node)
        sub = run_node(prog, e.node, args)
        return [list(sub[d.name]) for d in callee.outputs]
    raise TypeError(type(e))


def _sem_all(prog, H, bs, es) -> List[StreamPrefix]:
    out: List[StreamPrefix] = []
    for e in es:
        out.extend(_sem_expr(prog, H, bs, e))
    return out


def check_history(
    prog: Program, name: str, H: History, bs: ClockStream
) -> List[Discrepancy]:
    """Replay every equation of `name` through the whole-stream
    operators against the history `H`; empty result means H satisfies
    the relational semantics of each equation."""
    prog = annotate_program(prog)
    node = prog.node(name)
    out: List[Discrepancy] = []
    for eq in node.equations:
        if isinstance(eq, Equation):
            expected = _sem_all(prog, H, bs, eq.exprs)
            targets = eq.targets
        elif isinstance(eq, SimpleEq):
            expected = _sem_expr(prog, H, bs, eq.rhs)
            targets = (eq.target,)
        elif isinstance(eq, FbyEq):
            (xs,) = _sem_expr(prog, H, bs, eq.init)
            (ys,) = _sem_expr(prog, H, bs, eq.rhs)
            if isinstance(eq.init, Const):
                expected = [sem_fby_NL(eq.init.value, ys)]
            else:
                expected = [sem_fby_L(xs, ys)]
            targets = (eq.target,)
        elif isinstance(eq, CallEq):
            args = _sem_all(prog, H, bs, eq.args)
            callee = prog.node(eq.node)
            sub = run_node(prog, eq.node, args)
            expected = [list(sub[d.name]) for d in callee.outputs]
            targets = eq.targets
        else:
            raise TypeError(type(eq))
        for x, s in zip(targets, expected):
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
    H: History = {n: [] for n in names}
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
