"""Fast evaluator: compiles each node to a plain Python step function.

Produces exactly the same histories as `interp.run_node` for well-formed,
well-clocked programs, but one instant costs one Python call instead of
an AST walk.  Presence is resolved statically from clock annotations, so
unlike the reference interpreter this path does not diagnose ill-clocked
programs — the test suite pins its agreement with `run_node`.

Layout of a generated step function (per instant):
  phase 1: clock flags + variable values in schedule order; delays emit
           their stored state; calls made with their clock's activity
  phase 2: delayed operands evaluated under the completed environment,
           then all delay registers committed at once
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

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
    Program,
    SimpleEq,
    Unop,
    Var,
    When,
    annotate_program,
    width,
)
from seclus.interp import (
    EvalError,
    History,
    StreamPrefix,
    base_of,
    int_div,
    int_mod,
    schedule,
    wrap,
)

_BIN_FMT = {
    "+": "_w({}+{})",
    "-": "_w({}-{})",
    "*": "_w({}*{})",
    "div": "_dv({},{})",
    "mod": "_md({},{})",
    "=": "({}=={})",
    "<>": "({}!={})",
    "<": "({}<{})",
    "<=": "({}<={})",
    ">": "({}>{})",
    ">=": "({}>={})",
    # bitwise forms keep both operands strict, matching the reference
    # interpreter (an error in either operand is an error)
    "and": "({} & {})",
    "or": "({} | {})",
    "xor": "({} ^ {})",
}


class _NodeCompiler:
    def __init__(self, node: Node, prog: Program):
        self.node = node
        self.prog = prog
        self.lines: List[str] = []
        self.clock_names: Dict[Clock, str] = {}
        self.n_clocks = 0
        self.n_fby = 0
        self.n_calls = 0
        self.call_nodes: List[str] = []
        self.fby_of: Dict[int, int] = {}
        self.call_of: Dict[int, int] = {}
        self.phase2: List[str] = []
        self.commits: List[str] = []
        self.n_tmp = 0

    def _tmp(self) -> str:
        self.n_tmp += 1
        return f"e{self.n_tmp}"

    # -- clocks --

    def clock_flag(self, ck: Optional[Clock]) -> str:
        """Named activity flag, defined among the phase-1 statements.

        Only safe while building phase 1: the clock's variables are
        instantaneous dependencies of whatever is being compiled, so the
        schedule has already assigned them."""
        ck = ck if ck is not None else BASE
        if isinstance(ck, Base):
            return "B"
        name = self.clock_names.get(ck)
        if name is None:
            parent = self.clock_flag(ck.clock)
            name = f"K{self.n_clocks}"
            self.n_clocks += 1
            test = f"{ck.var}" if ck.value else f"not {ck.var}"
            self.lines.append(f"    {name} = {parent} and {test}")
            self.clock_names[ck] = name
        return name

    def clock_inline(self, ck: Optional[Clock]) -> str:
        """Activity test as an inline expression, for phase-2 statements
        (a clock first needed there may have no phase-1 flag, and its
        variables are only guaranteed assigned once phase 1 is done)."""
        ck = ck if ck is not None else BASE
        if isinstance(ck, Base):
            return "B"
        name = self.clock_names.get(ck)
        if name is not None:
            return name
        parent = self.clock_inline(ck.clock)
        test = f"{ck.var}" if ck.value else f"not {ck.var}"
        return f"({parent} and {test})"

    def flag_for(self, ck: Optional[Clock], sink: List[str]) -> str:
        return self.clock_inline(ck) if sink is self.phase2 else self.clock_flag(ck)

    # -- occurrence bookkeeping --

    def _fby_slot(self, e: Expr, comp: int) -> int:
        key = id(e) * 64 + comp
        slot = self.fby_of.get(key)
        if slot is None:
            slot = self.fby_of[key] = self.n_fby
            self.n_fby += 1
        return slot

    def _call_slot(self, e: NodeCall) -> int:
        slot = self.call_of.get(id(e))
        if slot is None:
            slot = self.call_of[id(e)] = self.n_calls
            self.n_calls += 1
            self.call_nodes.append(e.node)
        return slot

    # -- expression code (one string per component stream) --
    # `sink` collects hoisted statements (phase-1 lines or phase-2 lines)

    def expr(self, e: Expr, sink: List[str]) -> List[str]:
        if isinstance(e, Const):
            return [repr(e.value)]
        if isinstance(e, Var):
            return [e.name]
        if isinstance(e, Unop):
            (s,) = self.expr(e.operand, sink)
            return [f"(not {s})" if e.op == "not" else f"_w(-{s})"]
        if isinstance(e, Binop):
            (l,) = self.expr(e.left, sink)
            (r,) = self.expr(e.right, sink)
            return [_BIN_FMT[e.op].format(l, r)]
        if isinstance(e, When):
            return self._all(e.exprs, sink)  # operand present whenever active
        if isinstance(e, Merge):
            ts = self._all(e.on_true, sink)
            fs = self._all(e.on_false, sink)
            return [f"({t} if {e.var} else {f})" for t, f in zip(ts, fs)]
        if isinstance(e, Ite):
            # both branches share the condition's clock and are evaluated
            # strictly (hoisted to temps), matching the reference
            ckf = self.flag_for(e.clock, sink)
            (c,) = self.expr(e.cond, sink)
            ts = self._all(e.on_true, sink)
            fs = self._all(e.on_false, sink)
            out = []
            for t, f in zip(ts, fs):
                tn, fn = self._tmp(), self._tmp()
                sink.append(f"    {tn} = ({t}) if {ckf} else None")
                sink.append(f"    {fn} = ({f}) if {ckf} else None")
                out.append(f"({tn} if {c} else {fn})")
            return out
        if isinstance(e, Fby):
            return self._fby(e, sink)
        if isinstance(e, NodeCall):
            return self._call(e, sink)
        raise TypeError(type(e))

    def _all(self, es, sink) -> List[str]:
        out: List[str] = []
        for e in es:
            out.extend(self.expr(e, sink))
        return out

    def _fby(self, e: Fby, sink: List[str]) -> List[str]:
        ckf = self.flag_for(e.clock, sink)
        ck2 = self.clock_inline(e.clock)
        inits = self._all(e.init, sink)
        names = []
        for comp, init in enumerate(inits):
            k = self._fby_slot(e, comp)
            sink.append(
                f"    f{k} = (({init}) if SF[{k}] else SP[{k}]) if {ckf} else None"
            )
            names.append(f"f{k}")
        rests = self._all(e.rest, self.phase2)
        for comp, rest in enumerate(rests):
            k = self._fby_slot(e, comp)
            self.phase2.append(f"    t{k} = ({rest}) if {ck2} else None")
            self.commits.append(f"    if {ck2}: SF[{k}] = False; SP[{k}] = t{k}")
        return names

    def _call(self, e: NodeCall, sink: List[str]) -> List[str]:
        ckf = self.flag_for(e.clock, sink)
        k = self._call_slot(e)
        args = self._all(e.args, sink)
        tup = "(" + ", ".join(args) + ("," if len(args) == 1 else "") + ")"
        absent = "(" + "None, " * len(args) + ")"
        sink.append(f"    c{k} = C{k}({tup} if {ckf} else {absent}, {ckf})")
        callee = self.prog.node(e.node)
        off = len(callee.inputs)  # step returns (inputs, outputs, locals)
        return [f"c{k}[{off + j}]" for j in range(len(callee.outputs))]

    # -- equations --

    def equation(self, eq: AnyEquation) -> None:
        L = self.lines
        if isinstance(eq, Equation):
            pos = 0
            for e in eq.exprs:
                w = width(e, self.prog)
                targets = eq.targets[pos : pos + w]
                pos += w
                ckf = self.clock_flag(e.clock)
                codes = self.expr(e, L)
                for x, code in zip(targets, codes):
                    L.append(f"    {x} = ({code}) if {ckf} else None")
            return
        if isinstance(eq, SimpleEq):
            ckf = self.clock_flag(eq.clock)
            (code,) = self.expr(eq.rhs, L)
            L.append(f"    {eq.target} = ({code}) if {ckf} else None")
            return
        if isinstance(eq, FbyEq):
            ckf = self.clock_flag(eq.clock)
            k = self.n_fby
            self.n_fby += 1
            (init,) = self.expr(eq.init, L)
            L.append(
                f"    {eq.target} = (({init}) if SF[{k}] else SP[{k}])"
                f" if {ckf} else None"
            )
            (rest,) = self.expr(eq.rhs, self.phase2)
            self.phase2.append(f"    t{k} = ({rest}) if {ckf} else None")
            self.commits.append(f"    if {ckf}: SF[{k}] = False; SP[{k}] = t{k}")
            return
        if isinstance(eq, CallEq):
            ckf = self.clock_flag(eq.clock)
            k = self._call_slot_eq(eq)
            args = self._all(eq.args, L)
            tup = "(" + ", ".join(args) + ("," if len(args) == 1 else "") + ")"
            absent = "(" + "None, " * len(args) + ")"
            L.append(f"    c{k} = C{k}({tup} if {ckf} else {absent}, {ckf})")
            off = len(self.prog.node(eq.node).inputs)
            for j, x in enumerate(eq.targets):
                L.append(f"    {x} = c{k}[{off + j}]")
            return
        raise TypeError(type(eq))

    def _call_slot_eq(self, eq: CallEq) -> int:
        slot = self.call_of.get(id(eq))
        if slot is None:
            slot = self.call_of[id(eq)] = self.n_calls
            self.n_calls += 1
            self.call_nodes.append(eq.node)
        return slot

    # -- whole node --

    def source(self) -> str:
        n = self.node
        names = [d.name for d in (*n.inputs, *n.outputs, *n.locals)]
        args = ", ".join(d.name for d in n.inputs)
        self.lines.append(f"def step(IN, B):")
        if n.inputs:
            self.lines.append(f"    ({args},) = IN" if len(n.inputs) == 1
                              else f"    {args} = IN")
        for eq in schedule(n):
            self.equation(eq)
        body = self.lines + self.phase2 + self.commits
        body.append("    return (" + ", ".join(names) + ("," if len(names) == 1 else "") + ")")
        return "\n".join(body) + "\n"


class CompiledNode:
    def __init__(self, prog: Program, node: Node, factories: Dict[str, "CompiledNode"]):
        comp = _NodeCompiler(node, prog)
        self.source = comp.source()
        self.node = node
        self.n_fby = comp.n_fby
        self.call_nodes = comp.call_nodes
        self.factories = factories
        code = compile(self.source, f"<compiled {node.name}>", "exec")
        # the reference interpreter's arithmetic, so both engines agree on every value
        self.namespace_proto = {"_w": wrap, "_dv": int_div, "_md": int_mod}
        self.code = code

    def instantiate(self):
        """Fresh step closure: own delay registers, own sub-instances."""
        ns = dict(self.namespace_proto)
        sf = [True] * self.n_fby
        sp: List[object] = [None] * self.n_fby
        ns["SF"], ns["SP"] = sf, sp
        for k, callee in enumerate(self.call_nodes):
            ns[f"C{k}"] = self.factories[callee].instantiate()
        exec(self.code, ns)
        return ns["step"]


class CompiledProgram:
    def __init__(self, prog: Program):
        prog = annotate_program(prog)
        self.prog = prog
        self.nodes: Dict[str, CompiledNode] = {}
        for n in prog.nodes:  # call graph is a DAG in source order
            self.nodes[n.name] = CompiledNode(prog, n, self.nodes)

    def run(self, name: str, inputs: Sequence[StreamPrefix], N: Optional[int] = None) -> History:
        node = self.nodes[name].node
        if len(inputs) != len(node.inputs):
            raise EvalError(f"{name}: expected {len(node.inputs)} input streams")
        if inputs:
            N = len(inputs[0])
        elif N is None:
            raise EvalError("a horizon is required for a node without inputs")
        base_inputs = [
            s for s, d in zip(inputs, node.inputs) if isinstance(d.clock, Base)
        ]
        bs = base_of(base_inputs) if base_inputs else [True] * N
        step = self.nodes[name].instantiate()
        names = [d.name for d in (*node.inputs, *node.outputs, *node.locals)]
        H: History = {x: [] for x in names}
        cols = [H[x] for x in names]
        for i in range(N):
            row = step(tuple(s[i] for s in inputs), bs[i])
            for col, v in zip(cols, row):
                col.append(v)
        return H
