"""Fast evaluator: compiles an entry node, with every node it calls
inlined, into one Python function that runs the whole horizon.

Produces exactly the same histories as `interp.run_node` for valid
programs on 64-bit integer inputs, but the instant loop runs inside
generated code instead of walking the AST.  Presence is resolved
statically from clock annotations, so unlike the reference interpreter
this path does not diagnose ill-clocked programs — the test suite pins
its agreement with `run_node`.

The scheme is clock-directed code generation (Biernacki, Colaço, Hamon
& Pouzet, LCTES 2008) with the loop over instants moved into the
generated code, as in Vélus's translation to Obc (Bourke et al., PLDI
2017).  Layout of the `run` function generated for one entry node and
one set of recorded columns:

  before the loop  every delay register is a Python local, holding its
                   constant initial value or the `first` sentinel
  per instant      the input columns are zipped with the base clock; on a
                   base-false instant every recorded column gets None and
                   nothing else happens, otherwise the body runs with the
                   base clock known to be true (base-clocked statements
                   carry no guard)
  phase 1          clock flags and variable values in schedule order;
                   delays read their register; a call inlines the
                   callee's whole instant (both phases, its registers
                   committed) under the call's clock flag, its outputs
                   None when the flag is off
  phase 2          delayed operands evaluated under the completed
                   environment, then every register committed
  record           only the requested columns, through bound
                   `list.append`; requested inputs are copied from the
                   input columns

Program variables are mangled into their own namespace: `V_x` in the
entry node and `V<k>_x` in the k-th inlined call site (non-ASCII
identifiers are spelt in hex).  Every name the generator makes up
starts with a lower-case letter, so no program identifier can shadow
one.  Inlining copies a callee's body once per call site, so the code
grows with the number of paths through the call graph.

`div` and `mod` by a positive integer literal (all the generator's
divisions) are inline floor operations with the sign fixed up, through
the scratch local `q`; any other divisor calls `interp.int_div` or
`int_mod`, which test for zero.  The generated functions are kept on
the program object (`Program.memo`), so every `CompiledProgram` of one
program generates each (entry node, columns) pair once.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

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
    WRAP,
    History,
    StreamPrefix,
    base_clock,
    int_div,
    int_mod,
    schedule,
)

_BIN_FMT = {
    "+": "(" + WRAP.format("{} + {}") + ")",
    "-": "(" + WRAP.format("{} - {}") + ")",
    "*": "(" + WRAP.format("{} * {}") + ")",
    "div": "div({}, {})",
    "mod": "mod({}, {})",
    "=": "({} == {})",
    "<>": "({} != {})",
    "<": "({} < {})",
    "<=": "({} <= {})",
    ">": "({} > {})",
    ">=": "({} >= {})",
    # bitwise forms keep both operands strict, matching the reference
    # interpreter (an error in either operand is an error)
    "and": "({} & {})",
    "or": "({} | {})",
    "xor": "({} ^ {})",
}
_NEG_FMT = "(" + WRAP.format("-{}") + ")"
# `div`/`mod` by a positive literal {0} of the dividend {1}, rounded
# toward zero: it cannot raise, nor leave the 64-bit integers
_LITERAL_FMT = {
    "div": "(q // {0} if (q := {1}) >= 0 else -(-q // {0}))",
    "mod": "(q % {0} if (q := {1}) >= 0 else -(-q % {0}))",
}


# content of a delay register before the delay's first instant
_FIRST = object()


def _mangle(prefix: str, name: str) -> str:
    # the lexer's ASCII identifiers keep their spelling; any other is
    # spelt in hex, so no two names meet under Python's NFKC folding
    return f"{prefix}_{name}" if name.isascii() else f"{prefix}x{name.encode().hex()}"


def _const(v) -> str:
    return f"({v!r})" if not isinstance(v, bool) and v < 0 else repr(v)


def _atom(code: str) -> bool:
    return code.isidentifier() or code.strip("(-)").isdigit()


def _positive_literal(e: Expr) -> bool:
    return isinstance(e, Const) and not isinstance(e.value, bool) and e.value > 0


def _guard(code: str, flag: Optional[str]) -> str:
    return code if flag is None else f"{code} if {flag} else None"


class _Codegen:
    """Counters and register initialisations shared by every instance
    inlined into one generated function."""

    def __init__(self, prog: Program):
        self.prog = prog
        self.counts: Dict[str, int] = {}
        self.registers: List[str] = []
        self.schedules: Dict[str, List[AnyEquation]] = {}

    def fresh(self, kind: str) -> str:
        n = self.counts.get(kind, 0)
        self.counts[kind] = n + 1
        return f"{kind}{n}"

    def register(self, initial: str) -> str:
        reg = self.fresh("r")
        self.registers.append(f"{reg} = {initial}")
        return reg

    def schedule(self, node: Node) -> List[AnyEquation]:
        order = self.schedules.get(node.name)
        if order is None:
            order = self.schedules[node.name] = schedule(node)
        return order


class _NodeCode:
    """Statements of one instant of one node instance: the entry node,
    or a callee inlined at one call site.  `env` maps each of the node's
    variables to the code that names it."""

    def __init__(self, gen: _Codegen, node: Node, env: Dict[str, str]):
        self.gen = gen
        self.node = node
        self.env = env
        self.flags: Dict[Clock, str] = {}
        self.lines: List[str] = []  # phase 1
        self.phase2: List[str] = []
        self.commits: List[str] = []
        # register reads and `div`/`mod` calls emitted so far; a call to
        # `div` or `mod` (a divisor other than a positive literal) is the
        # only code that raises on a well-clocked program
        self.reads = 0
        self.divs = 0

    def body(self) -> List[str]:
        for eq in self.gen.schedule(self.node):
            self.equation(eq)
        return self.lines + self.phase2 + self.commits

    def hoist(self, code: str, sink: List[str]) -> str:
        name = self.gen.fresh("e")
        sink.append(f"{name} = {code}")
        return name

    # -- clocks --

    def flag(self, ck: Optional[Clock], sink: List[str]) -> Optional[str]:
        """Activity of `ck`, None for the instance's base clock (always
        on where the instance's statements run).  In phase 1 a derived
        clock gets a named flag at its first use, once the schedule has
        assigned its variable.  In phase 2 a clock without a phase-1 flag
        is tested inline, as every variable is assigned by then."""
        ck = ck if ck is not None else BASE
        if isinstance(ck, Base):
            return None
        name = self.flags.get(ck)
        if name is not None:
            return name
        parent = self.flag(ck.clock, sink)
        var = self.env[ck.var]
        test = var if ck.value else f"not {var}"
        code = test if parent is None else f"{parent} and {test}"
        if sink is not self.lines:
            return f"({code})"
        name = self.gen.fresh("k")
        sink.append(f"{name} = {code}")
        self.flags[ck] = name
        return name

    # -- expressions: one code string per component stream --
    # `sink` collects hoisted statements (phase-1 lines or phase-2 lines)

    def expr(self, e: Expr, sink: List[str]) -> List[str]:
        if isinstance(e, Const):
            return [_const(e.value)]
        if isinstance(e, Var):
            return [self.env[e.name]]
        if isinstance(e, Unop):
            (s,) = self.expr(e.operand, sink)
            return [f"(not {s})" if e.op == "not" else _NEG_FMT.format(s)]
        if isinstance(e, Binop):
            (l,) = self.expr(e.left, sink)
            if e.op in _LITERAL_FMT and _positive_literal(e.right):
                return [_LITERAL_FMT[e.op].format(e.right.value, l)]
            (r,) = self.expr(e.right, sink)
            if e.op in _LITERAL_FMT:
                self.divs += 1
            return [_BIN_FMT[e.op].format(l, r)]
        if isinstance(e, When):
            return self.all(e.exprs, sink)  # operand present whenever active
        if isinstance(e, Merge):
            ts = self.all(e.on_true, sink)
            fs = self.all(e.on_false, sink)
            x = self.env[e.var]
            return [f"({t} if {x} else {f})" for t, f in zip(ts, fs)]
        if isinstance(e, Ite):
            return self.ite(e, sink)
        if isinstance(e, Fby):
            return self.fby(e, sink)
        if isinstance(e, NodeCall):
            return self.call(e.node, e.args, e.clock, None, sink)
        raise TypeError(type(e))

    def all(self, es: Sequence[Expr], sink: List[str]) -> List[str]:
        out: List[str] = []
        for e in es:
            out.extend(self.expr(e, sink))
        return out

    def ite(self, e: Ite, sink: List[str]) -> List[str]:
        # the reference evaluates both branches: a branch that can raise
        # is computed on the conditional's clock before the selection
        (c,) = self.expr(e.cond, sink)
        before = self.divs
        ts = self.all(e.on_true, sink)
        fs = self.all(e.on_false, sink)
        if self.divs != before:
            flag = self.flag(e.clock, sink)
            ts = [self.hoist(_guard(t, flag), sink) for t in ts]
            fs = [self.hoist(_guard(f, flag), sink) for f in fs]
        return [f"({t} if {c} else {f})" for t, f in zip(ts, fs)]

    def read(
        self, init: Optional[Expr], code: str, strict: bool, flag: Optional[str], sink: List[str]
    ) -> Tuple[str, str]:
        """A new register for a delay whose first operand `init` compiles
        to `code`, and the code that reads the delay's current value.  A
        constant is the register's initial content.  The reference
        evaluates the first operand at every instant of the delay, so a
        `strict` one (it can raise) is computed even after the first."""
        if isinstance(init, Const):
            reg = self.gen.register(code)
            return reg, reg
        reg = self.gen.register("first")
        if strict:
            code = self.hoist(_guard(code, flag), sink)
        return reg, f"({code} if {reg} is first else {reg})"

    def commit(self, reg: str, rest: str, flag: Optional[str], reading: bool) -> None:
        """Store the delayed operand: straight into the register at the
        end of the instant, or through a phase-2 temporary when `rest`
        reads a register that may be committed before it."""
        if reading:
            t = self.gen.fresh("t")
            self.phase2.append(f"{t} = {rest} if {flag} else {reg}" if flag else f"{t} = {rest}")
            self.commits.append(f"{reg} = {t}")
        else:
            self.commits.append(f"if {flag}: {reg} = {rest}" if flag else f"{reg} = {rest}")

    def fby(self, e: Fby, sink: List[str]) -> List[str]:
        flag = self.flag(e.clock, sink)
        before = self.divs
        inits = self.all(e.init, sink)
        strict = self.divs != before
        # one expression per component, unless a call yields several
        exprs = e.init if len(e.init) == len(inits) else (None,) * len(inits)
        regs, reads = [], []
        for init, code in zip(exprs, inits):
            reg, read = self.read(init, code, strict, flag, sink)
            regs.append(reg)
            reads.append(read)
        self.reads += len(reads)
        before = self.reads
        rests = self.all(e.rest, self.phase2)
        reading = self.reads != before
        flag2 = self.flag(e.clock, self.phase2)
        for reg, rest in zip(regs, rests):
            self.commit(reg, rest, flag2, reading)
        return reads

    def call(
        self,
        name: str,
        args: Sequence[Expr],
        ck: Optional[Clock],
        targets: Optional[List[str]],
        sink: List[str],
    ) -> List[str]:
        """Inline one instant of `name` at this call site; returns the
        codes of its outputs (`targets` when given)."""
        callee = self.gen.prog.node(name)
        flag = self.flag(ck, sink)
        codes = self.all(args, sink)
        prefix = self.gen.fresh("V")
        block: List[str] = []
        env: Dict[str, str] = {}
        for d, code in zip(callee.inputs, codes):
            if _atom(code):
                env[d.name] = code
            else:
                env[d.name] = _mangle(prefix, d.name)
                block.append(f"{env[d.name]} = {code}")
        outs = targets or [_mangle(prefix, d.name) for d in callee.outputs]
        env.update(zip((d.name for d in callee.outputs), outs))
        env.update((d.name, _mangle(prefix, d.name)) for d in callee.locals)
        block += _NodeCode(self.gen, callee, env).body()
        if flag is None:
            sink.extend(block)
        else:
            sink.append(f"if {flag}:")
            sink.extend("    " + line for line in block)
            sink.append("else:")
            sink.append("    " + " = ".join(outs) + " = None")
        return outs

    # -- equations --

    def equation(self, eq: AnyEquation) -> None:
        L = self.lines
        env = self.env
        if isinstance(eq, Equation):
            pos = 0
            for e in eq.exprs:
                w = width(e, self.gen.prog)
                targets = [env[x] for x in eq.targets[pos : pos + w]]
                pos += w
                if isinstance(e, NodeCall):
                    self.call(e.node, e.args, e.clock, targets, L)
                    continue
                flag = self.flag(e.clock, L)
                for x, code in zip(targets, self.expr(e, L)):
                    L.append(f"{x} = {_guard(code, flag)}")
        elif isinstance(eq, SimpleEq):
            flag = self.flag(eq.clock, L)
            (code,) = self.expr(eq.rhs, L)
            L.append(f"{env[eq.target]} = {_guard(code, flag)}")
        elif isinstance(eq, FbyEq):
            flag = self.flag(eq.clock, L)
            before = self.divs
            (init,) = self.expr(eq.init, L)
            reg, read = self.read(eq.init, init, self.divs != before, flag, L)
            L.append(f"{env[eq.target]} = {_guard(read, flag)}")
            before = self.reads
            (rest,) = self.expr(eq.rhs, self.phase2)
            self.commit(reg, rest, self.flag(eq.clock, self.phase2), self.reads != before)
        elif isinstance(eq, CallEq):
            self.call(eq.node, eq.args, eq.clock, [env[x] for x in eq.targets], L)
        else:
            raise TypeError(type(eq))


class _Run(NamedTuple):
    source: str
    fn: Callable
    # per requested column: the index of the input it copies, or None
    # for the next column the generated function records
    layout: Tuple[Tuple[str, Optional[int]], ...]


def _generate(prog: Program, node: Node, want: Tuple[str, ...]) -> _Run:
    gen = _Codegen(prog)
    env = {d.name: _mangle("V", d.name) for d in node.decls}
    body = _NodeCode(gen, node, env).body()
    inputs = {d.name: k for k, d in enumerate(node.inputs)}
    recorded = [x for x in want if x not in inputs]
    appends = [f"a{j}" for j in range(len(recorded))]
    targets = [env[d.name] for d in node.inputs] + ["b"]
    lines = ["def run(cols, bs, div=int_div, mod=int_mod, first=FIRST):"]
    lines += [f"    o{j} = []; a{j} = o{j}.append" for j in range(len(recorded))]
    lines += ["    " + line for line in gen.registers]
    lines.append(f"    for {', '.join(targets)}, in zip(*cols, bs):")
    lines.append("        if not b:")
    lines += [f"            {a}(None)" for a in appends]
    lines.append("            continue")
    lines += ["        " + line for line in body]
    lines += [f"        {a}({env[x]})" for a, x in zip(appends, recorded)]
    lines.append("    return (" + "".join(f"o{j}, " for j in range(len(recorded))) + ")")
    source = "\n".join(lines) + "\n"
    namespace = {"int_div": int_div, "int_mod": int_mod, "FIRST": _FIRST}
    exec(compile(source, f"<compiled {node.name}>", "exec"), namespace)
    layout = tuple((x, inputs.get(x)) for x in want)
    return _Run(source, namespace["run"], layout)


class CompiledProgram:
    def __init__(self, prog: Program):
        self.prog = annotate_program(prog)
        # generated code by (entry node, requested columns), made at the
        # first run that asks for it and shared by every CompiledProgram
        # of the same program object
        self.nodes: Dict[Tuple[str, Tuple[str, ...]], _Run] = self.prog.memo.setdefault(
            "compiled", {}
        )

    def run(
        self,
        name: str,
        inputs: Sequence[StreamPrefix],
        N: Optional[int] = None,
        want: Optional[Sequence[str]] = None,
    ) -> History:
        """Execute `name` over the given input prefixes.  Returns the
        history of the variables in `want` (every input, output and
        local when None), in that order."""
        node = self.prog.node(name)
        bs = base_clock(node, inputs, N)
        cols = tuple(d.name for d in node.decls) if want is None else tuple(dict.fromkeys(want))
        gen = self.nodes.get((name, cols))
        if gen is None:
            declared = {d.name for d in node.decls}
            unknown = [x for x in cols if x not in declared]
            if unknown:
                raise ValueError(f"{name} has no variable {unknown[0]!r}")
            gen = self.nodes[(name, cols)] = _generate(self.prog, node, cols)
        recorded = iter(gen.fn(inputs, bs))
        return {
            x: list(inputs[k]) if k is not None else next(recorded)
            for x, k in gen.layout
        }
