"""Fast evaluator: compiles an entry node, with every node it calls
inlined, into one Python function that runs the whole horizon.

Produces exactly the same histories as `interp.run_node` for valid
programs on 64-bit integer inputs, but the instant loop runs inside
generated code instead of walking the AST.  Presence is resolved
statically from clock annotations; an ill-clocked program is refused
before that, at annotation, with a `ClockError`, as on the reference
interpreter.  The test suite pins its agreement with `run_node`.

The scheme is clock-directed code generation (Biernacki, Colaço, Hamon
& Pouzet, LCTES 2008) with the loop over instants moved into the
generated code, as in Vélus's translation to Obc (Bourke et al., PLDI
2017).  Code is pruned twice, around constant folding: the cone of
influence before it, liveness after it.  Each node instance (the entry
node, or a callee inlined at one call site) compiles only the equations
in the cone of influence of its wanted variables: the entry's recorded
columns, the targets of a call that its caller reads, every output of a
call in expression position.  The cone is the backward closure over the
equations that define them, through every operand (the delayed operand
of a `fby` included), every `when`/`merge` variable and the variables
of the targets' clocks, so a callee that nothing wanted reads is never
inlined.  An equation that may raise (a `div`/`mod` whose divisor is
not a positive literal, or a call to a node holding one) is always in
the cone, so leaving out the rest removes no `EvalError`.  Folding
(below) then removes readers that the cone counted, so each statement
records its targets and the names its code reads, and only the live
statements are emitted (see *Liveness*).  Layout of the `run` function
generated for one entry node and one set of recorded columns:

  before the loop  every live delay register is a Python local, holding its
                   constant initial value or the `first` sentinel
                   (`interp._FIRST`)
  per instant      the input columns are zipped with the base clock; an
                   input declared on a derived clock is checked against
                   it by the reference's own presence rules (`interp._on`,
                   `interp._check_input`); on a base-false instant every
                   recorded column gets None and nothing else happens,
                   otherwise the body runs with the base clock known to be
                   true (base-clocked statements carry no guard)
  phase 1          clock flags and variable values in schedule order;
                   delays read their register and queue their second
                   operand; a call inlines the callee's whole instant
                   (its phase 1, phase 2 and commits) under the call's
                   clock flag, the outputs the caller reads None when the
                   flag is off
  phase 2          after the last phase-1 equation, when every
                   variable's code is final: the queued second operands
                   in order (a delay nested in one joins the end of the
                   queue); one that reads a register, in its value or
                   in its clock test, is stored through a temporary, as
                   the register it reads may be committed before it
  record           only the requested columns, through bound
                   `list.append`, before the commits, so a column whose
                   code is a register reads this instant's value
  commits          every live register stored
  return           the history dict: the recorded lists, and a copy of
                   each requested input column

Program variables are mangled into their own namespace: `V_x` in the
entry node and `V<k>_x` in the k-th inlined call site (non-ASCII
identifiers are spelt in hex).  Every name the generator makes up
starts with a lower-case letter, so no program identifier can shadow
one.  Inlining copies a callee's body once per call site, so the code
grows with the number of paths through the call graph.

A copy costs nothing per instant.  Each variable has one code: an
equation on its instance's base clock whose code is an atom (a
variable's code, an input, a register or a literal) gives the variable
that atom and emits nothing, except a callee output, which its caller
reads by name.  A delay with a literal first operand is its register,
so the de-nested form's `x = c fby y` is read from the register itself.
A delay whose two operands are the same literal is that literal, and
the delays of one instance with the same two literals on the same clock
flag share one register: the fby-init form's `xinit = true fby false`
flags are one register per clock.  A clock whose variable's code is a
literal is folded: always on, the parent's flag; never on, `False`, and
nothing under it runs.

`+`, `-`, `*` and unary `-` wrap to 64 bits by `interp.WRAP`, a range
test through the scratch local `w` that leaves the three big-int
masking operations to a result outside the range.  `div` and `mod` by a
positive integer literal (all the generator's divisions) are inline
floor operations with the sign fixed up, through the scratch local `q`;
any other divisor calls `interp.int_div` or `int_mod`, which test for
zero.  The generated functions are kept on the program object
(`Program.memo`), so every `CompiledProgram` of one program generates
each (entry node, columns) pair once.

Constants are folded in the generated code only; the program, its
signatures and the reference engine see it as written.  An operator
over two literal codes is replaced by its value, computed by the
reference's own `interp._BINARY`/`_UNARY`, except a `div`/`mod` by 0,
which must still raise at run time.  An `if` whose condition is a
literal is its branch, after any strict branch has been hoisted as
usual; so is a `merge` whose variable's code is a literal.  Equal branch
codes collapse when the condition cannot raise.

Liveness.  A statement that nothing live reads is not emitted.  While
its code is built, each statement records its targets and the names the
code reads (`_Stmt`); a branch that folding drops takes its names with
it.  `_live` closes backward over these records from the recorded
columns and from every statement that may raise (one that calls `div`
or `mod`); a statement in a call block also reads the block's test.  The
closure is flow-insensitive, so a register that phase 1 reads keeps the
commit that stores it at the end of the instant, and a register nothing
live reads loses its commit and its initialisation.  The survivors are
printed in their order and text; a call block with no live statement
goes, with its `else`.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

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
    children,
    clock_env,
    dv,
    fv,
)
from seclus.interp import (
    _BINARY,
    _FIRST,
    _UNARY,
    WRAP,
    History,
    StreamPrefix,
    Value,
    _check_input,
    _on,
    base_clock,
    int_div,
    int_mod,
    node_schedule,
)

_BIN_FMT = {
    "+": WRAP.format("{} + {}"),
    "-": WRAP.format("{} - {}"),
    "*": WRAP.format("{} * {}"),
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
_NEG_FMT = WRAP.format("-{}")
# `div`/`mod` by a positive literal {0} of the dividend {1}, rounded
# toward zero: it cannot raise, nor leave the 64-bit integers
_LITERAL_FMT = {
    "div": "(q // {0} if (q := {1}) >= 0 else -(-q // {0}))",
    "mod": "(q % {0} if (q := {1}) >= 0 else -(-q % {0}))",
}


def _mangle(prefix: str, name: str) -> str:
    # the lexer's ASCII identifiers keep their spelling; any other is
    # spelt in hex, so no two names meet under Python's NFKC folding
    return f"{prefix}_{name}" if name.isascii() else f"{prefix}x{name.encode().hex()}"


def _const(v) -> str:
    return f"({v!r})" if not isinstance(v, bool) and v < 0 else repr(v)


def _literal(code: str) -> Optional[Value]:
    """The value of `code` when it is a literal as `_const` spells one,
    else None."""
    if code == "True" or code == "False":
        return code == "True"
    digits = code[2:-1] if code.startswith("(-") else code
    return int(code.strip("()")) if digits.isdigit() else None


def _atom(code: str) -> bool:
    return code.isidentifier() or _literal(code) is not None


def _positive_literal(e: Expr) -> bool:
    return isinstance(e, Const) and not isinstance(e.value, bool) and e.value > 0


def _guard(code: str, flag: Optional[str]) -> str:
    """`code` where the clock flag `flag` is on, else None."""
    if flag is None:
        return code
    return "None" if flag == "False" else f"{code} if {flag} else None"


# the names whose call may raise: a statement that reads one is live
_RAISING = frozenset(("div", "mod"))


class _Stmt(NamedTuple):
    """One generated statement: its line of code, the names it assigns
    and the names its code reads (`div` or `mod` when it may raise).  A
    call block is its `if` line, whose test reads `reads`, with the
    callee's statements under it (`body`) and, when the caller reads the
    callee's outputs, the statement of its `else` branch."""

    text: str
    targets: Tuple[str, ...]
    reads: List[str]
    body: Optional[List["_Stmt"]] = None
    orelse: Optional["_Stmt"] = None


def _live(stmts: List[_Stmt], roots: List[str]) -> Tuple[Set[int], Set[str]]:
    """The statements that a root name or a statement that may raise
    reads, transitively, by `id`, and every name they read.  A statement
    in a call block also reads the block's test.  The closure is
    flow-insensitive, so a register read before the commit that stores
    it keeps that commit: a fixpoint over the registers that carry
    values across instants."""
    defining: Dict[str, List[Tuple[_Stmt, List[str]]]] = {}
    live: Set[int] = set()
    needed = set(roots)
    blocks = [(stmts, [])]
    while blocks:
        body, tests = blocks.pop()
        for st in body:
            if st.body is not None:
                inner = tests + st.reads
                blocks.append((st.body, inner))
                if st.orelse is not None:
                    blocks.append(([st.orelse], inner))
            elif _RAISING.isdisjoint(st.reads):
                for x in st.targets:
                    defining.setdefault(x, []).append((st, tests))
            else:
                live.add(id(st))
                needed.update(st.reads, tests)
    todo = list(needed)
    while todo:
        # each name is taken once, so a statement is met once per target
        for st, tests in defining.get(todo.pop(), ()):
            live.add(id(st))
            fresh = set(st.reads).union(tests)
            fresh -= needed
            needed |= fresh
            todo += fresh
    return live, needed


def _emit(stmts: List[_Stmt], live: Set[int], indent: str, out: List[str]) -> None:
    """The lines of the live statements, in order; a call block with no
    live statement goes, with its `else`."""
    for st in stmts:
        if st.body is None:
            if id(st) in live:
                out.append(indent + st.text)
            continue
        inner: List[str] = []
        _emit(st.body, live, indent + "    ", inner)
        if inner:
            out.append(indent + st.text)
            out += inner
            if st.orelse is not None and id(st.orelse) in live:
                out += [indent + "else:", indent + "    " + st.orelse.text]


class _Deps(NamedTuple):
    """One node's dependency map, by position in `node.equations`."""

    # every variable the equation reads: each operand, the delayed
    # operand of a `fby` included, each `when`/`merge` variable and the
    # variables of its targets' clocks
    reads: List[Set[str]]
    defining: Dict[str, int]
    # the equations that may raise: a `div`/`mod` whose divisor is not a
    # positive literal, or a call to a node that contains one
    raising: List[int]


class _Cone(NamedTuple):
    """The equations to emit for one node instance, in schedule order,
    and the variables they and the instance's caller read (None when
    the cone is the whole node)."""

    equations: List[AnyEquation]
    needed: Optional[Set[str]]


class _Codegen:
    """Counters and register initialisations shared by every instance
    inlined into one generated function, and the per-node analyses that
    every instance of a node shares."""

    def __init__(self, prog: Program):
        self.prog = prog
        self.counts: Dict[str, int] = {}
        # each delay register and its initial content
        self.registers: Dict[str, str] = {}
        self.deps_of: Dict[str, _Deps] = {}
        self.cones: Dict[Tuple[str, FrozenSet[str]], _Cone] = {}

    def fresh(self, kind: str) -> str:
        n = self.counts.get(kind, 0)
        self.counts[kind] = n + 1
        return f"{kind}{n}"

    def register(self, initial: str) -> str:
        reg = self.fresh("r")
        self.registers[reg] = initial
        return reg

    def raises(self, name: str) -> bool:
        return bool(self.deps(self.prog.node(name)).raising)

    def deps(self, node: Node) -> _Deps:
        d = self.deps_of.get(node.name)
        if d is not None:
            return d
        clocks = clock_env(node)
        d = _Deps([], {}, [])
        for i, eq in enumerate(node.equations):
            raising = False
            if isinstance(eq, Equation):
                reads = set().union(*(fv(clocks[x]) for x in eq.targets))
                todo = list(eq.exprs)
            else:
                reads = fv(eq.clock)
                if isinstance(eq, SimpleEq):
                    todo = [eq.rhs]
                elif isinstance(eq, FbyEq):
                    todo = [eq.init, eq.rhs]
                else:
                    todo = list(eq.args)
                    raising = self.raises(eq.node)
            # one walk over the equation; dispatch on the exact type, as
            # the walk meets every subexpression of every equation
            while todo:
                e = todo.pop()
                t = type(e)
                if t is Var:
                    reads.add(e.name)
                    continue
                if t is Const:
                    continue
                if t is Binop:
                    if e.op in _LITERAL_FMT and not _positive_literal(e.right):
                        raising = True
                elif t is When or t is Merge:
                    reads.add(e.var)
                elif t is NodeCall and not raising:
                    raising = self.raises(e.node)
                todo.extend(children(e))
            d.reads.append(reads)
            d.defining.update((x, i) for x in dv(eq))
            if raising:
                d.raising.append(i)
        self.deps_of[node.name] = d
        return d

    def cone(self, node: Node, wanted: FrozenSet[str]) -> _Cone:
        """The cone of influence of `wanted` in `node`: the backward
        closure, over the dependency map, of the equations that define a
        wanted variable or may raise."""
        key = (node.name, wanted)
        c = self.cones.get(key)
        if c is not None:
            return c
        order = node_schedule(self.prog, node)
        if all(d.name in wanted for d in node.outputs + node.locals):
            c = self.cones[key] = _Cone(order, None)
            return c
        d = self.deps(node)
        needed = set(wanted)
        live = set(d.raising)
        live.update(d.defining[x] for x in wanted if x in d.defining)
        todo = list(live)
        while todo:
            for x in d.reads[todo.pop()]:
                if x not in needed:
                    needed.add(x)
                    i = d.defining.get(x)
                    if i is not None and i not in live:
                        live.add(i)
                        todo.append(i)
        keep = {id(node.equations[i]) for i in live}
        c = self.cones[key] = _Cone([eq for eq in order if id(eq) in keep], needed)
        return c


class _Delay(NamedTuple):
    """A delay's second operand, queued in phase 1 and compiled in phase
    2 into the commits of its registers."""

    regs: List[str]
    rest: Sequence[Expr]
    clock: Optional[Clock]


class _NodeCode:
    """Statements of one instant of one node instance: the entry node,
    or a callee inlined at one call site.  `env` maps each of the node's
    variables to the code that names it; only the equations in the cone
    of the `wanted` variables are emitted.  The variables in `named` (a
    callee's outputs that its caller reads) are always assigned.

    Each statement carries the names its code reads.  They are noted in
    `seen` while the code is built: each variable, register and flag
    code that `use` and `flag` see, each hoisted or called name and each
    `div`/`mod` call.  A statement takes what was noted since its code
    was begun, and a part that no code keeps (a branch that folding
    drops, an operand hoisted into a statement of its own) is cut out."""

    def __init__(
        self,
        gen: _Codegen,
        node: Node,
        env: Dict[str, str],
        wanted: FrozenSet[str],
        named: FrozenSet[str] = frozenset(),
    ):
        self.gen = gen
        self.node = node
        self.env = env
        self.named = named
        self.cone = gen.cone(node, wanted)
        self.flags: Dict[Clock, str] = {}
        self.lines: List[_Stmt] = []  # phase 1
        self.phase2: List[_Stmt] = []
        self.commits: List[_Stmt] = []
        self.queue: List[_Delay] = []
        # the register of each constant delay, by its two literals and
        # its clock flag
        self.shared: Dict[Tuple[str, str, Optional[str]], str] = {}
        # register reads and `div`/`mod` calls emitted so far; a call to
        # `div` or `mod` (a divisor other than a positive literal) is the
        # only code that raises on a well-clocked program
        self.reads = 0
        self.divs = 0
        # the names read by the code of the statement being built
        self.seen: List[str] = []

    def compile(self) -> None:
        """Phase 1 in schedule order, then phase 2 over the queued
        delays, when every variable's code is final.  A delay nested in
        a queued operand joins the end of the queue, so the loop meets
        it too."""
        for eq in self.cone.equations:
            self.equation(eq)
        for regs, rest, ck in self.queue:
            self.seen.clear()
            before = self.reads
            rests = self.all(rest, self.phase2)
            flag = self.flag(ck, self.phase2)
            reading = self.reads != before
            reads = self.seen[:]
            for reg, code in zip(regs, rests):
                self.commit(reg, code, flag, reading, reads)

    def body(self) -> List[_Stmt]:
        self.compile()
        return self.lines + self.phase2 + self.commits

    def cut(self, start: int) -> List[str]:
        """The names noted since `start`, taken out of `seen`."""
        names = self.seen[start:]
        del self.seen[start:]
        return names

    def hoist(self, code: str, flag: Optional[str], reads: List[str], sink: List[_Stmt]) -> str:
        """A statement of its own for `code` where the clock flag `flag`
        is on; `reads` are the names the code and the flag read."""
        name = self.gen.fresh("e")
        reads = [] if flag == "False" else reads
        sink.append(_Stmt(f"{name} = {_guard(code, flag)}", (name,), reads))
        self.seen.append(name)
        return name

    def use(self, code: str) -> str:
        """`code`, read here: noted in `seen`, and counted when it is a
        register."""
        if code in self.gen.registers:
            self.reads += 1
        self.seen.append(code)
        return code

    # -- clocks --

    def flag(self, ck: Optional[Clock], sink: List[_Stmt]) -> Optional[str]:
        """Activity of `ck`: None for the instance's base clock (always
        on where the instance's statements run), `False` for a clock
        that never ticks.  A test on a literal is folded.  In phase 1 a
        derived clock gets a flag at its first use, once the schedule
        has assigned its variable: the variable's code itself when the
        test is that code on the base clock, else a named flag.  In
        phase 2 a clock without a phase-1 flag is tested inline, as
        every variable is assigned by then."""
        ck = ck if ck is not None else BASE
        if isinstance(ck, Base):
            return None
        name = self.flags.get(ck)
        if name is not None:
            return self.use(name)
        start = len(self.seen)
        parent = self.flag(ck.clock, sink)
        if parent == "False":
            return parent
        var = self.use(self.env[ck.var])
        v = _literal(var)
        if v is not None:
            if v == ck.value:
                return parent
            del self.seen[start:]
            return "False"
        test = var if ck.value else f"not {var}"
        code = test if parent is None else f"{parent} and {test}"
        if sink is not self.lines:
            return code if code == var else f"({code})"
        if code != var:
            name = self.gen.fresh("k")
            sink.append(_Stmt(f"{name} = {code}", (name,), self.cut(start)))
            self.seen.append(name)
            code = name
        self.flags[ck] = code
        return code

    # -- expressions: one code string per component stream --
    # `sink` collects hoisted statements (phase-1 lines or phase-2 lines)

    def expr(self, e: Expr, sink: List[_Stmt]) -> List[str]:
        if isinstance(e, Const):
            return [_const(e.value)]
        if isinstance(e, Var):
            return [self.use(self.env[e.name])]
        if isinstance(e, Unop):
            (s,) = self.expr(e.operand, sink)
            v = _literal(s)
            if v is not None:
                return [_const(_UNARY[e.op](v))]
            return [f"(not {s})" if e.op == "not" else _NEG_FMT.format(s)]
        if isinstance(e, Binop):
            (l,) = self.expr(e.left, sink)
            (r,) = self.expr(e.right, sink)
            return [self.binop(e.op, l, r)]
        if isinstance(e, When):
            return self.all(e.exprs, sink)  # operand present whenever active
        if isinstance(e, Merge):
            c = len(self.seen)
            x = self.use(self.env[e.var])
            t = len(self.seen)
            ts = self.all(e.on_true, sink)
            f = len(self.seen)
            fs = self.all(e.on_false, sink)
            return self.choose(x, ts, fs, True, c, t, f)
        if isinstance(e, Ite):
            return self.ite(e, sink)
        if isinstance(e, Fby):
            return self.delay(e.init, e.rest, e.clock, sink)
        if isinstance(e, NodeCall):
            return self.call(e.node, e.args, e.clock, None, sink)
        raise TypeError(type(e))

    def binop(self, op: str, l: str, r: str) -> str:
        a, b = _literal(l), _literal(r)
        # two literals fold through the reference's own operator, except
        # a division by zero, which must still raise at run time
        if a is not None and b is not None and not (op in _LITERAL_FMT and b == 0):
            return _const(_BINARY[op](a, b))
        if op in _LITERAL_FMT:
            if type(b) is int and b > 0:
                return _LITERAL_FMT[op].format(b, l)
            self.divs += 1
            self.seen.append(op)
        return _BIN_FMT[op].format(l, r)

    def all(self, es: Sequence[Expr], sink: List[_Stmt]) -> List[str]:
        out: List[str] = []
        for e in es:
            out.extend(self.expr(e, sink))
        return out

    def choose(
        self, c: str, ts: List[str], fs: List[str], pure: bool, c_at: int, t_at: int, f_at: int
    ) -> List[str]:
        """The codes of `t if c else f` for each pair of branch codes: the
        branch itself when the condition `c` is a literal, or when both
        branches are the same code and `c` cannot raise (`pure`).  The
        names read by `c`, the `ts` and the `fs` were noted in `seen`
        from `c_at`, `t_at` and `f_at` on; those of the parts that no
        code keeps are cut out."""
        v = _literal(c)
        if v is None and not (pure and ts == fs):
            return [t if t == f and pure else f"({t} if {c} else {f})" for t, f in zip(ts, fs)]
        if v is None or v:
            del self.seen[f_at:]
            del self.seen[c_at:t_at]
            return ts
        del self.seen[c_at:f_at]
        return fs

    def ite(self, e: Ite, sink: List[_Stmt]) -> List[str]:
        # the reference evaluates both branches: a branch that can raise
        # is computed on the conditional's clock before the selection
        before = self.divs
        c = len(self.seen)
        (cond,) = self.expr(e.cond, sink)
        pure = self.divs == before
        before = self.divs
        t = len(self.seen)
        ts = self.all(e.on_true, sink)
        f = len(self.seen)
        fs = self.all(e.on_false, sink)
        if self.divs != before:
            clock = len(self.seen)
            flag = self.flag(e.clock, sink)
            clock_reads = self.cut(clock)
            false_reads = self.cut(f) + clock_reads
            true_reads = self.cut(t) + clock_reads
            ts = [self.hoist(code, flag, true_reads, sink) for code in ts]
            f = len(self.seen)
            fs = [self.hoist(code, flag, false_reads, sink) for code in fs]
        return self.choose(cond, ts, fs, pure, c, t, f)

    def read(
        self,
        init: Optional[Expr],
        code: str,
        strict_reads: Optional[List[str]],
        flag: Optional[str],
        sink: List[_Stmt],
    ) -> Tuple[str, str]:
        """A new register for a delay whose first operand `init` compiles
        to `code`, and the code that reads the delay's current value.  A
        constant is the register's initial content.  The reference
        evaluates the first operand at every instant of the delay, so a
        strict one (it can raise) is computed even after the first, by a
        statement that reads `strict_reads`; None when it cannot raise."""
        if isinstance(init, Const):
            reg = self.gen.register(code)
            return reg, reg
        reg = self.gen.register("first")
        if strict_reads is not None:
            code = self.hoist(code, flag, strict_reads, sink)
        return reg, f"({code} if {reg} is first else {reg})"

    def commit(
        self, reg: str, rest: str, flag: Optional[str], reading: bool, reads: List[str]
    ) -> None:
        """Store the delayed operand: straight into the register at the
        end of the instant, or through a phase-2 temporary when `rest`
        reads a register that may be committed before it.  A register
        that keeps its value, or whose clock never ticks, is left as it
        is.  `reads` are the names that `rest` and `flag` read."""
        if rest == reg or flag == "False":
            return
        if not reading:
            text = f"if {flag}: {reg} = {rest}" if flag else f"{reg} = {rest}"
            self.commits.append(_Stmt(text, (reg,), reads))
            return
        t = self.gen.fresh("t")
        if flag:
            self.phase2.append(_Stmt(f"{t} = {rest} if {flag} else {reg}", (t,), reads + [reg]))
        else:
            self.phase2.append(_Stmt(f"{t} = {rest}", (t,), reads))
        self.commits.append(_Stmt(f"{reg} = {t}", (reg,), [t]))

    def delay(
        self, inits: Sequence[Expr], rests: Sequence[Expr], ck: Optional[Clock], sink: List[_Stmt]
    ) -> List[str]:
        """The codes that read a delay's components; their second
        operands are queued for phase 2.  A constant delay (a literal
        first and second operand) is that literal when the two are
        equal; otherwise the constant delays on one clock flag with the
        same two literals share one register."""
        start = len(self.seen)
        flag = self.flag(ck, sink)
        # the commits test the clock again in phase 2
        clock_reads = self.cut(start)
        before = self.divs
        codes = self.all(inits, sink)
        # a first operand that can raise gets a statement of its own
        strict_reads = self.cut(start) + clock_reads if self.divs != before else None
        # one expression per component, unless a call yields several
        n = len(codes)
        firsts = inits if len(inits) == n else (None,) * n
        seconds = rests if len(rests) == n else (None,) * n
        regs: List[str] = []
        queued: List[Expr] = []
        reads: List[str] = []
        for init, code, rest in zip(firsts, codes, seconds):
            if isinstance(init, Const) and isinstance(rest, Const):
                later = _const(rest.value)
                if later == code:
                    reads.append(code)
                    continue
                key = (code, later, flag)
                reg = self.shared.get(key)
                if reg is None:
                    reg = self.shared[key] = self.gen.register(code)
                    regs.append(reg)
                    queued.append(rest)
                read = reg
            else:
                reg, read = self.read(init, code, strict_reads, flag, sink)
                regs.append(reg)
                queued.append(rest)
            self.reads += 1
            self.seen.append(reg)
            reads.append(read)
        if regs:
            self.queue.append(_Delay(regs, queued if len(rests) == n else rests, ck))
        return reads

    def call_targets(self, names: Sequence[str]) -> List[Optional[str]]:
        """The codes of the call targets `names`, None for one that no
        emitted equation reads."""
        needed = self.cone.needed
        return [self.env[x] if needed is None or x in needed else None for x in names]

    def call(
        self,
        name: str,
        args: Sequence[Expr],
        ck: Optional[Clock],
        targets: Optional[List[Optional[str]]],
        sink: List[_Stmt],
    ) -> List[str]:
        """Inline one instant of `name` at this call site; returns the
        codes of its outputs.  `targets` gives the code of each output,
        None for a dead one; without it every output is wanted."""
        callee = self.gen.prog.node(name)
        start = len(self.seen)
        flag = self.flag(ck, sink)
        test = self.cut(start)
        prefix = self.gen.fresh("V")
        names = [d.name for d in callee.outputs]
        if targets is None:
            targets = [_mangle(prefix, x) for x in names]
        outs = [t or _mangle(prefix, x) for t, x in zip(targets, names)]
        live = [t for t in targets if t]
        absent = _Stmt(" = ".join(live) + " = None", tuple(live), []) if live else None
        if flag == "False":  # the callee never runs
            if absent:
                sink.append(absent)
            self.seen += outs
            return outs
        block: List[_Stmt] = []
        env: Dict[str, str] = {}
        inputs = iter(callee.inputs)
        for arg in args:
            start = len(self.seen)
            codes = self.expr(arg, sink)
            reads = self.cut(start)
            for code, d in zip(codes, inputs):
                if _atom(code):
                    env[d.name] = code
                else:
                    env[d.name] = _mangle(prefix, d.name)
                    block.append(_Stmt(f"{env[d.name]} = {code}", (env[d.name],), reads))
        env.update(zip(names, outs))
        env.update((d.name, _mangle(prefix, d.name)) for d in callee.locals)
        wanted = frozenset(x for x, t in zip(names, targets) if t)
        # the caller reads each wanted output by name
        block += _NodeCode(self.gen, callee, env, wanted, wanted).body()
        if flag is None:
            sink.extend(block)
        elif block:
            sink.append(_Stmt(f"if {flag}:", (), test, block, absent))
        self.seen += outs
        return outs

    # -- equations --

    def define(self, x: str, code: str, flag: Optional[str], start: int) -> None:
        """Give `x` its value.  On the instance's base clock, an atom (a
        variable's code, an input, a register or a literal) becomes the
        code of `x` and nothing is emitted, unless the caller reads `x`
        by name.  `code` and `flag` were built from `start` in `seen`."""
        if flag is None and x not in self.named and _atom(code):
            self.env[x] = code
        else:
            target = self.env[x]
            reads = [] if flag == "False" else self.seen[start:]
            self.lines.append(_Stmt(f"{target} = {_guard(code, flag)}", (target,), reads))

    def equation(self, eq: AnyEquation) -> None:
        L = self.lines
        self.seen.clear()
        if isinstance(eq, Equation):
            pos = 0
            for e in eq.exprs:
                w = len(e.types)
                names = eq.targets[pos : pos + w]
                pos += w
                if isinstance(e, NodeCall):
                    self.call(e.node, e.args, e.clock, self.call_targets(names), L)
                    continue
                start = len(self.seen)
                flag = self.flag(e.clock, L)
                for x, code in zip(names, self.expr(e, L)):
                    self.define(x, code, flag, start)
        elif isinstance(eq, SimpleEq):
            flag = self.flag(eq.clock, L)
            (code,) = self.expr(eq.rhs, L)
            self.define(eq.target, code, flag, 0)
        elif isinstance(eq, FbyEq):
            flag = self.flag(eq.clock, L)
            (read,) = self.delay((eq.init,), (eq.rhs,), eq.clock, L)
            self.define(eq.target, read, flag, 0)
        elif isinstance(eq, CallEq):
            self.call(eq.node, eq.args, eq.clock, self.call_targets(eq.targets), L)
        else:
            raise TypeError(type(eq))


class _Run(NamedTuple):
    source: str
    fn: Callable


def _ticks(ck: Clock, env: Dict[str, str]) -> str:
    """Code for whether `ck` ticks at the start of an instant, where only
    the inputs (named in `env`) are present; `b` is the base clock."""
    if isinstance(ck, Base):
        return "b"
    return f"on({_ticks(ck.clock, env)}, {env.get(ck.var, 'None')}, {ck.var!r}, {ck.value!r})"


def _generate(prog: Program, node: Node, want: Tuple[str, ...]) -> _Run:
    gen = _Codegen(prog)
    env = {d.name: _mangle("V", d.name) for d in node.decls}
    inputs = {d.name: k for k, d in enumerate(node.inputs)}
    targets = [env[d.name] for d in node.inputs] + ["b"]
    lines = ["def run(cols, bs, div=int_div, mod=int_mod, first=FIRST):"]
    # an input on a derived clock is checked against it by the
    # reference's rules, before the instant runs
    derived = [d for d in node.inputs if not isinstance(d.clock, Base)]
    in_env = {d.name: env[d.name] for d in node.inputs}
    checks = [f"check({_ticks(d.clock, in_env)}, {env[d.name]}, {d.name!r})" for d in derived]
    # the roots of the entry's cone: the recorded columns, and the clock
    # variables of the inputs declared on a derived clock
    code = _NodeCode(gen, node, env, frozenset(want).union(*(fv(d.clock) for d in derived)))
    code.compile()
    recorded = [x for x in want if x not in inputs]
    # only what the recorded columns and the statements that may raise
    # read, transitively, is emitted
    body = code.lines + code.phase2
    live, needed = _live(body + code.commits, [env[x] for x in recorded])
    appends = [f"a{j}" for j in range(len(recorded))]
    lines += [f"    o{j} = []; a{j} = o{j}.append" for j in range(len(recorded))]
    lines += [f"    {reg} = {initial}" for reg, initial in gen.registers.items() if reg in needed]
    lines.append(f"    for {', '.join(targets)}, in zip(*cols, bs):")
    lines += ["        " + line for line in checks]
    lines.append("        if not b:")
    lines += [f"            {a}(None)" for a in appends]
    lines.append("            continue")
    _emit(body, live, "        ", lines)
    # recorded before the commits, so a column whose code is a register
    # reads this instant's value
    lines += [f"        {a}({env[x]})" for a, x in zip(appends, recorded)]
    _emit(code.commits, live, "        ", lines)
    columns = iter(f"o{j}" for j in range(len(recorded)))
    history = (f"list(cols[{inputs[x]}])" if x in inputs else next(columns) for x in want)
    lines.append("    return {" + ", ".join(f"{x!r}: {h}" for x, h in zip(want, history)) + "}")
    source = "\n".join(lines) + "\n"
    namespace = {
        "int_div": int_div,
        "int_mod": int_mod,
        "FIRST": _FIRST,
        "on": _on,
        "check": _check_input,
    }
    exec(compile(source, f"<compiled {node.name}>", "exec"), namespace)
    # taken out, so that `run` and its globals form no reference cycle
    return _Run(source, namespace.pop("run"))


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
        return gen.fn(inputs, bs)
