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
2017).  Each node instance (the entry node, or a callee inlined at one
call site) compiles its whole schedule, and its caller reads every
output by name, or as a literal where folding knows its value.
Constants are folded once, while the codes are built, and liveness is
the one pruning (see *Liveness*): it runs once, after folding, so a read
that folding drops keeps nothing alive, and only the live statements are
printed.  Layout of the `run` function generated for one entry node and
one set of recorded columns:

  before the loop  every live delay register that a commit stores is a
                   Python local, holding its constant initial value, in
                   order of first use
  per instant      the input columns are zipped with the base clock,
                   which `interp.base_clock` computes before the first
                   instant, when it checks every input against its
                   declared clock; on a base-false instant a row of None
                   is recorded and nothing else happens, otherwise the
                   body runs with the base clock known to be true: each
                   statement runs under its clock's flag, and one on the
                   entry's base clock has no test
  phase 1          clock flags and variable values in schedule order;
                   delays read their register and queue their second
                   operand; a call inlines the callee's phase 1 and
                   phase 2, whose base clock's flag is the call's, and
                   its commits join the instant's
  phase 2          after the last phase-1 equation, when every
                   variable's code is final: the queued second operands
                   in order (a delay nested in one joins the end of the
                   queue), each its register's commit
  record           one row per instant, before the commits, so a column
                   whose code is a register reads this instant's value:
                   the distinct codes of the requested columns as one
                   tuple (a column recorded twice is one element), or
                   one code unboxed, appended to one list through its
                   bound `append`; a column on a derived clock is
                   guarded by its flag, so that it is None where the
                   clock is off (no statement stores None); the record
                   is the one statement with no target
  commits          every live register of every instance stored, in
                   the order below (*Commit order*): the commits
                   whose code or clock test reads a register as one
                   parallel assignment, `rA, rB = (codeA, codeB)`, with
                   a commit under a test as the choice `(code if test
                   else rA)`; then the others, each run under one test
                   under one `if`
  return           the history dict: each recorded column from the
                   transpose of the rows (`zip(*rows)`), or the rows
                   themselves for one code, and a copy of each requested
                   input column

Program variables are mangled into their own namespace while the code
is built: `V_x` in the entry node and `V<k>_x` in the k-th inlined call
site (non-ASCII identifiers are spelt in hex).  Inlining copies a
callee's body once per call site, so the code grows with the number of
paths through the call graph.

The text is canonical up to names: as it is printed (`_Names`), only
the entry node's inputs and recorded columns keep their `V_x`, which
are the same in every program form.  Every other name is numbered
anew, per kind, in order of first use: the registers (`r` and a
number), the other names the generator makes up (`e` and `k`) and
every other program variable, of the entry node or of a callee (`v`).
Each of these starts with a lower-case letter and `V_x` with `V`, so
no program identifier can shadow one.  The registers' initial values
are printed in the order of first use.  So the program forms whose
step code differs only in such names, or in the order in which their
delays were compiled, print one text; the differential campaign
compiles and runs it once (`verify.differential_semantics`).

The step code is built as a small intermediate representation and
printed once, at the end, as Vélus builds Obc and prints C last.  A code
(an expression of the step code) is a literal (`Lit`, which holds its
value), a name (`Name`, which knows whether it is a delay register) or
a template over operand codes (`Op`): an operator, a choice (which
also reads a delay and guards a recorded column by its clock flag) or
a clock flag's test.  Every template parenthesises itself, so a code
nests as an operand as it is.  Each code knows, from when it is built,
the names it reads, whether one of them is a register, whether it calls
`div` or `mod` and how deep it nests.
A statement (`_Stmt`) assigns a code to its targets under an optional
test, its clock's flag, as in Obc; the record is the one statement
without a target.  The statements of every inlined instance form one
flat list, so a statement `x = code` under the test `t` is
`x := ite(t, code, x)`, and the commits of every instance end it.  Two
passes run over the list before it is printed, liveness and re-nesting
(below), and `_emit` prints what they keep, through `_show`, each run
of statements under one test under one `if`; `_commits` puts the
commits in their order first, so each register's next-state term is
one element of the instant's last statement, or one store after it.

A copy costs nothing per instant.  Each variable has one code: an
equation whose code is an atom (a variable's code, an input, a register
or a literal) gives the variable that atom and emits nothing, on any
clock, as a variable is read only where its clock is on, except by the
record, which guards it.  A callee's output is such a variable too:
its caller reads its code, and a register output is read as the
register itself, as nothing is stored before the end of the instant.
Every register starts at a constant.  A delay with a literal first
operand is its register, so the de-nested form's `x = c fby y` is read
from the register itself.  Any other delay is
lowered as `normalise.fby_init` writes it (the initialisation lemma of
NLustre, Bourke et al., PLDI 2017): a register that starts at its
type's default, read through a choice on a first-instant flag (a
`True`-then-`False` register), which selects the first operand; so the
three program forms lower a delay alike.  One rule, at each register's
commit, where its next code is known (`_NodeCode.commit`), decides which
registers are one: a register that keeps its value (or whose clock
never ticks) is its initial literal, and one whose initial literal,
next code and clock flag are an earlier register's, of any instance, is
that register (register equivalence, van Eijk, IEEE TCAD 2000).  So a
delay of two equal literals is that literal, and the first-instant
flags of one clock flag, `xinit` flags included, are one register.  A
clock whose variable's code is a literal is folded: always on, the
parent's flag; never on, `False`, and nothing under it runs: a
variable, a branch hoisted from an `if` and a call's outputs on that
clock are None.

An operator's text is the template of `interp.UNARY_TEMPLATES` or
`BINARY_TEMPLATES`, the table that `interp._UNARY`/`_BINARY` are
compiled from: `+`, `-`, `*` and unary `-` wrap to 64 bits by
`interp.WRAP`, a range test through the scratch local `w`, and any
`div` or `mod` calls `interp.int_div` or `int_mod`, which test for zero.
Wrapping is reduction mod 2**64, which commutes with `+`, `-`, `*` and
negation, so `_show` prints a tree of them from their ring templates
(`interp.RING_UNARY`, `RING_BINARY`) with one range test, at its root:
exact for operands of any size.  To keep the intermediate integers
small, a static bound on the tree's unwrapped value (63 bits for a
64-bit operand, the bits of a literal, one more per `+` or `-`, the sum
for `*`) stays within `_RING_BITS`, 128; past it, the widest inner tree
keeps its own test (`_ring`).
Only a `div` or `mod` by a positive integer literal (all the generator's
divisions) has a text of its own (`_LITERAL_FMT`): an inline floor
operation with the sign fixed up, through the scratch local `q`.  The
step code is kept on the program object (`Program.memo`), so every
`CompiledProgram` of one program generates each (entry node, columns)
pair once, and Python compiles it at its first run
(`CompiledProgram.source` prints it without compiling it).

Constants are folded in the generated code only; the program, its
signatures and the reference engine see it as written.  An operator
whose operand codes are literals (`Lit`) is replaced by its value,
computed by the reference's own `interp._BINARY`/`_UNARY`, except a
`div`/`mod` by 0, which must still raise at run time (`_make`).  An
`and`, `or` or `xor` with one literal operand is folded by its identity
(`x and true`, `x or false` and `x xor false` are `x`) or, when the
other operand cannot raise, by its zero (`x and false` is `false`, `x or
true` is `true`).  An
`if` whose condition is a literal is its branch, after any branch that
can raise has been hoisted as usual; so is a `merge` whose variable's
code is a literal.  Equal branch codes collapse when the condition
cannot raise.  A branch that folding drops is not in the tree, so what
it reads, or whether it raises, decides nothing.  Every literal reaches
its readers as the codes are built, but one: a register that no commit
stores is known to be a literal, or another register, only when its
commit is compiled.  Before liveness, one walk over the statements
replaces each read of it by that code and folds the codes again
(`_constants`); a value that folds to an atom is then that atom, as when
the codes are built, so the literal reaches every reader.  The recorded
columns are read through it too before the row keeps their distinct
codes.

Liveness.  A statement that nothing live reads is not printed.  A
statement reads the names that its code and its test read.  `_live`
closes backward over the statements from the record and from every
statement whose code may raise (it calls `div` or `mod`), so leaving out
the rest removes no `EvalError`.  The closure is flow-insensitive, so a
register that phase 1 reads keeps the commit that stores it at the end
of the instant, and a register nothing live reads loses its commit and
its initialisation.  A call whose outputs nothing live reads and that
cannot raise leaves no code.

Re-nesting.  De-nesting names every subexpression; `_renest` nests
each value read once back into its reader, so a name costs no store and
no load per instant.  A live statement that cannot raise and assigns
one name (not a register), which exactly one live statement reads,
once, later in the list, is substituted into that reader's code or
test, and goes.  A value under a test goes only into a reader under the
same test, which runs where it ran.  No register is stored before the
commits, and the commits that read a register are one parallel
assignment, so a value that reads a register reads the same wherever it
moves.  It stays where its reader would nest deeper than `_MAX_DEPTH`
codes, so the generated function always compiles.  Each reader is
rebuilt through `_make`, so a choice whose branches become equal by
re-nesting folds as it would have when the codes were built; a value
whose one read such a fold drops goes too (it cannot raise).  What
liveness kept otherwise stays live.  The pass is one walk over the
statements, in order.

Commit order.  The commits are ordered once the rest of the loop is
printed, not by the order in which the delays were compiled.  First
come those of the registers that the loop reads, in the order of their
first use in its text (`_Names`).  The registers that only the commits
read follow breadth-first: each commit in that order brings in, after
the last, the commits of the registers that its code and test read, in
the order they read them.  A register that nothing reads keeps its
commit only when it may raise; such commits come last, each followed
by the walk from it, in the order of compilation.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, count, islice, repeat
from operator import attrgetter, not_
from typing import (
    Callable,
    Dict,
    Iterator,
    KeysView,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

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
)
from seclus.interp import (
    _BINARY,
    _UNARY,
    BINARY_TEMPLATES,
    RING_BINARY,
    RING_UNARY,
    UNARY_TEMPLATES,
    WRAP,
    History,
    StreamPrefix,
    Value,
    base_clock,
    call_cone,
    columns,
    int_div,
    int_mod,
    node_schedule,
)
from seclus.normalise import _DEFAULT

# -- the step code's expressions --


class Lit(NamedTuple):
    """A literal code: its value and its spelling (see `_lit`)."""

    value: Optional[Value]
    text: str
    reads = ()
    raises = False
    stateful = False
    depth = 0


class Name(NamedTuple):
    """A name code: a program variable, an input, a delay register
    (`stateful`) or a value the generator named."""

    text: str
    reads: Tuple[str, ...]
    stateful: bool = False
    raises = False
    depth = 0


class Op(NamedTuple):
    """A template `fmt` over the operand codes `args` ({0}, {1}, ...), with
    the names they read, whether one reads a register (`stateful`),
    whether the code calls `div` or `mod` (`raises`) and how many codes
    deep it nests (`depth`)."""

    fmt: str
    args: Tuple["Code", ...]
    reads: Tuple[str, ...]
    raises: bool
    stateful: bool
    depth: int


Code = Union[Lit, Name, Op]


def _lit(v: Optional[Value]) -> Lit:
    return Lit(v, f"({v!r})" if type(v) is int and v < 0 else repr(v))


def _name(text: str, register: bool = False) -> Name:
    return Name(text, (text,), register)


def _op(fmt: str, *args: Code) -> Op:
    reads: Tuple[str, ...] = ()
    raises = fmt in _CALLS
    stateful = False
    depth = 0
    for a in args:
        reads += a.reads
        raises = raises or a.raises
        stateful = stateful or a.stateful
        if a.depth > depth:
            depth = a.depth
    return Op(fmt, args, reads, raises, stateful, depth + 1)


def _make(fmt: str, *args: Code) -> Code:
    """`fmt` over `args`, folded when literal operands decide it: an
    operator over literals (computed by the reference's own `interp`
    functions, except a division by 0, which must still raise at run
    time), or a choice whose condition is a literal."""
    fold = _FOLDS.get(fmt)
    code = fold(args) if fold is not None else None
    return _op(fmt, *args) if code is None else code


def _show(code: Code, names: "_Names") -> str:
    """The Python text of `code`, its names spelt by `names`.  A tree of
    ring operators is wrapped once, at its root (see `_ring`)."""
    if type(code) is not Op:
        return names[code.text] if type(code) is Name else code.text
    if code.fmt in _RING:
        return WRAP.format(_ring(code, names)[0])
    return code.fmt.format(*map(_show, code.args, repeat(names)))


def _ring(code: Op, names: "_Names") -> Tuple[str, int]:
    """The text of the ring operator `code` before wrapping, and a bound
    `bits` on its value, |v| <= 2**bits, where a 64-bit value has 63
    bits.  An operand that is itself a ring operator is left unwrapped
    too, unless that takes the bound past `_RING_BITS`: then the widest
    such operand is wrapped, until the bound fits."""
    texts: List[str] = []
    bits: List[int] = []
    open_: List[bool] = []
    for a in code.args:
        ring = type(a) is Op and a.fmt in _RING
        if ring:
            text, b = _ring(a, names)
        else:
            text, b = _show(a, names), abs(a.value).bit_length() if type(a) is Lit else 63
        texts.append(text)
        bits.append(b)
        open_.append(ring)
    times = code.fmt == _TIMES
    while (bound := sum(bits) if times else max(bits) + len(bits) - 1) > _RING_BITS:
        k = max((i for i, o in enumerate(open_) if o), key=bits.__getitem__)
        texts[k], bits[k], open_[k] = WRAP.format(texts[k]), 63, False
    return _RING[code.fmt].format(*(f"({t})" if o else t for t, o in zip(texts, open_))), bound


class _Names(dict):
    """The spelling of each name of the step code, given at its first use
    in the printed text.  An entry input or a recorded column (`keep`)
    keeps its own, `V_x`.  Every other name is numbered anew, per kind,
    in order of first use: a name the generator made up keeps its kind,
    `r`, `e` or `k`, and any other program variable, of the entry node or
    of an inlined callee, is of the kind `v`.  So two step codes equal up
    to these names print one text."""

    def __init__(self, keep: Set[str]) -> None:
        super().__init__()
        self.keep = keep
        self.counts: Dict[str, int] = {}
        # each register, by its name and its new name, in order
        self.registers: List[Tuple[str, str]] = []

    def __missing__(self, text: str) -> str:
        if text in self.keep:
            new = text
        else:
            # a made-up name starts with its kind, a program variable
            # with `V`
            kind = text[0] if text[0] != "V" else "v"
            n = self.counts.get(kind, 0)
            self.counts[kind] = n + 1
            new = f"{kind}{n}"
            if kind == "r":
                self.registers.append((text, new))
        self[text] = new
        return new


_NONE = _lit(None)
# the flag of a clock that never ticks
_NEVER = _lit(False)
# the two operands of a clock's first-instant flag, `true fby false`
_TRUE = _lit(True)
_FALSE = _lit(False)
# by value type, the initial value of a delay's register when its first
# operand is not a literal: never read, the type's default, as in
# `normalise.fby_init`
_DEFAULTS = {t: _lit(v) for t, v in _DEFAULT.items()}
# the templates of the compiled engine's own codes, each parenthesised
# so that it nests as an operand: a choice `t if c else f` ({0} if {1}
# else {2}), which also reads a delay and guards a recorded column by
# its clock flag; and the tests of a clock flag
_CHOICE = "({0} if {1} else {2})"
_NOT = "(not {0})"
_AND = "({0} and {1})"
# `div`/`mod` by a positive literal {0} of the dividend {1}, rounded
# toward zero: it cannot raise, nor leave the 64-bit integers
_LITERAL_FMT = {
    "div": "(q // {0} if (q := {1}) >= 0 else -(-q // {0}))",
    "mod": "(q % {0} if (q := {1}) >= 0 else -(-q % {0}))",
}
# the templates that call `div` or `mod`, which raise on a zero divisor
_CALLS = frozenset((BINARY_TEMPLATES["div"], BINARY_TEMPLATES["mod"]))
# each ring operator's wrapped template, and its text before wrapping
_RING = {UNARY_TEMPLATES[op]: t for op, t in RING_UNARY.items()}
_RING.update((BINARY_TEMPLATES[op], t) for op, t in RING_BINARY.items())
_TIMES = BINARY_TEMPLATES["*"]
# the bound, in bits, on the unwrapped value of a tree of ring operators
_RING_BITS = 128


def _operator(f: Callable, division: bool = False) -> Callable:
    def fold(args: Tuple[Code, ...]) -> Optional[Code]:
        for a in args:
            if type(a) is not Lit or a.value is None:
                return None
        vs = [a.value for a in args]
        return None if division and vs[1] == 0 else _lit(f(*vs))

    return fold


def _boolean(f: Callable, unit: bool, zero: Optional[bool]) -> Callable:
    """The fold of `and`, `or` or `xor` (`f`): on literals, and on one
    literal operand, in either order: `x` with `unit` is `x`, and with
    `zero` (`xor` has none) is `zero` when `x` cannot raise.  A None
    literal, on a clock that never ticks, folds nothing."""
    literals = _operator(f)

    def fold(args: Tuple[Code, ...]) -> Optional[Code]:
        code = literals(args)
        if code is not None:
            return code
        for x, y in (args, args[::-1]):
            if type(y) is Lit and y.value is not None:
                if y.value is unit:
                    return x
                if y.value is zero and not x.raises:
                    return y
        return None

    return fold


def _choice(args: Tuple[Code, ...]) -> Optional[Code]:
    t, c, f = args
    if type(c) is Lit:
        return t if c.value else f
    return t if t == f and not c.raises else None


_FOLDS: Dict[str, Callable[[Tuple[Code, ...]], Optional[Code]]] = {
    **{t: _operator(_UNARY[op]) for op, t in UNARY_TEMPLATES.items()},
    **{t: _operator(_BINARY[op], op in _LITERAL_FMT) for op, t in BINARY_TEMPLATES.items()},
    **{t: _operator(lambda d, x, f=_BINARY[op]: f(x, d)) for op, t in _LITERAL_FMT.items()},
    **{
        BINARY_TEMPLATES[op]: _boolean(_BINARY[op], unit, zero)
        for op, unit, zero in (("and", True, False), ("or", False, True), ("xor", False, None))
    },
    _CHOICE: _choice,
}


def _mangle(prefix: str, name: str) -> Name:
    # the lexer's ASCII identifiers keep their spelling; any other is
    # spelt in hex, so no two names meet under Python's NFKC folding
    return _name(f"{prefix}_{name}" if name.isascii() else f"{prefix}x{name.encode().hex()}")


def _guard(code: Code, flag: Optional[Code]) -> Code:
    """`code` where the clock flag `flag` is on, else None: a recorded
    column's element."""
    return code if flag is None else _make(_CHOICE, code, flag, _NONE)


# -- statements --


class _Stmt:
    """One statement: `targets = code`, run only where the clock flag
    `test` is on when it is set.  The record of the instant's row `code`
    is the one statement without a target, and the parallel assignment
    of the commits that read a register (`_commits`) the one with
    several, whose code is a tuple.  `reads` are the names that its code
    and its test read."""

    __slots__ = ("targets", "code", "test", "reads")

    def __init__(self, targets: Tuple[str, ...], code: Code, test: Optional[Code] = None):
        self.targets = targets
        self.code = code
        self.test = test
        self.reads: Tuple[str, ...] = code.reads if test is None else code.reads + test.reads


def _assign(target: Name, code: Code, test: Optional[Code] = None) -> _Stmt:
    return _Stmt((target.text,), code, test)


def _live(stmts: List[_Stmt]) -> Set[int]:
    """The statements that a root (the record, or a statement that may
    raise) reads, transitively, by `id`.  The closure is
    flow-insensitive, so a register read before the commit that stores
    it keeps that commit: a fixpoint over the registers that carry values
    across instants."""
    defining: Dict[str, List[_Stmt]] = {}
    live: Set[int] = set()
    needed: Set[str] = set()
    for st in stmts:
        if st.code.raises or not st.targets:
            live.add(id(st))
            needed.update(st.reads)
        else:
            for x in st.targets:
                defining.setdefault(x, []).append(st)
    todo = list(needed)
    while todo:
        # each name is taken once, so a statement is met once per target
        for st in defining.get(todo.pop(), ()):
            live.add(id(st))
            fresh = set(st.reads)
            fresh -= needed
            needed |= fresh
            todo += fresh
    return live


# the deepest code that re-nesting builds: each level of code adds at
# most two parentheses, far below the parser's limit of 200
_MAX_DEPTH = 24


def _renest(stmts: List[_Stmt], registers: Dict[str, Code]) -> List[_Stmt]:
    """The live statements `stmts`, each single-use value nested back
    into its reader, in one walk.  A statement that cannot raise and
    assigns one name (not a register), which one statement reads, once,
    later in the list, is substituted into that reader and goes; a value
    under a test, only into a reader under the same test.  It stays when
    its reader would nest deeper than `_MAX_DEPTH`.  No register is
    stored before the commits, so a value reads the same wherever it
    moves."""
    uses = Counter(x for st in stmts for x in st.reads)
    out: List[Optional[_Stmt]] = []
    # each single-use value not yet read, by its index in `out`
    pending: Dict[str, int] = {}
    for st in stmts:
        code, test = st.code, st.test
        reads = st.reads
        for x in reads if pending and not pending.keys().isdisjoint(reads) else ():
            if x not in pending:
                continue
            j = pending.pop(x)
            if x not in code.reads and (test is None or x not in test.reads):
                # a value substituted before folded its read away; this
                # one cannot raise, so it goes
                out[j] = None
                continue
            value = out[j]
            if value.test is not None and value.test != test:
                continue
            in_code = x in code.reads
            new = _substitute(code if in_code else test, {x: value.code})
            if new.depth > _MAX_DEPTH:
                continue
            if in_code:
                code = new
            else:
                test = new
            out[j] = None
        if code is not st.code or test is not st.test:
            st = _Stmt(st.targets, code, test)
        out.append(st)
        if len(st.targets) == 1 and not code.raises:
            (x,) = st.targets
            if uses[x] == 1 and x not in registers:
                pending[x] = len(out) - 1
    return [st for st in out if st is not None]


def _tuple(width: int) -> str:
    """The template of a tuple of `width` codes, two or more."""
    return "(" + ", ".join(f"{{{j}}}" for j in range(width)) + ")"


def _emit(stmts: List[_Stmt], names: _Names) -> List[str]:
    """The lines of the loop body: `stmts` in order, each run of them
    under one test under one `if`, and the record as `row(...)`."""
    out: List[str] = []
    test: Optional[Code] = None
    for st in stmts:
        if st.test != test:
            test = st.test
            if test is not None:
                out.append(f"        if {_show(test, names)}:")
        if st.targets:
            text = ", ".join(map(names.__getitem__, st.targets)) + " = " + _show(st.code, names)
        else:
            text = f"row({_show(st.code, names)})"
        out.append(("        " if test is None else "            ") + text)
    return out


def _commits(commits: List[_Stmt], names: _Names) -> List[_Stmt]:
    """The commits that end the instant: first those of the registers
    that the text printed so far (`names`) reads, in the order of their
    first use; then the others, breadth-first from the registers that
    the commits before them read, in the order they read them (those
    that nothing reads, in the order of compilation).  The commits whose
    code or test reads a register are one parallel assignment, whose
    right side Python evaluates before it stores anything; each under a
    test is a choice between its code and its register.  The others
    follow, each run under one test together."""
    # liveness keeps the commit of every register that the text reads,
    # so these are the first `n`; the others keep the order of
    # compilation until the walk reaches them
    first = {x: k for k, (x, _) in enumerate(names.registers)}
    n = len(first)
    order = sorted(commits, key=lambda st: first.get(st.targets[0], n))
    if len(order) > n:
        rest = {st.targets[0]: st for st in order[n:]}
        del order[n:]
        k = 0
        while rest:
            for j in _readers(order, rest.keys(), k):
                order += map(rest.pop, filter(rest.__contains__, order[j].reads))
            k = len(order)
            if rest:
                # a register that nothing walked so far reads
                order.append(rest.pop(next(iter(rest))))
    reading: List[_Stmt] = []
    runs: Dict[Optional[Code], List[_Stmt]] = {}
    for st in order:
        if st.code.stateful or st.test is not None and st.test.stateful:
            reading.append(st)
        else:
            runs.setdefault(st.test, []).append(st)
    out = [st for run in runs.values() for st in run]
    if len(reading) < 2:
        return reading + out
    codes = [
        st.code if st.test is None else _op(_CHOICE, st.code, st.test, _name(st.targets[0], True))
        for st in reading
    ]
    targets = tuple(st.targets[0] for st in reading)
    return [_Stmt(targets, _op(_tuple(len(codes)), *codes))] + out


def _substitute(code: Code, known: Dict[str, Code]) -> Code:
    """`code` with each read of a name in `known` replaced by that name's
    code, folded where the new codes decide it."""
    if type(code) is Name:
        return known.get(code.text, code)
    if type(code) is Lit or known.keys().isdisjoint(code.reads):
        return code
    return _make(code.fmt, *map(_substitute, code.args, repeat(known)))


def _constants(stmts: List[_Stmt], known: Dict[str, Code], registers: Dict[str, Code]) -> List[_Stmt]:
    """`stmts` with each register that no commit stores read as the code
    that `known` (which this extends) gives it, its initial literal or an
    equal register that a commit stores, in one walk: a value that this
    folds to an atom (not a register's commit) is gone, and the
    statements after it read that atom, as when the codes are built."""
    out: List[Optional[_Stmt]] = list(stmts)
    gone = False
    for k in _readers(stmts, known.keys()):
        st = stmts[k]
        code = _substitute(st.code, known)
        if type(code) is not Op and st.targets and st.targets[0] not in registers:
            (x,) = st.targets
            known[x] = code
            out[k] = None
            gone = True
        else:
            out[k] = _Stmt(st.targets, code, None if st.test is None else _substitute(st.test, known))
    return [st for st in out if st is not None] if gone else out


_READS = attrgetter("reads")


def _readers(stmts: List[_Stmt], names: KeysView, start: int = 0) -> Iterator[int]:
    """The indices, from `start` on, of the statements in `stmts` that
    read one of `names`, the live view of a dict's keys.  Each statement
    is tested when the scan reaches it, so a statement appended to
    `stmts`, or a name added to the dict, before then counts."""
    reads = map(_READS, islice(stmts, start, None))
    return compress(count(start), map(not_, map(names.isdisjoint, reads)))


class _Codegen:
    """Counters, register initialisations and the registers that are one,
    shared by every instance inlined into one generated function."""

    def __init__(self, prog: Program):
        self.prog = prog
        self.counts: Dict[str, int] = {}
        # each delay register and its initial content
        self.registers: Dict[str, Code] = {}
        # each register that no commit stores, and the code it is read
        # as: its initial literal, or an earlier register equal to it
        self.constants: Dict[str, Code] = {}
        # each stored register, by its initial literal, its commit's code
        # and its clock flag
        self.shared: Dict[Tuple[Code, Code, Optional[Code]], Name] = {}
        # every instance's commits, stored at the end of the instant
        self.commits: List[_Stmt] = []

    def fresh(self, kind: str) -> str:
        n = self.counts.get(kind, 0)
        self.counts[kind] = n + 1
        return f"{kind}{n}"

    def name(self, kind: str) -> Name:
        return _name(self.fresh(kind))

    def register(self, initial: Code) -> Name:
        reg = self.fresh("r")
        self.registers[reg] = initial
        return _name(reg, register=True)


class _Delay(NamedTuple):
    """A delay's second operand, queued in phase 1 and compiled in phase
    2 into the commits of its registers."""

    regs: List[Name]
    rest: Sequence[Expr]
    clock: Optional[Clock]


class _NodeCode:
    """Statements of one instant of one node instance: the entry node,
    or a callee inlined at one call site.  Each statement runs under the
    flag of its clock; `base` is the flag of the instance's base clock:
    its call's flag for a callee, None for the entry node, whose
    statements run only where the base clock is on.  `env` maps each of
    the node's variables to the code that names it, a `Name` or a `Lit`.
    Every equation is compiled; liveness later drops what nothing reads.
    The instance's statements are its phase 1 and phase 2 (`body`); its
    commits join the instant's, `gen.commits`, which end the instant."""

    def __init__(
        self,
        gen: _Codegen,
        node: Node,
        env: Dict[str, Code],
        base: Optional[Code] = None,
    ):
        self.gen = gen
        self.node = node
        self.env = env
        self.base = base
        self.flags: Dict[Clock, Code] = {}
        self.lines: List[_Stmt] = []  # phase 1
        self.phase2: List[_Stmt] = []
        self.queue: List[_Delay] = []

    def compile(self) -> None:
        """Phase 1 in schedule order, then phase 2 over the queued
        delays, when every variable's code is final.  A delay nested in
        a queued operand joins the end of the queue, so the loop meets
        it too."""
        for eq in node_schedule(self.gen.prog, self.node):
            self.equation(eq)
        for regs, rest, ck in self.queue:
            rests = self.all(rest, self.phase2)
            flag = self.flag(ck, self.phase2)
            for reg, code in zip(regs, rests):
                self.commit(reg, code, flag)

    def body(self) -> List[_Stmt]:
        self.compile()
        return self.lines + self.phase2

    def hoist(self, code: Code, flag: Optional[Code], sink: List[_Stmt]) -> Code:
        """The value of `code` where the clock flag `flag` is on: None on
        a clock that never ticks, `code` itself when it cannot raise, else
        a name for a statement of its own under `flag`, which computes it
        even where no reader reads it."""
        if flag is _NEVER:
            return _NONE
        if not code.raises:
            return code
        name = self.gen.name("e")
        sink.append(_assign(name, code, flag))
        return name

    # -- clocks --

    def flag(self, ck: Optional[Clock], sink: List[_Stmt]) -> Optional[Code]:
        """Activity of `ck`: `base` for the instance's base clock (None
        for the entry node's, on wherever a statement runs), `_NEVER`
        for a clock that never ticks.  A test on a literal is folded.  In
        phase 1 a derived clock gets a flag at its first use, once the
        schedule has assigned its variable: the variable's code itself
        when the test is that code on the entry's base clock, else a
        named flag, which tests its parent's flag first.  In phase 2 a
        clock without a phase-1 flag is tested inline, as every variable
        is assigned by then."""
        ck = ck if ck is not None else BASE
        if isinstance(ck, Base):
            return self.base
        code = self.flags.get(ck)
        if code is not None:
            return code
        parent = self.flag(ck.clock, sink)
        if parent is _NEVER:
            return parent
        var = self.env[ck.var]
        if type(var) is Lit:
            return parent if var.value == ck.value else _NEVER
        test = var if ck.value else _op(_NOT, var)
        code = test if parent is None else _op(_AND, parent, test)
        if sink is not self.lines:
            return code
        if code is not var:
            name = self.gen.name("k")
            sink.append(_assign(name, code))
            code = name
        self.flags[ck] = code
        return code

    # -- expressions: one code per component stream --
    # `sink` collects hoisted statements (phase-1 lines or phase-2 lines)

    def expr(self, e: Expr, sink: List[_Stmt]) -> List[Code]:
        if isinstance(e, Const):
            return [_lit(e.value)]
        if isinstance(e, Var):
            return [self.env[e.name]]
        if isinstance(e, Unop):
            (s,) = self.expr(e.operand, sink)
            return [_make(UNARY_TEMPLATES[e.op], s)]
        if isinstance(e, Binop):
            (l,) = self.expr(e.left, sink)
            (r,) = self.expr(e.right, sink)
            return [self.binop(e.op, l, r)]
        if isinstance(e, When):
            # the reference evaluates the operand on its own clock: one
            # that can raise is computed there, before the sampling
            codes = self.all(e.exprs, sink)
            if any(code.raises for code in codes):
                flag = self.flag(e.clock.clock, sink)
                codes = [self.hoist(code, flag, sink) for code in codes]
            return codes
        if isinstance(e, Merge):
            x = self.env[e.var]
            ts = self.all(e.on_true, sink)
            return self.choose(x, ts, self.all(e.on_false, sink))
        if isinstance(e, Ite):
            return self.ite(e, sink)
        if isinstance(e, Fby):
            return self.delay(e.init, e.rest, e.clock, sink)
        if isinstance(e, NodeCall):
            return self.call(e.node, e.args, e.clock, None, sink)
        raise TypeError(type(e))

    def binop(self, op: str, l: Code, r: Code) -> Code:
        if op in _LITERAL_FMT and type(r) is Lit and r.value > 0:
            return _make(_LITERAL_FMT[op], r, l)
        return _make(BINARY_TEMPLATES[op], l, r)

    def all(self, es: Sequence[Expr], sink: List[_Stmt]) -> List[Code]:
        out: List[Code] = []
        for e in es:
            out += self.expr(e, sink)
        return out

    def choose(self, c: Code, ts: List[Code], fs: List[Code]) -> List[Code]:
        """The codes of `t if c else f` for each pair of branch codes,
        folded by `_choice`."""
        return [_make(_CHOICE, t, c, f) for t, f in zip(ts, fs)]

    def ite(self, e: Ite, sink: List[_Stmt]) -> List[Code]:
        # the reference evaluates both branches: a branch that can raise
        # is computed on the conditional's clock before the selection
        (cond,) = self.expr(e.cond, sink)
        ts = self.all(e.on_true, sink)
        fs = self.all(e.on_false, sink)
        if any(code.raises for code in ts + fs):
            flag = self.flag(e.clock, sink)
            ts = [self.hoist(code, flag, sink) for code in ts]
            fs = [self.hoist(code, flag, sink) for code in fs]
        return self.choose(cond, ts, fs)

    def commit(self, reg: Name, rest: Code, flag: Optional[Code]) -> None:
        """Store the delayed operand `rest` into the register `reg` at the
        end of the instant, where the clock flag `flag` is on.  A
        register that keeps its value (`rest` is the register, or its
        initial literal), or whose clock never ticks, is that literal; a
        register whose initial literal, `rest` and `flag` are an earlier
        register's, of any instance, is that register: the two hold one
        value at every instant.  Neither is stored."""
        gen = self.gen
        initial = gen.registers[reg.text]
        if rest == reg or rest == initial or flag is _NEVER:
            gen.constants[reg.text] = initial
        elif (same := gen.shared.setdefault((initial, rest, flag), reg)) != reg:
            gen.constants[reg.text] = same
        else:
            gen.commits.append(_assign(reg, rest, flag))

    def delay(
        self, inits: Sequence[Expr], rests: Sequence[Expr], ck: Optional[Clock], sink: List[_Stmt]
    ) -> List[Code]:
        """The codes that read a delay's components; their second
        operands are queued for phase 2.  A component whose first
        operand is a literal reads its register, which holds that
        literal at first.  Any other is lowered as `normalise.fby_init`
        lowers it: a register that holds its type's default at first,
        read through a choice on a `true fby false` register, committed
        at once, which selects the first operand at the first instant.
        The reference evaluates the first operand at every instant of
        the delay, so a strict one (it can raise) is computed even after
        the first, by a statement of its own."""
        flag = self.flag(ck, sink)
        codes = self.all(inits, sink)
        strict = any(code.raises for code in codes)
        # one expression per component, unless a call yields several
        firsts = inits if len(inits) == len(codes) else (None,) * len(codes)
        regs: List[Name] = []
        reads: List[Code] = []
        for k, (init, code) in enumerate(zip(firsts, codes)):
            if isinstance(init, Const):
                reg = self.gen.register(code)
                reads.append(reg)
            else:
                at_first = self.gen.register(_TRUE)
                self.commit(at_first, _FALSE, flag)
                # the value type of the component, whose default it holds
                vt = init.types[0] if init is not None else [t for e in inits for t in e.types][k]
                reg = self.gen.register(_DEFAULTS[vt])
                code = self.hoist(code, flag, sink) if strict else code
                # `at_first` is a register, so the choice does not fold
                reads.append(_op(_CHOICE, code, at_first, reg))
            regs.append(reg)
        self.queue.append(_Delay(regs, rests, ck))
        return reads

    def call(
        self,
        name: str,
        args: Sequence[Expr],
        ck: Optional[Clock],
        targets: Optional[List[Code]],
        sink: List[_Stmt],
    ) -> List[Code]:
        """Inline one instant of `name` at this call site: the callee is
        an instance whose base flag is the call's, so its argument
        stores (after every argument is built) and its phase 1 and
        phase 2 join `sink` under that flag, and its commits the
        instant's.  Returns the codes of its outputs: an output whose
        code is an atom (a literal, a register, an input or a variable's
        code) is that atom, any other its name (the caller's `targets`,
        or names of their own for a call in expression position).  On a
        clock that never ticks nothing runs and every output is None."""
        callee = self.gen.prog.node(name)
        flag = self.flag(ck, sink)
        names = [d.name for d in callee.outputs]
        if flag is _NEVER:
            return [_NONE] * len(names)
        prefix = self.gen.fresh("V")
        env: Dict[str, Code] = {}
        stores: List[_Stmt] = []
        inputs = iter(callee.inputs)
        for arg in args:
            for code, d in zip(self.expr(arg, sink), inputs):
                if type(code) is Op:
                    env[d.name] = _mangle(prefix, d.name)
                    stores.append(_assign(env[d.name], code, flag))
                else:
                    env[d.name] = code
        sink += stores
        env.update(zip(names, targets or [_mangle(prefix, x) for x in names]))
        env.update((d.name, _mangle(prefix, d.name)) for d in callee.locals)
        sink += _NodeCode(self.gen, callee, env, flag).body()
        return [env[x] for x in names]

    # -- equations --

    def define(self, x: str, code: Code, flag: Optional[Code]) -> None:
        """Give `x` its value where its clock flag `flag` is on.  An atom
        (a variable's code, an input, a register or a literal) becomes
        the code of `x` and nothing is emitted; any other code is
        assigned to the name of `x` under `flag`.  On a clock that never ticks,
        `x` is None."""
        if flag is _NEVER:
            code = _NONE
        if type(code) is Op:
            self.lines.append(_assign(self.env[x], code, flag))
        else:
            self.env[x] = code

    def equation(self, eq: AnyEquation) -> None:
        L = self.lines
        if isinstance(eq, Equation):
            pos = 0
            for e in eq.exprs:
                w = len(e.types)
                names = eq.targets[pos : pos + w]
                pos += w
                if isinstance(e, NodeCall):
                    outs = self.call(e.node, e.args, e.clock, [self.env[x] for x in names], L)
                    self.env.update(zip(names, outs))
                    continue
                flag = self.flag(e.clock, L)
                for x, code in zip(names, self.expr(e, L)):
                    self.define(x, code, flag)
        elif isinstance(eq, SimpleEq):
            flag = self.flag(eq.clock, L)
            (code,) = self.expr(eq.rhs, L)
            self.define(eq.target, code, flag)
        elif isinstance(eq, FbyEq):
            flag = self.flag(eq.clock, L)
            (read,) = self.delay((eq.init,), (eq.rhs,), eq.clock, L)
            self.define(eq.target, read, flag)
        elif isinstance(eq, CallEq):
            outs = self.call(eq.node, eq.args, eq.clock, [self.env[x] for x in eq.targets], L)
            self.env.update(zip(eq.targets, outs))
        else:
            raise TypeError(type(eq))


class _Run:
    """The step code of one entry node and set of recorded columns: its
    text, the spelling in it of each name of the step code (`names`,
    by the generator's own name) and the function `run` that Python
    compiles from the text at its first use (`fn`)."""

    __slots__ = ("node", "source", "names", "_fn")

    def __init__(self, node: Node, source: str, names: Dict[str, str]):
        self.node = node
        self.source = source
        self.names = names
        self._fn: Optional[Callable] = None

    @property
    def fn(self) -> Callable:
        if self._fn is None:
            namespace = {"int_div": int_div, "int_mod": int_mod}
            exec(compile(self.source, f"<compiled {self.node.name}>", "exec"), namespace)
            # taken out, so that `run` and its globals form no reference cycle
            self._fn = namespace.pop("run")
        return self._fn


def _generate(prog: Program, node: Node, want: Tuple[str, ...]) -> _Run:
    if not any(n is node for n in prog.nodes):
        # the schedule is `prog`'s own, by identity
        raise ValueError(f"node {node.name!r} is not one of this program object's nodes")
    # every node of the call cone scheduled, in the order the reference
    # engine prepares them, and the entry checked against the instance
    # limit, then the columns resolved, before any code is built, as
    # the reference engine resolves a run
    call_cone(prog, node.name)
    want = columns(node, want)
    gen = _Codegen(prog)
    env: Dict[str, Code] = {d.name: _mangle("V", d.name) for d in node.decls}
    inputs = {d.name: k for k, d in enumerate(node.inputs)}
    spelt = [env[d.name].text for d in node.inputs]
    targets = spelt + ["b"]
    lines = ["def run(cols, bs, div=int_div, mod=int_mod):"]
    # the names that keep their spelling: the inputs and the recorded
    # columns, taken before compiling gives a variable another code
    keep = {*spelt, *map(attrgetter("text"), map(env.__getitem__, want))}
    code = _NodeCode(gen, node, env)
    code.compile()
    # one row per instant: the distinct codes of the recorded columns,
    # each column's code guarded by its clock flag, so that it is None
    # where its clock is off, and read through the registers that no
    # commit stores; a row of one code is unboxed
    clocks = {d.name: d.clock for d in node.decls}
    recorded = {x: _guard(env[x], code.flag(clocks[x], code.lines)) for x in want if x not in inputs}
    recorded = {x: _substitute(c, gen.constants) for x, c in recorded.items()}
    row = list(dict.fromkeys(recorded.values()))
    width = len(row)
    stmts = code.lines + code.phase2
    if row:
        # recorded before the commits, so a column whose code is a
        # register reads this instant's value
        stmts.append(_Stmt((), row[0] if width == 1 else _op(_tuple(width), *row)))
    stmts += gen.commits
    if gen.constants:
        # a register that no commit stores is its initial literal, folded
        # into its readers before liveness, so that what a fold drops is
        # not kept
        stmts = _constants(stmts, gen.constants, gen.registers)
    # only what the record and the statements that may raise read,
    # transitively, is emitted, with its single-use values re-nested
    live = _live(stmts)
    stmts = _renest([st for st in stmts if id(st) in live], gen.registers)
    body: List[_Stmt] = []
    commits: List[_Stmt] = []
    for st in stmts:
        (commits if st.targets and st.targets[0] in gen.registers else body).append(st)
    names = _Names(keep)
    loop = _emit(body, names)
    # the body stores no register, so it reads every one it names
    read = {x for x, _ in names.registers}
    commits = _commits(commits, names)
    loop += _emit(commits, names)
    if row:
        lines.append("    rows = []; row = rows.append")
    # the registers that the loop reads, in order of first use
    read.update(x for st in commits for x in st.reads)
    lines += [f"    {new} = {gen.registers[x].text}" for x, new in names.registers if x in read]
    lines.append(f"    for {', '.join(targets)}, in zip(*cols, bs):")
    lines.append("        if not b:")
    if row:
        lines.append(f"            row({(None,) * width if width > 1 else None!r})")
    lines.append("            continue")
    lines += loop
    if width > 1:
        # the history is the transpose of the rows
        lines.append(f"    columns = list(zip(*rows)) or [()] * {width}")
    history = []
    for x in want:
        if x in inputs:
            history.append(f"list(cols[{inputs[x]}])")
        elif width > 1:
            history.append(f"list(columns[{row.index(recorded[x])}])")
        else:
            # the first such column is the rows themselves; another with
            # the same code gets a list of its own
            history.append("list(rows)" if "rows" in history else "rows")
    lines.append("    return {" + ", ".join(f"{x!r}: {h}" for x, h in zip(want, history)) + "}")
    return _Run(node, "\n".join(lines) + "\n", names)


class CompiledProgram:
    def __init__(self, prog: Program):
        self.prog = annotate_program(prog)
        # step code by (entry node, requested columns), made at the first
        # run or `source` that asks for it and shared by every
        # CompiledProgram of the same program object
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
        # a `want` without repeats is its own columns, so a run that gives
        # one finds its code without resolving the node
        gen = None if want is None else self.nodes.get((name, tuple(want)))
        if gen is None:
            gen = self._code(name, want)
        return gen.fn(inputs, base_clock(gen.node, inputs, N))

    def _code(self, name: str, want: Optional[Sequence[str]]) -> _Run:
        # the key's columns are checked only where the code is generated
        node = self.prog.node(name)
        key = name, tuple(d.name for d in node.decls) if want is None else tuple(dict.fromkeys(want))
        gen = self.nodes.get(key)
        if gen is None:
            gen = self.nodes[key] = _generate(self.prog, node, key[1])
        return gen

    def source(self, name: str, want: Optional[Sequence[str]] = None) -> str:
        """The step code that runs of `name` recording `want` execute.
        It is generated at the first run or call that asks for it, and
        kept; Python compiles it at its first run.  Step code is printed
        in a canonical form, so code equal up to the names of everything
        but the inputs and the recorded columns is one text."""
        return self._code(name, want).source
