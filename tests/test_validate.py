"""The one checking pass of `validate` against the former validation.

`reference_validate.validate` is the former `validate`: a scope walk, a
call walk, the clock pass and `expr_types` over each equation.
`seclus.ast.validate` walks each equation once (`Checker`) and stops at
its first fault.  On every program below the two accept and reject the
same programs, and their diagnostics are literally equal except for
these kinds of difference:

1. First scope fault.  The former listed every free variable of an
   equation, and every call to an unknown, later or same node once per
   node, after the declared clocks.  Now each equation reports the
   first of these that its walk meets, in equation order.
2. A clock, width or type fault met first.  An equation whose walk
   meets such a fault before its first free variable or bad call
   reports that fault instead.  Like every clock, width or type fault,
   it shows only when the node has no other diagnostic.
3. A type fault met first.  The former reported the clock or width
   fault of an equation before its type fault; now the walk reports
   the type fault when it meets it first.
4. A right-hand side wider than its targets.  The expressions past the
   targets are walked on the clock of the expression before them, so a
   clock or type fault in them is reported instead of the
   `ArityMismatch` ("N targets but rhs width M").

Where the two differ, `_explained` rebuilds the new diagnostics from
the former ones, equation by equation, and checks each difference
against its kind: in kind 1 the reported fault is one that the former
found in that equation, in kind 3 it is exactly the former's type
diagnostic of that equation, and in kinds 2 and 4 it is a clock, width
or type fault.  The hand table pins each kind to exact diagnostics.
"""

from dataclasses import replace

import pytest

from seclus.ast import Checker, ClockError, Diagnostic, Equation, validate
from seclus.normalise import fby_init, normalize_program
from seclus.parser import ParseError, parse_program
from seclus.verify import GenConfig, generate_program

import reference_validate as former
from conftest import ASCII_PIECES, fixture_texts, mutants, printed_forms

SCOPE = {"FreeVariable", "UnknownNode", "RecursiveCall"}
CHECK = {"ClockConflict", "ArityMismatch", "TypeMismatch"}
STRUCTURAL = {"InputRedefined", "UndeclaredTarget", "MissingDefinition"}
EARLY = {"DuplicateDeclaration", "DuplicateDefinition"}


def _clock_of_decl(d: Diagnostic) -> bool:
    return d.kind == "FreeVariable" and "(clock of " in d.detail


def _former_type_fault(n, eq, prog):
    """The `TypeMismatch` that the former reported for `eq` once its
    clocks and widths passed, or None."""
    types = former.type_env(n)
    where = ", ".join(former._targets(eq))
    try:
        got = former._rhs_types(eq, types, prog)
    except former.TypeError_ as exc:
        return Diagnostic("TypeMismatch", n.name, f"{where}: {exc}")
    except ValueError:  # a width that the clock pass rejects
        return None
    want = [types[x] for x in former._targets(eq)]
    if got != want:
        detail = f"{where}: {', '.join(got)} vs declared {', '.join(want)}"
        return Diagnostic("TypeMismatch", n.name, detail)
    return None


def _new_fault(check, eq, n):
    try:
        check.equation(eq)
    except ClockError as exc:
        return Diagnostic(exc.kind, n.name, str(exc))
    return None


def _equation(n, eq, prog, known, check) -> Diagnostic | None:
    """The new fault of `eq`, checked against the former's faults of it."""
    one = replace(n, equations=(eq,))
    old = former._validate_node(one, prog, set(known) | {n.name}, "lustre")
    scope = [d for d in old if d.kind in SCOPE and not _clock_of_decl(d)]
    got = _new_fault(check, eq, n)
    if scope:
        assert got is not None and (got in scope or got.kind in CHECK), (got, scope)  # 1, 2
        return got
    faults = former._check_equations(one, prog)
    if not faults:
        assert got is None, got
        return got
    (want,) = faults
    if got != want:
        if want.kind != "TypeMismatch" and got == _former_type_fault(n, eq, prog):
            return got  # 3
        assert (
            isinstance(eq, Equation)
            and want.kind == "ArityMismatch"
            and " targets but rhs width " in want.detail
            and got is not None
            and got.kind in {"ClockConflict", "TypeMismatch"}
        ), (got, want)  # 4
    return got


def _explained(prog, dialect) -> list[Diagnostic]:
    """The diagnostics of `validate(prog, dialect)` as the former's,
    changed only by the kinds of difference above."""
    out: list[Diagnostic] = []
    known: dict = {}
    for n in prog.nodes:
        if n.name in known:
            out.append(Diagnostic("DuplicateNode", n.name, n.name))
            continue
        old = former._validate_node(n, prog, set(known) | {n.name}, dialect)
        if any(d.kind in EARLY for d in old):
            out += old
        else:
            check = Checker(n, known, build=False)
            scope, faults = [], []
            for eq in n.equations:
                got = _equation(n, eq, prog, known, check)
                if got is not None:
                    (scope if got.kind in SCOPE else faults).append(got)
            diags = [d for d in old if d.kind in STRUCTURAL] + scope
            diags += [d for d in old if _clock_of_decl(d)]
            if not diags:
                diags = faults
            if not diags:
                diags = [d for d in old if d.kind not in SCOPE | CHECK | STRUCTURAL]
            out += diags
        known[n.name] = n
    return out


def _compare(prog) -> int:
    """Hold `validate` to the former on both dialects; the number of
    diagnostic lists that differ."""
    differ = 0
    for dialect in ("lustre", "nlustre"):
        old, new = former.validate(prog, dialect), validate(prog, dialect)
        assert bool(old) == bool(new), (dialect, old, new)
        if old != new:
            differ += 1
            assert new == _explained(prog, dialect), (dialect, old, new)
    return differ


def test_fixtures_and_generated_forms_agree_literally():
    for text in fixture_texts():
        assert _compare(parse_program(text)) == 0
    for seed in range(200):
        p = generate_program(GenConfig(seed=seed))
        n = normalize_program(p)
        for form in (p, n, fby_init(n)):
            assert _compare(form) == 0


def test_mutants_agree_up_to_the_named_differences():
    texts = fixture_texts() + printed_forms(range(3))
    progs = []
    for text in mutants(texts, 9000, 10, ASCII_PIECES):
        try:
            progs.append(parse_program(text))
        except ParseError:
            pass
    assert len(progs) >= 2000
    # the corpus reaches the named differences
    assert sum(_compare(p) for p in progs[:2000]) > 0


_G = "node g(a: int) returns (r: int) let r = a; tel\n"
_F = "node f(x: int; c: bool) returns (o: int)"

MULTI_FAULT = [
    # 1: the first free variable of an equation, not all of them
    (
        f"{_F} let o = y + z; tel",
        ["FreeVariable in f: y", "FreeVariable in f: z"],
        ["FreeVariable in f: y"],
    ),
    # 1: the callee is looked up before its arguments
    (
        f"{_F} let o = h(y); tel",
        ["FreeVariable in f: y", "UnknownNode in f: h"],
        ["UnknownNode in f: h"],
    ),
    # 1: a bad call is reported at each equation that makes it
    (
        f"{_F} var v: int; let v = f(x); o = f(v); tel",
        ["RecursiveCall in f: f"],
        ["RecursiveCall in f: f", "RecursiveCall in f: f"],
    ),
    # 1: a call to a later node, after a free variable of another equation
    (
        f"{_F} var v: int; let v = w; o = g(v); tel\n{_G}",
        ["FreeVariable in f: w", "UnknownNode in f: g"],
        ["FreeVariable in f: w", "UnknownNode in f: g"],
    ),
    # 2: a clock fault met before a free variable
    (
        f"{_F} let o = (x when c) + y; tel",
        ["FreeVariable in f: y"],
        ["ClockConflict in f: o: base on c=T vs base"],
    ),
    # 2: a type fault met before a free variable
    (
        f"{_F} let o = merge x (1) (y); tel",
        ["FreeVariable in f: y"],
        ["TypeMismatch in f: o: merge scrutinee x is not bool"],
    ),
    # 2: hidden by a free variable in another equation, as before
    (
        f"{_F} var v: int; let v = y; o = (x when c) + z; tel",
        ["FreeVariable in f: y", "FreeVariable in f: z"],
        ["FreeVariable in f: y"],
    ),
    # 3: a type fault met before a clock fault
    (
        f"{_F} let o = (x + c) + (x when c); tel",
        ["ClockConflict in f: o: base on c=T vs base"],
        ["TypeMismatch in f: o: + applied to int and bool"],
    ),
    # 3: a type fault met before a width fault
    (
        f"{_F} let o = if c then (x + c) else (x, x); tel",
        ["ArityMismatch in f: branch widths 1 vs 2"],
        ["TypeMismatch in f: o: + applied to int and bool"],
    ),
    # 3: the argument types of a call before its targets' clocks
    (
        f"{_G}node f(x: int; c: bool) returns (o: int) var v: int :: base on c;"
        " let v :: base = g(c); o = x; tel",
        ["ClockConflict in f: v: base on c=T vs base"],
        ["TypeMismatch in f: v: argument types of g: ['bool'] vs ['int']"],
    ),
    # 4: an expression past the targets, off their clock
    (
        f"{_F} let o = x, (x when c); tel",
        ["ArityMismatch in f: 1 targets but rhs width 2"],
        ["ClockConflict in f: o: base on c=T vs base"],
    ),
    # 4: an expression past the targets with a type fault
    (
        f"{_F} let o = x, x + c; tel",
        ["ArityMismatch in f: 1 targets but rhs width 2"],
        ["TypeMismatch in f: o: + applied to int and bool"],
    ),
    # unchanged: one clock and one type fault in two equations
    (
        f"{_F} var v: int; let v = x + c; o = x when c; tel",
        ["TypeMismatch in f: v: + applied to int and bool", "ClockConflict in f: o: base on c=T vs base"],
        ["TypeMismatch in f: v: + applied to int and bool", "ClockConflict in f: o: base on c=T vs base"],
    ),
    # unchanged: structural faults hide clock and type faults
    (
        f"{_F} var v: int; let v = x + c; tel",
        ["MissingDefinition in f: o"],
        ["MissingDefinition in f: o"],
    ),
]


@pytest.mark.parametrize("src, old, new", MULTI_FAULT)
def test_multi_fault_programs(src, old, new):
    p = parse_program(src)
    assert [str(d) for d in former.validate(p)] == old
    assert [str(d) for d in validate(p)] == new
    _compare(p)
