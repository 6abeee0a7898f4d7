"""Program representation: validation diagnostics, call order, widths,
value types, and clock annotation."""

import pytest

from seclus.ast import (
    BASE,
    Checker,
    ClockError,
    On,
    Program,
    annotate_program,
    fv,
    subexprs,
    targets,
    validate,
)
from seclus.normalise import fby_init, normalize_program
from seclus.parser import parse_program
from seclus.typing import TypingError, check_program
from seclus.verify import GenConfig, generate_program

import reference_clocks
import reference_validate
from conftest import leaky_pairs, load


def diags(src, dialect="lustre"):
    return [d.kind for d in validate(parse_program(src), dialect=dialect)]


# -- validation ----------------------------------------------------------------


def test_fixtures_validate(cnt_dn, re_trig):
    assert validate(cnt_dn) == []
    assert validate(re_trig) == []


def test_missing_definition():
    assert diags("node f(x: int) returns (o: int) let tel") == [
        "MissingDefinition"
    ]


def test_duplicate_definition():
    assert diags(
        "node f(x: int) returns (o: int) let o = x; o = x; tel"
    ) == ["DuplicateDefinition"]


def test_input_redefined():
    assert "InputRedefined" in diags(
        "node f(x: int) returns (o: int) let x = 1; o = x; tel"
    )


def test_undeclared_target():
    assert "UndeclaredTarget" in diags(
        "node f(x: int) returns (o: int) let y = 1; o = x; tel"
    )


def test_free_variable():
    assert "FreeVariable" in diags(
        "node f(x: int) returns (o: int) let o = x + z; tel"
    )


def test_duplicate_declaration():
    assert "DuplicateDeclaration" in diags(
        "node f(x: int; x: int) returns (o: int) let o = x; tel"
    )


def test_unknown_and_recursive_calls():
    assert "UnknownNode" in diags(
        "node f(x: int) returns (o: int) let o = g(x); tel"
    )
    assert "RecursiveCall" in diags(
        "node f(x: int) returns (o: int) let o = f(x); tel"
    )


def test_call_arity_mismatch():
    src = """
    node g(a: int; b: int) returns (o: int) let o = a + b; tel
    node f(x: int) returns (o: int) let o = g(x); tel
    """
    assert any(k == "ArityMismatch" for k in diags(src))


def test_tuple_width_mismatch():
    src = """
    node g(a: int) returns (p: int; q: int) let p = a; q = a; tel
    node f(x: int) returns (o: int) let o = g(x); tel
    """
    assert any(k == "ArityMismatch" for k in diags(src))


def test_nlustre_rejects_nested_forms():
    src = "node f(x: int) returns (o: int) let o = (0 fby x) + 1; tel"
    assert "NotNormalised" in diags(src, dialect="nlustre")


# -- call order and structural queries -----------------------------------------


def test_forward_call_is_unknown_node():
    # a node calls only the nodes declared before it, so declaration
    # order is call order
    src = """
    node f(x: int) returns (o: int) let o = g(x); tel
    node g(x: int) returns (o: int) let o = x; tel
    """
    assert [str(d) for d in validate(parse_program(src))] == ["UnknownNode in f: g"]


def test_cyclic_program_is_a_typing_error():
    src = """
    node f(x: int) returns (o: int) let o = g(x); tel
    node g(x: int) returns (o: int) let o = f(x); tel
    """
    with pytest.raises(TypingError, match="unknown node 'g'"):
        check_program(parse_program(src))


def test_fv_dv(re_trig):
    node = re_trig.node("re_trig")
    eq = node.equations[2]  # v = merge c (...) (...)
    assert set(targets(eq)) == {"v"}
    assert {"c", "edge", "n"} <= fv(eq)


def test_width(re_trig):
    node = annotate_program(re_trig).node("re_trig")
    call = node.equations[2].exprs[0].on_true[0]
    assert len(call.types) == 1
    assert len(node.equations[0].exprs[0].types) == 1


# -- value types -----------------------------------------------------------------

_G = "node g(a: bool) returns (r: int) let r = 1; tel\n"


@pytest.mark.parametrize(
    "body, detail",
    [
        ("p = not x; o = x;", "p: not applied to int"),
        ("o = - c; p = c;", "o: - applied to bool"),
        ("o = x + c; p = c;", "o: + applied to int and bool"),
        ("o = c * c; p = c;", "o: * applied to bool"),
        ("p = c <= c; o = x;", "p: <= applied to bool"),
        ("p = x xor x; o = x;", "p: xor applied to int"),
        ("p = (x = c); o = x;", "p: = applied to int and bool"),
        ("var y: int :: base on x; let y = x when x; o = x; p = c;",
         "y: when condition x is not bool"),
        ("o = merge x (1) (2); p = c;", "o: merge scrutinee x is not bool"),
        ("o = merge c (1) (true); p = c;", "o: merge branch types differ"),
        ("o = if c then 1 else true; p = c;", "o: if branch types differ"),
        ("o = if x then 1 else 2; p = c;", "o: if condition is not bool"),
        ("o = 0 fby c; p = c;", "o: fby operand types differ"),
        ("o = g(x); p = c;", "o: argument types of g: ['int'] vs ['bool']"),
        ("o, p = c, x;", "o, p: bool, int vs declared int, bool"),
    ],
)
def test_type_mismatch_details(body, detail):
    if not body.startswith("var"):
        body = "let " + body
    p = parse_program(_G + f"node f(x: int; c: bool) returns (o: int; p: bool) {body} tel")
    assert [str(d) for d in validate(p)] == [f"TypeMismatch in f: {detail}"]
    assert validate(p) == reference_validate.validate(p)


def test_integer_literals_stay_in_64_bits():
    # a literal is folded with its sign, so the least integer is valid
    assert diags("node f(x: int) returns (o: int) let o = x div -9223372036854775808; tel") == []
    for lit in ("9223372036854775808", "-9223372036854775809"):
        (d,) = validate(parse_program(f"node f(x: int) returns (o: int) let o = x + {lit}; tel"))
        assert d.kind == "TypeMismatch" and "outside the 64-bit integers" in d.detail


# -- clock annotation --------------------------------------------------------------


def test_annotate_program_clocks(re_trig):
    from seclus.normalise import normalize_program

    ann = annotate_program(normalize_program(re_trig))
    node = ann.node("re_trig")
    clocks = {e.targets[0] if hasattr(e, "targets") else e.target: e.clock
              for e in node.equations}
    assert clocks["o"] == BASE
    assert clocks["v3"] == On(BASE, "c", True)


def test_clock_mismatch_is_an_error():
    src = """
    node f(c: bool; x: int) returns (o: int)
    let o = (x when c) + x; tel
    """
    with pytest.raises(ClockError):
        annotate_program(parse_program(src))


def test_declared_clock_must_match():
    src = """
    node f(c: bool; x: int) returns (o: int)
      var y: int :: base on c;
    let
      y = x + 1;
      o = merge c (y) (0 when not c);
    tel
    """
    with pytest.raises(ClockError):
        annotate_program(parse_program(src))


def _corpus():
    yield from ("cnt_dn.lus", "re_trig.lus")
    for lus, _ in leaky_pairs():
        yield "leaky/" + lus.rsplit("/", 1)[1]
    yield from range(100)


@pytest.mark.parametrize("case", list(_corpus()))
def test_annotation_equals_reference_on_three_forms(case):
    p = load(case) if isinstance(case, str) else generate_program(GenConfig(seed=case))
    assert validate(p) == []
    n = normalize_program(p)
    for form in (p, n, fby_init(n)):
        # `repr` shows the clock fields, which `==` ignores
        want = repr(reference_clocks.annotate_program(form))
        assert repr(annotate_program(form)) == want
        # the derived forms come annotated: the pass, run on an unmarked
        # copy, builds the same clocks
        assert repr(annotate_program(Program(form.nodes))) == want


@pytest.mark.parametrize("case", list(_corpus()))
def test_recorded_types_equal_a_checking_walk(case):
    # the derived forms come annotated from their passes, which record
    # the types themselves
    p = load(case) if isinstance(case, str) else generate_program(GenConfig(seed=case))
    n = normalize_program(p)
    for form in (annotate_program(p), n, fby_init(n)):
        known = {node.name: node for node in form.nodes}
        for node in form.nodes:
            check = Checker(node, known, build=False)
            for eq in node.equations:
                for e in subexprs(eq):
                    assert e.types == check.expr(e, e.clock)[0], (node.name, e)
