"""Program representation: validation diagnostics, dependency order,
widths, simple types, and clock annotation."""

import pytest

from seclus.ast import (
    BASE,
    ClockError,
    On,
    Program,
    TypeError_,
    annotate_program,
    expr_types,
    fv,
    dv,
    topo_order,
    type_env,
    validate,
    width,
)
from seclus.normalise import fby_init, normalize_program
from seclus.parser import parse_program
from seclus.verify import GenConfig, generate_program

import reference_clocks
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


# -- dependency order and structural queries ------------------------------------


def test_topo_order(re_trig):
    order = topo_order(re_trig)
    assert order.index("cnt_dn") < order.index("re_trig")


def test_topo_order_detects_cycles():
    # self-recursion is already rejected; cycles through validate too
    src = "node f(x: int) returns (o: int) let o = f(x); tel"
    assert topo_order(parse_program(src)) is None


def test_fv_dv(re_trig):
    node = re_trig.node("re_trig")
    eq = node.equations[2]  # v = merge c (...) (...)
    assert dv(eq) == {"v"}
    assert {"c", "edge", "n"} <= fv(eq)


def test_width(re_trig):
    node = re_trig.node("re_trig")
    call = node.equations[2].exprs[0].on_true[0]
    assert width(call, re_trig) == 1
    assert width(node.equations[0].exprs[0], re_trig) == 1


# -- simple types ----------------------------------------------------------------


def test_type_env_and_expr_types(re_trig):
    node = re_trig.node("re_trig")
    env = type_env(node)
    assert env["i"] == "bool" and env["v"] == "int"
    eq = node.equations[3]  # o = v > 0
    assert expr_types(eq.exprs[0], env, re_trig) == ["bool"]


def test_expr_types_rejects_mismatch():
    p = parse_program("node f(x: int) returns (o: int) let o = x; tel")
    env = type_env(p.node("f"))
    with pytest.raises(TypeError_):
        expr_types(
            parse_program(
                "node g(c: bool) returns (o: bool) let o = c and c; tel"
            )
            .node("g")
            .equations[0]
            .exprs[0],
            env,
            p,
        )


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
