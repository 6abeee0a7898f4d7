"""Concrete syntax: tokenizer, parser, pretty-printer round-trips."""

import pytest

from seclus.normalise import fby_init, normalize_program
from seclus.parser import ParseError, parse_program, pretty, tokenize
from seclus.verify import GenConfig, generate_program

from conftest import load


def strip_clocks(p):
    """Structural equality helper: annotation-free comparison is already
    the default (clock fields are compare=False), so this is identity."""
    return p


@pytest.mark.parametrize("fixture", ["cnt_dn.lus", "re_trig.lus"])
def test_roundtrip_fixture(fixture):
    p = load(fixture)
    assert parse_program(pretty(p)) == p


@pytest.mark.parametrize("fixture", ["cnt_dn.lus", "re_trig.lus"])
def test_roundtrip_normalised_forms(fixture):
    p = load(fixture)
    n = normalize_program(p)
    assert parse_program(pretty(n, dialect="nlustre")) == n
    i = fby_init(n)
    assert parse_program(pretty(i, dialect="nlustre")) == i


def test_roundtrip_generated_programs():
    for seed in range(40):
        p = generate_program(GenConfig(seed=seed))
        assert parse_program(pretty(p)) == p
        n = normalize_program(p)
        assert parse_program(pretty(n, dialect="nlustre")) == n


def test_comments_and_whitespace():
    src = """
    -- leading comment
    node f(x: int) returns (o: int) -- trailing
    let
      o = x; -- another
    tel
    """
    p = parse_program(src)
    assert p.nodes[0].name == "f"


def test_tokenizer_symbols():
    kinds = [t.text for t in tokenize("x <> y <= :: =")][:-1]
    assert kinds == ["x", "<>", "y", "<=", "::", "="]


def test_empty_program():
    assert parse_program("").nodes == ()


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as e:
        parse_program("node f(x: int) returns (o: int) let o = ; tel")
    assert "line" in str(e.value) or ":" in str(e.value)
    with pytest.raises(ParseError):
        parse_program("node f(x: int) returns (o: int) let o = x;")
    with pytest.raises(ParseError):
        parse_program("node f(x: float) returns (o: int) let o = x; tel")


def test_when_sugar_and_explicit_form():
    a = parse_program(
        "node f(x: int; c: bool) returns (o: int) let o = x when c; tel"
    )
    b = parse_program(
        "node f(x: int; c: bool) returns (o: int) let o = x when c = true; tel"
    )
    assert a == b
    neg = parse_program(
        "node f(x: int; c: bool) returns (o: int) let o = x when not c; tel"
    )
    eq = neg.nodes[0].equations[0]
    assert eq.exprs[0].value is False


def test_fby_right_associative():
    p = parse_program(
        "node f(x: int) returns (o: int) let o = 1 fby 2 fby x; tel"
    )
    e = p.nodes[0].equations[0].exprs[0]
    assert type(e).__name__ == "Fby"
    assert type(e.rest[0]).__name__ == "Fby"


def test_precedence_printing_stable():
    src = "node f(x: int; y: int) returns (o: int) let o = (x + y) * x - y; tel"
    p = parse_program(src)
    assert parse_program(pretty(p)) == p


def _depth_cases(depth):
    """Expressions of the given depth, each nested by another construct."""
    return {
        "sum": " + ".join(["a"] * depth),
        "parens": "(" * (depth - 1) + "a" + " + a)" * (depth - 1),
        "negation": "- " * (depth - 1) + "a",
        "fby": "a fby " * (depth - 1) + "a",
        "merge": "merge c " * (depth - 1) + "a" + " a" * (depth - 1),
    }


@pytest.mark.parametrize("kind", sorted(_depth_cases(2)))
def test_expression_depth_limit(kind):
    from seclus.parser import MAX_EXPR_DEPTH

    def parse(depth):
        rhs = _depth_cases(depth)[kind]
        return parse_program(f"node d(a: int; c: bool) returns (o: int)\nlet\n  o = {rhs};\ntel\n")

    parse(MAX_EXPR_DEPTH)
    for depth in (MAX_EXPR_DEPTH + 1, 3000):
        with pytest.raises(ParseError) as info:
            parse(depth)
        assert info.value.message == "expression nesting too deep"
        assert info.value.span.line == 3
