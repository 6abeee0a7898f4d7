"""Concrete syntax: tokenizer, parser, pretty-printer round-trips."""

import dataclasses

import pytest

import reference_parser
from seclus.ast import validate
from seclus.normalise import fby_init, normalize_program
from seclus.parser import ParseError, Token, parse_program, pretty, tokenize
from seclus.verify import GenConfig, generate_program

from conftest import ASCII_PIECES, fixture_texts, load, mutants, printed_forms


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


def test_tokens_carry_kind_line_and_column():
    toks = tokenize("node _f1(x\u00b2:int)--c\n  returns 12a")
    assert toks == [
        Token("kw", "node", 1, 1), Token("ident", "_f1", 1, 6), Token("sym", "(", 1, 9),
        Token("ident", "x\u00b2", 1, 10), Token("sym", ":", 1, 12), Token("kw", "int", 1, 13),
        Token("sym", ")", 1, 16), Token("kw", "returns", 2, 3), Token("int", "12", 2, 11),
        Token("ident", "a", 2, 13), Token("eof", "", 2, 14),
    ]


@pytest.mark.parametrize(
    "rhs, col, message",
    [
        # digits that are not ASCII (`str.isdigit` accepts both) start no
        # token: the former tokenizer raised ValueError on `\u00b2` and read
        # `\u0663` as the literal 3
        ("x + \u00b2", 11, "unexpected character '\u00b2'"),
        ("x + \u0663", 11, "unexpected character '\u0663'"),
        ("x + 4\u0663", 12, "unexpected character '\u0663'"),
        ("x + \u00bd", 11, "unexpected character '\u00bd'"),
        ("x + " + "5" * 4301, 11, "integer literal of 4301 digits is too long"),
        ("x + @", 11, "unexpected character '@'"),
        ("(x, x) + x", 14, "+ applied to a tuple"),
        ("x * (x, x)", 9, "* applied to a tuple"),
        ("not (x, x)", 7, "unary not applied to a tuple"),
        ("-(x, x)", 7, "unary - applied to a tuple"),
    ],
)
def test_lexical_and_operand_errors_are_located(rhs, col, message):
    with pytest.raises(ParseError) as info:
        parse_program(f"node f(x: int) returns (o: int)\nlet\n  o = {rhs};\ntel\n")
    assert (info.value.message, info.value.span.line, info.value.span.col) == (message, 3, col)


def test_longest_convertible_literal_is_a_type_error():
    prog = parse_program("node f(x: int) returns (o: int) let o = " + "5" * 4300 + "; tel")
    (diag,) = validate(prog)
    assert diag.kind == "TypeMismatch" and "outside the 64-bit integers" in diag.detail


def test_end_of_input_after_a_comment_is_located_at_the_end():
    text = "node f(x: int) returns (o: int) let o = x; -- no tel"
    with pytest.raises(ParseError) as info:
        parse_program(text)
    assert info.value.message == "expected identifier, found ''"
    assert (info.value.span.line, info.value.span.col) == (1, len(text) + 1)


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
    for rhs in [
        "(x + y) * x - y",
        "x - (y - x)",
        "-(x + y) * x",
        # a comparison does not associate, so either operand that is one
        # keeps its parentheses
        "(x = y) = z",
        "(a < b) = c",
        "x = (y = z)",
        "not (a <= b) <> (c and z)",
        "(x or y) and (z xor c)",
    ]:
        src = (
            "node f(x: int; y: int; a: int; b: int; c: bool; z: bool) returns (o: int) "
            f"let o = {rhs}; tel"
        )
        p = parse_program(src)
        assert parse_program(pretty(p)) == p, rhs


def test_comparisons_do_not_associate():
    src = "node f(a: int) returns (o: bool) let o = a < a < a; tel"
    with pytest.raises(ParseError) as info:
        parse_program(src)
    assert info.value.message == "expected ';', found '<'"
    assert info.value.span.col == src.rindex("<") + 1


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


def _outcome(parse, text):
    """The program `parse` reads from `text`, or its error's message,
    line and column."""
    try:
        return parse(text)
    except (ParseError, reference_parser.ParseError) as e:
        return (e.message, e.span.line, e.span.col)


def _holds_tuple(prog) -> bool:
    """Whether the reference left a parenthesised list in `prog`."""
    stack = [prog]
    while stack:
        x = stack.pop()
        if isinstance(x, reference_parser._Tuple):
            return True
        if isinstance(x, tuple):
            stack.extend(x)
        elif dataclasses.is_dataclass(x):
            stack.extend(getattr(x, f.name) for f in dataclasses.fields(x))
    return False


def test_parser_equals_reference():
    """Equal programs and equal errors (message, line, column) from the
    former character-loop parser, on the fixtures, printed programs of
    all three forms and seeded mutants of both, with two exceptions:

    - an error at the end of input after a trailing comment: the former
      tokenizer did not advance the column through a comment;
    - an operator applied to a parenthesised list: the former parser
      left the list in the tree, where `validate` raised TypeError, or
      failed further on.
    """
    fixtures = fixture_texts()
    # the reference takes about 10 ms per printed form, so few seeds
    forms = printed_forms(range(20))
    texts = fixtures + forms
    texts += mutants(fixtures, 2000, 0, ASCII_PIECES) + mutants(forms, 200, 1, ASCII_PIECES)
    for text in texts:
        new = _outcome(parse_program, text)
        old = _outcome(reference_parser.parse_program, text)
        if new == old:
            continue
        assert isinstance(new, tuple), text
        if new[0].endswith("applied to a tuple"):
            # the reference read on past the operator
            assert old[1:] > new[1:] if isinstance(old, tuple) else _holds_tuple(old), text
        else:
            last = text.rsplit("\n", 1)[-1]
            assert old[:2] == new[:2] and "--" in last, text
            assert new[2] == len(last) + 1 and new[0].endswith("found ''"), text


def test_valid_text_is_parsed_without_located_tokens(monkeypatch):
    """The parser reads plain token strings; the located tokens of
    `tokenize` are built only to report an error."""
    expected = [parse_program(text) for text in fixture_texts() + printed_forms(range(100))]

    def located(*args):
        raise AssertionError("tokenize called on a valid text")

    monkeypatch.setattr("seclus.parser.tokenize", located)
    texts = fixture_texts() + printed_forms(range(100))
    assert [parse_program(text) for text in texts] == expected
