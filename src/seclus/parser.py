"""Concrete syntax for Lustre/NLustre programs and its pretty-printer.

Surface grammar (ASCII transliteration of the usual listing style):

    node f(a: bool; b: int) returns (o: int)
      var x, y: int; c: bool :: base on a;
    let
      x = if c then a else (0 fby (x + 1));
      o :: base = x;          -- a `::` clock marks an NLustre equation
    tel

`e when x` and `e when not x` abbreviate sampling on x = true / false.
Comments run from `--` to end of line.  Clock annotations use `::`;
security types are never written (they are inferred).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

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
    VarDecl,
    Var,
    When,
    children,
)

KEYWORDS = {
    "node", "returns", "var", "let", "tel", "if", "then", "else",
    "merge", "fby", "when", "on", "base", "true", "false",
    "and", "or", "xor", "not", "div", "mod", "bool", "int",
}

#: The deepest expression accepted, in nested operators (a variable or a
#: constant alone has depth 1).  Clock inference, typing, normalisation,
#: both engines and the replay checker all recurse by expression depth;
#: this bound keeps them far from Python's recursion limit and keeps the
#: compiled engine's generated code within the parenthesis nesting that
#: Python's own parser accepts (200 levels).
MAX_EXPR_DEPTH = 64

#: The one token pattern.  Blanks and comments match outside the group,
#: so `findall` yields "" for them; every token is the group: an
#: ASCII-digit `int`, a word (`\w` is a letter, a digit or `_`), a symbol,
#: or any other character, which is an error.  A word is an identifier or
#: a keyword when it starts with a letter or `_`; any other digit is an
#: error.  The parser reads the tokens as plain strings from one
#: `findall`, which loops in C, and takes each token's kind from its text:
#: a located `Token` for every token, built in a Python loop, cost about
#: half of the parse.  `tokenize` builds those, and the parser calls it
#: only to locate an error.
_TOKEN = re.compile(r"[ \t\r\n]+|--[^\n]*|([0-9]+|\w+|::|<=|>=|<>|[(),;:=<>+*-]|.)")

_SYMBOLS = frozenset(("::", "<=", ">=", "<>", *"(),;:=<>+*-"))
_NOT_IDENT = KEYWORDS | _SYMBOLS | {""}  # "" ends the parser's tokens

#: Binary operators by precedence; higher binds tighter.  Each level
#: associates to the left except the comparisons, which do not associate:
#: `a < b < c` is an error and `(a < b) = c` keeps its parentheses.
_PREC = {
    "or": 2, "xor": 2, "and": 3,
    "=": 4, "<>": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "*": 6, "div": 6, "mod": 6,
}
_CMP_PREC = _PREC["="]
_UNARY_PREC = max(_PREC.values()) + 1
_WHEN_PREC = 1
_FBY_PREC = 1


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    col: int
    end_line: int
    end_col: int

    def __post_init__(self) -> None:
        assert (self.line, self.col) <= (self.end_line, self.end_col)

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


class Token(NamedTuple):
    kind: str  # "ident" | "int" | "sym" | "kw" | "eof"
    text: str
    line: int
    col: int


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


def _error(message: str, filename: str, t: Token) -> ParseError:
    """A ParseError located on the text of `t`."""
    return ParseError(message, SourceSpan(filename, t.line, t.col, t.line, t.col + len(t.text)))


def _kind(word: str) -> str:
    """The kind of a token, read from its text."""
    if word in KEYWORDS:
        return "kw"
    if word in _SYMBOLS:
        return "sym"
    c = word[0]
    if "0" <= c <= "9":
        return "int"
    if c.isalpha() or c == "_":
        return "ident"
    return "other"


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    """The tokens of `text` with their kinds and places, ending in an
    `eof` token.  Raises a located ParseError at the first character that
    starts no token."""
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        word = m.group(1)
        if word is None:  # a blank or a comment
            last = text.rfind("\n", m.start(), m.end())
            if last >= 0:
                line += text.count("\n", m.start(), last + 1)
                line_start = last + 1
            continue
        kind, col = _kind(word), m.start() - line_start + 1
        if kind == "other":
            t = Token(kind, word[0], line, col)
            raise _error(f"unexpected character {t.text!r}", filename, t)
        toks.append(Token(kind, word, line, col))
    toks.append(Token("eof", "", line, len(text) - line_start + 1))
    return toks


class _Tuple(Expr):
    """Parser-internal: a parenthesised expression list, spliced into
    list positions (fby/when/merge/ite operands, call args, rhs)."""

    def __init__(self, exprs: tuple[Expr, ...]):
        object.__setattr__(self, "exprs", exprs)
        object.__setattr__(self, "clock", None)


def _splice(e: Expr) -> tuple[Expr, ...]:
    return e.exprs if isinstance(e, _Tuple) else (e,)


def _too_deep(es: tuple[Expr, ...]) -> bool:
    """Whether an expression of `es` is deeper than MAX_EXPR_DEPTH (an
    explicit stack: left-nested chains such as `a + a + ... + a` are
    built by loops, not by recursion)."""
    stack = [(e, 1) for e in es]
    while stack:
        e, depth = stack.pop()
        if depth > MAX_EXPR_DEPTH:
            return True
        stack.extend((c, depth + 1) for c in children(e))
    return False


class Parser:
    """Recursive descent over the tokens of `text` as plain strings, with
    "" after the last; a parse error is located on the index of its
    token."""

    def __init__(self, text: str, filename: str = "<input>"):
        self.text = text
        self.filename = filename
        self.toks = list(filter(None, _TOKEN.findall(text)))
        if any(_kind(w) == "other" for w in set(self.toks).difference(_NOT_IDENT)):
            tokenize(text, filename)  # raises, located on the first one
        self.toks.append("")
        self.pos = 0
        self.level = 0  # expressions being parsed, one inside the other
        # per right-hand side: the deepest level reached, and the
        # operators built without a level of their own (see `equation`)
        self.deepest = 0
        self.ops = 0

    # -- token plumbing ------------------------------------------------

    def error(self, message: str, k: int) -> ParseError:
        """A ParseError on the `k`-th token: only here is the text
        tokenized with places."""
        return _error(message, self.filename, tokenize(self.text, self.filename)[k])

    def peek(self) -> str:
        # only "" ends the list, and nothing consumes it without raising
        return self.toks[self.pos]

    def next(self) -> str:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, text: str) -> bool:
        # `text` is a keyword or a symbol, which no other kind of token spells
        return self.toks[self.pos] == text

    def eat(self, text: str) -> bool:
        if self.toks[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        t = self.next()
        if t != text:
            raise self.error(f"expected {text!r}, found {t!r}", self.pos - 1)

    def nested(self, parse):
        """`parse()` one expression inside the current one (a ParseError
        ends the parse, so the level need not be restored on it)."""
        if self.level >= MAX_EXPR_DEPTH:
            raise self.error("expression nesting too deep", self.pos)
        self.level += 1
        if self.level > self.deepest:
            self.deepest = self.level
        e = parse()
        self.level -= 1
        return e

    def ident(self) -> str:
        t = self.next()
        # no other token is left once `__init__` has passed the text
        if t in _NOT_IDENT or "0" <= t[0] <= "9":
            raise self.error(f"expected identifier, found {t!r}", self.pos - 1)
        return t

    # -- program structure ----------------------------------------------

    def program(self) -> Program:
        nodes = []
        while self.peek():
            nodes.append(self.node())
        return Program(tuple(nodes))

    def node(self) -> Node:
        self.expect("node")
        name = self.ident()
        self.expect("(")
        inputs = self.decl_groups(")")
        self.expect(")")
        self.expect("returns")
        self.expect("(")
        outputs = self.decl_groups(")")
        self.expect(")")
        self.eat(";")
        locals_: tuple[VarDecl, ...] = ()
        if self.eat("var"):
            locals_ = self.decl_groups("let")
        self.expect("let")
        eqs = []
        while not self.at("tel"):
            eqs.append(self.equation())
        self.expect("tel")
        self.eat(";")
        return Node(name, inputs, outputs, locals_, tuple(eqs))

    def decl_groups(self, stop: str) -> tuple[VarDecl, ...]:
        decls: list[VarDecl] = []
        while not self.at(stop):
            names = [self.ident()]
            while self.eat(","):
                names.append(self.ident())
            self.expect(":")
            t = self.next()
            if t not in ("bool", "int"):
                raise self.error(f"expected a type, found {t!r}", self.pos - 1)
            ck: Clock = BASE
            if self.eat("::"):
                ck = self.clock()
            decls.extend(VarDecl(nm, t, ck) for nm in names)
            if not (self.eat(";") or self.eat(",")):
                break
        return tuple(decls)

    def clock(self) -> Clock:
        self.expect("base")
        ck: Clock = BASE
        while self.eat("on"):
            value = not self.eat("not")
            ck = On(ck, self.ident(), value)
        return ck

    def equation(self) -> AnyEquation:
        targets = []
        if self.eat("("):
            targets.append(self.ident())
            while self.eat(","):
                targets.append(self.ident())
            self.expect(")")
        else:
            targets.append(self.ident())
            while self.eat(","):
                targets.append(self.ident())
        ck: Optional[Clock] = None
        if self.eat("::"):
            ck = self.clock()
        self.expect("=")
        start = self.pos
        self.deepest = self.ops = 0
        rhs = self.expr_list()
        # Below its root, each level of a tree is either one more
        # `nested` level or the operand of a binary, `when` or `fby`
        # operator, which `binary`, `when_expr` and `fby_expr` build
        # without one (`a + a + ... + a`): a tree is no deeper than the
        # deepest level plus the number of such operators.
        if self.deepest + self.ops > MAX_EXPR_DEPTH and _too_deep(rhs):
            raise self.error("expression nesting too deep", start)
        self.expect(";")
        if ck is None:
            return Equation(tuple(targets), rhs)
        return self._classify_neq(tuple(targets), rhs, ck)

    def _classify_neq(
        self, targets: tuple[str, ...], rhs: tuple[Expr, ...], ck: Clock
    ) -> AnyEquation:
        if len(rhs) == 1 and isinstance(rhs[0], NodeCall):
            call = rhs[0]
            return CallEq(targets, call.node, call.args, ck)
        if len(targets) != 1 or len(rhs) != 1:
            raise self.error("clock-annotated equations define a single stream", self.pos)
        e = rhs[0]
        if isinstance(e, Fby):
            if len(e.init) != 1 or len(e.rest) != 1:
                raise self.error("tupled fby in a clocked equation", self.pos)
            return FbyEq(targets[0], e.init[0], e.rest[0], ck)
        return SimpleEq(targets[0], e, ck)

    # -- expressions ----------------------------------------------------

    def expr_list(self) -> tuple[Expr, ...]:
        out = list(_splice(self.expr()))
        while self.eat(","):
            out.extend(_splice(self.expr()))
        return tuple(out)

    def expr(self) -> Expr:
        return self.nested(self.when_expr)

    def when_expr(self) -> Expr:
        e = self.fby_expr()
        while self.at("when"):
            self.next()
            value = not self.eat("not")
            x = self.ident()
            if self.eat("="):
                k = self.pos
                if not self.eat("true"):
                    self.expect("false")
                    value = not value
                elif not value:
                    raise self.error("use `when x = false`, not `when not x = true`", k)
            e = When(_splice(e), x, value)
            self.ops += 1
        return e

    def fby_expr(self) -> Expr:
        e = self.binary()
        if self.eat("fby"):
            rest = self.nested(self.fby_expr)
            self.ops += 1
            return Fby(_splice(e), _splice(rest))
        return e

    def binary(self, min_prec: int = _PREC["or"]) -> Expr:
        """An expression whose operators bind at `min_prec` or tighter, by
        precedence climbing over `_PREC` (Pratt, POPL 1973).  After a
        left-associative operator only one as loose or looser may follow;
        after a comparison, only a looser one."""
        e = self.unary_expr()
        limit = _UNARY_PREC
        while True:
            k = self.pos
            op = self.toks[k]
            p = _PREC.get(op, 0)
            if not min_prec <= p < limit:
                return e
            self.pos += 1
            right = self.binary(p + 1)
            if isinstance(e, _Tuple) or isinstance(right, _Tuple):
                raise self.error(f"{op} applied to a tuple", k)
            e = Binop(op, e, right)
            self.ops += 1
            limit = p if p == _CMP_PREC else p + 1

    def unary_expr(self) -> Expr:
        k = self.pos
        op = self.toks[k]
        if op not in ("not", "-"):
            return self.primary()
        self.pos += 1
        e = self.nested(self.unary_expr)
        if isinstance(e, _Tuple):
            raise self.error(f"unary {op} applied to a tuple", k)
        if op == "-" and isinstance(e, Const) and not isinstance(e.value, bool):
            return Const(-e.value)
        return Unop(op, e)

    def primary(self) -> Expr:
        k = self.pos
        t = self.next()
        if t not in _NOT_IDENT:  # an integer or an identifier
            if "0" <= t[0] <= "9":
                try:
                    return Const(int(t))
                except ValueError:  # more digits than Python converts
                    raise self.error(f"integer literal of {len(t)} digits is too long", k) from None
            if not self.eat("("):
                return Var(t)
            args = () if self.at(")") else self.expr_list()
            self.expect(")")
            return NodeCall(t, args)
        if t in ("true", "false"):
            return Const(t == "true")
        if t == "(":
            es = self.expr_list()
            self.expect(")")
            return es[0] if len(es) == 1 else _Tuple(es)
        if t == "if":
            cond = self.expr()
            self.expect("then")
            on_true = _splice(self.expr())
            self.expect("else")
            on_false = _splice(self.expr())
            if isinstance(cond, _Tuple):
                raise self.error("tuple condition in if", k)
            return Ite(cond, on_true, on_false)
        if t == "merge":
            x = self.ident()
            on_true = _splice(self.nested(self.primary))
            on_false = _splice(self.nested(self.primary))
            return Merge(x, on_true, on_false)
        raise self.error(f"unexpected token {t!r}", k)


def parse_program(text: str, filename: str = "<input>") -> Program:
    return Parser(text, filename).program()


# ---------------------------------------------------------------------------
# Pretty-printing
# ---------------------------------------------------------------------------

def pretty_clock(ck: Clock) -> str:
    if isinstance(ck, Base):
        return "base"
    assert isinstance(ck, On)
    pol = "" if ck.value else "not "
    return f"{pretty_clock(ck.clock)} on {pol}{ck.var}"


def pretty_expr(e: Expr, prec: int = 0) -> str:
    if isinstance(e, Const):
        if isinstance(e.value, bool):
            return "true" if e.value else "false"
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unop):
        op = "not " if e.op == "not" else "-"
        s = op + pretty_expr(e.operand, _UNARY_PREC)
        return f"({s})" if prec >= _UNARY_PREC else s
    if isinstance(e, Binop):
        p = _PREC[e.op]
        left = pretty_expr(e.left, p + 1 if p == _CMP_PREC else p)
        s = f"{left} {e.op} {pretty_expr(e.right, p + 1)}"
        return f"({s})" if prec > p else s
    if isinstance(e, When):
        operand = _pretty_list(e.exprs, _WHEN_PREC + 1)
        pol = "" if e.value else "not "
        s = f"{operand} when {pol}{e.var}"
        return f"({s})" if prec > _WHEN_PREC else s
    if isinstance(e, Fby):
        s = f"{_pretty_list(e.init, _FBY_PREC + 1)} fby {_pretty_list(e.rest, _FBY_PREC + 1)}"
        return f"({s})" if prec > _FBY_PREC else s
    if isinstance(e, Merge):
        # branches always parenthesised: a bare variable branch followed
        # by `(` would otherwise re-parse as a node call
        bt = "(" + ", ".join(pretty_expr(x) for x in e.on_true) + ")"
        bf = "(" + ", ".join(pretty_expr(x) for x in e.on_false) + ")"
        s = f"merge {e.var} {bt} {bf}"
        return f"({s})" if prec > 0 else s
    if isinstance(e, Ite):
        s = (
            f"if {pretty_expr(e.cond)} then {_pretty_list(e.on_true, 0)}"
            f" else {_pretty_list(e.on_false, 0)}"
        )
        return f"({s})" if prec > 0 else s
    if isinstance(e, NodeCall):
        return f"{e.node}({', '.join(pretty_expr(a) for a in e.args)})"
    raise TypeError(type(e))


def _pretty_list(es: tuple[Expr, ...], prec: int) -> str:
    if len(es) == 1:
        return pretty_expr(es[0], prec)
    return "(" + ", ".join(pretty_expr(e) for e in es) + ")"


def pretty_equation(eq: AnyEquation) -> str:
    if isinstance(eq, Equation):
        lhs = ", ".join(eq.targets)
        if len(eq.targets) > 1:
            lhs = f"({lhs})"
        return f"{lhs} = {', '.join(pretty_expr(e) for e in eq.exprs)};"
    if isinstance(eq, SimpleEq):
        return f"{eq.target} :: {pretty_clock(eq.clock)} = {pretty_expr(eq.rhs)};"
    if isinstance(eq, FbyEq):
        rhs = f"{pretty_expr(eq.init, _FBY_PREC + 1)} fby {pretty_expr(eq.rhs, _FBY_PREC + 1)}"
        return f"{eq.target} :: {pretty_clock(eq.clock)} = {rhs};"
    if isinstance(eq, CallEq):
        lhs = ", ".join(eq.targets)
        if len(eq.targets) > 1:
            lhs = f"({lhs})"
        call = f"{eq.node}({', '.join(pretty_expr(a) for a in eq.args)})"
        return f"{lhs} :: {pretty_clock(eq.clock)} = {call};"
    raise TypeError(type(eq))


def _pretty_decls(decls: tuple[VarDecl, ...]) -> str:
    parts = []
    for d in decls:
        s = f"{d.name}: {d.type}"
        if not isinstance(d.clock, Base):
            s += f" :: {pretty_clock(d.clock)}"
        parts.append(s)
    return "; ".join(parts)


def pretty(prog: Program, dialect: str = "lustre") -> str:
    """Deterministic canonical layout; `dialect` is "lustre" or "nlustre".

    The NLustre dialect requires every equation in NEquation form.
    """
    chunks = []
    for n in prog.nodes:
        if dialect == "nlustre" and not n.is_normalised:
            raise ValueError(f"node {n.name} is not in NLustre form")
        lines = [f"node {n.name}({_pretty_decls(n.inputs)}) returns ({_pretty_decls(n.outputs)})"]
        if n.locals:
            lines.append(f"  var {_pretty_decls(n.locals)};")
        lines.append("let")
        for eq in n.equations:
            lines.append("  " + pretty_equation(eq))
        lines.append("tel")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + ("\n" if chunks else "")
