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

from dataclasses import dataclass
from typing import Optional, Union

from seclus.ast import (
    BASE,
    AnyEquation,
    Base,
    Binop,
    BINOPS,
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

SYMBOLS = ["::", "<=", ">=", "<>", "(", ")", ",", ";", ":", "=", "<", ">", "+", "-", "*"]


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


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "int" | "sym" | "kw" | "eof"
    text: str
    span: SourceSpan


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)

    def span(l: int, c: int, l2: int, c2: int) -> SourceSpan:
        return SourceSpan(filename, l, c, l2, c2)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], span(line, col, line, col + j - i)))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "kw" if word in KEYWORDS else "ident"
            toks.append(Token(kind, word, span(line, col, line, col + j - i)))
            col += j - i
            i = j
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                toks.append(Token("sym", sym, span(line, col, line, col + len(sym))))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", span(line, col, line, col + 1))
    toks.append(Token("eof", "", span(line, col, line, col)))
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
    def __init__(self, text: str, filename: str = "<input>"):
        self.toks = tokenize(text, filename)
        self.pos = 0
        self.level = 0  # expressions being parsed, one inside the other

    # -- token plumbing ------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.peek()
        self.pos += 1
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind in ("sym", "kw")

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.at(text):
            t = self.peek()
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.span)
        return self.next()

    def nested(self, parse):
        """`parse()` one expression inside the current one (a ParseError
        ends the parse, so the level need not be restored on it)."""
        if self.level >= MAX_EXPR_DEPTH:
            raise ParseError("expression nesting too deep", self.peek().span)
        self.level += 1
        e = parse()
        self.level -= 1
        return e

    def ident(self) -> str:
        t = self.peek()
        if t.kind != "ident":
            raise ParseError(f"expected identifier, found {t.text!r}", t.span)
        return self.next().text

    # -- program structure ----------------------------------------------

    def program(self) -> Program:
        nodes = []
        while not self.peek().kind == "eof":
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
            t = self.peek()
            if t.text not in ("bool", "int"):
                raise ParseError(f"expected a type, found {t.text!r}", t.span)
            self.next()
            ck: Clock = BASE
            if self.eat("::"):
                ck = self.clock()
            decls.extend(VarDecl(nm, t.text, ck) for nm in names)
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
        rhs = self.expr_list()
        # each level of an expression takes a token of its own
        if self.pos - start > MAX_EXPR_DEPTH and _too_deep(rhs):
            raise ParseError("expression nesting too deep", self.toks[start].span)
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
            t = self.peek()
            raise ParseError("clock-annotated equations define a single stream", t.span)
        e = rhs[0]
        if isinstance(e, Fby):
            if len(e.init) != 1 or len(e.rest) != 1:
                t = self.peek()
                raise ParseError("tupled fby in a clocked equation", t.span)
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
                t = self.peek()
                if not self.eat("true"):
                    self.expect("false")
                    value = not value
                elif not value:
                    raise ParseError("use `when x = false`, not `when not x = true`", t.span)
            e = When(_splice(e), x, value)
        return e

    def fby_expr(self) -> Expr:
        e = self.or_expr()
        if self.eat("fby"):
            rest = self.nested(self.fby_expr)
            return Fby(_splice(e), _splice(rest))
        return e

    def or_expr(self) -> Expr:
        e = self.and_expr()
        while self.peek().text in ("or", "xor"):
            op = self.next().text
            e = Binop(op, e, self.and_expr())
        return e

    def and_expr(self) -> Expr:
        e = self.cmp_expr()
        while self.at("and"):
            self.next()
            e = Binop("and", e, self.cmp_expr())
        return e

    def cmp_expr(self) -> Expr:
        e = self.add_expr()
        if self.peek().text in ("=", "<>", "<", "<=", ">", ">="):
            op = self.next().text
            return Binop(op, e, self.add_expr())
        return e

    def add_expr(self) -> Expr:
        e = self.mul_expr()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            e = Binop(op, e, self.mul_expr())
        return e

    def mul_expr(self) -> Expr:
        e = self.unary_expr()
        while self.peek().text in ("*", "div", "mod"):
            op = self.next().text
            e = Binop(op, e, self.unary_expr())
        return e

    def unary_expr(self) -> Expr:
        if self.at("not"):
            self.next()
            return Unop("not", self.nested(self.unary_expr))
        if self.at("-"):
            span = self.next().span
            e = self.nested(self.unary_expr)
            if isinstance(e, Const) and not isinstance(e.value, bool):
                return Const(-e.value)
            if isinstance(e, _Tuple):
                raise ParseError("unary - applied to a tuple", span)
            return Unop("-", e)
        return self.primary()

    def primary(self) -> Expr:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return Const(int(t.text))
        if self.eat("true"):
            return Const(True)
        if self.eat("false"):
            return Const(False)
        if self.eat("if"):
            cond = self.expr()
            self.expect("then")
            on_true = _splice(self.expr())
            self.expect("else")
            on_false = _splice(self.expr())
            if isinstance(cond, _Tuple):
                raise ParseError("tuple condition in if", t.span)
            return Ite(cond, on_true, on_false)
        if self.eat("merge"):
            x = self.ident()
            on_true = _splice(self.nested(self.primary))
            on_false = _splice(self.nested(self.primary))
            return Merge(x, on_true, on_false)
        if self.eat("("):
            exprs = [self.expr()]
            while self.eat(","):
                exprs.append(self.expr())
            self.expect(")")
            flat: list[Expr] = []
            for e in exprs:
                flat.extend(_splice(e))
            if len(flat) == 1:
                return flat[0]
            return _Tuple(tuple(flat))
        if t.kind == "ident":
            name = self.next().text
            if self.eat("("):
                args: list[Expr] = []
                if not self.at(")"):
                    args = list(self.expr_list())
                self.expect(")")
                return NodeCall(name, tuple(args))
            return Var(name)
        raise ParseError(f"unexpected token {t.text!r}", t.span)


def parse_program(text: str, filename: str = "<input>") -> Program:
    return Parser(text, filename).program()


# ---------------------------------------------------------------------------
# Pretty-printing
# ---------------------------------------------------------------------------

# precedence levels used when deciding parentheses; higher binds tighter
_PREC = {
    "or": 2, "xor": 2, "and": 3,
    "=": 4, "<>": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "*": 6, "div": 6, "mod": 6,
}
_WHEN_PREC = 1
_FBY_PREC = 1


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
        s = op + pretty_expr(e.operand, 7)
        return f"({s})" if prec > 6 else s
    if isinstance(e, Binop):
        p = _PREC[e.op]
        s = f"{pretty_expr(e.left, p)} {e.op} {pretty_expr(e.right, p + 1)}"
        return f"({s})" if prec >= p + 1 else s
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
