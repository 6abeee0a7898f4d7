"""Syntax trees are immutable by convention: no pass writes a field of a
program it is given.

The classes of `seclus.ast` are plain dataclasses, so nothing stops an
assignment at run time; this module is the check in its place.  Each
pass runs on a fresh program object of each form (source, de-nested,
fby-init) of every fixture and of generated seeds 0-29, and the object
(with its annotation) is snapshotted field by field before and after,
each expression's `clock` and `types` included.  The module also pins
what the syntax classes must keep: `==` and `hash` ignore the
annotations, and `dataclasses.replace` and `repr` are as they were.
"""

import dataclasses
import random

import pytest

from seclus import ast, compiled, interp, normalise, parser, typing, verify
from seclus.ast import BASE, Binop, Const, Equation, Node, On, Program, Var, VarDecl
from seclus.sectypes import two_point

from conftest import fixture_texts

HORIZON = 8


def snapshot(x):
    """`x` as nested tuples: each dataclass and tuple by its class, its
    identity and its items or fields (annotations included)."""
    if dataclasses.is_dataclass(x):
        return type(x), id(x), tuple(snapshot(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, tuple):
        return tuple, id(x), tuple(snapshot(v) for v in x)
    return x


FORMS = {
    "source": lambda text: parser.parse_program(text),
    "denested": lambda text: normalise.normalize_program(parser.parse_program(text)),
    "fby_init": lambda text: normalise.fby_init(
        normalise.normalize_program(parser.parse_program(text))
    ),
}


def _history(p, node, inputs):
    return interp.ReferenceProgram(p).run(node.name, inputs, N=HORIZON)


def _ni(p, node):
    lat = two_point()
    levels = {d.name: lat.elements[i % 2] for i, d in enumerate(node.inputs)}
    return verify.check_noninterference(p, node.name, lat, levels, "L", trials=3, N=HORIZON)


# each pass takes a fresh program, its entry node, that node's inputs and
# the reference history of a twin program of the same form; the passes
# are read from their modules at each call, so a patched one is the one
# that runs
PASSES = {
    "annotate_program": lambda p, node, inputs, H: ast.annotate_program(p),
    "normalize_program": lambda p, node, inputs, H: normalise.normalize_program(p),
    "fby_init": lambda p, node, inputs, H: normalise.fby_init(normalise.normalize_program(p)),
    "check_program": lambda p, node, inputs, H: typing.check_program(p),
    "check_preservation": lambda p, node, inputs, H: verify.check_preservation(p),
    "ReferenceProgram.run": lambda p, node, inputs, H: _history(p, node, inputs),
    "CompiledProgram.run": lambda p, node, inputs, H: compiled.CompiledProgram(p).run(
        node.name, inputs, N=HORIZON
    ),
    "check_history": lambda p, node, inputs, H: interp.check_history(
        p, node.name, H, [True] * HORIZON
    ),
    "differential_semantics": lambda p, node, inputs, H: verify.differential_semantics(
        p, trials=2, N=HORIZON
    ),
    "check_noninterference": lambda p, node, inputs, H: _ni(p, node),
}


def changed_by(name: str, form: str, text: str, seed: int) -> list[str]:
    """Run the pass `name` on a fresh `form` of `text`; the names of the
    objects it changed (the program, its annotation), if any."""
    p = FORMS[form](text)
    node = p.nodes[-1]
    inputs = verify.random_inputs(node, HORIZON, random.Random(seed))
    H = _history(FORMS[form](text), node, inputs)
    watched = {"program": p}
    if name != "annotate_program":
        watched["annotation"] = p.annotation
    before = {k: snapshot(v) for k, v in watched.items()}
    PASSES[name](p, node, inputs, H)
    return [k for k, v in watched.items() if snapshot(v) != before[k]]


def _corpus() -> list[str]:
    gen = [parser.pretty(verify.generate_program(verify.GenConfig(seed=s))) for s in range(30)]
    return fixture_texts() + gen


@pytest.mark.parametrize("form", FORMS)
def test_no_pass_changes_its_input(form):
    texts = _corpus()
    assert len(texts) == 44
    for i, text in enumerate(texts):
        for name in PASSES:
            assert changed_by(name, form, text, i) == [], (name, i)


def test_a_pass_that_annotates_its_input_is_caught(monkeypatch):
    check_program = typing.check_program

    def annotating(p):
        for n in p.nodes:
            for eq in n.equations:
                for e in ast.subexprs(eq):
                    e.clock = On(BASE, "c", True)
        return check_program(p)

    monkeypatch.setattr(typing, "check_program", annotating)
    text = fixture_texts()[0]
    assert changed_by("check_program", "source", text, 0) == ["program"]
    # the de-nested form is its own annotation: one object, changed
    assert changed_by("check_program", "denested", text, 0) == ["program", "annotation"]


# -- what the syntax classes keep -------------------------------------------


def test_equality_and_hash_ignore_the_annotations():
    ck = On(BASE, "c", True)
    bare = Binop("+", Var("x"), Const(1))
    annotated = Binop("+", Var("x", clock=ck, types=("int",)), Const(1), clock=ck, types=("int",))
    assert bare == annotated and hash(bare) == hash(annotated)
    assert bare != Binop("-", Var("x"), Const(1))
    # clocks are dict keys, and `VarDecl`'s default clock is hashed
    assert {On(BASE, "c", True): 1}[ck] == 1 and hash(VarDecl("x", "int")) == hash(
        VarDecl("x", "int", BASE)
    )
    assert VarDecl("x", "int") != VarDecl("x", "int", ck)
    p = Program((Node("f", (VarDecl("x", "int"),), (VarDecl("o", "int"),), (), ()),))
    q = Program(p.nodes, annotated=True)
    assert p == q and hash(p) == hash(q)


def test_replace_and_repr_are_unchanged():
    ck = On(BASE, "c", True)
    e = Binop("+", Var("x"), Const(1), clock=ck, types=("int",))
    r = dataclasses.replace(e, op="-")
    assert (r.op, r.left, r.clock, r.types) == ("-", Var("x"), ck, ("int",))
    assert r is not e and e.op == "+"
    assert repr(e) == (
        "Binop(clock=base on c=T, op='+', left=Var(clock=None, name='x'), "
        "right=Const(clock=None, value=1))"
    )
    p = Program(
        (
            Node(
                "f",
                (VarDecl("x", "int"),),
                (VarDecl("o", "int", On(BASE, "x", False)),),
                (),
                (Equation(("o",), (Var("x"),)),),
            ),
        ),
        annotated=True,
    )
    assert repr(p) == (
        "Program(nodes=(Node(name='f', inputs=(VarDecl(name='x', type='int', clock=base),), "
        "outputs=(VarDecl(name='o', type='int', clock=base on x=F),), locals=(), "
        "equations=(Equation(targets=('o',), exprs=(Var(clock=None, name='x'),)),)),))"
    )
    assert dataclasses.replace(p).annotated
