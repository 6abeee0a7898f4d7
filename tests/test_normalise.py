"""De-nesting and explicit delay initialisation: output shapes,
idempotence, hygiene, and interface preservation."""

import pytest

from seclus.ast import (
    CallEq,
    Checker,
    Const,
    Fby,
    FbyEq,
    Program,
    SimpleEq,
    annotate_program,
    fv,
    validate,
)
from seclus.normalise import fby_init, normalize_program
from seclus.parser import parse_program, pretty
from seclus.verify import GenConfig, generate_program

from conftest import load


def normalised(fixture):
    return normalize_program(load(fixture))


# -- fixture shapes ------------------------------------------------------------


def test_cnt_dn_denested_shape():
    node = normalised("cnt_dn.lus").node("cnt_dn")
    assert len(node.equations) == 2
    kinds = {e.target: type(e).__name__ for e in node.equations}
    assert kinds == {"v1": "FbyEq", "cpt": "SimpleEq"}


def test_cnt_dn_init_shape():
    p = fby_init(normalised("cnt_dn.lus"))
    node = p.node("cnt_dn")
    assert len(node.equations) == 4
    by_target = {e.target: e for e in node.equations}
    # the initialisation flag is a constant-headed boolean register
    flag = by_target["xinit1"]
    assert isinstance(flag, FbyEq)
    assert flag.init == Const(True) and flag.rhs == Const(False)
    # the delayed value is now a constant-headed register as well
    reg = by_target["px2"]
    assert isinstance(reg, FbyEq) and isinstance(reg.init, Const)


def test_re_trig_denested_shape():
    node = normalised("re_trig.lus").node("re_trig")
    assert len(node.equations) == 7
    kinds = [type(e).__name__ for e in node.equations]
    assert kinds.count("FbyEq") == 2
    assert kinds.count("CallEq") == 1
    call = next(e for e in node.equations if isinstance(e, CallEq))
    # the call was hoisted out of the merge onto the branch clock
    assert call.targets == ("v3",)


def test_all_delays_constant_headed_after_init():
    for fixture in ("cnt_dn.lus", "re_trig.lus"):
        p = fby_init(normalised(fixture))
        for node in p.nodes:
            for eq in node.equations:
                if isinstance(eq, FbyEq):
                    assert isinstance(eq.init, Const)


# -- validity and idempotence --------------------------------------------------


@pytest.mark.parametrize("fixture", ["cnt_dn.lus", "re_trig.lus"])
def test_forms_validate_as_nlustre(fixture):
    n = normalised(fixture)
    # de-nesting may leave non-constant delay heads; nothing else
    assert {d.kind for d in validate(n, dialect="nlustre")} <= {
        "NonConstantFbyInit"
    }
    assert validate(fby_init(n), dialect="nlustre") == []


@pytest.mark.parametrize("fixture", ["cnt_dn.lus", "re_trig.lus"])
def test_passes_idempotent(fixture):
    n = normalised(fixture)
    assert normalize_program(n) == n
    i = fby_init(n)
    assert fby_init(i) == i


def test_interface_preserved():
    for fixture in ("cnt_dn.lus", "re_trig.lus"):
        p = load(fixture)
        for form in (normalize_program(p), fby_init(normalize_program(p))):
            for before, after in zip(p.nodes, form.nodes):
                assert after.name == before.name
                assert after.inputs == before.inputs
                assert after.outputs == before.outputs


def test_fresh_names_hygienic():
    # a source variable already named like a generated temp is left alone
    src = """
    node f(x: int) returns (o: int)
      var v1: int;
    let
      v1 = x + (0 fby o);
      o = v1 * 2;
    tel
    """
    p = normalize_program(parse_program(src))
    node = p.node("f")
    names = [e.target for e in node.equations]
    assert "v1" in names and len(set(names)) == len(names)
    assert validate(p, dialect="nlustre") == []


def test_generated_programs_normalise_cleanly():
    for seed in range(30):
        p = generate_program(GenConfig(seed=seed))
        n = normalize_program(p)
        assert {d.kind for d in validate(n, dialect="nlustre")} <= {
            "NonConstantFbyInit"
        }
        i = fby_init(n)
        assert validate(i, dialect="nlustre") == []
        for node in i.nodes:
            for eq in node.equations:
                if isinstance(eq, FbyEq):
                    assert isinstance(eq.init, Const)
                if isinstance(eq, SimpleEq):
                    assert not any(
                        isinstance(sub, Fby) for sub in _subterms(eq.rhs)
                    )


def _subterms(e):
    from seclus.ast import children

    yield e
    for c in children(e):
        yield from _subterms(c)


def test_no_free_temporaries():
    for fixture in ("cnt_dn.lus", "re_trig.lus"):
        p = fby_init(normalize_program(load(fixture)))
        for node in p.nodes:
            declared = {d.name for d in (*node.inputs, *node.outputs, *node.locals)}
            for eq in node.equations:
                assert fv(eq) <= declared


def test_pretty_roundtrip_of_normal_forms():
    for fixture in ("cnt_dn.lus", "re_trig.lus"):
        p = fby_init(normalize_program(load(fixture)))
        assert parse_program(pretty(p, dialect="nlustre")) == p


def test_passes_check_no_expression_again(monkeypatch, re_trig):
    # fresh locals take the types that the annotation recorded
    calls = []
    walk = Checker.expr
    monkeypatch.setattr(
        Checker, "expr", lambda self, e, ck: calls.append(e) or walk(self, e, ck)
    )
    for p in (re_trig, generate_program(GenConfig(seed=3))):
        ann = annotate_program(Program(p.nodes))
        assert calls  # the counter sees the annotating walk
        calls.clear()
        fby_init(normalize_program(ann))
        assert calls == []
