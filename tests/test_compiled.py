"""Fast code-generating evaluator: agreement with the reference
interpreter on fixtures and random programs, and matching strictness."""

import random

import pytest

from seclus.compiled import CompiledProgram
from seclus.interp import EvalError, check_history, run_node
from seclus.normalise import fby_init, normalize_program
from seclus.parser import parse_program
from seclus.verify import GenConfig, generate_program, random_inputs

from conftest import load


def all_forms(p):
    n = normalize_program(p)
    return [(p, "lustre"), (n, "nlustre"), (fby_init(n), "nlustre")]


@pytest.mark.parametrize("fixture", ["cnt_dn.lus", "re_trig.lus"])
def test_agrees_with_reference_on_fixtures(fixture):
    p = load(fixture)
    for form, dialect in all_forms(p):
        cp = CompiledProgram(form)
        for node in form.nodes:
            for trial in range(10):
                rng = random.Random(trial)
                inputs = random_inputs(node, 30, rng)
                ref = run_node(form, node.name, inputs, dialect=dialect)
                fast = cp.run(node.name, inputs, N=30)
                assert fast == ref


def test_agrees_on_generated_programs():
    for seed in range(40):
        p = generate_program(GenConfig(seed=seed))
        for form, dialect in all_forms(p):
            cp = CompiledProgram(form)
            node = form.nodes[-1]
            for trial in range(3):
                rng = random.Random(seed * 100 + trial)
                inputs = random_inputs(node, 20, rng)
                try:
                    ref = run_node(form, node.name, inputs, dialect=dialect)
                    ref_err = None
                except EvalError as exc:
                    ref, ref_err = None, type(exc)
                try:
                    fast = cp.run(node.name, inputs, N=20)
                    fast_err = None
                except EvalError as exc:
                    fast, fast_err = None, type(exc)
                assert fast == ref and fast_err is ref_err


def test_strict_like_reference():
    # division by zero in the untaken conditional branch still raises,
    # exactly as in the reference interpreter
    src = """
    node f(x: int) returns (o: int)
    let o = if x > 0 then x else (1 div (x - x)); tel
    """
    p = parse_program(src)
    for form, dialect in all_forms(p):
        with pytest.raises(EvalError):
            run_node(form, "f", [[1, 2]], dialect=dialect)
        with pytest.raises(EvalError):
            CompiledProgram(form).run("f", [[1, 2]], N=2)


def test_merge_stays_lazy():
    # only the selected branch of a merge is evaluated per instant
    src = """
    node f(c: bool; x: int) returns (o: int)
      var y: int :: base on c;
    let
      y = (1 div x) when c;
      o = merge c (y) (0 when not c);
    tel
    """
    p = parse_program(src)
    H = CompiledProgram(p).run("f", [[False, True], [0, 5]], N=2)
    assert H["o"] == [0, 0]


def test_wrapping_arithmetic_matches_reference():
    src = "node f(x: int) returns (o: int) let o = x * x * x * x; tel"
    p = parse_program(src)
    ins = [[2**20, -(2**20), 7]]
    assert CompiledProgram(p).run("f", ins, N=3) == run_node(p, "f", ins)


def test_large_div_mod_agree_on_both_engines_and_replay():
    src = "node f(x: int; y: int) returns (q: int; r: int) let q = x div y; r = x mod y; tel"
    p = parse_program(src)
    big = 2**62 + 1
    ins = [[big, -big, big, -big, -(2**63), -(2**63)], [-3, 3, 3, -3, -1, 7]]
    ref = run_node(p, "f", ins)
    assert ref["q"][:2] == [-1537228672809129301, -1537228672809129301]
    assert ref["r"][:2] == [2, -2]
    assert ref["q"][4:] == [-(2**63), -1317624576693539401]  # the quotient wraps
    assert ref["r"][4:] == [0, -1]
    assert CompiledProgram(p).run("f", ins) == ref
    assert check_history(p, "f", ref, [True] * 6) == []


def test_instances_are_fresh_per_run():
    p = load("cnt_dn.lus")
    cp = CompiledProgram(p)
    first = cp.run("cnt_dn", [[True, False], [5, 5]], N=2)
    second = cp.run("cnt_dn", [[True, False], [5, 5]], N=2)
    assert first == second  # no state bleed between runs


def test_sub_instance_state_is_per_call_site():
    src = """
    node acc(x: int) returns (o: int) let o = x + (0 fby o); tel
    node top(x: int) returns (p: int; q: int)
    let p = acc(x); q = acc(x + 1); tel
    """
    p = parse_program(src)
    H = CompiledProgram(p).run("top", [[1, 1, 1]], N=3)
    assert H["p"] == [1, 2, 3]
    assert H["q"] == [2, 4, 6]
