"""Fast code-generating evaluator: agreement with the reference
interpreter on fixtures and random programs, and matching strictness."""

import ast
import importlib.util
import io
import os
import random
import re
import tokenize

import pytest

from seclus import compiled
from seclus.ast import FbyEq, clock_env, fv, targets
from seclus.compiled import CompiledProgram, _generate
from seclus.interp import (
    INT_MAX,
    INT_MIN,
    CausalityError,
    ClockMismatch,
    EvalError,
    ReferenceProgram,
    check_history,
    run_node,
)
from seclus.normalise import fby_init, normalize_program
from seclus.parser import parse_program, pretty
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
    # an operand sampled by `when` is evaluated on its own clock, as in
    # the reference interpreter: `1 div x` raises where `c` is false
    src = """
    node f(c: bool; x: int) returns (o: int)
      var y: int :: base on c;
    let
      y = (1 div x) when c;
      o = merge c (y) (0 when not c);
    tel
    """
    for form, dialect in all_forms(parse_program(src)):
        with pytest.raises(EvalError, match="division by zero"):
            run_node(form, "f", [[False, True], [0, 5]], dialect=dialect)
        with pytest.raises(EvalError, match="division by zero"):
            CompiledProgram(form).run("f", [[False, True], [0, 5]], N=2)
    # a division on the sampled clock runs only where `c` is true, and a
    # merge evaluates only its selected branch
    src = src.replace("(1 div x) when c", "1 div (x when c)")
    for H in _histories(src, [[False, True], [0, 5]], None):
        assert H["o"] == [0, 0] and H["y"] == [None, 0]


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


# -- generated names --------------------------------------------------------------

COLLIDING = [
    "B", "SF", "SP", "IN", "N", "i", "step", "run", "e1", "K0", "c0", "C0",
    "f0", "t0", "_w", "_dv", "_md", "lambda", "is", "None", "True_",
]


@pytest.mark.parametrize("name", COLLIDING)
def test_program_names_cannot_meet_generated_names(name):
    # the name as an int local with a delay, as the input of a callee
    # under a sampled clock, and as a boolean clock variable
    src = f"""
    node g({name}: int) returns (o: int)
      var y: int;
    let y = 0 fby {name}; o = {name} + y; tel

    node f(x: int; c: bool) returns (o: int)
      var {name}: int; w: int :: base on c;
    let
      {name} = x + (0 fby {name});
      w = g(({name} + 1) when c);
      o = merge c (w) (({name} * 2) when not c);
    tel

    node h(x: int; c: bool) returns (o: int)
      var {name}: bool; z: int :: base on {name};
    let
      {name} = c;
      z = (x div 2) when {name};
      o = merge {name} (z) ((x mod 3) when not {name});
    tel
    """
    inputs = [[1, 2, 3, 4], [True, False, True, False]]
    for form, dialect in all_forms(parse_program(src)):
        cp = CompiledProgram(form)
        for entry in ("f", "h"):
            ref = run_node(form, entry, inputs, dialect=dialect)
            assert cp.run(entry, inputs) == ref, (name, entry)
    assert run_node(parse_program(src), "f", inputs)["o"] == [2, 6, 9, 20]


def test_non_ascii_names_stay_apart():
    # `ﬁ` and `fi` are one identifier to Python after NFKC folding
    src = """
    node f(x: int) returns (o: int)
      var ﬁ: int; fi: int; x²: int;
    let ﬁ = x + 1; fi = 0 fby ﬁ; x² = fi * 2; o = ﬁ - x²; tel
    """
    p = parse_program(src)
    ins = [[3, 4, 5]]
    assert CompiledProgram(p).run("f", ins) == run_node(p, "f", ins)


# -- recorded columns ------------------------------------------------------------


def test_want_selects_the_recorded_columns():
    p = load("cnt_dn.lus")
    cp = CompiledProgram(p)
    ins = [[True, False, False, True], [3, 0, 0, 2]]
    full = cp.run("cnt_dn", ins)
    assert list(full) == [d.name for d in p.node("cnt_dn").decls]
    some = cp.run("cnt_dn", ins, want=["cpt", "n"])
    assert list(some) == ["cpt", "n"]
    assert some == {x: full[x] for x in ("cpt", "n")}
    assert cp.run("cnt_dn", ins, want=[]) == {}
    assert set(cp.nodes) == {
        ("cnt_dn", tuple(full)), ("cnt_dn", ("cpt", "n")), ("cnt_dn", ()),
    }
    with pytest.raises(ValueError):
        cp.run("cnt_dn", ins, want=["nope"])


def test_base_clock_off_records_absence():
    src = """
    node f(x: int) returns (o: int)
    let o = 0 fby (o + x); tel
    """
    p = parse_program(src)
    ins = [[1, None, 2, None, 3]]
    fast = CompiledProgram(p).run("f", ins)
    assert fast == run_node(p, "f", ins)
    assert fast["o"] == [0, None, 1, None, 3]


# -- boundary values -------------------------------------------------------------


# the small range together with the ends of the 64-bit range and the
# integers next to 2**53, where floating point stops being exact
BOUNDARY_VALUES = tuple(range(-8, 9)) + (
    INT_MIN, INT_MAX, 2**53 - 1, 2**53 + 1, -(2**53) - 1, -(2**53) + 1,
)


def boundary_inputs(node, N, rng):
    return [
        [rng.random() < 0.5 for _ in range(N)] if d.type == "bool"
        else [rng.choice(BOUNDARY_VALUES) for _ in range(N)]
        for d in node.inputs
    ]


def _outcome(thunk):
    try:
        return thunk(), None
    except EvalError as exc:
        return None, type(exc)


def test_engines_agree_on_boundary_values():
    for seed in range(100):
        p = generate_program(GenConfig(seed=seed))
        for form, dialect in all_forms(p):
            node = form.nodes[-1]
            inputs = boundary_inputs(node, 20, random.Random(seed))
            ref = _outcome(lambda: run_node(form, node.name, inputs, dialect=dialect))
            fast = _outcome(lambda: CompiledProgram(form).run(node.name, inputs))
            assert fast == ref, (seed, dialect)


def test_engines_agree_at_boundary_values_with_only_the_outputs_recorded():
    # with only the outputs recorded, most temporaries are re-nested into
    # their readers, and most range tests are left to the root of a tree
    for seed in range(100):
        p = generate_program(GenConfig(seed=seed))
        for form, dialect in all_forms(p):
            node = form.nodes[-1]
            outs = [d.name for d in node.outputs]
            inputs = boundary_inputs(node, 20, random.Random(seed))
            ref = _outcome(lambda: ReferenceProgram(form).run(
                node.name, inputs, want=outs, dialect=dialect))
            fast = _outcome(lambda: CompiledProgram(form).run(node.name, inputs, want=outs))
            assert fast == ref, (seed, dialect)


def _script(name):
    """`scripts/<name>.py` as a module."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "scripts", name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_engines_agree_on_the_raising_corpus():
    # each generated program with its divisors replaced by their
    # dividends, as in `scripts/reference_digest.py`: the compiled
    # engine raises exactly where the reference does, also on an operand
    # sampled by `when`, which the reference evaluates on its own clock
    digest = _script("reference_digest")
    for seed in range(100):
        q = parse_program(pretty(digest.raising(generate_program(GenConfig(seed=seed)))))
        ref = list(digest.outcomes(q, q.nodes[-1:], seed, 20))
        runs = digest.outcomes(q, q.nodes[-1:], seed, 20, digest.compiled_runs)
        fast = [(label[: -len(" all")], out) for label, out in runs if label.endswith(" all")]
        assert len(fast) == 6 and fast == ref, seed


def _on_a_sampled_clock(p):
    """`p` and a node `top` that calls `p`'s entry node on the clock
    `base on c` and merges its one output with a default."""
    entry = p.nodes[-1]
    (out,) = entry.outputs
    decls = "; ".join(f"{d.name}: {d.type}" for d in entry.inputs)
    args = ", ".join(f"{d.name} when c" for d in entry.inputs)
    default = "0" if out.type == "int" else "false"
    top = (
        f"node top(c: bool; {decls}) returns (o: {out.type})"
        f" let o = merge c ({entry.name}({args})) ({default} when not c); tel"
    )
    return parse_program(pretty(p) + "\n" + top + "\n")


def test_engines_agree_on_generated_programs_on_a_sampled_clock():
    # every statement of an inlined entry node runs under the flag of
    # `c`, as do its commits
    flagged = 0
    for seed in range(30):
        for form, dialect in all_forms(_on_a_sampled_clock(generate_program(GenConfig(seed=seed)))):
            inputs = random_inputs(form.node("top"), 20, random.Random(seed))
            fast, ref = _both_engines(form)
            for want in (["o"], None):
                H = _outcome(lambda: fast.run("top", inputs, want=want))
                assert H == _outcome(lambda: ref.run("top", inputs, want=want, dialect=dialect)), seed
                assert H[0] is not None, seed
                flagged += len(re.findall(r"^ +if (?!not b:)", fast.source("top", want), re.M))
    assert flagged > 100


EDGES = (INT_MIN, INT_MIN + 1, -1, 0, 1, INT_MAX - 1, INT_MAX)


def test_a_ring_operator_tree_is_tested_at_its_root_within_128_bits():
    src = """
    node f(a: int; b: int; c: int) returns (o: int; p: int; q: int; r: int)
      var x: int; y: int;
    let
      x = a * b - c;
      y = -(x + a) * (b - -c);
      o = (y * y + x) * (a - b * c);
      p = -(-(-a)) - (b + c) * (a * a);
      q = (a * b) * (c * a) * (b * c);
      r = x + 1 - (y - 1);
    tel
    """
    p = parse_program(src)
    outs = ["o", "p", "q", "r"]
    inputs = [[x for x in EDGES for _ in EDGES for _ in EDGES],
              [y for _ in EDGES for y in EDGES for _ in EDGES],
              [z for _ in EDGES for _ in EDGES for z in EDGES]]
    exact = lambda v: (v + 2**63) % 2**64 - 2**63
    for form, dialect in all_forms(p):
        fast, ref = _both_engines(form)
        H = fast.run("f", inputs, want=outs)
        assert H == ref.run("f", inputs, want=outs, dialect=dialect), dialect
        for k, (a, b, c) in enumerate(zip(*inputs)):
            x = exact(a * b - c)
            y = exact(-(x + a) * (b + c))
            assert H["o"][k] == exact((y * y + x) * (a - b * c))
            assert H["p"][k] == exact(-a - (b + c) * a * a)
            assert H["r"][k] == exact(x - y + 2)
        (run,) = fast.nodes.values()
        # a tree is tested once, at its root, while its unwrapped value
        # stays within 128 bits (63 per 64-bit operand, one more per `+`
        # or `-`): `(y * y + x)` and `(a - b * c)` have 127 bits each, so
        # their product (254) tests both; `(b + c) * (a * a)` would have
        # 190, so `a * a` is tested (127); in `q` every product of two
        # products is over the bound.  `x` and `y`, read twice, keep their
        # names and one test each.
        tests = {col: _recorded(run.source, col).count("(w := ") for col in outs}
        assert tests == {"o": 3, "p": 2, "q": 5, "r": 1}, run.source
        assert run.source.count("(w := ") == 2 + sum(tests.values())


def test_single_use_values_are_nested_into_their_reader():
    src = """
    node f(a: int) returns (o: int)
      var x: int; y: int;
    let x = a * 3; y = x + a; o = y - 1; tel
    """
    for form, _ in all_forms(parse_program(src)):
        fast = CompiledProgram(form)
        assert fast.run("f", [[1, INT_MAX]], want=["o"]) == {"o": [3, INT_MAX * 3 + INT_MAX - 1 - 2**65]}
        (run,) = fast.nodes.values()
        assert not _named(run) - {"a"}, run.source
        assert _recorded(run.source, "o").count("(w := ") == 1


def test_a_value_read_after_a_callees_commit_is_not_moved_past_it():
    # `d`'s output is its register, which `f` reads as the register
    # itself, before `d`'s commit ends the instant
    src = """
    node d(x: int) returns (y: int) let y = 0 fby x; tel
    node f(a: int) returns (o: int) let o = d(a) + 1; tel
    """
    for H in _histories(src, [[5, 7, 9, 11]], ["o"]):
        assert H == {"o": [1, 6, 8, 10]}


def test_a_value_whose_read_folding_drops_stays_out_of_the_code():
    # `k`'s output is a literal, named for its caller and read once, by a
    # condition: nesting it folds the choice, which drops the one read of
    # `t`, so `t` is dead; the assignment to `o`, and the commit under
    # `e`, keep their own tests
    src = """
    node k(x: int) returns (y: bool) let y = true; tel
    node f(a: int; e: bool) returns (o: int; p: int)
      var c: bool; t: int; v: int :: base on e;
    let
      c = k(a); t = a * 2;
      o = if c then a + 1 else t;
      v = 0 fby ((if c then a + 1 else t) when e);
      p = merge e (v) (0 when not e);
    tel
    """
    inputs = [[0, 1, 2, 3, 4], [True, False, True, True, False]]
    expected = {"o": [1, 2, 3, 4, 5], "p": [0, 0, 1, 3, 0]}
    for want in (["o"], ["p"], ["o", "p"]):
        for H in _histories(src, inputs, want):
            assert H == {x: expected[x] for x in want}, want
    for want in (["o"], ["p"]):
        fast = CompiledProgram(parse_program(src))
        fast.run("f", inputs, want=want)
        assert not _named(fast.nodes[("f", tuple(want))]) & {"c", "t"}, want


def _parens(source):
    """The deepest nesting of parentheses in `source`."""
    depth = deepest = 0
    for ch in source:
        depth += (ch == "(") - (ch == ")")
        deepest = max(deepest, depth)
    return deepest


def test_long_chains_and_products_compile_with_bounded_nesting():
    # 300 single-use locals, which re-nest a bounded number at a time,
    # and a product, which keeps every range test, as three 64-bit
    # factors pass 128 bits
    n = 300
    chain = (
        "node f(a: int) returns (o: int) var "
        + "; ".join(f"x{i}: int" for i in range(n + 1))
        + "; let x0 = a; "
        + " ".join(f"x{i} = x{i - 1} * 3 + a;" for i in range(1, n + 1))
        + f" o = x{n}; tel"
    )
    m = 60
    product = (
        "node f(" + "; ".join(f"i{k}: int" for k in range(m)) + ") returns (o: int) let o = "
        + " * ".join(f"i{k}" for k in range(m)) + "; tel"
    )
    for src in (chain, product):
        for form, dialect in all_forms(parse_program(src)):
            node = form.node("f")
            for trial in range(3):
                rng = random.Random(trial)
                inputs = [[rng.choice(EDGES) for _ in range(20)] for _ in node.inputs]
                ref = run_node(form, "f", inputs, dialect=dialect)["o"]
                fast = CompiledProgram(form)
                assert fast.run("f", inputs, want=["o"]) == {"o": ref}, dialect
            (run,) = fast.nodes.values()
            assert _parens(run.source) < 150, dialect


def test_a_node_of_another_program_object_is_refused():
    p = load("re_trig.lus")
    with pytest.raises(ValueError, match="re_trig"):
        _generate(p.annotation, p.node("re_trig"), ("o",))
    assert p.annotation.node("re_trig") is not p.node("re_trig")
    run = _generate(p.annotation, p.annotation.node("re_trig"), ("o",))
    inputs = [[True, False, True], [2, 2, 2]]
    assert run.fn(inputs, [True] * 3) == {"o": run_node(p, "re_trig", inputs)["o"]}


# unvalidated programs, which `annotate_program` accepts: a callee
# declared after its caller, and a second node of a callee's name
CALL_ORDERS = {
    "callee after its caller": (
        "node f(a: int) returns (o: int) let o = g(a) + 1; tel\n"
        "node g(a: int) returns (o: int) let o = a * 2; tel",
        [3, 5],
    ),
    "two nodes of one name": (
        "node g(a: int) returns (o: int) let o = a * 2; tel\n"
        "node g(b: int) returns (p: int) let p = b * 3; tel\n"
        "node f(a: int) returns (o: int) let o = g(a); tel",
        [2, 4],
    ),
}


@pytest.mark.parametrize("why", CALL_ORDERS)
def test_both_engines_run_the_callee_that_a_call_names(why):
    src, o = CALL_ORDERS[why]
    for engine in (CompiledProgram, ReferenceProgram):
        assert engine(parse_program(src)).run("f", [[1, 2]])["o"] == o, engine


_NON_CAUSAL = (
    "node g(a: int) returns (o: int) var x: int; let x = x + a; o = x; tel\n"
    "node h(a: int) returns (o: int) var z: int; let z = z - a; o = z; tel\n"
)


@pytest.mark.parametrize(
    "body, cycle",
    [
        ("var y: int; let y = y + g(a); o = y; tel", "y; o"),  # the entry first
        ("let o = h(a) + g(a); tel", "z; o"),  # its callees in the order of the call
        ("let o = g(h(a)); tel", "z; o"),  # an argument before its call
        # a delay's second operand before a later equation
        ("var p: int; let o = 0 fby h(a); p = g(a); tel", "z; o"),
    ],
)
def test_both_engines_raise_the_first_cycle_they_reach(body, cycle):
    src = _NON_CAUSAL + "node f(a: int) returns (o: int) " + body
    for engine in (CompiledProgram, ReferenceProgram):
        with pytest.raises(CausalityError, match=f"among: {cycle}$"):
            engine(parse_program(src)).run("f", [[1, 2]])


def test_a_call_cycle_is_a_recursion_error_on_both_engines():
    src = (
        "node f(a: int) returns (o: int) let o = g(a); tel\n"
        "node g(a: int) returns (o: int) let o = f(a); tel"
    )
    for engine in (CompiledProgram, ReferenceProgram):
        with pytest.raises(RecursionError, match="^call cycle through f$"):
            engine(parse_program(src)).run("f", [[1, 2]])


# -- a run's request, resolved alike on both engines -------------------------------


def _raised(thunk):
    """The type and message of the error that `thunk` raises."""
    with pytest.raises(Exception) as exc:
        thunk()
    return type(exc.value), str(exc.value)


_F_NON_CAUSAL = "node f(a: int) returns (o: int) var x: int; let x = o + a; o = x; tel"
_DIV_UNDER_C = (
    "node g(c: bool; x: int :: base on c) returns (o: int)"
    " let o = merge c (x div 0) (0 when not c); tel"
)


@pytest.mark.parametrize(
    "src, name, inputs, want, error",
    [
        # the program before the inputs and the columns
        (_F_NON_CAUSAL, "f", [[1], [2]], None, (CausalityError, "instantaneous dependency cycle among: x; o")),
        (_F_NON_CAUSAL, "f", [[1]], ["zz"], (CausalityError, "instantaneous dependency cycle among: x; o")),
        # the columns before the inputs
        ("node h(a: int) returns (o: int) let o = a; tel", "h", [], ["zz"], (ValueError, "h has no variable 'zz'")),
        # every input before the first instant: `x` is off its clock at
        # the second, and `x div 0` raises at the first
        (_DIV_UNDER_C, "g", [[True, False], [1, 5]], None, (ClockMismatch, "input x off its declared clock")),
    ],
    ids=["two input streams", "an unknown column", "columns first", "inputs first"],
)
def test_both_engines_resolve_a_request_in_one_order(src, name, inputs, want, error):
    for engine in (CompiledProgram, ReferenceProgram):
        run = engine(parse_program(src)).run
        assert _raised(lambda: run(name, inputs, want=want)) == error, engine


# `x` on `base on c on d`, declared before `d`, so that its clock is
# tested before `d` is checked as an input, and the same with `d` first
_X_THEN_D = "x: int :: base on c on d; d: bool :: base on c"
_NESTED = (
    f"node h(c: bool; {_X_THEN_D}) returns (o: int)"
    " let o = merge c (merge d (x) (0 when not d)) (0 when not c); tel"
)
_D_FIRST = _NESTED.replace(_X_THEN_D, "d: bool :: base on c; x: int :: base on c on d")
_TWO = (
    "node t(c: bool; x: int :: base on c; y: int :: base on c) returns (o: int)"
    " let o = merge c (x + y) (0 when not c); tel"
)


@pytest.mark.parametrize(
    "src, inputs, message",
    [
        # present where its clock is off, and absent where it ticks
        (_DIV_UNDER_C, [[False], [1]], "input x off its declared clock"),
        (_DIV_UNDER_C, [[True], [None]], "input x off its declared clock"),
        # present where the base clock is off
        (_TWO, [[True, None], [1, None], [1, 2]], "input y off its declared clock"),
        # a clock variable off the clock of its own variable: present
        # while `base on c` is off, absent while it ticks
        (_NESTED, [[False], [None], [True]], "d present while its clock is off"),
        (_NESTED, [[True], [1], [None]], "d absent while its clock ticks"),
        (_D_FIRST, [[False], [True], [None]], "input d off its declared clock"),
        # a clock variable that is not an input reads as absent
        ("node k(x: int :: base on o) returns (o: bool) let o = true; tel", [[1]], "o absent while its clock ticks"),
        # two faulty inputs in one instant: the first declared
        (_TWO, [[True, False], [1, 2], [1, 3]], "input x off its declared clock"),
        # the earlier instant first
        (_TWO, [[True, False], [1, 2], [None, None]], "input y off its declared clock"),
    ],
    ids=[
        "present off", "absent on", "present off base", "clock present off", "clock absent on",
        "clock input first", "clock variable an output", "first declared", "earlier instant",
    ],
)
def test_both_engines_check_each_input_against_its_declared_clock(src, inputs, message):
    p = parse_program(src)
    name = p.nodes[0].name
    for engine in (CompiledProgram, ReferenceProgram):
        run = engine(p).run
        for want in (None, ["o"]):
            assert _raised(lambda: run(name, inputs, want=want)) == (ClockMismatch, message), (engine, want)


def test_the_step_code_of_a_derived_clock_input_checks_nothing():
    # the inputs are checked before the first instant, so the step code
    # calls no presence rule, and its namespace holds the divisions only
    fast = CompiledProgram(parse_program(_NESTED))
    inputs = [[True, True, False], [1, None, None], [True, False, None]]
    assert fast.run("h", inputs)["o"] == [1, 0, 0]
    run = next(iter(fast.nodes.values()))
    assert "check(" not in run.source and "on(" not in run.source
    assert set(run.fn.__globals__) == {"__builtins__", "int_div", "int_mod"}


def test_delays_of_sampled_and_repeated_callees_at_boundary_values():
    # `acc` under the sampled clock advances only when `c` is true; the
    # two base-clocked calls each keep their own register
    src = """
    node acc(x: int) returns (o: int) let o = x + (0 fby o); tel
    node top(c: bool; x: int) returns (p: int; q: int; s: int)
    let
      p = acc(x);
      q = acc(x * 3);
      s = merge c (acc(x when c)) ((1 fby x) when not c);
    tel
    """
    p = parse_program(src)
    for trial in range(10):
        inputs = boundary_inputs(p.node("top"), 30, random.Random(trial))
        for form, dialect in all_forms(p):
            ref = run_node(form, "top", inputs, dialect=dialect)
            assert CompiledProgram(form).run("top", inputs) == ref
    H = CompiledProgram(p).run("top", [[True, False, True, True], [5, 7, 1, 2]])
    assert H["s"] == [5, 5, 6, 8]
    assert H["p"] == [5, 12, 13, 15] and H["q"] == [15, 36, 39, 45]


# -- delays and canonical step code --------------------------------------------------


def _corpus():
    yield load("cnt_dn.lus")
    yield load("re_trig.lus")
    for seed in range(100):
        yield generate_program(GenConfig(seed=seed))


def test_every_register_starts_at_a_constant():
    # a delay with a non-literal first operand is a register that starts
    # at its type's default, read through the clock's first-instant flag,
    # as the fby-init form writes it: no code tests a `first` sentinel
    for k, p in enumerate(_corpus()):
        for form, dialect in all_forms(p):
            node = form.nodes[-1]
            inputs = boundary_inputs(node, 20, random.Random(k))
            for want in ([d.name for d in node.outputs], None):
                cp = CompiledProgram(form)
                fast = _outcome(lambda: cp.run(node.name, inputs, want=want))
                ref = _outcome(lambda: ReferenceProgram(form).run(
                    node.name, inputs, want=want, dialect=dialect))
                assert fast == ref, (k, dialect, want)
                tree = ast.parse(cp.source(node.name, want))
                (run,) = tree.body
                assert [a.arg for a in run.args.args] == ["cols", "bs", "div", "mod"]
                assert not any(isinstance(n, (ast.Is, ast.IsNot)) for n in ast.walk(tree))
                assert "first" not in {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
                for st in run.body:
                    if isinstance(st, ast.Assign) and re.fullmatch(r"r\d+", st.targets[0].id):
                        ast.literal_eval(st.value)
    # the count-down timer's three forms print one step function
    p = load("cnt_dn.lus")
    assert len({CompiledProgram(form).source("cnt_dn", ["cpt"]) for form, _ in all_forms(p)}) == 1


# -- one text per program ------------------------------------------------------------

# generated programs whose three forms, with the outputs recorded, print
# one text only as the text is canonical: a register that no commit
# stores is its literal (5, 53); the forms name a variable apart (79);
# the commits that only commits read come in compile order (14, 18, 49);
# the fby-init form reads `false fby true` from a register of its own,
# the others a default register that stores `true` through the
# first-instant flag, and a register equal to an earlier one is that
# register (8)
ONE_TEXT = [("never stored", 5), ("never stored", 53), ("names", 79)]
ONE_TEXT += [("commit order", seed) for seed in (14, 18, 49)]
ONE_TEXT += [("equal registers", 8)]
# a choice whose branches become equal as the de-nested form's values
# are nested back folds, as it does in the source form (230)
ONE_TEXT += [("re-nesting folds", 230)]


def _outputs_runs(p):
    """The step code of each form of `p`: its entry node, the outputs
    recorded."""
    node = p.nodes[-1]
    outs = tuple(d.name for d in node.outputs)
    runs = []
    for form, _ in all_forms(p):
        cp = CompiledProgram(form)
        cp.source(node.name, outs)
        runs.append(cp.nodes[(node.name, outs)])
    return runs


@pytest.mark.parametrize("why, seed", ONE_TEXT)
def test_the_forms_of_a_program_print_one_text(monkeypatch, why, seed):
    folded = []
    constants = compiled._constants

    def spy(stmts, known, registers):
        folded.append(set(known))
        return constants(stmts, known, registers)

    monkeypatch.setattr(compiled, "_constants", spy)
    p = generate_program(GenConfig(seed=seed))
    runs = _outputs_runs(p)
    assert len({run.source for run in runs}) == 1, seed
    if why in ("never stored", "equal registers"):
        # a register that some form reads is folded to its literal, or
        # read as the register equal to it
        assert folded, seed
    else:
        # the forms' own names differ, their texts do not
        assert len({frozenset(run.names.items()) for run in runs}) > 1, seed
    node = p.nodes[-1]
    inputs = random_inputs(node, 20, random.Random(seed))
    outs = [d.name for d in node.outputs]
    for form, dialect in all_forms(p):
        H = ReferenceProgram(form).run(node.name, inputs, want=outs, dialect=dialect)
        assert CompiledProgram(form).run(node.name, inputs, want=outs) == H, (seed, dialect)


def test_distinct_step_functions_over_the_corpus():
    # the texts that the differential campaign compiles and runs over
    # the fixtures and seeds 0-99: 145 before the variables other than
    # the inputs and the recorded columns were numbered, never-stored
    # registers were literals and the commits that only commits read
    # were walked from the ones before them; 108 before a register equal
    # to an earlier one was that register
    assert sum(len({run.source for run in _outputs_runs(p)}) for p in _corpus()) == 106


# -- one register per value ----------------------------------------------------------

REGISTERS = re.compile(r"^    r\d+ = ", re.M)

# each program, the registers its step code initialises with `o`
# recorded, and why
EQUAL_REGISTERS = [
    ("node f(a: int) returns (o: int) var x: int; y: int;"
     " let x = 0 fby a; y = 0 fby a; o = x + y; tel", 1, "two `0 fby a` on one clock"),
    ("node g(a: int) returns (o: int) let o = 0 fby a; tel"
     " node f(a: int) returns (o: int) let o = g(a) * g(a); tel", 1,
     "two inlined calls of one callee with the same arguments"),
    ("node g(a: int) returns (o: int) let o = a fby (o + 1); tel"
     " node f(a: int; b: int) returns (o: int) let o = g(a) - g(b); tel", 3,
     "two callees' first-instant flags; their registers read their own `o`"),
    ("node f(c: bool; a: int) returns (o: int) var x: int; y: int :: base on c;"
     " let x = 0 fby a; y = 0 fby (a when c); o = x + merge c (y) (0 when not c); tel", 2,
     "another clock flag"),
    ("node f(a: int) returns (o: int) var x: int; y: int;"
     " let x = 0 fby a; y = 1 fby a; o = x + y; tel", 2, "another initial literal"),
    ("node f(a: int) returns (o: int) var x: int; y: int;"
     " let x = 0 fby a; y = 0 fby (a + 1); o = x + y; tel", 2, "another next code"),
]


def test_a_register_equal_to_an_earlier_one_is_that_register():
    # equal initial literals, next codes and clock flags, in one instance
    # or in two, make one register; any difference keeps two
    for src, count, why in EQUAL_REGISTERS:
        p = parse_program(src)
        for form, dialect in all_forms(p):
            cp = CompiledProgram(form)
            assert len(REGISTERS.findall(cp.source("f", ["o"]))) == count, (why, dialect)
            node = form.node("f")
            for trial in range(5):
                inputs = boundary_inputs(node, 20, random.Random(trial))
                for want in (["o"], None):
                    ref = ReferenceProgram(form).run("f", inputs, want=want, dialect=dialect)
                    assert cp.run("f", inputs, want=want) == ref, (why, dialect, want)


def test_a_choice_between_branches_found_equal_at_a_commit_is_folded():
    # `x` keeps its initial 1, which is known only once `y`'s code is:
    # read as 1, it makes both branches of `o` one literal
    src = (
        "node f(a: int) returns (o: int) var x: int; y: int;"
        " let x = 1 fby y; y = 1; o = if a > 0 then 1 else x; tel"
    )
    for H in _histories(src, [[INT_MIN, 0, INT_MAX]], ["o"]):
        assert H == {"o": [1, 1, 1]}
    for form, _ in all_forms(parse_program(src)):
        assert _records(CompiledProgram(form).source("f", ["o"])) == ["row(None)", "row(1)"]


def test_a_value_whose_read_a_re_nesting_fold_drops_goes():
    # `x` nested into `o` makes both branches `a + 1`, so the choice
    # folds and drops its read of `y`: `y` is not computed, nor made
    # the test of `o`'s statement
    src = (
        "node f(a: int; c: bool) returns (o: int) var x: int; y: bool;"
        " let x = a + 1; y = not c; o = if y then x else (a + 1); tel"
    )
    for H in _histories(src, [[1, INT_MAX, -3], [True, False, False]], ["o"]):
        assert H == {"o": [2, INT_MIN, -2]}
    for form, _ in all_forms(parse_program(src)):
        assert "(not V_c)" not in CompiledProgram(form).source("f", ["o"])


# spelt as the names the generator makes up, and as a hex-spelt one
MADE_UP_LOCALS = """
node g(r0: int) returns (v1: int)
  var e2: int;
let e2 = 0 fby r0; v1 = e2 + r0; tel

node f(k0: bool; r0: int) returns (v1: int; e2: int)
  var xé: int; v0: int :: base on k0; k1: bool;
let
  xé = r0 + (1 fby xé);
  v0 = g((xé div 2) when k0);
  k1 = not k0;
  v1 = merge k0 (v0) ((r0 mod 3) when not k0);
  e2 = if k1 then xé else (0 fby v1);
tel
"""


def test_program_names_spelt_like_made_up_names_stay_apart():
    p = parse_program(MADE_UP_LOCALS)
    inputs = [[True, False, True, True, False], [3, -4, INT_MAX, 0, 7]]
    for form, dialect in all_forms(p):
        fast, ref = CompiledProgram(form), ReferenceProgram(form)
        for want in (["v1"], ["e2"], None):
            H = fast.run("f", inputs, want=want)
            assert H == ref.run("f", inputs, want=want, dialect=dialect), (dialect, want)
    # recording `v1` alone, the local `xé` is spelt as a made-up name;
    # recording every column, every variable of `f` keeps its own
    fast = CompiledProgram(p)
    fast.source("f", ["v1"])
    run = fast.nodes[("f", ("v1",))]
    assert re.fullmatch(r"v\d+", run.names["Vx" + "xé".encode().hex()]), run.source
    fast.source("f")
    full = fast.nodes[("f", tuple(d.name for d in p.node("f").decls))]
    kept = {x: v for x, v in full.names.items() if x.startswith("V") and not x[1].isdigit()}
    assert all(x == v for x, v in kept.items()), full.source
    assert {"V_k0", "V_r0", "Vx" + "xé".encode().hex()} <= set(kept), full.source


def _first_uses(names):
    """Each kind's numbers, in the order of their first use: the names
    the generator makes up, and the program variables spelt like them."""
    seen = {}
    for x in names:
        made = re.fullmatch(r"([rtekv])(\d+)", x)
        if made is not None:
            kind, n = made.group(1), int(made.group(2))
            if n not in seen.setdefault(kind, []):
                seen[kind].append(n)
    return seen


def test_generated_names_are_numbered_in_order_of_first_use():
    # the registers, hoisted values, clock flags and program variables
    # other than the inputs and the recorded columns, both in the whole
    # text and in the loop alone: the registers' initial values are
    # printed in the loop's order.  Only the entry node's inputs and
    # recorded columns keep their names (`V_x`, or `Vx` and hex digits);
    # no inlined call site's name (`V<k>_x`) is printed
    for k, p in enumerate(_corpus()):
        for form, _ in all_forms(p):
            node = form.nodes[-1]
            cp = CompiledProgram(form)
            for want in ([d.name for d in node.outputs], None):
                source = cp.source(node.name, want)
                tokens = [
                    t.string for t in tokenize.generate_tokens(io.StringIO(source).readline)
                    if t.type == tokenize.NAME
                ]
                loop = tokens[tokens.index("for"):]
                kept = {t for t in tokens if t.startswith("V")}
                assert all(re.fullmatch(r"V_\w+|Vx[0-9a-f]+", t) for t in kept), (k, source)
                recorded = want if want is not None else [d.name for d in node.decls]
                inputs = [d.name for d in node.inputs]
                assert {_spelt(x) for x in kept} <= set(recorded + inputs), (k, source)
                for seen in (_first_uses(tokens), _first_uses(loop)):
                    for kind, ns in seen.items():
                        assert ns == list(range(len(ns))), (k, kind, source)


REGISTERS_READ_BY_COMMITS = [
    # `o`'s commit reads `x`'s register
    "node f(a: int) returns (o: int) var x: int;"
    " let x = 0 fby (x + a); o = 0 fby (x * 2); tel",
    # two commits that read each other's register
    "node f(a: int) returns (o: int) var x: int; y: int;"
    " let x = 0 fby (y + a); y = 0 fby (x + 1); o = x; tel",
    # a commit whose register nothing reads, kept as it may raise
    "node f(a: int) returns (o: int) var x: int; y: int;"
    " let x = 0 fby (a mod a); y = 0 fby (y + a); o = y; tel",
]


def _loop(source):
    """The statements of the generated loop after `if not b:`, those
    under a test taken out of their `if`, in order."""
    (run,) = ast.parse(source).body
    (loop,) = [st for st in run.body if isinstance(st, ast.For)]
    out = []
    for st in loop.body:
        if isinstance(st, ast.If):
            if ast.unparse(st.test) != "not b":
                out += st.body
        elif not isinstance(st, ast.Expr) or "check(" not in ast.unparse(st):
            out.append(st)
    return out


def _stores(st):
    """The names that the statement `st` of the loop stores."""
    if not isinstance(st, ast.Assign):
        return []
    (target,) = st.targets
    return [t.id for t in (target.elts if isinstance(target, ast.Tuple) else [target])]


def test_every_register_is_stored_at_the_end_of_the_instant():
    inputs = [[1, 2, 3, INT_MAX]]
    for src in REGISTERS_READ_BY_COMMITS:
        p = parse_program(src)
        assert CompiledProgram(p).run("f", inputs, want=["o"]) == {"o": run_node(p, "f", inputs)["o"]}
    # the two commits that read each other's register are one parallel
    # assignment
    source = CompiledProgram(parse_program(REGISTERS_READ_BY_COMMITS[1])).source("f", ["o"])
    assert len(re.findall(r"^ +r0, r1 = \(.+, .+\)$", source, re.M)) == 1, source
    # the commits end every generated loop, after the record, and only
    # the first of them stores several registers; no value is stored
    # through a temporary
    for k, p in enumerate(_corpus()):
        for form, _ in all_forms(p):
            node = form.nodes[-1]
            cp = CompiledProgram(form)
            for want in ([d.name for d in node.outputs], None):
                source = cp.source(node.name, want)
                assert not re.search(r"\bt\d+\b", source), (k, source)
                loop = _loop(source)
                commits = [st for st in loop if any(re.fullmatch(r"r\d+", x) for x in _stores(st))]
                first = loop.index(commits[0]) if commits else len(loop)
                assert loop[first:] == commits, (k, source)
                assert all(len(_stores(st)) == 1 for st in commits[1:]), (k, source)
                assert "row(" in ast.unparse(loop[first - 1]), (k, source)


# -- literal divisors ---------------------------------------------------------------

LITERAL_DIVISORS = (1, 2, 3, 5, 7, -1, -2, -3, INT_MAX, INT_MIN)


@pytest.mark.parametrize("c", LITERAL_DIVISORS)
def test_literal_divisors_agree_over_boundary_values(c):
    src = f"node f(x: int) returns (q: int; r: int) let q = x div {c}; r = x mod {c}; tel"
    p = parse_program(src)
    assert p.nodes[0].equations[0].exprs[0].right.value == c
    ins = [list(BOUNDARY_VALUES)]
    for form, dialect in all_forms(p):
        ref = run_node(form, "f", ins, dialect=dialect)
        cp = CompiledProgram(form)
        assert cp.run("f", ins) == ref, (c, dialect)
        assert check_history(form, "f", ref, [True] * len(BOUNDARY_VALUES)) == []
        # a positive divisor is inline; any other calls the zero-testing
        # helpers
        (run,) = cp.nodes.values()
        assert ("div(" in run.source) == (c < 0)
    for x, q, r in zip(BOUNDARY_VALUES, ref["q"], ref["r"]):
        exact = abs(x) // abs(c) * (1 if (x < 0) == (c < 0) else -1)
        assert q == (exact + 2**63) % 2**64 - 2**63 and r == x - exact * c


def test_literal_divisors_in_branches_and_delay_heads():
    src = """
    node f(c: bool; x: int) returns (o: int; p: int)
    let
      o = if c then x div 2 else x mod 3;
      p = (x div 5) fby (p + x mod 7);
    tel
    """
    p = parse_program(src)
    for trial in range(10):
        inputs = boundary_inputs(p.node("f"), 30, random.Random(trial))
        for form, dialect in all_forms(p):
            ref = run_node(form, "f", inputs, dialect=dialect)
            cp = CompiledProgram(form)
            assert cp.run("f", inputs) == ref, (trial, dialect)
            assert check_history(form, "f", ref, [True] * 30) == []
            (run,) = cp.nodes.values()
            assert "div(" not in run.source and "mod(" not in run.source
    H = CompiledProgram(p).run("f", [[True, False, True], [-7, -8, 9]])
    assert H["o"] == [-3, -2, 4] and H["p"] == [-1, -1, -2]


def test_generated_code_is_shared_per_program_object():
    p = load("cnt_dn.lus")
    ins = [[True, False], [5, 5]]
    CompiledProgram(p).run("cnt_dn", ins)
    again = CompiledProgram(p)
    assert set(again.nodes) == {("cnt_dn", tuple(d.name for d in p.node("cnt_dn").decls))}
    assert CompiledProgram(p.annotation).nodes is again.nodes
    assert CompiledProgram(load("cnt_dn.lus")).nodes == {}


# -- cone of influence ---------------------------------------------------------------


def test_recorded_columns_equal_reference_on_random_subsets():
    # each node of each form as the entry, recording a few of its
    # variables: only their cone is generated, the rest is not computed
    programs = [load("cnt_dn.lus"), load("re_trig.lus")]
    programs += [generate_program(GenConfig(seed=seed)) for seed in range(200)]
    rng = random.Random(9)
    for p in programs:
        for form, dialect in all_forms(p):
            cp, rp = CompiledProgram(form), ReferenceProgram(form)
            for node in form.nodes:
                names = [d.name for d in node.decls]
                want = rng.sample(names, rng.randint(0, min(3, len(names))))
                inputs = random_inputs(node, 6, rng)
                ref = rp.run(node.name, inputs, want=want, dialect=dialect)
                assert cp.run(node.name, inputs, want=want) == ref, (node.name, want)


DEAD_BUT_RAISING = [
    # a local that nothing reads
    """
    node f(x: int) returns (o: int)
      var d: int;
    let d = 1 div x; o = x + 1; tel
    """,
    # a call whose result nothing reads
    """
    node g(x: int) returns (p: int) let p = 1 mod x; tel
    node f(x: int) returns (o: int)
      var d: int;
    let d = g(x); o = x + 1; tel
    """,
    # an output of a callee that the caller never reads, on the base
    # clock and under a sampled clock
    """
    node g(x: int) returns (p: int; q: int) let p = x + 1; q = 1 mod x; tel
    node f(x: int) returns (o: int)
      var d: int; e: int; o2: int;
    let (o, d) = g(x); (o2, e) = g(1); tel
    """,
    """
    node g(x: int) returns (p: int; q: int) let p = x + 1; q = 1 mod x; tel
    node f(x: int) returns (o: int)
      var c: bool; u: int :: base on c; v: int :: base on c;
    let c = x >= 0; (u, v) = g(x when c); o = x + 1; tel
    """,
    # a local and a call whose only reader folding removes: the merge on
    # a literal drops the branch that reads them
    """
    node f(x: int) returns (o: int)
      var d: int; k: bool;
    let k = true; d = 1 div x; o = merge k ((x + 1) when k) (d when not k); tel
    """,
    """
    node g(x: int) returns (p: int) let p = 1 mod x; tel
    node f(x: int) returns (o: int)
      var d: int; k: bool;
    let k = false; d = g(x); o = merge k (d when k) ((x + 1) when not k); tel
    """,
]


@pytest.mark.parametrize("src", DEAD_BUT_RAISING)
def test_dead_equations_that_may_raise_are_kept(src):
    p = parse_program(src)
    for form, dialect in all_forms(p):
        for engine in (CompiledProgram(form), ReferenceProgram(form)):
            assert engine.run("f", [[2, 1]], want=["o"]) == {"o": [3, 2]}
            with pytest.raises(EvalError):
                engine.run("f", [[1, 0, 1]], want=["o"])
        (run,) = CompiledProgram(form).nodes.values()
        assert "div(" in run.source or "mod(" in run.source


DEAD_AND_PURE = [
    # the programs above without the raise: calls to a callee holding a
    # delay, whose results nothing reads, on the base clock, in
    # expression position and under a sampled clock
    """
    node g(x: int) returns (p: int) let p = 0 fby (x + 1); tel
    node f(x: int) returns (o: int)
      var d: int;
    let d = g(x); o = x + 1; tel
    """,
    """
    node g(x: int) returns (p: int) let p = 0 fby (x + 1); tel
    node f(x: int) returns (o: int)
      var d: int;
    let d = g(x) * 2; o = x + 1; tel
    """,
    """
    node g(x: int) returns (p: int; q: int) let p = 0 fby (x + 1); q = p * 2; tel
    node f(x: int) returns (o: int)
      var c: bool; u: int :: base on c; v: int :: base on c;
    let c = x >= 0; (u, v) = g(x when c); o = x + 1; tel
    """,
]


@pytest.mark.parametrize("src", DEAD_AND_PURE)
def test_a_call_that_nothing_reads_and_cannot_raise_leaves_no_code(src):
    inputs = [[2, -1, 0, 5, -3]]
    for form, dialect in all_forms(parse_program(src)):
        fast, ref = CompiledProgram(form), ReferenceProgram(form)
        for want in (["o"], None):
            H = fast.run("f", inputs, want=want)
            assert H == ref.run("f", inputs, want=want, dialect=dialect)
        assert H["o"] == [3, 0, 1, 6, -2]
        narrow, full = fast.source("f", ["o"]), fast.source("f")
        # no call block, no name of the inlined instance and no register
        tests = r"^ +if (.*):$"
        assert re.findall(tests, narrow, re.M) == ["not b"]
        assert not _inlined(fast.nodes[("f", ("o",))])
        assert not re.search(r"^    r\d+ = ", narrow, re.M)
        # recording every column keeps the callee's delay
        assert re.search(r"^    r\d+ = ", full, re.M)


def test_the_clock_of_a_recorded_column_is_in_its_cone():
    # `z` reads `c` through its declared clock alone
    src = """
    node f(a: bool; x: int) returns (o: int)
      var c: bool; z: int :: base on c;
    let c = not a; z = 1 fby (z + 1); o = 0 fby x; tel
    """
    inputs = [[True, False, True, False], [1, 2, 3, 4]]
    for form, dialect in all_forms(parse_program(src)):
        H = CompiledProgram(form).run("f", inputs, want=["z"])
        assert H == {"z": run_node(form, "f", inputs, dialect=dialect)["z"]}
        assert H == {"z": [None, 1, None, 2]}


def _named(run):
    """The entry node's variables that the generated code `run` names,
    however it spells them, by the generator's own name of each."""
    return {_spelt(x) for x in run.names if x.startswith("V") and not x[1].isdigit()}


def _spelt(name):
    """The program variable that the entry node's `V_x`, or `Vx` and hex
    digits, stands for."""
    return name[2:] if name[1] == "_" else bytes.fromhex(name[2:]).decode()


def _inlined(run):
    """The variables of inlined call sites (`V<k>_x`) that the generated
    code `run` names, by the generator's own name of each."""
    return {x for x in run.names if re.match(r"V\d", x)}


def test_only_the_cone_of_the_recorded_columns_is_generated():
    p = generate_program(GenConfig(seed=7))
    node = p.nodes[-1]
    defining = {x: eq for eq in node.equations for x in targets(eq)}
    clocks = clock_env(node)
    cone, todo = set(), ["out"]
    while todo:
        x = todo.pop()
        if x not in cone:
            cone.add(x)
            eq = defining.get(x)
            todo += fv(eq) | set().union(*(fv(clocks[y]) for y in targets(eq))) if eq else ()
    cp = CompiledProgram(p)
    cp.run(node.name, random_inputs(node, 5, random.Random(7)), want=["out"])
    (narrow,) = cp.nodes.values()
    names = _named(narrow)
    # `out` is computed (into its record, as its only reader), and only
    # its cone is named
    assert _recorded(narrow.source, "out") and names <= cone
    assert {"x0", "x4"} <= {d.name for d in node.locals} - cone
    cp.run(node.name, random_inputs(node, 5, random.Random(7)))
    full = cp.nodes[(node.name, tuple(d.name for d in node.decls))]
    # the full code computes `x4`, outside that cone, from a delay of its
    # own, read through the base clock's first-instant flag; the narrow
    # code reads no such register, so it computes no such value, named
    # or nested into a reader, and keeps only the registers of the
    # cone's delays: `out`'s two and the flag they share (`x3`'s `false
    # fby x1`, with `x1` false, is never stored, so it is `False`).  The
    # full code adds `x4`'s own register: its inner `i0 fby x6` starts
    # at 0 and stores `x6` on the base clock, as `out`'s `... fby x6`
    # does, so the two are one register
    x4 = _recorded(full.source, "x4")
    own = re.search(r"\(V_i1 if r\d+ else (r\d+)\)", x4)
    generated = {new: x for x, new in full.names.items()}
    assert own and generated[own.group(1)] not in narrow.names, x4
    registers = r"^    (r\d+) = "
    assert len(re.findall(registers, narrow.source, re.M)) == 3
    assert len(re.findall(registers, full.source, re.M)) == 4
    assert full.source.count("\n") > narrow.source.count("\n")


# -- constant folding and the range-test wrap ------------------------------------


def _both_engines(form):
    return CompiledProgram(form), ReferenceProgram(form)


def _recorded(source, x):
    """The code whose value the generated code records for column `x`:
    the element of the instant's row that the returned history reads for
    it, exactly as written (with any parentheses of its own)."""
    tree = ast.parse(source)
    (ret,) = [n for n in ast.walk(tree) if isinstance(n, ast.Return)]
    column = ret.value.values[[k.value for k in ret.value.keys].index(x)]
    # the row of an instant where the base clock is off comes first
    record = max(
        (n for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, "id", "") == "row"),
        key=lambda n: n.lineno,
    )
    (arg,) = record.args
    text = ast.get_source_segment(source, record)
    if isinstance(column, ast.Call) and isinstance(column.args[0], ast.Subscript):
        # `list(columns[j])`: element j of a tuple
        j = column.args[0].slice.value
        # the elements of `row((...))` are separated by the first comma
        # after each element's own text
        start = record.col_offset
        cuts = [arg.col_offset - start]
        cuts += [text.index(",", e.end_col_offset - start) for e in arg.elts[:-1]]
        cuts.append(arg.end_col_offset - 1 - start)
        return text[cuts[j] + 1 : cuts[j + 1]].strip()
    # `rows` or `list(rows)`: a row of one code, unboxed
    return text[len("row(") : -1]


def _records(source):
    """The lines of the generated code that record a row."""
    return [line.strip() for line in source.splitlines() if line.strip().startswith("row(")]


def test_the_recorded_columns_are_one_row_per_instant():
    # every column of generated programs of many widths: one record of
    # the row, and one of Nones where the base clock is off
    for seed in range(10):
        for form, _ in all_forms(generate_program(GenConfig(seed=seed))):
            node = form.nodes[-1]
            cp = CompiledProgram(form)
            cp.run(node.name, random_inputs(node, 2, random.Random(seed)))
            (run,) = cp.nodes.values()
            assert len(_records(run.source)) == 2, (seed, run.source)
    # `p` copies `o`: one element of the row, read by both columns
    src = "node f(a: int) returns (o: int; p: int; q: int) let o = a * 2; p = o; q = a + 1; tel"
    inputs = [[1, None, INT_MAX]]
    for form, dialect in all_forms(parse_program(src)):
        fast, ref = _both_engines(form)
        for want in (None, ["o", "p"]):
            H = fast.run("f", inputs, want=want)
            assert H == ref.run("f", inputs, want=want, dialect=dialect), (dialect, want)
            assert H["o"] == H["p"] == [2, None, -2] and H["o"] is not H["p"]
        full, copies = fast.nodes.values()
        assert _recorded(full.source, "o") == _recorded(full.source, "p") != _recorded(full.source, "q")
        (row,) = ast.parse(_records(full.source)[1]).body[0].value.args
        assert len(row.elts) == 2, full.source
        assert _records(copies.source) == ["row(None)", f"row({_recorded(copies.source, 'p')})"]
        assert fast.run("f", [[]]) == {"a": [], "o": [], "p": [], "q": []}
    # with one column recorded, the row is its code, unboxed, and the
    # history is the list of rows itself
    fast = CompiledProgram(parse_program("node f(a: int) returns (o: int) let o = a - 1; tel"))
    assert fast.run("f", [[3, 4]], want=["o"]) == {"o": [2, 3]}
    (run,) = fast.nodes.values()
    assert _records(run.source) == ["row(None)", f"row({_recorded(run.source, 'o')})"]
    (code,) = ast.parse(_records(run.source)[1]).body[0].value.args
    assert not isinstance(code, ast.Tuple) and "return {'o': rows}" in run.source


def test_results_just_outside_the_range_wrap_on_both_engines():
    # `m` is a literal, so the compiled engine folds `k`, `l` and `n`
    # through the reference's operators; `x` and `y` are inputs, wrapped
    # at run time
    src = """
    node f(x: int; y: int) returns (a: int; b: int; c: int; d: int; k: int; l: int; n: int)
      var m: int;
    let
      m = -9223372036854775808;
      a = x + 1; b = y - 1; c = y * -1; d = -y;
      k = m - 1; l = m * -1; n = -m;
    tel
    """
    inputs = [[INT_MAX, INT_MAX], [INT_MIN, INT_MIN]]
    for form, dialect in all_forms(parse_program(src)):
        fast, ref = _both_engines(form)
        H = fast.run("f", inputs)
        assert H == ref.run("f", inputs, dialect=dialect), dialect
        assert H["a"] == H["c"] == H["d"] == H["l"] == H["n"] == [INT_MIN] * 2
        assert H["b"] == H["k"] == [INT_MAX] * 2
        (run,) = fast.nodes.values()
        assert _recorded(run.source, "l") == f"({INT_MIN})"
        assert _recorded(run.source, "k") == str(INT_MAX)


def test_folding_keeps_division_by_a_literal_zero():
    # both operands fold to literals, yet the division is left to raise
    # at the first instant where `c` is true, on both engines
    src = """
    node f(c: bool; a: int) returns (o: int)
      var x: int; y: int :: base on c;
    let x = 0; y = (7 when c) div (x when c); o = merge c (y) (a when not c); tel
    """
    for form, dialect in all_forms(parse_program(src)):
        for engine in _both_engines(form):
            kw = {} if isinstance(engine, CompiledProgram) else {"dialect": dialect}
            assert engine.run("f", [[False, False], [3, 4]], **kw)["o"] == [3, 4]
            with pytest.raises(EvalError, match="division by zero"):
                engine.run("f", [[False, False, True], [3, 4, 5]], **kw)
        (run,) = CompiledProgram(form).nodes.values()
        assert "div(7, 0)" in run.source


@pytest.mark.parametrize(
    "rhs",
    [
        # a literal condition, and a strict branch it does not take
        "if true then a else (a div z)",
        # equal branches under a condition that raises
        "if (a div z) > 0 then a else a",
    ],
)
def test_folding_keeps_the_errors_of_a_conditional(rhs):
    src = f"""
    node f(a: int) returns (o: int)
      var z: int;
    let z = 0; o = {rhs}; tel
    """
    for form, dialect in all_forms(parse_program(src)):
        fast, ref = _both_engines(form)
        with pytest.raises(EvalError, match="division by zero"):
            ref.run("f", [[1, 2]], dialect=dialect)
        with pytest.raises(EvalError, match="division by zero"):
            fast.run("f", [[1, 2]])
        (run,) = fast.nodes.values()
        assert "div(V_a, 0)" in run.source and " if True else " not in run.source


# `and`, `or` and `xor` with one literal operand, in either order, and
# the code each folds to: the other operand `x`, or the literal
BOOLEAN_IDENTITIES = [
    ("X and true", "X"), ("true and X", "X"), ("X or false", "X"), ("false or X", "X"),
    ("X xor false", "X"), ("false xor X", "X"),
    ("X and false", "False"), ("false and X", "False"), ("X or true", "True"), ("true or X", "True"),
]


@pytest.mark.parametrize("rhs, folded", BOOLEAN_IDENTITIES)
@pytest.mark.parametrize("x, code", [("(a > 0)", "(V_a > 0)"), ("((a div b) > 0)", "(div(V_a, V_b) > 0)")])
def test_a_boolean_operator_with_one_literal_operand_is_folded(rhs, folded, x, code):
    # by its identity; by its zero only when the other operand cannot
    # raise, so a division by zero still raises on both engines
    src = f"node f(a: int; b: int) returns (o: bool) let o = {rhs.replace('X', x)}; tel"
    raises = "div" in x and folded != "X"
    for form, dialect in all_forms(parse_program(src)):
        fast, ref = _both_engines(form)
        text = fast.source("f", ["o"])
        operators = [op for op in (" & ", " | ", " ^ ") if op in text]
        if folded == "X":
            assert code in text and not operators, rhs
        elif raises:
            assert code in text and operators, rhs
        else:
            assert _records(text)[-1] == f"row({folded})" and code not in text, rhs
        for inputs in ([[3, -4, INT_MIN], [1, 2, -1]], [[3, -4], [1, 0]]):
            try:
                want = ref.run("f", inputs, dialect=dialect)
            except EvalError:
                with pytest.raises(EvalError, match="division by zero"):
                    fast.run("f", inputs)
                assert "div" in x
            else:
                assert fast.run("f", inputs) == want, (rhs, dialect)


def test_a_none_literal_is_no_unit_or_zero_of_a_boolean_operator():
    # None is `xor`'s want of a zero, and no value of a ticking clock
    x = compiled._name("V_x")
    for op in ("and", "or", "xor"):
        fold = compiled._FOLDS[compiled.BINARY_TEMPLATES[op]]
        assert fold((x, compiled._NONE)) is None and fold((compiled._NONE, x)) is None, op


@pytest.mark.parametrize("k, expected", [("true", [1, 2, 3]), ("false", [2, 3, 4])])
def test_merge_on_a_literal_scrutinee_selects_its_branch(k, expected):
    src = f"""
    node f(a: int) returns (o: int)
      var k: bool;
    let k = {k}; o = merge k (a when k) ((a + 1) when not k); tel
    """
    inputs = [[1, 2, 3]]
    for form, dialect in all_forms(parse_program(src)):
        fast, ref = _both_engines(form)
        assert fast.run("f", inputs)["o"] == expected
        assert ref.run("f", inputs, dialect=dialect)["o"] == expected
        (run,) = fast.nodes.values()
        assert " if V_k else " not in run.source and " if True else " not in run.source


LITERAL = r"(?:\(-\d+\)|\d+|True|False)"
# an operator between two literals, as `interp.BINARY_TEMPLATES` place it;
# the wrap's own `HALF & MASK` follows `w + `, so it is not matched
BETWEEN_LITERALS = re.compile(
    rf"(?:\(|:= ){LITERAL} (?:\+|-|\*|==|!=|<=?|>=?|&|\||\^) {LITERAL}\)"
)


def test_generated_code_selects_and_computes_nothing_on_literals():
    for seed in range(100):
        p = generate_program(GenConfig(seed=seed))
        for form, _ in all_forms(p):
            node = form.nodes[-1]
            cp = CompiledProgram(form)
            cp.run(node.name, random_inputs(node, 2, random.Random(seed)))
            (run,) = cp.nodes.values()
            assert "if True else" not in run.source, seed
            assert "if False else" not in run.source, seed
            assert not BETWEEN_LITERALS.search(run.source), seed
    fast = CompiledProgram(parse_program("node f(a: int) returns (o: int) let o = 2 - 4; tel"))
    assert fast.run("f", [[0]])["o"] == [-2]
    (run,) = fast.nodes.values()
    assert _recorded(run.source, "o") == "(-2)"
    assert BETWEEN_LITERALS.search("(w := 2 - 4)") and BETWEEN_LITERALS.search("(True & False)")


# -- copy-free step code -----------------------------------------------------------


def _histories(src, inputs, want):
    """The histories of `f` on each form and on both engines."""
    out = []
    for form, dialect in all_forms(parse_program(src)):
        fast, ref = _both_engines(form)
        out.append(fast.run("f", inputs, want=want))
        out.append(ref.run("f", inputs, want=want, dialect=dialect))
    return out


def test_a_commit_under_a_clock_read_from_a_register_reads_it_first():
    # `c` is a register; the inner delay commits on `base on c`, and must
    # test `c` before `c` itself is committed
    src = """
    node f(a: int) returns (o: int)
      var c: bool;
    let
      c = false fby (not c);
      o = 0 fby (merge c (5 fby (a when c)) (a when not c));
    tel
    """
    inputs = [[1, 2, 3, 4, 5, 6, 7]]
    for H in _histories(src, inputs, ["o", "c"]):
        assert H == {"o": [0, 1, 5, 3, 2, 5, 4], "c": [False, True] * 3 + [False]}


def test_two_delays_that_read_each_other_swap():
    src = "node f(a: int) returns (x: int; y: int) let x = 0 fby y; y = 1 fby x; tel"
    for H in _histories(src, [[0] * 5], ["x", "y"]):
        assert H == {"x": [0, 1, 0, 1, 0], "y": [1, 0, 1, 0, 1]}


def test_a_recorded_register_is_recorded_before_its_commit():
    src = "node f(a: int) returns (o: int) let o = 0 fby (o + 1); tel"
    for H in _histories(src, [[7] * 4], ["o"]):
        assert H == {"o": [0, 1, 2, 3]}


def test_a_callee_whose_output_copies_its_input():
    src = """
    node id(x: int) returns (y: int) let y = x; tel
    node f(c: bool; a: int) returns (o: int; p: int; q: int)
    let
      o = id(a);
      p = id(0 fby a) + 1;
      q = merge c (id(a when c)) (0 when not c);
    tel
    """
    inputs = [[True, False, True, False], [3, 4, 5, 6]]
    for H in _histories(src, inputs, ["o", "p", "q"]):
        assert H == {"o": [3, 4, 5, 6], "p": [1, 4, 5, 6], "q": [3, 0, 5, 0]}


@pytest.mark.parametrize("k, y, o", [("true", [2, 3, 4], [2, 3, 4]), ("false", [None] * 3, [1, 2, 3])])
def test_a_clock_on_a_literal_is_folded(k, y, o):
    src = f"""
    node f(a: int) returns (o: int)
      var k: bool; y: int :: base on k;
    let k = {k}; y = (a when k) + 1; o = merge k (y) (a when not k); tel
    """
    for H in _histories(src, [[1, 2, 3]], ["y", "o"]):
        assert H == {"y": y, "o": o}
    for form, _ in all_forms(parse_program(src)):
        fast = CompiledProgram(form)
        fast.run("f", [[1]])
        (run,) = fast.nodes.values()
        # no flag is named, and none is tested
        assert not re.search(r"^ +k\d+ = ", run.source, re.M), run.source
        assert " if True" not in run.source and " if False" not in run.source


ATOM = r"(?:[A-Za-z_]\w*|\(-\d+\)|\d+)"


def test_generated_code_emits_no_copy_and_one_init_flag_per_clock():
    copy = re.compile(rf"^ +(V\w+|v\d+) = ({ATOM})$", re.M)
    for seed in range(100):
        p = generate_program(GenConfig(seed=seed))
        for form, _ in all_forms(p):
            node = form.nodes[-1]
            cp = CompiledProgram(form)
            cp.run(node.name, random_inputs(node, 2, random.Random(seed)))
            (run,) = cp.nodes.values()
            # a callee's output too is read as its code
            assert not copy.findall(run.source), (seed, run.source)
        # the fby-init form's entry selects on one register per clock of
        # its `xinit = true fby false` flags: each recorded flag is read
        # from its register, which a selection `x = if xinit then init
        # else px` tests
        xinits = [
            eq for eq in node.equations
            if isinstance(eq, FbyEq) and eq.target.startswith("xinit")
        ]
        registers = {_recorded(run.source, eq.target) for eq in xinits}
        tested = set(re.findall(r" if (r\d+) else ", run.source))
        initial = dict(re.findall(r"^    (r\d+) = (\S+)$", run.source, re.M))
        assert len(registers) == len({eq.clock for eq in xinits}), seed
        assert registers <= tested, seed
        assert all(initial[r] == "True" for r in registers), seed
    # two delays on the base clock and one on `base on c`: two flags
    src = """
    node f(c: bool; a: int) returns (o: int; p: int :: base on c; q: int)
    let o = a fby (o + a); p = (a when c) fby (p + (1 when c)); q = a fby o; tel
    """
    (form, _), = all_forms(parse_program(src))[2:]
    cp = CompiledProgram(form)
    H = cp.run("f", [[True, False, True], [1, 2, 3]])
    assert H["o"] == [1, 2, 4] and H["p"] == [1, None, 2] and H["q"] == [1, 1, 2]
    (run,) = cp.nodes.values()
    assert len(re.findall(r"^    r\d+ = True$", run.source, re.M)) == 2


# -- liveness after folding -------------------------------------------------------


def test_generated_loops_hold_no_dead_statement():
    # the script's liveness over the generated source, independent of
    # the generator's own record of what each statement reads
    dead_statements = _script("codegen_stats").dead_statements
    programs = [load("cnt_dn.lus"), load("re_trig.lus")]
    programs += [generate_program(GenConfig(seed=seed)) for seed in range(30)]
    for k, p in enumerate(programs):
        for form, _ in all_forms(p):
            node = form.nodes[-1]
            inputs = random_inputs(node, 2, random.Random(k))
            cp = CompiledProgram(form)
            for want in ([d.name for d in node.outputs], None):
                cp.run(node.name, inputs, want=want)
            for run in cp.nodes.values():
                assert dead_statements(run.source) == 0, (k, run.source)


def test_a_value_whose_reader_folding_removed_is_not_computed():
    # seed 42's fby-init form: `v1` is read only by a selection that
    # folding removes, so nothing computes it
    p = generate_program(GenConfig(seed=42))
    form = fby_init(normalize_program(p))
    node = form.nodes[-1]
    inputs = random_inputs(node, 10, random.Random(42))
    want = [d.name for d in node.outputs]
    fast, ref = _both_engines(form)
    H = ref.run(node.name, inputs, want=want, dialect="nlustre")
    assert fast.run(node.name, inputs, want=want) == H
    (run,) = fast.nodes.values()
    assert "v1" in {d.name for d in node.locals}
    assert "V_v1" not in run.names, run.source


CALLEE_LITERAL_OUTPUT = [
    # `k` is a literal output of `g` that `g` reads itself; the caller
    # records `q` alone, through a call equation, through a call under a
    # tuple `if` and through a call on the sampled clock `base on c`,
    # where `q` reads `k` as `a`
    "let (p, q) = g(x);",
    "let (p, q) = if x > 0 then g(x) else (x, x);",
    "var c: bool; a: int :: base on c; b: int :: base on c;"
    " let c = x > 0; (a, b) = g(x when c);"
    " p = merge c (a) (0 when not c); q = merge c (b + a) (x when not c);",
]


@pytest.mark.parametrize("body", CALLEE_LITERAL_OUTPUT)
def test_a_callees_literal_output_is_folded_into_its_own_reads(body):
    src = f"""
    node g(x: int) returns (k: int; o: int) let k = 3; o = x * k + k; tel
    node f(x: int) returns (p: int; q: int) {body} tel
    """
    inputs = [[2, -1, 0, 5, INT_MAX]]
    for form, dialect in all_forms(parse_program(src)):
        fast, ref = CompiledProgram(form), ReferenceProgram(form)
        for want in (["q"], None):
            H = fast.run("f", inputs, want=want)
            assert H == ref.run("f", inputs, want=want, dialect=dialect), dialect
        # a column on `base on c` is None wherever `c` is off
        for x in ("a", "b"):
            if x in H:
                assert [v is None for v in H[x]] == [v <= 0 for v in inputs[0]], (dialect, x)
        tree = ast.parse(fast.source("f", ["q"]))
        literal = {
            t.id for a in ast.walk(tree) if isinstance(a, ast.Assign)
            and isinstance(a.value, ast.Constant) and a.value.value == 3 for t in a.targets
        }
        loads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        assert not literal & loads, (dialect, fast.source("f", ["q"]))


def test_a_callees_literal_output_folds_the_clock_it_samples():
    # `k`'s output is the literal false: the call on `f`'s base clock
    # gives `c` that literal, so `g`'s clock never ticks, its call and
    # its output are None, and the merge is its other branch
    src = """
    node k(a: int) returns (o: bool) let o = false; tel
    node g(x: int) returns (o: int) let o = 0 fby x + o; tel
    node f(a: int) returns (y: int)
      var c: bool;
    let c = k(a); y = merge c (g(a when c)) (0 when not c); tel
    """
    for want in (["y"], None):
        Hs = _histories(src, [[1, 2, 3]], want)
        # each form's compiled history, then its reference history
        assert Hs[0::2] == Hs[1::2] and all(H["y"] == [0, 0, 0] for H in Hs), want
    for form, _ in all_forms(parse_program(src)):
        fast = CompiledProgram(form)
        fast.run("f", [[1]], want=["y"])
        source = fast.source("f", ["y"])
        loop = source.split("    for ", 1)[1]
        assert re.findall(r"\bif .*:$", loop, re.M) == ["if not b:"], source
        assert not _inlined(fast.nodes[("f", ("y",))]), source


def test_step_code_is_flat_statements_under_their_clocks_flags():
    # each statement of the loop is one assignment, or the record, under
    # at most one test, its clock's flag: no `else`, and no `if` inside
    # another `if`, apart from the loop's own `if not b:`
    programs = [load("cnt_dn.lus"), load("re_trig.lus")]
    programs += [generate_program(GenConfig(seed=seed)) for seed in range(30)]
    for k, p in enumerate(programs):
        for form, _ in all_forms(p):
            node = form.nodes[-1]
            cp = CompiledProgram(form)
            for want in ([d.name for d in node.outputs], None):
                source = cp.source(node.name, want)
                (run,) = ast.parse(source).body
                (loop,) = [st for st in run.body if isinstance(st, ast.For)]
                for st in loop.body:
                    if isinstance(st, ast.If) and ast.unparse(st.test) != "not b":
                        assert not st.orelse, (k, source)
                        assert not any(
                            isinstance(n, ast.If) for t in st.body for n in ast.walk(t)
                        ), (k, source)
