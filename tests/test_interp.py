"""Semantic operators against hand-derived oracles, the evaluator, and
the relational replay checker."""

import pytest

from seclus.ast import BASE, On
from seclus.interp import (
    ABSENT,
    INT_MAX,
    INT_MIN,
    WRAP,
    ClockMismatch,
    CausalityError,
    EvalError,
    base_of,
    parse_value,
    read_streams,
    check_history,
    respects_clock,
    run_node,
    schedule,
    sem_clock,
    sem_const,
    sem_fby_L,
    sem_fby_NL,
    sem_ite,
    sem_lift1,
    sem_lift2,
    sem_merge,
    sem_when,
    wrap,
)
from seclus.normalise import fby_init, normalize_program
from seclus.parser import parse_program

from conftest import load

A = ABSENT


# -- operator oracles (hand-derived unfoldings, frozen) ---------------------


def test_sem_const():
    assert sem_const([True, False, True], 5) == [5, A, 5]
    assert sem_const([False, False], 7) == [A, A]
    assert sem_const([True], True) == [True]


def test_sem_lift():
    assert sem_lift1("not", [True, A]) == [False, A]
    assert sem_lift2("+", [1], [2]) == [3]
    with pytest.raises(ClockMismatch):
        sem_lift2("+", [1], [A])


def test_sem_when():
    assert sem_when(True, [True, False, A], [1, 2, A]) == [1, A, A]
    assert sem_when(True, [A, A], [A, A]) == [A, A]
    with pytest.raises(ClockMismatch):
        sem_when(True, [A], [1])


def test_sem_merge():
    assert sem_merge([True, False], [1, A], [A, 2]) == [1, 2]
    assert sem_merge([A, A], [A, A], [A, A]) == [A, A]
    with pytest.raises(ClockMismatch):
        sem_merge([True], [1], [2])


def test_sem_ite():
    assert sem_ite([True, False], [1, 1], [2, 2]) == [1, 2]
    assert sem_ite([A], [A], [A]) == [A]
    with pytest.raises(ClockMismatch):
        sem_ite([True], [A], [2])


def test_sem_fby_L():
    assert sem_fby_L([1, 2, 3], [10, 20, 30]) == [1, 10, 20]
    assert sem_fby_L([A, 1], [A, 9]) == [A, 1]
    assert sem_fby_L([A, A], [A, A]) == [A, A]


def test_sem_fby_NL():
    assert sem_fby_NL(0, [1, 2, 3]) == [0, 1, 2]
    assert sem_fby_NL(0, [1, A, 2]) == [0, A, 1]
    assert sem_fby_NL(0, [A, A]) == [A, A]


def test_sem_clock():
    bs = [True, True]
    assert sem_clock({}, bs, BASE) == bs
    H = {"x": [True, False]}
    assert sem_clock(H, bs, On(BASE, "x", True)) == [True, False]
    with pytest.raises(ClockMismatch):
        sem_clock({"x": [A]}, [True], On(BASE, "x", True))


def test_base_of():
    assert base_of([[1, A, 2]]) == [True, False, True]
    assert base_of([[], []]) == []
    with pytest.raises(ClockMismatch):
        base_of([[1, A], [1, 2]])


def test_respects_clock():
    assert respects_clock({"x": [1, A]}, [True, False])
    assert not respects_clock({"x": [A, 1]}, [True, False])
    assert respects_clock({}, [True, False])


def test_fby_agreement():
    # constant-headed Lustre delay equals the NLustre register operator
    bs = [True, False, True, True]
    vs = [7, A, 8, 9]
    assert sem_fby_L(sem_const(bs, 3), vs) == sem_fby_NL(3, vs)


# -- scheduling --------------------------------------------------------------


def test_schedule_cnt_dn(cnt_dn):
    node = cnt_dn.node("cnt_dn")
    assert [type(e).__name__ for e in schedule(node)] == ["Equation"]


def test_schedule_normalised_order(cnt_dn):
    node = normalize_program(cnt_dn).node("cnt_dn")
    order = [e.target for e in schedule(node)]
    # the delay temp is instantaneously independent; cpt reads it
    assert order.index("v1") < order.index("cpt")


def test_instantaneous_cycle():
    p = parse_program("node c(i: int) returns (x: int) let x = x + 1; tel")
    with pytest.raises(CausalityError):
        schedule(p.node("c"))


def test_cycle_broken_by_delay():
    p = parse_program("node c(i: int) returns (x: int) let x = 0 fby (x + 1); tel")
    schedule(p.node("c"))  # no error


# -- run_node oracles --------------------------------------------------------


def test_cnt_dn_execution(cnt_dn):
    H = run_node(cnt_dn, "cnt_dn", [[True, False, False], [3, 3, 3]])
    assert H["cpt"] == [3, 2, 1]


def test_cnt_dn_reset_every_instant(cnt_dn):
    H = run_node(cnt_dn, "cnt_dn", [[True, True], [5, 7]])
    assert H["cpt"] == [5, 7]


def test_identity_node():
    p = parse_program("node f(x: int) returns (o: int) let o = x; tel")
    assert run_node(p, "f", [[1, 2]])["o"] == [1, 2]


def test_arity_error(cnt_dn):
    with pytest.raises(Exception):
        run_node(cnt_dn, "cnt_dn", [[True]])


@pytest.mark.parametrize("fixture", ["cnt_dn.lus", "re_trig.lus"])
def test_prefix_monotonicity(fixture):
    import random

    from seclus.verify import random_inputs

    prog = load(fixture)
    node = prog.nodes[-1]
    rng = random.Random(11)
    inputs = random_inputs(node, 40, rng)
    H40 = run_node(prog, node.name, inputs)
    H25 = run_node(prog, node.name, [s[:25] for s in inputs])
    for x in H25:
        assert H40[x][:25] == H25[x]


# -- relational replay checker ----------------------------------------------


@pytest.mark.parametrize("fixture", ["cnt_dn.lus", "re_trig.lus"])
def test_replay_validates_all_forms(fixture):
    import random

    from seclus.verify import random_inputs

    prog = load(fixture)
    forms = [
        (prog, "lustre"),
        (normalize_program(prog), "nlustre"),
        (fby_init(normalize_program(prog)), "nlustre"),
    ]
    for form, dialect in forms:
        for node in form.nodes:
            rng = random.Random(5)
            inputs = random_inputs(node, 30, rng)
            H = run_node(form, node.name, inputs, dialect=dialect)
            bs = [True] * 30
            assert check_history(form, node.name, H, bs) == []


def test_replay_rejects_corrupted_history(cnt_dn):
    H = run_node(cnt_dn, "cnt_dn", [[True, False, False], [3, 3, 3]])
    bad = dict(H)
    bad["cpt"] = [3, 2, 99]
    assert check_history(cnt_dn, "cnt_dn", bad, [True] * 3) != []


def test_clock_discipline():
    # variables on a derived clock are absent exactly where it is false
    src = """
    node s(c: bool; l: int) returns (o: int)
      var x: int :: base on c;
    let
      x = (l + 1) when c;
      o = merge c (x) (0 when not c);
    tel
    """
    p = parse_program(src)
    H = run_node(p, "s", [[True, False, True], [1, 2, 3]])
    assert H["x"] == [2, A, 4]
    assert H["o"] == [2, 0, 4]


# -- 64-bit values -----------------------------------------------------------------


@pytest.mark.parametrize(
    "x", [0, 1, -1, INT_MIN, INT_MAX, INT_MIN - 1, INT_MAX + 1, 2**128, -(2**128)]
)
def test_wrap_is_the_inlined_expression(x):
    # the compiled engine inlines WRAP; `wrap` must be the same function
    assert wrap(x) == eval(WRAP.format(repr(x))) == (x + 2**63) % 2**64 - 2**63
    assert INT_MIN <= wrap(x) <= INT_MAX


def test_stream_values_are_64_bit_integers():
    assert parse_value(str(INT_MIN)) == INT_MIN
    assert parse_value(str(INT_MAX)) == INT_MAX
    for text in (str(INT_MAX + 1), str(INT_MIN - 1), "1" + "0" * 40):
        with pytest.raises(EvalError):
            parse_value(text)
    with pytest.raises(EvalError):
        read_streams(f"x\n1\n{INT_MAX + 1}\n")


# -- scheduling by the targets' clocks ------------------------------------------


CLOCKED_TARGET = """
node f(a: bool) returns (y: int)
  var c: bool; z: int :: base on c;
let
  z = 1;
  c = a;
  y = merge c (z) (0 when not c);
tel
"""


def test_schedule_orders_an_equation_after_its_targets_clock():
    # `z = 1` is written first, but the constant's presence is c's value
    p = parse_program(CLOCKED_TARGET)
    order = [eq.targets for eq in schedule(p.node("f"))]
    assert order.index(("c",)) < order.index(("z",))


def test_equation_on_a_later_clock_runs_on_both_engines():
    from seclus.compiled import CompiledProgram

    p = parse_program(CLOCKED_TARGET)
    ins = [[True, False, True]]
    for form, dialect in _forms(p):
        H = run_node(form, "f", ins, dialect=dialect)
        assert H["y"] == [1, 0, 1] and H["z"] == [1, A, 1]
        assert CompiledProgram(form).run("f", ins) == H
        assert check_history(form, "f", H, [True] * 3) == []


# -- the reference evaluates sampled operands eagerly --------------------------------


LAZY_IN_COMPILED = """
node f(c: bool; x: int) returns (o: int)
  var y: int :: base on c;
let
  y = (1 div x) when c;
  o = merge c (y) (0 when not c);
tel
"""


def test_reference_evaluates_a_sampled_operand_at_every_instant():
    # the compiled engine computes `1 div x` only where c is true
    # (tests/test_compiled.py::test_merge_stays_lazy); the reference and
    # the replay compute it wherever x is present
    from seclus.compiled import CompiledProgram

    p = parse_program(LAZY_IN_COMPILED)
    ins = [[False, True], [0, 5]]
    with pytest.raises(EvalError, match="division by zero"):
        run_node(p, "f", ins)
    clean = CompiledProgram(p).run("f", ins)
    assert clean["o"] == [0, 0]
    with pytest.raises(EvalError, match="division by zero"):
        check_history(p, "f", clean, [True, True])
    ins = [[False, True], [2, 5]]
    H = run_node(p, "f", ins)
    assert H["o"] == [0, 0] and H == CompiledProgram(p).run("f", ins)
    assert check_history(p, "f", H, [True, True]) == []


# -- delays advanced in phase 2 ------------------------------------------------------


def _forms(p):
    n = normalize_program(p)
    return [(p, "lustre"), (n, "nlustre"), (fby_init(n), "nlustre")]


_BOUNDARY = tuple(range(-8, 9)) + (INT_MIN, INT_MAX, 2**53 - 1, 2**53 + 1, -(2**53) - 1)


def _agree_at_boundary_values(src, entry, N=30, trials=5):
    """Both engines give one history on every form, and it replays."""
    import random

    from seclus.compiled import CompiledProgram

    p = parse_program(src)
    for trial in range(trials):
        rng = random.Random(trial)
        ins = [
            [rng.random() < 0.5 for _ in range(N)] if d.type == "bool"
            else [rng.choice(_BOUNDARY) for _ in range(N)]
            for d in p.node(entry).inputs
        ]
        for form, dialect in _forms(p):
            H = run_node(form, entry, ins, dialect=dialect)
            assert CompiledProgram(form).run(entry, ins) == H, (trial, dialect)
            assert check_history(form, entry, H, [True] * N) == [], (trial, dialect)
    return p


def test_delay_nested_in_a_delayed_operand():
    src = "node f(x: int) returns (o: int; p: int) let o = 0 fby (x + (1 fby o)); p = (2 fby x) fby (p - x); tel"
    p = _agree_at_boundary_values(src, "f")
    H = run_node(p, "f", [[10, 20, 30, 40]])
    # o: x(i-1) + o(i-2), the inner delay reading 1 first
    assert H["o"] == [0, 11, 20, 41]
    # p: the inner delay in the first operand is read once, at instant 0
    assert H["p"] == [2, -8, -28, -58]


def test_delay_of_a_tuple_with_delays_in_both_operands():
    src = "node f(x: int) returns (a: int; b: int) let (a, b) = (0 fby x, x) fby (b, a + (1 fby x)); tel"
    p = _agree_at_boundary_values(src, "f")
    H = run_node(p, "f", [[10, 20, 30, 40]])
    assert H["a"] == [0, 10, 1, 20] and H["b"] == [10, 1, 20, 21]


def test_delays_in_call_arguments_and_branches():
    src = """
    node g(a: int; b: bool) returns (s: int) let s = a + (0 fby s); tel
    node f(c: bool; x: int) returns (o: int; m: int)
    let
      o = g(1 fby (x + o), c fby not c) + (if c then (3 fby o) else (4 fby x));
      m = merge c ((5 fby x) when c) ((x fby m) when not c);
    tel
    """
    p = _agree_at_boundary_values(src, "f")
    H = run_node(p, "f", [[True, False, False, True], [1, 2, 3, 4]])
    # g sums its first argument: 1, then x + o of the instant before;
    # both delays of the conditional advance at every instant
    assert H["o"] == [1 + 3, (1 + 5) + 1, (6 + 9) + 2, (15 + 20) + 17]
    # the sampled delays advance at every instant too, not only where
    # their branch is taken
    assert H["m"] == [5, 5, 5, 3]


def test_callee_called_twice_keeps_a_register_per_call():
    src = """
    node acc(x: int) returns (o: int) let o = x + (0 fby o); tel
    node f(c: bool; x: int) returns (p: int; q: int)
    let
      p = acc(x) - acc(x * 2);
      q = merge c (acc(x when c)) (0 fby q when not c);
    tel
    """
    p = _agree_at_boundary_values(src, "f")
    H = run_node(p, "f", [[True, False, True], [1, 2, 3]])
    assert H["p"] == [-1, -3, -6] and H["q"] == [1, 1, 4]


def test_check_history_annotates_once(monkeypatch):
    import seclus.ast as ast
    import seclus.interp as interp
    from seclus.compiled import CompiledProgram

    src = """
    node g(a: int) returns (s: int) let s = a + (0 fby s); tel
    node f(x: int) returns (o: int) let o = g(x) + g(g(x) + g(1 fby x)); tel
    """
    p = parse_program(src)
    H = run_node(p, "f", [[1, 2, 3]])
    calls = []
    real = interp.annotate_program
    monkeypatch.setattr(interp, "annotate_program", lambda q: calls.append(q) or real(q))
    for form, dialect in _forms(p):
        calls.clear()
        H = run_node(form, "f", [[1, 2, 3]], dialect=dialect)
        assert len(calls) == 1
        assert check_history(form, "f", H, [True] * 3) == []
        assert len(calls) == 2
    # the engines and the normaliser share the one annotation of a
    # program object, and the forms they derive come annotated
    built = []
    build = ast._annotate
    monkeypatch.setattr(ast, "_annotate", lambda q: built.append(q) or build(q))
    q = parse_program(src)
    interp.ReferenceProgram(q)
    CompiledProgram(q)
    n = normalize_program(q)
    assert len(built) == 1 and built[0] is q
    for form in (n, fby_init(n)):
        assert ast.annotate_program(form) is form
        assert interp.ReferenceProgram(form).prog is form
    assert len(built) == 1


# -- tuple-valued operators, calls inside expressions, inputs on a derived clock --


TUPLES_AND_DERIVED_INPUT = """
node swap(a: int; b: int) returns (p: int; q: int)
let
  p = b;
  q = a + 1;
tel

node add(a: int; b: int; k: int) returns (s: int)
let
  s = a + b - k;
tel

node f(c: bool; x: int; y: int :: base on c)
  returns (m1: int; m2: int; i1: int; i2: int; f1: int; f2: int; z: int; w: int)
let
  (m1, m2) = merge c (y, x when c) ((x, x + 1) when not c);
  (i1, i2) = if c then (x, 1) else swap(x, 2);
  (f1, f2) = (0, 1) fby swap(x, f2);
  z = add(swap(x, 3), 4) + 1;
  w = merge c (y + 1) (0 when not c);
tel
"""


def test_tuple_operators_and_an_input_on_a_derived_clock():
    from seclus.compiled import CompiledProgram

    p = parse_program(TUPLES_AND_DERIVED_INPUT)
    c = [True, False, False, True, True, False]
    x = [3, -1, 7, 0, 5, 2]
    ins = [c, x, [10 * t if on else A for t, on in enumerate(c, 1)]]
    for form, dialect in _forms(p):
        H = run_node(form, "f", ins, dialect=dialect)
        assert CompiledProgram(form).run("f", ins) == H, dialect
        assert check_history(form, "f", H, [True] * 6) == [], dialect
    assert H["m1"] == [10, -1, 7, 40, 50, 2] and H["m2"] == [3, 0, 8, 0, 5, 3]
    assert H["i1"] == [3, 2, 2, 0, 5, 2] and H["i2"] == [1, 0, 8, 1, 1, 3]
    assert H["f1"] == [0, 1, 4, 0, 8, 1] and H["f2"] == [1, 4, 0, 8, 1, 6]
    assert H["z"] == [4, 0, 8, 1, 6, 3] and H["w"] == [11, 0, 0, 41, 51, 0]
    # `y` present at an instant where `c` is false
    with pytest.raises(ClockMismatch, match="input y off its declared clock"):
        run_node(p, "f", [c, x, [1] * 6])
    # and absent where it is true
    with pytest.raises(ClockMismatch, match="input y off its declared clock"):
        run_node(p, "f", [c, x, [A] * 6])
