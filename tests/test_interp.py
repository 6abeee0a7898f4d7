"""Semantic operators against hand-derived oracles, the evaluator, and
the relational replay checker."""

import itertools
import random

import pytest

from seclus.ast import BASE, On
from seclus.interp import (
    ABSENT,
    INT_MAX,
    INT_MIN,
    BINARY_TEMPLATES,
    UNARY_TEMPLATES,
    WRAP,
    _BINARY,
    _FIRST,
    _UNARY,
    _built,
    _delay,
    _reader,
    ClockMismatch,
    CausalityError,
    EvalError,
    base_of,
    int_div,
    int_mod,
    parse_value,
    read_streams,
    check_history,
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


_X_ON = On(BASE, "x", True)


@pytest.mark.parametrize(
    "op, args, message",
    [
        (sem_lift2, ("+", [1, 1], [2, A]), "mixed presence in binary operator"),
        (sem_lift2, ("+", [A], [2]), "mixed presence in binary operator"),
        (sem_when, (True, [True, A], [1, 2]), "mixed presence in sampling"),
        (sem_when, (True, [False], [A]), "mixed presence in sampling"),
        (sem_merge, ([A], [1], [A]), "merge branch present under absent scrutinee"),
        (sem_merge, ([A], [A], [2]), "merge branch present under absent scrutinee"),
        (sem_merge, ([True], [A], [A]), "merge true-branch presence mismatch"),
        (sem_merge, ([False, True], [A, 1], [2, 2]), "merge true-branch presence mismatch"),
        (sem_merge, ([False], [A], [A]), "merge false-branch presence mismatch"),
        (sem_merge, ([False], [1], [2]), "merge false-branch presence mismatch"),
        (sem_ite, ([True], [A], [2]), "mixed presence in conditional"),
        (sem_ite, ([True], [1], [A]), "mixed presence in conditional"),
        (sem_ite, ([A, A], [A, 1], [A, 2]), "mixed presence in conditional"),
        (sem_ite, ([False], [A], [A]), "mixed presence in conditional"),
        (sem_fby_L, ([1, 2], [10, A]), "mixed presence in delay"),
        (sem_fby_L, ([A], [10]), "mixed presence in delay"),
        (sem_clock, ({"x": [True, A]}, [True, True], _X_ON), "x absent while its clock ticks"),
        (sem_clock, ({"x": [False]}, [False], _X_ON), "x present while its clock is off"),
    ],
)
def test_sem_mixed_presence_messages(op, args, message):
    with pytest.raises(ClockMismatch) as exc:
        op(*args)
    assert str(exc.value) == message


# -- the reference engine's closures against the whole-stream operators --------

# each operator's closure, built from its operands, the whole-stream
# operator it must agree with, and the values each operand takes at one
# instant (None is absence)
CLOSURES = {
    "neg": (lambda o: _reader("lift1", "-", o), lambda a: sem_lift1("-", [a]), [(5, INT_MIN, A)]),
    "not": (lambda o: _reader("lift1", "not", o), lambda a: sem_lift1("not", [a]), [(True, A)]),
    "plus": (
        lambda o: _reader("lift2", "+", o), lambda a, b: sem_lift2("+", [a], [b]), [(INT_MAX, A), (1, A)],
    ),
    "div": (lambda o: _reader("lift2", "div", o), lambda a, b: sem_lift2("div", [a], [b]), [(7, A), (0, -2, A)]),
    "xor": (
        lambda o: _reader("lift2", "xor", o), lambda a, b: sem_lift2("xor", [a], [b]),
        [(True, A), (True, False, A)],
    ),
    "when": (
        lambda o: _reader("sample", None, o, True), lambda x, v: sem_when(True, [x], [v]),
        [(True, False, A), (3, A)],
    ),
    "when not": (
        lambda o: _reader("sample", None, o, False), lambda x, v: sem_when(False, [x], [v]),
        [(True, False, A), (3, A)],
    ),
    "merge": (
        lambda o: _reader("choose", None, o), lambda x, t, e: sem_merge([x], [t], [e]),
        [(True, False, A), (1, A), (2, A)],
    ),
    "if": (
        lambda o: _reader("select", None, o), lambda c, t, e: sem_ite([c], [t], [e]),
        [(True, False, A), (1, A), (2, A)],
    ),
}


def _outcome(fn, *args):
    """What `fn(*args)` returns, or the type and message of the error it
    raises, by `repr`, which tells True from 1."""
    try:
        return repr(fn(*args))
    except (ClockMismatch, EvalError) as exc:
        return type(exc).__name__, str(exc)


def _frame(values, slots):
    """A frame holding `values`, and each as an operand of the reference
    engine: its slot, or a closure that reads it."""
    return list(values), [j if slot else (lambda f, j=j: f[j]) for j, slot in enumerate(slots)]


@pytest.mark.parametrize("construct", CLOSURES)
def test_the_closure_of_an_operator_agrees_with_its_whole_stream_operator(construct):
    # every operand kind and every value, absences included: the same
    # value, or the same error
    build, sem, domains = CLOSURES[construct]
    for slots in itertools.product((True, False), repeat=len(domains)):
        for values in itertools.product(*domains):
            f, operands = _frame(values, slots)
            read = build(operands)
            want = _outcome(lambda: sem(*values)[0])
            assert _outcome(read, f) == want, (slots, values)


def test_the_closures_of_a_delay_agree_with_sem_fby_L():
    # the read and the commit of one delay over one and two instants, its
    # first operand read in place (its own saved head) or called
    for slots in itertools.product((True, False), repeat=2):
        for xs in itertools.product((1, A), (2, A)):
            for ys in itertools.product((10, A), (20, A)):
                for n in (1, 2):
                    f, (init, rest) = _frame((None, None, _FIRST, None), slots)
                    fby, commit = _delay(init, rest, 2, 0 if slots[0] else 3, "mixed presence in delay")

                    def run():
                        out = []
                        for x, y in zip(xs[:n], ys[:n]):
                            f[0], f[1] = x, y
                            out.append(fby(f))
                            commit(f)
                        return out

                    assert _outcome(run) == _outcome(sem_fby_L, xs[:n], ys[:n]), (slots, xs, ys, n)


def test_the_closure_of_a_clock_agrees_with_sem_clock():
    # `base on x` and `base on y on x`, at instants where the base clock
    # ticks and where it does not
    for k in (True, False):
        for base, x, y in itertools.product((True, False), (True, False, A), (True, False, A)):
            f = [x, y]
            on_y = _built("clock", True)(None, 1, "y", True)
            for ck, parent in ((On(BASE, "x", k), None), (On(On(BASE, "y", True), "x", k), on_y)):
                on = _built("clock", parent is None)(parent, 0, "x", k)
                want = _outcome(lambda: sem_clock({"x": [x], "y": [y]}, [base], ck)[0])
                assert _outcome(on, f, base) == want, (ck, base, x, y)


def test_base_of():
    assert base_of([[1, A, 2]]) == [True, False, True]
    assert base_of([[], []]) == []
    with pytest.raises(ClockMismatch):
        base_of([[1, A], [1, 2]])


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


@pytest.mark.parametrize(
    "src, inputs",
    [
        # a callee without inputs, called on its caller's base clock
        (
            "node z() returns (o: int) let o = 4; tel"
            " node f(x: int) returns (q: int) let q = z() + x; tel",
            [[1, 2, 3]],
        ),
        # and with a delay, called on a sampled clock: it steps only
        # where its call's clock ticks
        (
            "node z() returns (o: int) let o = 0 fby (o + 1); tel"
            " node f(x: int; c: bool) returns (q: int) var y: int :: base on c;"
            " let y = z(); q = merge c (y) (x when not c); tel",
            [[1, 2, 3, 4, 5], [True, False, True, True, False]],
        ),
    ],
)
def test_replay_of_a_callee_without_inputs(src, inputs):
    p = parse_program(src)
    H = run_node(p, "f", inputs)
    assert check_history(p, "f", H, [True] * len(inputs[0])) == []
    bad = dict(H)
    bad["q"] = [H["q"][0] + 1] + H["q"][1:]
    assert check_history(p, "f", bad, [True] * len(inputs[0])) != []


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
    "x",
    [0, 1, -1, INT_MIN, INT_MAX, INT_MIN - 1, INT_MAX + 1, INT_MIN + 1, INT_MAX - 1]
    + [2**64 + 1, 2**64 - 1, -(2**64) + 1, -(2**64) - 1]
    + [2**127, -(2**127), 2**128, -(2**128)],
)
def test_wrap_is_the_inlined_expression(x):
    # the compiled engine inlines WRAP; `wrap` must be the same function
    assert wrap(x) == eval(WRAP.format(repr(x))) == (x + 2**63) % 2**64 - 2**63
    assert INT_MIN <= wrap(x) <= INT_MAX


INTS = [INT_MIN, INT_MIN + 1, -3, -2, -1, 0, 1, 2, 3, INT_MAX - 1, INT_MAX]


def _wrapped(x):
    return (x + 2**63) % 2**64 - 2**63


def _quotient(a, b):
    # rounded toward zero
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


# each operator written out: the exact result, wrapped to 64 bits
ORACLE = {
    "+": lambda a, b: _wrapped(a + b),
    "-": lambda a, b: _wrapped(a - b),
    "*": lambda a, b: _wrapped(a * b),
    "div": lambda a, b: _wrapped(_quotient(a, b)),
    "mod": lambda a, b: _wrapped(a - b * _quotient(a, b)),
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "and": lambda a, b: a and b,
    "or": lambda a, b: a or b,
    "xor": lambda a, b: a != b,
}
UNARY_ORACLE = {"-": lambda a: _wrapped(-a), "not": lambda a: not a}
TEXT = {"div": int_div, "mod": int_mod}


def _operands(op):
    return [False, True] if op in ("and", "or", "xor", "not") else INTS


@pytest.mark.parametrize("op", sorted(BINARY_TEMPLATES))
def test_binary_operators_equal_their_text_and_written_out_semantics(op):
    # `_BINARY` is compiled from the template that the compiled engine
    # prints; both must be the operator's written-out semantics
    assert set(BINARY_TEMPLATES) == set(ORACLE) == set(_BINARY)
    values = _operands(op) + ([False, True] if op in ("=", "<>") else [])
    for a in values:
        for b in values:
            if type(a) is not type(b):
                continue
            text = BINARY_TEMPLATES[op].format(f"({a!r})", f"({b!r})")
            if op in ("div", "mod") and b == 0:
                with pytest.raises(EvalError):
                    _BINARY[op](a, b)
                with pytest.raises(EvalError):
                    eval(text, dict(TEXT))
                continue
            want = ORACLE[op](a, b)
            got = _BINARY[op](a, b), eval(text, dict(TEXT))
            assert got == (want, want) and {type(v) for v in got} == {type(want)}, (a, b)
            assert type(want) is bool or INT_MIN <= want <= INT_MAX


@pytest.mark.parametrize("op", sorted(UNARY_TEMPLATES))
def test_unary_operators_equal_their_text_and_written_out_semantics(op):
    assert set(UNARY_TEMPLATES) == set(UNARY_ORACLE) == set(_UNARY)
    for a in _operands(op):
        want = UNARY_ORACLE[op](a)
        got = _UNARY[op](a), eval(UNARY_TEMPLATES[op].format(f"({a!r})"), dict(TEXT))
        assert got == (want, want) and {type(v) for v in got} == {type(want)}, a


def test_wrap_equals_the_masking_oracle_on_random_130_bit_integers():
    # the range test skips the masking only where it is the identity
    rng = random.Random(130)
    for _ in range(1000):
        x = rng.getrandbits(130) - 2**129
        assert wrap(x) == ((x + 2**63) & (2**64 - 1)) - 2**63, x


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


SAMPLED_DIVISION = """
node f(c: bool; x: int) returns (o: int)
  var y: int :: base on c;
let
  y = (1 div x) when c;
  o = merge c (y) (0 when not c);
tel
"""


def test_reference_evaluates_a_sampled_operand_at_every_instant():
    # both engines and the replay compute `1 div x` wherever x is
    # present, also where c is false and the sample is dropped
    from seclus.compiled import CompiledProgram

    p = parse_program(SAMPLED_DIVISION)
    ins = [[False, True], [0, 5]]
    with pytest.raises(EvalError, match="division by zero"):
        run_node(p, "f", ins)
    with pytest.raises(EvalError, match="division by zero"):
        CompiledProgram(p).run("f", ins)
    H = {"c": [False, True], "x": [0, 5], "o": [0, 0], "y": [A, 0]}
    with pytest.raises(EvalError, match="division by zero"):
        check_history(p, "f", H, [True, True])
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
    # `y` present at an instant where `c` is false, absent where it is
    # true, and present where the base clock is off: both engines check
    # the declared clock of an input
    off = [c[:5] + [A], x[:5] + [A], [10 * t if on else A for t, on in enumerate(c, 1)]]
    off[2][5] = 1
    for ins in ([c, x, [1] * 6], [c, x, [A] * 6], off):
        with pytest.raises(ClockMismatch, match="input y off its declared clock"):
            run_node(p, "f", ins)
        with pytest.raises(ClockMismatch, match="input y off its declared clock"):
            CompiledProgram(p).run("f", ins, want=["w"])


STATE_UNDER_TUPLES = """
node acc(x: int) returns (s: int; n: int)
let
  s = x + (0 fby s);
  n = (0 fby n) + 1;
tel

node flip(x: int) returns (b: bool)
let
  b = (x > 0) xor (false fby b);
tel

node f(c: bool; x: int)
  returns (i1: int; i2: int; m1: int; m2: int; f1: int; f2: int; j1: int; j2: int; d1: int; d2: int)
let
  (i1, i2) = if c then acc(x) else (x, 0);
  (m1, m2) = merge c (acc(x) when c) (acc(2 * x) when not c);
  (f1, f2) = (0, 0) fby acc(x + f1);
  (j1, j2) = if flip(x) then (x, 1) else (2, x);
  (d1, d2) = (0, 0) fby (if flip(x - 1) then (x, 1) else (x + 10, x));
tel
"""


def test_a_stateful_call_under_a_tuple_operator_steps_once_per_instant():
    # each call, and each tuple condition, runs once per instant however
    # many component streams read it: a second step would move the
    # callee's registers again (`acc`'s count `n`, `flip`'s toggle)
    from seclus.compiled import CompiledProgram

    p = parse_program(STATE_UNDER_TUPLES)
    ins = [[True, False, True, True, False], [1, 2, 3, -1, 4]]
    for form, dialect in _forms(p):
        H = run_node(form, "f", ins, dialect=dialect)
        assert CompiledProgram(form).run("f", ins) == H, dialect
        assert check_history(form, "f", H, [True] * 5) == [], dialect
        # under a tuple `if`: acc's sums 1, 3, 6, 5, 9 where c holds
        assert H["i1"] == [1, 2, 6, 5, 4] and H["i2"] == [1, 0, 3, 4, 0], dialect
        # under `merge`: both branches' calls run at every instant
        assert H["m1"] == [1, 6, 6, 5, 18] and H["m2"] == [1, 2, 3, 4, 5], dialect
        # in a tuple delay's second operand: acc(x + f1) of the instant before
        assert H["f1"] == [0, 1, 4, 11, 21] and H["f2"] == [0, 1, 2, 3, 4], dialect
        # a tuple condition that calls a stateful node: flip(x) is
        # true, false, true, true, false
        assert H["j1"] == [1, 2, 3, -1, 2] and H["j2"] == [1, 2, 1, 1, 4], dialect
        # the same in a delayed operand: flip(x - 1) is false, true,
        # false, false, true
        assert H["d1"] == [0, 11, 2, 13, 9] and H["d2"] == [0, 1, 1, 3, -1], dialect


# -- operands read in place from their frame slots -----------------------------


SLOT_OPERANDS = """
node g(a: int; b: int) returns (s: int; e: int)
let
  s = a + b;
  e = a - (0 fby b);
tel

node h(a: int) returns (o: int)
let
  o = a * 2;
tel

node f(c: bool; x: int; y: int)
  returns (k3: bool; k1: int; k2: bool; k4: int :: base on c; k6: int :: base on not c;
           k7: int; m1: int; m2: int; k8: int :: base on c; k9: int :: base on c;
           i1: int; i2: int; j1: int; j2: int; w1: int :: base on c; w2: int :: base on c;
           d1: int; d2: int; d3: int; d4: int; s1: int; e1: int; s2: int; e2: int;
           q1: int; q2: int; n1: int; n2: int; p1: int; p2: int; p3: int :: base on c;
           t1: int; t2: int)
let
  k3 = not true or c;
  k1 = 1 + 2 * x;
  k2 = x - 1 > y;
  k4 = 1 when c;
  k6 = y when not c;
  k7 = merge c k4 k6;
  (m1, m2) = merge c (k4, x when c) ((y, 5) when not c);
  k8 = 7;
  k9 = (x when c) + 1;
  (i1, i2) = if c then (x, x + 1) else (1, y);
  (j1, j2) = if x > y then (y, 2) else (x, x * y);
  (w1, w2) = (x, x + y) when c;
  d1 = 0 fby x;
  d2 = x fby (d2 + y);
  d3 = (x + 1) fby y;
  d4 = 0 fby (x + (1 fby d4));
  (s1, e1) = g(x, 1);
  (s2, e2) = g(x + 1, y);
  q1 = h(x) + h(3);
  q2 = h(x * y);
  n1 = -x;
  n2 = -(x + y);
  p1 = x;
  p2 = 1;
  p3 = k4;
  (t1, t2) = (0, 1) fby g(y, x);
tel
"""


def test_every_slot_path_of_the_reference_engine():
    # a variable, a base-clocked constant, a hoisted tuple condition and
    # a call's output are read in place; operators' results are closures.
    # The operands of each operator, delay and call below are all slots,
    # all closures, or a mix of both
    from seclus.compiled import CompiledProgram

    p = parse_program(SLOT_OPERANDS)
    ins = [[True, False, True, False], [1, 2, 3, 4], [2, 5, 1, 0]]
    written = {
        # base-clocked constants as operands of `+`, `*`, `not`, `or`, `when`
        "k3": [True, False, True, False], "k1": [3, 5, 7, 9], "k2": [False, False, True, True],
        "k4": [1, A, 1, A], "k6": [A, 5, A, 0],
        # `merge` of two slots, and a tuple `merge` of slots and closures
        "k7": [1, 5, 1, 0], "m1": [1, 5, 1, 0], "m2": [1, 5, 3, 5],
        # constants on a derived clock
        "k8": [7, A, 7, A], "k9": [2, A, 4, A],
        # tuple `if` on a slot and on a hoisted condition, tuple `when`
        "i1": [1, 1, 3, 1], "i2": [2, 5, 4, 0], "j1": [1, 2, 1, 0], "j2": [2, 10, 2, 2],
        "w1": [1, A, 3, A], "w2": [3, A, 4, A],
        # delays with a constant, a variable and an expression as head,
        # and one nested in a second operand
        "d1": [0, 1, 2, 3], "d2": [1, 3, 8, 9], "d3": [2, 2, 5, 1], "d4": [0, 2, 2, 5],
        # calls whose arguments are all slots (two or one) or mixed
        "s1": [2, 3, 4, 5], "e1": [1, 1, 2, 3], "s2": [4, 8, 5, 5], "e2": [2, 1, -1, 4],
        "q1": [8, 10, 12, 14], "q2": [4, 20, 6, 0],
        # `-` of a slot and of a closure
        "n1": [-1, -2, -3, -4], "n2": [-3, -7, -4, -4],
        # copies of a variable and of a constant (the int 1, which the
        # bool `true` read first must not stand for), on the base clock
        # and on a derived one
        "p1": [1, 2, 3, 4], "p2": [1, 1, 1, 1], "p3": [1, A, 1, A],
        # a delay of both outputs of a call in expression position
        "t1": [0, 3, 7, 4], "t2": [1, 2, 4, -1],
    }
    for form, dialect in _forms(p):
        H = run_node(form, "f", ins, dialect=dialect)
        # compared by `repr`, which tells True from 1
        assert {x: repr(H[x]) for x in written} == {x: repr(s) for x, s in written.items()}, dialect
        assert check_history(form, "f", H, [True] * 4) == [], dialect
        assert CompiledProgram(form).run("f", ins) == H, dialect
