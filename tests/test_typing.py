"""Flow-type inference: golden signatures, eliminated local types,
agreement with the term-algebra reference, typing errors, policy
checking, and minimal instantiations."""

import itertools
import pickle
import random
import time

import pytest

import reference_typing
from seclus import typing, verify
from seclus.normalise import fby_init, normalize_program
from seclus.parser import parse_program
from seclus.sectypes import TVar, join, render, satisfies, two_point
from seclus.typing import (
    TypingError,
    check_policy,
    check_program,
    policy_instantiation,
    render_constraint,
    render_signature,
)
from seclus.verify import GenConfig, generate_program, minimal_instantiation

from conftest import leaky_pairs, load

GOLDEN = "cnt_dn(a1,a2) =>g (b1) { g|a1|a2 <= b1 }"


@pytest.fixture(scope="module")
def cnt_sig(cnt_dn_prog):
    return check_program(cnt_dn_prog)["cnt_dn"]


@pytest.fixture(scope="module")
def cnt_dn_prog():
    return load("cnt_dn.lus")


@pytest.fixture(scope="module")
def re_trig_prog():
    return load("re_trig.lus")


# -- golden signatures ---------------------------------------------------------


def test_cnt_dn_signature(cnt_dn_prog):
    assert render_signature(check_program(cnt_dn_prog)["cnt_dn"]) == GOLDEN


def test_re_trig_signatures(re_trig_prog):
    sigs = check_program(re_trig_prog)
    assert render_signature(sigs["cnt_dn"]) == GOLDEN
    assert (
        render_signature(sigs["re_trig"])
        == "re_trig(a1,a2) =>g (b1) { g|a1|a2 <= b1 }"
    )


@pytest.mark.parametrize("fixture", ["cnt_dn.lus", "re_trig.lus"])
def test_signatures_stable_across_forms(fixture):
    p = load(fixture)
    sigs = check_program(p)
    for form in (normalize_program(p), fby_init(normalize_program(p))):
        after = check_program(form)
        for name, sig in sigs.items():
            assert after[name].constraints == sig.constraints
            assert after[name].input_vars == sig.input_vars
            assert after[name].output_vars == sig.output_vars


def test_re_trig_local_types(re_trig_prog):
    sig = check_program(re_trig_prog)["re_trig"]
    assert sig.local_types == {
        "edge": frozenset({"a1", "g"}),
        "c": frozenset({"a1", "b1", "g"}),
        "v": frozenset({"a1", "a2", "b1", "g"}),
    }


def test_local_types_are_atom_sets_in_declaration_order():
    p = fby_init(normalize_program(load("re_trig.lus")))
    node, sig = p.node("re_trig"), check_program(p)["re_trig"]
    assert list(sig.local_types) == [d.name for d in node.locals]
    assert len(sig.local_types) == len(node.locals) > 3
    interface = {*sig.input_vars, *sig.output_vars, sig.clock_var}
    for atoms in sig.local_types.values():
        assert type(atoms) is frozenset and atoms <= interface
    back = pickle.loads(pickle.dumps(sig))
    assert render_signature(back) == render_signature(sig)
    assert back.local_types == sig.local_types


def test_preservation_builds_terms_only_for_constraints(monkeypatch):
    # inference builds a term for each constraint and none for a local
    real_term, real_check = typing._term, verify.check_program
    built, envs = [], []

    def term(atoms):
        built.append(atoms)
        return real_term(atoms)

    def recording(prog):
        envs.append(real_check(prog))
        return envs[-1]

    monkeypatch.setattr(typing, "_term", term)
    monkeypatch.setattr(verify, "check_program", recording)
    progs = [load("cnt_dn.lus"), load("re_trig.lus")]
    progs += [generate_program(GenConfig(seed=seed)) for seed in range(20)]
    for p in progs:
        verify.check_preservation(p)
    assert len(envs) == 3 * len(progs)
    assert sum(len(sig.local_types) for env in envs for sig in env.values()) > 0
    assert len(built) == sum(len(sig.constraints) for env in envs for sig in env.values())


def test_term_is_the_canonical_join():
    names = ["g", "a1", "a2", "a10", "b1", "b2", "d1", "d9", "d10", "d11", "d100"]
    rng = random.Random(13)
    cases = [frozenset(), frozenset(["d9"]), frozenset(["d9", "d10", "a1", "g"])]
    cases += [frozenset(rng.sample(names, rng.randint(0, len(names)))) for _ in range(300)]
    for atoms in cases:
        assert typing._term(atoms) == join(*map(TVar, atoms)), atoms


def test_fresh_names_deterministic(cnt_dn_prog):
    a = check_program(cnt_dn_prog)["cnt_dn"]
    b = check_program(cnt_dn_prog)["cnt_dn"]
    assert a == b
    assert a.input_vars == ("a1", "a2")
    assert a.output_vars == ("b1",)
    assert a.clock_var == "g"


# -- policies ------------------------------------------------------------------


def test_policy_accepted(cnt_dn_prog, cnt_sig):
    lat = two_point()
    node = cnt_dn_prog.node("cnt_dn")
    pol = policy_instantiation(
        node, cnt_sig, {"res": "L", "n": "L", "cpt": "L", "base": "L"}
    )
    assert check_policy(cnt_sig, pol, lat).secure


def test_policy_high_output_accepted(cnt_dn_prog, cnt_sig):
    lat = two_point()
    node = cnt_dn_prog.node("cnt_dn")
    pol = policy_instantiation(
        node, cnt_sig, {"res": "H", "n": "H", "cpt": "H", "base": "L"}
    )
    assert check_policy(cnt_sig, pol, lat).secure


def test_policy_rejected_with_witness(cnt_dn_prog, cnt_sig):
    lat = two_point()
    node = cnt_dn_prog.node("cnt_dn")
    pol = policy_instantiation(
        node, cnt_sig, {"res": "H", "n": "L", "cpt": "L", "base": "L"}
    )
    r = check_policy(cnt_sig, pol, lat)
    assert not r.secure
    assert r.violation is not None
    assert r.witness == {"a1": "H", "a2": "L", "b1": "L", "g": "L"}


def test_policy_errors(cnt_dn_prog, cnt_sig):
    lat = two_point()
    node = cnt_dn_prog.node("cnt_dn")
    with pytest.raises(TypingError):
        check_policy(cnt_sig, {"a1": "L"}, lat)  # incomplete
    with pytest.raises(TypingError):
        check_policy(
            cnt_sig, {"a1": "M", "a2": "L", "b1": "L", "g": "L"}, lat
        )  # not a lattice element
    with pytest.raises(TypingError):
        policy_instantiation(node, cnt_sig, {"nope": "L"})


def _printed_constraints(sig):
    """The signature's constraints in the order its line prints them."""
    line = render_signature(sig)
    body = line[line.index("{") + 1 : -1].strip()
    by_text = {render_constraint(c): c for c in sig.constraints}
    return [by_text[text] for text in body.split(", ")] if body else []


# four outputs that read inputs and one another
MULTI = """
node m(x: int; y: int) returns (p: int; q: int; r: int; s: int)
let p = x; q = y + p; r = 0 fby q; s = 1; tel
"""


def test_check_policy_agrees_with_satisfies():
    # every 2point policy of each entry node: the verdict is the term
    # algebra's, and a violation is the first one the signature prints
    lat = two_point()
    sigs = [check_program(parse_program(MULTI))["m"]]
    for seed in range(100):
        p = generate_program(GenConfig(seed=seed))
        sigs.append(check_program(p)[p.nodes[-1].name])
    violations = 0
    for sig in sigs:
        order = _printed_constraints(sig)
        assert sorted(order, key=str) == sorted(sig.constraints, key=str)
        names = (*sig.input_vars, *sig.output_vars, sig.clock_var)
        for levels in itertools.product(lat.elements, repeat=len(names)):
            s = dict(zip(names, levels))
            res = check_policy(sig, s, lat)
            assert res.secure == satisfies(s, sig.constraints, lat)
            violated = [c for c in order if not satisfies(s, [c], lat)]
            assert res.violation == (violated[0] if violated else None)
            assert res.witness == (s if violated else None)
            violations += len(violated) > 1
    assert violations > 0  # some policies violate more than one constraint


def test_constraints_print_in_the_order_of_their_variables():
    outs = range(1, 12)
    src = (
        f"node f(x: int; y: int) returns ({'; '.join(f'o{i}: int' for i in outs)})"
        f" let {' '.join(f'o{i} = {chr(120 + i % 2)};' for i in outs)} tel"
    )
    sig = check_program(parse_program(src))["f"]
    assert [c.rhs.name for c in _printed_constraints(sig)] == [f"b{i}" for i in outs]
    assert render_signature(sig).startswith(
        "f(a1,a2) =>g (b1,b2,b3,b4,b5,b6,b7,b8,b9,b10,b11)"
        " { g|a2 <= b1, g|a1 <= b2, g|a2 <= b3,"
    )
    assert render_signature(sig).endswith("g|a1 <= b10, g|a2 <= b11 }")


# -- minimal instantiation -----------------------------------------------------


def test_minimal_instantiation(cnt_sig):
    lat = two_point()
    low = minimal_instantiation(cnt_sig, {"a1": "L", "a2": "L"}, "L", lat)
    assert low == {"g": "L", "a1": "L", "a2": "L", "b1": "L"}
    hi = minimal_instantiation(cnt_sig, {"a1": "H", "a2": "L"}, "L", lat)
    assert hi["b1"] == "H"
    clk = minimal_instantiation(cnt_sig, {"a1": "L", "a2": "L"}, "H", lat)
    assert clk["b1"] == "H"  # the base clock flows into every output


# -- structural typing rules ---------------------------------------------------


def test_constant_takes_clock_level_only():
    p = parse_program("node k(i: int) returns (o: int) let o = 42; tel")
    sig = check_program(p)["k"]
    assert render_signature(sig) == "k(a1) =>g (b1) { g <= b1 }"


def test_unused_input_not_constrained():
    p = parse_program("node f(x: int; y: int) returns (o: int) let o = x; tel")
    sig = check_program(p)["f"]
    assert render_signature(sig) == "f(a1,a2) =>g (b1) { g|a1 <= b1 }"


def test_call_propagates_callee_contract():
    src = """
    node inc(x: int) returns (o: int) let o = x + 1; tel
    node top(a: int; b: int) returns (o: int) let o = inc(a); tel
    """
    sigs = check_program(parse_program(src))
    assert render_signature(sigs["top"]) == "top(a1,a2) =>g (b1) { g|a1 <= b1 }"


def test_merge_scrutinee_taints_result():
    src = """
    node m(c: bool; l: int) returns (o: int)
    let o = merge c ((l + 1) when c) ((l - 1) when not c); tel
    """
    sig = check_program(parse_program(src))["m"]
    # the boolean driving the branch selection appears in the bound
    assert render_signature(sig) == "m(a1,a2) =>g (b1) { g|a1|a2 <= b1 }"


def test_two_outputs_independent_bounds():
    src = """
    node two(x: int; y: int) returns (p: int; q: int)
    let p = x; q = y; tel
    """
    sig = check_program(parse_program(src))["two"]
    assert (
        render_signature(sig)
        == "two(a1,a2) =>g (b1,b2) { g|a1 <= b1, g|a2 <= b2 }"
    )


# -- agreement with the term-algebra reference ----------------------------------


def _three_forms(p):
    n = normalize_program(p)
    return (p, n, fby_init(n))


def _rendered(sigs, local_term):
    return {
        name: (
            render_signature(sig),
            sig.constraints,
            {x: render(local_term(t)) for x, t in sig.local_types.items()},
        )
        for name, sig in sigs.items()
    }


def _corpus():
    yield from ("cnt_dn.lus", "re_trig.lus")
    for lus, _ in leaky_pairs():
        yield "leaky/" + lus.rsplit("/", 1)[1]
    yield from range(100)


@pytest.mark.parametrize("case", list(_corpus()))
def test_signatures_equal_reference_on_three_forms(case):
    p = load(case) if isinstance(case, str) else generate_program(GenConfig(seed=case))
    # the reference keeps each local's type as its term
    for form in _three_forms(p):
        assert _rendered(check_program(form), typing._term) == _rendered(
            reference_typing.check_program(form), lambda t: t
        )


# -- typing errors -------------------------------------------------------------


@pytest.mark.parametrize(
    "src, message",
    [
        ("node f(x: int) returns (o: int) let o = y; tel", "unbound variable 'y'"),
        ("node f(x: int) returns (o: int) let o = g(x); tel", "unknown node 'g'"),
        (
            "node g(x: int; y: int) returns (o: int) let o = x + y; tel\n"
            "node f(x: int) returns (o: int) let o = g(x); tel",
            "call to 'g': 1 argument streams, signature has 2",
        ),
        ("node f(x: int) returns (o: int; p: int) let (o, p) = x; tel", "width mismatch"),
        (
            "node f(c: bool; x: int) returns (o: int) let o = if c then (x, x) else x; tel",
            "branch width mismatch",
        ),
        (
            "node f(x: int) returns (o: int) var v: int; let v = x; v = 1; o = v; tel",
            "2 constraints define 'd1'; expected exactly one",
        ),
        (
            "node f(x: int) returns (o: int) var v: int; let o = v; tel",
            "0 constraints define 'd1'; expected exactly one",
        ),
    ],
)
@pytest.mark.parametrize("check", [check_program, reference_typing.check_program])
def test_typing_errors(src, message, check):
    with pytest.raises(TypingError, match=message):
        check(parse_program(src))


def test_undefined_unused_local_is_bottom():
    p = parse_program("node f(x: int) returns (o: int) var v: int; let o = x; tel")
    sig = check_program(p)["f"]
    assert sig.local_types["v"] == frozenset()
    assert render_signature(sig) == "f(a1) =>g (b1) { g|a1 <= b1 }"


def test_closing_a_long_chain_is_linear():
    # a budget: a chain d0 <= d1 <= ... <= d39999 <= a closes within 2 s
    # of process time (about 0.5 s on a 2-core host; popping each
    # Tarjan component by a search of the stack took over 10 s)
    n = 40_000
    bounds = {f"d{i}": {frozenset({f"d{i + 1}"})} for i in range(n - 1)}
    bounds[f"d{n - 1}"] = {frozenset({"a"})}
    start = time.process_time()
    closed = typing._close(bounds, [f"d{i}" for i in range(n)])
    elapsed = time.process_time() - start
    assert set(closed.values()) == {frozenset({"a"})} and len(closed) == n
    assert elapsed < 2.0, elapsed
