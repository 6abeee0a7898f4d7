"""Empirical harnesses: signature preservation, differential execution,
non-interference probing, and the random program generator itself."""

import dataclasses
import itertools
import random
import re

import pytest

from seclus.ast import Const, FbyEq, Node, Program, validate
from seclus.compiled import CompiledProgram
from seclus.interp import EvalError, run_node, schedule
from seclus.normalise import fby_init, normalize_program
from seclus.parser import parse_program
from seclus.sectypes import (
    Constraint,
    TVar,
    eval_ground,
    implies,
    powerset_lattice,
    satisfies,
    two_point,
)
from seclus.typing import check_program
from seclus import compiled, typing, verify
from seclus.verify import (
    GenConfig,
    check_noninterference,
    check_preservation,
    differential_semantics,
    generate_program,
    minimal_instantiation,
    report_json,
    variable_levels,
)

from conftest import leaky_pairs, load
from reference_ni import reference_minimal_instantiation


# -- preservation ---------------------------------------------------------------


@pytest.mark.parametrize("fixture", ["cnt_dn.lus", "re_trig.lus"])
def test_preservation_on_fixtures(fixture):
    for v in check_preservation(load(fixture)):
        assert v.ok
        # both passes preserve the constraint sets exactly here
        assert v.denesting_equal and v.init_equal
        assert v.witness is None


def test_preservation_on_generated_programs():
    for seed in range(25):
        for v in check_preservation(generate_program(GenConfig(seed=seed))):
            assert v.ok, v


def test_implication_failure_carries_witness():
    # a strictly stronger "after" set is not implied; the reported
    # assignment satisfies the lhs but not the rhs
    a, b, g = TVar("a1"), TVar("b1"), TVar("g")
    before = [Constraint(a, b)]
    after = [Constraint(a, b), Constraint(g, b)]
    r = implies(before, after)
    assert not r.holds and r.witness is not None
    lat = two_point()
    assert satisfies(r.witness, before, lat)
    assert not satisfies(r.witness, after, lat)


def test_preservation_fails_when_denesting_adds_a_flow(monkeypatch):
    # a de-nested form whose output also reads y is not implied by o = x
    src = "node f(x: int; y: int) returns (o: int) let o = {}; tel"
    leaky = normalize_program(parse_program(src.format("x + y")))
    monkeypatch.setattr(verify, "normalize_program", lambda prog: leaky)
    (v,) = check_preservation(parse_program(src.format("x")))
    assert not v.ok and not v.denesting_implied and not v.denesting_equal
    assert v.witness["pass"] == "denesting"
    before = check_program(parse_program(src.format("x")))["f"].constraints
    after = check_program(leaky)["f"].constraints
    lat = two_point()
    assert satisfies(v.witness["assignment"], before, lat)
    assert not satisfies(v.witness["assignment"], after, lat)


# -- differential execution -------------------------------------------------------


@pytest.mark.parametrize("fixture", ["cnt_dn.lus", "re_trig.lus"])
def test_differential_on_fixtures(fixture):
    rep = differential_semantics(load(fixture), trials=25, N=50, nodes="all")
    assert rep.ok and rep.divergences == ()


def test_each_harness_denests_once(monkeypatch):
    import seclus.verify as verify

    calls = []

    def counting(prog):
        calls.append(prog)
        return normalize_program(prog)

    monkeypatch.setattr(verify, "normalize_program", counting)
    p = load("re_trig.lus")
    check_preservation(p)
    assert len(calls) == 1
    differential_semantics(p, trials=2, N=5)
    assert len(calls) == 2


def test_differential_engines_agree():
    p = load("re_trig.lus")
    a = differential_semantics(p, trials=10, N=30, engine="compiled")
    b = differential_semantics(p, trials=10, N=30, engine="reference")
    assert report_json(a) == report_json(b)


def _spied_runs(monkeypatch):
    """Every compiled run, as the program object it runs, in order."""
    runs = []
    run = CompiledProgram.run

    def spy(self, *args, **kwargs):
        runs.append(self.prog)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(CompiledProgram, "run", spy)
    return runs


@pytest.mark.parametrize(
    "src, distinct",
    [
        # no delay and no call: the three forms generate the same code
        ("node f(a: int; b: int) returns (o: int) var x: int; let x = a * 3; o = x + b; tel", 1),
        # a delay with a variable head, which every form lowers to a
        # register selected by a first-instant flag
        ("node f(a: int) returns (o: int) let o = a fby (o + a); tel", 1),
        # and a call in expression position, whose output the de-nested
        # forms name `v1`
        (
            "node d(x: int) returns (y: int) let y = x fby (y + x); tel"
            " node f(a: int) returns (o: int) let o = d(a + 1) * 2; tel",
            2,
        ),
        # and a delay on a sampled clock, whose flag and register the
        # fby-init form names by variables of that clock: an atom on a
        # derived clock is its variable's code, so the de-nested and
        # fby-init forms still share one code
        (
            "node d(x: int) returns (y: int) let y = x fby (y + x); tel"
            " node f(a: int; c: bool) returns (o: int) var y: int :: base on c;"
            " let y = (a when c) fby (y + (1 when c));"
            " o = merge c (y) (0 when not c) + d(a + 1); tel",
            2,
        ),
    ],
)
def test_forms_with_the_same_step_code_run_once_per_trial(monkeypatch, src, distinct):
    p = parse_program(src)
    runs = _spied_runs(monkeypatch)
    rep = differential_semantics(p, trials=6, N=20, seed=3)
    # the forms' texts are compared before the first trial, so every
    # trial runs each distinct code once
    assert len(runs) == 6 * distinct
    assert len(set(map(id, runs))) == distinct
    denested = normalize_program(p)
    forms = [CompiledProgram(form) for form in (p, denested, fby_init(denested))]
    assert {id(cp.prog) for cp in forms} >= set(map(id, runs))
    assert len({cp.source("f", ["o"]) for cp in forms}) == distinct
    # the same report as with a run of every form at every trial
    monkeypatch.setattr(CompiledProgram, "source", lambda self, name, want=None: object())
    assert report_json(differential_semantics(p, trials=6, N=20, seed=3)) == report_json(rep)
    assert len(runs) == 6 * distinct + 18


def test_each_distinct_step_code_is_compiled_once(monkeypatch):
    # every text that Python's `compile` is given, through the compiled
    # engine's own global, as `_spied_runs` spies on the runs
    texts = []

    def spy(source, *args, **kwargs):
        texts.append(source)
        return compile(source, *args, **kwargs)

    monkeypatch.setattr(compiled, "compile", spy, raising=False)
    programs = [load("cnt_dn.lus"), load("re_trig.lus")]
    programs += [generate_program(GenConfig(seed=seed)) for seed in range(20)]
    for p in programs:
        texts.clear()
        differential_semantics(p, trials=3, N=10)
        node = p.nodes[-1]
        outs = [d.name for d in node.outputs]
        denested = normalize_program(p)
        forms = (p, denested, fby_init(denested))
        distinct = {CompiledProgram(form).source(node.name, outs) for form in forms}
        assert sorted(texts) == sorted(distinct)


def test_shared_runs_still_catch_a_broken_initialisation(monkeypatch):
    # the fault of `test_differential_catches_broken_initialisation`,
    # injected into the fby-init form alone, whose code is then its own
    def broken(prog):
        good = fby_init(prog)
        (node,) = good.nodes
        eqs = tuple(
            dataclasses.replace(eq, init=Const(False))
            if isinstance(eq, FbyEq) and eq.target == "xinit1"
            else eq
            for eq in node.equations
        )
        return Program((dataclasses.replace(node, equations=eqs),))

    p = load("cnt_dn.lus")
    assert differential_semantics(p, trials=20, N=30).ok
    runs = _spied_runs(monkeypatch)
    monkeypatch.setattr(verify, "fby_init", broken)
    rep = differential_semantics(p, trials=20, N=30)
    assert not rep.ok
    (d,) = rep.divergences
    assert d.values[0] == d.values[1] != d.values[2]
    # the source and de-nested forms share their code, and the broken
    # form has its own: two runs at every trial up to the divergence
    assert len(runs) == 2 * (d.trial + 1)
    assert len(set(map(id, runs))) == 2


@pytest.mark.parametrize("trials", [0, -3])
def test_campaigns_reject_fewer_than_one_trial(trials):
    p = load("cnt_dn.lus")
    with pytest.raises(ValueError, match="trials must be at least 1"):
        differential_semantics(p, trials=trials)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        check_noninterference(p, "cnt_dn", two_point(), {"res": "L", "n": "L"}, "L",
                              trials=trials)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p: differential_semantics(p, trials=1, engine="fast"),
         "engine must be 'compiled' or 'reference', not 'fast'"),
        (lambda p: differential_semantics(p, trials=1, nodes="every"),
         "nodes must be 'entry' or 'all', not 'every'"),
        (lambda p: check_noninterference(p, "cnt_dn", two_point(), {"res": "L", "n": "L"},
                                         "L", trials=1, clock_pairing="lax"),
         "clock_pairing must be 'strict' or 'skip', not 'lax'"),
    ],
    ids=["engine", "nodes", "clock_pairing"],
)
def test_campaigns_reject_an_unknown_choice(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(load("cnt_dn.lus"))


# `o = x div 1` and a form of it that divides by zero at every instant
DIVIDES = "node f(x: int) returns (o: int) let o = x div {}; tel"


@pytest.mark.parametrize("engine", ["compiled", "reference"])
def test_a_form_that_raises_alone_diverges_on_its_error(monkeypatch, engine):
    p = parse_program(DIVIDES.format("(x - x + 1)"))
    assert differential_semantics(p, trials=3, N=5, engine=engine).ok
    raising = parse_program(DIVIDES.format("(x - x)"))
    monkeypatch.setattr(verify, "fby_init", lambda prog: raising)
    rep = differential_semantics(p, trials=3, N=5, engine=engine)
    (d,) = rep.divergences
    assert (d.node, d.trial, d.variable, d.instant) == ("f", 0, "!error", -1)
    source, denested, init = d.values
    assert source == denested != init
    assert init == str({"!error": [repr(EvalError("division by zero"))]})


@pytest.mark.parametrize("engine", ["compiled", "reference"])
def test_forms_that_raise_alike_pass(engine):
    # every form raises the same error at every trial: no history differs
    p = parse_program(DIVIDES.format("(x - x)"))
    with pytest.raises(EvalError):
        run_node(p, "f", [[1]])
    assert differential_semantics(p, trials=3, N=5, engine=engine).ok


def test_differential_catches_broken_initialisation():
    # sabotage the delay-initialised form by hand: flipping the very
    # first value of the initialisation flag changes instant 0
    p = fby_init(normalize_program(load("cnt_dn.lus")))
    node = p.node("cnt_dn")
    eqs = tuple(
        dataclasses.replace(eq, init=Const(False))
        if isinstance(eq, FbyEq) and eq.target == "xinit1"
        else eq
        for eq in node.equations
    )
    bad = Program((dataclasses.replace(node, equations=eqs),))
    good_H = run_node(p, "cnt_dn", [[False, False], [3, 3]], dialect="nlustre")
    bad_H = run_node(bad, "cnt_dn", [[False, False], [3, 3]], dialect="nlustre")
    assert good_H["cpt"][0] != bad_H["cpt"][0]


# -- non-interference --------------------------------------------------------------


def test_ni_passes_on_secure_fixture():
    p = load("re_trig.lus")
    lat = two_point()
    rep = check_noninterference(
        p, "re_trig", lat, {"i": "L", "n": "H"}, "L", trials=60, N=25
    )
    assert rep.ok and rep.verdict == "pass"


def test_ni_detects_explicit_leak_under_forced_policy():
    lus, _ = leaky_pairs()[0]
    with open(lus, encoding="utf-8") as fh:
        p = parse_program(fh.read())
    lat = two_point()
    rep = check_noninterference(
        p,
        p.nodes[-1].name,
        lat,
        {"h": "H", "l": "L"},
        "L",
        trials=100,
        N=25,
        output_levels={"o": "L"},
    )
    assert not rep.ok
    v = rep.violations[0]
    assert v.variable == "o" and v.values[0] != v.values[1]


def test_ni_engines_agree():
    p = load("cnt_dn.lus")
    lat = two_point()
    kw = dict(trials=40, N=20)
    base = check_noninterference(p, "cnt_dn", lat, {"res": "L", "n": "L"}, "L", **kw)
    variant = check_noninterference(
        p, "cnt_dn", lat, {"res": "L", "n": "L"}, "L", engine="reference", **kw
    )
    assert report_json(variant) == report_json(base)


def test_variable_levels_cover_all_locals():
    p = load("re_trig.lus")
    sig = check_program(p)["re_trig"]
    lat = two_point()
    node = p.node("re_trig")
    levels = variable_levels(node, sig, {"i": "L", "n": "H"}, "L", lat)
    assert set(levels) == {"i", "n", "o", "edge", "c", "v"}
    assert levels["edge"] == "L"  # depends on i and the clock only
    assert levels["v"] == "H"  # reads n


def test_variable_levels_equal_the_terms_evaluated():
    # each local's level against its type as a term of the paper's
    # algebra, evaluated in the least model of the signature
    lat = powerset_lattice(2)
    locals_seen = 0
    for seed in range(100):
        p = generate_program(GenConfig(seed=seed))
        node = p.nodes[-1]
        sig = check_program(p)[node.name]
        locals_seen += len(sig.local_types)
        for levels in itertools.product(lat.elements, repeat=len(node.inputs) + 1):
            *ins, clock = levels
            got = variable_levels(node, sig, dict(zip((d.name for d in node.inputs), ins)),
                                  clock, lat)
            s = reference_minimal_instantiation(sig, dict(zip(sig.input_vars, ins)), clock, lat)
            for d, v in zip((*node.inputs, *node.outputs), (*sig.input_vars, *sig.output_vars)):
                assert got[d.name] == s[v]
            for x, atoms in sig.local_types.items():
                assert got[x] == eval_ground(s, typing._term(atoms), lat), (seed, x)
    assert locals_seen > 100


def test_minimal_instantiation_is_least():
    p = load("cnt_dn.lus")
    sig = check_program(p)["cnt_dn"]
    lat = two_point()
    s = minimal_instantiation(sig, {"a1": "L", "a2": "H"}, "L", lat)
    from seclus.sectypes import satisfies

    assert satisfies(s, sig.constraints, lat)
    # lowering the single output below its computed level breaks it
    lowered = dict(s, b1="L")
    assert not satisfies(lowered, sig.constraints, lat)


# -- the generator itself -----------------------------------------------------------


def test_generator_outputs_are_wellformed():
    for seed in range(50):
        p = generate_program(GenConfig(seed=seed))
        assert validate(p) == []
        for node in p.nodes:
            schedule(node)  # causal


def test_generator_is_deterministic():
    assert generate_program(GenConfig(seed=9)) == generate_program(GenConfig(seed=9))


# `parser.pretty` of the generated programs, as the generator drew them
# before its retries were bounded: seeds 0-499 all succeed at the first draw
GENERATED_SHA256 = {
    0: "cc514a6c085afe0083a04d217ae36f639ea9f67db0071e01b2c7532779317522",
    1: "5b118662438a589608c5ade41a6f5e7b5faba723a89302145fd6f3de7264dffe",
    74: "2f2a7ec4af53407f44fbecfdc11d43a543be02316a07babadf7b73723a62e895",
    250: "88daad237c325999383d50a66eeca2d9eac785a783295ac5627f83d26a1544da",
    499: "a636e506b462a7c51273b997e840caf5f8f1d815407ad480dc7412e675e6431b",
}


def test_generated_programs_are_unchanged():
    import hashlib

    from seclus.parser import pretty

    assert pretty(generate_program(GenConfig(seed=176))) == (
        "node n0(i0: bool) returns (out: int)\n  var x0: int;\nlet\n"
        "  x0 = -4;\n  out = x0;\ntel\n"
    )
    for seed, digest in GENERATED_SHA256.items():
        text = pretty(generate_program(GenConfig(seed=seed)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, seed


def test_generator_gives_up_after_bounded_draws(monkeypatch):
    import seclus.verify as verify

    draws = []
    real = verify._Gen

    def counted(cfg):
        draws.append(cfg.seed)
        return real(cfg)

    monkeypatch.setattr(verify, "_Gen", counted)
    monkeypatch.setattr(verify, "validate", lambda p: ["always invalid"])
    with pytest.raises(ValueError):
        generate_program(GenConfig(seed=3))
    assert len(draws) == verify.GEN_ATTEMPTS


def test_report_json_is_plain_data():
    import json

    p = load("cnt_dn.lus")
    rep = differential_semantics(p, trials=3, N=10)
    json.dumps(report_json(rep))  # serialisable without custom encoders
