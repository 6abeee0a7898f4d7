"""The non-interference campaign against its former harness: literally
equal reports, the input draws pinned to `randrange`, the least
observation levels equal to the former fixpoint, and the per-program
caches not shared wrongly."""

import functools
import itertools
import random

import pytest

from seclus import compiled, typing
from seclus.ast import Node, VarDecl
from seclus.parser import parse_program
from seclus.sectypes import powerset_lattice, two_point
from seclus.typing import check_program
from seclus.verify import (
    GenConfig,
    check_noninterference,
    generate_program,
    minimal_instantiation,
    random_inputs,
)

from conftest import leaky_pairs, load
from reference_ni import (
    reference_minimal_instantiation,
    reference_noninterference,
    reference_random_inputs,
)

P2 = powerset_lattice(2)


def _leaky():
    """(program, input levels, output levels) of each leaky fixture."""
    out = []
    for lus, pol in leaky_pairs():
        with open(lus, encoding="utf-8") as fh:
            p = parse_program(fh.read())
        named = {}
        with open(pol, encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line:
                    k, v = (s.strip() for s in line.split("="))
                    named[k] = v
        node = p.nodes[-1]
        out.append((
            p,
            {d.name: named[d.name] for d in node.inputs},
            {d.name: named[d.name] for d in node.outputs},
        ))
    return out


def _sweep(seed):
    """A generated program and its input levels at powerset:2, drawn as
    the benchmark draws them."""
    p = generate_program(GenConfig(seed=seed))
    rng = random.Random(seed)
    return p, {d.name: rng.choice(P2.elements) for d in p.nodes[-1].inputs}


# -- reports equal to the former harness ------------------------------------------


@pytest.mark.parametrize("engine", ["compiled", "reference"])
def test_leaky_reports_equal_reference(engine):
    lat = two_point()
    pairs = _leaky()
    assert len(pairs) == 12
    for p, ins, outs in pairs:
        f = p.nodes[-1].name
        for t in lat.elements:
            kw = dict(trials=200, N=25, output_levels=outs, engine=engine)
            want = reference_noninterference(p, f, lat, ins, t, **kw)
            if t == "L":
                assert not want.ok
            assert check_noninterference(p, f, lat, ins, t, **kw) == want


@pytest.mark.parametrize(
    "engine, trials", [("compiled", 20), ("reference", 2)]
)
def test_generated_reports_equal_reference_at_every_level(engine, trials):
    for seed in range(100):
        p, ins = _sweep(seed)
        f = p.nodes[-1].name
        for t in P2.elements:
            kw = dict(trials=trials, N=25, seed=seed, engine=engine)
            want = reference_noninterference(p, f, P2, ins, t, **kw)
            assert check_noninterference(p, f, P2, ins, t, **kw) == want, (seed, t)


def test_errors_and_skips_equal_reference():
    # division by an input errs on some trials; a derived-clock input
    # makes "skip" count every trial out
    src = """
    node f(c: bool; x: int; y: int :: base on c) returns (o: int; q: int)
    let o = 10 div x; q = merge c (y) (0 when not c); tel
    """
    p = parse_program(src)
    lat = two_point()
    for levels, t, pairing in itertools.product(
        ({"c": "L", "x": "L", "y": "L"}, {"c": "L", "x": "H", "y": "L"}),
        lat.elements,
        ("strict", "skip"),
    ):
        kw = dict(trials=30, N=10, clock_pairing=pairing)
        want = reference_noninterference(p, "f", lat, levels, t, **kw)
        got = check_noninterference(p, "f", lat, levels, t, **kw)
        assert got == want, (levels, t, pairing)
    assert want.skipped == 30
    strict = check_noninterference(p, "f", lat, {"c": "L", "x": "L", "y": "L"}, "L",
                                   trials=30, N=10)
    assert strict.errors


# -- the draws -----------------------------------------------------------------------


def test_random_inputs_match_randrange_draws():
    types = ["int", "bool", "int", "int", "bool", "bool", "int"]
    node = Node("f", tuple(VarDecl(f"i{k}", ty) for k, ty in enumerate(types)), (), (), ())
    for seed in range(200):
        for N in (1, 25, 50):
            a, b = random.Random(seed), random.Random(seed)
            assert random_inputs(node, N, a) == reference_random_inputs(node, N, b)
            assert a.getstate() == b.getstate(), (seed, N)


# -- least observation levels ----------------------------------------------------------


def test_minimal_instantiation_equals_former_fixpoint():
    programs = [p for p, _, _ in _leaky()]
    programs += [load("cnt_dn.lus"), load("re_trig.lus")]
    programs += [generate_program(GenConfig(seed=s)) for s in range(100)]
    assert len(programs) == 114
    for p in programs:
        for sig in check_program(p).values():
            names = list(sig.input_vars)
            for clock, *levels in itertools.product(P2.elements, repeat=len(names) + 1):
                ins = dict(zip(names, levels))
                want = reference_minimal_instantiation(sig, ins, clock, P2)
                assert minimal_instantiation(sig, ins, clock, P2) == want


# -- caches per program object ----------------------------------------------------------


def test_check_program_hands_out_fresh_dicts():
    p = generate_program(GenConfig(seed=5))
    sigs = check_program(p)
    expected = dict(sigs)
    sigs.clear()
    sigs["junk"] = None
    assert check_program(p) == expected
    assert check_program(p) is not check_program(p)


def test_level_sweep_types_and_generates_once(monkeypatch):
    signed, generated = [], []
    node_signature, generate = typing.node_signature, compiled._generate

    def counting_signature(prog, sigs, node):
        signed.append(node.name)
        return node_signature(prog, sigs, node)

    def counting_generate(prog, node, want):
        generated.append(node.name)
        return generate(prog, node, want)

    monkeypatch.setattr(typing, "node_signature", counting_signature)
    monkeypatch.setattr(compiled, "_generate", counting_generate)
    p, ins = _sweep(7)
    f = p.nodes[-1].name
    for t in P2.elements:
        assert check_noninterference(p, f, P2, ins, t, trials=5, N=10, seed=7).ok
    assert len(P2.elements) == 4
    assert sorted(signed) == sorted(n.name for n in p.nodes)
    assert generated == [f]


# -- one trial table per sweep ----------------------------------------------------------


def _count_runs(monkeypatch, engine_class):
    """Count the calls of `engine_class.run` into the returned list."""
    calls = []
    run = engine_class.run

    def counting_run(self, *args, **kwargs):
        calls.append(args[0])
        return run(self, *args, **kwargs)

    monkeypatch.setattr(engine_class, "run", counting_run)
    return calls


def test_sweep_runs_each_history_once(monkeypatch):
    calls = _count_runs(monkeypatch, compiled.CompiledProgram)
    p, ins = _sweep(6)
    node = p.nodes[-1]
    masks = {tuple(P2.leq(ins[d.name], t) for d in node.inputs) for t in P2.elements}
    paired = [m for m in masks if not all(m)]
    # the inputs sit at three levels, so two levels pair on one mask
    assert len(P2.elements) == 4 and len(paired) == 2
    trials = 7
    for t in P2.elements:
        assert check_noninterference(p, node.name, P2, ins, t, trials=trials, N=10, seed=6).ok
    assert len(calls) == trials * (1 + len(paired))


def _reversed_sweeps_equal_fresh(fresh, f, lat, ins, engine, **kw):
    """Levels swept top down on one object report as each level alone
    on a new object from `fresh()`."""
    p = fresh()
    for t in reversed(lat.elements):
        got = check_noninterference(p, f, lat, ins, t, engine=engine, **kw)
        assert got == check_noninterference(fresh(), f, lat, ins, t, engine=engine, **kw), t


@pytest.mark.parametrize("engine, trials", [("compiled", 20), ("reference", 2)])
def test_reversed_sweep_equals_fresh_objects(engine, trials):
    for seed in range(20):
        p, ins = _sweep(seed)
        fresh = functools.partial(generate_program, GenConfig(seed=seed))
        _reversed_sweeps_equal_fresh(fresh, p.nodes[-1].name, P2, ins, engine,
                                     trials=trials, N=25, seed=seed)
    lat = two_point()
    for (lus, _), (p, ins, outs) in zip(leaky_pairs(), _leaky()):
        with open(lus, encoding="utf-8") as fh:
            fresh = functools.partial(parse_program, fh.read())
        _reversed_sweeps_equal_fresh(fresh, p.nodes[-1].name, lat, ins, engine,
                                     trials=200, N=25, output_levels=outs)


def test_engine_is_part_of_the_table_key(monkeypatch):
    from seclus.interp import ReferenceProgram

    calls = _count_runs(monkeypatch, ReferenceProgram)
    p, ins = _sweep(4)
    f = p.nodes[-1].name
    kw = dict(trials=3, N=10, seed=4)
    by_engine = {
        engine: [check_noninterference(p, f, P2, ins, t, engine=engine, **kw) for t in P2.elements]
        for engine in ("compiled", "reference")
    }
    assert calls and by_engine["compiled"] == by_engine["reference"]


def test_another_horizon_or_seed_replaces_the_table(monkeypatch):
    calls = _count_runs(monkeypatch, compiled.CompiledProgram)
    p, ins = _sweep(6)
    f = p.nodes[-1].name

    def sweep(N, seed):
        before = len(calls)
        reports = [check_noninterference(p, f, P2, ins, t, trials=4, N=N, seed=seed)
                   for t in P2.elements]
        return reports, len(calls) - before

    first, runs = sweep(10, 1)
    assert p.memo["ni"].key == ("compiled", f, 10, 1)
    for N, seed in ((12, 1), (10, 2)):
        sweep(N, seed)
        assert p.memo["ni"].key == ("compiled", f, N, seed)
        assert [k for k in p.memo if k == "ni"] == ["ni"]
    # the first table is gone: sweeping its key again runs everything again
    assert sweep(10, 1) == (first, runs)
    assert sweep(10, 1) == (first, 0)
