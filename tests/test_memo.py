"""What later layers derive from a program object is built once, kept in
its `Program.memo`, and freed with it by reference counting alone.

The de-nested and fby-init forms, each node's schedule, each entry's
call cone and the reference engine's prepared nodes are made at most
once per program object and shared by every engine, campaign and
command that asks for them.  Nothing kept in a memo refers back to its program, so dropping
the objects leaves nothing for the cycle collector.
"""

import gc
import random
import weakref
from collections import Counter

import pytest

from seclus import cli, interp, normalise
from seclus.compiled import CompiledProgram
from seclus.interp import CausalityError, ReferenceProgram, check_history, run_node
from seclus.normalise import fby_init, normalize_program
from seclus.parser import parse_program, pretty
from seclus.sectypes import powerset_lattice
from seclus.verify import (
    GenConfig,
    check_noninterference,
    check_preservation,
    differential_semantics,
    generate_program,
    random_inputs,
)

from conftest import fixture_path, load

P2 = powerset_lattice(2)

# a callee with an instantaneous cycle: each engine refuses its caller
# before the first instant
NOT_CAUSAL = """
node g(a: int) returns (o: int) var x: int; let x = o; o = x; tel
node f(a: int) returns (o: int) let o = g(a); tel
"""


@pytest.mark.parametrize("engine", [ReferenceProgram, CompiledProgram])
@pytest.mark.parametrize("inputs", [[[]], [[1, 2]]])
def test_a_non_causal_callee_is_refused_before_any_instant(engine, inputs):
    with pytest.raises(CausalityError, match="cycle among: x; o"):
        engine(parse_program(NOT_CAUSAL)).run("f", inputs)


def _forms(p):
    n = normalize_program(p)
    return [(p, "lustre"), (n, "nlustre"), (fby_init(n), "nlustre")]


def test_prepared_nodes_are_shared_per_program_object():
    p = load("cnt_dn.lus")
    ins = [[True, False], [5, 5]]
    ReferenceProgram(p).run("cnt_dn", ins)
    again = ReferenceProgram(p)
    assert set(again.nodes) == {"cnt_dn"}
    assert ReferenceProgram(p.annotation).nodes is again.nodes
    assert ReferenceProgram(load("cnt_dn.lus")).nodes == {}


def test_forms_are_made_once_per_program_object():
    p = generate_program(GenConfig(seed=5))
    n = normalize_program(p)
    assert normalize_program(p) is n
    assert normalize_program(p.annotation) is n  # kept on the annotation
    assert fby_init(n) is fby_init(n)
    assert fby_init(p) is fby_init(p)
    other = generate_program(GenConfig(seed=5))
    assert normalize_program(other) is not n and normalize_program(other) == n


def test_annotated_program_is_its_own_annotation_without_storing_it():
    p = load("re_trig.lus")
    a = p.annotation
    assert p.annotation is a and a.annotation is a
    assert all(v is not a for v in vars(a).values())


def test_each_form_and_node_is_prepared_and_scheduled_once(monkeypatch):
    prepared, scheduled, coned = Counter(), Counter(), Counter()
    init, sched, cone = interp._Prepared.__init__, interp.schedule, interp._cone

    def counting_init(self, program, node):
        prepared[id(node)] += 1
        init(self, program, node)

    def counting_schedule(node):
        scheduled[id(node)] += 1
        return sched(node)

    def counting_cone(prog, name):
        coned[id(prog), name] += 1
        return cone(prog, name)

    monkeypatch.setattr(interp._Prepared, "__init__", counting_init)
    monkeypatch.setattr(interp, "schedule", counting_schedule)
    monkeypatch.setattr(interp, "_cone", counting_cone)
    kept = []  # so that no node's id is reused
    for seed in range(20):
        p = generate_program(GenConfig(seed=seed))
        differential_semantics(p, trials=2, N=10, seed=seed, engine="reference", nodes="all")
        rng = random.Random(seed)
        for form, dialect in _forms(p):
            kept.append(form.annotation)
            for node in form.nodes:
                inputs = random_inputs(node, 10, rng)
                H = run_node(form, node.name, inputs, dialect=dialect)
                assert check_history(form, node.name, H, [True] * 10) == []
                assert CompiledProgram(form).run(node.name, inputs) == H
    ids = [id(n) for form in kept for n in form.nodes]
    assert set(prepared) == set(scheduled) == set(ids)
    assert set(prepared.values()) == set(scheduled.values()) == {1}
    # both engines run every node of every form as an entry
    assert set(coned) == {(id(form), n.name) for form in kept for n in form.nodes}
    assert set(coned.values()) == {1}


def test_a_node_of_another_form_gets_the_schedule_of_the_programs_own():
    # the unannotated parse's node names the annotation's: its schedule
    # must not be kept for the annotation, whose engines read the
    # clocks and types of the equations they are given
    p = load("re_trig.lus")
    a = p.annotation
    parsed = p.node("re_trig")
    assert parsed is not a.node("re_trig")
    order = interp.node_schedule(a, parsed)
    ins = [[True, False, True, True], [2, 3, 1, 4]]
    fast = CompiledProgram(p).run("re_trig", ins)
    assert fast == run_node(p, "re_trig", ins) == ReferenceProgram(a).run("re_trig", ins)
    assert {id(eq) for eq in order} == {id(eq) for eq in a.node("re_trig").equations}


def test_verify_all_de_nests_each_node_once(monkeypatch, capsys):
    calls = Counter()
    real = normalise.normalize_node

    def counting(n):
        calls[n.name] += 1
        return real(n)

    monkeypatch.setattr(normalise, "normalize_node", counting)
    path = fixture_path("re_trig.lus")
    argv = ["verify", path, "--what", "all", "--trials", "3", "--ni-trials", "3",
            "--horizon", "10", "--seed", "1"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls == Counter({n.name: 1 for n in load("re_trig.lus").nodes})


def _operations(text: str, seed: int) -> None:
    """The benchmark workloads' operations on one program text."""
    p = parse_program(text)
    assert all(v.ok for v in check_preservation(p))
    assert differential_semantics(p, trials=3, N=10, seed=seed).ok
    assert differential_semantics(p, trials=2, N=10, seed=seed, engine="reference").ok
    node = p.nodes[-1]
    rng = random.Random(seed)
    levels = {d.name: rng.choice(P2.elements) for d in node.inputs}
    inputs = random_inputs(node, 10, rng)
    for form, dialect in _forms(p):
        H = run_node(form, node.name, inputs, dialect=dialect)
        assert check_history(form, node.name, H, [True] * 10) == []
        assert CompiledProgram(form).run(node.name, inputs) == H
        for t in P2.elements:
            assert check_noninterference(form, node.name, P2, levels, t, trials=3, N=10).ok


def test_nothing_is_left_for_the_cycle_collector():
    texts = [pretty(generate_program(GenConfig(seed=s))) for s in range(10)]
    for name in ("cnt_dn.lus", "re_trig.lus"):
        with open(fixture_path(name), encoding="utf-8") as fh:
            texts.append(fh.read())
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.garbage.clear()
        for seed, text in enumerate(texts):
            _operations(text, seed)
        for _ in range(2):
            with pytest.raises(CausalityError):
                run_node(parse_program(NOT_CAUSAL), "f", [[1, 2]])
        assert gc.collect() == 0, [type(o).__name__ for o in gc.garbage[:20]]
        n = normalize_program(parse_program(texts[0]))
        run_node(n, n.nodes[-1].name, random_inputs(n.nodes[-1], 5, random.Random(0)))
        form = weakref.ref(n)
        del n
        assert form() is None
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
