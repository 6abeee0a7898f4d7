"""End-to-end acceptance checks: golden signatures, preservation and
differential campaigns at scale, non-interference probing (including
deliberately leaky programs), canonical-form properties, operator
oracles, and the cross-form execution oracle."""

import random
import time

import pytest

from seclus.interp import ABSENT, check_history, run_node, sem_fby_L, sem_fby_NL
from seclus.normalise import fby_init, normalize_program
from seclus.parser import parse_program
from seclus.sectypes import (
    Constraint,
    TVar,
    canonicalize,
    eval_ground,
    join,
    powerset_lattice,
    substitute,
    two_point,
)
from seclus.typing import (
    check_policy,
    check_program,
    policy_instantiation,
    render_signature,
)
from seclus.verify import (
    GenConfig,
    check_noninterference,
    check_preservation,
    differential_semantics,
    generate_program,
    random_inputs,
)

from conftest import leaky_pairs, load

A = ABSENT


# -- 1. golden interface signatures -------------------------------------------


def test_golden_signatures_within_a_second():
    t0 = time.perf_counter()
    sigs_c = check_program(load("cnt_dn.lus"))
    sigs_r = check_program(load("re_trig.lus"))
    elapsed = time.perf_counter() - t0
    assert render_signature(sigs_c["cnt_dn"]) == "cnt_dn(a1,a2) =>g (b1) { g|a1|a2 <= b1 }"
    assert render_signature(sigs_r["re_trig"]) == "re_trig(a1,a2) =>g (b1) { g|a1|a2 <= b1 }"
    # both signatures are, up to renaming, the single bound
    # clock|in1|in2 <= out
    for sig in (sigs_c["cnt_dn"], sigs_r["re_trig"]):
        renamed = substitute(
            sig.constraints,
            {
                sig.clock_var: TVar("CK"),
                sig.input_vars[0]: TVar("IN1"),
                sig.input_vars[1]: TVar("IN2"),
                sig.output_vars[0]: TVar("OUT"),
            },
        )
        expected = frozenset(
            [
                Constraint(
                    canonicalize(join(TVar("CK"), TVar("IN1"), TVar("IN2"))),
                    TVar("OUT"),
                )
            ]
        )
        assert renamed == expected
    assert elapsed < 1.0, f"signature inference took {elapsed:.3f}s"


# -- 2. signature preservation at scale ----------------------------------------


def test_preservation_fixtures_and_500_generated_programs():
    t0 = time.perf_counter()
    for fixture in ("cnt_dn.lus", "re_trig.lus"):
        for v in check_preservation(load(fixture)):
            assert v.ok, v
            assert v.denesting_equal and v.init_equal, v
    for seed in range(500):
        p = generate_program(GenConfig(seed=seed))
        for v in check_preservation(p):
            assert v.ok, (seed, v)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"preservation campaign took {elapsed:.1f}s"


# -- 3. differential execution at scale ------------------------------------------


def test_differential_fixtures_and_500_generated_programs():
    t0 = time.perf_counter()
    for fixture in ("cnt_dn.lus", "re_trig.lus"):
        rep = differential_semantics(load(fixture), trials=100, N=50, nodes="all")
        assert rep.ok, rep
    for seed in range(500):
        p = generate_program(GenConfig(seed=seed))
        rep = differential_semantics(p, trials=100, N=50)
        assert rep.ok, (seed, rep)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"differential campaign took {elapsed:.1f}s"


# -- 4. non-interference --------------------------------------------------------


def test_ni_100_generated_programs_zero_violations():
    lat = two_point()
    for seed in range(100):
        p = generate_program(GenConfig(seed=seed))
        node = p.nodes[-1]
        rng = random.Random(seed)
        input_levels = {d.name: rng.choice(lat.elements) for d in node.inputs}
        for t in lat.elements:
            rep = check_noninterference(
                p, node.name, lat, input_levels, t, trials=1000, N=25, seed=seed
            )
            assert rep.ok, (seed, t, rep.violations)
            assert rep.trials == 1000 and rep.skipped == 0


def test_leaky_fixtures_rejected_and_observable():
    pairs = leaky_pairs()
    assert len(pairs) >= 10
    lat = two_point()
    for lus, pol in pairs:
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
        sig = check_program(p)[node.name]
        res = check_policy(sig, policy_instantiation(node, sig, named), lat)
        assert not res.secure, lus  # the analyzer rejects the policy
        # and the rejected policy is backed by an observable divergence
        input_levels = {d.name: named[d.name] for d in node.inputs}
        output_levels = {d.name: named[d.name] for d in node.outputs}
        rep = check_noninterference(
            p,
            node.name,
            lat,
            input_levels,
            "L",
            trials=1000,
            N=25,
            output_levels=output_levels,
        )
        assert not rep.ok, lus
        assert rep.violations[0].values[0] != rep.violations[0].values[1]


# -- 5. canonical forms ----------------------------------------------------------


def test_canonical_form_properties_within_budget():
    from test_sectypes import (
        agree,
        random_ground,
        random_term,
        rewrite_once,
        shuffled,
    )

    t0 = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(10_000):
        t = random_term(rng)
        c = canonicalize(t)
        assert canonicalize(c) == c
        assert canonicalize(shuffled(t, rng)) == c
    lattices = [two_point(), powerset_lattice(3)]
    for i in range(10_000):
        lat = lattices[i % 2]
        t = random_term(rng)
        t2 = rewrite_once(t, rng)
        s = random_ground(rng, lat)
        assert agree(eval_ground(s, t, lat), eval_ground(s, t2, lat)), (t, t2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"canonical-form campaign took {elapsed:.1f}s"


# -- 6. operator oracles and replay ---------------------------------------------


def test_operator_oracles_frozen():
    assert sem_fby_L([1, 2, 3], [10, 20, 30]) == [1, 10, 20]
    assert sem_fby_L([A, 1], [A, 9]) == [A, 1]
    assert sem_fby_NL(0, [1, 2, 3]) == [0, 1, 2]
    assert sem_fby_NL(0, [1, A, 2]) == [0, A, 1]


def test_replay_checker_validates_every_fixture_form():
    for fixture in ("cnt_dn.lus", "re_trig.lus"):
        p = load(fixture)
        n = normalize_program(p)
        for form, dialect in ((p, "lustre"), (n, "nlustre"), (fby_init(n), "nlustre")):
            for node in form.nodes:
                inputs = random_inputs(node, 30, random.Random(1))
                H = run_node(form, node.name, inputs, dialect=dialect)
                assert check_history(form, node.name, H, [True] * 30) == []


# -- 7. cross-form execution oracle -----------------------------------------------


def test_count_down_oracle_identical_on_all_three_forms():
    p = load("cnt_dn.lus")
    n = normalize_program(p)
    inputs = [[True, False, False, False], [4, 4, 4, 4]]
    for form, dialect in ((p, "lustre"), (n, "nlustre"), (fby_init(n), "nlustre")):
        H = run_node(form, "cnt_dn", inputs, dialect=dialect)
        assert H["cpt"] == [4, 3, 2, 1]
