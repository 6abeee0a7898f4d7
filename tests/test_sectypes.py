"""Security-type algebra: canonical forms, ground evaluation, rewrite
soundness, implication, and lattices."""

import random
import time

import pytest

from seclus.sectypes import (
    BOT,
    Bot,
    Constraint,
    Join,
    LatticeError,
    Refine,
    SecurityLattice,
    TVar,
    UNDEF,
    canon_constraint,
    canon_constraints,
    canonicalize,
    eval_ground,
    implies,
    join,
    parse_lattice,
    powerset_lattice,
    satisfies,
    substitute,
    two_point,
    tvars,
)

V = [TVar(f"v{i}") for i in range(12)]


# -- random terms -------------------------------------------------------------


def random_term(rng: random.Random, depth: int = 6):
    kind = rng.random()
    if depth <= 0 or kind < 0.35:
        return rng.choice(V)
    if kind < 0.42:
        return BOT
    if kind < 0.85:
        n = rng.randint(2, 3)
        return Join(tuple(random_term(rng, depth - 1) for _ in range(n)))
    cons = frozenset(
        Constraint(random_term(rng, depth - 2), rng.choice(V))
        for _ in range(rng.randint(1, 2))
    )
    return Refine(random_term(rng, depth - 1), cons)


def shuffled(t, rng: random.Random):
    """Recursively permute join operand order (semantically the identity)."""
    if isinstance(t, Join):
        elems = [shuffled(e, rng) for e in t.elems]
        rng.shuffle(elems)
        return Join(tuple(elems))
    if isinstance(t, Refine):
        return Refine(
            shuffled(t.base, rng),
            frozenset(
                Constraint(shuffled(c.lhs, rng), shuffled(c.rhs, rng))
                for c in t.constraints
            ),
        )
    return t


def rewrite_once(t, rng: random.Random):
    """One semantics-preserving local rewrite step (the algebra's
    defining equations): idempotence, unit, associativity, refinement
    completion, refinement fusion."""
    choice = rng.randrange(5)
    if isinstance(t, Join):
        elems = list(t.elems)
        if choice == 0:  # duplicate an operand (idempotence)
            elems.append(rng.choice(elems))
        elif choice == 1:  # insert the unit
            elems.insert(rng.randrange(len(elems) + 1), BOT)
        elif choice == 2 and len(elems) >= 3:  # reassociate
            elems = [Join((elems[0], elems[1])), *elems[2:]]
        elif choice == 3:  # wrap an operand in a unit join
            k = rng.randrange(len(elems))
            elems[k] = Join((elems[k], BOT))
        else:
            elems = elems[::-1]  # commutativity
        return Join(tuple(elems))
    if isinstance(t, Refine):
        if choice % 2 == 0:  # fuse nested refinements
            return Refine(Refine(t.base, frozenset()), t.constraints)
        return Refine(t.base, frozenset(t.constraints))
    return Join((t, BOT))  # unit introduction on atoms


def random_ground(rng: random.Random, lat):
    return {v.name: rng.choice(lat.elements) for v in V}


def agree(a, b) -> bool:
    return (a is UNDEF and b is UNDEF) or a == b


# -- acceptance-scale randomized properties ----------------------------------


def test_canonicalize_idempotent_and_order_independent_10k():
    rng = random.Random(42)
    for _ in range(10_000):
        t = random_term(rng)
        c = canonicalize(t)
        assert canonicalize(c) == c
        assert canonicalize(shuffled(t, rng)) == c


def test_single_rewrite_ground_agreement_10k():
    rng = random.Random(43)
    lattices = [two_point(), powerset_lattice(3)]
    for i in range(10_000):
        lat = lattices[i % 2]
        t = random_term(rng)
        t2 = rewrite_once(t, rng)
        s = random_ground(rng, lat)
        a = eval_ground(s, t, lat)
        b = eval_ground(s, t2, lat)
        assert agree(a, b), (t, t2, s)
        # the canonical form evaluates identically as well
        assert agree(a, eval_ground(s, canonicalize(t), lat))


# -- canonical form unit cases ------------------------------------------------


def test_canonicalize_units():
    a, b = V[0], V[1]
    assert canonicalize(Join((a, BOT))) == a
    assert canonicalize(Join((a, a))) == a
    assert canonicalize(Join((b, a))) == Join((a, b))
    assert canonicalize(Join((a, Join((b, a))))) == Join((a, b))
    assert canonicalize(BOT) == BOT


def test_refinement_completion():
    a, b = V[0], V[1]
    c = Constraint(a, b)
    t = Join((a, Refine(b, frozenset([c]))))
    assert canonicalize(t) == Refine(Join((a, b)), frozenset([canon_constraint(c)]))


def test_canon_constraint_rules():
    a, b, g = V[0], V[1], V[2]
    # x|y <= y collapses to x <= y
    c = canon_constraint(Constraint(Join((a, b)), b))
    assert c == Constraint(a, b)
    # trivially true constraints vanish
    assert canon_constraint(Constraint(b, b)) is None
    assert canon_constraint(Constraint(BOT, b)) is None
    # unrelated constraints only get canonicalised
    c2 = canon_constraint(Constraint(Join((g, a)), b))
    assert c2 == Constraint(Join((a, g)), b)


def test_join_helper_and_tvars():
    a, b = V[0], V[1]
    assert join(a, b, BOT) == Join((a, b))
    assert tvars(Refine(a, frozenset([Constraint(b, a)]))) == {"v0", "v1"}


def test_substitute():
    a, b, x = V[0], V[1], V[2]
    t = Join((a, x))
    assert substitute(t, {"v2": b}) == Join((a, b))


# -- ground evaluation and satisfaction ---------------------------------------


def test_eval_ground_and_satisfies():
    lat = two_point()
    a, b = V[0], V[1]
    s = {"v0": "H", "v1": "L"}
    assert eval_ground(s, Join((a, b)), lat) == "H"
    assert eval_ground(s, BOT, lat) == "L"
    r = Refine(a, frozenset([Constraint(a, b)]))  # H <= L fails
    assert eval_ground(s, r, lat) is UNDEF
    assert satisfies(s, [Constraint(b, a)], lat)
    assert not satisfies(s, [Constraint(a, b)], lat)
    with pytest.raises(KeyError):
        eval_ground({}, a, lat)


def test_implies_examples():
    a, b, g = V[0], V[1], V[2]
    rho = [Constraint(Join((g, a)), b)]
    assert implies(rho, rho).holds
    assert implies(rho, [Constraint(a, b)]).holds  # weaker rhs constraint
    r = implies([Constraint(a, b)], rho)
    assert not r.holds and r.witness is not None


def test_implies_definite_is_exact_beyond_the_enumeration_limit():
    a = TVar("a")
    xs = [TVar(f"x{i}") for i in range(24)]
    rho2 = [Constraint(a, Join(tuple(xs)))]
    r = implies([], rho2)
    assert not r.holds
    lat = two_point()
    assert r.witness == {"a": "H", **{x.name: "L" for x in xs}}
    assert satisfies(r.witness, [], lat) and not satisfies(r.witness, rho2, lat)


def test_implies_40_variable_chain_exact_and_fast():
    chain = [TVar(f"c{i}") for i in range(40)]
    rho1 = [Constraint(join(u, V[0]), v) for u, v in zip(chain, chain[1:])]
    elapsed = float("inf")
    for _ in range(3):  # the best of three, so a busy host does not decide
        t0 = time.perf_counter()
        forward = implies(rho1, [Constraint(join(chain[0], V[0]), chain[-1])])
        backward = implies(rho1, [Constraint(chain[-1], chain[0])])
        elapsed = min(elapsed, time.perf_counter() - t0)
    assert forward.holds
    assert not backward.holds
    lat = two_point()
    assert satisfies(backward.witness, rho1, lat)
    assert not satisfies(backward.witness, [Constraint(chain[-1], chain[0])], lat)
    assert elapsed < 0.01, f"40-variable implication took {elapsed * 1000:.1f} ms"


def test_implies_definite_witness_in_a_bigger_lattice():
    a, b, g = V[0], V[1], V[2]
    lat = powerset_lattice(2)
    r = implies([Constraint(a, b)], [Constraint(join(g, a), b)], lat=lat)
    assert not r.holds
    assert satisfies(r.witness, [Constraint(a, b)], lat)
    assert not satisfies(r.witness, [Constraint(join(g, a), b)], lat)


def test_implies_non_definite_enumerates_up_to_the_limit():
    a, b, c = V[0], V[1], V[2]
    rho1 = [Constraint(a, BOT)]  # a must be bottom: not a definite set
    assert implies(rho1, [Constraint(a, b)]).holds
    r = implies(rho1, [Constraint(b, c)])
    assert not r.holds and r.witness == {"v0": "L", "v1": "H", "v2": "L"}
    big = [Constraint(TVar(f"y{i}"), BOT) for i in range(25)]
    with pytest.raises(ValueError):
        implies(big, [Constraint(a, b)])


def test_implies_two_point_sound_for_powerset():
    # counterexample-free pairs stay counterexample-free in a bigger lattice
    rng = random.Random(7)
    lat4 = powerset_lattice(4)
    for _ in range(50):
        rho1 = [
            Constraint(random_term(rng, 2), rng.choice(V)) for _ in range(2)
        ]
        rho2 = [Constraint(random_term(rng, 2), rng.choice(V))]
        if implies(rho1, rho2).holds:
            for _ in range(20):
                s = random_ground(rng, lat4)
                if satisfies(s, rho1, lat4):
                    assert satisfies(s, rho2, lat4)


# -- lattices ------------------------------------------------------------------


def test_two_point_lattice():
    lat = two_point()
    assert lat.bottom == "L"
    assert lat.leq("L", "H") and not lat.leq("H", "L")
    assert lat.join("L", "H") == "H"


def test_powerset_lattice():
    lat = powerset_lattice(2)
    assert len(lat.elements) == 4
    assert lat.bottom == frozenset()
    assert lat.join(frozenset({0}), frozenset({1})) == frozenset({0, 1})


def test_parse_lattice_specs(tmp_path):
    assert parse_lattice("2point").elements == ["L", "H"]
    assert len(parse_lattice("powerset:3").elements) == 8
    f = tmp_path / "diamond.lat"
    f.write_text("elements: bot a b top\nbot <= a\nbot <= b\na <= top\nb <= top\n")
    lat = parse_lattice(str(f))
    assert lat.bottom == "bot"
    assert lat.join("a", "b") == "top"


def _former_order(elements, leq_pairs):
    """The reflexive-transitive closure of `leq_pairs` over `elements`,
    by one quadratic pass over all pairs until nothing changes."""
    order = {(a, a) for a in elements} | set(leq_pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(order):
            for c, d in list(order):
                if b == c and (a, d) not in order:
                    order.add((a, d))
                    changed = True
    return order


def _former_tables(elements, leq_pairs):
    """The former construction: one quadratic closure pass over all
    pairs until nothing changes, and each join found among every upper
    bound.  Returns (leq pairs, join table, bottom) or the error text."""
    elements = list(elements)
    order = _former_order(elements, leq_pairs)
    joins = {}
    for a in elements:
        for b in elements:
            ubs = [c for c in elements if (a, c) in order and (b, c) in order]
            lubs = [c for c in ubs if all((c, d) in order for d in ubs)]
            if len(lubs) != 1:
                return f"no unique join of {a!r} and {b!r}"
            joins[(a, b)] = lubs[0]
    bots = [a for a in elements if all((a, b) in order for b in elements)]
    if len(bots) != 1:
        return "no unique bottom element"
    return order, joins, bots[0]


def _tables(elements, leq_pairs):
    try:
        lat = SecurityLattice(elements, leq_pairs)
    except LatticeError as exc:
        return str(exc)
    return lat._leq, lat._join, lat.bottom


def test_lattice_tables_equal_former_construction(tmp_path):
    f = tmp_path / "five.lat"
    f.write_text("elements: bot a b c top\nbot <= a\nbot <= b\na <= c\nb <= c\nc <= top\n")
    file_lat = parse_lattice(str(f))
    cases = [(["L", "H"], [("L", "H")]), (file_lat.elements, [
        ("bot", "a"), ("bot", "b"), ("a", "c"), ("b", "c"), ("c", "top")])]
    for n in range(1, 5):
        lat = powerset_lattice(n)
        cases.append((lat.elements, [(a, b) for a in lat.elements for b in lat.elements if a <= b]))
    for elements, pairs in cases:
        assert _tables(elements, pairs) == _former_tables(elements, pairs)
    for lat, (elements, pairs) in zip(
        [two_point(), file_lat] + [powerset_lattice(n) for n in range(1, 5)], cases
    ):
        assert (lat._leq, lat._join, lat.bottom) == _former_tables(elements, pairs)


@pytest.mark.parametrize(
    "elements, pairs",
    [
        (["a", "b", "c"], [("a", "b"), ("a", "c")]),  # b, c have no join
        (["a", "b"], []),  # no bottom, no join
        (["a", "b"], [("a", "b"), ("b", "a")]),  # a cycle: two joins
        (["a", "a", "b"], [("a", "b")]),  # an element listed twice
        (["a", "b", "c"], [("a", "b"), ("b", "z"), ("z", "c")]),  # via a non-element
        ([], []),
        (["a", "b", "c", "d", "e"],
         [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("b", "e"), ("c", "e")]),
    ],
)
def test_lattice_errors_equal_former_construction(elements, pairs):
    # the former construction refused an element listed twice and a
    # cycle as a join it could not find; each is now named for its cause
    former = _former_tables(elements, pairs)
    cause = _named_cause(elements, pairs)
    assert cause is None or isinstance(former, str)
    assert _tables(elements, pairs) == (cause or former)


def _named_cause(elements, pairs):
    """The diagnostic of the first element listed twice or, failing that,
    of the first listed element on a cycle of the order with another,
    the first listed such one; None when there is neither."""
    for k, a in enumerate(elements):
        if a in elements[:k]:
            return f"{a!r} is listed twice"
    order = _former_order(elements, pairs)
    for a in elements:
        for b in elements:
            if a != b and (a, b) in order and (b, a) in order:
                return f"order is not antisymmetric: {a!r} <= {b!r} <= {a!r}"
    return None


@pytest.mark.parametrize(
    "spec, message",
    [
        ("elements: L H\nL <= H\nH <= L\n", "order is not antisymmetric: 'L' <= 'H' <= 'L'"),
        ("elements: L H L\nL <= H\n", "'L' is listed twice"),
        # a three-element cycle names its first listed elements
        ("elements: a b c\nc <= a\nb <= c\na <= b\n", "not antisymmetric: 'a' <= 'b' <= 'a'"),
    ],
)
def test_a_cycle_or_a_repeated_element_is_named(tmp_path, spec, message):
    f = tmp_path / "bad.lat"
    f.write_text(spec)
    with pytest.raises(LatticeError) as exc:
        parse_lattice(str(f))
    assert message in str(exc.value)


def test_powerset_8_builds_fast():
    t0 = time.perf_counter()
    lat = powerset_lattice(8)
    assert time.perf_counter() - t0 < 1.0
    assert len(lat.elements) == 256 and lat.bottom == frozenset()
    assert lat.join(frozenset({0, 3}), frozenset({3, 7})) == frozenset({0, 3, 7})
