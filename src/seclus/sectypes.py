"""Security-type term algebra: join-terms over type variables with bottom,
refinement types carrying constraint sets, and their canonical forms.

The equational theory (associativity, commutativity, idempotence of join,
bottom as unit, refinement merging/extraction) is implemented as a
canonicalising constructor discipline: every public operation returns
terms in a unique normal form, so structural equality decides equality
modulo the theory.

Ground semantics: terms are interpreted in a finite security lattice via
an instantiation of the type variables; a refinement whose constraints
fail evaluates to Undefined.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from functools import cached_property
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Mapping, Optional, Sequence, Union


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class SecType:
    __slots__ = ()

    def __or__(self, other: "SecType") -> "SecType":
        return join(self, other)

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class Bot(SecType):
    def __repr__(self) -> str:
        return "bot"


@dataclass(frozen=True)
class TVar(SecType):
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Join(SecType):
    # canonically: >= 2 distinct sorted elements, none Bot/Join/Refine
    elems: tuple[SecType, ...]

    def __repr__(self) -> str:
        return "(" + " | ".join(map(repr, self.elems)) + ")"


@dataclass(frozen=True)
class Refine(SecType):
    base: SecType
    constraints: FrozenSet["Constraint"]

    def __repr__(self) -> str:
        cs = ", ".join(sorted(map(repr, self.constraints)))
        return f"{self.base!r} {{{cs}}}"


@dataclass(frozen=True)
class Constraint:
    """lhs <= rhs between security types."""

    lhs: SecType
    rhs: SecType

    def __repr__(self) -> str:
        return f"{self.lhs!r} <= {self.rhs!r}"


ConstraintSet = FrozenSet[Constraint]

BOT = Bot()


def _sort_key(t: SecType) -> tuple:
    # total term order: Bot < TVar (lex) < Refine < Join
    if isinstance(t, Bot):
        return (0,)
    if isinstance(t, TVar):
        return (1, t.name)
    if isinstance(t, Refine):
        return (2, _sort_key(t.base), tuple(sorted(_con_key(c) for c in t.constraints)))
    return (3, tuple(_sort_key(e) for e in t.elems))


def _con_key(c: Constraint) -> tuple:
    return (_sort_key(c.lhs), _sort_key(c.rhs))


# ---------------------------------------------------------------------------
# Canonicalisation
# ---------------------------------------------------------------------------


def canonicalize(t: SecType) -> SecType:
    """Unique normal form modulo AC; idempotent."""
    if isinstance(t, (Bot, TVar)):
        return t
    if isinstance(t, Refine):
        base = canonicalize(t.base)
        cons = canon_constraints(t.constraints)
        if isinstance(base, Refine):
            cons |= base.constraints
            base = base.base
        if not cons:
            return base
        return Refine(base, cons)
    # Join: flatten, pull refinements out, drop bottoms, dedupe, sort
    elems: list[SecType] = []
    cons: set[Constraint] = set()
    stack = list(t.elems)
    while stack:
        e = canonicalize(stack.pop())
        if isinstance(e, Bot):
            continue
        if isinstance(e, Refine):
            cons |= e.constraints
            e = e.base
        if isinstance(e, Join):
            stack.extend(e.elems)
            continue
        elems.append(e)
    uniq = sorted(set(elems), key=_sort_key)
    if not uniq:
        base: SecType = BOT
    elif len(uniq) == 1:
        base = uniq[0]
    else:
        base = Join(tuple(uniq))
    if cons:
        return canonicalize(Refine(base, frozenset(cons)))
    return base


def canon_constraint(c: Constraint) -> Optional[Constraint]:
    """Canonicalise one refinement-free constraint; None if trivially valid.

    Valid-in-every-lattice constraints are dropped: bottom on the left,
    left syntactically absorbed by the right.  Left-join elements already
    present on the right are removed (x|y <= y is equivalent to x <= y).
    Refinements on either side must be flattened out first
    (`flatten_constraints`); here they are rejected.
    """
    lhs = canonicalize(c.lhs)
    rhs = canonicalize(c.rhs)
    if isinstance(lhs, Refine) or isinstance(rhs, Refine):
        raise ValueError("constraint sides must be refinement-free; flatten first")
    rhs_elems = set(rhs.elems) if isinstance(rhs, Join) else {rhs}
    lhs_elems = list(lhs.elems) if isinstance(lhs, Join) else [lhs]
    kept = [e for e in lhs_elems if e not in rhs_elems and not isinstance(e, Bot)]
    if not kept:
        return None
    if len(kept) == 1:
        lhs = kept[0]
    else:
        lhs = Join(tuple(sorted(set(kept), key=_sort_key)))
    return Constraint(lhs, rhs)


def canon_constraints(cs: Iterable[Constraint]) -> ConstraintSet:
    out = set()
    for c in flatten_constraints(cs):
        cc = canon_constraint(c)
        if cc is not None:
            out.add(cc)
    return frozenset(out)


def flatten_constraints(cs: Iterable[Constraint]) -> ConstraintSet:
    """Push refinement constraint sets out of constraint sides:
    {a{r1} <= b{r2}} becomes {a <= b} | r1 | r2, recursively."""
    out: set[Constraint] = set()
    stack = list(cs)
    while stack:
        c = stack.pop()
        lhs = canonicalize(c.lhs)
        rhs = canonicalize(c.rhs)
        changed = False
        if isinstance(lhs, Refine):
            stack.extend(lhs.constraints)
            lhs = lhs.base
            changed = True
        if isinstance(rhs, Refine):
            stack.extend(rhs.constraints)
            rhs = rhs.base
            changed = True
        if changed:
            stack.append(Constraint(lhs, rhs))
        else:
            out.add(Constraint(lhs, rhs))
    return frozenset(out)


def join(*ts: SecType) -> SecType:
    return canonicalize(Join(tuple(ts))) if ts else BOT


def tvars(t: Union[SecType, Constraint, Iterable]) -> set[str]:
    if isinstance(t, TVar):
        return {t.name}
    if isinstance(t, Bot):
        return set()
    if isinstance(t, Join):
        return set().union(*(tvars(e) for e in t.elems))
    if isinstance(t, Refine):
        return tvars(t.base) | set().union(set(), *(tvars(c) for c in t.constraints))
    if isinstance(t, Constraint):
        return tvars(t.lhs) | tvars(t.rhs)
    return set().union(set(), *(tvars(x) for x in t))


def substitute(t, subst: Mapping[str, SecType]):
    """Simultaneous substitution followed by canonicalisation.

    Accepts a SecType, Constraint, frozenset of constraints, or a
    sequence of SecTypes; returns the same kind.
    """
    if isinstance(t, TVar):
        return canonicalize(subst.get(t.name, t))
    if isinstance(t, Bot):
        return t
    if isinstance(t, Join):
        return canonicalize(Join(tuple(substitute(e, subst) for e in t.elems)))
    if isinstance(t, Refine):
        return canonicalize(
            Refine(
                substitute(t.base, subst),
                flatten_constraints(substitute(c, subst) for c in t.constraints),
            )
        )
    if isinstance(t, Constraint):
        return Constraint(substitute(t.lhs, subst), substitute(t.rhs, subst))
    if isinstance(t, frozenset):
        return canon_constraints(substitute(c, subst) for c in t)
    return type(t)(substitute(x, subst) for x in t)


def successors(cs: Iterable[Constraint]) -> dict[str, set[str]]:
    """The graph of a definite constraint set: an edge from each
    variable of a constraint's left side to the variable it bounds."""
    succ: dict[str, set[str]] = defaultdict(set)
    for c in cs:
        b = c.rhs.name
        for a in tvars(c.lhs):
            succ[a].add(b)
    return succ


def reachable(succ: Mapping, start, seen: set) -> set:
    """`seen`, grown by everything reached from `start` by one or more
    edges of the successor map `succ`; the walk stops at what `seen`
    already holds."""
    todo = [start]
    while todo:
        for b in succ.get(todo.pop(), ()):
            if b not in seen:
                seen.add(b)
                todo.append(b)
    return seen


# ---------------------------------------------------------------------------
# Security lattices and ground evaluation
# ---------------------------------------------------------------------------


class LatticeError(Exception):
    pass


class SecurityLattice:
    """A finite join-semilattice with bottom; order and join are given
    explicitly and checked at construction."""

    def __init__(self, elements: Sequence, leq_pairs: Iterable[tuple]):
        self.elements = list(elements)
        count = Counter(self.elements)
        # up[a]: everything at or above a, in the reflexive-transitive
        # closure of the given pairs
        succ: dict = {}
        for a, b in leq_pairs:
            succ.setdefault(a, set()).add(b)
        up: dict = {}
        for a in {*count, *succ}:
            up[a] = reachable(succ, a, {a} if a in count else set())
        self._leq = {(a, b) for a, above in up.items() for b in above}
        # the join of a and b is the common upper bound below all the
        # others: the one with the largest up-set.  Sizes count an element
        # listed twice twice, so that it is never a unique join
        up = {a: up[a] & count.keys() for a in count}
        size = {a: sum(count[b] for b in up[a]) for a in count}
        self._join: dict[tuple, object] = {}
        for a in self.elements:
            for b in self.elements:
                ubs = up[a] & up[b]
                n = sum(count[c] for c in ubs)
                lubs = [c for c in ubs if size[c] == n]
                if sum(count[c] for c in lubs) != 1:
                    raise LatticeError(f"no unique join of {a!r} and {b!r}")
                self._join[(a, b)] = lubs[0]
        bots = [a for a in self.elements if size[a] == len(self.elements)]
        if len(bots) != 1:
            raise LatticeError("no unique bottom element")
        self.bottom = bots[0]

    def leq(self, a, b) -> bool:
        return (a, b) in self._leq

    def join(self, a, b):
        return self._join[(a, b)]

    def join_all(self, xs: Iterable):
        out = self.bottom
        for x in xs:
            out = self.join(out, x)
        return out

    @cached_property
    def top(self):
        tops = [a for a in self.elements if all(self.leq(b, a) for b in self.elements)]
        return tops[0] if len(tops) == 1 else None


def two_point() -> SecurityLattice:
    return SecurityLattice(["L", "H"], [("L", "H")])


def powerset_lattice(n: int) -> SecurityLattice:
    """Powerset of {0..n-1} ordered by inclusion."""
    atoms = range(n)
    elems = [
        frozenset(s)
        for k in range(n + 1)
        for s in itertools.combinations(atoms, k)
    ]
    pairs = [(a, b) for a in elems for b in elems if a <= b]
    return SecurityLattice(elems, pairs)


# powerset:n has 2**n elements and its order 3**n pairs; n = 10 takes
# seconds to build and each further atom about five times longer
POWERSET_MAX = 10


def parse_lattice(spec: str) -> SecurityLattice:
    """Lattice mini-language: "2point", "powerset:n" (0 <= n <=
    `POWERSET_MAX`), or a file with lines "elements: a b c" and "a <= b"
    covering pairs of those elements.  Raises `LatticeError` for any
    other spec."""
    if spec == "2point":
        return two_point()
    if spec.startswith("powerset:"):
        n = spec.split(":", 1)[1]
        if not (n.isascii() and n.isdigit() and len(n) <= 2 and int(n) <= POWERSET_MAX):
            raise LatticeError(
                f"bad lattice {spec!r}: n must be an integer from 0 to {POWERSET_MAX}"
            )
        return powerset_lattice(int(n))
    elements: list[str] = []
    pairs: list[tuple[str, str]] = []
    try:
        with open(spec, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise LatticeError(f"cannot read lattice file {spec!r}: {exc}") from None
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("elements:"):
            elements = line.split(":", 1)[1].split()
        elif "<=" in line:
            a, b = (p.strip() for p in line.split("<=", 1))
            pairs.append((a, b))
        else:
            raise LatticeError(f"bad lattice line: {line!r}")
    if not elements:
        raise LatticeError("lattice file has no elements: line")
    unknown = [x for pair in pairs for x in pair if x not in elements]
    if unknown:
        raise LatticeError(f"lattice order names {unknown[0]!r}, which is not an element")
    return SecurityLattice(elements, pairs)


class Undefined:
    """Result of evaluating a refinement whose constraints fail."""

    _instance: Optional["Undefined"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "undefined"


UNDEF = Undefined()

GroundInstantiation = Mapping[str, object]


def eval_ground(s: GroundInstantiation, t: SecType, lat: SecurityLattice):
    """Homomorphic evaluation of a type in a lattice; UNDEF propagates."""
    if isinstance(t, Bot):
        return lat.bottom
    if isinstance(t, TVar):
        if t.name not in s:
            raise KeyError(f"unbound type variable {t.name}")
        return s[t.name]
    if isinstance(t, Join):
        vals = [eval_ground(s, e, lat) for e in t.elems]
        if any(v is UNDEF for v in vals):
            return UNDEF
        return lat.join_all(vals)
    if isinstance(t, Refine):
        if not satisfies(s, t.constraints, lat):
            return UNDEF
        return eval_ground(s, t.base, lat)
    raise TypeError(type(t))


def satisfies(s: GroundInstantiation, cs: Iterable[Constraint], lat: SecurityLattice) -> bool:
    """True iff every constraint's evaluated lhs <= rhs; a constraint
    with an Undefined side counts as unsatisfied."""
    for c in cs:
        lv = eval_ground(s, c.lhs, lat)
        rv = eval_ground(s, c.rhs, lat)
        if lv is UNDEF or rv is UNDEF:
            return False
        if not lat.leq(lv, rv):
            return False
    return True


# ---------------------------------------------------------------------------
# Constraint implication
# ---------------------------------------------------------------------------

ENUM_VAR_LIMIT = 24

_TWO = two_point()


@dataclass(frozen=True)
class ImpliesResult:
    holds: bool
    witness: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.holds


def implies(
    rho1: Iterable[Constraint],
    rho2: Iterable[Constraint],
    lat: Optional[SecurityLattice] = None,
) -> ImpliesResult:
    """Does every instantiation satisfying rho1 also satisfy rho2?

    When every constraint of rho1 bounds a single variable (a definite
    set: Horn clauses), the answer is exact in every lattice and comes
    from reachability: `S <= T` follows iff from each variable of S the
    constraints of rho1 reach a variable of T.  Otherwise every
    instantiation over `lat` (default: the two-point lattice) is
    enumerated, which raises ValueError beyond ENUM_VAR_LIMIT variables.
    A witness assigns every variable of either set.
    """
    rho1 = list(flatten_constraints(rho1))
    rho2 = list(flatten_constraints(rho2))
    lat = lat or _TWO
    occurring = set().union(set(), *(tvars(c) for c in rho1 + rho2))
    names = sorted(occurring)
    if all(isinstance(c.rhs, TVar) for c in rho1):
        return _implies_definite(rho1, rho2, names, lat)
    if len(names) > ENUM_VAR_LIMIT or len(lat.elements) ** len(names) > 2**ENUM_VAR_LIMIT:
        raise ValueError(
            f"implication over {len(names)} variables with a non-definite"
            " premise is too large to enumerate"
        )
    for combo in itertools.product(lat.elements, repeat=len(names)):
        s = dict(zip(names, combo))
        if satisfies(s, rho1, lat) and not satisfies(s, rho2, lat):
            return ImpliesResult(False, s)
    return ImpliesResult(True)


def _implies_definite(rho1, rho2, names, lat: SecurityLattice) -> ImpliesResult:
    """Every model of rho1 that raises x raises everything x reaches, and
    raising exactly that (to the top) is a model; so `S <= T` fails iff
    some x of S reaches no variable of T, and that model is the witness."""
    top = lat.top
    if top == lat.bottom:
        return ImpliesResult(True)
    succ = successors(rho1)
    for c in sorted(rho2, key=_con_key):
        target = tvars(c.rhs)
        for x in sorted(tvars(c.lhs)):
            seen = reachable(succ, x, {x})
            if not seen & target:
                return ImpliesResult(False, {v: top if v in seen else lat.bottom for v in names})
    return ImpliesResult(True)


# ---------------------------------------------------------------------------
# Rendering / parsing of the textual form
# ---------------------------------------------------------------------------


def render(t: SecType) -> str:
    if isinstance(t, Bot):
        return "bot"
    if isinstance(t, TVar):
        return t.name
    if isinstance(t, Join):
        return " | ".join(render(e) for e in t.elems)
    if isinstance(t, Refine):
        inner = ", ".join(sorted(render_constraint(c) for c in t.constraints))
        base = render(t.base)
        if isinstance(t.base, Join):
            base = f"({base})"
        return f"{base} {{{inner}}}"
    raise TypeError(type(t))


def render_constraint(c: Constraint) -> str:
    return f"{render(c.lhs)} <= {render(c.rhs)}"
