"""Security-flow typing for Lustre/NLustre nodes.

Each node gets a signature: type variables for its inputs, outputs and
base clock plus a constraint set relating them.  Every constraint the
rules produce is definite, `join(atoms) <= v` with `v` a single type
variable (Rehof & Mogensen's definite inequalities; Horn clauses), so an
expression's type is just the set of variables it joins, and a node call
adds the callee's constraints, renamed, as bounds on fresh result
variables.  The locals and call results are then eliminated by graph
reachability: each one stands for the least solution of its constraints,
the interface variables it reaches.  This gives the same signatures as
serially substituting the term algebra of `seclus.sectypes`, but
follows each constraint once.

Deterministic fresh naming: inputs a1, a2, ...; outputs b1, b2, ...;
base clock g; locals and call-site result variables d1, d2, ... in
declaration order followed by call order.  Running the checker twice on
the same program therefore produces literally identical signatures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from seclus.ast import (
    BASE,
    AnyEquation,
    Base,
    Binop,
    CallEq,
    Clock,
    Const,
    Equation,
    Expr,
    Fby,
    FbyEq,
    Ite,
    Merge,
    Node,
    NodeCall,
    Program,
    SimpleEq,
    Unop,
    Var,
    When,
    clock_env,
)
from seclus.sectypes import (
    BOT,
    Bot,
    Constraint,
    ConstraintSet,
    GroundInstantiation,
    Join,
    SecType,
    SecurityLattice,
    TVar,
    satisfies,
    tvars,
)

# the reserved environment key for the base-clock type
BASE_KEY = "base"


class TypingError(Exception):
    pass


@dataclass(frozen=True)
class NodeSignature:
    """Interface-level flow contract of a node.

    `constraints` mention only `input_vars`, `output_vars` and
    `clock_var`.  `local_types` records, for every declared local in
    declaration order, its interface-level type: the least type its
    constraints allow (used to assign observation levels to locals).
    Inference keeps each local's type as the set of variables it joins
    and builds the term when the local is first read.
    """

    name: str
    input_vars: Tuple[str, ...]
    output_vars: Tuple[str, ...]
    clock_var: str
    constraints: ConstraintSet
    local_types: Mapping[str, SecType] = field(default_factory=dict, compare=False)


SignatureEnv = Dict[str, NodeSignature]

# A type during inference: the set of type-variable names it joins.
Atoms = FrozenSet[str]
_NONE: Atoms = frozenset()


class _NodeTyper:
    """Types the equations of one node into definite constraints, kept
    as `bounds[v]`: the left sides of the constraints `join(lhs) <= v`."""

    def __init__(self, sigs: SignatureEnv, env: Dict[str, str], n: Node) -> None:
        self.sigs = sigs
        self.types = {x: frozenset((v,)) for x, v in env.items()}
        self.clocks = clock_env(n)
        self.bounds: Dict[str, set] = {}
        self.fresh = len(n.locals)  # d-variables named so far

    def type_of(self, name: str) -> Atoms:
        try:
            return self.types[name]
        except KeyError:
            raise TypingError(f"unbound variable {name!r}") from None

    def bound(self, target: Atoms, lhs: Atoms) -> None:
        """Record `join(lhs) <= v` for the single variable v of `target`,
        less the part that holds trivially."""
        (v,) = target
        lhs = lhs - target
        if lhs:
            self.bounds.setdefault(v, set()).add(lhs)

    def clock(self, ck: Clock) -> Atoms:
        """Base clocks read the base entry; sampled clocks join in the
        sampling variable."""
        if isinstance(ck, Base):
            return self.type_of(BASE_KEY)
        return self.clock(ck.clock) | self.type_of(ck.var)

    def expr(self, e: Expr) -> List[Atoms]:
        """One type per component stream of `e`, in order."""
        if isinstance(e, Const):
            return [_NONE]
        if isinstance(e, Var):
            return [self.type_of(e.name)]
        if isinstance(e, Unop):
            return self.expr(e.operand)
        if isinstance(e, Binop):
            (l,) = self.expr(e.left)
            (r,) = self.expr(e.right)
            return [l | r]
        if isinstance(e, When):
            x = self.type_of(e.var)
            return [t | x for t in self.all(e.exprs)]
        if isinstance(e, Merge):
            return self.branches(self.type_of(e.var), e.on_true, e.on_false)
        if isinstance(e, Ite):
            (theta,) = self.expr(e.cond)
            return self.branches(theta, e.on_true, e.on_false)
        if isinstance(e, Fby):
            return self.branches(_NONE, e.init, e.rest)
        if isinstance(e, NodeCall):
            return self.call(e.node, e.args, self.type_of(BASE_KEY))
        raise TypingError(f"cannot type {type(e).__name__}")

    def all(self, es) -> List[Atoms]:
        out: List[Atoms] = []
        for e in es:
            out.extend(self.expr(e))
        return out

    def branches(self, theta: Atoms, on_true, on_false) -> List[Atoms]:
        ts = self.all(on_true)
        fs = self.all(on_false)
        if len(ts) != len(fs):
            raise TypingError("branch width mismatch")
        return [theta | t | f for t, f in zip(ts, fs)]

    def call(self, node: str, args, ck: Atoms) -> List[Atoms]:
        """Fresh result variables bounded by the callee's constraints,
        instantiated at the argument types and the call's clock type."""
        if node not in self.sigs:
            raise TypingError(f"unknown node {node!r}")
        sig = self.sigs[node]
        arg_types = self.all(args)
        if len(arg_types) != len(sig.input_vars):
            raise TypingError(
                f"call to {node!r}: {len(arg_types)} argument streams,"
                f" signature has {len(sig.input_vars)}"
            )
        subst: Dict[str, Atoms] = {sig.clock_var: ck}
        subst.update(zip(sig.input_vars, arg_types))
        for b in sig.output_vars:
            self.fresh += 1
            subst[b] = frozenset((f"d{self.fresh}",))
        for c in sig.constraints:
            target = subst[c.rhs.name]
            if len(target) != 1:
                raise TypingError(f"call to {node!r}: the node redefines an input")
            self.bound(target, _NONE.union(*(subst[a] for a in tvars(c.lhs))))
        return [subst[b] for b in sig.output_vars]

    def equation(self, eq: AnyEquation) -> None:
        """For each defined variable x with right-side component type t
        and clock type c: c|t <= x."""
        if isinstance(eq, Equation):
            types = self.all(eq.exprs)
            if len(types) != len(eq.targets):
                raise TypingError(
                    f"equation for {', '.join(eq.targets)}: width mismatch"
                    f" ({len(types)} vs {len(eq.targets)})"
                )
            for x, t in zip(eq.targets, types):
                ck = self.clock(self.clocks.get(x, BASE))
                self.bound(self.type_of(x), ck | t)
            return
        ck = self.clock(eq.clock)
        if isinstance(eq, SimpleEq):
            (t,) = self.expr(eq.rhs)
            self.bound(self.type_of(eq.target), ck | t)
        elif isinstance(eq, FbyEq):
            (a,) = self.expr(eq.init)
            (b,) = self.expr(eq.rhs)
            self.bound(self.type_of(eq.target), ck | a | b)
        elif isinstance(eq, CallEq):
            # the call's own clock stands in for the caller's base entry
            types = self.call(eq.node, eq.args, ck)
            if len(types) != len(eq.targets):
                raise TypingError(f"call equation for {', '.join(eq.targets)}: width mismatch")
            for x, t in zip(eq.targets, types):
                self.bound(self.type_of(x), ck | t)
        else:
            raise TypingError(f"cannot type equation {type(eq).__name__}")


# ---------------------------------------------------------------------------
# Local-variable elimination
# ---------------------------------------------------------------------------


def _close(bounds: Mapping[str, set], deltas: List[str]) -> Dict[str, Atoms]:
    """The least solution of the constraints on `deltas`: each one maps
    to the other variables it reaches through them.

    Each variable of `deltas` must be bounded by exactly one constraint;
    one with none that nothing mentions is bottom.  The graph is closed
    one strongly connected component at a time (Tarjan), sinks first, so
    every edge is followed once.
    """
    edges: Dict[str, Atoms] = {}
    used = None
    for d in deltas:
        lhss = bounds.get(d, ())
        if len(lhss) == 1:
            (edges[d],) = lhss
            continue
        if used is None:
            used = _NONE.union(*(lhs for ls in bounds.values() for lhs in ls))
        if lhss or d in used:
            raise TypingError(f"{len(lhss)} constraints define {d!r}; expected exactly one")
        edges[d] = _NONE
    # successors in a fixed order, so the walk is the same in every run
    succ = {d: sorted(edges.keys() & e) for d, e in edges.items()}
    outer = {d: e.difference(edges) for d, e in edges.items()}

    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    stack: List[str] = []
    # each variable's position on the stack, so an SCC is cut off the
    # stack without searching it
    at: Dict[str, int] = {}
    closed: Dict[str, Atoms] = {}
    for root in edges:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        at[root] = len(stack)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    at[w] = len(stack)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if w not in closed:  # still on the stack
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    scc = stack[at[v] :]
                    del stack[at[v] :]
                    value = _NONE.union(
                        *(outer[m] for m in scc),
                        *(closed[w] for m in scc for w in succ[m] if w in closed),
                    )
                    for m in scc:
                        closed[m] = value
    return closed


def _term(atoms: Atoms) -> SecType:
    """The canonical join of the variables named by `atoms`, as
    `canonicalize` orders it: `TVar`s sort by name."""
    if not atoms:
        return BOT
    if len(atoms) == 1:
        (a,) = atoms
        return TVar(a)
    return Join(tuple(TVar(a) for a in sorted(atoms)))


class _LocalTypes(Mapping[str, SecType]):
    """The locals' types, by name in declaration order, each built from
    its atom set when first read and kept."""

    __slots__ = ("_atoms", "_terms")

    def __init__(self, atoms: Dict[str, Atoms]) -> None:
        self._atoms = atoms
        self._terms: Dict[str, SecType] = {}

    def __getitem__(self, x: str) -> SecType:
        t = self._terms.get(x)
        if t is None:
            t = self._terms[x] = _term(self._atoms[x])
        return t

    def __iter__(self):
        return iter(self._atoms)

    def __len__(self) -> int:
        return len(self._atoms)

    def __repr__(self) -> str:
        return repr(dict(self))


def node_signature(prog: Program, sigs: SignatureEnv, n: Node) -> NodeSignature:
    """Type every equation of `n` with fresh variables, then eliminate
    the locals and call-result variables."""
    in_vars = tuple(f"a{i}" for i in range(1, len(n.inputs) + 1))
    out_vars = tuple(f"b{i}" for i in range(1, len(n.outputs) + 1))
    local_vars = {d.name: f"d{i}" for i, d in enumerate(n.locals, 1)}
    env = {BASE_KEY: "g"}
    env.update(zip((d.name for d in n.inputs), in_vars))
    env.update(zip((d.name for d in n.outputs), out_vars))
    env.update(local_vars)

    typer = _NodeTyper(sigs, env, n)
    for eq in n.equations:
        typer.equation(eq)

    deltas = [f"d{i}" for i in range(1, typer.fresh + 1)]
    closed = _close(typer.bounds, deltas)
    # distinct (atoms, v) pairs first, so each constraint's term is built once
    pairs = set()
    for v, lhss in typer.bounds.items():
        if v in closed:
            continue
        for lhs in lhss:
            atoms = _NONE.union(*(closed.get(a, (a,)) for a in lhs)).difference((v,))
            if atoms:
                pairs.add((atoms, v))
    constraints = frozenset(Constraint(_term(atoms), TVar(v)) for atoms, v in pairs)
    local_types = _LocalTypes({x: closed[v] for x, v in local_vars.items()})
    return NodeSignature(n.name, in_vars, out_vars, "g", constraints, local_types)


def check_program(prog: Program) -> SignatureEnv:
    """Signatures for every node, in declaration order, which `validate`
    makes the order of calls: inferred once per program object, each
    caller getting its own dict."""
    sigs = prog.memo.get("signatures")
    if sigs is None:
        sigs = {}
        for n in prog.nodes:
            sigs[n.name] = node_signature(prog, sigs, n)
        prog.memo["signatures"] = sigs
    return dict(sigs)


# ---------------------------------------------------------------------------
# Policy checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyResult:
    secure: bool
    violation: Optional[Constraint] = None
    witness: Optional[GroundInstantiation] = None

    def __bool__(self) -> bool:
        return self.secure


def check_policy(
    sig: NodeSignature, policy: Mapping[str, object], lat: SecurityLattice
) -> PolicyResult:
    """Is the signature satisfied when interface variables are pinned to
    the given lattice levels?  `policy` maps type-variable names (or the
    node's own variable names via `policy_instantiation`) to elements."""
    s: GroundInstantiation = {}
    names = (*sig.input_vars, *sig.output_vars, sig.clock_var)
    check_policy_levels(names, policy)
    for v in names:
        lev = policy[v]
        if lev not in lat.elements:
            raise TypingError(f"{lev!r} is not an element of the lattice")
        s[v] = lev
    if satisfies(s, sig.constraints, lat):
        return PolicyResult(True)
    for c in sorted(sig.constraints, key=str):
        if not satisfies(s, frozenset([c]), lat):
            return PolicyResult(False, c, dict(s))
    raise AssertionError("unreachable")


def policy_instantiation(
    node: Node, sig: NodeSignature, named: Mapping[str, object]
) -> dict[str, object]:
    """Translate a policy keyed by source variable names (plus "base")
    into one keyed by the signature's type variables.  A TypingError
    names the first interface variable, or "base", without a level."""
    check_policy_names(node, named)
    names = {d.name: v for d, v in zip(node.inputs, sig.input_vars)}
    names.update({d.name: v for d, v in zip(node.outputs, sig.output_vars)})
    names[BASE_KEY] = sig.clock_var
    check_policy_levels(names, named)
    return {names[k]: lev for k, lev in named.items()}


def check_policy_levels(names: Iterable[str], named: Mapping[str, object]) -> None:
    """TypingError for the first of `names` that the policy `named`
    gives no level."""
    for k in names:
        if k not in named:
            raise TypingError(f"policy missing a level for {k!r}")


def check_policy_names(node: Node, named: Iterable[str]) -> None:
    """TypingError for the first policy name that is neither an input
    or output of `node` nor "base"."""
    interface = {d.name for d in (*node.inputs, *node.outputs)}
    interface.add(BASE_KEY)
    for k in named:
        if k not in interface:
            raise TypingError(f"{k!r} is not an interface variable of {node.name}")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _var_key(name: str) -> tuple:
    # dump order: clock first, then inputs, outputs, leftovers; numeric-aware
    klass = {"g": 0, "a": 1, "b": 2, "d": 3}.get(name[0], 4)
    digits = name[1:]
    num = int(digits) if digits.isdigit() else 0
    return (klass, num, name)


def _dump_type(t: SecType) -> str:
    if isinstance(t, Bot):
        return "bot"
    if isinstance(t, TVar):
        return t.name
    if isinstance(t, Join):
        names = sorted((e.name for e in t.elems if isinstance(e, TVar)), key=_var_key)
        rest = [_dump_type(e) for e in t.elems if not isinstance(e, TVar)]
        return "|".join(names + rest)
    return str(t)


def render_signature(sig: NodeSignature) -> str:
    """One-line dump: `f(a1,a2) =>g (b1) { g|a1|a2 <= b1 }`."""
    cons = sorted(sig.constraints, key=lambda c: (_dump_type(c.rhs), _dump_type(c.lhs)))
    body = ", ".join(f"{_dump_type(c.lhs)} <= {_dump_type(c.rhs)}" for c in cons)
    return (
        f"{sig.name}({','.join(sig.input_vars)}) =>{sig.clock_var}"
        f" ({','.join(sig.output_vars)}) {{ {body} }}"
    )
