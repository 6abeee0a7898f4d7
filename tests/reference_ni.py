"""The former non-interference harness, kept as the oracle that the
current one must match report for report.

`reference_noninterference` runs the former `_ni_trials` over the whole
trial range in this process: per level it types the program again, asks
the engine for the observed columns only, draws both input histories of
every trial with `randrange` and runs the pair even when every input is
low.  `reference_minimal_instantiation` is the former fixpoint: outputs
start at bottom and are raised to their constraints' left sides until
nothing changes.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping

from seclus.ast import BASE, Node
from seclus.interp import ClockMismatch, EvalError
from seclus.sectypes import SecurityLattice, eval_ground
from seclus.typing import NodeSignature, check_program
from seclus.verify import (
    NIReport,
    NIViolation,
    _engine,
    _trial_rng,
    variable_levels,
)


def reference_random_inputs(node: Node, N: int, rng: random.Random) -> List[list]:
    out = []
    for d in node.inputs:
        if d.type == "bool":
            out.append([rng.random() < 0.5 for _ in range(N)])
        else:
            out.append([rng.randrange(-8, 9) for _ in range(N)])
    return out


def reference_minimal_instantiation(
    sig: NodeSignature,
    input_levels: Mapping[str, object],
    clock_level: object,
    lat: SecurityLattice,
) -> Dict[str, object]:
    s: Dict[str, object] = {sig.clock_var: clock_level}
    for a in sig.input_vars:
        s[a] = input_levels[a]
    for b in sig.output_vars:
        s[b] = lat.bottom
    bounds: Dict[str, list] = {}
    for c in sig.constraints:
        bounds.setdefault(c.rhs.name, []).append(c.lhs)
    for _ in range(len(sig.output_vars) + 1):
        changed = False
        for b, lhss in bounds.items():
            val = lat.join_all([eval_ground(s, lhs, lat) for lhs in lhss])
            if val != s[b]:
                s[b] = val
                changed = True
        if not changed:
            break
    return s


def _ni_trials(args):
    (G, f, lat, input_levels, t, N, seed, output_levels,
     clock_pairing, engine, lo, hi) = args
    node = G.node(f)
    sig = check_program(G)[f]
    levels = variable_levels(node, sig, input_levels, lat.bottom, lat, output_levels)
    low_inputs = [d.name for d in node.inputs if lat.leq(levels[d.name], t)]
    observed = sorted(x for x in levels if lat.leq(levels[x], t))
    program = _engine(engine)(G)
    violations: List[NIViolation] = []
    errors: List[str] = []
    skipped = 0
    for trial in range(lo, hi):
        rng = _trial_rng(seed, 0, trial)
        ins1 = reference_random_inputs(node, N, rng)
        ins2 = reference_random_inputs(node, N, rng)
        for k, d in enumerate(node.inputs):
            if d.name in low_inputs:
                ins2[k] = list(ins1[k])
        if clock_pairing == "skip" and any(
            not isinstance(d.clock, type(BASE)) for d in node.inputs
        ):
            skipped += 1
            continue
        try:
            H1 = program.run(f, ins1, N=N, want=observed)
            H2 = program.run(f, ins2, N=N, want=observed)
        except (ClockMismatch, EvalError) as exc:
            errors.append(f"trial {trial}: {exc!r}")
            continue
        for x in observed:
            s1, s2 = H1[x], H2[x]
            if s1 != s2:
                i = next(i for i, (u, v) in enumerate(zip(s1, s2)) if u != v)
                violations.append(NIViolation(t, trial, x, i, (s1[i], s2[i])))
                break
        if violations:
            break
    return violations, errors, skipped


def reference_noninterference(
    G, f, lat, input_levels, t, trials=1000, N=50, seed=0,
    output_levels=None, clock_pairing="strict", engine="compiled",
) -> NIReport:
    args = (G, f, lat, dict(input_levels), t, N, seed,
            dict(output_levels) if output_levels else None, clock_pairing, engine)
    violations, errors, skipped = _ni_trials(args + (0, trials))
    return NIReport(f, t, trials, tuple(violations[:1]), skipped, tuple(errors))
