"""Command-line front end.

Subcommands:
  check      infer and print security signatures; optionally check a policy
  normalize  de-nest a program (and optionally make delay inits explicit)
  interpret  run a node over CSV input streams, CSV on stdout
  verify     empirical checks: preservation / semantics / ni / all

Exit code is 0 iff nothing failed.  `SECLUS_COLOR=0` disables ANSI
colour.  Every randomized command echoes the seed it used.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Dict, Optional

from seclus.ast import ClockError, Program, validate
from seclus.interp import (
    CausalityError,
    ClockMismatch,
    EvalError,
    format_value,
    node_schedule,
    read_streams,
    run_node,
    write_streams,
)
from seclus.normalise import fby_init, normalize_program
from seclus.parser import ParseError, parse_program, pretty
from seclus.sectypes import LatticeError, SecurityLattice, parse_lattice
from seclus.typing import (
    TypingError,
    check_policy,
    check_policy_levels,
    check_policy_names,
    check_program,
    policy_instantiation,
    render_constraint,
    render_signature,
)
from seclus.verify import (
    check_noninterference,
    check_preservation,
    differential_semantics,
    report_json,
)


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def _use_color() -> bool:
    return sys.stdout.isatty() and os.environ.get("SECLUS_COLOR") != "0"


def _green(s: str) -> str:
    return f"\x1b[32m{s}\x1b[0m" if _use_color() else s


def _red(s: str) -> str:
    return f"\x1b[31m{s}\x1b[0m" if _use_color() else s


def _read_text(path: str) -> str:
    """The whole text of the UTF-8 file `path`.  A file that cannot be
    opened or decoded is one error line."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path!r}: {exc}") from None


def _load_program(path: str) -> Program:
    """Parse and validate a program file: one error line per diagnostic.
    A node with an instantaneous dependency cycle is one error line too,
    whatever the command."""
    prog = parse_program(_read_text(path), filename=path)
    diags = validate(prog)
    if diags:
        raise CliError("\n".join(f"{path}: {d}" for d in diags))
    annotated = prog.annotation
    for node in annotated.nodes:
        try:
            node_schedule(annotated, node)
        except CausalityError as exc:
            raise CliError(f"{path}: Causality in {node.name}: {exc}") from None
    return prog


def _pick_node(prog: Program, name: Optional[str]):
    if not prog.nodes:
        raise CliError("the program declares no nodes")
    if name is None:
        return prog.nodes[-1]
    for n in prog.nodes:
        if n.name == name:
            return n
    raise CliError(f"no node named {name!r}")


def _parse_level(lat: SecurityLattice, text: str):
    """A lattice element as written in a policy file.  String-valued
    lattices take the text as-is; powerset lattices read `{a,b}`."""
    text = text.strip()
    if text in lat.elements:
        return text
    if text.startswith("{") and text.endswith("}"):
        inner = text[1:-1].strip()
        parts = [p.strip() for p in inner.split(",")] if inner else []
        elem = frozenset(int(p) if p.lstrip("-").isdigit() else p for p in parts)
        if elem in lat.elements:
            return elem
    raise CliError(f"{text!r} is not an element of the lattice")


def _format_level(level) -> str:
    """A lattice element as a policy file writes it (the inverse of
    `_parse_level`): a powerset level as `{0,1}`, any other as-is."""
    if isinstance(level, frozenset):
        return "{" + ",".join(map(str, sorted(level))) + "}"
    return str(level)


def _load_policy(path: str, lat: SecurityLattice) -> Dict[str, object]:
    """Line-oriented `name = LEVEL` (use `base` for the node clock)."""
    policy: Dict[str, object] = {}
    lines: Dict[str, int] = {}
    for lineno, line in enumerate(_read_text(path).split("\n"), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected `name = LEVEL`")
        name, level = (p.strip() for p in line.split("=", 1))
        if name in lines:
            raise CliError(
                f"{path}:{lineno}: {name!r} already has a level, on line {lines[name]}"
            )
        lines[name] = lineno
        policy[name] = _parse_level(lat, level)
    return policy


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return random.randrange(2**32)


def _emit_json(payload: dict) -> None:
    print(json.dumps(report_json(payload), sort_keys=True, default=str))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    prog = _load_program(args.file)
    sigs = check_program(prog)
    lat = parse_lattice(args.lattice)
    report = {"signatures": {}, "policy": None}
    for node in prog.nodes:
        line = render_signature(sigs[node.name])
        report["signatures"][node.name] = line
        if not args.json:
            print(line)
    failed = False
    if args.policy:
        node = _pick_node(prog, args.node)
        named = _load_policy(args.policy, lat)
        sig = sigs[node.name]
        res = check_policy(sig, policy_instantiation(node, sig, named), lat)
        if res.secure:
            report["policy"] = {"node": node.name, "verdict": "Secure"}
            if not args.json:
                print(f"{node.name}: {_green('Secure')}")
        else:
            failed = True
            constraint = render_constraint(res.violation)
            report["policy"] = {
                "node": node.name,
                "verdict": "Violation",
                "constraint": constraint,
                "witness": {k: v for k, v in sorted(res.witness.items())},
            }
            if not args.json:
                print(f"{node.name}: {_red('Violation')} of {constraint}")
    if args.json:
        _emit_json(report)
    return 1 if failed else 0


def cmd_normalize(args) -> int:
    prog = _load_program(args.file)
    out = normalize_program(prog)
    if args.emit == "fby-init":
        out = fby_init(out)
    text = pretty(out, dialect="nlustre")
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {args.output!r}: {exc}") from None
    else:
        sys.stdout.write(text)
    return 0


def cmd_interpret(args) -> int:
    if args.steps is not None and args.steps < 0:
        raise CliError("--steps must be at least 0")
    prog = _load_program(args.file)
    node = _pick_node(prog, args.node)
    if args.inputs:
        if args.inputs == "-":
            try:
                text = sys.stdin.read()
            except UnicodeDecodeError as exc:
                raise CliError(f"cannot read standard input: {exc}") from None
        else:
            text = _read_text(args.inputs)
        names, streams = read_streams(text)
        want = [d.name for d in node.inputs]
        missing = [x for x in want if x not in names]
        if missing:
            raise CliError(
                f"input CSV is missing columns for {', '.join(missing)}"
            )
        inputs = [streams[x] for x in want]
        for d, column in zip(node.inputs, inputs):
            for row, v in enumerate(column, 1):
                # a bool is not an int here; `.` (absent) fits either
                if v is not None and (type(v) is bool) != (d.type == "bool"):
                    value = format_value(v)
                    raise CliError(f"input {d.name!r}, row {row}: {value} is not of type {d.type}")
        N = len(inputs[0]) if inputs else 0
    else:
        if node.inputs:
            raise CliError(f"{node.name} has inputs; provide --inputs CSV")
        inputs, N = [], 0
    if args.steps is not None:
        N = min(N, args.steps) if inputs else args.steps
        inputs = [s[:N] for s in inputs]
    H = run_node(prog, node.name, inputs, N=N, dialect=args.dialect)
    cols = [d.name for d in node.outputs]
    if args.trace:
        cols = [d.name for d in (*node.inputs, *node.outputs, *node.locals)]
    if N == 0:
        H = {x: [] for x in cols}
    sys.stdout.write(write_streams(cols, H))
    return 0


def cmd_verify(args) -> int:
    if args.horizon < 1:
        raise CliError("--horizon must be at least 1")
    for flag, trials in (("--trials", args.trials), ("--ni-trials", args.ni_trials)):
        if trials < 1:
            raise CliError(f"{flag} must be at least 1")
    prog = _load_program(args.file)
    seed = _resolve_seed(args)
    lat = parse_lattice(args.lattice)
    payload: dict = {"seed": seed, "file": args.file}
    ok = True
    if args.what in ("ni", "all"):
        # the policy is checked before any campaign runs
        node = _pick_node(prog, args.node)
        named = _load_policy(args.policy, lat) if args.policy else {}
        check_policy_names(node, named)
        if args.policy:
            check_policy_levels((d.name for d in node.inputs), named)
    if not args.json:
        print(f"seed: {seed}")

    if args.what in ("preservation", "all"):
        verdicts = check_preservation(prog)
        payload["preservation"] = verdicts
        for v in verdicts:
            ok = ok and v.ok
            if not args.json:
                mark = _green("pass") if v.ok else _red("fail")
                eq = " (constraints equal)" if v.denesting_equal and v.init_equal else ""
                print(f"preservation {v.node}: {mark}{eq}")
                if v.witness:
                    print(f"  witness: {v.witness}")

    if args.what in ("semantics", "all"):
        rep = differential_semantics(prog, trials=args.trials, N=args.horizon, seed=seed)
        payload["semantics"] = rep
        ok = ok and rep.ok
        if not args.json:
            mark = _green("pass") if rep.ok else _red("fail")
            print(
                f"semantics {','.join(rep.nodes)}: {mark}"
                f" ({rep.trials} trials, horizon {rep.horizon})"
            )
            for d in rep.divergences:
                print(
                    f"  divergence: node {d.node} trial {d.trial}"
                    f" {d.variable}@{d.instant} {d.values}"
                )

    if args.what in ("ni", "all"):
        input_levels = {
            d.name: named.get(d.name, lat.bottom) for d in node.inputs
        }
        output_levels = {
            d.name: named[d.name] for d in node.outputs if d.name in named
        } or None
        if not args.policy and not args.json:
            bottom = _format_level(lat.bottom)
            print(f"ni {node.name}: no --policy given, every input is at {bottom}")
        reports = []
        for t in lat.elements:
            rep = check_noninterference(
                prog,
                node.name,
                lat,
                input_levels,
                t,
                trials=args.trials if args.what == "ni" else args.ni_trials,
                N=args.horizon,
                seed=seed,
                output_levels=output_levels,
                clock_pairing=args.clock_pairing,
            )
            reports.append(rep)
            ok = ok and rep.ok
            if not args.json:
                mark = _green("pass") if rep.ok else _red("fail")
                # with every input observed, both runs of a trial get the same inputs
                unpaired = ""
                if all(lat.leq(lev, t) for lev in input_levels.values()):
                    unpaired = "; runs not paired: no input is above this level"
                print(
                    f"ni {node.name} at {_format_level(t)}: {mark}"
                    f" ({rep.trials} trials, {rep.skipped} skipped,"
                    f" {len(rep.errors)} errored{unpaired})"
                )
                for v in rep.violations:
                    print(
                        f"  violation: trial {v.trial} {v.variable}@{v.instant}"
                        f" {v.values}"
                    )
        payload["ni"] = reports

    if args.json:
        _emit_json(payload)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument errors end in one diagnostic line and exit code 1, not
    in the usage text and exit code 2."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="seclus",
        description="Security-type checker and interpreter for clocked dataflow programs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="infer signatures; optionally check a policy")
    c.add_argument("file")
    c.add_argument("--policy", help="policy file: lines `name = LEVEL`, `base` for the clock")
    c.add_argument("--lattice", default="2point", help="2point | powerset:n | FILE")
    c.add_argument("--node", help="node the policy applies to (default: last)")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_check)

    n = sub.add_parser("normalize", help="de-nest; optionally make delay inits explicit")
    n.add_argument("file")
    n.add_argument("--emit", choices=["nlustre", "fby-init"], default="nlustre")
    n.add_argument("-o", "--output")
    n.set_defaults(func=cmd_normalize)

    i = sub.add_parser("interpret", help="run a node over CSV streams")
    i.add_argument("file")
    i.add_argument("node", nargs="?", help="node to run (default: last)")
    i.add_argument("--inputs", help="CSV file of input streams ('-' for stdin)")
    i.add_argument("--steps", type=int, help="run at most N input rows; N instants if no inputs")
    i.add_argument("--trace", action="store_true", help="include inputs and locals")
    i.add_argument("--dialect", choices=["lustre", "nlustre"], default="lustre")
    i.set_defaults(func=cmd_interpret)

    v = sub.add_parser("verify", help="empirical preservation/semantics/ni checks")
    v.add_argument("file")
    v.add_argument("--what", choices=["preservation", "semantics", "ni", "all"], default="all")
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--ni-trials", type=int, default=1000, help="trials for ni under --what all")
    v.add_argument("--horizon", type=int, default=50)
    v.add_argument("--seed", type=int, help="echoed; auto-generated when absent")
    v.add_argument("--lattice", default="2point", help="2point | powerset:n | FILE")
    v.add_argument("--policy", help="levels for ni inputs/outputs")
    v.add_argument("--node", help="node for ni (default: last)")
    v.add_argument("--clock-pairing", choices=["strict", "skip"], default="strict")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (
        CliError,
        ParseError,
        TypingError,
        ClockError,
        LatticeError,
        ClockMismatch,
        CausalityError,
        EvalError,
    ) as exc:
        for line in str(exc).splitlines():
            print(f"error: {line}", file=sys.stderr)
        return 1
    except RecursionError:
        # a deep expression, or a deep chain of calls, which each engine
        # prepares or inlines callee by callee
        print("error: expression or call nesting too deep", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
