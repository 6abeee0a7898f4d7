"""The per-layer work counts that moved between two traced benchmark runs.

    python3 scripts/layer_diff.py PARENT_JSON CHANGE_JSON

Reads two result files written by `bench/run.py --trace 1`
(`bench/out/<workload>-seed<N>-trace1.json`), the first from the parent
tree and the second from the changed one, and prints one line for each
per-layer `.kops` (thousands of Python instructions per program) or
`.calls` (calls per program) metric whose value differs:

    parse.kops  417.294 -> 350.124  x0.839

A metric that only one file has is printed with `-` on the other side.
These metrics are counts, not times: two runs of one tree give the same
values, so they print nothing, and any line printed is a change in the
work a layer does.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import sys

KINDS = (".kops", ".calls")


def counts(path: str) -> dict[str, float]:
    """The `.kops` and `.calls` metrics of the result file at `path`."""
    with open(path, encoding="utf-8") as fh:
        metrics = json.load(fh)["metrics"]
    return {name: m["value"] for name, m in metrics.items() if name.endswith(KINDS)}


def moved(parent: dict[str, float], change: dict[str, float]) -> list[str]:
    """One line per metric whose value differs, in name order."""
    lines = []
    for name in sorted(parent.keys() | change.keys()):
        a, b = parent.get(name), change.get(name)
        if a == b:
            continue
        ratio = f"x{b / a:.3f}" if a and b is not None else ""
        show = ["-" if v is None else f"{v:.3f}" for v in (a, b)]
        lines.append(f"{name}  {show[0]} -> {show[1]}  {ratio}".rstrip())
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="trace-1 result file of the parent tree")
    ap.add_argument("change", help="trace-1 result file of the changed tree")
    args = ap.parse_args(argv)
    for line in moved(counts(args.parent), counts(args.change)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
