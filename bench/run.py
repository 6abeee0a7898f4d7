"""Run one benchmark workload in one process and one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from `src/` next to this
directory.  The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
metrics are the end-to-end ones, measured with all tracing off; with
`--trace 1` they are the per-layer ones.  The same object, with the
measurements behind it, is written to `bench/out/`.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from types import SimpleNamespace

import layers
import workloads

ROOT = os.path.dirname(layers.BENCH_DIR)
OUT_DIR = os.path.join(layers.BENCH_DIR, "out")
SETUP_REPEATS = 3  # at the start, and in end-to-end runs again at the end
MIN_PROGRAMS = 100  # p90 needs ten samples beyond it
MODULES = ("ast", "parser", "sectypes", "typing", "normalise", "interp", "compiled", "verify")
REF_LOOP_MS = 1.0  # the time of `reference_loop` at the reference speed


def reference_loop() -> int:
    """A fixed piece of pure-Python work that uses no `seclus` code.  Its
    few objects die at once and it keeps nothing alive, so its time
    follows the host's speed and not the state the program leaves in
    the process (heap size, caches)."""
    s = 0
    names = ("a", "bb", "ccc")
    for i in range(5000):
        pair = (i, names[i % 3])
        s += (pair[0] * 7 + len(pair[1])) % 11
    return s


class HostSpeed:
    """The speed of the host during a run, from `reference_loop` timed
    before each set-up, or before each timed operation.

    On a host shared with other tenants, their load slows every Python
    process by 10-30 % for seconds to minutes at a time, so two runs of
    the same work read different wall times.  Times are therefore reported in
    reference time: wall time x REF_LOOP_MS / the loop's time next to
    it.  The program's own speed moves them; the host's mostly cancels.
    The wall times are kept in `bench/out/`."""

    def __init__(self) -> None:
        self.loops: list = []

    def tick(self) -> None:
        # the loop's tuples would count towards collections, whose cost
        # depends on how many objects the program keeps alive
        gc.disable()
        t0 = time.perf_counter()
        reference_loop()
        self.loops.append(time.perf_counter() - t0)
        gc.enable()

    def loop_ms(self) -> float:
        """The loop's 10 %-trimmed mean time over the run, in ms."""
        k = sorted(self.loops)
        cut = len(k) // 10
        return 1000 * statistics.fmean(k[cut : len(k) - cut])

    def scale(self) -> float:
        """Reference seconds per second of wall time, over the run."""
        return REF_LOOP_MS / self.loop_ms()

    def scale_at(self, j: int) -> float:
        """Reference seconds per second of wall time around the `j`-th
        loop: the median of the two loops before the operation that
        follows it and the two after."""
        return REF_LOOP_MS / (1000 * statistics.median(self.loops[max(0, j - 1) : j + 3]))


def load_seclus() -> SimpleNamespace:
    """Import the program afresh (so that every set-up pays for it) and
    gather the modules and the functions the workloads call."""
    for name in [k for k in sys.modules if k == "seclus" or k.startswith("seclus.")]:
        del sys.modules[name]
    m = SimpleNamespace(**{n: importlib.import_module("seclus." + n) for n in MODULES})
    m.parse_program = m.parser.parse_program
    m.check_program = m.typing.check_program
    m.check_policy = m.typing.check_policy
    m.normalize_program = m.normalise.normalize_program
    m.fby_init = m.normalise.fby_init
    m.run_node = m.interp.run_node
    m.check_history = m.interp.check_history
    m.lattices = {"2point": m.sectypes.two_point(), "powerset:2": m.sectypes.powerset_lattice(2)}
    return m


def set_up(wl):
    m = load_seclus()
    items = workloads.programs(m, ROOT, wl.leaky)
    extra = workloads.boundary_items(items) if wl.boundary else []
    return m, items, extra


def timed_set_ups(wl, speed: HostSpeed, setups: list):
    """SETUP_REPEATS set-ups, each after five reference loops and a full
    collection; returns the state of the last one."""
    for _ in range(SETUP_REPEATS):
        for _ in range(5):
            speed.tick()
        gc.collect()  # every set-up starts from the same heap
        t0 = time.perf_counter()
        state = set_up(wl)
        setups.append(time.perf_counter() - t0)
    return state


def reference_set_up_s(speed: HostSpeed, setups: list) -> float:
    """The median set-up, each in reference time by its five loops."""
    return statistics.median(
        s * REF_LOOP_MS / (1000 * statistics.median(speed.loops[5 * i : 5 * i + 5]))
        for i, s in enumerate(setups)
    )


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: list = []

    def run(self, m, wl, item) -> None:
        """Parse one item and apply the workload's operation to it."""
        self.attempted += 1
        try:
            prog = m.parse_program(item.text)
            if item.kind.startswith("bv-"):
                self.failed += not workloads.boundary(m, prog, item)
            else:
                wl.op(m, prog, item)
        except workloads.CheckFailed as exc:
            self.wrong.append(str(exc))
        except Exception:
            self.failed += 1
            print(f"{item.name}: operation failed", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


def one_round(m, wl, items, extra, run, speed=None, samples=None) -> float:
    """Every item once, then the boundary comparisons, each through
    `run(m, wl, item)`; returns the wall time of the operations.  A run
    is made of whole rounds, so the failed share is fixed.  With `speed`,
    the reference loop is timed before every operation; `samples` gets
    `(name, wall time, is a program)` for every operation."""
    total = 0.0
    for k, item in enumerate(items + extra):
        if speed is not None:
            speed.tick()
        t0 = time.perf_counter()
        run(m, wl, item)
        dt = time.perf_counter() - t0
        total += dt
        if samples is not None:
            samples.append((item.name, dt, k < len(items)))
    return total


def counted_subset(items, extra):
    """The fixed part of the corpus that the opcode passes count: the
    fixtures, the first OPCODE_PROGRAMS generated programs and their
    boundary comparisons, all with input seed 0.  Passes over it check
    outputs but add nothing to `attempted` and `failed`, which count
    whole rounds of the corpus only."""
    generated = [it.name for it in items if it.kind == "generated"]
    keep = set(generated[: workloads.OPCODE_PROGRAMS])
    subset = [it for it in items if it.kind != "generated" or it.name in keep]
    subset_extra = [it for it in extra if it.kind == "bv-operator" or it.name[3:] in keep]
    return subset, subset_extra


def end_to_end(m, wl, items, extra, tally, speed, seconds, seed):
    """Whole rounds over the corpus, in the seed's order with the seed's
    trial inputs, until `seconds` have passed and MIN_PROGRAMS programs
    are timed; then the opcode-counted pass over the fixed subset."""
    samples, wall, rounds = [], 0.0, 0
    timed = workloads.seeded(items, seed)
    while wall < seconds or rounds * len(timed) < MIN_PROGRAMS:
        wall += one_round(m, wl, timed, extra, tally.run, speed, samples)
        rounds += 1
    n = rounds * len(timed)
    print(f"timed: {rounds} round(s), {n} programs in {wall:.2f} s;"
          f" p50 and p90 over {n} samples", file=sys.stderr)

    subset, subset_extra = counted_subset(items, extra)
    trace, checked = layers.Trace(), Tally()
    t0 = time.perf_counter()
    with layers.count_opcodes(trace):
        one_round(m, wl, subset, subset_extra, checked.run)
    tally.wrong += checked.wrong
    print(f"opcode pass: {len(subset)} programs, {len(subset_extra)} boundary comparisons"
          f" in {time.perf_counter() - t0:.2f} s", file=sys.stderr)

    # one loop timing precedes each operation, so they share an index
    ref = [dt * speed.scale_at(j) for j, (_, dt, _) in enumerate(samples)]
    ref_ms = sorted(1000 * r for r, (_, _, program) in zip(ref, samples) if program)
    wall_ms = sorted(1000 * dt for _, dt, program in samples if program)
    metrics = {
        "programs_per_s": (n / sum(ref), "1/s"),
        "program_ms_p50": (statistics.median(ref_ms), "ms"),
        "program_ms_p90": (statistics.quantiles(ref_ms, n=10)[-1], "ms"),
        "kops_per_program": (trace.ops[0] / 1000 / len(subset), "kops"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "rounds": rounds,
        "wall": {
            "programs_per_s": n / wall,
            "program_ms_p50": statistics.median(wall_ms),
            "program_ms_p90": statistics.quantiles(wall_ms, n=10)[-1],
        },
        "operation_wall_ms": [[name, 1000 * dt] for name, dt, _ in samples],
    }
    return metrics, detail


def per_layer(m, wl, items, extra, tally, speed, seconds, seed):
    """Span-traced rounds of the whole corpus for the self times, then
    the fixed subset three times: untraced, span-traced (the spans'
    overhead) and span-traced under the opcode counter (calls,
    instructions and sizes, and the counter's overhead)."""
    spans = layers.Trace()
    campaign = spans.wrap("campaign", tally.run)
    timed = workloads.seeded(items, seed)
    traced_s, rounds = 0.0, 0
    with layers.instrument(m, spans):
        while traced_s < seconds or rounds * len(timed) < MIN_PROGRAMS:
            traced_s += one_round(m, wl, timed, extra, campaign, speed)
            rounds += 1
    n_timed = rounds * len(timed)

    subset, subset_extra = counted_subset(items, extra)
    checked = Tally()
    plain_s = one_round(m, wl, subset, subset_extra, checked.run)
    probe = layers.Trace()
    with layers.instrument(m, probe):
        spans_s = one_round(m, wl, subset, subset_extra, probe.wrap("campaign", checked.run))
    counts = layers.Trace()
    with layers.instrument(m, counts), layers.count_opcodes(counts):
        counted_s = one_round(m, wl, subset, subset_extra, counts.wrap("campaign", checked.run))
    tally.wrong += checked.wrong
    print(f"traced: {rounds} round(s), {n_timed} programs in {traced_s:.2f} s;"
          f" opcode pass: {len(subset)} programs in {counted_s:.2f} s", file=sys.stderr)

    n = len(subset)
    per_program_ms = 1000 * speed.scale() / n_timed  # reference ms per program, per wall second
    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.calls"] = (counts.calls[layer] / n, "count")
        metrics[f"{layer}.self_ms"] = (spans.self_s[layer] * per_program_ms, "ms")
        metrics[f"{layer}.kops"] = (counts.self_ops[layer] / 1000 / n, "kops")
    metrics["campaign.self_ms"] = (spans.self_s["campaign"] * per_program_ms, "ms")
    metrics["campaign.kops"] = (counts.self_ops["campaign"] / 1000 / n, "kops")
    for key in layers.SIZES:
        metrics[key] = (counts.sizes[key] / n, "kB" if key.endswith("_kb") else "count")
    metrics["traced.wall_ms"] = (traced_s * per_program_ms, "ms")
    metrics["spans.overhead"] = (spans_s / plain_s, "x")
    metrics["opcodes.overhead"] = (counted_s / plain_s, "x")
    metrics["host.loop_ms"] = (speed.loop_ms(), "ms")
    detail = {
        "rounds": rounds,
        "programs_timed": n_timed,
        "programs_counted": n,
        "spans": spans.totals(),
        "counts": counts.totals(),
    }
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "seclus", "__init__.py")):
        print(f"error: no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    wl = workloads.WORKLOADS[args.workload]

    setup_speed, run_speed, setups, tally = HostSpeed(), HostSpeed(), [], Tally()
    m, items, extra = timed_set_ups(wl, setup_speed, setups)
    measure = per_layer if args.trace else end_to_end
    metrics, detail = measure(m, wl, items, extra, tally, run_speed, args.seconds, args.seed)
    if not args.trace:
        # set-ups at the end as well, so that they sample the host's
        # speed at both ends of the run; this replaces the program's
        # modules, so nothing runs after it
        timed_set_ups(wl, setup_speed, setups)
        metrics["setup_s"] = (reference_set_up_s(setup_speed, setups), "s")
        detail["wall"]["setup_s"] = statistics.median(setups)
    detail["setup_wall_s"] = setups
    detail["reference_loop_ms"] = {
        "set-up": [1000 * s for s in setup_speed.loops],
        "timed": [1000 * s for s in run_speed.loops],
    }
    print(f"set-up: {len(items)} programs, {len(extra)} boundary comparisons; reference loop"
          f" {setup_speed.loop_ms():.4f} ms at set-up, {run_speed.loop_ms():.4f} ms timed"
          + "".join(f"; wall {k} {v:.4g}" for k, v in sorted(detail.get("wall", {}).items())),
          file=sys.stderr)
    for what in tally.wrong[:10]:
        print(f"wrong output: {what}", file=sys.stderr)
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**result, **detail}, fh, indent=1)
    print(f"{args.workload}: {tally.attempted} operations attempted, {tally.failed} failed,"
          f" {len(tally.wrong)} wrong outputs; details in {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
