"""Per-layer tracing from outside the program.

`instrument` replaces the public functions of each layer, in the
namespaces the campaign modules call them from, by wrappers that record
a span per call into a `Trace`.  A layer's self figures are its span
minus the spans of the layers it calls.  `count_opcodes` runs a block
under an opcode tracer (`sys.settrace` with `f_trace_opcodes`) that
advances the same `Trace`'s instruction counter, so every span also
carries the Python instructions executed inside it.

Nothing here changes what the program computes: wrappers pass arguments
and results through unchanged, and `instrument` restores every original
when its block ends.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# `campaign` is the root span of one operation: its self figures are
# what no layer below covers
LAYERS = (
    "parse",
    "annotate",
    "infer.src",
    "infer.denest",
    "infer.init",
    "implies",
    "denest",
    "fby_init",
    "codegen",
    "run.compiled",
    "levels",
    "run.reference",
    "replay",
)

SIZES = (
    "denest.equations",
    "infer.locals",
    "infer.constraints",
    "codegen.source_kb",
    "run.compiled.instants",
    "run.reference.instants",
)


class Trace:
    """Spans kept in memory as per-layer totals.  `ops[0]` is the
    instruction counter; it only moves under `count_opcodes`."""

    def __init__(self) -> None:
        self.ops = [0]
        self.stack: list = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.self_ops: Counter = Counter()
        self.sizes: Counter = Counter()
        # id(program) -> (program, pass that made it), for the current
        # root span; the program is held so that its id is not reused
        self.forms: dict = {}

    def wrap(self, layer, fn, size=None):
        """`fn` recorded as a span of `layer` (a name, or a function of
        the call's arguments that returns one).  `size(result, args)`
        yields `(size_name, amount)` pairs."""
        stack, ops = self.stack, self.ops

        def traced(*args, **kwargs):
            if not stack:  # a root span: a new operation
                self.forms.clear()
            name = layer if isinstance(layer, str) else layer(args)
            children = [0.0, 0]  # time and instructions of child spans
            stack.append(children)
            ops0 = ops[0]
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                dops = ops[0] - ops0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - children[0]
                self.self_ops[name] += dops - children[1]
                if stack:
                    stack[-1][0] += dt
                    stack[-1][1] += dops
            if size is not None:
                for key, amount in size(result, args):
                    self.sizes[key] += amount
            return result

        return traced

    def totals(self) -> dict:
        """Per-layer totals over the whole run, for the result file."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "self_ops": dict(self.self_ops),
            "sizes": dict(self.sizes),
        }

    def form_of(self, args) -> str:
        """The inference layer for a program: which pass produced it."""
        entry = self.forms.get(id(args[0]))
        return "infer." + (entry[1] if entry else "src")

    def remember(self, label: str):
        def size(result, args):
            self.forms[id(result)] = (result, label)
            return ()

        return size


def _denested(trace: Trace):
    remember = trace.remember("denest")

    def size(prog, args):
        remember(prog, args)
        yield "denest.equations", sum(len(n.equations) for n in prog.nodes)

    return size


def _signatures(sigs, args):
    yield "infer.locals", sum(len(n.locals) for n in args[0].nodes)
    yield "infer.constraints", sum(len(s.constraints) for s in sigs.values())


def _codegen(_, args):
    yield "codegen.source_kb", sum(len(n.source) for n in args[0].nodes.values()) / 1024


def _instants(key: str):
    def size(history, args):
        yield key, max(map(len, history.values()), default=0)

    return size


@contextmanager
def instrument(m, trace: Trace):
    """Wrap every layer for the duration of the block.

    `m` is the benchmark's namespace of seclus modules and functions.
    Its function attributes are patched too, so the benchmark's own
    calls into a layer are recorded like the campaign modules' calls.
    The reference engine's own nested runs inside `check_history` stay
    part of `replay`."""
    verify, interp = m.verify, m.interp
    CP = m.compiled.CompiledProgram
    annotate = trace.wrap("annotate", m.ast.annotate_program)
    denest = trace.wrap("denest", m.normalise.normalize_program, _denested(trace))
    init = trace.wrap("fby_init", m.normalise.fby_init, trace.remember("init"))
    infer = trace.wrap(trace.form_of, m.typing.check_program, _signatures)
    reference = trace.wrap("run.reference", interp.run_node, _instants("run.reference.instants"))
    patches = [
        (m.compiled, "annotate_program", annotate),
        (interp, "annotate_program", annotate),
        (m.normalise, "annotate_program", annotate),
        (verify, "normalize_program", denest),
        (verify, "fby_init", init),
        (verify, "check_program", infer),
        (verify, "implies", trace.wrap("implies", verify.implies)),
        (verify, "variable_levels", trace.wrap("levels", verify.variable_levels)),
        (verify, "run_node", reference),
        (CP, "__init__", trace.wrap("codegen", CP.__init__, _codegen)),
        (CP, "run", trace.wrap("run.compiled", CP.run, _instants("run.compiled.instants"))),
        (m, "parse_program", trace.wrap("parse", m.parse_program)),
        (m, "normalize_program", denest),
        (m, "fby_init", init),
        (m, "check_program", infer),
        (m, "check_policy", trace.wrap("levels", m.check_policy)),
        (m, "run_node", reference),
        (m, "check_history", trace.wrap("replay", m.check_history)),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in originals:
            setattr(owner, attr, old)


@contextmanager
def count_opcodes(trace: Trace):
    """Count the Python instructions executed in the block into
    `trace.ops`.  Frames of the benchmark's own files are not counted;
    the program code they call is."""
    ops = trace.ops

    def local(frame, event, arg):
        if event == "opcode":
            ops[0] += 1
        return local

    def on_call(frame, event, arg):
        if frame.f_code.co_filename.startswith(BENCH_DIR + os.sep):
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    sys.settrace(on_call)
    try:
        yield
    finally:
        sys.settrace(None)
