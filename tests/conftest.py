import glob
import os
import random

import pytest

from seclus.normalise import fby_init, normalize_program
from seclus.parser import parse_program, pretty
from seclus.verify import GenConfig, generate_program

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def load(name: str):
    path = os.path.join(FIXDIR, name)
    with open(path, encoding="utf-8") as fh:
        return parse_program(fh.read(), filename=path)


def fixture_path(name: str) -> str:
    return os.path.join(FIXDIR, name)


def leaky_pairs():
    """(program path, policy path) for every hand-planted leaky fixture."""
    out = []
    for lus in sorted(glob.glob(os.path.join(FIXDIR, "leaky", "*.lus"))):
        out.append((lus, os.path.splitext(lus)[0] + ".pol"))
    return out


def fixture_texts() -> list[str]:
    """The source text of every fixture, the leaky ones included."""
    paths = [fixture_path("cnt_dn.lus"), fixture_path("re_trig.lus")]
    paths += [lus for lus, _ in leaky_pairs()]
    out = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            out.append(fh.read())
    return out


def printed_forms(seeds) -> list[str]:
    """The three forms of each generated program, as printed."""
    out = []
    for seed in seeds:
        p = generate_program(GenConfig(seed=seed))
        n = normalize_program(p)
        out += [pretty(p), pretty(n, dialect="nlustre"), pretty(fby_init(n), dialect="nlustre")]
    return out


#: Pieces that mutants insert: every keyword and symbol, names, literals,
#: operator chains, a list, blanks, comments and characters that no
#: token starts with.
ASCII_PIECES = [
    "node", "returns", "var", "let", "tel", "if", "then", "else", "merge",
    "fby", "when", "on", "base", "true", "false", "and", "or", "xor", "not",
    "div", "mod", "bool", "int", "::", "<=", ">=", "<>", "(", ")", ",", ";",
    ":", "=", "<", ">", "+", "-", "*", "x", "c", "_y1", "0", "7",
    "99999999999999999999", " = x", " < 1 ", " * c", "(x, c)",
    " ", "\t", "\n", "-- note", "--", "@", "\f",
]


def mutants(texts: list[str], n: int, seed: int, pieces: list[str]) -> list[str]:
    """`n` seeded mutants of `texts`: each inserts a piece, deletes up to
    eight characters or truncates, one to three times."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        s = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(s) + 1)
            op = rng.randrange(3)
            if op == 0:
                s = s[:i] + rng.choice(pieces) + s[i:]
            elif op == 1:
                s = s[:i] + s[i + rng.randint(1, 8):]
            else:
                s = s[:i]
        out.append(s)
    return out


@pytest.fixture(scope="session")
def cnt_dn():
    return load("cnt_dn.lus")


@pytest.fixture(scope="session")
def re_trig():
    return load("re_trig.lus")
