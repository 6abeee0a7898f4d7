"""Command-line front end: subcommands, exit codes, and JSON output."""

import io
import json
import os
import subprocess
import sys
import time

import pytest

from seclus import verify
from seclus.cli import _parse_level, main
from seclus.normalise import normalize_program
from seclus.parser import parse_program
from seclus.sectypes import powerset_lattice

from conftest import (
    ASCII_PIECES,
    fixture_path,
    fixture_texts,
    leaky_pairs,
    mutants,
    printed_forms,
)

GOLDEN = "cnt_dn(a1,a2) =>g (b1) { g|a1|a2 <= b1 }"


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("SECLUS_COLOR", "0")


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# -- check -----------------------------------------------------------------------


def test_check_prints_signatures(capsys):
    code, out, _ = run(capsys, "check", fixture_path("cnt_dn.lus"))
    assert code == 0
    assert out.strip() == GOLDEN


def test_check_policy_secure(capsys, tmp_path):
    pol = tmp_path / "ok.pol"
    pol.write_text("res = L\nn = L\ncpt = L\nbase = L\n")
    code, out, _ = run(
        capsys, "check", fixture_path("cnt_dn.lus"), "--policy", str(pol)
    )
    assert code == 0 and "Secure" in out


def test_check_policy_violation_exit_code(capsys):
    lus, pol = leaky_pairs()[0]
    code, out, _ = run(capsys, "check", lus, "--policy", pol)
    assert code == 1 and "Violation" in out


def test_all_leaky_policies_rejected(capsys):
    for lus, pol in leaky_pairs():
        code, out, _ = run(capsys, "check", lus, "--policy", pol)
        assert code == 1 and "Violation" in out, lus


def test_violation_is_printed_as_the_signature_prints_it(capsys):
    pairs = leaky_pairs()
    assert len(pairs) == 12
    for lus, pol in pairs:
        code, out, _ = run(capsys, "check", lus, "--policy", pol)
        *_, signature, verdict = out.splitlines()
        name, constraint = verdict.split(": Violation of ")
        assert code == 1 and signature.startswith(name + "(")
        assert constraint in signature[signature.index("{ ") + 2 : -2].split(", ")
        code, out, _ = run(capsys, "check", lus, "--policy", pol, "--json")
        doc = json.loads(out)
        assert code == 1 and doc["policy"]["constraint"] == constraint, lus


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", fixture_path("re_trig.lus"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["signatures"]["cnt_dn"] == GOLDEN
    assert "re_trig" in doc["signatures"]


# -- normalize ---------------------------------------------------------------------


def test_normalize_roundtrips(capsys):
    code, out, _ = run(capsys, "normalize", fixture_path("cnt_dn.lus"))
    assert code == 0 and "::" in out and "fby" in out


def test_normalize_fby_init_writes_file(capsys, tmp_path):
    dest = tmp_path / "out.lus"
    code, _, _ = run(
        capsys,
        "normalize",
        fixture_path("cnt_dn.lus"),
        "--emit",
        "fby-init",
        "-o",
        str(dest),
    )
    assert code == 0
    text = dest.read_text()
    assert "xinit1" in text
    from seclus.parser import parse_program

    parsed = parse_program(text)
    assert len(parsed.node("cnt_dn").equations) == 4


@pytest.mark.parametrize("where", ["dir", "missing"])
def test_normalize_to_an_unwritable_path_is_one_error_line(capsys, tmp_path, where):
    dest = tmp_path if where == "dir" else tmp_path / "missing" / "out.lus"
    code, out, err = run(capsys, "normalize", fixture_path("cnt_dn.lus"), "-o", str(dest))
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write {str(dest)!r}: ") and err.count("\n") == 1


# -- interpret ---------------------------------------------------------------------


def test_interpret_oracle(capsys, tmp_path):
    csv = tmp_path / "in.csv"
    csv.write_text(
        "res,n\ntrue,4\nfalse,4\nfalse,4\nfalse,4\n"
    )
    code, out, _ = run(
        capsys, "interpret", fixture_path("cnt_dn.lus"), "--inputs", str(csv)
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "cpt"
    assert rows[1:] == ["4", "3", "2", "1"]


def test_interpret_steps_zero(capsys, tmp_path):
    csv = tmp_path / "in.csv"
    csv.write_text("res,n\ntrue,4\n")
    code, out, _ = run(
        capsys,
        "interpret",
        fixture_path("cnt_dn.lus"),
        "--inputs",
        str(csv),
        "--steps",
        "0",
    )
    assert code == 0 and out.strip() == "cpt"


def test_interpret_steps_truncates_inputs_and_sets_the_horizon_without_them(capsys, tmp_path):
    # with inputs, --steps only truncates: 5 steps over 2 rows run 2
    csv = tmp_path / "in.csv"
    csv.write_text("res,n\ntrue,4\nfalse,4\n")
    code, out, _ = run(
        capsys, "interpret", fixture_path("cnt_dn.lus"), "--inputs", str(csv), "--steps", "5"
    )
    assert (code, out.split()) == (0, ["cpt", "4", "3"])
    # without inputs, --steps is the horizon
    lus = tmp_path / "z.lus"
    lus.write_text("node z() returns (o: int) let o = 4; tel")
    code, out, _ = run(capsys, "interpret", str(lus), "--steps", "3")
    assert (code, out.split()) == (0, ["o", "4", "4", "4"])


def test_interpret_negative_steps_is_an_error(capsys, tmp_path):
    csv = tmp_path / "in.csv"
    csv.write_text("res,n\ntrue,4\nfalse,4\n")
    code, out, err = run(
        capsys, "interpret", fixture_path("cnt_dn.lus"), "--inputs", str(csv), "--steps", "-1"
    )
    assert (code, out, err) == (1, "", "error: --steps must be at least 0\n")


def test_interpret_trace_includes_locals(capsys, tmp_path):
    csv = tmp_path / "in.csv"
    csv.write_text("i,n\ntrue,2\nfalse,2\n")
    code, out, _ = run(
        capsys,
        "interpret",
        fixture_path("re_trig.lus"),
        "--inputs",
        str(csv),
        "--trace",
    )
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert set(header) >= {"i", "n", "o", "edge", "c", "v"}


def test_interpret_nlustre_refuses_a_lustre_form_equation(capsys, tmp_path):
    # `cpt = if res then n else (n fby (cpt - 1))` nests its delay
    csv = tmp_path / "in.csv"
    csv.write_text("res,n\ntrue,4\nfalse,4\n")
    args = ("interpret", fixture_path("cnt_dn.lus"), "--inputs", str(csv))
    code, out, err = run(capsys, *args, "--dialect", "nlustre")
    assert (code, out, err) == (1, "", "error: node cnt_dn is not in NLustre form\n")
    # its de-nested form is accepted
    code, out, _ = run(capsys, "normalize", fixture_path("cnt_dn.lus"))
    denested = tmp_path / "cnt_dn.nls"
    denested.write_text(out)
    code, out, err = run(capsys, "interpret", str(denested), "--inputs", str(csv), "--dialect", "nlustre")
    assert (code, err) == (0, "") and out.splitlines() == ["cpt", "4", "3"]


def test_interpret_rejects_values_outside_64_bits(capsys, tmp_path):
    csv = tmp_path / "in.csv"
    csv.write_text("res,n\ntrue,9223372036854775808\n")
    code, out, err = run(
        capsys, "interpret", fixture_path("cnt_dn.lus"), "--inputs", str(csv)
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "64-bit" in err


@pytest.mark.parametrize(
    "rows, message",
    [
        # an int in a bool column, then a bool in an int column
        ("5,true\nfalse,3\n", "error: input 'res', row 1: 5 is not of type bool\n"),
        ("false,3\nfalse,true\n", "error: input 'n', row 2: true is not of type int\n"),
    ],
)
def test_interpret_rejects_a_value_of_the_wrong_type(capsys, tmp_path, rows, message):
    csv = tmp_path / "in.csv"
    csv.write_text("res,n\n" + rows)
    code, out, err = run(capsys, "interpret", fixture_path("cnt_dn.lus"), "--inputs", str(csv))
    assert (code, out, err) == (1, "", message)


def test_interpret_missing_column_is_an_error(capsys, tmp_path):
    csv = tmp_path / "in.csv"
    csv.write_text("res\ntrue\n")
    code, _, err = run(
        capsys, "interpret", fixture_path("cnt_dn.lus"), "--inputs", str(csv)
    )
    assert code == 1 and "error:" in err


def test_interpret_repeated_column_is_an_error(capsys, tmp_path):
    src = tmp_path / "f.lus"
    src.write_text("node f(x: int) returns (o: int) let o = x; tel\n")
    csv = tmp_path / "in.csv"
    csv.write_text("x,x\n2,3\n4,5\n")
    code, out, err = run(capsys, "interpret", str(src), "--inputs", str(csv))
    assert code == 1 and out == ""
    assert err == "error: stream CSV names column 'x' twice\n"


# -- verify ------------------------------------------------------------------------


def test_verify_all_passes(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        fixture_path("re_trig.lus"),
        "--trials",
        "5",
        "--ni-trials",
        "10",
        "--horizon",
        "20",
        "--seed",
        "1",
    )
    assert code == 0
    assert "seed: 1" in out
    assert "preservation re_trig: pass" in out
    assert "semantics" in out and "ni" in out


def test_verify_json_stable(capsys):
    argv = [
        "verify",
        fixture_path("cnt_dn.lus"),
        "--what",
        "semantics",
        "--trials",
        "5",
        "--horizon",
        "10",
        "--seed",
        "7",
        "--json",
    ]
    a = run(capsys, *argv)
    b = run(capsys, *argv)
    assert a == b and a[0] == 0
    json.loads(a[1])


DERIVED_INPUT = (
    "node f(c: bool; x: int :: base on c) returns (o: int)"
    " let o = merge c (x + 1) (0 when not c); tel"
)


def test_verify_counts_the_trials_that_raise_on_every_form(capsys, tmp_path):
    # every input is drawn present at every instant, so every run of a
    # node with an input on a derived clock raises; the line says so
    path = tmp_path / "f.lus"
    path.write_text(DERIVED_INPUT)
    code, out, _ = run(capsys, "verify", str(path), "--what", "semantics", "--seed", "0")
    assert code == 0
    assert out.splitlines()[1] == "semantics f: pass (100 trials, horizon 50, 100 errored)"
    code, out, _ = run(capsys, "verify", str(path), "--what", "semantics", "--seed", "0", "--json")
    assert json.loads(out)["semantics"]["errored"] == 100
    # a report with no such trial prints no count
    code, out, _ = run(
        capsys, "verify", fixture_path("cnt_dn.lus"), "--what", "semantics", "--trials", "3",
        "--horizon", "5", "--seed", "0",
    )
    assert out.splitlines()[1] == "semantics cnt_dn: pass (3 trials, horizon 5)"


def test_verify_ni_rejected_policy_fails(capsys):
    lus, pol = leaky_pairs()[0]
    code, out, _ = run(
        capsys,
        "verify",
        lus,
        "--what",
        "ni",
        "--policy",
        pol,
        "--trials",
        "50",
        "--horizon",
        "20",
        "--seed",
        "0",
    )
    assert code == 1 and "fail" in out and "violation" in out


def test_verify_prints_the_witness_and_the_divergence(capsys, monkeypatch, tmp_path):
    # a de-nesting that adds a flow from y, and so changes the outputs
    src = "node f(x: int; y: int) returns (o: int) let o = {}; tel"
    path = tmp_path / "f.lus"
    path.write_text(src.format("x"))
    leaky = normalize_program(parse_program(src.format("x + y")))
    monkeypatch.setattr(verify, "normalize_program", lambda prog: leaky)
    code, out, _ = run(
        capsys, "verify", str(path), "--what", "all", "--trials", "2", "--ni-trials", "2",
        "--horizon", "5", "--seed", "1",
    )
    assert code == 1
    assert out.splitlines()[1:5] == [
        "preservation f: fail",
        "  witness: {'pass': 'denesting', 'assignment':"
        " {'a1': 'L', 'a2': 'H', 'b1': 'L', 'g': 'L'}}",
        "semantics f: fail (2 trials, horizon 5)",
        "  divergence: node f trial 0 o@0 (-7, -5, -5)",
    ]


def test_verify_ni_says_when_runs_are_not_paired(capsys):
    # without --policy every input is at the bottom, so no level pairs a run
    code, out, _ = run(
        capsys, "verify", fixture_path("re_trig.lus"), "--what", "ni",
        "--lattice", "powerset:2", "--trials", "5", "--horizon", "10", "--seed", "0",
    )
    lines = [ln for ln in out.splitlines() if ln.startswith("ni re_trig at ")]
    assert code == 0 and len(lines) == 4
    assert all("runs not paired" in ln for ln in lines)
    assert out.count("no --policy given") == 1
    # every printed level is written as a policy file writes it
    p2 = powerset_lattice(2)
    printed = [ln[len("ni re_trig at "):].split(": ", 1)[0] for ln in lines]
    assert [_parse_level(p2, s) for s in printed] == p2.elements
    assert "every input is at {}\n" in out
    assert _parse_level(p2, "{}") == p2.bottom
    # with a policy, only the levels at or above every input say so
    lus, pol = leaky_pairs()[0]
    code, out, _ = run(
        capsys, "verify", lus, "--what", "ni", "--policy", pol,
        "--trials", "5", "--horizon", "10", "--seed", "0",
    )
    lines = [ln for ln in out.splitlines() if ln.startswith("ni ")]
    assert code == 1 and "no --policy given" not in out
    assert ["runs not paired" in ln for ln in lines] == [False, True]


@pytest.mark.parametrize("command", ["check", "verify"])
def test_policy_naming_no_interface_variable_is_an_error(capsys, tmp_path, command):
    pol = tmp_path / "p.pol"
    pol.write_text("secret = H\n")
    argv = [command, fixture_path("re_trig.lus"), "--policy", str(pol)]
    if command == "verify":
        argv += ["--what", "ni", "--trials", "5", "--seed", "0"]
    code, out, err = run(capsys, *argv)
    assert code == 1 and "pass" not in out
    assert err == "error: 'secret' is not an interface variable of re_trig\n"


@pytest.mark.parametrize("command", ["check", "verify"])
def test_policy_naming_a_variable_twice_is_an_error(capsys, tmp_path, command):
    # without the second `i` line the policy is a violation; with it, the
    # last line would silently lower the secret input to public
    pol = tmp_path / "p.pol"
    pol.write_text("i = H\nn = L\no = L\nbase = L\ni = L\n")
    argv = [command, fixture_path("re_trig.lus"), "--policy", str(pol)]
    if command == "verify":
        argv += ["--what", "ni", "--trials", "5", "--seed", "0"]
    code, out, err = run(capsys, *argv)
    assert code == 1 and "Secure" not in out and "pass" not in out
    assert err == f"error: {pol}:5: 'i' already has a level, on line 1\n"


@pytest.mark.parametrize(
    "policy, missing",
    [
        ("h = H\nl = L\no = L\n", "base"),
        ("h = H\no = L\nbase = L\n", "l"),
        # `verify` too: an input left out is not at the bottom level
        ("l = L\no = L\nbase = L\n", "h"),
    ],
)
def test_policy_missing_a_level_names_the_source_variable(capsys, tmp_path, policy, missing):
    lus, pol = tmp_path / "f.lus", tmp_path / "p.pol"
    lus.write_text("node f(h: int; l: int) returns (o: int) let o = h; tel\n")
    pol.write_text(policy)
    commands = [["check", str(lus), "--policy", str(pol)]]
    if missing != "base":
        commands.append(
            ["verify", str(lus), "--what", "ni", "--policy", str(pol), "--lattice", "2point",
             "--trials", "50", "--horizon", "5", "--seed", "1"]
        )
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 1 and "Secure" not in out and "pass" not in out, argv
        assert err == f"error: policy missing a level for {missing!r}\n"


def test_verify_argument_validation(capsys):
    code, _, err = run(
        capsys, "verify", fixture_path("cnt_dn.lus"), "--horizon", "0"
    )
    assert code == 1 and "horizon" in err


@pytest.mark.parametrize("flag", ["--trials", "--ni-trials"])
def test_verify_zero_trials_names_the_flag(capsys, flag):
    code, out, err = run(capsys, "verify", fixture_path("cnt_dn.lus"), "--what", "ni", flag, "0")
    assert (code, out, err) == (1, "", f"error: {flag} must be at least 1\n")


@pytest.mark.parametrize(
    "args, message",
    [
        (["--jobs", "2"], "unrecognized arguments: --jobs 2"),
        (["--trials", "abc"], "argument --trials: invalid int value: 'abc'"),
        (None, "the following arguments are required: file"),
    ],
)
def test_argument_errors_are_one_diagnostic(capsys, args, message):
    argv = ["verify"] + ([fixture_path("re_trig.lus")] + args if args else [])
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and "--trials" in out and "--jobs" not in out


def test_python_dash_m_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "seclus", "verify", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0 and "--trials" in proc.stdout


@pytest.mark.parametrize(
    "command, spec, message",
    [
        ("verify", "bogus", "cannot read lattice file 'bogus'"),
        ("check", "bogus", "cannot read lattice file 'bogus'"),
        ("verify", "fixtures", "cannot read lattice file"),
        ("verify", "powerset:abc", "n must be an integer from 0 to 10"),
        ("verify", "powerset:-1", "n must be an integer from 0 to 10"),
        ("check", "powerset:11", "n must be an integer from 0 to 10"),
        ("verify", "powerset:" + "9" * 5000, "n must be an integer from 0 to 10"),
        ("verify", "typo.lat", "lattice order names 'M', which is not an element"),
        ("check", "cycle.lat", "order is not antisymmetric: 'L' <= 'H' <= 'L'"),
        ("verify", "twice.lat", "'L' is listed twice"),
    ],
)
def test_bad_lattice_spec_is_a_diagnostic(capsys, tmp_path, command, spec, message):
    if spec == "fixtures":
        spec = os.path.dirname(fixture_path("re_trig.lus"))
    files = {
        # a three-element chain whose middle element is missing from `elements:`
        "typo.lat": "elements: L H\nL <= M\nM <= H\n",
        # an order with a cycle, and an element listed twice
        "cycle.lat": "elements: L H\nL <= H\nH <= L\n",
        "twice.lat": "elements: L H L\nL <= H\n",
    }
    if spec in files:
        (tmp_path / spec).write_text(files[spec])
        spec = str(tmp_path / spec)
    argv = [command, fixture_path("re_trig.lus"), "--lattice", spec]
    if command == "verify":
        argv += ["--what", "ni", "--trials", "5"]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "BAD"],
        ["check", "CNT_DN", "--policy", "BAD"],
        ["verify", "CNT_DN", "--what", "ni", "--trials", "5", "--policy", "BAD"],
        ["interpret", "CNT_DN", "--inputs", "BAD"],
        ["interpret", "CNT_DN", "--inputs", "-"],
    ],
)
def test_text_that_is_not_utf8_is_a_diagnostic(capsys, monkeypatch, tmp_path, argv):
    """A program, a policy or an input CSV with a byte that is not UTF-8
    (here `\xe9`, Latin-1 for an accented e) ends in one error line."""
    data = b"a1 = L -- caf\xe9\n"
    bad = tmp_path / "bad.txt"
    bad.write_bytes(data)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    paths = {"BAD": str(bad), "CNT_DN": fixture_path("cnt_dn.lus")}
    code, _, err = run(capsys, *[paths.get(a, a) for a in argv])
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: cannot read ")
    assert "can't decode byte 0xe9" in err


BOM_FILES = {
    "lus": None,
    "policy": "res = L\nn = L\ncpt = L\nbase = L\n",
    "lattice": "elements: L H\nL <= H\n",
    "inputs": "res,n\ntrue,3\nfalse,5\n",
}


@pytest.mark.parametrize(
    "kind, argv",
    [
        ("lus", ["check", "FILE"]),
        ("policy", ["check", "CNT_DN", "--policy", "FILE"]),
        ("lattice", ["verify", "CNT_DN", "--what", "ni", "--trials", "5", "--seed", "0", "--lattice", "FILE"]),
        ("inputs", ["interpret", "CNT_DN", "--inputs", "FILE"]),
        ("inputs", ["interpret", "CNT_DN", "--inputs", "-"]),
    ],
)
def test_a_leading_byte_order_mark_is_read_as_nothing(capsys, monkeypatch, tmp_path, kind, argv):
    """A program, a policy, a lattice or an input CSV that starts with a
    UTF-8 byte-order mark reads as the same text without it."""
    text = BOM_FILES[kind]
    if text is None:
        with open(fixture_path("cnt_dn.lus"), encoding="utf-8") as fh:
            text = fh.read()
    outputs = []
    for mark in (b"", b"\xef\xbb\xbf"):
        data = mark + text.encode()
        path = tmp_path / f"{kind}.txt"
        path.write_bytes(data)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        paths = {"FILE": str(path), "CNT_DN": fixture_path("cnt_dn.lus")}
        outputs.append(run(capsys, *[paths.get(a, a) for a in argv]))
    assert outputs[0][0] == 0 and outputs[0][2] == "", outputs[0]
    assert outputs[1] == outputs[0]


def test_parse_error_diagnostics(capsys, tmp_path):
    bad = tmp_path / "bad.lus"
    bad.write_text("node f(x: int) returns (o: int) let o = ; tel")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 1 and "error:" in err


def test_empty_program(capsys, tmp_path):
    empty = tmp_path / "empty.lus"
    empty.write_text("")
    code, out, _ = run(capsys, "check", str(empty))
    assert code == 0 and out.strip() == ""
    code, _, err = run(capsys, "interpret", str(empty))
    assert code == 1 and "no nodes" in err


def test_deeply_nested_expression_is_a_diagnostic(capsys, tmp_path):
    deep = tmp_path / "deep.lus"
    terms = " + ".join(["a"] * 3000)
    deep.write_text(f"node deep(a: int) returns (o: int)\nlet\n  o = {terms};\ntel\n")
    code, _, err = run(capsys, "check", str(deep))
    assert code == 1
    # the parser's depth limit names the equation's right-hand side
    assert err.strip() == f"error: {deep}:3:7: expression nesting too deep"


@pytest.mark.parametrize(
    "command, options",
    [("interpret", ["--inputs", "IN"]), ("verify", ["--what", "semantics", "--trials", "2", "--seed", "1"])],
)
def test_deep_call_chain_is_a_diagnostic(capsys, tmp_path, command, options):
    # no expression nests: each node calls the one before it.  The chain
    # is valid.  The reference engine prepares each callee before its
    # caller, so `interpret` runs it; `verify` fails because the compiled
    # engine inlines callees recursively, and should expect a run once
    # it does not.
    chain = tmp_path / "chain.lus"
    nodes = ["node n0(a: int) returns (o: int) let o = a; tel"]
    nodes += [f"node n{k}(a: int) returns (o: int) let o = n{k - 1}(a); tel" for k in range(1, 300)]
    chain.write_text("\n".join(nodes) + "\n")
    inputs = tmp_path / "in.csv"
    inputs.write_text("a\n1\n2\n")
    code, out, err = run(capsys, command, str(chain), *[str(inputs) if a == "IN" else a for a in options])
    if command == "interpret":
        assert (code, out, err) == (0, "o\n1\n2\n", "")
        return
    assert code == 1
    assert err == "error: expression or call nesting too deep\n"


@pytest.mark.parametrize(
    "command, options",
    [("interpret", ["--inputs", "IN"]), ("verify", ["--what", "semantics", "--trials", "2", "--seed", "1"])],
)
def test_an_entry_above_the_instance_limit_is_a_diagnostic(capsys, tmp_path, command, options):
    # each node calls the one before it twice, so `nk` stands for
    # 2^(k+1) - 1 node instances: 511 at k = 8, 32767 at k = 14
    inputs = tmp_path / "in.csv"
    inputs.write_text("a\n1\n2\n")
    for k in (8, 14):
        tree = tmp_path / f"tree{k}.lus"
        nodes = ["node n0(a: int) returns (o: int) let o = a; tel"]
        nodes += [
            f"node n{i}(a: int) returns (o: int) let o = n{i - 1}(a) + n{i - 1}(a + 1); tel"
            for i in range(1, k + 1)
        ]
        tree.write_text("\n".join(nodes) + "\n")
        start = time.perf_counter()
        code, out, err = run(capsys, command, str(tree), *[str(inputs) if a == "IN" else a for a in options])
        took = time.perf_counter() - start
        if k == 8:
            assert (code, err) == (0, "")
            ran = "semantics n8: pass (2 trials, horizon 50)\n" if command == "verify" else "o\n1280\n1536\n"
            assert out.endswith(ran)
            continue
        assert (code, err) == (1, "error: n14 calls 32767 node instances, above the limit of 10000\n")
        assert took < 1, took


def test_recursion_is_a_diagnostic(capsys, monkeypatch):
    def deep(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("seclus.cli.cmd_interpret", deep)
    code, out, err = run(capsys, "interpret", fixture_path("cnt_dn.lus"))
    assert (code, out, err) == (1, "", "error: expression or call nesting too deep\n")


@pytest.mark.parametrize(
    "rhs, col, message",
    [
        # `str.isdigit` digits that are not ASCII start no token
        ("x + \u00b2", 11, "unexpected character '\u00b2'"),
        ("x + \u0663", 11, "unexpected character '\u0663'"),
        # more digits than Python converts to an int (4300)
        ("x + " + "5" * 5000, 11, "integer literal of 5000 digits is too long"),
        # a parenthesised list is no operand of an operator
        ("(x, x) + x", 14, "+ applied to a tuple"),
        ("not (x, x)", 7, "unary not applied to a tuple"),
    ],
)
def test_bad_literal_or_operand_is_a_located_diagnostic(capsys, tmp_path, rhs, col, message):
    src = tmp_path / "bad.lus"
    src.write_text(f"node f(x: int) returns (o: int)\nlet\n  o = {rhs};\ntel\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(src))
    assert code == 1 and out == ""
    assert err == f"error: {src}:3:{col}: {message}\n"


def test_mutated_sources_end_in_exit_code_0_or_1(capsys, tmp_path):
    """A seeded fuzz guard: bad input ends in a diagnostic, never a traceback."""
    texts = fixture_texts() + printed_forms(range(3))
    pieces = ASCII_PIECES + ["\u00b2", "\u0663", "5" * 5000]
    src = tmp_path / "mutant.lus"
    for i, text in enumerate(mutants(texts, 500, 8, pieces)):
        src.write_text(text, encoding="utf-8")
        for argv in (["check", str(src)], ["normalize", str(src), "--emit", "fby-init"]):
            try:
                code = main(argv)
            except Exception as exc:
                pytest.fail(f"mutant {i}: {argv[0]} raised {exc!r}")
            assert code in (0, 1), (i, argv)
        capsys.readouterr()


@pytest.mark.parametrize(
    "body, diagnostic",
    [
        ("let x = 1; o = x; tel", "InputRedefined in f: x"),
        ("var y: int; let y = 1; y = x; o = y; tel", "DuplicateDefinition in f: y"),
        # a binary operator across clocks
        (
            "var c: bool; let c = true; o = x + (x when c); tel",
            "ClockConflict in f: o: base on c=T vs base",
        ),
        # a merge branch on the wrong clock
        (
            "var c: bool; let c = true; o = merge c (x) (x when not c); tel",
            "ClockConflict in f: o: base vs base on c=T",
        ),
        # call arguments on different clocks
        (
            "let o = x; tel\n"
            "node g(a: int; b: int) returns (o: int) let o = a + b; tel\n"
            "node h(c: bool; x: int) returns (o: int) let o = g(x, x when c); tel",
            "ClockConflict in h: o: base on c=T vs base",
        ),
        # a Lustre target declared on another clock than its right-hand side
        (
            "var c: bool; y: int :: base on c; let c = true; y = x + 1; o = x; tel",
            "ClockConflict in f: y: base vs base on c=T",
        ),
        # the components of a tuple-valued fby share one clock
        (
            "var c: bool; y: int :: base on c; let c = true; o, y = (0, 1) fby (2, 3); tel",
            "ClockConflict in f: o, y: base vs base on c=T",
        ),
        # an NLustre equation whose right-hand side is off its clock
        (
            "var c: bool; y: int :: base on c; let c = true; y :: base on c = x; o = x; tel",
            "ClockConflict in f: y: base vs base on c=T",
        ),
        ("let o = x + true; tel", "TypeMismatch in f: o: + applied to int and bool"),
        ("let o = x > 0; tel", "TypeMismatch in f: o: bool vs declared int"),
        ("let o = if x > 0 then (x, x) else x; tel", "ArityMismatch in f: branch widths 2 vs 1"),
        ("let o = (x, x) fby x; tel", "ArityMismatch in f: fby widths 2 vs 1"),
        ("let o = x, x; tel", "ArityMismatch in f: 1 targets but rhs width 2"),
        # one equation that defines a variable twice
        ("let o, o = x, x + 1; tel", "DuplicateDefinition in f: o"),
        # a node without outputs, whose call would de-nest to an
        # equation with no target
        (
            "let o = x; tel\n"
            "node z(a: int) returns () let tel\n"
            "node g(a: int; c: bool) returns (o: int :: base on c) let o = (z(a), a) when c; tel",
            "NoOutput in z: declares no output",
        ),
        # the arguments of a call share one clock, so a callee input on
        # a derived clock cannot be fed
        (
            "let o = x; tel\n"
            "node g(c: bool; x: int :: base on c) returns (y: int :: base on c) let y = x; tel\n"
            "node h(c: bool; y: int) returns (o: int) let o = g(c, y when c); tel",
            "ClockConflict in h: o: base on c=T vs base",
        ),
        (
            "let o = x; tel\n"
            "node g(c: bool; x: int :: base on c) returns (y: int :: base on c) let y = x; tel\n"
            "node h(c: bool; y: int) returns (o: int) let o = g(c, y); tel",
            "ClockConflict in h: o: g declares x on base on c=T, off its base clock",
        ),
    ],
)
def test_invalid_program_is_rejected_at_load(capsys, tmp_path, body, diagnostic):
    src = tmp_path / "bad.lus"
    src.write_text(f"node f(x: int) returns (o: int) {body}\n")
    for argv in (
        ["check"], ["verify", "--what", "preservation"], ["normalize"], ["interpret"]
    ):
        code, out, err = run(capsys, argv[0], str(src), *argv[1:])
        assert code == 1 and out == "", argv
        assert err == f"error: {src}: {diagnostic}\n", argv


def test_instantaneous_cycle_is_rejected_at_load(capsys, tmp_path):
    # `validate` passes this program; its schedule does not exist
    src = tmp_path / "cycle.lus"
    src.write_text(
        "node g(a: int) returns (o: int) var x: int; let x = o; o = x; tel\n"
        "node f(a: int) returns (o: int) let o = g(a); tel\n"
    )
    diagnostic = "Causality in g: instantaneous dependency cycle among: x; o"
    for argv in (
        ["check"], ["normalize"], ["interpret"], ["verify", "--what", "preservation"],
        ["verify", "--what", "semantics"],
    ):
        code, out, err = run(capsys, argv[0], str(src), *argv[1:])
        assert code == 1 and out == "", argv
        assert err == f"error: {src}: {diagnostic}\n", argv
