"""`scripts/scaling.py` on small inputs: the chain's instance counts, one
measured program and the growth per doubling that a table prints."""

import importlib.util
import os

import pytest

from seclus.interp import call_cone
from seclus.parser import parse_program

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts", "scaling.py")
_spec = importlib.util.spec_from_file_location("scaling", SCRIPT)
scaling = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scaling)


@pytest.mark.parametrize("k", range(6))
def test_the_chain_at_k_has_two_to_the_k_plus_one_minus_one_instances(k):
    p = parse_program(scaling.chain(k)).annotation
    assert call_cone(p, f"n{k}")[f"n{k}"] == 2 ** (k + 1) - 1


def test_every_layer_is_measured():
    ms, raised, instances = scaling.measure(scaling.chain(2), 1, 5)
    assert set(ms) == set(scaling.LAYERS) and raised == set() and instances == 7


def test_the_table_gives_the_growth_per_doubling(capsys):
    sizes = [100, 200, 400]
    linear = [{layer: s / 10 for layer in scaling.LAYERS} for s in sizes]
    quadratic = [{layer: (s / 100) ** 2 for layer in scaling.LAYERS} for s in sizes]
    scaling.table("linear", sizes, linear, [set(), set(), {"parse"}], [])
    scaling.table("quadratic", sizes, quadratic, [set()] * 3, [])
    out = capsys.readouterr().out.splitlines()
    assert out[2].split() == ["parse", "10.00", "20.00", "40.00!", "2.00", "2.00"]
    assert out[-2].split() == ["run.reference", "1.00", "4.00", "16.00", "4.00", "4.00"]
