"""Every reference command still gives its stored exit code, stderr and result.

The stored outputs live in ``tests/reference/``, written by its ``regen.py``.
Integers, strings (rationals and statuses among them) and booleans must
match exactly; floats to 1e-12 relative, scaled by max(1, |x|), since a
refactor that reorders floating-point work may move a coefficient by a few
ulps without changing any count.
"""

import json
import runpy
from pathlib import Path

import pytest

from helpers import run_cli_in_process

REFERENCE = Path(__file__).parent / "reference"
COMMANDS = runpy.run_path(str(REFERENCE / "regen.py"))["COMMANDS"]
REL_TOL = 1e-12


def assert_matches(got, want, path="result"):
    if isinstance(want, float):
        assert isinstance(got, float), f"{path}: {got!r} is not a float"
        assert abs(got - want) <= REL_TOL * max(1.0, abs(want)), f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), f"{path}: keys differ"
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_reference_output(name, monkeypatch):
    monkeypatch.delenv("REALHURWITZ_CONFIG", raising=False)
    want = json.loads((REFERENCE / f"{name}.json").read_text())
    got = run_cli_in_process(COMMANDS[name])
    assert got["argv"] == want["argv"]
    assert (got["exit"], got["stderr"]) == (want["exit"], want["stderr"])
    assert_matches(got["result"], want["result"])


def test_reference_comparison_is_exact_but_for_float_noise():
    want = {"HR": "1/2", "s": -1, "pass": True, "x": [1.5, -2.0e-3]}
    assert_matches({"HR": "1/2", "s": -1, "pass": True, "x": [1.5 + 1e-12, -2.0e-3 - 5e-13]}, want)
    for got in (
        {"HR": "1", "s": -1, "pass": True, "x": [1.5, -2.0e-3]},
        {"HR": "1/2", "s": 1, "pass": True, "x": [1.5, -2.0e-3]},
        {"HR": "1/2", "s": -1, "pass": 1, "x": [1.5, -2.0e-3]},
        {"HR": "1/2", "s": -1, "pass": True, "x": [1.5 + 1e-11, -2.0e-3]},
        {"HR": "1/2", "s": -1, "pass": True, "x": [1.5]},
        {"HR": "1/2", "s": -1, "x": [1.5, -2.0e-3]},
    ):
        with pytest.raises(AssertionError):
            assert_matches(got, want)
