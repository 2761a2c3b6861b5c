"""Golden `bounds` and `certify` JSON for every builtin system.

Each file under tests/golden/ is the exact stdout of one CLI command, named
after its case below.  Keys, strings, booleans and nulls must match exactly,
numbers to 1e-12 relative, so a refactor of the bound constructors cannot
move a printed bound unnoticed.  After a reviewed, logged output change,
regenerate a file with `python -m concert.cli ARGS > tests/golden/NAME.json`
(with the case's overrides in a `--config` file).
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from concert.cli import main

GOLDEN = Path(__file__).parent / "golden"

# hybrid-linear off its contracting default: the neutral and expanding-bounded
# reproducers of the open side-awareness defect (ROADMAP), and an expanding
# configuration without a finite bound
HYBRID_CONFIGS = {
    "neutral": {"a": 0.0, "rho": 0.1, "sigma_c": 1.0, "sigma_d": 0.1, "tau": 1.0},
    "expanding": {"a": 1.654, "rho": 0.27, "sigma_c": 1.726, "sigma_d": 1.763,
                  "tau": 0.65},
    "unbounded": {"a": 1.0, "rho": 0.999, "tau": 5.0},
}


def _cases() -> dict[str, tuple[list[str], dict | None]]:
    cases = {}
    for system in ("linear-map", "ou1d", "brownian", "hybrid-linear", "hopf-cpg"):
        cases[f"certify-{system}"] = (["certify", system], None)
        cases[f"bounds-{system}"] = (["bounds", system], None)
        if system != "hopf-cpg":  # the ring has no noise-free variant
            cases[f"bounds-{system}-both"] = (["bounds", system, "--both"], None)
    for tag, config in HYBRID_CONFIGS.items():
        cases[f"certify-hybrid-linear-{tag}"] = (["certify", "hybrid-linear"], config)
        cases[f"bounds-hybrid-linear-{tag}"] = (["bounds", "hybrid-linear"], config)
        cases[f"bounds-hybrid-linear-{tag}-both"] = (
            ["bounds", "hybrid-linear", "--both"], config)
    return cases


CASES = _cases()


def assert_matches(actual, expected, where: str = "$") -> None:
    if isinstance(expected, dict):
        assert isinstance(actual, dict), where
        assert sorted(actual) == sorted(expected), where
        for key in expected:
            assert_matches(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{where}[{i}]")
    elif isinstance(expected, (int, float)) and not isinstance(expected, bool):
        assert isinstance(actual, (int, float)) and not isinstance(actual, bool), where
        assert math.isclose(actual, expected, rel_tol=1e-12, abs_tol=0.0), \
            f"{where}: {actual!r} != {expected!r}"
    else:
        assert type(actual) is type(expected) and actual == expected, \
            f"{where}: {actual!r} != {expected!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_json_matches_golden(name, capsys, tmp_path):
    argv, config = CASES[name]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    assert main(argv) == 0
    actual = json.loads(capsys.readouterr().out)
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert_matches(actual, expected)


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("actual, expected", [
    ({"a": 1.0}, {"a": 1.0 + 1e-9}),
    ({"a": 1.0}, {"b": 1.0}),
    ({"a": True}, {"a": 1}),
    ({"a": None}, {"a": 0.0}),
    ({"a": [1.0]}, {"a": [1.0, 2.0]}),
    ({"a": "x"}, {"a": "y"}),
])
def test_comparison_rejects_real_differences(actual, expected):
    with pytest.raises(AssertionError):
        assert_matches(actual, expected)
