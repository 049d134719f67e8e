"""Every shipped config reproduces its golden report (tests/golden/,
written by tests/make_golden.py), and so do the Monte Carlo runs of
tests/golden_mc/.  Ints, strings, verdicts, nulls and the fields a Monte
Carlo run estimates must be equal; exact floats may move by at most 1e-12
absolute."""
import json
import math

import pytest

from make_golden import (CONFIGS, GOLDEN, GOLDEN_MC, MC_RUNS, run_config,
                         run_mc)

# what a Monte Carlo run estimates, and the exponents read off it
MC_FIELDS = {"p_e", "p_x", "p_y", "p_e_ci", "p_x_ci", "p_y_ci",
             "exp_x", "exp_y"}
EXACT_TOL = 1e-12


def _match(got, want, tol: float) -> bool:
    if isinstance(got, float) and isinstance(want, float):
        if math.isnan(got) or math.isnan(want):
            return math.isnan(got) and math.isnan(want)
        return got == want or abs(got - want) <= tol
    return type(got) is type(want) and got == want


def _check(got: list[dict], golden):
    want = [json.loads(line) for line in golden.read_text().splitlines()]
    assert len(got) == len(want)
    sampled = want[0]["config"]["mode"] == "mc"
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.keys() == w.keys(), f"line {i}"
        for key, value in w.items():
            tol = 0.0 if sampled and key in MC_FIELDS else EXACT_TOL
            assert _match(g[key], value, tol), (
                f"line {i} {key}: {g[key]!r} != golden {value!r}")


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_config_matches_golden(config):
    _check(run_config(config), GOLDEN / f"{config.stem}.jsonl")


@pytest.mark.parametrize("name", MC_RUNS)
def test_mc_run_matches_golden(name):
    _check(run_mc(name), GOLDEN_MC / f"{name}.jsonl")
