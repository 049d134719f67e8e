"""Every shipped config reproduces its golden report (tests/golden/,
written by tests/make_golden.py), and so do the Monte Carlo runs of
tests/golden_mc/.  Ints, strings, verdicts, nulls and the fields a Monte
Carlo run estimates must be equal; exact floats may move by at most 1e-12
absolute."""
import json
import math
import os
import subprocess
import sys

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


# numpy's own per-process switch for its AVX-512 kernels
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
# blockwise ell=0.5 sweeps; np.log2 and math.log2 differ at 0.86, 0.14,
# 0.898 and 0.102 on AVX-512 hosts, and agree at 0.7 and 0.3
SIMD_SWEEPS = [{"source": source, "scheme": {"kind": "blockwise", "ell": 0.5},
                "n_values": list(range(10, 400, 10))}
               for source in ([0.86, 0.14], [0.898, 0.102], [0.7, 0.3])]
_EMIT = """import dataclasses, json, sys
from twoshare import harness
for raw in json.loads(sys.stdin.read()):
    report = harness.run_experiment(harness.ExperimentConfig.from_dict(raw))
    sys.stdout.write(harness.emit_jsonl(
        dataclasses.replace(report, wall_time_s=0.0)))
"""


def test_blockwise_records_do_not_depend_on_numpy_simd():
    """Every blockwise config and the SIMD_SWEEPS emit byte-identical JSONL
    in a subprocess with numpy's AVX-512 kernels switched off and in one
    with them on: each log of p is `math.log2`, not numpy's CPU-dispatched
    `np.log2`.  Without AVX-512 both runs take the same kernels, so this
    test can only fail on an AVX-512 host.  Symbolwise configs stay out:
    their sums still read `np.exp2`."""
    configs = [raw for raw in (json.loads(c.read_text()) for c in CONFIGS)
               if raw["scheme"]["kind"] == "blockwise"]
    assert len(configs) == 3
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    outs = [subprocess.run(
        [sys.executable, "-c", _EMIT], input=json.dumps(configs + SIMD_SWEEPS),
        env=dict(env, **extra), capture_output=True, text=True, timeout=300,
        check=True).stdout for extra in ({}, NO_AVX512)]
    # a metadata line a run, then its records
    assert outs[0].count("\n") == 6 + 8 + 3 * 39
    assert outs[0] == outs[1]
