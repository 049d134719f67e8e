"""Regenerate `reference.json`, the correctness reference of the benchmark.

Run from the repository root:

    PYTHONPATH=src python3 bench/make_reference.py

It records every harness record the benchmark produces (exact and Monte
Carlo mode), the same Monte Carlo configs evaluated in exact mode, a digest
of the Monte Carlo records, and the exact atypical mass of the stand-alone
estimate, summed over type classes.  Regenerate it only from a commit whose
outputs are trusted: every later run is scored against it.
"""
from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

from twoshare import harness

import check
import workloads


def atypical_mass_by_types(source: list[float], n: int, gamma: float) -> float:
    """P(|mean surprisal - H| > gamma) as a sum over binary type classes."""
    p0, p1 = source
    h = -(p0 * math.log2(p0) + p1 * math.log2(p1))
    w0, w1 = -math.log2(p0), -math.log2(p1)
    terms = []
    for c in range(n + 1):
        if abs(((n - c) * w0 + c * w1) / n - h) > gamma:
            terms.append(math.comb(n, c) * p0 ** (n - c) * p1 ** c)
    return math.fsum(terms)


def main() -> int:
    root = Path.cwd()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, check=False).stdout.strip() or "unknown"
    ref = {"source_commit": commit, "exact_tol": check.EXACT_TOL,
           "mc_widths": check.MC_WIDTHS, "records": {}, "exact_of_mc": {},
           "mc_digest": {}}
    for name in ("exact-block", "exact-symbol", "mc"):
        for label, cfg in workloads.harness_configs(root, name):
            text = harness.emit_jsonl(harness.run_experiment(cfg))
            ref["records"][label] = check.jsonl_records(text)
            if cfg.mode == "mc":
                ref["mc_digest"][label] = check.mc_digest(text)
                exact = dataclasses.replace(cfg, mode="exact")
                ref["exact_of_mc"][label] = check.jsonl_records(
                    harness.emit_jsonl(harness.run_experiment(exact)))
    a = workloads.ATYPICAL
    gamma = workloads.atypical_gamma()
    ref["atypical_mass"] = {
        "source": a["source"], "n": a["n"], "gamma": gamma,
        "value": atypical_mass_by_types(a["source"], a["n"], gamma)}
    check.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {check.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
