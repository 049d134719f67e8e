"""Rewrite the golden reports in tests/golden/ and tests/golden_mc/ from
the current tree.

Each shipped config in configs/ runs in its configured mode through
`twoshare.cli.main(["experiment", "--config", ..., "--format", "jsonl"])`,
in-process, and its JSON lines go to tests/golden/<config>.jsonl with the
run's `wall_time_s` dropped.  The configs in MC_RUNS also run in Monte
Carlo mode at MC_TRIALS trials, into tests/golden_mc/<name>.jsonl: they
pin the draws the shipped Monte Carlo configs never make, a p_e strictly
between 0 and 1 (blockwise at k=2 and k=3, and symbolwise).
`tests/test_golden.py` compares fresh runs with these files.  A change
meant to move a shipped output reruns this from the repository root,

    PYTHONPATH=src python tests/make_golden.py

and names each field that moved in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from twoshare import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
GOLDEN_MC = ROOT / "tests" / "golden_mc"
# one binomial draws any count alike; this one keeps the goldens' count
MC_TRIALS = 2 * (1 << 16) + 1
MC_RUNS = {"blockwise_skew": ROOT / "configs" / "blockwise_skew.json",
           "symbolwise_skew": ROOT / "configs" / "symbolwise_skew.json",
           "blockwise_k3": GOLDEN_MC / "blockwise_k3.json"}


def run_config(path: Path, *flags: str) -> list[dict]:
    """One config's JSONL report, parsed line by line, without the run's
    `wall_time_s`; `flags` go to the experiment command after the config.
    RuntimeError when the run does not exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(["experiment", "--config", str(path), *flags,
                           "--format", "jsonl"])
    if status != 0:
        raise RuntimeError(f"{path.name} exited with status {status}")
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    for line in lines:
        line.pop("wall_time_s", None)
    return lines


def run_mc(name: str) -> list[dict]:
    """The Monte Carlo report of MC_RUNS[name] at MC_TRIALS trials."""
    return run_config(MC_RUNS[name], "--mode", "mc",
                      "--trials", str(MC_TRIALS))


def _write(target: Path, lines: list[dict]):
    target.write_text("".join(json.dumps(line, sort_keys=True) + "\n"
                              for line in lines))
    print(f"{target.relative_to(ROOT)}: {len(lines)} lines")


def main():
    GOLDEN.mkdir(exist_ok=True)
    for path in CONFIGS:
        _write(GOLDEN / f"{path.stem}.jsonl", run_config(path))
    for name in MC_RUNS:
        _write(GOLDEN_MC / f"{name}.jsonl", run_mc(name))


if __name__ == "__main__":
    main()
