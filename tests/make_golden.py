"""Rewrite the golden reports in tests/golden/ from the current tree.

Each shipped config in configs/ runs in its configured mode through
`twoshare.cli.main(["experiment", "--config", ..., "--format", "jsonl"])`,
in-process, and its JSON lines go to tests/golden/<config>.jsonl with the
run's `wall_time_s` dropped.  `tests/test_golden.py` compares fresh runs
with these files.  A change meant to move a shipped output reruns this
from the repository root,

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


def run_config(path: Path) -> list[dict]:
    """One config's JSONL report, parsed line by line, without the run's
    `wall_time_s`; RuntimeError when the run does not exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(["experiment", "--config", str(path),
                           "--format", "jsonl"])
    if status != 0:
        raise RuntimeError(f"{path.name} exited with status {status}")
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    for line in lines:
        line.pop("wall_time_s", None)
    return lines


def main():
    GOLDEN.mkdir(exist_ok=True)
    for path in CONFIGS:
        lines = run_config(path)
        target = GOLDEN / f"{path.stem}.jsonl"
        target.write_text("".join(json.dumps(line, sort_keys=True) + "\n"
                                  for line in lines))
        print(f"{target.relative_to(ROOT)}: {len(lines)} lines")


if __name__ == "__main__":
    main()
