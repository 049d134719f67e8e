"""Every `$ twoshare ...` example in README.md prints what README shows.

Each example runs through `cli.main` from the repo root, its continuation
lines joined, and its stdout is compared line by line with the lines that
follow the command up to a blank line, a code fence or the next command.
A README line that ends in `...` compares as a prefix.
"""
import shlex
from pathlib import Path

import pytest

from twoshare import cli

ROOT = Path(__file__).resolve().parent.parent
PROMPT = "$ twoshare "


def examples(text: str) -> list[tuple[str, list[str]]]:
    """(command, shown output lines) of each example in text."""
    found, lines, i = [], text.splitlines(), 0
    while i < len(lines):
        if not lines[i].startswith(PROMPT):
            i += 1
            continue
        command = lines[i][len(PROMPT):]
        while command.endswith("\\"):
            i += 1
            command = command[:-1] + " " + lines[i].strip()
        shown = []
        i += 1
        while (i < len(lines) and lines[i].strip()
               and not lines[i].startswith(("```", PROMPT))):
            shown.append(lines[i])
            i += 1
        found.append((command, shown))
    return found


EXAMPLES = examples((ROOT / "README.md").read_text())


def test_readme_has_examples():
    assert len(EXAMPLES) >= 6
    assert all(shown for _, shown in EXAMPLES)


@pytest.mark.parametrize("command,shown", EXAMPLES,
                         ids=[c.split()[0] + f"-{i}"
                              for i, (c, _) in enumerate(EXAMPLES)])
def test_example_prints_what_readme_shows(command, shown, capsys,
                                          monkeypatch):
    monkeypatch.chdir(ROOT)
    assert cli.main(shlex.split(command)) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(shown)
    for got, want in zip(printed, shown):
        if want.endswith("..."):
            assert got.startswith(want[:-3])
        else:
            assert got == want
