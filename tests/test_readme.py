"""The README's command-line section: its examples run, and its flag table is the parser's."""

import re
import shlex
from pathlib import Path

import pytest

from detrec.cli import SUBJECTS, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
SECTION = README.split("## Command line", 1)[1].split("\n## ", 1)[0]
# each `detrec ...` line of the section's first code block, with its comment
EXAMPLES = [line.partition("#")[::2] for line in SECTION.split("```")[1].splitlines()
            if line.startswith("detrec ")]


@pytest.mark.parametrize("command, comment", EXAMPLES, ids=[c.strip() for c, _ in EXAMPLES])
def test_example_prints_its_comment(capsys, command, comment):
    assert main(shlex.split(command)[1:]) == 0
    out = capsys.readouterr().out
    if comment.strip():  # the comment is the last line printed
        assert out.splitlines()[-1] == comment.strip()


def test_flag_table_is_the_subject_table():
    rows = {}
    for line in SECTION.splitlines():
        cells = line.split(" | ")
        if len(cells) == 3 and cells[0].startswith("| `"):
            command = cells[0].strip("|` ")
            for subject in re.findall(r"`([^`]+)`", cells[1]):
                rows[command, subject] = set(re.findall(r"--[a-z-]+", cells[2]))
    assert rows == {(command, subject): {flag.rstrip("?") for flag in flags.split()}
                    for command, subjects in SUBJECTS.items()
                    for subject, flags in subjects.items()}
