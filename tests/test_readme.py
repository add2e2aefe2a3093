"""The README's command lines run as written."""

import re
import shlex
from pathlib import Path

import pytest

from central_approx.cli import main

ROOT = Path(__file__).resolve().parents[1]
SH_BLOCKS = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                       re.MULTILINE | re.DOTALL)
COMMANDS = [shlex.split(line, comments=True)[1:] for block in SH_BLOCKS
            for line in block.splitlines() if line.startswith("central-approx ")]


def test_readme_lists_its_commands():
    # the one-liners of the Command line and Tests sections
    assert len(COMMANDS) == 11


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_exits_0(capsys, monkeypatch, argv):
    monkeypatch.chdir(ROOT)  # the README's config paths are relative to the repo root
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
