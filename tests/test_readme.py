"""Every `nodalcurves ...` command in the README's sh blocks runs and prints."""

import os
import re
import shlex

import pytest

from nodalcurves import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_commands() -> list[list[str]]:
    """The argv of each `nodalcurves` line in a sh block, without comments or `> file`."""
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```", fh.read(), re.M | re.S)
    commands = []
    for line in "\n".join(blocks).splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["nodalcurves"]:
            if ">" in words:
                words = words[: words.index(">")]
            commands.append(words[1:])
    return commands


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_exits_0_and_prints(argv, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out
