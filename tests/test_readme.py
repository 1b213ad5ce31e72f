"""The README's examples run as written: its python blocks, then its CLI commands."""

import re
import shlex
from pathlib import Path

from regretsim import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)


def test_readme_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = blocks("python")
    assert code
    namespace: dict = {}
    for block in code:  # in order, each block seeing the names of the ones before
        exec(compile(block, str(README), "exec"), namespace)
    commands = [line for block in blocks("sh") for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("regretsim ")]
    assert commands
    for line in commands:
        assert cli.main(shlex.split(line)[1:]) == 0, line
