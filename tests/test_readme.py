"""The README's library example and CLI examples run against the current API."""

import os
import re

import pytest

from mmdg.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _readme():
    with open(os.path.join(ROOT, "README.md")) as fh:
        return fh.read()


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", _readme(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.strip()


CLI_EXAMPLES = [line.split()[1:] for block in re.findall(r"```\n(.*?)```", _readme(), flags=re.S)
                for line in block.splitlines() if line.startswith("mmdg ")]


@pytest.mark.parametrize("argv", CLI_EXAMPLES, ids=[argv[0] for argv in CLI_EXAMPLES])
def test_readme_cli_example_runs(argv, tmp_path, capsys):
    # each example writes its CSV into tmp_path instead of the working directory
    out = argv.index("--out") + 1
    argv = argv[:out] + [str(tmp_path / argv[out])] + argv[out + 1 :]
    assert main(argv) == 0
    with open(argv[out]) as fh:
        assert len(fh.read().splitlines()) > 2  # the header, the column names, then rows
    assert capsys.readouterr().err == ""


def test_readme_has_every_mode_as_a_cli_example():
    assert sorted(argv[0] for argv in CLI_EXAMPLES) == [
        "ap-limit", "converge", "solve", "stability-scan"]
