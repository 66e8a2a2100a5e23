"""The README's library example and CLI examples run against the current API, every
test it cites exists, and every module constant it quotes has the quoted value."""

import glob
import importlib
import inspect
import os
import pkgutil
import re

import pytest

import mmdg
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


def test_readme_names_every_top_level_export_and_no_other():
    # every mmdg.<name> in README is a submodule or a top-level export, and
    # every top-level export is named there: README is the library's contract
    named = set(re.findall(r"\bmmdg\.(\w+)", _readme()))
    submodules = {info.name for info in pkgutil.iter_modules(mmdg.__path__)}
    exports = {name for name, value in vars(mmdg).items()
               if not name.startswith("_") and not inspect.ismodule(value)}
    assert named - submodules - exports == set()
    assert exports - named == set()


def test_readme_has_every_mode_as_a_cli_example():
    assert sorted(argv[0] for argv in CLI_EXAMPLES) == [
        "ap-limit", "converge", "solve", "stability-scan"]


def _inline_code(text):
    """The backticked spans of a markdown text, fenced blocks left out."""
    return re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))


def _defined_tests():
    """{path: the test functions it defines} for tests/*.py and bench/test_checks.py."""
    paths = glob.glob(os.path.join(ROOT, "tests", "*.py")) + [
        os.path.join(ROOT, "bench", "test_checks.py")]
    defined = {}
    for path in paths:
        with open(path) as fh:
            names = re.findall(r"^def (test_\w+)\(", fh.read(), flags=re.M)
        defined[os.path.relpath(path, ROOT).replace(os.sep, "/")] = set(names)
    return defined


def _unknown_tests(text):
    """Cited tests, `test_name` or `path.py::test_name`, that their module (any
    module for a bare name) does not define."""
    defined = _defined_tests()
    anywhere = set().union(*defined.values())
    unknown = []
    for span in _inline_code(text):
        if "::" not in span and not span.startswith("test_"):
            continue
        cited = re.fullmatch(r"(?:([\w/]+\.py)::)?(test_\w+)", span)
        if cited is None:
            unknown.append(span)
        elif cited[2] not in (defined.get(cited[1], set()) if cited[1] else anywhere):
            unknown.append(span)
    return unknown


def _module_constants():
    """{NAME: value} of the upper-case module constants of mmdg."""
    constants = {}
    for info in pkgutil.iter_modules(mmdg.__path__):
        module = importlib.import_module(f"mmdg.{info.name}")
        constants.update((name, value) for name, value in vars(module).items()
                         if re.fullmatch(r"[A-Z][A-Z0-9_]+", name))
    return constants


def _misquoted_constants(text):
    """Quoted `NAME = value` spans whose NAME is no mmdg constant or whose value,
    a number with ^ read as a power, is not the constant's."""
    constants = _module_constants()
    misquoted = []
    for span in _inline_code(text):
        quoted = re.fullmatch(r"([A-Z][A-Z0-9_]+) = (.+)", span)
        if quoted is None:
            continue
        name, value = quoted.groups()
        if re.fullmatch(r"[0-9.eE+\-*/^() ]+", value):
            value = eval(value.replace("^", "**"), {"__builtins__": {}})  # digits and operators only
        if name not in constants or constants[name] != value:
            misquoted.append(span)
    return misquoted


def test_readme_cites_only_tests_that_exist():
    assert _unknown_tests(_readme()) == []


def test_readme_quotes_each_constant_at_its_value():
    assert _misquoted_constants(_readme()) == []


def test_contract_checks_catch_a_misspelled_test_and_a_wrong_constant():
    text = ("`tests/test_cli.py::test_whole_file_bytes_pinned`, `test_c4_cfl_formulas`, "
            "`tests/test_cli.py::test_c4_cfl_formulas`, `test_whole_file_bytes_pined`, "
            "`MAX_STEPS = 10^6`, `MAX_STEPS = 10^5`, `MAX_STEP = 10^6`, `GROWTH_LIMIT = ten`")
    assert _unknown_tests(text) == [
        "tests/test_cli.py::test_c4_cfl_formulas", "test_whole_file_bytes_pined"]
    assert _misquoted_constants(text) == [
        "MAX_STEPS = 10^5", "MAX_STEP = 10^6", "GROWTH_LIMIT = ten"]
