"""The README's library quickstart runs as written, and its claims hold."""

import argparse
import importlib
import re
from pathlib import Path

import ohmatrix
from ohmatrix.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
TESTS = Path(__file__).resolve().parent


def test_quickstart_block_runs_and_its_equality_comments_hold():
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    claims = []
    for line in block.splitlines():
        expr, sep, claim = line.partition("# equals ")
        if sep:
            assert eval(expr, namespace) == eval(claim, namespace), line
            claims.append((expr.strip(), claim.strip()))
    assert ('adjacency_matrix(g).power(3)', 'walk_matrix(g, "V", "V", 6)') in claims


def test_command_line_flags_are_options_of_some_subcommand():
    # From the "Command line" heading on, so the install section's pip flags
    # are not read as ohmatrix options.
    _, heading, text = README.read_text(encoding="utf-8").partition("\n## Command line\n")
    assert heading
    [subcommands] = [
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {
        flag for parser in subcommands.values()
        for action in parser._actions for flag in action.option_strings
    }
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
    assert "--max-walks" in flags
    assert flags <= options, sorted(flags - options)


def test_backticked_api_names_exist():
    # A backticked snake_case name must still name something: an attribute of
    # the package or one of its modules, a verify option, or a test function.
    text = README.read_text(encoding="utf-8")
    names = {name for name in re.findall(r"`([a-z_][a-z0-9_]*)`", text) if "_" in name}
    known = set(dir(ohmatrix)) | set(ohmatrix.VerifyOptions.__match_args__)
    for module in ("core", "matrices", "walks", "signed", "io", "verify", "cli"):
        known |= set(dir(importlib.import_module(f"ohmatrix.{module}")))
    for path in TESTS.rglob("*.py"):
        known |= set(re.findall(r"^\s*def (test_\w+)", path.read_text(encoding="utf-8"), re.M))
    assert "walk_matrix" in names
    assert names <= known, sorted(names - known)


def test_layout_block_lists_existing_paths_and_every_module():
    # An unindented line names a path from the repository root; an indented
    # one names a file inside the last unindented directory.
    [block] = re.findall(r"\n## Layout\n\n```\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    listed, parent = [], ""
    for line in block.splitlines():
        name = line.split()[0]
        if line.startswith(" "):
            listed.append(parent + name)
        else:
            listed.append(name)
            parent = name
    missing = [path for path in listed if not (ROOT / path).exists()]
    assert not missing, missing
    modules = {
        path.relative_to(ROOT).as_posix() for path in (ROOT / "src" / "ohmatrix").glob("*.py")
        if path.name != "__init__.py"
    }
    assert "src/ohmatrix/walks.py" in modules
    assert modules <= set(listed), sorted(modules - set(listed))
