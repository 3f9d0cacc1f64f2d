"""Single-site mutation sweep: which faults in a module does verify miss?

Usage: python tests/mutation_sweep.py [MODULE.py ...]

The modules default to ``core.py``, ``matrices.py``, ``walks.py`` and
``signed.py`` of ``src/ohmatrix``; a name that is not a file is looked up
there, and several given modules must share one package.  Every mutant
changes one site inside a function body, under five operators:
``+``/``-`` swapped; one of ``<``/``<=``, ``>``/``>=``, ``==``/``!=``,
``is``/``is not`` and ``in``/``not in`` swapped; ``and``/``or`` swapped; a
unary minus dropped; an int constant 0, 1 or 2 raised by one.

Each mutant is written into a temporary copy of the package, never into
the source tree, and judged by ``ohmatrix verify --seed 0 --trials 100``.
A mutant whose run exits with a code other than 0 or 1, prints a traceback,
or runs ten times longer than the unmutated copy (plus ten seconds) counts
as a crash; each run may map at most 1 GiB, so a runaway mutant stops with
a ``MemoryError``.  Otherwise its stdout and exit code are compared with the
unmutated copy's: a difference counts as caught by verify, and a match as a
survivor.  The script prints one table row per module and then every
survivor, grouped by function.  It takes a few minutes, so the test suite
does not run it.
"""

from __future__ import annotations

import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ohmatrix"
JUDGE = ["-m", "ohmatrix.cli", "verify", "--seed", "0", "--trials", "100"]

_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.And: ast.Or, ast.Or: ast.And,
}
_SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
    ast.NotIn: "not in", ast.And: "and", ast.Or: "or",
}


def _functions(node, prefix=""):
    """Each function under ``node``, named after its classes and outer
    functions and listed after them, with the nodes of its body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            name = prefix + child.name
            yield name, [inner for stmt in child.body for inner in ast.walk(stmt)]
            yield from _functions(child, name + ".")
        else:
            yield from _functions(
                child, prefix + child.name + "." if isinstance(child, ast.ClassDef) else prefix)


def _sites(tree):
    """Every mutation site as (function, node, slot, (line, column, change)), in a fixed order.

    A node inside a nested function is attributed to the innermost one.
    """
    owner = {}
    for name, nodes in _functions(tree):
        for node in nodes:
            owner[id(node)] = (name, node)
    sites = []
    for name, node in owner.values():
        if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
            slots = [None] if type(node.op) in _SWAPS else []
        elif isinstance(node, ast.Compare):
            slots = [i for i, op in enumerate(node.ops) if type(op) in _SWAPS]
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            slots = ["drop"]
        elif type(node) is ast.Constant and type(node.value) is int and node.value in (0, 1, 2):
            slots = ["raise"]
        else:
            slots = []
        for slot in slots:
            if slot == "drop":
                what = "unary minus dropped"
            elif slot == "raise":
                what = f"{node.value} -> {node.value + 1}"
            else:
                op = node.op if slot is None else node.ops[slot]
                what = f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[_SWAPS[type(op)]]}"
            sites.append((name, node, slot, (node.lineno, node.col_offset, what)))
    return sites


class _DropMinus(ast.NodeTransformer):
    def __init__(self, target):
        self.target = target

    def visit_UnaryOp(self, node):
        return node.operand if node is self.target else self.generic_visit(node)


def _mutant(source: str, index: int) -> str:
    tree = ast.parse(source)
    _, node, slot, _ = _sites(tree)[index]
    if slot == "drop":
        tree = _DropMinus(node).visit(tree)
    elif slot == "raise":
        node.value += 1
    elif slot is None:
        node.op = _SWAPS[type(node.op)]()
    else:
        node.ops[slot] = _SWAPS[type(node.ops[slot])]()
    return ast.unparse(tree)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _judge(root: str, timeout: float | None) -> tuple[int, str, str]:
    env = {**os.environ, "PYTHONPATH": root, "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        run = subprocess.run([sys.executable, *JUDGE], cwd=root, env=env, capture_output=True,
                             text=True, timeout=timeout, preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return -1, "", "timeout"
    return run.returncode, run.stdout, run.stderr


def main(argv: list[str]) -> int:
    modules = [(Path(arg) if Path(arg).is_file() else PACKAGE / arg).resolve()
               for arg in argv or ("core.py", "matrices.py", "walks.py", "signed.py")]
    package = modules[0].parent
    if not all(module.is_file() for module in modules):
        print("error: each module must be a file, or a module of src/ohmatrix", file=sys.stderr)
        return 2
    if any(module.parent != package for module in modules):
        print("error: the modules must share one package", file=sys.stderr)
        return 2
    rows, survivors = [], defaultdict(list)
    with tempfile.TemporaryDirectory() as root:
        copy = Path(root) / package.name
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        started = time.perf_counter()
        baseline = _judge(root, None)
        timeout = 10 * (time.perf_counter() - started) + 10
        print(f"unmutated: exit {baseline[0]}, {baseline[1].splitlines()[-1]}", flush=True)
        for module in modules:
            source = module.read_text(encoding="utf-8")
            counts = {"caught": 0, "crash": 0, "survive": 0}
            sites = _sites(ast.parse(source))
            for index, (function, _, _, what) in enumerate(sites):
                (copy / module.name).write_text(_mutant(source, index), encoding="utf-8")
                code, out, err = _judge(root, timeout)
                if code not in (0, 1) or "Traceback" in err:
                    counts["crash"] += 1
                elif (code, out) != baseline[:2]:
                    counts["caught"] += 1
                else:
                    counts["survive"] += 1
                    survivors[module.name, function].append(what)
            (copy / module.name).write_text(source, encoding="utf-8")
            rows.append((f"`{module.name}`", len(sites), *counts.values()))
    rows.append(("all", *(sum(column) for column in list(zip(*rows))[1:])))
    print("\n| module | mutants | verify differs | exit 2 or traceback | survive verify |")
    print("|---|---|---|---|---|")
    for row in rows:
        print("| " + " | ".join(map(str, row)) + " |")
    print("\nSurvivors by function:")
    for (module, function), whats in survivors.items():
        lines = "; ".join(f"{line}:{column} {what}" for line, column, what in sorted(whats))
        print(f"- {module} `{function}` ({len(whats)}): {lines}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
