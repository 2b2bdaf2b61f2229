"""Mutation pilot: does the test suite notice a wrong comparison inside the
functions that decide a verdict?

Each mutant changes one node inside one named function (nested functions
included):
- a comparison operator is swapped: == / !=, < / <=, > / >=, is / is not,
  in / not in;
- ``and`` becomes ``or`` or the reverse;
- a ``not`` is dropped;
- an int literal from 0 to 3 gains 1.

The repository is copied into a fresh temporary directory (``tempfile``; set
TMPDIR to choose where), the mutated module is written there as
``ast.unparse`` source, and ``pytest -x`` runs on the copy.  A mutant is
killed when the tests fail or pass the time limit.  The unmutated
``ast.unparse`` source of each module runs first and must pass.  The working
tree is never written to.

Usage, from the root of the repository:

    python tools/mutation_pilot.py kummer.reps:is_simple \\
        kummer.groups:StabiliserChain.word [-- pytest paths ...]

Pytest paths after ``--`` are run in that order (default ``tests``), so the
files that most likely fail can go first.  The pilot prints one line per
mutant and a summary; it exits 1 if any mutant survived.  It is kept out of
the test paths: a run takes minutes per function.
"""

from __future__ import annotations

import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIME_LIMIT_S = 300
SWAPS = {
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
}
SYMBOLS = {
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.Is: "is",
    ast.IsNot: "is not",
    ast.In: "in",
    ast.NotIn: "not in",
}


def find_function(tree, qualname):
    """The FunctionDef of ``name`` or ``Class.name`` at the module's top level."""
    node = tree
    for part in qualname.split("."):
        node = next(
            n
            for n in node.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part
        )
    return node


def sites(func):
    """(index in ast.walk order, operand index, description) of every mutation."""
    out = []
    for i, node in enumerate(ast.walk(func)):
        line = getattr(node, "lineno", "?")
        if isinstance(node, ast.Compare):
            for j, op in enumerate(node.ops):
                new = SWAPS[type(op)]
                out.append((i, j, f"line {line}: {SYMBOLS[type(op)]} -> {SYMBOLS[new]}"))
        elif isinstance(node, ast.BoolOp):
            old, new = ("and", "or") if isinstance(node.op, ast.And) else ("or", "and")
            out.append((i, 0, f"line {line}: {old} -> {new}"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            out.append((i, 0, f"line {line}: not dropped"))
        elif (
            isinstance(node, ast.Constant)
            and type(node.value) is int
            and 0 <= node.value <= 3
        ):
            out.append((i, 0, f"line {line}: {node.value} -> {node.value + 1}"))
    return out


class _DropNot(ast.NodeTransformer):
    def __init__(self, target):
        self.target = target

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        return node.operand if node is self.target else node


def mutate(tree, qualname, site):
    """A mutated copy of the module tree."""
    tree = copy.deepcopy(tree)
    index, j, _ = site
    node = list(ast.walk(find_function(tree, qualname)))[index]
    if isinstance(node, ast.Compare):
        node.ops[j] = SWAPS[type(node.ops[j])]()
    elif isinstance(node, ast.BoolOp):
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    elif isinstance(node, ast.UnaryOp):
        tree = _DropNot(node).visit(tree)
    else:
        node.value += 1
    return ast.fix_missing_locations(tree)


def run_tests(work, paths):
    """'passed', 'failed' or 'timeout' for the test paths on the copy."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *paths]
    try:
        done = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main(argv):
    if "--" in argv:
        cut = argv.index("--")
        targets, paths = argv[:cut], argv[cut + 1 :] or ["tests"]
    else:
        targets, paths = argv, ["tests"]
    if not targets:
        print(__doc__)
        return 2
    survivors, total, checked = [], 0, set()
    with tempfile.TemporaryDirectory(prefix="mutation-pilot-") as tmp:
        work = Path(tmp) / "repo"
        shutil.copytree(
            ROOT,
            work,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache"),
        )
        for target in targets:
            module, qualname = target.split(":")
            path = work / "src" / Path(*module.split(".")).with_suffix(".py")
            source = path.read_text()
            tree = ast.parse(source)
            path.write_text(ast.unparse(tree))
            if module not in checked and run_tests(work, paths) != "passed":
                print(f"{module}: the unmutated ast.unparse source fails the tests")
                return 2
            checked.add(module)
            for site in sites(find_function(tree, qualname)):
                path.write_text(ast.unparse(mutate(tree, qualname, site)))
                outcome = run_tests(work, paths)
                total += 1
                verdict = "SURVIVED" if outcome == "passed" else f"killed ({outcome})"
                print(f"{target} {site[2]}: {verdict}", flush=True)
                if outcome == "passed":
                    survivors.append(f"{target} {site[2]}")
            path.write_text(source)
    print(f"{total - len(survivors)} of {total} mutants killed")
    for s in survivors:
        print(f"survived: {s}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
