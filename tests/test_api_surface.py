"""Every function, class and method that ``src/kummer`` defines is named by
code: in ``src/``, in ``bench/*.py`` (its span table names functions by
string) or in ``tests/test_acceptance.py``.  A name that only other tests
read is test-only API, and belongs in ``tests/oracles.py`` or nowhere.

A name counts when code reads it: a bare name, an attribute, an imported
name or a string constant equal to it (or to "Class.name").  Its own ``def``
or ``class`` line, comments and docstrings do not count.  The match is by
name, not by binding, so a method shares its name with anything of that
name.  Dunder names are left out: Python calls them."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "kummer").glob("*.py"))
READERS = SRC + sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def _definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name


def _names_read(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # the span table names a method as "Class.method"
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                yield from parts


def test_every_engine_definition_is_read_outside_the_tests():
    read = set()
    for path in READERS:
        read.update(_names_read(ast.parse(path.read_text(), str(path))))
    unread = {
        f"{path.stem}.{name}"
        for path in SRC
        for name in _definitions(ast.parse(path.read_text(), str(path)))
        if name not in read
    }
    assert not unread, f"defined in src/kummer, read only by tests or by nobody: {sorted(unread)}"
