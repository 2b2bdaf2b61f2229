"""What a fresh ``import kummer.cli`` loads.

A verdict runs in its own process, so import time is part of every verdict.
The engine imports only the standard-library modules it uses: no
``dataclasses``, which brings ``inspect``, ``ast``, ``dis`` and ``tokenize``
with it and compiles generated code for each decorated class.  Every engine
module on the verdict path is imported up front, so none of that cost moves
into the first call, and no function body holds an import.
"""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

NOT_LOADED = ("dataclasses", "inspect", "ast", "dis", "tokenize")
ENGINE = (
    "galois", "disjoint", "groups", "reps", "cohomology", "picard", "lattice", "smith", "gf2", "fp",
)


def test_cli_import_loads_no_dataclasses_and_defers_no_engine_module():
    script = "import sys\nimport kummer.cli\nprint(*sorted(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert out.returncode == 0, out.stderr
    loaded = set(out.stdout.split())
    assert "kummer.cli" in loaded
    assert [name for name in NOT_LOADED if name in loaded] == []
    assert [name for name in ENGINE if f"kummer.{name}" not in loaded] == []


def test_no_engine_function_imports_in_its_body():
    # an import inside a function defers its cost into the first call
    found = []
    for path in sorted((ROOT / "src" / "kummer").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert found == []


def test_cli_import_encodes_only_the_citations_fragment():
    # the report memos fill on the first call, so none of their encoding
    # shows in the start-up time; the one fragment encoded on import is the
    # citations list, which no input changes
    script = (
        "import sys\n"
        "calls = []\n"
        "sys.setprofile(lambda frame, event, arg: event == 'call' and calls.append(frame.f_code.co_name))\n"
        "import kummer.cli\n"
        "sys.setprofile(None)\n"
        "from kummer import pipeline\n"
        "memos = ('_certificate', '_disc_class', '_signature_outcomes', '_conclusions')\n"
        "print(calls.count('_fragment'), calls.count('report_json'))\n"
        "print(sum(getattr(pipeline, name).cache_info().currsize for name in memos))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["1 1", "0"]
