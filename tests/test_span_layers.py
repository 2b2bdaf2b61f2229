"""The benchmark's span recorder (`bench/spans.py`) wraps engine functions by
name; a rename or deletion in `src/kummer` would break its traced run.  This
reads the recorder's table without installing it and checks every name."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_spans_readonly", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_wrapped_name_resolves():
    missing = []
    for layer, (modname, names) in _layers().items():
        home = importlib.import_module(modname)
        for name in names:
            owner, _, attr = name.rpartition(".")
            if owner:
                cls = getattr(home, owner, None)
                found = cls is not None and attr in vars(cls)
            else:
                found = callable(getattr(home, attr, None))
            if not found:
                missing.append(f"{layer}: {modname}.{name}")
    assert missing == []
