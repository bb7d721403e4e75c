"""Checks of the tooling around the program: the benchmark harness must find
every name that it traces."""

import importlib
import importlib.util
from functools import reduce
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    # a traced name that is removed or renamed breaks every traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for span, (module, path) in tracing.FUNCTIONS.items():
        try:
            reduce(getattr, path.split("."), importlib.import_module(module))
        except AttributeError:
            missing.append(f"{span}: {module}.{path}")
    assert missing == []
