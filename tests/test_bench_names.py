"""Every function the benchmark traces exists under its name.

bench/spans.py wraps functions of the package by module and name, and
reports one it cannot find only as "missing metrics" when the benchmark
runs. This reads its TARGETS table, without installing the tracer, and
checks each name in tier-1."""

import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_function_exists():
    namespace = {"__name__": "spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)  # no bytecode file written
    missing = []
    for module_name, attr, *_, aliases in namespace["TARGETS"]:
        fn = getattr(importlib.import_module(f"socialevents.{module_name}"), attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
        # a module that imports the function by name must still call that one
        missing += [f"{alias}.{attr}" for alias in aliases
                    if getattr(importlib.import_module(f"socialevents.{alias}"), attr, None)
                    is not fn]
    assert missing == []
