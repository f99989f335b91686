"""The benchmark's trace table still names real crossflats functions.

perfbench/tracing.py wraps functions by (module, name); a function that
is renamed or moved would otherwise only show up as a failed traced run.
"""

import importlib
import importlib.util
import pathlib

from crossflats.field import Field

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_crossflats_attribute():
    tracing = _load_tracing()
    entries = tracing.TIMED + tracing.GENERATORS + tracing.COUNTED
    assert entries
    for module_name, fn_name, _ in entries:
        module = importlib.import_module("crossflats." + module_name)
        assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"
    for op in tracing.FIELD_OPS + ("check",):
        assert callable(getattr(Field, op, None)), f"Field.{op}"
