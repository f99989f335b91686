"""The benchmark's trace table still names real crossflats functions.

perfbench/tracing.py wraps functions by (module, name); a function that
is renamed, moved or deleted would otherwise only show up as a failed
``--trace 1`` run.  The lists are read from the file's syntax tree, so
the test neither runs tracing.py nor writes a bytecode cache next to it.
"""

import ast
import importlib
import pathlib

from crossflats.field import Field

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
LISTS = ("TIMED", "GENERATORS", "COUNTED", "FIELD_OPS")


def _trace_lists() -> dict:
    """The literal value of each module-level assignment in LISTS."""
    lists = {}
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in LISTS:
                    lists[target.id] = ast.literal_eval(node.value)
    return lists


def test_every_traced_name_is_a_crossflats_attribute():
    lists = _trace_lists()
    assert set(lists) == set(LISTS)
    entries = lists["TIMED"] + lists["GENERATORS"] + lists["COUNTED"]
    assert entries
    for module_name, fn_name, _ in entries:
        module = importlib.import_module("crossflats." + module_name)
        assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"
    for op in (*lists["FIELD_OPS"], "check"):
        assert callable(getattr(Field, op, None)), f"Field.{op}"
