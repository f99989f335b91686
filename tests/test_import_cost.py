"""Smoke test of tools/import_cost.py: one run per measurement."""

import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "import_cost.py"
MODULES = ["crossflats", "crossflats.certify", "crossflats.cli", "crossflats.families",
           "crossflats.field", "crossflats.geometry", "crossflats.linalg", "crossflats.search"]


def test_import_cost_reports_every_module_and_the_set_up():
    done = subprocess.run([sys.executable, str(TOOL), "--runs", "1"],
                          capture_output=True, text=True, timeout=120, check=True)
    lines = done.stdout.splitlines()
    rows = [line.split() for line in lines[2:] if line.strip().startswith("crossflats")]
    assert sorted(row[0] for row in rows) == MODULES
    assert all(0 <= float(own) <= float(cumulative) for _, own, cumulative in rows)
    assert lines[-1].startswith("set-up as perfbench/child.py times it")
    assert "1 fresh interpreters" in lines[-1]
