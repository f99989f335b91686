import importlib.util
import pathlib
import types

import pytest

from crossflats import geometry


@pytest.fixture
def refuse_point_walk(monkeypatch):
    """Make any walk over coordinate vectors in geometry fail the test, so a
    size check that comes too late fails fast instead of hanging."""
    def refuse(*args, **kwargs):
        raise AssertionError("walked the vectors before bounding their number")

    monkeypatch.setattr(geometry, "itertools", types.SimpleNamespace(product=refuse))


@pytest.fixture
def perfbench_run(monkeypatch):
    """perfbench/run.py, loaded as a module."""
    perfbench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))  # run.py imports gen
    spec = importlib.util.spec_from_file_location("perfbench_run", perfbench / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

