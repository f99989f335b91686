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
