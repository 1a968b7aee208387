"""Fixtures shared by the test modules."""

import pytest

from steingrad import linalg


@pytest.fixture
def numpy_linalg_only(monkeypatch):
    """Make the lookup of numpy's LAPACK symbols fail, so that every rung of
    every solve takes the ``np.linalg`` fallback; the lookup is made afresh
    on both sides of the test."""
    linalg._lapack.cache_clear()
    monkeypatch.setattr(linalg, "_SYMBOL", "steingrad_missing_{}")
    yield
    monkeypatch.undo()
    linalg._lapack.cache_clear()
