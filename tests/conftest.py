"""Shared fixtures."""

import pytest

from snewton import polycore


@pytest.fixture
def contraction_calls(monkeypatch):
    """List that grows by one entry per call of ``polycore.dir_hessian``."""
    calls = []
    real = polycore.dir_hessian

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(polycore, "dir_hessian", counting)
    return calls
