"""Shared fixtures."""

import pytest

from snewton import polycore


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` wraps ``owner.name`` for the test and
    returns a list that grows by one entry per call: its positional
    arguments."""

    def install(owner, name):
        calls = []
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    return install


@pytest.fixture
def contraction_calls(count_calls):
    """List that grows by one entry per call of ``polycore.dir_hessian``."""
    return count_calls(polycore, "dir_hessian")


@pytest.fixture
def evaluation_passes(monkeypatch):
    """List that grows by the factor index of each evaluation pass (a call
    of ``polycore._monomials``): a system keeps one index per tuple of
    orders that ``_values`` was asked for, so compare an entry with
    ``system._index(orders)`` by identity to tell, say, a pass of f alone
    (``(0,)``) from one of Df and D^2f.v together (``(1, 2)``)."""
    passes = []
    real = polycore._monomials

    def counting(index, x):
        passes.append(index)
        return real(index, x)

    monkeypatch.setattr(polycore, "_monomials", counting)
    return passes
