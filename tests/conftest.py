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
    """List that grows by the factor index of each evaluation pass over a
    term set (a call of ``polycore._monomials``): compare an entry with
    ``system._index(order)`` by identity to tell f, Df and D^2f.v apart
    (orders 0, 1 and 2)."""
    passes = []
    real = polycore._monomials

    def counting(index, x):
        passes.append(index)
        return real(index, x)

    monkeypatch.setattr(polycore, "_monomials", counting)
    return passes
