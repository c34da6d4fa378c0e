"""A fixed unit of work that measures how fast the machine runs right now.

On a shared host the speed of one process drifts by 20-40 % over seconds and
minutes, however long a run is.  The benchmark runs this unit between
solves and scales each solve time by ``REFERENCE_S / calibration time``, so
that a time reads as it would on a machine where one unit takes
``REFERENCE_S``.  The unit mixes what snewton spends its time on: Python
arithmetic on dict polynomials with exponent-tuple keys, numpy evaluation of
monomials, and small complex SVDs and solves.  It imports nothing from
snewton, so a change to snewton never changes the unit.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Seconds one unit takes on an unloaded 2-CPU x86-64 box (Xeon, OpenBLAS).
REFERENCE_S = 0.005

_rng = np.random.default_rng(20230518)
_N = 8
_P = {tuple(int(v) for v in _rng.integers(0, 3, _N)): complex(*_rng.standard_normal(2))
      for _ in range(40)}
_Q = {tuple(int(v) for v in _rng.integers(0, 3, _N)): complex(*_rng.standard_normal(2))
      for _ in range(40)}
_M = _rng.standard_normal((20, 20)) + 1j * _rng.standard_normal((20, 20))
_X = _rng.standard_normal(_N) + 1j * _rng.standard_normal(_N)


def _poly_mul(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


def _work():
    product = _poly_mul(_P, _Q)
    expo = np.array(list(product), dtype=np.int64)
    coeff = np.array(list(product.values()))
    value = coeff @ np.prod(_X[None, :] ** expo, axis=1)
    for _ in range(20):
        np.linalg.svd(_M)
        np.linalg.solve(_M, _M[:, 0])
    return value


def unit():
    """Seconds one unit of work takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def factor(times):
    """The scale that maps times measured alongside the units ``times`` to
    the reference speed."""
    return REFERENCE_S / statistics.median(times)


def measure(count):
    """Times of ``count`` units, after one unmeasured unit that warms up."""
    _work()
    return [unit() for _ in range(count)]
