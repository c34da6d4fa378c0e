"""Sparse multivariate polynomials over the complex numbers.

A polynomial is a map from exponent multi-indices (one nonnegative integer
per variable) to complex coefficients.  Zero coefficients are never stored,
so two polynomials are equal exactly when their term maps are equal.  All
objects are immutable after construction and every operation returns a new
object, which makes them safe to share across threads.

Term order is graded lexicographic throughout.  That fixes the floating
point summation order during evaluation, so results are reproducible run to
run and across machines with the same float format.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import re
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

Exponent = tuple[int, ...]

# The term arrays store exponents as int16.
MAX_EXPONENT = int(np.iinfo(np.int16).max)
# The least integer that float() rounds past the float range.
_FLOAT_END = 2**1024 - 2**970

__all__ = [
    "Poly",
    "PolySystem",
    "PolyParseError",
    "parse_poly",
    "parse_system",
    "load_system_json",
    "dir_hessian",
    "normalized_partial",
    "taylor_coefficients",
    "monomials_upto",
    "compose_affine",
    "system_from_terms",
]


def grlex_key(alpha: Exponent):
    """Sort key for graded lexicographic order (total degree, then lex)."""
    return (sum(alpha), alpha)


class Poly:
    """One sparse polynomial with complex coefficients.

    ``terms`` maps exponent tuples of length ``num_vars`` to nonzero complex
    coefficients, e.g. ``x0^2*x1 + 3`` in two variables is
    ``{(2, 1): 1+0j, (0, 0): 3+0j}``.  The zero polynomial has an empty map.
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Mapping[Exponent, complex] | None = None):
        if num_vars < 1:
            raise ValueError("a polynomial needs at least one variable")
        clean: dict[Exponent, complex] = {}
        for alpha, c in (terms or {}).items():
            alpha = tuple(map(int, alpha))
            if len(alpha) != num_vars:
                raise ValueError(
                    f"multi-index {alpha} has length {len(alpha)}, expected {num_vars}"
                )
            if min(alpha) < 0:
                raise ValueError(f"negative exponent in multi-index {alpha}")
            if max(alpha) > MAX_EXPONENT:
                raise ValueError(f"exponent in multi-index {alpha} exceeds {MAX_EXPONENT}")
            c = complex(c)
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient of {alpha} is not finite: {c}")
            if c != 0:
                clean[alpha] = c
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> Poly:
        return cls(num_vars, {})

    @classmethod
    def constant(cls, num_vars: int, value: complex) -> Poly:
        return cls(num_vars, {(0,) * num_vars: value})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> Poly:
        if not 0 <= index < num_vars:
            raise ValueError(f"variable index {index} out of range for {num_vars} variables")
        alpha = [0] * num_vars
        alpha[index] = 1
        return cls(num_vars, {tuple(alpha): 1.0})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> Poly:
        other = self._coerce(other)
        out = dict(self.terms)
        for alpha, c in other.terms.items():
            out[alpha] = out.get(alpha, 0.0) + c
        return Poly(self.num_vars, out)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(self.num_vars, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other) -> Poly:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> Poly:
        return self._coerce(other) - self

    def __mul__(self, other) -> Poly:
        if isinstance(other, (int, float, complex)):
            return Poly(self.num_vars, {a: c * other for a, c in self.terms.items()})
        other = self._coerce(other)
        out: dict[Exponent, complex] = {}
        for a1, c1 in self.terms.items():
            for a2, c2 in other.terms.items():
                alpha = tuple(x + y for x, y in zip(a1, a2))
                out[alpha] = out.get(alpha, 0.0) + c1 * c2
        return Poly(self.num_vars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> Poly:
        if k < 0:
            raise ValueError("negative polynomial power")
        result = Poly.constant(self.num_vars, 1.0)
        for _ in range(k):
            result = result * self
        return result

    def _coerce(self, other) -> Poly:
        if isinstance(other, Poly):
            if other.num_vars != self.num_vars:
                raise ValueError(
                    f"mixing polynomials in {self.num_vars} and {other.num_vars} variables"
                )
            return other
        if isinstance(other, (int, float, complex)):
            return Poly.constant(self.num_vars, other)
        return NotImplemented

    # -- evaluation --------------------------------------------------------

    def eval(self, x: Sequence[complex]) -> complex:
        """Value at ``x``: that of the polynomial as a system's row, its terms
        summed in graded-lex order."""
        return complex(PolySystem([self]).eval(x)[0])

    # -- formatting --------------------------------------------------------

    def to_string(self, variable_names: Sequence[str] | None = None) -> str:
        names = _default_names(self.num_vars, variable_names)
        alphas = sorted(self.terms, key=grlex_key, reverse=True)
        return _format_terms((((j, e) for j, e in enumerate(a) if e) for a in alphas),
                             map(self.terms.get, alphas), names)

    def __repr__(self):
        return f"Poly({self.to_string()!r})"


class PolySystem:
    """An ordered tuple of polynomials sharing one variable set.

    Square systems have as many polynomials as variables; deflated systems
    are longer.  A system is its term arrays (``_arrays``): int16 exponents,
    complex coefficients, int64 row ids and the row count, by row and then
    in graded-lex order, without zero coefficients.  Factor indexes for
    evaluation and the ``Poly`` view ``polys`` are built lazily and cached
    (the system itself stays immutable, so sharing across threads is safe).

    It is the one evaluator interface: an evaluator supplies ``num_vars``,
    ``__len__`` and ``_values`` as here, and binds by name the ``eval``,
    ``jacobian``, ``directional_derivative``, ``_check_point`` and
    ``is_square`` written here once (``lvz.AugmentedSystem``); ``twostep``
    reads nothing more.  No value at a point is kept: a caller that needs
    several orders at one point asks for them in one ``_values`` call, and
    hands on what it holds.
    """

    __slots__ = ("num_vars", "_arrays", "_polys", "_cache")

    def __init__(self, polys: Iterable[Poly]):
        polys = tuple(polys)
        if not polys:
            raise ValueError("a system needs at least one polynomial")
        n = polys[0].num_vars
        for p in polys:
            if p.num_vars != n:
                raise ValueError("all polynomials in a system must share num_vars")
        expo = np.array([a for p in polys for a in p.terms], dtype=np.int16).reshape(-1, n)
        coef = np.array([c for p in polys for c in p.terms.values()], dtype=complex)
        row = np.repeat(np.arange(len(polys)), [len(p.terms) for p in polys])
        self._store(expo, coef, row, len(polys), polys)

    def _store(self, expo, coef, row, m: int, polys) -> None:
        """Set the fields from checked terms, which are put in canonical
        order here (np.lexsort sorts by its last key first) unless they are
        in it already."""
        degree, kept = expo.sum(axis=1), coef != 0
        if _in_order(expo, degree, row):
            order = np.flatnonzero(kept)
        else:
            order = np.lexsort((*expo.T[::-1], degree, row))
            order = order[kept[order]]
        expo, row = expo[order].astype(np.int16, copy=False), row[order].astype(np.int64)
        arrays, cache = (expo, coef[order], row, m), {"degree": int(degree.max(initial=0, where=kept))}
        for name, value in zip(self.__slots__, (expo.shape[1], arrays, polys, cache)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("PolySystem is immutable")

    @property
    def polys(self) -> tuple[Poly, ...]:
        """The rows as ``Poly`` objects: those the system was built from, if
        it was, else built from the term arrays on first use."""
        if self._polys is None:
            expo, coef, row, m = self._arrays
            terms = [{} for _ in range(m)]
            for i, alpha, c in zip(row.tolist(), map(tuple, expo.tolist()), coef.tolist()):
                terms[i][alpha] = c
            object.__setattr__(self, "_polys", tuple(Poly(self.num_vars, t) for t in terms))
        return self._polys

    def __len__(self):
        return self._arrays[3]

    def __iter__(self):
        return iter(self.polys)

    def __getitem__(self, i):
        return self.polys[i]

    def __eq__(self, other):
        return isinstance(other, PolySystem) and all(
            np.array_equal(a, b) for a, b in zip(self._arrays, other._arrays)
        )

    def __hash__(self):
        # Not the coefficient bytes: 1+0j and 1-0j are equal.
        expo, _, row, m = self._arrays
        return hash((self.num_vars, m, expo.tobytes(), row.tobytes()))

    def degree(self) -> int:
        """Total degree (0 for the zero system), kept since the system was built."""
        return self._cache["degree"]

    def is_square(self) -> bool:
        return len(self) == self.num_vars

    def _terms(self, order: int):
        """The terms of derivative order ``order``: (factor lists,
        coefficients, pair ids, row count, tags).  Order 0 is f; order 1 is
        Df, in row i*num_vars + k for df_i/dx_k; each higher order is the
        one below differentiated along every x_k, keeping its rows and
        appending k to its tags, one int array per direction (none below
        order 2).  A term of row r has the pair ids 2r and 2r + 1 (see
        ``_pair_sums``); its row is half the first."""
        cached = self._cache.get(("terms", order))
        if cached is None:
            if order == 0:
                expo, coef, row, m = self._arrays
                factors, tags = _factors(expo), ()
            else:
                factors, coef, pairs, m, tags = self._terms(order - 1)
                factors, coef, source, k = _differentiate(factors, coef)
                row = (pairs[::2] >> 1)[source]
                if order == 1:
                    row, m = row * self.num_vars + k, m * self.num_vars
                else:
                    tags = (*(tag[source] for tag in tags), k)
            cached = self._cache[("terms", order)] = (factors, coef, _pair_ids(row), m, tags)
        return cached

    def _index(self, orders: tuple[int, ...]) -> _FactorIndex:
        """The factor index of the ``_terms`` of ``orders``, one set after another."""
        index = self._cache.get(("index", orders))
        if index is None:
            sets, size = [], 0
            for order in orders:
                (term, var, exp), coef = self._terms(order)[:2]
                sets.append((term + size, var, exp))  # term ids after the sets before
                size += len(coef)
            factors = (np.concatenate(parts) for parts in zip(*sets))
            index = self._cache[("index", orders)] = _factor_index(*factors, size, self.num_vars)
        return index

    def _values(self, x: np.ndarray, orders: tuple[int, ...], *dirs: np.ndarray) -> list[np.ndarray]:
        """One array per order of ``orders``, at a checked point and
        directions, computed anew from one pass over their terms: f(x) for
        order 0, else the Jacobian of D^k f(x)[v_1, ..., v_k] with k = order
        - 1 for the first k of ``dirs``.  Each term's coefficient times
        v_i[tag_i] in turn, times its monomial, summed by row in term order;
        each order has the bits of a pass of its own."""
        sets, coefs = list(map(self._terms, orders)), []
        for _, coef, _, _, tags in sets:
            for v, tag in zip(dirs, tags):
                coef = np.multiply(coef, v[tag])  # the operand order of _monomials
            coefs.append(coef)
        one = len(sets) == 1  # then no copy and no slice
        vals = np.multiply(coefs[0] if one else np.concatenate(coefs), _monomials(self._index(orders), x))
        out, end = [], 0
        for order, (_, coef, pairs, m, _) in zip(orders, sets):
            sums = _pair_sums(vals if one else vals[end : end + len(coef)], pairs, m)
            out.append(sums if order == 0 else sums.reshape(len(self), self.num_vars))
            end += len(coef)
        return out

    def eval(self, x: Sequence[complex]) -> np.ndarray:
        """Vector of values ``[f_1(x), ..., f_m(x)]``."""
        return self._values(self._check_point(x), (0,))[0]

    def jacobian(self, x: Sequence[complex]) -> np.ndarray:
        """Jacobian matrix at ``x``, shape (len(self), num_vars)."""
        return self._values(self._check_point(x), (1,))[0]

    def directional_derivative(self, x: Sequence[complex], dirs) -> np.ndarray:
        """Jacobian at ``x`` of D^k f(x)[v_1, ..., v_k] for the k directions
        ``dirs``: ``jacobian`` for k = 0 and ``dir_hessian`` for k = 1, that
        is ``_values(x, (k + 1,), *dirs)`` at the checked point and directions."""
        x = self._check_point(x)
        dirs = [_check_direction(v, self.num_vars) for v in dirs]
        return self._values(x, (len(dirs) + 1,), *dirs)[0]

    def _check_point(self, x) -> np.ndarray:
        return _check_point(x, self.num_vars)

    def to_string(self, variable_names: Sequence[str] | None = None) -> str:
        """One line per row, as ``Poly.to_string`` prints it, made from the term
        arrays, whose rows are already in graded-lex order: no ``Poly`` is built."""
        names = _default_names(self.num_vars, variable_names)
        expo, coef, row, m = self._arrays
        t, j = np.nonzero(expo)  # each term's nonzero exponents, by variable
        pairs = list(zip(j.tolist(), expo[t, j].tolist()))
        starts = np.searchsorted(t, np.arange(len(coef) + 1)).tolist()
        factors = [pairs[a:b] for a, b in zip(starts, starts[1:])]
        coefs, rows = coef.tolist(), np.searchsorted(row, np.arange(m + 1)).tolist()
        return "\n".join(_format_terms(factors[a:b][::-1], coefs[a:b][::-1], names)
                         for a, b in zip(rows, rows[1:]))

    def __repr__(self):
        return f"PolySystem({len(self)} polys in {self.num_vars} vars)"


def system_from_terms(expo: np.ndarray, coef: np.ndarray, row: np.ndarray, m: int) -> PolySystem:
    """The system of ``m`` polynomials with term ``coef[t] * X^expo[t]`` in
    polynomial ``row[t]``.  Terms with coefficient 0 are dropped, and a
    ValueError names the first (row, exponent) pair that repeats among the
    rest.  Rows without terms are zero polynomials.  The arrays are checked
    once, with numpy, and become the system's term arrays; no Poly is built."""
    if m < 1:
        raise ValueError("a system needs at least one polynomial")
    expo, coef, row = np.asarray(expo), np.asarray(coef, dtype=complex), np.asarray(row)
    _check_terms(expo, coef, row, m)
    system = object.__new__(PolySystem)
    system._store(expo, coef, row, m, None)
    expo, _, row, _ = system._arrays
    repeats = np.flatnonzero((row[1:] == row[:-1]) & (expo[1:] == expo[:-1]).all(axis=1))
    if repeats.size:
        t = repeats[0]
        raise ValueError(f"row {row[t]} has two terms with exponent {tuple(expo[t].tolist())}")
    return system


def _in_order(expo: np.ndarray, degree: np.ndarray, row: np.ndarray) -> bool:
    """Whether no term's key (row, degree, exponents) exceeds the next
    term's, compared for all adjacent pairs at once: at the first exponent
    column where two terms differ, if any."""
    col = (expo[1:] != expo[:-1]).argmax(axis=1)
    t = np.arange(len(col))
    expo_up = expo[1:][t, col] >= expo[:-1][t, col]
    degree_up = (degree[1:] > degree[:-1]) | ((degree[1:] == degree[:-1]) & expo_up)
    return bool(((row[1:] > row[:-1]) | ((row[1:] == row[:-1]) & degree_up)).all())


def _check_terms(expo: np.ndarray, coef: np.ndarray, row: np.ndarray, m: int) -> None:
    """Raise the error ``Poly`` raises for the first term of the arrays it
    rejects, and one for arrays of the wrong shapes or a row id outside
    0..m-1."""
    terms = expo.shape[:1]
    if expo.ndim != 2 or coef.shape != terms or row.shape != terms:
        raise ValueError(
            f"term arrays have shapes {expo.shape}, {coef.shape} and {row.shape}, "
            "expected (terms, variables), (terms,) and (terms,)"
        )
    if expo.shape[1] < 1:
        raise ValueError("a polynomial needs at least one variable")
    bad = (expo < 0).any(axis=1) | (expo > MAX_EXPONENT).any(axis=1) | ~np.isfinite(coef)
    if bad.any():
        t = np.flatnonzero(bad)[0]
        Poly(expo.shape[1], {tuple(expo[t].tolist()): coef[t]})
    outside = (row < 0) | (row >= m)
    if outside.any():
        t = np.flatnonzero(outside)[0]
        raise ValueError(f"term {t} has row {row[t]}, expected 0..{m - 1}")


def _check_direction(v, num_vars: int) -> np.ndarray:
    """``v`` as a complex vector of ``num_vars`` finite entries."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.shape != (num_vars,):
        raise ValueError("direction length does not match the number of variables")
    return _check_finite(v, "direction entry")


def _check_point(x, num_vars: int) -> np.ndarray:
    """``x`` as a complex vector of ``num_vars`` finite coordinates."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    if x.shape != (num_vars,):
        raise ValueError(f"point has {x.shape[0]} coordinates, expected {num_vars}")
    return _check_finite(x, "point coordinate")


def _check_start_value(fx: np.ndarray) -> np.ndarray:
    """``fx``, the value of f at a checked start point, or a ValueError if it
    is not finite: with finite coefficients, the evaluation overflowed."""
    if not _all_finite(fx):
        raise ValueError("f overflows at the start point: its value there is not finite")
    return fx


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite.  A NaN or inf entry makes the
    sum of |a_i|^2 non-finite, and that one BLAS pass costs less than an
    elementwise scan, which is made only when the sum is not finite (as it
    is also when it overflows)."""
    return cmath.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm`` of a complex vector, with its bits, without its
    dispatch, which costs more than the sums on a small system."""
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _check_finite(a: np.ndarray, what: str) -> np.ndarray:
    """``a``, or a ValueError naming its first non-finite entry, counted
    from 1: "point coordinate 2 is not finite: (nan+0j)", or "V1 entry
    (2, 1) ..." for a matrix."""
    if not _all_finite(a):
        bad = np.argwhere(~np.isfinite(a))[0]
        at = bad[0] + 1 if len(bad) == 1 else tuple(int(i) + 1 for i in bad)
        raise ValueError(f"{what} {at} is not finite: {a[tuple(bad)]}")
    return a


class _FactorIndex(NamedTuple):
    """The nonzero factors x_j^e of a set of terms, compiled for evaluation.

    A call builds the power table x_j^e once, for the (variable, exponent)
    pairs ``table_var``, ``table_exp``, and the monomials in a work array
    of one entry per term.  The terms are placed there by falling factor
    count, so that those with an s-th factor take one slice: ``slots[s]``
    is that slice and the table positions of their s-th factors, and
    ``rank[t]`` is the place of term t.  ``linear`` says that every table
    exponent is 1, so that the table is x_j itself.
    """

    table_var: np.ndarray
    table_exp: np.ndarray
    linear: bool
    rank: np.ndarray
    slots: tuple[tuple[slice, np.ndarray], ...]


def _factors(expo: np.ndarray):
    """(term, variable, exponent) of each nonzero entry of ``expo``, by term
    and, within a term, by ascending variable; int32 indices."""
    term, var = np.nonzero(expo)
    return term.astype(np.int32), var.astype(np.int32), expo[term, var]


def _factor_index(term, var, exp, num_terms: int, num_vars: int) -> _FactorIndex:
    """The index of ``num_terms`` terms whose factors are listed as by
    ``_factors``."""
    top = np.zeros(num_vars, dtype=np.int32)
    np.maximum.at(top, var, exp)
    start = np.cumsum(top, dtype=np.int32) - top  # table position of x_j^1
    table_var = np.repeat(np.arange(num_vars, dtype=np.int32), top)
    table_exp = np.arange(1, len(table_var) + 1) - np.repeat(start, top)
    pos = start[var] + (exp - 1)
    count = np.bincount(term, minlength=num_terms)
    offset = np.cumsum(count) - count  # each term's first factor
    order = np.argsort(-count, kind="stable")
    rank = np.empty(num_terms, dtype=np.int32)
    rank[order] = np.arange(num_terms)
    slots = []
    for s in range(int(count.max(initial=0))):
        part = slice(0, int(np.count_nonzero(count > s)))
        slots.append((part, pos[offset[order[part]] + s]))
    linear = bool((table_exp == 1).all())
    return _FactorIndex(table_var, table_exp, linear, rank, tuple(slots))


def _monomials(index: _FactorIndex, x: np.ndarray) -> np.ndarray:
    """Value of each term's monomial at ``x``.  A term multiplies its factors
    in ascending variable order, the first taken as it is (for finite x it
    has the bits of 1 times it, and x_j^1 those of x_j); a term without
    factors is 1."""
    table = x[index.table_var] if index.linear else x[index.table_var] ** index.table_exp
    out = np.empty(len(index.rank), dtype=complex)
    out.fill(1)  # kept by the terms without factors
    for s, (part, pos) in enumerate(index.slots):
        # A new array with the running product as first operand: numpy rounds
        # an in-place product of one element without the fused multiply-add
        # it uses otherwise, and ``a * temporary`` of a large temporary as
        # ``temporary * a``, which rounds differently.
        out[part] = table[pos] if s == 0 else np.multiply(out[part], table[pos])
    return out[index.rank]


def _differentiate(factors, coef: np.ndarray):
    """The terms (factor lists, coefficients) differentiated along every
    x_k: (factor lists, coefficients, source term, k of each term), by k,
    then by source term.  Each factor x_k^e of a term yields one term, with
    the coefficient times e and that factor lowered to x_k^(e-1); the other
    factors keep their order, so the lists stay as ``_factors`` gives them."""
    term, var, exp = factors
    count = np.bincount(term, minlength=len(coef))
    # one new term per factor, in (k, source term) order
    pick = np.argsort(var, kind="stable").astype(np.int32)
    source = term[pick]
    # its factors: those of its source term, the picked one lowered
    reps = count[source]
    starts = np.cumsum(count) - count
    offset = (starts[source] - np.cumsum(reps) + reps).astype(np.int32)
    factor = np.repeat(offset, reps) + np.arange(reps.sum(), dtype=np.int32)
    lowered = exp[factor] - (factor == np.repeat(pick, reps))
    keep = lowered > 0
    owner = np.repeat(np.arange(len(pick), dtype=np.int32), reps)[keep]
    coef = coef[source] * exp[pick]
    if not _all_finite(coef):
        raise ValueError("a coefficient of a derivative overflows")
    return (owner, var[factor][keep], lowered[keep]), coef, source, var[pick]


def _pair_ids(row: np.ndarray) -> np.ndarray:
    """The ids 2r and 2r + 1 of each row id r, in turn."""
    return (2 * row[:, None] + np.arange(2)).reshape(-1)


def _pair_sums(vals: np.ndarray, pairs: np.ndarray, m: int) -> np.ndarray:
    """The ``m`` row sums of ``vals`` from one bincount over their real and
    imaginary parts, with ``pairs`` from ``_pair_ids`` of the row ids: each
    bin adds its parts in input order, starting from +0, so a finite sum has
    the bits of two bincounts over the row ids, one per part."""
    return np.bincount(pairs, weights=vals.view(float), minlength=2 * m).view(complex)


def _default_names(n: int, names: Sequence[str] | None) -> Sequence[str]:
    if names is None:
        return [f"x{i + 1}" for i in range(n)]
    if len(names) != n:
        raise ValueError(f"{len(names)} names for {n} variables")
    return names


def _format_float(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _format_terms(factors, coefs, names: Sequence[str]) -> str:
    """The text of a polynomial whose terms, in print order, have the
    coefficients ``coefs`` and the (variable, exponent) pairs ``factors`` of
    their nonzero exponents; "0" without terms."""
    parts: list[str] = []
    for term, c in zip(factors, coefs):
        mono = "*".join(names[j] if e == 1 else f"{names[j]}^{e}" for j, e in term)
        coeff, negate = _format_coeff(c, bool(mono))
        body = f"{coeff}*{mono}" if coeff and mono else (coeff or mono)
        sign = "-" if negate else "+"
        parts.append(f" {sign} {body}" if parts else f"-{body}" if negate else body)
    return "".join(parts) or "0"


def _format_coeff(c: complex, has_monomial: bool) -> tuple[str, bool]:
    """Render a coefficient; returns (text, negate) with the sign pulled out.

    Empty text means the coefficient 1 of a monomial, which is not printed.
    """
    if c.imag == 0:
        v = c.real
        negate = v < 0
        v = abs(v)
        if v == 1 and has_monomial:
            return "", negate
        return _format_float(v), negate
    if c.real == 0:
        v = c.imag
        negate = v < 0
        v = abs(v)
        return ("i" if v == 1 else f"{_format_float(v)}i"), negate
    sign = "-" if c.imag < 0 else "+"
    return f"({_format_float(c.real)}{sign}{_format_float(abs(c.imag))}i)", False


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class PolyParseError(ValueError):
    """Syntax or name error in the text polynomial format."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>[-+*^()])
    )""",
    re.VERBOSE,
)


def _tokenize(line: str, lineno: int):
    tokens = []
    pos = 0
    while pos < len(line):
        m = _TOKEN_RE.match(line, pos)
        if m is None or m.end() == pos:
            rest = line[pos:].lstrip()
            if not rest:
                break
            raise PolyParseError(f"unexpected character {rest[0]!r}", lineno, len(line) - len(rest) + 1)
        col = m.start(m.lastgroup) + 1
        tokens.append((m.lastgroup, m.group(m.lastgroup), col))
        pos = m.end()
    return tokens


class _LineParser:
    """Recursive-descent parser for one polynomial line.

    Grammar (terms joined by +/-, factors joined by *):
        term    := factor ('*' factor)*
        factor  := number ['i'] | 'i' | '(' complex ')' | variable ['^' int]
        complex := [sign] part [sign part]   with part := number ['i'] | 'i'
    """

    def __init__(self, line: str, lineno: int, names: Sequence[str]):
        self.tokens = _tokenize(line, lineno)
        self.lineno = lineno
        self.names = {name: i for i, name in enumerate(names)}
        self.n = len(names)
        self.pos = 0
        # end-of-line errors point past the last token
        self.end = self.tokens[-1][2] + len(self.tokens[-1][1]) if self.tokens else 1

    def error(self, message: str, col: int):
        raise PolyParseError(message, self.lineno, col)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, self.end)

    def take(self):
        if self.pos >= len(self.tokens):
            self.error("unexpected end of line", self.end)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Poly:
        terms: dict[Exponent, complex] = {}
        first = True
        while True:
            kind, val, col = self.peek()
            if kind is None:
                if first:
                    self.error("empty polynomial", col)
                break
            sign = 1.0
            if kind == "op" and val in "+-":
                sign = -1.0 if val == "-" else 1.0
                self.take()
            elif not first:
                self.error(f"expected '+' or '-' before {val!r}", col)
            coeff, alpha = self.parse_term()
            coeff *= sign
            alpha = tuple(alpha)
            terms[alpha] = terms.get(alpha, 0.0) + coeff
            if not cmath.isfinite(terms[alpha]):
                self.error("coefficient is not finite", col)
            if max(alpha, default=0) > MAX_EXPONENT:
                self.error(f"exponent exceeds {MAX_EXPONENT}", col)
            first = False
        return Poly(self.n, terms)

    def parse_term(self):
        coeff, alpha = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                c2, a2 = self.parse_factor()
                coeff *= c2
                alpha = [x + y for x, y in zip(alpha, a2)]
            else:
                return coeff, alpha

    def parse_factor(self):
        kind, val, col = self.peek()
        if kind is None:
            self.error("expected a coefficient or variable", col)
        alpha = [0] * self.n
        if kind == "number":
            self.take()
            coeff = self.maybe_imag(float(val))
            return coeff, alpha
        if kind == "name" and val == "i":
            self.take()
            return 1j, alpha
        if kind == "name":
            self.take()
            if val not in self.names:
                self.error(f"unknown variable {val!r}", col)
            exp = 1
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "^":
                self.take()
                k3, v3, c3 = self.take()
                if k3 != "number" or not v3.isdigit():
                    self.error("exponent must be a nonnegative integer", c3)
                exp = int(v3)
            alpha[self.names[val]] = exp
            return 1.0 + 0j, alpha
        if kind == "op" and val == "(":
            self.take()
            coeff = self.parse_complex()
            self.take()  # parse_complex returns at the ')'
            return coeff, alpha
        self.error(f"unexpected token {val!r}", col)

    def maybe_imag(self, value: float) -> complex:
        kind, val, _ = self.peek()
        if kind == "name" and val == "i":
            self.take()
            return value * 1j
        return complex(value)

    def parse_complex(self) -> complex:
        total = 0j
        first = True
        while True:
            kind, val, col = self.peek()
            if kind == "op" and val == ")":
                if first:
                    self.error("empty parentheses", col)
                return total
            sign = 1.0
            if kind == "op" and val in "+-":
                sign = -1.0 if val == "-" else 1.0
                self.take()
                kind, val, col = self.peek()
            elif not first:
                self.error("expected '+', '-' or ')'", col)
            if kind == "number":
                self.take()
                total += sign * self.maybe_imag(float(val))
            elif kind == "name" and val == "i":
                self.take()
                total += sign * 1j
            else:
                self.error("expected a number inside parentheses", col)
            first = False


# The line boundaries of ``str.splitlines``.
_LINE_BREAK = re.compile(r"[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")


def parse_poly(text: str, variable_names: Sequence[str], lineno: int = 1) -> Poly:
    """Parse one polynomial from its text form, which holds no line break."""
    if "i" in variable_names:
        raise ValueError("'i' is reserved for the imaginary unit")
    if len(set(variable_names)) != len(variable_names):
        twice = next(v for k, v in enumerate(variable_names) if v in variable_names[:k])
        raise ValueError(f"variable name {twice!r} is given twice")
    brk = _LINE_BREAK.search(text)
    if brk:
        raise PolyParseError("line break inside a polynomial", lineno, brk.start() + 1)
    return _LineParser(text, lineno, variable_names).parse()


def parse_system(text: str, variable_names: Sequence[str]) -> PolySystem:
    """Parse a system, one polynomial per line; blank lines are skipped."""
    polys = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            polys.append(parse_poly(line, variable_names, lineno))
    if not polys:
        raise PolyParseError("no polynomials found", 1, 1)
    return PolySystem(polys)


def load_system_json(path) -> tuple[PolySystem, list[str]]:
    """Load ``{"vars": [...], "polys": ["...", ...]}`` from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return _system_from_json(json.load(fh), path)


def _system_from_json(data, source) -> tuple[PolySystem, list[str]]:
    """The system and variable names of the decoded JSON object ``data``,
    read from ``source``: the "vars" and "polys" lists of strings, polynomial
    k parsed as line k."""
    fields = [data.get(key) if isinstance(data, dict) else None for key in ("vars", "polys")]
    if not all(isinstance(f, list) and all(isinstance(s, str) for s in f) for f in fields):
        raise ValueError(f"{source}: expected keys 'vars' and 'polys', each a list of strings")
    names, lines = fields
    return PolySystem(parse_poly(line, names, k) for k, line in enumerate(lines, 1)), names


# ---------------------------------------------------------------------------
# Calculus on systems
# ---------------------------------------------------------------------------


def dir_hessian(system: PolySystem, x: Sequence[complex], v: Sequence[complex]) -> np.ndarray:
    """Hessian tensor contracted with ``v``: the matrix with entries
    sum_k d^2 f_i / dx_j dx_k (x) * v_k, that is
    ``system.directional_derivative(x, [v])``: one pass over the cached
    second-derivative terms (those of each df_i/dx_j differentiated along
    every x_k), each weighted by its v_k; no tensor and no polynomial is
    built."""
    return system.directional_derivative(x, [v])


def normalized_partial(p: Poly, alpha: Sequence[int], xi: Sequence[complex]) -> complex:
    """Factorial-normalized partial derivative of ``p`` of multi-order
    ``alpha`` at ``xi`` (the Taylor coefficient of ``(X - xi)^alpha``)."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != p.num_vars:
        raise ValueError("multi-index length does not match the number of variables")
    xi = _check_point(xi, p.num_vars)
    total = 0j
    for beta in sorted(p.terms, key=grlex_key):
        if any(b < a for a, b in zip(alpha, beta)):
            continue
        c = p.terms[beta]
        for a, b, z in zip(alpha, beta, xi):
            c *= math.comb(b, a)
            if b > a:
                c *= z ** (b - a)
        total += c
    return total


def monomials_upto(num_vars: int, order: int) -> list[Exponent]:
    """All multi-indices with |alpha| <= order, in graded-lex order: by
    degree, and within one degree in ascending lex order of the exponents.
    The tuples are made from the ``_grlex`` rows on each call."""
    return list(map(tuple, _grlex(num_vars, order)[0].tolist())) if order >= 0 else []


def _pascal(top: int, width: int | None = None) -> np.ndarray:
    """pascal[a, b] = C(a, b) for a <= top and b <= width (default top)."""
    pascal = np.zeros((top + 1, (top if width is None else width) + 1), dtype=np.int64)
    pascal[:, 0] = 1
    for a in range(1, top + 1):
        pascal[a, 1:] = pascal[a - 1, :-1] + pascal[a - 1, 1:]
    return pascal


@functools.lru_cache(maxsize=64)
def _grlex_memo(num_vars: int) -> dict:  # the _grlex tables asked for so far, by order
    return {}


def _grlex(num_vars: int, order: int):
    """Read-only tables of ``monomials_upto(num_vars, order)``, built in a loop up from the
    highest order held: exponents (int64 rows), up[i, r] the row of alpha_r + e_i for the rows
    r of lower order, each row's last variable i with alpha_i > 0 (-1 for the zero row).
    alpha follows C(n + |alpha| - 1, n) monomials of lower degree and sum_j C(s_j + m_j, m_j)
    - C(s_(j+1) + m_j, m_j) of its own, s_j = alpha_j + ... + alpha_(n-1), m_j = n - 1 - j."""
    tables = _grlex_memo(num_vars)
    if order in tables:
        return tables[order]
    n, m = num_vars, np.arange(num_vars - 1, -1, -1)
    top = max((k for k in list(tables) if k <= order), default=-1)
    expo, up, last = np.zeros((1, n), dtype=np.int64), np.zeros((n, 0), dtype=np.int64), np.full(1, -1)
    expo, pascal = tables[top][0] if top > 0 else expo, _pascal(n + order, n)
    for k in range(max(top, 0) + 1, order + 1):
        low, expo = expo, np.zeros((math.comb(n + k, n), n), dtype=np.int64)
        s = np.cumsum(low[:, ::-1], axis=1)[:, ::-1]  # s[:, j] = alpha_j + ... + alpha_(n-1)
        s1, t1, s0, t0 = (pascal[x + m, m] for x in (s + 1, s - low + 1, s, s - low))
        before, at, after = s1 - t1, s1 - t0, s0 - t0  # the terms of x_j for j <, = and > i
        after = np.cumsum(after[:, ::-1], axis=1)[:, ::-1] - after
        up = (pascal[n + s[:, :1], n] + np.cumsum(before, axis=1) - before + at + after).T
        last = np.full(len(expo), -1)
        for i in range(n):  # the last i with alpha_i > 0 writes last[alpha]
            expo[up[i]], last[up[i]] = low + np.eye(1, n, i, dtype=np.int64), i
    expo.flags.writeable = up.flags.writeable = last.flags.writeable = False
    return tables.setdefault(order, (expo, up, last))


def taylor_coefficients(system: PolySystem, xi: Sequence[complex], order: int) -> np.ndarray:
    """Taylor coefficients at ``xi`` up to total order ``order``.

    Entry [i, r] is the coefficient of ``(X - xi)^alpha`` in ``f_i``, that
    is ``normalized_partial(f_i, alpha, xi)``, for the r-th alpha of
    ``monomials_upto(n, order)``: ``_taylor_shift`` at the checked point,
    then zero columns past deg f.
    """
    if order < 0:
        raise ValueError(f"order must be at least 0, got {order}")
    shift = _taylor_shift(system, system._check_point(xi), order)
    pad = math.comb(system.num_vars + order, order) - shift.shape[1]
    return np.hstack([shift, np.zeros((len(shift), pad), dtype=complex)]) if pad else shift


def _taylor_shift(system: PolySystem, xi: np.ndarray, order: int) -> np.ndarray:
    """The Taylor coefficients at the checked point ``xi`` up to total order
    min(``order``, deg f), without the zero columns past deg f.  One pass
    over the system's cached ``_shift_plan``: each term ``c X^beta`` expands
    into the alpha <= beta with |alpha| <= order, weighted by
    ``c prod_j C(beta_j, alpha_j) xi_j^(beta_j - alpha_j)`` from the last
    variable."""
    (expo, coef, row, m), k = system._arrays, min(order, system.degree())
    plan = system._cache.get(("shift", k))
    if plan is None:  # compiled once per system and order
        plan = system._cache[("shift", k)] = _shift_plan(expo, row, k)
    owner, exponents, binomials, term, factors, pairs, size = plan
    powers, vals = xi[owner] ** exponents, coef.take(term)
    tables = (binomials, powers)[2 - factors.shape[1] :] * len(factors)  # per place, C(b, a) if any
    for pos, table in zip(factors.reshape(len(tables), -1), tables):
        vals = np.multiply(vals, table.take(pos))
    return _pair_sums(vals, pairs, m * size).reshape(m, size)


def _shift_plan(expo: np.ndarray, row: np.ndarray, order: int) -> tuple:
    """The Taylor shift of order ``order`` of the terms ``expo``, ``row``, all of
    it but the point, in read-only arrays.  Item t, one (term, alpha), is the
    coefficient of ``term[t]`` times, for each place of ``factors`` in turn,
    ``binomials[pos[t]]`` and ``powers[pos'[t]]`` for its rows ``pos``, ``pos'``
    (the second only when the plan has no binomials), in the bins ``pairs`` of
    row * ``size`` + the rank of alpha.  ``powers`` holds xi_j^e, e <= h_j (the
    largest exponent of x_j), at base_j + e (``owner`` j, ``exponents`` e), and
    ``binomials`` C(b, a) at b * (order + 1) + order - a, complex so that no
    shift casts or copies them.

    Each place, a nonzero exponent beta_p of the term from the last variable
    or padding, gives C(beta_p, alpha_p) (if any exponent is above 1), then
    x^(beta_p - alpha_p); 1 and x^0 multiply exactly.  Items of degree d + 1
    raise those of degree d at their last raised place or after, so each
    degree is in term order; raising x_j in an alpha of degree d with all
    units at x_j and after adds C(n + d - 1, n - 1) + C(d + n - 1 - j, d + 1)."""
    n, size = expo.shape[1], math.comb(expo.shape[1] + order, order)
    tops = expo.max(axis=0, initial=0).astype(np.int64) + 1  # h_j + 1 powers of x_j
    h, base, owner = int(tops.max(initial=1)) - 1, np.cumsum(tops) - tops, np.repeat(np.arange(n), tops)
    (t, j), count = np.nonzero(expo[:, ::-1]), np.count_nonzero(expo, axis=1)
    beta, var = np.zeros((2, count.max(initial=1), len(row)), dtype=np.int64)
    place, j = np.arange(len(t)) - (count.cumsum() - count)[t], n - 1 - j
    beta[place, t], var[place, t] = expo[t, j], j
    term, room, rank, last = np.arange(len(row)), beta.astype(np.int16), row * size, np.zeros_like(row)
    items, places = [(term, room, rank)], np.arange(len(beta))[:, None]
    for d in range(order):  # room = beta - alpha; step[j] raises x_j
        step = np.array([math.comb(n + d - 1, n - 1) + math.comb(d + k, d + 1) for k in range(n)])[::-1]
        last, src = np.nonzero(((room > 0) & (places >= last)).T)[::-1]
        term, room, rank = term[src], room[:, src] - (places == last), rank[src] + step[var[last, term[src]]]
        items.append((term, room, rank))
    term, room, rank = items = [np.concatenate(a, axis=-1) for a in zip(*items)]  # the parts freed
    cols = np.stack([order + beta * order, base[var]][order == 0 or h < 2 :], axis=1)
    factors = cols.astype(np.int32).take(term, axis=2)  # by place, factor, item
    factors += room[:, None]  # C(beta, beta - room), then xi^room
    binomials = (math.comb(b, a) for b in range(h + 1) for a in range(order, -1, -1))
    binomials = np.array([float(c) if c < _FLOAT_END else math.inf for c in binomials], dtype=complex)
    plan = (owner, np.arange(len(owner)) - base[owner], binomials, term.astype(np.int32), factors,
            _pair_ids(rank))
    for a in plan:
        a.flags.writeable = False
    return (*plan, size)


def compose_affine(system: PolySystem, a: np.ndarray, b: Sequence[complex]) -> PolySystem:
    """The system ``X -> f(A (X - b))``, expanded to canonical sparse form.

    If 0 is a zero of ``f`` then ``b`` is a zero of the result, with the same
    local structure whenever ``A`` is invertible.  A term c X^beta becomes c
    times the linear forms l_j = a_j . X - (a b)_j of its factors, in
    ascending variable order.  The product grows by one form at a time, over
    the graded-lex monomials of its degree, with each coefficient product
    rounded as Python rounds a complex product; each row then adds its terms
    in term order.  No ``Poly`` is built.
    """
    n, (expo, coef, row, m) = system.num_vars, system._arrays
    a = np.asarray(a, dtype=complex)
    if a.shape != (n, n):
        raise ValueError(f"matrix has shape {a.shape}, expected ({n}, {n})")
    b = np.asarray(b, dtype=complex).reshape(-1)
    if b.shape != (n,):
        raise ValueError("offset length does not match the number of variables")
    _check_finite(a, "matrix entry")
    _check_finite(b, "offset entry")
    deg, top = expo.sum(axis=1, dtype=np.int64), np.zeros(m, dtype=np.int64)
    np.maximum.at(top, row, deg)  # each row's degree
    size = [math.comb(n + d, n) for d in range(int(top.max(initial=0)) + 1)]  # monomials of degree <= d
    width = np.array(size)[top]
    start = np.cumsum(width) - width  # each row's first coefficient
    order = np.argsort(-deg, kind="stable")  # the terms that have an s-th form lead
    stop = np.cumsum(expo[order], axis=1, dtype=np.int64)  # the s-th form is l_j, j the first with stop > s
    vals, done, parts = coef[order][:, None], len(order), []
    with np.errstate(over="ignore", invalid="ignore"):
        forms = np.column_stack([a, 0.0 - a @ b])  # the coefficients of x_1, ..., x_n, 1
        for s in range(len(size)):
            live = np.count_nonzero(deg > s)  # the terms of degree s are complete
            parts.append((start[row[order[live:done]], None] + np.arange(size[s]), vals[live:]))
            if not live:
                break
            form = forms[np.count_nonzero(stop[:live] <= s, axis=1), :, None]
            vals, done = vals[:live, None], live
            prod = np.empty((live, n + 1, size[s]), dtype=complex)
            prod.real = vals.real * form.real - vals.imag * form.imag
            prod.imag = vals.real * form.imag + vals.imag * form.real
            to = np.vstack([_grlex(n, s + 1)[1], np.arange(size[s])])  # alpha + e_j, then alpha
            to = (np.arange(live)[:, None, None] * size[s + 1] + to).reshape(-1)
            vals = _pair_sums(prod.reshape(-1), _pair_ids(to), live * size[s + 1]).reshape(live, -1)
    at, vals = (np.concatenate([p.reshape(-1) for p in part]) for part in zip(*parts))
    sums = _pair_sums(vals, _pair_ids(at), width.sum())
    if not _all_finite(sums):
        raise ValueError("a coefficient of the composition overflows")
    out = np.repeat(np.arange(m), width)
    expo = _grlex(n, len(size) - 1)[0].astype(np.int16)[np.arange(len(out)) - start[out]]
    return system_from_terms(expo, sums, out, m)
