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
import itertools
import json
import math
import re
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

Exponent = tuple[int, ...]

# The term arrays store exponents as int16.
MAX_EXPONENT = int(np.iinfo(np.int16).max)

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

    __slots__ = ("num_vars", "terms", "_cache")

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
        object.__setattr__(self, "_cache", None)

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

    def degree(self) -> int:
        """Total degree; the zero polynomial reports 0."""
        return max((sum(a) for a in self.terms), default=0)

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

    def _arrays(self):
        cache = self._cache
        if cache is None:
            order = sorted(self.terms, key=grlex_key)
            expo = np.array(order, dtype=np.int16).reshape(len(order), self.num_vars)
            coef = np.array([self.terms[a] for a in order], dtype=complex)
            cache = (expo, coef)
            object.__setattr__(self, "_cache", cache)
        return cache

    def eval(self, x: Sequence[complex]) -> complex:
        """Value at ``x``; terms are summed in graded-lex order."""
        x = _check_point(x, self.num_vars)
        if not self.terms:
            return 0.0 + 0.0j
        expo, coef = self._arrays()
        vals = coef * _monomials(_factor_index(*_factors(expo), *expo.shape), x)
        return complex(np.sum(vals))

    # -- formatting --------------------------------------------------------

    def to_string(self, variable_names: Sequence[str] | None = None) -> str:
        names = _default_names(self.num_vars, variable_names)
        if not self.terms:
            return "0"
        parts: list[str] = []
        for alpha in sorted(self.terms, key=grlex_key, reverse=True):
            c = self.terms[alpha]
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, alpha)
                if e > 0
            )
            coeff, negate = _format_coeff(c, bool(mono))
            sign = "-" if negate else "+"
            body = f"{coeff}*{mono}" if coeff and mono else (coeff or mono)
            if parts:
                parts.append(f" {sign} {body}")
            else:
                parts.append(f"-{body}" if negate else body)
        return "".join(parts)

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
        order here (np.lexsort sorts by its last key first)."""
        order = np.lexsort((*expo.T[::-1], expo.sum(axis=1), row))
        order = order[coef[order] != 0]
        expo, row = expo[order].astype(np.int16, copy=False), row[order].astype(np.int64)
        arrays = (expo, coef[order], row, m)
        for name, value in zip(self.__slots__, (expo.shape[1], arrays, polys, {})):
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
        return int(self._arrays[0].sum(axis=1).max(initial=0))

    def is_square(self) -> bool:
        return len(self) == self.num_vars

    def _terms(self, name: str):
        """The "eval", "jac" or "hess" terms: (factor lists, coefficients,
        row ids, row count, k of each term; None for "eval").  "jac" is
        "eval" differentiated along every x_k, with row i*num_vars + k for
        df_i/dx_k; "hess" is "jac" differentiated along every x_k, with the
        rows of "jac"."""
        key = name + " terms"
        cached = self._cache.get(key)
        if cached is None:
            if name == "eval":
                expo, coef, row, m = self._arrays
                cached = (_factors(expo), coef, row, m, None)
            else:
                factors, coef, row, m, _ = self._terms("eval" if name == "jac" else "jac")
                factors, coef, row, k = _differentiate(factors, coef, row)
                if name == "jac":
                    row, m = row * self.num_vars + k, m * self.num_vars
                cached = (factors, coef, row, m, k)
            self._cache[key] = cached
        return cached

    def _index(self, name: str) -> _FactorIndex:
        """The factor index of the ``_terms(name)``."""
        key = name + " index"
        index = self._cache.get(key)
        if index is None:
            factors, coef = self._terms(name)[:2]
            index = self._cache[key] = _factor_index(*factors, len(coef), self.num_vars)
        return index

    def _values(self, name: str, x: np.ndarray) -> np.ndarray:
        """The row sums of the ``_terms(name)`` at a checked point."""
        _, coef, row, m, _ = self._terms(name)
        return _segment_sums(coef * _monomials(self._index(name), x), row, m)

    def eval(self, x: Sequence[complex]) -> np.ndarray:
        """Vector of values ``[f_1(x), ..., f_m(x)]``."""
        return self._values("eval", self._check_point(x))

    def _eval_once(self, x: np.ndarray) -> np.ndarray:
        """``eval(x)`` for a checked point, reusing the value of the point last
        evaluated here: an iteration needs f at an iterate more than once.
        The array is shared between callers, so it is read-only."""
        key = x.tobytes()
        last = self._cache.get("last f")
        if last is None or last[0] != key:
            fx = self.eval(x)
            fx.flags.writeable = False
            last = self._cache["last f"] = (key, fx)
        return last[1]

    def jacobian(self, x: Sequence[complex]) -> np.ndarray:
        """Jacobian matrix at ``x``, shape (len(self), num_vars)."""
        return self._values("jac", self._check_point(x)).reshape(len(self), self.num_vars)

    def directional_derivative(self, x: Sequence[complex], dirs) -> np.ndarray:
        """Jacobian at ``x`` of D^k f(x)[v_1, ..., v_k] for the k directions
        ``dirs``: ``jacobian`` for k = 0 and ``dir_hessian`` for k = 1.  For
        k >= 2 the "hess" terms are weighted by v_1, then differentiated
        along every x_k and weighted by each further direction, anew on
        every call."""
        dirs = [_check_direction(v, self.num_vars) for v in dirs]
        if len(dirs) < 2:
            return dir_hessian(self, x, dirs[0]) if dirs else self.jacobian(x)
        x = self._check_point(x)
        factors, coef, row, m, k = self._terms("hess")
        for i, v in enumerate(dirs):
            if i:
                factors, coef, row, k = _differentiate(factors, coef, row)
            factors, coef, row = _weigh(factors, coef, row, v[k])
        vals = coef * _monomials(_factor_index(*factors, len(coef), self.num_vars), x)
        return _segment_sums(vals, row, m).reshape(len(self), self.num_vars)

    def _check_point(self, x) -> np.ndarray:
        return _check_point(x, self.num_vars)

    def to_string(self, variable_names: Sequence[str] | None = None) -> str:
        return "\n".join(p.to_string(variable_names) for p in self.polys)

    def __repr__(self):
        return f"PolySystem({len(self)} polys in {self.num_vars} vars)"


def system_from_terms(expo: np.ndarray, coef: np.ndarray, row: np.ndarray, m: int) -> PolySystem:
    """The system of ``m`` polynomials with term ``coef[t] * X^expo[t]`` in
    polynomial ``row[t]``.  No (row, exponent) pair may repeat; rows without
    terms are zero polynomials.  The arrays are checked once, with numpy,
    and become the system's term arrays; no ``Poly`` is built."""
    if m < 1:
        raise ValueError("a system needs at least one polynomial")
    expo, coef, row = np.asarray(expo), np.asarray(coef, dtype=complex), np.asarray(row)
    _check_terms(expo, coef, row, m)
    system = object.__new__(PolySystem)
    system._store(expo, coef, row, m, None)
    return system


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
    if not np.isfinite(fx).all():
        raise ValueError("f overflows at the start point: its value there is not finite")
    return fx


def _check_finite(a: np.ndarray, what: str) -> np.ndarray:
    """``a``, or a ValueError naming its first non-finite entry, counted
    from 1: "point coordinate 2 is not finite: (nan+0j)", or "V1 entry
    (2, 1) ..." for a matrix."""
    finite = np.isfinite(a)
    if not finite.all():
        bad = np.argwhere(~finite)[0]
        at = bad[0] + 1 if len(bad) == 1 else tuple(int(i) + 1 for i in bad)
        raise ValueError(f"{what} {at} is not finite: {a[tuple(bad)]}")
    return a


class _FactorIndex(NamedTuple):
    """The nonzero factors x_j^e of a set of terms, compiled for evaluation.

    A call builds the power table x_j^e once, for the (variable, exponent)
    pairs ``table_var``, ``table_exp``.  Taken in order of falling factor
    count, the terms that have an s-th factor form a prefix, and
    ``slots[s]`` holds the table positions of those factors; ``rank[t]`` is
    the place of term t in that order.
    """

    table_var: np.ndarray
    table_exp: np.ndarray
    rank: np.ndarray
    slots: tuple[np.ndarray, ...]


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
    first = np.cumsum(count) - count  # each term's first factor
    order = np.argsort(-count, kind="stable")
    rank = np.empty(num_terms, dtype=np.int32)
    rank[order] = np.arange(num_terms)
    slots = tuple(
        pos[first[order[: np.count_nonzero(count > s)]] + s]
        for s in range(int(count.max(initial=0)))
    )
    return _FactorIndex(table_var, table_exp, rank, slots)


def _monomials(index: _FactorIndex, x: np.ndarray) -> np.ndarray:
    """Value of each term's monomial at ``x``.  A term multiplies its factors
    in ascending variable order, starting from 1."""
    table = x[index.table_var] ** index.table_exp
    out = np.ones(len(index.rank), dtype=complex)
    for pos in index.slots:
        # A new array with the running product as first operand: numpy rounds
        # an in-place product of one element without the fused multiply-add
        # it uses otherwise, and ``a * temporary`` of a large temporary as
        # ``temporary * a``, which rounds differently.
        out[: len(pos)] = np.multiply(out[: len(pos)], table[pos])
    return out[index.rank]


def _differentiate(factors, coef: np.ndarray, row: np.ndarray):
    """The terms (factor lists, coefficients, row ids) differentiated along
    every x_k: (factor lists, coefficients, row ids, k of each term), by k,
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
    if not np.isfinite(coef).all():
        raise ValueError("a coefficient of a derivative overflows")
    return (owner, var[factor][keep], lowered[keep]), coef, row[source], var[pick]


def _weigh(factors, coef: np.ndarray, row: np.ndarray, weight: np.ndarray):
    """The terms with their coefficients times ``weight``, those of weight 0
    dropped and the factor lists renumbered."""
    keep = weight != 0
    term, var, exp = factors
    kept = keep[term]
    number = np.cumsum(keep, dtype=np.int32) - 1
    return (number[term[kept]], var[kept], exp[kept]), (coef * weight)[keep], row[keep]


def _segment_sums(vals: np.ndarray, row: np.ndarray, m: int) -> np.ndarray:
    re = np.bincount(row, weights=vals.real, minlength=m)
    im = np.bincount(row, weights=vals.imag, minlength=m)
    return re + 1j * im


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
            raise PolyParseError(f"unexpected character {rest[0]!r}", lineno, pos + 1)
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

    def error(self, message: str, col: int | None = None):
        if col is None:
            col = self.tokens[self.pos - 1][2] if self.tokens else 1
        raise PolyParseError(message, self.lineno, col)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, None)

    def take(self):
        if self.pos >= len(self.tokens):
            last_col = self.tokens[-1][2] if self.tokens else 1
            self.error("unexpected end of line", col=last_col)
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
                    self.error("empty polynomial", col=1)
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
            self.error("expected a coefficient or variable", col=1)
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
            k2, v2, c2 = self.take()
            if k2 != "op" or v2 != ")":
                self.error("expected ')'", c2)
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
    sum_k d^2 f_i / dx_j dx_k (x) * v_k.

    Evaluated from the cached second-derivative terms (the terms of each
    df_i/dx_j differentiated along every x_k): the terms of each x_k with
    v_k != 0 are weighted by v_k and summed in one pass; no tensor and no
    polynomial is built.
    """
    x = system._check_point(x)
    v = _check_direction(v, system.num_vars)
    _, coef, row, m, var = system._terms("hess")
    weight = v[var]
    vals = coef * weight * _monomials(system._index("hess"), x)
    if not weight.all():
        keep = weight != 0
        vals, row = vals[keep], row[keep]
    return _segment_sums(vals, row, m).reshape(len(system), system.num_vars)


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
    """All multi-indices with |alpha| <= order, in graded-lex order.

    Within one degree, reversed ``combinations_with_replacement`` order is
    ascending lex order of the exponent counts.
    """
    out: list[Exponent] = []
    for deg in range(order + 1):
        block = []
        for combo in itertools.combinations_with_replacement(range(num_vars), deg):
            alpha = [0] * num_vars
            for i in combo:
                alpha[i] += 1
            block.append(tuple(alpha))
        out.extend(reversed(block))
    return out


def taylor_coefficients(system: PolySystem, xi: Sequence[complex], order: int) -> np.ndarray:
    """Taylor coefficients at ``xi`` up to total order ``order``.

    Entry [i, r] is the coefficient of ``(X - xi)^alpha`` in ``f_i``, that
    is ``normalized_partial(f_i, alpha, xi)``, for the r-th alpha of
    ``monomials_upto(n, order)``.  One shift per polynomial, all of them in
    one pass over the cached term arrays: each term ``c X^beta`` expands into
    the alpha <= beta with |alpha| <= order, with weight
    ``c prod_j C(beta_j, alpha_j) xi_j^(beta_j - alpha_j)``, one variable at a
    time from the last.  The graded-lex rank of alpha builds up along the
    way: alpha is preceded by C(n + |alpha| - 1, n) monomials of lower
    degree, and, within its degree, by
    sum_j C(s_j + m_j, m_j) - C(s_(j+1) + m_j, m_j), where s_j is the sum
    of alpha_j..alpha_(n-1) and m_j = n - 1 - j the number of variables
    after x_j.
    """
    xi = system._check_point(xi)
    n = system.num_vars
    expo, w, row, m = system._arrays
    top = max(n + order, int(expo.max(initial=0)))
    pascal = np.zeros((top + 1, top + 1), dtype=np.int64)  # pascal[a, b] = C(a, b)
    pascal[:, 0] = 1
    for a in range(1, top + 1):
        pascal[a, 1 : a + 1] = pascal[a - 1, :a] + pascal[a - 1, 1 : a + 1]
    size = int(pascal[n + order, n])
    term = np.arange(len(w))
    deg = np.zeros(len(w), dtype=np.int64)
    index = row * size  # row offset plus the rank of alpha so far
    for j in reversed(range(n)):
        col = expo[:, j]
        if not col.any():
            continue
        beta = col[term].astype(np.int64)
        reps = np.minimum(beta, order - deg) + 1
        a = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        beta = np.repeat(beta, reps)
        powers = xi[j] ** np.arange(int(col.max()) + 1)
        w = np.repeat(w, reps) * pascal[beta, a] * powers[beta - a]
        low = np.repeat(deg, reps)
        deg = low + a
        mj = n - 1 - j
        index = np.repeat(index, reps) + pascal[deg + mj, mj] - pascal[low + mj, mj]
        keep = w != 0
        term, w, deg, index = np.repeat(term, reps)[keep], w[keep], deg[keep], index[keep]
    index += pascal[n + deg - 1, n]
    return _segment_sums(w, index, m * size).reshape(m, size)


def compose_affine(system: PolySystem, a: np.ndarray, b: Sequence[complex]) -> PolySystem:
    """The system ``X -> f(A (X - b))``, expanded to canonical sparse form.

    If 0 is a zero of ``f`` then ``b`` is a zero of the result, with the same
    local structure whenever ``A`` is invertible.
    """
    n = system.num_vars
    a = np.asarray(a, dtype=complex)
    if a.shape != (n, n):
        raise ValueError(f"matrix has shape {a.shape}, expected ({n}, {n})")
    b = np.asarray(b, dtype=complex).reshape(-1)
    if b.shape != (n,):
        raise ValueError("offset length does not match the number of variables")

    # Row i of A applied to (X - b), as a linear polynomial.
    shift = a @ b
    linear = []
    for i in range(n):
        terms: dict[Exponent, complex] = {}
        for j in range(n):
            if a[i, j] != 0:
                e = [0] * n
                e[j] = 1
                terms[tuple(e)] = a[i, j]
        if shift[i] != 0:
            terms[(0,) * n] = terms.get((0,) * n, 0.0) - shift[i]
        linear.append(Poly(n, terms))

    # Substitute, caching powers of each linear form.
    powers: list[list[Poly]] = [[Poly.constant(n, 1.0), linear[i]] for i in range(n)]

    def power(i: int, k: int) -> Poly:
        while len(powers[i]) <= k:
            powers[i].append(powers[i][-1] * linear[i])
        return powers[i][k]

    out = []
    for p in system.polys:
        q = Poly.zero(n)
        for alpha, c in sorted(p.terms.items(), key=lambda kv: grlex_key(kv[0])):
            term = Poly.constant(n, c)
            for i, e in enumerate(alpha):
                if e:
                    term = term * power(i, e)
            q = q + term
        out.append(q)
    return PolySystem(out)
