"""Dense complex linear algebra: SVD rank splits, solves, kernels.

Thin contracts over numpy.linalg.  Everything the refinement and dual-space
code relies on numerically is pinned here: how a tolerance splits a spectrum,
when a solve refuses a near-singular matrix, and how kernel bases are
extracted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polycore import _check_finite

__all__ = [
    "SvdSplit",
    "SingularMatrixError",
    "split_svd",
    "auto_tolerance",
    "solve",
    "least_squares",
    "kernel_basis",
    "right_svd",
    "singular_values",
    "cond",
]


class SingularMatrixError(np.linalg.LinAlgError):
    """Matrix is singular to working precision."""


@dataclass(frozen=True)
class SvdSplit:
    """Tolerance-tau partition of a square matrix's SVD.

    Columns of U1/V1 pair with singular values above tau (sigma1), columns of
    U2/V2 with those at or below tau (sigma2).  ``kappa`` is the detected
    corank, i.e. the number of singular values <= tau.
    """

    u1: np.ndarray
    u2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    kappa: int
    tol: float

    @property
    def n(self) -> int:
        return self.u1.shape[0]

    @property
    def u(self) -> np.ndarray:
        return np.hstack([self.u1, self.u2])

    @property
    def v(self) -> np.ndarray:
        return np.hstack([self.v1, self.v2])

    @property
    def sigma(self) -> np.ndarray:
        return np.concatenate([self.sigma1, self.sigma2])


def split_svd(matrix: np.ndarray, tol: float | str) -> SvdSplit:
    """SVD of a square matrix partitioned at ``tol``.

    The corank is the count of singular values <= tol (all of them when the
    whole spectrum sits at or below tol, none when it sits above).  With
    ``tol="auto"`` the tolerance comes from the same SVD by the gap rule of
    ``auto_tolerance``; an all-zero spectrum has no gap and gets 1e-8, which
    makes the whole space kernel.  The tolerance used is ``split.tol``.
    """
    m = _matrix("split_svd", matrix, square=True)
    return _split(m, tol if tol == "auto" else _check_tolerance(tol))


def _split(m: np.ndarray, tol: float | str) -> SvdSplit:
    """``split_svd`` of a checked square matrix, at a checked tolerance."""
    n = m.shape[0]
    u, s, vh = np.linalg.svd(m)
    if tol == "auto":
        tol = _gap_tolerance(s) if s[0] > 0 else 1e-8
    v = vh.conj().T
    rank = int(np.count_nonzero(s > tol))
    kappa = n - rank
    return SvdSplit(
        u1=u[:, :rank],
        u2=u[:, rank:],
        v1=v[:, :rank],
        v2=v[:, rank:],
        sigma1=s[:rank],
        sigma2=s[rank:],
        kappa=kappa,
        tol=tol,
    )


def auto_tolerance(matrix: np.ndarray) -> float:
    """Rank tolerance from the largest relative gap in the spectrum.

    Returns the geometric mean of the two singular values flanking the
    largest ratio gap, considering only values above 1e-10 * sigma_1.  When
    no ratio exceeds 1e3 the spectrum has no usable gap and half the
    smallest singular value is returned, which makes the matrix look full
    rank to ``split_svd``.
    """
    s = np.linalg.svd(_matrix("auto_tolerance", matrix), compute_uv=False)
    if s[0] == 0:
        raise ValueError("auto tolerance is undefined for the zero matrix")
    return _gap_tolerance(s)


def _gap_tolerance(s: np.ndarray) -> float:
    """The gap rule of ``auto_tolerance`` on a descending spectrum, s[0] > 0."""
    floor = 1e-10 * s[0]
    best_i, best_ratio = None, 1e3
    for i in range(len(s) - 1):
        if s[i] < floor:
            break
        lo = max(s[i + 1], 1e-16 * s[0])
        ratio = s[i] / lo
        if ratio > best_ratio:
            best_i, best_ratio = i, ratio
    if best_i is None:
        return float(s[-1] / 2) if s[-1] > 0 else float(floor)
    return float(np.sqrt(s[best_i] * max(s[best_i + 1], 1e-16 * s[0])))


def _check_tolerance(tol) -> float:
    """``tol`` as a float, or a ValueError unless it is positive (NaN is not)."""
    tol = float(tol)
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    return tol


def _matrix(caller: str, matrix, square: bool = False) -> np.ndarray:
    """``matrix`` as a complex 2-D array with at least one entry, square when
    asked and finite, or a ValueError that names ``caller`` and the shape or
    the first non-finite entry."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.size == 0 or (square and m.shape[0] != m.shape[1]):
        kind = "a non-empty square matrix" if square else "a non-empty matrix"
        raise ValueError(f"{caller} needs {kind}, got shape {m.shape}")
    return _check_finite(m, f"{caller}: matrix entry")


def _check_conditioned(s: np.ndarray) -> None:
    """SingularMatrixError when the descending spectrum ``s`` is all zero or
    its smallest value lies below 1e-12 times its largest."""
    if s[0] == 0 or s[-1] < 1e-12 * s[0]:
        raise SingularMatrixError(
            f"matrix is singular to working precision (sigma_min={s[-1]:.3e}, "
            f"sigma_max={s[0]:.3e})"
        )


def solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a square linear system via SVD.

    Raises SingularMatrixError when the smallest singular value is below
    1e-12 times the largest (or the matrix is exactly zero).  This is the
    Newton step of the baseline that the two-step is measured against, and
    the tests' oracle for the two-step's own solves; ``two_step`` itself
    takes no SVD but the split's.
    """
    m = _matrix("solve", matrix, square=True)
    rhs = np.asarray(rhs, dtype=complex).reshape(-1)
    if rhs.shape[0] != m.shape[0]:
        raise ValueError("right-hand side length does not match the matrix")
    _check_finite(rhs, "solve: right-hand side entry")
    u, s, vh = np.linalg.svd(m)
    _check_conditioned(s)
    return vh.conj().T @ ((u.conj().T @ rhs) / s)


def _solve_conditioned(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """m^-1 rhs for a finite square m without an SVD: a division when m is
    1 x 1, else one ``np.linalg.inv``.  Raises SingularMatrixError when m is
    zero at 1 x 1, when ``inv`` fails, or when the exact 1-norm condition
    number ||m||_1 ||m^-1||_1 is 1e12 or more (or not a number)."""
    if len(m) == 1:
        if m[0, 0] == 0:
            raise SingularMatrixError("matrix is zero")
        return rhs / m[0, 0]
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    cond = abs(m).sum(axis=0).max() * abs(inv).sum(axis=0).max()
    if not cond < 1e12:
        raise SingularMatrixError(f"matrix has the 1-norm condition number {cond:.3e}")
    return inv @ rhs


# Columns from which ``least_squares`` tries one QR of a tall matrix before
# ``np.linalg.lstsq``: below it numpy's per-call overhead makes lstsq, an SVD,
# the faster one (crossover in BENCH_leastsq.json).
_QR_MIN_COLUMNS = 15


def least_squares(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of ``matrix @ y ~ rhs``.

    A tall matrix of at least ``_QR_MIN_COLUMNS`` columns is solved by one
    Householder QR of [matrix | rhs], which gives R and Q* rhs without
    forming Q, and the inverse of R, when R's exact 1-norm condition number
    is below 1e12: the rank is then full and the solution unique.  Every
    other matrix, and one that R shows rank-deficient or ill-conditioned,
    goes to ``np.linalg.lstsq`` (an SVD).
    """
    m = _matrix("least_squares", matrix)
    rhs = np.asarray(rhs, dtype=complex).reshape(-1)
    if rhs.shape[0] != m.shape[0]:
        raise ValueError("right-hand side length does not match the matrix")
    _check_finite(rhs, "least_squares: right-hand side entry")
    rows, cols = m.shape
    if rows > cols >= _QR_MIN_COLUMNS:
        r = np.linalg.qr(np.column_stack((m, rhs)), mode="r")
        try:
            return _solve_conditioned(r[:cols, :cols], r[:cols, cols])
        except SingularMatrixError:
            pass
    y, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    return y


def kernel_basis(matrix: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the right singular subspace for sigma <= tol.

    Returns an (n, d) matrix; d = 0 means full numerical rank.  Singular
    values missing from a wide/tall factorization count as zero, and a
    matrix of no rows has the whole space as its kernel.
    """
    tol = _check_tolerance(tol)
    if np.ndim(matrix) == 2 and np.shape(matrix)[0] == 0:
        return np.eye(np.shape(matrix)[1], dtype=complex)
    m = _matrix("kernel_basis", matrix)
    if not m.any():
        return np.eye(m.shape[1], dtype=complex)
    s, v = right_svd(m)
    return v[:, int(np.sum(s > tol)) :]


def right_svd(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values (descending) and right singular vectors (columns).

    The vector matrix is square: full when the matrix is wide, so that the
    columns past the numerical rank span the whole kernel in either shape.
    A tall matrix is reduced to the R factor of its QR first, which has the
    same singular values and right singular vectors and no tall U to form.
    """
    m = _matrix("right_svd", matrix)
    rows, cols = m.shape
    if rows > cols:
        m = np.linalg.qr(m, mode="r")
    _, s, vh = np.linalg.svd(m, full_matrices=rows < cols)
    return s, vh.conj().T


def singular_values(matrix: np.ndarray) -> np.ndarray:
    return np.linalg.svd(_matrix("singular_values", matrix), compute_uv=False)


def cond(matrix: np.ndarray) -> float:
    """Spectral condition number; inf when singular to machine precision."""
    s = np.linalg.svd(_matrix("cond", matrix), compute_uv=False)
    if s[-1] == 0:
        return float("inf")
    return float(s[0] / s[-1])
