"""Eigenvalues and the two spectral scalars: radius and abscissa.

The scalars drive everything else: the spectral radius governs the growth of
matrix powers, the spectral abscissa the growth of the matrix exponential, and
for Hermitian matrices the extreme eigenvalues bound the quadratic form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import DEFAULT_TOL, as_complex_matrix, is_hermitian, _require_square

#: Most rows of a dense matrix: an eigensolver input, or D and C themselves,
#: whose d**2 rows allow systems up to d = 64.
DENSE_CEILING = 64 ** 2


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenvalues (with multiplicity) and the derived scalars of one matrix."""

    eigenvalues: np.ndarray  # sorted by (Re, Im), length = matrix dimension
    radius: float            # max |lambda|
    abscissa: float          # max Re lambda


def check_dense_rows(rows: int, name: str) -> None:
    """``ValueError`` for a dense matrix over :data:`DENSE_CEILING` rows, before it exists."""
    if rows > DENSE_CEILING:
        raise ValueError(f"{name} has {rows} rows, over the dense ceiling of {DENSE_CEILING}")


def _checked_square(a, name: str) -> np.ndarray:
    a = _require_square(as_complex_matrix(a, name), name)
    check_dense_rows(a.shape[0], name)
    return a


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a square matrix, sorted by (real, imaginary) part.

    Uses the dense general solver (Hessenberg reduction + QR iteration via
    LAPACK).  Non-convergence surfaces as ``numpy.linalg.LinAlgError``; the
    result is never silently truncated.
    """
    a = _checked_square(a, "eigenvalue input")
    w = np.linalg.eigvals(a)
    return w[np.lexsort((w.imag, w.real))]


def hermitian_extremes(h) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a Hermitian matrix.

    Rejects inputs failing :func:`is_hermitian` at ``DEFAULT_TOL`` so the
    specialized (and much cheaper) Hermitian solver is never fed a general
    matrix.
    """
    h = _checked_square(h, "hermitian_extremes input")
    if not is_hermitian(h, DEFAULT_TOL):
        raise ValueError("hermitian_extremes requires a Hermitian matrix")
    w = np.linalg.eigvalsh(h)
    return float(w[0]), float(w[-1])


def summarize(a) -> SpectralSummary:
    """Eigenvalues plus spectral radius and abscissa."""
    w = eigenvalues(a)
    return SpectralSummary(
        eigenvalues=w,
        radius=float(np.max(np.abs(w))),
        abscissa=float(np.max(w.real)),
    )
