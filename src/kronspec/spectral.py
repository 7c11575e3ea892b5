"""Eigenvalues and the two spectral scalars: radius and abscissa.

The scalars drive everything else: the spectral radius governs the growth of
matrix powers, the spectral abscissa the growth of the matrix exponential, and
for Hermitian matrices the extreme eigenvalues bound the quadratic form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import (
    DEFAULT_TOL,
    as_complex_matrix,
    is_hermitian,
    max_system_dim,
    _require_square,
)


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenvalues (with multiplicity) and the derived scalars of one matrix."""

    eigenvalues: np.ndarray  # sorted by (Re, Im), length = matrix dimension
    radius: float            # max |lambda|
    abscissa: float          # max Re lambda


def _checked_square(a, name: str) -> np.ndarray:
    a = _require_square(as_complex_matrix(a, name), name)
    ceiling = max_system_dim() ** 2
    if a.shape[0] > ceiling:
        raise ValueError(
            f"{name} dimension {a.shape[0]} exceeds the dense-solver ceiling "
            f"{ceiling} (KRONSPEC_MAX_D squared)"
        )
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


def hermitian_extremes(h, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a Hermitian matrix.

    Rejects inputs failing :func:`is_hermitian` at ``tol`` so the specialized
    (and much cheaper) Hermitian solver is never fed a general matrix.
    """
    h = _checked_square(h, "hermitian_extremes input")
    if not is_hermitian(h, tol):
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


def power_growth_estimate(a, n_max: int) -> np.ndarray:
    """The sequence ``|a^n|**(1/n)`` for n = 1..n_max (induced 2-norm).

    Converges to the spectral radius as n grows; returned as a diagnostic for
    that convergence.  Raises ``OverflowError`` naming the step at which a
    power left double-precision range.
    """
    a = _checked_square(a, "power_growth_estimate input")
    if n_max < 1:
        raise ValueError(f"n_max must be positive, got {n_max}")
    out = np.empty(n_max)
    p = a
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_max + 1):
            if n > 1:
                p = p @ a
            if not np.all(np.isfinite(p)):
                raise OverflowError(f"matrix power overflowed at step {n}")
            out[n - 1] = np.linalg.norm(p, 2) ** (1.0 / n)
    return out


def exponential_growth_estimate(a, t_grid) -> np.ndarray:
    """The sequence ``log(|exp(t*a)|) / t`` over a positive, increasing grid.

    Converges to the spectral abscissa as t grows.  The 2-norm is the largest
    singular value, matching the induced-norm convention used throughout.
    """
    from .evolution import matrix_exponential

    a = _checked_square(a, "exponential_growth_estimate input")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-D sequence")
    if np.any(t_grid <= 0) or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing and positive")
    out = np.empty(t_grid.size)
    for i, t in enumerate(t_grid):
        e = matrix_exponential(a, t)
        out[i] = np.log(np.linalg.norm(e, 2)) / t
    return out
