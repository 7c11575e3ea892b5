"""Eigenvalues and the two spectral scalars: radius and abscissa.

The scalars drive everything else: the spectral radius governs the growth of
matrix powers, the spectral abscissa the growth of the matrix exponential, and
for Hermitian matrices the extreme eigenvalues bound the quadratic form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .matrices import as_complex_matrix, as_matrix, is_hermitian, _require_square

#: Most rows of a dense matrix: an eigensolver input, or D and C themselves,
#: whose d**2 rows allow systems up to d = 64.  There C's real form R
#: (:func:`kronsum.build_continuous_sum`) is 128 MiB, and the continuous
#: Kronecker route holds at most 8 matrices of its size (1 GiB), 7
#: (0.875 GiB) when it keeps no exponential for a later time.
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


def check_budget(need, budget, what: str, *counts) -> None:
    """``ValueError`` unless ``need <= budget`` (so inf and nan are refused), before the work.

    The message is built only on refusal: ``what`` formatted with ``counts``,
    each read as a double, so an int past double range reads as inf.
    """
    if not need <= budget:
        doubles = [math.inf if count > sys.float_info.max else float(count) for count in counts]
        raise ValueError(f"{what.format(*doubles)}, over the budget of {budget:g}")


def _checked_square(a: np.ndarray, name: str) -> np.ndarray:
    a = _require_square(a, name)
    check_dense_rows(a.shape[0], name)
    return a


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a square matrix, complex128, sorted by (real, imaginary) part.

    Uses the dense general solver (Hessenberg reduction + QR iteration via
    LAPACK), in real arithmetic for a real matrix, which takes about half the
    time of a complex one.  Non-convergence surfaces as
    ``numpy.linalg.LinAlgError``; the result is never silently truncated.
    """
    name = "eigenvalue input"
    w = np.linalg.eigvals(_checked_square(as_matrix(a, name), name))
    w = w.astype(np.complex128, copy=False)
    return w[np.lexsort((w.imag, w.real))]


def hermitian_extremes(h) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a Hermitian matrix.

    Rejects inputs failing :func:`is_hermitian` so the specialized (and much
    cheaper) Hermitian solver is never fed a general matrix.
    """
    name = "hermitian_extremes input"
    h = _checked_square(as_complex_matrix(h, name), name)
    if not is_hermitian(h):
        raise ValueError("hermitian_extremes requires a Hermitian matrix")
    w = np.linalg.eigvalsh(h)
    return float(w[0]), float(w[-1])


def summarize(a) -> SpectralSummary:
    """Eigenvalues plus spectral radius and abscissa; a real matrix stays real (:func:`eigenvalues`)."""
    w = eigenvalues(a)
    return SpectralSummary(
        eigenvalues=w,
        radius=float(np.max(np.abs(w))),
        abscissa=float(np.max(w.real)),
    )
