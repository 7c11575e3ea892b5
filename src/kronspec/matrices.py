"""Dense complex matrix primitives: validation, vec/unvec, structural checks, systems.

Everything downstream works on plain ``numpy`` ``complex128`` arrays; the
helpers here validate shape and finiteness at the boundary so the numerical
code can assume clean inputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

#: Default absolute entrywise tolerance for structural predicates.
DEFAULT_TOL = 1e-10

_MAX_D_ENV = "KRONSPEC_MAX_D"
_MAX_D_DEFAULT = 64


class ConsistencyError(RuntimeError):
    """A mathematical identity that must hold by construction was violated.

    Raised when an internal cross-check (a bound chain, a route agreement)
    fails beyond tolerance.  This indicates a bug in the implementation, not
    a problem with the input.
    """


def max_system_dim() -> int:
    """Dimension cap for system matrices, from ``KRONSPEC_MAX_D`` (default 64).

    Kronecker-sum work scales with d**2, so the cap bounds the size of the
    dense d**2-by-d**2 solves.
    """
    raw = os.environ.get(_MAX_D_ENV)
    if raw is None:
        return _MAX_D_DEFAULT
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{_MAX_D_ENV} must be a positive integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{_MAX_D_ENV} must be a positive integer, got {raw!r}")
    return value


def as_complex_matrix(data, name: str = "matrix") -> np.ndarray:
    """Coerce ``data`` to a finite complex128 2-D array."""
    arr = np.asarray(data, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_complex_vector(data, name: str = "vector") -> np.ndarray:
    """Coerce ``data`` to a finite complex128 1-D array."""
    arr = np.asarray(data, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _require_square(arr: np.ndarray, name: str) -> np.ndarray:
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


def vec(x) -> np.ndarray:
    """Stack the columns of a square matrix into a single column vector.

    Entry (i, j) of a d-by-d matrix lands at position j*d + i (0-based):
    columns are concatenated left to right.  This column-major convention is
    what makes ``vec(B @ X @ A.T) == np.kron(A, B) @ vec(X)`` hold.
    """
    x = _require_square(as_complex_matrix(x, "vec input"), "vec input")
    return x.reshape(-1, order="F")


def unvec(v, d: int) -> np.ndarray:
    """Inverse of :func:`vec`: reshape a d*d vector back into a d-by-d matrix."""
    v = as_complex_vector(v, "unvec input")
    if d < 1:
        raise ValueError(f"unvec dimension must be positive, got {d}")
    if v.shape[0] != d * d:
        raise ValueError(f"unvec input has length {v.shape[0]}, expected {d * d}")
    return v.reshape((d, d), order="F")


def is_hermitian(a, tol: float = DEFAULT_TOL) -> bool:
    """True iff the largest-magnitude entry of ``a - a*`` is at most ``tol``."""
    a = _require_square(as_complex_matrix(a, "is_hermitian input"), "is_hermitian input")
    if tol < 0:
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    return float(np.max(np.abs(a - a.conj().T))) <= tol


@dataclass(frozen=True)
class SystemSpec:
    """A square drift matrix together with the multiplicative-noise matrices.

    ``a`` is the d-by-d drift matrix and ``noise_mats`` the (possibly empty)
    tuple of d-by-d matrices multiplying the scalar noise channels.  The pair
    defines both the discrete-time recursion driven by white noise and the
    continuous-time diffusion driven by Brownian motions.
    """

    a: np.ndarray
    noise_mats: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        a = _require_square(as_complex_matrix(self.a, "drift matrix"), "drift matrix")
        d = a.shape[0]
        cap = max_system_dim()
        if d > cap:
            raise ValueError(f"system dimension {d} exceeds {_MAX_D_ENV} cap {cap}")
        mats = []
        for k, b in enumerate(self.noise_mats):
            b = as_complex_matrix(b, f"noise matrix {k}")
            if b.shape != (d, d):
                raise ValueError(
                    f"noise matrix {k} has shape {b.shape}, expected {(d, d)}"
                )
            mats.append(b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "noise_mats", tuple(mats))

    @property
    def d(self) -> int:
        """State dimension."""
        return self.a.shape[0]

    @property
    def m(self) -> int:
        """Number of noise channels."""
        return len(self.noise_mats)


def random_system(rng: np.random.Generator, d: int, m: int) -> SystemSpec:
    """Random system with i.i.d. standard complex Gaussian entries.

    Real and imaginary parts each carry variance 1/2 so every entry has
    total variance 1.
    """

    def draw() -> np.ndarray:
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return z / np.sqrt(2.0)

    return SystemSpec(draw(), tuple(draw() for _ in range(m)))
