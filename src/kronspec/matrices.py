"""Dense matrix primitives: validation, real Hermitian coordinates, structural checks, systems.

Everything downstream works on plain ``numpy`` ``complex128`` arrays, apart
from the real Hermitian coordinates of :func:`real_vec`, in which D and C
are the real R that :mod:`kronspec.kronsum` builds; the helpers here
validate shape and finiteness at the boundary so the numerical code can
assume clean inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Default absolute entrywise tolerance for structural predicates.
DEFAULT_TOL = 1e-10


class ConsistencyError(RuntimeError):
    """A mathematical identity that must hold by construction was violated.

    Raised when an internal cross-check (a bound chain, a route agreement)
    fails beyond tolerance.  This indicates a bug in the implementation, not
    a problem with the input.
    """


def as_complex_matrix(data, name: str = "matrix") -> np.ndarray:
    """Coerce ``data`` to a finite complex128 2-D array."""
    return _finite_nd(np.asarray(data, dtype=np.complex128), 2, name)


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Coerce ``data`` to a finite 2-D array: complex128 if it is complex, else float64."""
    arr = np.asarray(data)
    return _finite_nd(arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64,
                                 copy=False), 2, name)


def as_complex_vector(data, name: str = "vector") -> np.ndarray:
    """Coerce ``data`` to a finite complex128 1-D array."""
    return _finite_nd(np.asarray(data, dtype=np.complex128), 1, name)


def _finite_nd(arr: np.ndarray, ndim: int, name: str) -> np.ndarray:
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _require_square(arr: np.ndarray, name: str) -> np.ndarray:
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


def real_vec(v: np.ndarray) -> np.ndarray:
    """The d-by-d complex V as two real columns: the Hermitian coordinates of its parts.

    V = H_1 + i H_2 with the Hermitian H_1 = (V + V*)/2 and H_2 = (V - V*)/(2i),
    and column j is x_j = vec X_j with X_j = Re H_j + Im H_j (vec stacks the
    columns).  For Hermitian H the map H -> vec X, X = Re H + Im H, is an
    isometry onto R**(d**2) (Re H is symmetric, Im H skew), and the matrix of
    a Hermitian-preserving map such as Phi or L in these coordinates is the
    real d**2-by-d**2 matrix R that :mod:`kronspec.kronsum` builds for D and C.
    :func:`real_unvec` inverts it.
    """
    # halved before they are added, so no sum overflows unless its result does
    re, im = v.real / 2.0, v.imag / 2.0
    s, e = re + im, re - im
    # Re H_1 + Im H_1 = s + e^T, Re H_2 + Im H_2 = s^T - e, and vec X = X^T raveled
    return np.column_stack(((s.T + e).ravel(), (s - e.T).ravel()))


def real_unvec(x: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`real_vec`: H_j = sym(X_j) + i skew(X_j) for x_j = vec X_j, V = H_1 + i H_2.

    With P = (X_1 + X_2^T)/2 and Q = (X_1^T - X_2)/2 this is V = P + Q + i (P - Q),
    each X halved before the sums, so none overflows unless V does.
    """
    half = x / 2.0
    x1t, x2t = half[:, 0].reshape(d, d), half[:, 1].reshape(d, d)  # X_1^T/2 and X_2^T/2
    p, q = x1t.T + x2t, x1t - x2t.T
    out = np.empty((d, d), dtype=np.complex128)
    np.add(p, q, out=out.real)
    np.subtract(p, q, out=out.imag)
    return out


def is_hermitian(a) -> bool:
    """True iff the largest-magnitude entry of ``a - a*`` is at most :data:`DEFAULT_TOL`."""
    a = _require_square(as_complex_matrix(a, "is_hermitian input"), "is_hermitian input")
    return float(np.max(np.abs(a - a.conj().T))) <= DEFAULT_TOL


@dataclass(frozen=True)
class SystemSpec:
    """A square drift matrix together with the multiplicative-noise matrices.

    ``a`` is the d-by-d drift matrix and ``noise_mats`` the (possibly empty)
    tuple of d-by-d matrices multiplying the scalar noise channels.  The pair
    defines both the discrete-time recursion driven by white noise and the
    continuous-time diffusion driven by Brownian motions.  Any d is accepted;
    dense d**2-by-d**2 work checks :data:`kronspec.spectral.DENSE_CEILING`
    where it starts; d = 0 is a ``ValueError``.
    """

    a: np.ndarray
    noise_mats: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        a = _require_square(as_complex_matrix(self.a, "drift matrix"), "drift matrix")
        d = a.shape[0]
        if d == 0:
            raise ValueError("drift matrix must be at least 1-by-1, got shape (0, 0)")
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
