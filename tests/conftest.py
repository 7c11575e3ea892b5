import math

import numpy as np
import pytest

from kronspec.matrices import SystemSpec


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


@pytest.fixture
def crandn(rng):
    """Standard complex Gaussian array factory (unit entry variance)."""

    def draw(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    return draw


def vec(x) -> np.ndarray:
    """Column-major vec, entry (i, j) at j d + i: the convention D and C are written in."""
    return np.asarray(x).reshape(-1, order="F")


def random_system(rng: np.random.Generator, d: int, m: int) -> SystemSpec:
    """Random system with i.i.d. standard complex Gaussian entries.

    Real and imaginary parts each carry variance 1/2 so every entry has
    total variance 1.
    """

    def draw() -> np.ndarray:
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return z / np.sqrt(2.0)

    return SystemSpec(draw(), tuple(draw() for _ in range(m)))


def kron_sum(spec: SystemSpec, mode: str) -> np.ndarray:
    """The complex d**2-by-d**2 D (discrete) or C (continuous) by the ``np.kron`` formula.

    D = conj(A) (x) A + sum_k conj(B_k) (x) B_k and
    C = conj(A) (x) I + I (x) A + sum_k conj(B_k) (x) B_k, the matrices of
    Phi and L on column-major ``vec``: the oracle for the real builders.
    """
    eye = np.eye(spec.d, dtype=np.complex128)
    if mode == "discrete":
        out = np.kron(spec.a.conj(), spec.a)
    else:
        out = np.kron(spec.a.conj(), eye) + np.kron(eye, spec.a)
    for b in spec.noise_mats:
        out += np.kron(b.conj(), b)
    return out


def real_form(s: np.ndarray) -> np.ndarray:
    """R = Re S + Im S Pi, with Pi the permutation of vec X^T = Pi vec X.

    Column j d + i of Im S Pi is column i d + j of Im S.
    """
    d = math.isqrt(s.shape[0])
    pi = np.arange(d * d).reshape(d, d).T.ravel()
    return s.real + s.imag[:, pi]
