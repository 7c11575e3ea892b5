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
