import math
from typing import NamedTuple

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.stats import unitary_group

from kronspec.evolution import exact_covariance
from kronspec.kronsum import classify_stability
from kronspec.matrices import ConsistencyError, SystemSpec, as_complex_vector
from kronspec.sysio import matrix_pairs


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


def complex_pair(z) -> list[float]:
    """One complex number as the system file's ``[re, im]`` pair."""
    z = complex(z)
    return [z.real, z.imag]


def system_document(spec: SystemSpec) -> dict:
    """Serialize a system back to the file schema (round-trips exactly)."""
    return {
        "d": spec.d,
        "m": spec.m,
        "A": matrix_pairs(spec.a),
        "B": [matrix_pairs(b) for b in spec.noise_mats],
    }


def mixed_direct_sum(blocks, rng: np.random.Generator) -> SystemSpec:
    """The block-diagonal system of ``blocks``, mixed by a seeded random unitary U.

    A = U (A_1 (+) A_2 (+) ...) U* and B_k = U (B_k,1 (+) B_k,2 (+) ...) U*, so
    every block needs the same m.  U keeps rho(D) and alpha(C), and the value
    of a direct sum is the largest of its blocks' values: a system of any d
    whose value small dense eigensolves give.
    """
    u = unitary_group.rvs(sum(block.d for block in blocks), random_state=rng)

    def mix(mats):
        return u @ block_diag(*mats) @ u.conj().T

    return SystemSpec(mix([block.a for block in blocks]),
                      tuple(mix([block.noise_mats[k] for block in blocks])
                            for k in range(blocks[0].m)))


class SecondMomentBounds(NamedTuple):
    lower: float
    upper: float
    actual: float


def second_moment_bounds(
    spec: SystemSpec, mode: str, u, horizon, rel_tol: float
) -> SecondMomentBounds:
    """The paper's envelope on r = tr V at the horizon, from V(0) = u u*, plus r itself.

    Discrete: ``|u|^2 gamma^n <= r(n) <= |u|^2 beta^n``; continuous:
    ``|u|^2 e^(gamma t) <= r(t) <= |u|^2 e^(beta t)``, with gamma and beta the
    extreme eigenvalues of the Hermitian companion N or M (in continuous
    mode they may be negative).  r comes from :func:`exact_covariance`.  The
    envelope holds for every system, so a violation beyond ``rel_tol``
    (scaled by the bound size) raises :class:`ConsistencyError`.

    This is acceptance criterion 5's check of the paper's envelope.  No
    command calls it, so it is a test oracle; ROADMAP item 17 returns a
    version weighted by a positive definite X (X = I gives these bits) to
    the package together with its caller.
    """
    actual = float(np.trace(exact_covariance(spec, mode, u, u, horizon)).real)
    u = as_complex_vector(u, "initial vector u")
    report = classify_stability(spec, mode).evidence
    u2 = float(np.sum(np.abs(u) ** 2))
    if mode == "discrete":
        lower = u2 * report.lower ** horizon
        upper = u2 * report.upper ** horizon
    else:
        with np.errstate(over="ignore"):
            lower = u2 * float(np.exp(report.lower * horizon))
            upper = u2 * float(np.exp(report.upper * horizon))
    _check_moment_chain(mode, lower, upper, actual, rel_tol)
    return SecondMomentBounds(lower=lower, upper=upper, actual=actual)


def _check_moment_chain(mode: str, lower: float, upper: float, actual: float, rel_tol: float) -> None:
    lo_slack = rel_tol * max(1.0, abs(lower))
    hi_slack = rel_tol * max(1.0, abs(upper))
    if not (lower - lo_slack <= actual <= upper + hi_slack):
        raise ConsistencyError(
            f"{mode} second-moment envelope violated: "
            f"{lower!r} <= {actual!r} <= {upper!r} fails at relative slack {rel_tol:g}"
        )
