"""Exact propagation of covariance matrices and second moments.

Two independent computational routes are provided for each time direction and
used as mutual oracles:

* discrete: the one-step recursion ``V -> A V A* + sum_k B_k V B_k*`` versus
  powers of the discrete stochastic Kronecker sum applied to ``vec(V)``;
* continuous: fixed-step fourth-order integration of
  ``V' = A V + V A* + sum_k B_k V B_k*`` versus the matrix exponential of the
  continuous stochastic Kronecker sum.

The second-moment trace obeys geometric/exponential envelopes driven by the
extreme eigenvalues of the Hermitian companion matrices; those envelopes are
asserted here and treated as internal consistency checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kronsum import (
    bound_report,
    build_continuous_sum,
    build_discrete_sum,
    second_moment_map,
)
from .matrices import (
    ConsistencyError,
    SystemSpec,
    as_complex_matrix,
    as_complex_vector,
    unvec,
    vec,
    _require_square,
)

#: Self-convergence target for the fixed-step integrator (kept well under the
#: 1e-6 route-agreement tolerance).
ODE_TARGET = 1e-7

_MAX_HALVINGS = 16

#: Most fourth-order steps one integration pass over the grid may take.  The
#: initial step scales like 1/|L|, so large-norm systems would otherwise spin
#: for hours (or, once the state overflows, forever) before failing.
_MAX_RK4_STEPS = 500_000


@dataclass(frozen=True)
class CovarianceTrajectory:
    """Covariance matrices indexed by step number (discrete) or time (continuous).

    ``second_moments`` holds the trace of each matrix (the mean squared norm
    of the state) and is populated only when the two initial vectors coincide,
    since only then is the trace that second moment.
    """

    mode: str
    index: tuple
    values: tuple[np.ndarray, ...]
    second_moments: tuple[float, ...] | None


class SecondMomentBounds(NamedTuple):
    lower: float
    upper: float
    actual: float


def _initial_outer(spec: SystemSpec, u, v) -> tuple[np.ndarray, np.ndarray, bool]:
    u = as_complex_vector(u, "initial vector u")
    v = as_complex_vector(v, "initial vector v")
    if u.shape[0] != spec.d or v.shape[0] != spec.d:
        raise ValueError(
            f"initial vectors must have dimension {spec.d}, "
            f"got {u.shape[0]} and {v.shape[0]}"
        )
    same = bool(np.array_equal(u, v))
    return u, v, same


def _traj(mode, index, values, same) -> CovarianceTrajectory:
    moments = tuple(float(np.trace(m).real) for m in values) if same else None
    return CovarianceTrajectory(
        mode=mode, index=tuple(index), values=tuple(values), second_moments=moments
    )


def propagate_discrete(
    spec: SystemSpec, u, v, n: int, route: str = "direct"
) -> CovarianceTrajectory:
    """Covariance trajectory V(0..n) from V(0) = u v*.

    ``route="direct"`` iterates the one-step recursion on d-by-d matrices;
    ``route="kronecker"`` applies powers of the d**2-by-d**2 stochastic
    Kronecker sum to ``vec(V(0))``.  The two agree to roundoff and serve as
    mutual oracles.
    """
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")
    if route not in ("direct", "kronecker"):
        raise ValueError(f"route must be 'direct' or 'kronecker', got {route!r}")
    u, v, same = _initial_outer(spec, u, v)
    v0 = np.outer(u, v.conj())
    values = [v0]
    with np.errstate(over="ignore", invalid="ignore"):
        if route == "direct":
            phi = second_moment_map(spec, "discrete")
            for j in range(1, n + 1):
                values.append(phi(values[-1]))
                if not np.all(np.isfinite(values[-1])):
                    raise OverflowError(f"covariance propagation overflowed at step {j}")
        else:
            dmat = build_discrete_sum(spec)
            w = vec(v0)
            for j in range(1, n + 1):
                w = dmat @ w
                if not np.all(np.isfinite(w)):
                    raise OverflowError(f"covariance propagation overflowed at step {j}")
                values.append(unvec(w, spec.d))
    return _traj("discrete", range(n + 1), values, same)


_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (
        17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0,
    ),
    13: (
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
        33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
    ),
}

# 1-norm switching points for the Pade degrees above.
_PADE_THETA = (
    (3, 1.495585217958292e-2),
    (5, 2.539398330063230e-1),
    (7, 9.504178996162932e-1),
    (9, 2.097847961257068),
    (13, 5.371920351148152),
)


def _pade_approx(m: np.ndarray, degree: int) -> np.ndarray:
    c = _PADE_COEFFS[degree]
    n = m.shape[0]
    ident = np.eye(n, dtype=np.complex128)
    m2 = m @ m
    if degree < 13:
        # even powers I, m^2, m^4, ... up to m^(degree-1)
        pows = [ident, m2]
        for _ in range((degree - 1) // 2 - 1):
            pows.append(pows[-1] @ m2)
        u = c[1] * pows[0]
        vv = c[0] * pows[0]
        for j in range(1, (degree + 1) // 2):
            u = u + c[2 * j + 1] * pows[j]
            vv = vv + c[2 * j] * pows[j]
        u = m @ u
    else:
        m4 = m2 @ m2
        m6 = m2 @ m4
        u = m @ (m6 @ (c[13] * m6 + c[11] * m4 + c[9] * m2)
                 + c[7] * m6 + c[5] * m4 + c[3] * m2 + c[1] * ident)
        vv = (m6 @ (c[12] * m6 + c[10] * m4 + c[8] * m2)
              + c[6] * m6 + c[4] * m4 + c[2] * m2 + c[0] * ident)
    return np.linalg.solve(vv - u, vv + u)


def matrix_exponential(a, t: float = 1.0) -> np.ndarray:
    """``exp(t * a)`` by scaling-and-squaring with diagonal Pade approximants.

    Degree 3..13 approximants are chosen from the 1-norm of ``t * a``; larger
    inputs are halved ``s`` times and the result squared back.  Accurate to
    roughly unit roundoff for well-scaled inputs; overflow of the result is
    reported rather than returned.
    """
    a = _require_square(as_complex_matrix(a, "matrix_exponential input"), "matrix_exponential input")
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    m = t * a
    norm1 = float(np.linalg.norm(m, 1))
    if norm1 == 0.0:
        return np.eye(m.shape[0], dtype=np.complex128)
    theta13 = _PADE_THETA[-1][1]
    squarings = 0
    if norm1 > theta13:
        squarings = max(0, int(math.ceil(math.log2(norm1 / theta13))))
        m = m / (2.0 ** squarings)
        degree = 13
    else:
        degree = next(deg for deg, theta in _PADE_THETA if norm1 <= theta)
    with np.errstate(over="ignore", invalid="ignore"):
        result = _pade_approx(m, degree)
        for _ in range(squarings):
            result = result @ result
    if not np.all(np.isfinite(result)):
        raise OverflowError(
            f"matrix exponential overflowed (1-norm of t*a is {norm1:.3g})"
        )
    return result


def _rk4_on_grid(rhs, v0: np.ndarray, t_grid: np.ndarray, h_max: float) -> list[np.ndarray]:
    with np.errstate(divide="ignore", invalid="ignore"):
        total = float(np.sum(np.ceil(np.diff(t_grid, prepend=0.0) / h_max)))
    if not total <= _MAX_RK4_STEPS:
        raise RuntimeError(
            f"integrator step-size failure: a pass at step {h_max:.3g} needs {total:.3g} "
            f"steps, over the budget of {_MAX_RK4_STEPS:g}"
        )
    values = []
    cur = v0
    t_prev = 0.0
    for t in t_grid:
        seg = t - t_prev
        if seg > 0.0:
            steps = max(1, int(math.ceil(seg / h_max)))
            h = seg / steps
            for _ in range(steps):
                k1 = rhs(cur)
                k2 = rhs(cur + (0.5 * h) * k1)
                k3 = rhs(cur + (0.5 * h) * k2)
                k4 = rhs(cur + h * k3)
                cur = cur + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(cur)):
            raise OverflowError(f"covariance integration overflowed before t={t}")
        values.append(cur)
        t_prev = t
    return values


def _values_discrepancy(a_vals, b_vals) -> float:
    worst = 0.0
    for va, vb in zip(a_vals, b_vals):
        scale = max(float(np.max(np.abs(va))), float(np.max(np.abs(vb))), 1e-300)
        worst = max(worst, float(np.max(np.abs(va - vb))) / scale)
    return worst


def _check_time_grid(t_grid) -> np.ndarray:
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(t_grid)):
        raise ValueError(f"t_grid must be finite, got {t_grid.tolist()}")
    if t_grid[0] < 0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing and nonnegative")
    return t_grid


def propagate_continuous(
    spec: SystemSpec, u, v, t_grid, route: str = "kronecker"
) -> CovarianceTrajectory:
    """Covariance trajectory V(t) on a time grid from V(0) = u v*.

    ``route="kronecker"`` evaluates the matrix exponential of the continuous
    stochastic Kronecker sum against ``vec(V(0))`` at each grid time;
    ``route="ode"`` integrates the d-by-d matrix differential equation with a
    classical fourth-order scheme, halving the step until two successive
    refinements agree to :data:`ODE_TARGET` (so it never consults the
    exponential route).  The initial step obeys ``h * L <= 0.1`` for an upper
    bound L on the generator norm.
    """
    if route not in ("ode", "kronecker"):
        raise ValueError(f"route must be 'ode' or 'kronecker', got {route!r}")
    t_grid = _check_time_grid(t_grid)
    u, v, same = _initial_outer(spec, u, v)
    v0 = np.outer(u, v.conj())
    if route == "kronecker":
        cmat = build_continuous_sum(spec)
        w0 = vec(v0)
        values = []
        for t in t_grid:
            w = matrix_exponential(cmat, float(t)) @ w0
            if not np.all(np.isfinite(w)):
                raise OverflowError(f"covariance propagation overflowed at t={t}")
            values.append(unvec(w, spec.d))
    else:
        rhs = second_moment_map(spec, "continuous")
        with np.errstate(over="ignore"):  # an infinite norm fails the step budget below
            gen_norm = 2.0 * np.linalg.norm(spec.a, 2) + sum(
                np.linalg.norm(b, 2) ** 2 for b in spec.noise_mats
            )
        gaps = np.diff(np.concatenate(([0.0], t_grid)))
        min_gap = float(np.min(gaps[gaps > 0])) if np.any(gaps > 0) else 1.0
        h = min(0.1 / max(gen_norm, 1e-12), min_gap)
        prev = _rk4_on_grid(rhs, v0, t_grid, h)
        for _ in range(_MAX_HALVINGS):
            h /= 2.0
            cur = _rk4_on_grid(rhs, v0, t_grid, h)
            if _values_discrepancy(prev, cur) <= ODE_TARGET / 2.0:
                values = cur
                break
            prev = cur
        else:
            raise RuntimeError(
                f"integrator step-size failure: no convergence to {ODE_TARGET:g} "
                f"after {_MAX_HALVINGS} halvings"
            )
    return _traj("continuous", t_grid.tolist(), values, same)


def max_relative_discrepancy(a: CovarianceTrajectory, b: CovarianceTrajectory) -> float:
    """Largest per-index relative gap between two trajectories on the same grid."""
    if a.mode != b.mode or len(a.values) != len(b.values):
        raise ValueError("trajectories are not comparable")
    if not np.allclose(np.asarray(a.index, float), np.asarray(b.index, float)):
        raise ValueError("trajectories use different grids")
    return _values_discrepancy(a.values, b.values)


def second_moment_bounds_discrete(
    spec: SystemSpec, u, n: int, rel_tol: float = 1e-8
) -> SecondMomentBounds:
    """Geometric envelope ``|u|^2 gamma^n <= r(n) <= |u|^2 beta^n`` plus the actual value.

    gamma and beta are the extreme eigenvalues of the discrete Hermitian
    companion; the actual second moment is the trace of the propagated
    covariance.  The envelope holds for every system, so a violation beyond
    ``rel_tol`` (scaled by the bound size) raises :class:`ConsistencyError`.
    """
    return _second_moment_bounds(spec, "discrete", u, n, rel_tol)


def second_moment_bounds_continuous(
    spec: SystemSpec, u, t: float, rel_tol: float = 1e-6
) -> SecondMomentBounds:
    """Exponential envelope ``|u|^2 e^(gamma t) <= r(t) <= |u|^2 e^(beta t)``.

    gamma and beta are the extreme eigenvalues of the continuous Hermitian
    companion (which may be negative).  Analogous to the discrete version.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return _second_moment_bounds(spec, "continuous", u, t, rel_tol)


def _second_moment_bounds(spec, mode, u, horizon, rel_tol) -> SecondMomentBounds:
    u = as_complex_vector(u, "initial vector u")
    report = bound_report(spec, mode)
    u2 = float(np.sum(np.abs(u) ** 2))
    if mode == "discrete":
        lower = u2 * report.lower ** horizon
        upper = u2 * report.upper ** horizon
        actual = propagate_discrete(spec, u, u, horizon, route="direct").second_moments[-1]
    else:
        with np.errstate(over="ignore"):
            lower = u2 * float(np.exp(report.lower * horizon))
            upper = u2 * float(np.exp(report.upper * horizon))
        actual = propagate_continuous(spec, u, u, [horizon], route="kronecker").second_moments[-1]
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
