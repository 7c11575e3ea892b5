"""Pathwise simulation of the bilinear stochastic systems.

Discrete time iterates ``x(n+1) = A x(n) + sum_k B_k x(n) xi_{n+1,k}`` with
i.i.d. unit-variance scalar noise; continuous time applies Euler-Maruyama to
``dx = A x dt + sum_k B_k x dw_k``.  Empirical covariances at the horizon are
accumulated over fixed-size path blocks, each drawing from its own substream
keyed by ``(seed, block index)``, so estimates are reproducible bit-for-bit and blocks
could be farmed out to workers without changing the result (partial sums are
merged in block order).

The x and y paths of a pair share the noise draws and differ only in their
initial vectors; when the initial vectors coincide the paths coincide, and the
simulation exploits that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import _initial_outer, discrete_covariance, propagate_continuous
from .matrices import SystemSpec

#: Paths per RNG substream; fixed so results do not depend on worker count.
BLOCK_PATHS = 16384

#: Steps of noise drawn per RNG call, and the overflow-check stride.
_STEP_CHUNK = 256

#: Most steps one simulation may take.  Checked before any noise is drawn, so
#: a tiny dt or a huge horizon fails at once instead of running for ages.
_MAX_MC_STEPS = 1_000_000

#: Most paths x max(steps, 1) one simulation may take: ten times the largest
#: run in use (1e5 paths x 1000 steps).  Checked before the first block, so a
#: huge path count fails at once as well.
_MAX_MC_PATH_STEPS = 1_000_000_000

#: Constant c in the continuous-mode tolerance max(4*SE, c*dt).
DT_BIAS_CONST = 10.0

#: Absolute floor (scaled by the exact value) that keeps zero-variance
#: deterministic entries from failing on arithmetic dust.
_ATOL_FLOOR = 1e-13

_NOISES = ("gaussian", "rademacher")


class SimulationOverflowError(RuntimeError):
    """A path, or the moment sums over finite paths, left double-precision range.

    Dropping bad paths would bias unstable-case statistics, so the run fails
    instead, reporting the step and the number of offending paths (None when
    the paths stayed finite and only their sums overflowed).
    """

    def __init__(self, step, bad_paths: int | None = None):
        what = "the moment sums" if bad_paths is None else f"{bad_paths} path(s)"
        super().__init__(f"{what} overflowed by step {step}; estimate aborted")
        self.step = step
        self.bad_paths = bad_paths


@dataclass(frozen=True)
class SimulationConfig:
    """Path count, seed, noise family, and horizon for one simulation run.

    ``horizon`` is a step count in discrete mode and a final time in
    continuous mode; ``dt`` applies to continuous mode only.
    """

    paths: int
    seed: int
    noise: str = "gaussian"
    dt: float | None = None
    horizon: float = 0

    def __post_init__(self):
        if self.paths < 2:
            raise ValueError(f"need at least 2 paths for standard errors, got {self.paths}")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        if self.noise not in _NOISES:
            raise ValueError(f"noise must be one of {_NOISES}, got {self.noise!r}")
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0 <= self.horizon < math.inf:
            raise ValueError(f"horizon must be nonnegative and finite, got {self.horizon}")


@dataclass(frozen=True)
class EmpiricalMoments:
    """Sample moments at the horizon, with per-entry standard errors."""

    mode: str
    horizon: float                  # step count (discrete) or final time (continuous)
    mean_outer: np.ndarray          # sample mean of x y* (d-by-d)
    std_error: np.ndarray           # per-entry SE of mean_outer (real d-by-d)
    second_moment: float            # sample mean of |x|^2
    second_moment_se: float
    paths: int
    dt: float | None = None


def _substream(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(block,)))


def _draw_noise(rng: np.random.Generator, kind: str, shape) -> np.ndarray:
    """Mean-0 variance-1 real draws: standard normal or Rademacher +/-1."""
    if kind == "gaussian":
        return rng.standard_normal(shape)
    return rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0


def _advance(a_step, noise_mats, zeta, x, nx, tmp) -> None:
    """One step of one path set: ``nx = a_step x + sum_k (B_k x) * zeta[k]``."""
    np.matmul(a_step, x, out=nx)
    for k, b in enumerate(noise_mats):
        np.matmul(b, x, out=tmp)
        tmp *= zeta[k]
        nx += tmp


def _run_block(rng, kind, n, x, y, same, a_step, noise_mats, noise_scale):
    """Advance one block of paths through n steps and return the final (x, y).

    ``a_step`` is the per-step drift multiplier (A itself in discrete mode,
    I + dt*A for the Euler-Maruyama step); noise enters as
    ``noise_scale * B_k x zeta_k``.  Work buffers are reused across steps.
    Overflow is checked at every chunk boundary, the last of which is step n;
    non-finite values persist through the linear updates, so nothing escapes
    detection.
    """
    nx = np.empty_like(x)
    tmp = np.empty_like(x)
    ny = None if same else np.empty_like(y)
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while step < n:
            chunk = min(_STEP_CHUNK, n - step)
            zeta = _draw_noise(rng, kind, (chunk, len(noise_mats), x.shape[1]))
            if noise_scale != 1.0:
                zeta *= noise_scale
            for j in range(chunk):
                _advance(a_step, noise_mats, zeta[j], x, nx, tmp)
                if not same:
                    _advance(a_step, noise_mats, zeta[j], y, ny, tmp)
                    y, ny = ny, y
                x, nx = nx, x
            step += chunk
            _check_finite(x, step)
            if not same:
                _check_finite(y, step)
    return x, (x if same else y)


def _check_finite(x: np.ndarray, step) -> None:
    good = np.all(np.isfinite(x), axis=0)
    if not good.all():
        raise SimulationOverflowError(step, int(np.count_nonzero(~good)))


def _step_count(count: float) -> int:
    """``count`` rounded to whole steps, refused over the budget before any int()."""
    steps = round(count, 0)
    if steps > _MAX_MC_STEPS:
        raise ValueError(
            f"simulation needs {steps:.3g} steps, over the budget of {_MAX_MC_STEPS:g}"
        )
    return int(steps)


def _simulate(mode, spec, u, v, same, cfg, steps, a_step, noise_scale, horizon, dt):
    """Run every path block of one simulation and return its moments at the horizon.

    The running sums of x y*, |x|^2 |y|^2, |x|^2 and |x|^4 are merged in block
    order.  The path budget is checked before any block starts.
    """
    work = cfg.paths * max(steps, 1)
    if work > _MAX_MC_PATH_STEPS:
        raise ValueError(
            f"simulation needs {work:.3g} path-steps, over the budget of {_MAX_MC_PATH_STEPS:g}"
        )
    d = spec.d
    s1 = np.zeros((d, d), dtype=np.complex128)
    s2 = np.zeros((d, d))
    r1 = r2 = 0.0
    for block, start in enumerate(range(0, cfg.paths, BLOCK_PATHS)):
        bsize = min(BLOCK_PATHS, cfg.paths - start)
        rng = _substream(cfg.seed, block)
        x = np.tile(u[:, None], (1, bsize))
        y = x if same else np.tile(v[:, None], (1, bsize))
        x, y = _run_block(rng, cfg.noise, steps, x, y, same, a_step, spec.noise_mats,
                          noise_scale)
        with np.errstate(over="ignore", invalid="ignore"):
            s1 += x @ y.conj().T
            ax2 = np.abs(x) ** 2
            s2 += ax2 @ (np.abs(y) ** 2).T
            sq = np.sum(ax2, axis=0)
            r1 += float(np.sum(sq))
            r2 += float(np.sum(sq ** 2))
    if not (np.all(np.isfinite(s1)) and np.all(np.isfinite(s2)) and math.isfinite(r2)):
        raise SimulationOverflowError(steps)
    paths = cfg.paths
    mean = s1 / paths
    var = np.maximum(s2 / paths - np.abs(mean) ** 2, 0.0) * (paths / (paths - 1))
    r_mean = r1 / paths
    r_var = max(r2 / paths - r_mean ** 2, 0.0) * (paths / (paths - 1))
    return EmpiricalMoments(
        mode=mode,
        horizon=horizon,
        mean_outer=mean,
        std_error=np.sqrt(var / paths),
        second_moment=r_mean,
        second_moment_se=math.sqrt(r_var / paths),
        paths=paths,
        dt=dt,
    )


def simulate_discrete(spec: SystemSpec, u, v, cfg: SimulationConfig) -> EmpiricalMoments:
    """Empirical E[x(n) y*(n)] and E|x(n)|^2 at the horizon n = ``cfg.horizon``.

    The same noise draws feed the x and y recursions within each path.
    Deterministic for a fixed config; overflow aborts the estimate.
    """
    u, v, same = _initial_outer(spec, u, v)
    n = _step_count(cfg.horizon)
    if n != cfg.horizon:
        raise ValueError(f"discrete horizon must be an integer step count, got {cfg.horizon}")
    return _simulate("discrete", spec, u, v, same, cfg, n, spec.a, 1.0, n, None)


def simulate_continuous(spec: SystemSpec, u, v, cfg: SimulationConfig) -> EmpiricalMoments:
    """Euler-Maruyama estimate of E[x(t) y*(t)] and E|x(t)|^2 at t = ``cfg.horizon``.

    The update is ``x += A x dt + sum_k B_k x sqrt(dt) z_k`` with independent
    standard normal (or Rademacher) ``z``.  The scheme's covariance bias is
    O(dt); comparisons against exact propagation should allow max(4*SE, c*dt).
    ``cfg.dt`` is adjusted to divide the horizon into a whole number of steps.
    """
    u, v, same = _initial_outer(spec, u, v)
    if cfg.dt is None:
        raise ValueError("continuous simulation requires cfg.dt")
    horizon = float(cfg.horizon)
    steps = _step_count(horizon / cfg.dt)
    if steps == 0 and horizon > 0:
        raise ValueError(f"dt={cfg.dt} rounds to zero steps over the horizon {horizon}")
    dt = horizon / steps if steps > 0 else float(cfg.dt)
    a_step = np.eye(spec.d, dtype=np.complex128) + dt * spec.a
    return _simulate("continuous", spec, u, v, same, cfg, steps, a_step, math.sqrt(dt),
                     horizon, dt)


@dataclass(frozen=True)
class MomentComparison:
    """Entrywise comparison of empirical moments against exact propagation."""

    horizon: float
    exact: np.ndarray
    abs_diff: np.ndarray
    tolerance: np.ndarray
    entry_pass: np.ndarray
    all_passed: bool


def compare_to_exact(moments: EmpiricalMoments, spec: SystemSpec, u, v) -> MomentComparison:
    """Check each empirical covariance entry against the exact value.

    Discrete tolerance is four standard errors; continuous adds the
    ``DT_BIAS_CONST * dt`` discretization-bias allowance.  A tiny floor
    scaled by the exact magnitude keeps deterministic zero-variance entries
    from failing on last-bit arithmetic differences.
    """
    if moments.mode == "discrete":
        exact = discrete_covariance(spec, u, v, moments.horizon)
    else:
        exact = propagate_continuous(spec, u, v, [moments.horizon], route="kronecker").values[0]
    tol = 4.0 * moments.std_error
    if moments.mode == "continuous":
        tol = np.maximum(tol, DT_BIAS_CONST * moments.dt)
    tol = np.maximum(tol, _ATOL_FLOOR * max(1.0, float(np.max(np.abs(exact)))))
    diff = np.abs(moments.mean_outer - exact)
    entry = diff <= tol
    return MomentComparison(
        horizon=moments.horizon,
        exact=exact,
        abs_diff=diff,
        tolerance=tol,
        entry_pass=entry,
        all_passed=bool(entry.all()),
    )
