"""Pathwise simulation of the bilinear stochastic systems.

Discrete time iterates ``x(n+1) = A x(n) + sum_k B_k x(n) xi_{n+1,k}`` with
i.i.d. unit-variance scalar noise; continuous time applies Euler-Maruyama to
``dx = A x dt + sum_k B_k x dw_k``.  Empirical covariances at the horizon are
accumulated over fixed-size path blocks, each drawing from its own substream
keyed by ``(seed, block index)``.

Blocks run on a thread pool of W = min(usable CPUs, block count) workers,
fewer when their path buffers would pass :data:`_GROUP_BYTES` (W >= 1).  Each
worker takes one block at a time, drawing a chunk of its noise (numpy's
generators release the GIL while they fill) and then advancing its paths
through the chunk one sweep at a time: a contiguous copy of the sweep takes
every step, then goes back into the block.  Two widths are picked.  The
panel, the width of each product, is T, the largest power of two whose
products stay within :data:`_TILE_MULADDS` (the tile rule), small enough
that BLAS runs each on the calling thread.  The sweep, the width of each
copy, scale and add, is the largest power of two whose stack fits in
:data:`_SWEEP_BYTES`, so it runs from cache in calls long enough that two
workers do not trade the GIL call by call; it is at least one panel and at
most the block.  Where T would be under :data:`_MIN_TILE` (large d) or at
least the block's size (the d = 2 real demo), the panel is the whole block.
Only such a panel can pass the limit, at complex d >= 23 or real d >= 46,
and then its products may thread: a simulation whose largest block has such
a panel runs on one worker, and BLAS's own threads use the cores.  Every
other block runs on all W workers with no lock, since each block owns its
buffers and its substream and only reads the system.  A sweep that spans
the block has the block as its first buffer and leaves it in whichever
buffer took the last step, so it copies nothing.  Every product is the same
BLAS call at any sweep width, every path's arithmetic is the same at any
panel width, the blocks' partial sums are merged in block order, and
neither the streams nor the order of any sum depends on W, so estimates are
reproducible bit-for-bit at any W.  They are not always so at any core
count, since two kinds of BLAS product round by OpenBLAS's thread count
for some path counts.  At complex d >= 24, :func:`_block_sums` of a last
block of some sizes (129, 300 or 333 paths, say) does.  At real d = 48, a
whole-block panel product over a last block of 7,565 paths does too (40,333
paths in all), while one over 7,232 or 16,384 paths does not.

The x and y paths of a pair share the noise draws and differ only in their
initial vectors, so both sets advance as one stacked array of shape
``(s, d, paths)``: the x paths on top of the y paths (s = 2), or the x paths
alone (s = 1) when the initial vectors coincide and so do the paths.  Both
modes step one :class:`SystemSpec` by the recursion ``x <- A x + sum_k (B_k
x) zeta_k``: discrete mode the system itself, continuous mode its
Euler-Maruyama system ``(I + dt A, sqrt(dt) B_k)``.  When the system and the
initial vectors are real, the paths are float64 rather than complex128: a
quarter of the arithmetic, and the same estimates up to roundoff.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .evolution import _initial_outer, _shift, _taylor_plan, exact_covariance
from .kronsum import _check_work, _finite
from .matrices import SystemSpec
from .spectral import check_budget

#: Paths per RNG substream; fixed so results do not depend on worker count.
BLOCK_PATHS = 16384

#: Steps between overflow checks, and the most steps of noise drawn per RNG call.
_STEP_CHUNK = 256

#: Most bytes of noise held at once (8 MiB), summed over the blocks in flight:
#: with many channels, paths or blocks a draw takes fewer steps.  Splitting
#: the draws leaves the streams unchanged.
_NOISE_CHUNK_BYTES = 2 ** 23

#: Most bytes of path buffers the blocks in flight may hold (128 MiB), charged
#: at three (s, d, BLOCK_PATHS) stacks per block: a full block wider than its
#: sweep holds its stack and three sweeps of at most half its width, a block
#: whose sweep spans it three stacks.  So at large d a wide affinity mask
#: runs fewer blocks at once rather than more memory.
_GROUP_BYTES = 2 ** 27

#: Most real multiply-adds in one panel product, d**2 T c with c = 4 for
#: complex paths and 1 for real ones (the tile rule).  OpenBLAS 0.3.31 keeps a
#: product this small on the calling thread: complex products were seen to
#: thread from 2**16 complex multiply-adds and real ones from 2**20, so
#: panels within it cannot oversubscribe BLAS.
_TILE_MULADDS = 2 ** 17

#: Fewest paths in a panel; below it the panel is the whole block.
_MIN_TILE = 64

#: Most bytes in one (s, d, W) sweep (512 KiB), so a sweep's three buffers fit
#: a 2 MiB L2 cache.  Each scale and add covers a whole sweep: at d = 8 a
#: 512-path panel gives calls of 8,192 complex entries, short enough that two
#: workers' calls trade the GIL and run slower side by side than alone.
_SWEEP_BYTES = 2 ** 19

#: Most steps one simulation may take.  Checked before any noise is drawn, so
#: a tiny dt or a huge horizon fails at once instead of running for ages.
_MAX_MC_STEPS = 1_000_000

#: Multiply-adds charged per path for each of a step's m + 1 products, on top
#: of its s d**2: at small d the product's per-path overhead, the noise draw
#: and the scale-and-add cost more than the product itself.  With it every
#: admitted run takes seconds at any d, measured at 0.14-0.98 ns per charged
#: multiply-add over d = 1, 2, 8, 64 and m = 0..7 (2 cores, complex paths),
#: where d**2 alone ranged from 0.15 ns at d = 64 to 20 ns at d = 1, m = 7.
_PATH_OVERHEAD = 32

#: Most multiply-adds one simulation may take: paths x max(steps, 1) x (m + 1)
#: x (s d**2 + _PATH_OVERHEAD), with s = 2 when u != v.  It admits the 1e8
#: path-steps of criterion 6's continuous run (d = 2, m = 1: 7.2e9) and
#: refuses 2e6 path-steps at d = 65 (8.5e9).  Checked before the first block,
#: so a huge run fails at once.
_MAX_MC_WORK = 8_000_000_000

#: Constant c in the continuous-mode tolerance max(4*SE, c*dt).
DT_BIAS_CONST = 10.0

#: Absolute floor (scaled by the exact value) that keeps zero-variance
#: deterministic entries from failing on arithmetic dust.
_ATOL_FLOOR = 1e-13

_NOISES = ("gaussian", "rademacher")


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
        for name in ("paths", "seed", "dt", "horizon"):
            value, whole = getattr(self, name), name in ("paths", "seed")
            if isinstance(value, (bool, np.bool_)) or (whole and
                                                      not isinstance(value, numbers.Integral)):
                kind = "an integer" if whole else "a number"
                raise ValueError(f"{name} must be {kind}, got {value!r}")
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


def _chunk_steps(m: int, paths: int) -> int:
    """Steps per noise draw of (steps, m, paths) float64s for ``paths`` in flight.

    The largest power of two up to :data:`_STEP_CHUNK` within
    :data:`_NOISE_CHUNK_BYTES`, or 1, so the draws tile the overflow-check stride.
    """
    steps = max(1, min(_STEP_CHUNK, _NOISE_CHUNK_BYTES // (8 * max(m, 1) * paths)))
    return 1 << (steps.bit_length() - 1)


def _advance(bufs, panel, a_step, noise_mats, noise):
    """Take one step per row of ``noise`` and return the buffer that holds the result.

    ``bufs`` = [paths, spare, tmp] are three (s, d, width) stacks; paths and
    spare take turns as each step's input and output.  Each step sets
    ``paths <- a_step paths + sum_k (B_k paths) * zeta[k]``, with ``a_step``
    and B_k broadcast over the stack and the draws ``zeta[k]`` over both
    path sets.  Each of its m + 1 products runs ``panel`` paths at a time
    (fewer in the last), written into a slice of its output buffer; each
    scale and add then runs once over the whole width.
    """
    paths, nxt, tmp = bufs
    cuts = [slice(lo, lo + panel) for lo in range(0, paths.shape[-1], panel)]
    for zeta in noise:
        for cut in cuts:
            np.matmul(a_step, paths[..., cut], out=nxt[..., cut])
        for b, z in zip(noise_mats, zeta):
            for cut in cuts:
                np.matmul(b, paths[..., cut], out=tmp[..., cut])
            tmp *= z
            nxt += tmp
        paths, nxt = nxt, paths
    return paths


def _tile_paths(starts, size) -> tuple[int, bool]:
    """Paths per panel of ``size`` copies of the (s, d) stack ``starts``, and whether they thread.

    The tile rule: the largest power of two T with d**2 T c <=
    :data:`_TILE_MULADDS` (c = 4 for complex paths, 1 for real), or the whole
    block, ``size``, when that T is under :data:`_MIN_TILE` or at least
    ``size``.  Never 0.  Only a whole-block panel can pass the limit, and when
    it does BLAS may thread its products.
    """
    d = starts.shape[1]
    tile = _TILE_MULADDS // (d * d * (4 if np.iscomplexobj(starts) else 1))
    if tile < _MIN_TILE:
        return size, tile < size
    return min(1 << (tile.bit_length() - 1), size), False


def _sweep_paths(starts, size) -> int:
    """Paths per sweep of a block of ``size`` copies of the (s, d) stack ``starts``.

    The largest power of two W whose (s, d, W) stack fits in
    :data:`_SWEEP_BYTES`, but at least one panel, :func:`_tile_paths`, and at
    most the block, ``size``.  A sweep below the block's size is thus a whole
    number of panels.
    """
    width = max(1, _SWEEP_BYTES // starts.nbytes)
    return min(max(1 << (width.bit_length() - 1), _tile_paths(starts, size)[0]), size)


def _run_block(rng, size, kind, n, starts, a_step, noise_mats, stride):
    """Advance one block of ``size`` paths through n steps and return its :func:`_block_sums`.

    The block starts as ``size`` copies of the (s, d) stack ``starts``.  Every
    ``stride`` steps it draws its next noise chunk from its substream ``rng``,
    then advances through the chunk one sweep of :func:`_sweep_paths` paths
    at a time (fewer in the last): each sweep is copied into the first of
    three sweep-sized buffers, takes the chunk's steps there and is written
    back.  Within a sweep, :func:`_advance` takes each product one panel of
    :func:`_tile_paths` paths at a time and each scale and add once.  A
    sweep that spans the block has the block itself as its first buffer, so
    it holds three stacks, not four; its copy in is a no-op, and after an
    odd number of steps the block stays in the buffer that took the last
    step rather than being copied back.  Overflow is checked every
    :data:`_STEP_CHUNK` steps and at step n; non-finite values persist
    through the linear updates, so nothing escapes detection.  A path is bad
    when its x or its y is non-finite, and any bad path is an
    ``OverflowError`` naming the step and the count: dropping bad paths
    would bias unstable-case statistics.
    """
    m = len(noise_mats)
    panel, sweep = _tile_paths(starts, size)[0], _sweep_paths(starts, size)
    spare = list(np.empty((3, starts.size * sweep), dtype=starts.dtype))
    shape = (*starts.shape, size)
    stack = spare[0].reshape(shape) if sweep == size else np.empty(shape, starts.dtype)
    stack[...] = starts[:, :, None]
    # numpy's error state is per thread
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n, stride):
            zeta = _draw_noise(rng, kind, (min(stride, n - first), m, size))
            for lo in range(0, size, sweep):
                part = stack[:, :, lo:lo + sweep]
                # contiguous (s, d, width) views, width < sweep in the last
                bufs = [buf[:part.size].reshape(part.shape) for buf in spare]
                np.copyto(bufs[0], part)
                done = _advance(bufs, panel, a_step, noise_mats, zeta[:, :, lo:lo + sweep])
                if sweep < size:
                    np.copyto(part, done)
                elif done is not bufs[0]:
                    # the block moves to the buffer that took the last step
                    spare[0], spare[1] = spare[1], spare[0]
                    stack = done
            del zeta  # free this chunk before the next one is drawn
            step = min(first + stride, n)
            if step % _STEP_CHUNK and step < n:
                continue
            good = np.all(np.isfinite(stack), axis=(0, 1))
            if not good.all():
                raise OverflowError(f"{np.count_nonzero(~good)} path(s) overflowed by step "
                                    f"{step}; estimate aborted")
        return _block_sums(stack)


def _step_count(count: float) -> int:
    """``count`` rounded to whole steps, refused over the budget before any int()."""
    steps = round(count, 0)
    check_budget(steps, _MAX_MC_STEPS, "simulation needs {:.3g} steps", steps)
    return int(steps)


def _block_sums(paths):
    """One block's sums of x y*, |x|^2 |y|^2, |x|^2 and |x|^4."""
    x, y = paths[0], paths[-1]
    ax2 = np.abs(x) ** 2
    sq = np.sum(ax2, axis=0)
    return x @ y.conj().T, ax2 @ (np.abs(y) ** 2).T, float(np.sum(sq)), float(np.sum(sq ** 2))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _simulate(mode, system, u, v, same, cfg, steps, horizon, dt):
    """Run every path block of one simulation and return its moments at the horizon.

    Each block advances the initial vectors, stacked as (u,) when they
    coincide and as (u, v) otherwise, as one ``(s, d, paths)`` array through
    ``steps`` steps of the discrete recursion of ``system``, in float64 when
    the system and the vectors are real.  Blocks run on W workers (see the
    module docstring); the running sums of x y*, |x|^2 |y|^2, |x|^2 and
    |x|^4 stay complex128 and float64 and are merged in block order.  The work budget
    (:data:`_MAX_MC_WORK`) is checked before any block starts.
    """
    d, m, a_step, noise_mats = system.d, system.m, system.a, system.noise_mats
    starts = np.stack((u,) if same else (u, v))
    work = cfg.paths * max(steps, 1) * (m + 1) * (len(starts) * d ** 2 + _PATH_OVERHEAD)
    check_budget(work, _MAX_MC_WORK, "simulation needs {:.3g} multiply-adds", work)
    if not any(np.any(x.imag) for x in (a_step, starts, *noise_mats)):
        a_step, starts = np.ascontiguousarray(a_step.real), starts.real
        noise_mats = tuple(np.ascontiguousarray(b.real) for b in noise_mats)
    s1 = np.zeros((d, d), dtype=np.complex128)
    s2 = np.zeros((d, d))
    r1 = r2 = 0.0
    blocks = -(-cfg.paths // BLOCK_PATHS)
    largest = min(BLOCK_PATHS, cfg.paths)
    # when the products may thread, one block runs at a time and BLAS's threads use the cores
    cpus = 1 if _tile_paths(starts, largest)[1] else _usable_cpus()
    width = max(1, min(cpus, blocks, _GROUP_BYTES // (3 * starts.nbytes * largest)))
    stride = _chunk_steps(m, width * largest)

    def run(block):
        size = min(BLOCK_PATHS, cfg.paths - block * BLOCK_PATHS)
        return _run_block(_substream(cfg.seed, block), size, cfg.noise, steps, starts,
                          a_step, noise_mats, stride)

    from concurrent.futures import ThreadPoolExecutor  # deferred: slow to import

    # the first error in block order cancels the blocks not yet started
    with ThreadPoolExecutor(width) as pool, np.errstate(over="ignore", invalid="ignore"):
        for xy, xxyy, sq, sq2 in pool.map(run, range(blocks)):
            s1 += xy
            s2 += xxyy
            r1 += sq
            r2 += sq2
    if not (np.all(np.isfinite(s1)) and np.all(np.isfinite(s2)) and math.isfinite(r2)):
        raise OverflowError(f"the moment sums overflowed by step {steps}; estimate aborted")
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
    Deterministic for a fixed config; overflow aborts the estimate.  The
    exact recursion to step n that :func:`compare_to_exact` checks against
    is priced here, before any path runs: over the work budget of
    :func:`evolution.exact_covariance` it is that ``ValueError`` at once,
    not after the simulation.
    """
    u, v, same = _initial_outer(spec, u, v)
    n = _step_count(cfg.horizon)
    if n != cfg.horizon:
        raise ValueError(f"discrete horizon must be an integer step count, got {cfg.horizon}")
    _check_work(spec, f"the recursion to step {n}", n)
    return _simulate("discrete", spec, u, v, same, cfg, n, n, None)


def simulate_continuous(spec: SystemSpec, u, v, cfg: SimulationConfig) -> EmpiricalMoments:
    """Euler-Maruyama estimate of E[x(t) y*(t)] and E|x(t)|^2 at t = ``cfg.horizon``.

    The update is ``x += A x dt + sum_k B_k x sqrt(dt) z_k`` with independent
    standard normal (or Rademacher) ``z``: the discrete recursion of the system
    ``(I + dt A, sqrt(dt) B_k)``, built once as a :class:`SystemSpec` before
    any path runs.  An entry of it out of double range is an ``OverflowError``
    (:func:`kronsum._finite`).  The scheme's covariance bias is O(dt);
    comparisons against exact propagation should allow max(4*SE, c*dt).
    ``cfg.dt`` is adjusted to divide the horizon into a whole number of steps.
    The Taylor propagation to the horizon that :func:`compare_to_exact`
    checks against is priced here, before any path runs: over the work
    budget of :func:`evolution.exact_covariance` it is that ``ValueError``
    at once, not after the simulation.
    """
    u, v, same = _initial_outer(spec, u, v)
    if cfg.dt is None:
        raise ValueError("continuous simulation requires cfg.dt")
    horizon = float(cfg.horizon)
    steps = _step_count(horizon / cfg.dt)
    if steps == 0 and horizon > 0:
        raise ValueError(f"dt={cfg.dt} rounds to zero steps over the horizon {horizon}")
    mu, _, beta = _shift(spec)
    _taylor_plan(spec, mu, beta, np.array([horizon]))
    dt = horizon / steps if steps > 0 else float(cfg.dt)
    name = f"the Euler-Maruyama system at dt = {dt:g}"
    with np.errstate(over="ignore", invalid="ignore"):
        system = SystemSpec(_finite(np.eye(spec.d, dtype=np.complex128) + dt * spec.a, name),
                            tuple(_finite(math.sqrt(dt) * b, name) for b in spec.noise_mats))
    return _simulate("continuous", system, u, v, same, cfg, steps, horizon, dt)


@dataclass(frozen=True)
class MomentComparison:
    """Entrywise comparison of empirical moments against exact propagation."""

    exact: np.ndarray
    abs_diff: np.ndarray
    tolerance: np.ndarray
    entry_pass: np.ndarray
    all_passed: bool


def compare_to_exact(moments: EmpiricalMoments, spec: SystemSpec, u, v) -> MomentComparison:
    """Check each empirical covariance entry against :func:`evolution.exact_covariance`.

    Discrete tolerance is four standard errors; continuous adds the
    ``DT_BIAS_CONST * dt`` discretization-bias allowance.  A tiny floor
    scaled by the exact magnitude keeps deterministic zero-variance entries
    from failing on last-bit arithmetic differences.
    """
    exact = exact_covariance(spec, moments.mode, u, v, moments.horizon)
    tol = 4.0 * moments.std_error
    if moments.mode == "continuous":
        tol = np.maximum(tol, DT_BIAS_CONST * moments.dt)
    tol = np.maximum(tol, _ATOL_FLOOR * max(1.0, float(np.max(np.abs(exact)))))
    diff = np.abs(moments.mean_outer - exact)
    entry = diff <= tol
    return MomentComparison(
        exact=exact,
        abs_diff=diff,
        tolerance=tol,
        entry_pass=entry,
        all_passed=bool(entry.all()),
    )
