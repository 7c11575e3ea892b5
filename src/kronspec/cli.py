"""Command-line front end.

Subcommands:

* ``analyze``  - stability verdicts; ``--exact`` climbs the ladder past the bounds
* ``evolve``   - exact covariance trajectories as JSON lines
* ``simulate`` - Monte Carlo estimates checked against exact propagation
* ``demo``     - the worked 2-by-2 family with its closed-form spectra

Exit codes: 0 stable, 1 unstable (or simulation comparison FAIL), 2
indeterminate, 64 malformed or unreadable system file.  Past those, one rule:
65 when a run is refused before any work (a ``ValueError``: bad vectors,
dimensions, values or usage, or a limit: the dense ceiling or a work or
memory budget), 70 when it fails while working (numerical overflow,
exhausted memory, a failed consistency check).
``main`` maps every failure to its code from one table.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from .evolution import (
    max_relative_discrepancy,
    propagate_continuous,
    propagate_discrete,
)
from .kronsum import (
    _MODES,
    StabilityStatus,
    UNSTABLE_STATUSES,
    build_continuous_gram,
    build_continuous_sum,
    build_discrete_gram,
    build_discrete_sum,
    classify_stability,
)
from .matrices import SystemSpec
from .montecarlo import (
    _NOISES,
    SimulationConfig,
    compare_to_exact,
    simulate_continuous,
    simulate_discrete,
)
from .spectral import check_dense_rows, hermitian_extremes, summarize
from .sysio import SystemFileError, load_system, matrix_pairs, parse_vector

EXIT_STABLE = 0
EXIT_UNSTABLE = 1
EXIT_INDETERMINATE = 2
EXIT_BADFILE = 64
EXIT_BADDATA = 65
EXIT_OVERFLOW = 70


def demo_system(a: float, b: float, sigma: float) -> SystemSpec:
    """The worked 2-by-2 family: diagonal drift, one sub-diagonal noise channel."""
    drift = np.array([[a, 0.0], [0.0, b]])
    noise = np.array([[0.0, 0.0], [sigma, 0.0]])
    return SystemSpec(drift, (noise,))


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_c(z: complex) -> str:
    return f"{z.real:.10g}{z.imag:+.10g}j"


def _print_matrix(m: np.ndarray, out) -> None:
    cells = [[_fmt_c(z) for z in row] for row in m]
    width = max(len(c) for row in cells for c in row)
    for row in cells:
        print("  " + "  ".join(c.rjust(width) for c in row), file=out)


def _quantity_name(mode: str) -> str:
    return "spectral radius" if mode == "discrete" else "spectral abscissa"


def _cmd_analyze(args, out) -> int:
    spec = load_system(args.file)
    results = []
    for mode in _MODES if args.mode == "both" else [args.mode]:
        t0 = time.perf_counter()
        verdict = classify_stability(spec, mode, allow_exact_fallback=args.exact)
        results.append((verdict.evidence, verdict, time.perf_counter() - t0))

    statuses = [v.status for _, v, _ in results]
    if any(s in UNSTABLE_STATUSES for s in statuses):
        code = EXIT_UNSTABLE
    elif any(s is StabilityStatus.INDETERMINATE for s in statuses):
        code = EXIT_INDETERMINATE
    else:
        code = EXIT_STABLE

    if args.json:
        doc = {
            "file": str(args.file),
            "results": [
                {
                    "mode": rep.mode,
                    "lower": rep.lower,
                    "upper": rep.upper,
                    "exact": rep.exact,
                    "threshold": verdict.threshold,
                    "status": verdict.status.value,
                    "rung": rep.rung,
                    "bracket_width": rep.bracket_width,
                    "map_applications": rep.map_applications,
                    "eigenvalues": (
                        matrix_pairs(rep.eigenvalues) if rep.eigenvalues is not None else None
                    ),
                    "elapsed_s": elapsed,
                }
                for rep, verdict, elapsed in results
            ],
            "exit_code": code,
        }
        print(json.dumps(doc), file=out)
    else:
        for rep, verdict, elapsed in results:
            q = _quantity_name(rep.mode)
            print(f"== {rep.mode} ==", file=out)
            print(f"  bounds:   {_fmt(rep.lower)} <= {q} <= {_fmt(rep.upper)}", file=out)
            if rep.exact is not None:
                print(f"  exact:    {q} = {_fmt(rep.exact)}  ({rep.rung})", file=out)
            print(
                f"  verdict:  {verdict.status.value}  (threshold {_fmt(verdict.threshold)})",
                file=out,
            )
            print(f"  elapsed:  {elapsed:.6f} s", file=out)
    return code


def _traj_lines(traj, out) -> None:
    for i, idx in enumerate(traj.index):
        doc = {
            "mode": traj.mode,
            "index": idx,
            "V": matrix_pairs(traj.values[i]),
            "second_moment": (
                traj.second_moments[i] if traj.second_moments is not None else None
            ),
        }
        print(json.dumps(doc), file=out)


def _vectors(args, d: int):
    """``--u`` and ``--v`` (default ``--u``); a malformed vector is bad data, not a bad file."""
    try:
        u = parse_vector(args.u, d)
        return u, (parse_vector(args.v, d) if args.v else u)
    except SystemFileError as exc:
        raise ValueError(str(exc)) from exc


def _cmd_evolve(args, out) -> int:
    spec = load_system(args.file)
    u, v = _vectors(args, spec.d)
    if args.mode == "discrete":
        if args.steps is None:
            raise ValueError("discrete mode requires --steps")
        propagate, grid, own, name = propagate_discrete, args.steps, "direct", "D"
    else:
        if not args.times:
            raise ValueError("continuous mode requires --times")
        grid = [float(s) for s in args.times.split(",")]
        propagate, own, name = propagate_continuous, "ode", "C"
    # with --route both the dense ceiling refuses first, then the d-by-d route,
    # which prices itself, runs before the Kronecker route; its trajectory is printed
    routes = [args.route]
    if args.route == "both":
        check_dense_rows(spec.d ** 2, f"stochastic Kronecker sum {name}")
        routes = [own, "kronecker"]
    trajs = [propagate(spec, u, v, grid, r) for r in routes]
    _traj_lines(trajs[0], out)
    if len(trajs) == 2:
        print(
            json.dumps({"max_route_discrepancy": max_relative_discrepancy(*trajs)}),
            file=out,
        )
    return 0


def _cmd_simulate(args, out) -> int:
    spec = load_system(args.file)
    u, v = _vectors(args, spec.d)
    cfg = SimulationConfig(
        paths=args.paths, seed=args.seed, noise=args.noise, dt=args.dt, horizon=args.horizon
    )
    simulate = simulate_discrete if args.mode == "discrete" else simulate_continuous
    moments = simulate(spec, u, v, cfg)
    comparison = compare_to_exact(moments, spec, u, v)  # d-by-d routes: runs at any d

    if args.json:
        doc = {
            "mode": moments.mode,
            "paths": moments.paths,
            "seed": args.seed,
            "noise": args.noise,
            "results": [
                {
                    "checkpoint": moments.horizon,
                    "mean_outer": matrix_pairs(moments.mean_outer),
                    "std_error": moments.std_error.tolist(),
                    "exact": matrix_pairs(comparison.exact),
                    "abs_diff": comparison.abs_diff.tolist(),
                    "tolerance": comparison.tolerance.tolist(),
                    "entry_pass": comparison.entry_pass.tolist(),
                    "second_moment": moments.second_moment,
                    "second_moment_se": moments.second_moment_se,
                }
            ],
            "all_passed": comparison.all_passed,
        }
        print(json.dumps(doc), file=out)
    else:
        print(
            f"mode={moments.mode} paths={moments.paths} seed={args.seed} "
            f"noise={args.noise} horizon={_fmt(args.horizon)}"
            + (f" dt={_fmt(moments.dt)}" if moments.dt is not None else ""),
            file=out,
        )
        h = moments.horizon
        print(f"checkpoint {_fmt(h) if moments.mode == 'continuous' else h}:", file=out)
        print(f"  {'entry':<8}{'empirical':<28}{'exact':<28}{'|diff|':<14}{'tol':<14}ok", file=out)
        for r in range(spec.d):
            for c in range(spec.d):
                emp = _fmt_c(moments.mean_outer[r, c])
                exa = _fmt_c(comparison.exact[r, c])
                dif = format(comparison.abs_diff[r, c], ".4g")
                tol = format(comparison.tolerance[r, c], ".4g")
                ok = "yes" if comparison.entry_pass[r, c] else "NO"
                print(f"  ({r},{c})   {emp:<28}{exa:<28}{dif:<14}{tol:<14}{ok}", file=out)
        print(
            f"  E|x|^2 = {_fmt(moments.second_moment)}"
            f"  (SE {format(moments.second_moment_se, '.4g')})",
            file=out,
        )
        print(f"result: {'PASS' if comparison.all_passed else 'FAIL'}", file=out)
    return EXIT_STABLE if comparison.all_passed else EXIT_UNSTABLE


def _cmd_demo(args, out) -> int:
    a, b, sigma = args.a, args.b, args.sigma
    spec = demo_system(a, b, sigma)
    rows = [
        ("D (discrete stochastic Kronecker sum)", build_discrete_sum(spec),
         [[a * a, 0, 0, 0], [0, a * b, 0, 0], [0, 0, a * b, 0], [sigma ** 2, 0, 0, b * b]]),
        ("C (continuous stochastic Kronecker sum)", build_continuous_sum(spec),
         [[2 * a, 0, 0, 0], [0, a + b, 0, 0], [0, 0, a + b, 0], [sigma ** 2, 0, 0, 2 * b]]),
        ("N (discrete Hermitian companion)", build_discrete_gram(spec),
         np.diag([a * a + sigma ** 2, b * b])),
        ("M (continuous Hermitian companion)", build_continuous_gram(spec),
         np.diag([2 * a + sigma ** 2, 2 * b])),
    ]
    d_sum, c_sum, n_gram, m_gram = (built for _, built, _ in rows)
    checks = [
        ("rho(D)", summarize(d_sum).radius, max(a * a, b * b), "max(a^2, b^2)"),
        ("alpha(C)", summarize(c_sum).abscissa, max(2 * a, 2 * b), "max(2a, 2b)"),
        ("alpha(N)", hermitian_extremes(n_gram)[1],
         max(a * a + sigma ** 2, b * b), "max(a^2+sigma^2, b^2)"),
        ("alpha(M)", hermitian_extremes(m_gram)[1],
         max(2 * a + sigma ** 2, 2 * b), "max(2a+sigma^2, 2b)"),
    ]
    matrices_match = all(
        float(np.max(np.abs(built - np.asarray(template, dtype=np.complex128)))) <= 1e-10
        for _, built, template in rows
    )
    all_pass = matrices_match and all(abs(got - want) <= 1e-10 for _, got, want, _ in checks)

    print(f"worked 2-by-2 family with a={_fmt(a)} b={_fmt(b)} sigma={_fmt(sigma)}", file=out)
    print("drift = diag(a, b); one noise matrix, sigma in the lower-left corner", file=out)
    for name, built, _ in rows:
        print(f"\n{name}:", file=out)
        _print_matrix(built, out)
    print("", file=out)
    for label, got, want, formula in checks:
        ok = "PASS" if abs(got - want) <= 1e-10 else "FAIL"
        print(
            f"{label:<9}= {_fmt(got):<16} expected {formula:<22} = {_fmt(want):<16} {ok}",
            file=out,
        )
    print(
        f"matrices match closed-form templates: {'PASS' if matrices_match else 'FAIL'}",
        file=out,
    )
    return 0 if all_pass else 1


class _Parser(argparse.ArgumentParser):
    """Raises usage errors so that ``main`` maps them like every other failure."""

    def error(self, message):
        raise ValueError(message)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The ``kronspec`` parser, built on first use and shared by later calls in the process.

    Parsing leaves no state in it: each ``parse_args`` fills a new namespace
    from the defaults.
    """
    parser = _Parser(
        prog="kronspec",
        description=(
            "Certify spectral radius/abscissa of stochastic Kronecker sums via "
            "small Hermitian bounds, propagate the underlying covariances "
            "exactly, and cross-check by Monte Carlo simulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="stability certification of a system file")
    p.add_argument("file", help="system JSON file")
    p.add_argument("--mode", choices=[*_MODES, "both"], default="both")
    p.add_argument("--exact", action="store_true", help="climb the verdict ladder past the bounds")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("evolve", help="exact covariance trajectory as JSON lines")
    p.add_argument("file")
    p.add_argument("--mode", choices=_MODES, default="discrete")
    p.add_argument("--u", required=True, help="initial vector as JSON [[re,im],...]")
    p.add_argument("--v", default=None, help="second initial vector (default: same as --u)")
    p.add_argument("--steps", type=int, default=None, help="step count (discrete mode)")
    p.add_argument("--times", default=None, help="comma-separated times (continuous mode)")
    p.add_argument(
        "--route",
        default="kronecker",
        help="discrete: direct|kronecker|both; continuous: ode|kronecker|both",
    )
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("simulate", help="Monte Carlo moments checked against exact propagation")
    p.add_argument("file")
    p.add_argument("--mode", choices=_MODES, default="discrete")
    p.add_argument("--u", required=True)
    p.add_argument("--v", default=None)
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", choices=_NOISES, default="gaussian")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--horizon", type=float, required=True, help="steps (discrete) or time (continuous)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("demo", help="worked 2-by-2 family against its closed forms")
    p.add_argument("--a", type=float, default=0.5)
    p.add_argument("--b", type=float, default=0.7)
    p.add_argument("--sigma", type=float, default=2.0)
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    # Every failure leaves through here; the first matching row sets the exit code.
    failures = (
        (SystemFileError, EXIT_BADFILE),
        (ValueError, EXIT_BADDATA),
        (OverflowError, EXIT_OVERFLOW),
        (RuntimeError, EXIT_OVERFLOW),
        (MemoryError, EXIT_OVERFLOW),
    )
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, sys.stdout)
    except tuple(cls for cls, _ in failures) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next(code for cls, code in failures if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
