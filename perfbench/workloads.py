"""The three workloads: inputs made from a seed, one timed operation, its check.

Each workload is a closed loop with a single caller: the next operation
starts when the previous one has returned.  Inputs are generated once per
(workload, seed) together with reference answers from ``reference.py`` and
cached under ``perfbench/.cache``; neither step is timed.

* ``certify``  - ``kronsum.classify_stability(spec, mode,
  allow_exact_fallback=True)``.  Every system is placed so the Hermitian
  bounds straddle the threshold, so every call takes the dense fallback.
* ``propagate`` - ``kronspec evolve FILE --route both``.  Criterion 4's
  small systems plus one d=16 system in thirteen; the RK4 route dominates
  small systems and the matrix exponential dominates d=16.
* ``simulate`` - ``kronspec simulate``.  Criterion 6's demo system in both
  modes and a d=8 system with distinct initial vectors, 1e5 paths each.

Cycle lengths are 35, 21 and 3 ops.  Runs repeat whole cycles and the
latency quantiles are taken over the ops of one cycle, each at its fastest
repeat.  With an odd cycle length the median is one op's latency rather than
a blend of two ops of different cost.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kronspec import cli, kronsum, matrices

from . import reference as ref

MODES = ("discrete", "continuous")
THRESHOLD = {"discrete": 1.0, "continuous": 0.0}


@dataclass
class Outcome:
    """What the check of one operation found."""

    ok: bool
    detail: str = ""
    statuses: list = field(default_factory=list)
    entry_share: float | None = None
    path_steps: int = 0
    stdout_bytes: int = 0


# --- input files -----------------------------------------------------------


def _cgauss(rng, d: int, scale: float) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return z * (scale / math.sqrt(2.0))


def _cvec(rng, d: int) -> np.ndarray:
    return (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / math.sqrt(2.0)


def _pairs(x: np.ndarray):
    """Complex array to nested [re, im] lists, the system-file encoding."""
    if x.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in x]
    return [_pairs(row) for row in x]


def _unpairs(node) -> np.ndarray:
    arr = np.asarray(node, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def write_system(path: Path, a: np.ndarray, bs) -> None:
    doc = {"d": a.shape[0], "m": len(bs), "A": _pairs(a), "B": [_pairs(b) for b in bs]}
    path.write_text(json.dumps(doc), encoding="utf-8")


def read_system(path: Path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    return _unpairs(doc["A"]), [_unpairs(b) for b in doc["B"]]


def _close(got: float, want: float, rel: float, scale: float = 1.0) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want), scale)


def run_cli(argv):
    """Run one CLI command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# --- certify ---------------------------------------------------------------

CERTIFY_DIMS = (8, 12, 16, 20)
CERTIFY_CHANNELS = (0, 1, 2, 3)
#: Three more d=16 systems make 35 ops per cycle (see the module docstring),
#: with the median op in the d=16 group and the p90 in the d=20 group.
CERTIFY_EXTRA = ((16, 1, "continuous"), (16, 2, "discrete"), (16, 3, "continuous"))


def _certify_system(rng, d: int, m: int, mode: str, stable: bool):
    """A system whose bounds straddle the threshold and whose exact value clears it.

    Discrete systems are scaled (rho(D) and N scale by c^2); continuous ones
    are shifted by s I (alpha(C) and M shift by 2s).  The target is drawn
    inside the range that keeps the threshold inside the bounds.
    """
    for _ in range(100):
        a = _cgauss(rng, d, 1.0 / math.sqrt(d))
        bs = [_cgauss(rng, d, 1.0 / math.sqrt(d)) for _ in range(m)]
        lo, hi = ref.companion_extremes(a, bs, mode)
        x = ref.spectral_value(a, bs, mode)
        if mode == "discrete":
            below = math.log(x / hi)
            above = math.log(x / lo) if lo > 0 else math.inf
            if below > -0.05 or above < 0.05:
                continue
            logt = rng.uniform(0.2, 0.8) * (below if stable else min(above, 1.0))
            c = math.sqrt(math.exp(logt) / x)
            a, bs = c * a, [c * b for b in bs]
        else:
            below, above = x - hi, x - lo
            if below > -0.05 * (hi - lo) or above < 0.05 * (hi - lo):
                continue
            t = rng.uniform(0.2, 0.8) * (below if stable else above)
            a = a + 0.5 * (t - x) * np.eye(d)
        lo, hi = ref.companion_extremes(a, bs, mode)
        value = ref.spectral_value(a, bs, mode)
        thr = THRESHOLD[mode]
        margin = 1e-6 * max(1.0, abs(value))
        if lo < thr - margin and hi > thr + margin and (value < thr - margin) == stable \
                and abs(value - thr) > margin:
            status = "ExactStable" if stable else "ExactUnstable"
            return a, bs, {"lower": lo, "upper": hi, "value": value, "status": status}
    raise RuntimeError(f"could not place a d={d} m={m} {mode} system across the threshold")


def _certify_generate(rng, directory: Path) -> list[dict]:
    cases = [(d, m, mode) for d in CERTIFY_DIMS for m in CERTIFY_CHANNELS for mode in MODES]
    ops = []
    for i, (d, m, mode) in enumerate(cases + list(CERTIFY_EXTRA)):
        stable = bool(rng.integers(2))
        a, bs, expect = _certify_system(rng, d, m, mode, stable)
        name = f"certify-{i}-d{d}-m{m}-{mode}.json"
        write_system(directory / name, a, bs)
        ops.append({"kind": f"classify-{mode}", "d": d, "m": m, "mode": mode,
                    "file": name, "expect": expect})
    return ops


def _certify_load(op, directory: Path) -> None:
    a, bs = read_system(directory / op["file"])
    op["spec"] = matrices.SystemSpec(a, tuple(bs))


def _certify_run(op, directory: Path):
    return kronsum.classify_stability(op["spec"], op["mode"], allow_exact_fallback=True)


def _certify_check(op, verdict) -> Outcome:
    want = op["expect"]
    res = Outcome(ok=False, statuses=[verdict.status.value])
    ev = verdict.evidence
    scale = max(abs(want["lower"]), abs(want["upper"]))
    if verdict.status.value != want["status"]:
        res.detail = f"status {verdict.status.value}, expected {want['status']}"
    elif ev.exact is None or not _close(ev.exact, want["value"], 1e-6):
        res.detail = f"exact value {ev.exact}, expected {want['value']}"
    elif not (_close(ev.lower, want["lower"], 1e-8, scale)
              and _close(ev.upper, want["upper"], 1e-8, scale)):
        res.detail = f"bounds {ev.lower}, {ev.upper} != {want['lower']}, {want['upper']}"
    else:
        res.ok = True
    return res


# --- propagate -------------------------------------------------------------

#: Criterion 4 draws its systems (d = 2 + i % 4, m = i % 4, entries of
#: variance 1, complex u and v) from this stream in tests/test_acceptance.py.
CRITERION4_STREAM = 424242
#: The first systems of that stream (three of each (d, m) pair), the same for
#: every seed: the RK4 cost of a random small system varies threefold from
#: draw to draw, which would make run-to-run figures depend on the seed more
#: than on the program.  Twelve rather than more keeps a cycle near 2 s, so a
#: run times each op often enough for steady per-op figures.
PROPAGATE_SMALL = 12
#: d=16, m=2 systems per cycle (one system in thirteen), drawn from the seed
#: with entries of variance 1/d.
PROPAGATE_LARGE = 1
#: Systems that also get a discrete op: the first seven small ones and the
#: d=16 one.  That makes 21 ops per cycle (see the module docstring), 13 of
#: them continuous, so the median op is a continuous one.
PROPAGATE_DISCRETE = frozenset(range(7)) | {PROPAGATE_SMALL}
PROPAGATE_TIMES = (0.25, 1.0)
PROPAGATE_STEPS = 10
#: Route-agreement tolerances of criterion 4.
ROUTE_TOL = {"continuous": 1e-6, "discrete": 1e-8}


def _propagate_generate(rng, directory: Path) -> list[dict]:
    stream = np.random.default_rng(CRITERION4_STREAM)
    systems = []
    for i in range(PROPAGATE_SMALL):
        d, m = 2 + i % 4, i % 4
        a = _cgauss(stream, d, 1.0)
        bs = [_cgauss(stream, d, 1.0) for _ in range(m)]
        systems.append((a, bs, _cvec(stream, d), _cvec(stream, d)))
    for _ in range(PROPAGATE_LARGE):
        a = _cgauss(rng, 16, 0.25)
        bs = [_cgauss(rng, 16, 0.25) for _ in range(2)]
        systems.append((a, bs, _cvec(rng, 16), _cvec(rng, 16)))
    ops = []
    for i, (a, bs, u, v) in enumerate(systems):
        d, m = a.shape[0], len(bs)
        name = f"propagate-{i}-d{d}-m{m}.json"
        write_system(directory / name, a, bs)
        base = {"d": d, "m": m, "file": name, "u": _pairs(u), "v": _pairs(v)}
        values = ref.covariance_continuous(a, bs, u, v, PROPAGATE_TIMES)
        ops.append({**base, "kind": "evolve-continuous", "mode": "continuous",
                    "reference": [_pairs(x) for x in values]})
        if i in PROPAGATE_DISCRETE:
            values = ref.covariance_discrete(a, bs, u, v, PROPAGATE_STEPS)
            ops.append({**base, "kind": "evolve-discrete", "mode": "discrete",
                        "reference": [_pairs(x) for x in values]})
    return ops


def _propagate_run(op, directory: Path):
    argv = ["evolve", str(directory / op["file"]), "--mode", op["mode"],
            "--u", json.dumps(op["u"]), "--v", json.dumps(op["v"]), "--route", "both"]
    if op["mode"] == "continuous":
        argv += ["--times", ",".join(str(t) for t in PROPAGATE_TIMES)]
    else:
        argv += ["--steps", str(PROPAGATE_STEPS)]
    return run_cli(argv)


def _propagate_check(op, raw) -> Outcome:
    code, out, err = raw
    res = Outcome(ok=False, stdout_bytes=len(out))
    tol = ROUTE_TOL[op["mode"]]
    if code != 0:
        res.detail = f"exit code {code}: {err.strip()[:200]}"
        return res
    lines = [json.loads(line) for line in out.splitlines()]
    gap = lines[-1].get("max_route_discrepancy")
    if gap is None or not gap <= tol:
        res.detail = f"route discrepancy {gap} above {tol:g}"
        return res
    want = [_unpairs(x) for x in op["reference"]]
    if len(lines) - 1 != len(want):
        res.detail = f"{len(lines) - 1} trajectory lines, expected {len(want)}"
        return res
    for line, w in zip(lines, want):
        rel = ref.relative_gap(_unpairs(line["V"]), w)
        if not rel <= tol:
            res.detail = f"V at {line['index']} off the reference by {rel:.3g}"
            return res
    res.ok = True
    return res


# --- simulate --------------------------------------------------------------

SIM_PATHS = 100_000
SIM_DT = 1e-3
#: Criterion 6's per-run bar on the share of entries within tolerance.
ENTRY_PASS_BAR = 0.95
#: Worked 2-by-2 family of criterion 6: A = diag(0.5, 0.7), one noise matrix.
DEMO_A = np.array([[0.5, 0.0], [0.0, 0.7]], dtype=complex)
DEMO_B = [np.array([[0.0, 0.0], [2.0, 0.0]], dtype=complex)]


def _simulate_generate(rng, directory: Path) -> list[dict]:
    write_system(directory / "simulate-demo.json", DEMO_A, DEMO_B)
    # d=8, m=2, noise at half the drift's scale, scaled so lambda_max(N) = 1:
    # mean-square stable with moments light-tailed enough for the 4-SE check
    a = _cgauss(rng, 8, 1.0)
    bs = [_cgauss(rng, 8, 0.5) for _ in range(2)]
    c = 1.0 / math.sqrt(ref.companion_extremes(a, bs, "discrete")[1])
    a, bs = c * a, [c * b for b in bs]
    write_system(directory / "simulate-d8.json", a, bs)
    u1 = np.array([1.0, 0.0], dtype=complex)
    u8, v8 = _cvec(rng, 8), _cvec(rng, 8)
    specs = [
        ("simulate-demo.json", DEMO_A, DEMO_B, "discrete", u1, u1, 10),
        ("simulate-d8.json", a, bs, "discrete", u8, v8, 20),
        ("simulate-demo.json", DEMO_A, DEMO_B, "continuous", u1, u1, 1.0),
    ]
    ops = []
    for name, a, bs, mode, u, v, horizon in specs:
        if mode == "discrete":
            exact = ref.covariance_discrete(a, bs, u, v, horizon)[-1]
            steps = horizon
        else:
            exact = ref.covariance_continuous(a, bs, u, v, [horizon])[-1]
            steps = round(horizon / SIM_DT)
        same = bool(np.array_equal(u, v))
        ops.append({
            "kind": f"simulate-{mode}" + ("" if same else "-uv"),
            "d": a.shape[0], "m": len(bs), "mode": mode, "file": name,
            "u": _pairs(u), "v": None if same else _pairs(v), "horizon": horizon,
            "seed": int(rng.integers(2 ** 31)), "reference": _pairs(exact),
            "path_steps": SIM_PATHS * steps * (1 if same else 2),
        })
    return ops


def _simulate_run(op, directory: Path):
    argv = ["simulate", str(directory / op["file"]), "--mode", op["mode"],
            "--u", json.dumps(op["u"]), "--paths", str(SIM_PATHS), "--seed", str(op["seed"]),
            "--horizon", str(op["horizon"]), "--json"]
    if op["v"] is not None:
        argv += ["--v", json.dumps(op["v"])]
    if op["mode"] == "continuous":
        argv += ["--dt", str(SIM_DT)]
    return run_cli(argv)


def _simulate_check(op, raw) -> Outcome:
    """Recompute each entry's pass/fail from the printed moments and the reference.

    The tolerance is compare_to_exact's: four standard errors, at least 10 dt
    in continuous mode, floored at 1e-13 of the exact magnitude.
    """
    code, out, err = raw
    res = Outcome(ok=False, stdout_bytes=len(out), path_steps=op["path_steps"])
    if code not in (0, 1):
        res.detail = f"exit code {code}: {err.strip()[:200]}"
        return res
    last = json.loads(out)["results"][-1]
    want = _unpairs(op["reference"])
    if ref.relative_gap(_unpairs(last["exact"]), want) > 1e-8:
        res.detail = "printed exact covariance differs from the reference"
        return res
    tol = 4.0 * np.asarray(last["std_error"])
    if op["mode"] == "continuous":
        tol = np.maximum(tol, 10.0 * SIM_DT)
    tol = np.maximum(tol, 1e-13 * max(1.0, float(np.max(np.abs(want)))))
    passed = np.abs(_unpairs(last["mean_outer"]) - want) <= tol
    res.entry_share = float(np.mean(passed))
    if code != (0 if passed.all() else 1):
        res.detail = f"exit code {code} disagrees with the recomputed entry checks"
    elif res.entry_share < ENTRY_PASS_BAR:
        res.detail = f"entry pass share {res.entry_share:.3f} below {ENTRY_PASS_BAR}"
    else:
        res.ok = True
    return res


# --- registry and cache ----------------------------------------------------


def _traceback_tail() -> str:
    """The exception being handled and the line that raised it."""
    exc = sys.exc_info()[1]
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} (at {frame.filename}:{frame.lineno})"


@dataclass(frozen=True)
class Workload:
    name: str
    generate: object
    run: object
    check: object
    load: object = None
    #: kinds of the ops run untimed as the warm-up, smallest input of each
    warmup_kinds: tuple = ()

    def time_op(self, op, directory: Path) -> tuple[float, Outcome]:
        """Time one operation, then check its output outside the timed region."""
        t0 = time.perf_counter()
        try:
            raw = self.run(op, directory)
        except (Exception, SystemExit):  # a crash is a failed op, not the end of the run
            return time.perf_counter() - t0, Outcome(False, _traceback_tail())
        latency = time.perf_counter() - t0
        try:
            outcome = self.check(op, raw)
        except (Exception, SystemExit):
            outcome = Outcome(False, "unreadable output: " + _traceback_tail())
        return latency, outcome


WORKLOADS = {
    "certify": Workload("certify", _certify_generate, _certify_run, _certify_check,
                        load=_certify_load,
                        warmup_kinds=("classify-discrete", "classify-continuous")),
    "propagate": Workload("propagate", _propagate_generate, _propagate_run, _propagate_check,
                          warmup_kinds=("evolve-continuous", "evolve-discrete")),
    "simulate": Workload("simulate", _simulate_generate, _simulate_run, _simulate_check,
                         warmup_kinds=("simulate-discrete",)),
}


def _source_digest() -> str:
    here = Path(__file__).resolve().parent
    h = hashlib.sha256()
    for name in ("workloads.py", "reference.py"):
        h.update((here / name).read_bytes())
    return h.hexdigest()[:12]


def cache_dir(workload: Workload, seed: int, cache_root: Path) -> Path:
    """Where the inputs of (workload, seed) live; the name carries a digest of
    the generator sources, so editing them never reuses stale inputs."""
    return cache_root / f"{workload.name}-{seed}-{_source_digest()}"


def prepare(workload: Workload, seed: int, cache_root: Path):
    """Inputs and reference answers for (workload, seed), generated once and cached.

    Returns the directory holding the input files and the list of ops in
    cycle order.  Entries made by other versions of the generator are removed.
    """
    directory = cache_dir(workload, seed, cache_root)
    digest = directory.name.rsplit("-", 1)[1]
    manifest = directory / "ops.json"
    if not manifest.is_file():
        for stale in cache_root.glob("*-*-*"):
            if not stale.name.endswith(digest):  # made by an older generator
                shutil.rmtree(stale, ignore_errors=True)
        tmp = directory.with_name(directory.name + f".tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        stream = list(WORKLOADS).index(workload.name)
        rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
        ops = workload.generate(rng, tmp)
        order = rng.permutation(len(ops))
        (tmp / "ops.json").write_text(json.dumps([ops[i] for i in order]), encoding="utf-8")
        try:
            tmp.rename(directory)
        except OSError:  # another run finished the same inputs first
            shutil.rmtree(tmp, ignore_errors=True)
    ops = json.loads(manifest.read_text(encoding="utf-8"))
    if workload.load is not None:
        for op in ops:
            workload.load(op, directory)
    return directory, ops


def warmup_ops(workload: Workload, ops: list[dict]) -> list[dict]:
    """The smallest op of each warm-up kind."""
    return [min((op for op in ops if op["kind"] == kind), key=lambda op: (op["d"], op["m"]))
            for kind in workload.warmup_kinds]
