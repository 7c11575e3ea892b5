"""Run one kronspec benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a kronspec checkout; it imports kronspec from the
checkout's ``src/`` and exits non-zero, printing no result, when that is
missing.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The line before it is a report with the environment, sample counts and, in
traced runs, whether each predicted dominant layer held.  See
``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"
#: Fresh processes that repeat set-up; setup_s is the median of these and
#: the run's own set-up.
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 150


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("certify", "propagate", "simulate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--prepare-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_kronspec() -> float:
    """Import kronspec from this checkout's src/ and return the seconds it took."""
    if not (SRC / "kronspec" / "__init__.py").is_file():
        sys.exit(f"error: no kronspec package under {SRC}; run from a kronspec checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]
    t0 = time.perf_counter()
    import kronspec
    elapsed = time.perf_counter() - t0
    if Path(kronspec.__file__).resolve().parent != (SRC / "kronspec").resolve():
        sys.exit(f"error: imported kronspec from {kronspec.__file__}, not from {SRC}")
    return elapsed


# --- environment -----------------------------------------------------------


def _blas_threads():
    """Thread count OpenBLAS reports, asked through the library numpy loaded."""
    import ctypes
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    if (ROOT / ".git" / ref).is_file():
        return (ROOT / ".git" / ref).read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        blas_name = blas_version = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": nproc,
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# --- running ops -----------------------------------------------------------


def measure(wl, ops, directory, seconds, tracer=None):
    """Run whole cycles over the ops until at least ``seconds`` of op time."""
    records = []
    busy = 0.0
    while busy < seconds:
        for op in ops:
            if tracer is not None:
                tracer.op = len(records)
            latency, outcome = wl.time_op(op, directory)
            records.append((op, latency, outcome))
            busy += latency
    return records


def op_best(records, cycle: int) -> list[float]:
    """Each op's fastest latency across the run's cycles, in cycle order.

    The ops are deterministic, so a repeat is slower than the best one only
    because something else held the machine.  Other tenants of a shared
    machine slow pure-Python and numpy code alike by up to a factor of two,
    for seconds at a time and in stretches that cover anything from none to
    all of a run; a median or mean per op follows the share of the run that
    fell into them, the fastest repeat does not.
    """
    lat = [r[1] for r in records]
    return [min(lat[j::cycle]) for j in range(cycle)]


def ops_per_s(records, cycle: int) -> float:
    """Ops in a cycle over the sum of each op's fastest latency."""
    return cycle / sum(op_best(records, cycle))


def latency_summary(records, cycle: int) -> dict:
    """Latency quantiles over the cycle's ops, each op at its fastest latency.

    The quantiles of the raw samples are kept for the report, with the number
    of samples beyond their p90.
    """
    lat = [r[1] for r in records]
    best = op_best(records, cycle)
    raw_p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1]
    return {
        "cycle_ops_per_s": [cycle / sum(lat[i:i + cycle]) for i in range(0, len(lat), cycle)],
        "ops": len(lat),
        "ops_per_cycle": cycle,
        "ops_per_s": cycle / sum(best),
        "latency_p50_ms": 1e3 * statistics.median(best),
        "latency_p90_ms": 1e3 * statistics.quantiles(best, n=10, method="inclusive")[-1],
        "raw_latency_p50_ms": 1e3 * statistics.median(lat),
        "raw_latency_p90_ms": 1e3 * raw_p90,
        "raw_samples_beyond_p90": sum(1 for x in lat if x > raw_p90),
    }


def run_child(args, extra, env=None) -> dict:
    """Run this script in a fresh process and return its last output line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed)] + extra
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {extra} failed ({proc.returncode}): {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]),
            "report": json.loads(lines[-2]) if len(lines) > 1 else None}


# --- traced run --------------------------------------------------------------


def _between(records, lo_q, hi_q):
    lat = sorted(r[1] for r in records)
    lo = lat[int(lo_q * (len(lat) - 1))]
    hi = lat[int(hi_q * (len(lat) - 1))]
    return [i for i, r in enumerate(records) if lo <= r[1] <= hi]


#: Per workload: (ops it covers, predicted span with the most self time there)
PREDICTIONS = {
    "certify": [("all ops", lambda recs: range(len(recs)), "spectral.summarize")],
    "propagate": [
        ("median ops (p40..p60 latency)", lambda recs: _between(recs, 0.4, 0.6),
         "evolution.propagate_continuous.ode"),
        ("tail ops (p90..max latency)", lambda recs: _between(recs, 0.9, 1.0),
         "evolution.matrix_exponential"),
    ],
    "simulate": [("all ops", lambda recs: range(len(recs)), "montecarlo.simulate_")],
}


def traced_run(args, wl, ops, directory, report):
    from perfbench import tracing

    half = args.seconds / 2.0
    plain = measure(wl, ops, directory, half)
    tracer = tracing.Tracer()
    with tracer:
        traced = measure(wl, ops, directory, half, tracer=tracer)
    metrics = tracing.layer_metrics(tracer, len(traced))
    plain_rate = ops_per_s(plain, len(ops))
    traced_rate = ops_per_s(traced, len(ops))
    metrics["trace.overhead_share"] = 1.0 - traced_rate / plain_rate
    metrics["cli.stdout_bytes"] = statistics.fmean(r[2].stdout_bytes for r in traced)

    report["dominant"] = []
    for scope, select, predicted in PREDICTIONS[args.workload]:
        observed, share = tracing.dominant(tracer, select(traced))
        report["dominant"].append({"scope": scope, "predicted": predicted, "observed": observed,
                                   "self_time_share": round(share, 3),
                                   "held": observed.startswith(predicted)})

    metrics["baseline_1thread.ops_per_s"] = 0.0
    metrics["baseline_1thread.speedup"] = 0.0
    if args.workload in ("certify", "propagate"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        child = run_child(args, ["--seconds", str(half), "--trace", "0"], env=env)
        single = child["result"]["metrics"]["ops_per_s"]["value"]
        metrics["baseline_1thread.ops_per_s"] = single
        metrics["baseline_1thread.speedup"] = plain_rate / single
        report["baseline_1thread"] = {
            "blas_threads": child["report"]["report"]["env"]["blas_threads"],
            "correct": child["result"]["correct"],
        }
    return plain + traced, metrics


# --- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_kronspec()
    from perfbench import workloads

    wl = workloads.WORKLOADS[args.workload]
    if args.prepare_only:
        print(json.dumps({"prepared": str(workloads.prepare(wl, args.seed, CACHE)[0])}))
        return 0
    if not (workloads.cache_dir(wl, args.seed, CACHE) / "ops.json").is_file():
        # generate in a child so that its memory stays out of peak_rss_mb
        run_child(args, ["--prepare-only"])
    directory, ops = workloads.prepare(wl, args.seed, CACHE)
    warm = workloads.warmup_ops(wl, ops)
    t0 = time.perf_counter()
    warm_records = [(op, *wl.time_op(op, directory)) for op in warm]
    setup_s = import_s + time.perf_counter() - t0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    report = {"env": environment(args)}
    if args.trace:
        records, metrics = traced_run(args, wl, ops, directory, report)
    else:
        setups = [setup_s] + [run_child(args, ["--setup-probe"])["result"]["setup_s"]
                              for _ in range(SETUP_PROBES)]
        records = measure(wl, ops, directory, args.seconds)
        summary = latency_summary(records, len(ops))
        metrics = {key: summary[key] for key in ("ops_per_s", "latency_p50_ms", "latency_p90_ms")}
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["setup_samples_s"] = setups
        report["latency"] = summary

    statuses = [s for r in records for s in r[2].statuses]
    steps = sum(r[2].path_steps for r in records)
    report["decided_share"] = (
        sum(s != "Indeterminate" for s in statuses) / len(statuses) if statuses else None)
    report["path_steps_per_s"] = steps / sum(r[1] for r in records) if steps else None
    shares = [r[2].entry_share for r in records if r[2].entry_share is not None]
    if shares:
        report["entry_pass_share_per_op"] = sorted(set(round(s, 4) for s in shares))
    if args.trace:
        metrics["decided_share"] = report["decided_share"] or 0.0
        metrics["path_steps_per_s"] = report["path_steps_per_s"] or 0.0

    everything = warm_records + records
    failures = [(op["kind"], op.get("file"), out.detail) for op, _, out in everything if not out.ok]
    report["failures"] = failures[:10]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"benchmark did not compute {missing}")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(everything),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
