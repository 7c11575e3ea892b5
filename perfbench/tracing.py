"""Spans and counters recorded around calls into kronspec's public functions.

The traced run wraps each function listed in ``TARGETS`` and rebinds every
name in the ``kronspec`` modules that refers to it, so calls made inside the
package (``cli`` calling ``sysio.load_system``, ``montecarlo`` calling
``evolution.propagate_discrete``) are recorded too.  Nothing under ``src/``
changes; leaving the ``with`` block puts the original functions back.

A span is ``[op index, name, start, end, parent span]``.  Spans stay in memory
and are aggregated when the run ends.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, index, key, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def _by_route(prefix, default):
    """Span name that appends the ``route`` argument (fifth positional)."""
    return lambda args, kwargs: f"{prefix}.{_arg(args, kwargs, 4, 'route', default)}"


def _note_file_bytes(tr, args, kwargs, result, seconds):
    tr.counts["sysio.load_system.bytes"] += os.path.getsize(args[0])


def _note_dense_bytes(tr, args, kwargs, result, seconds):
    # one complex128 d^2-by-d^2 matrix; computed from the size, not measured
    tr.counts["kronsum.dense_bytes"] += 16 * args[0].d ** 4


def _note_bracket(tr, args, kwargs, result, seconds):
    lower, upper = result
    tr.samples["bracket_width"].append(upper - lower)


def _note_discrepancy(tr, args, kwargs, result, seconds):
    tr.samples[f"discrepancy.{args[0].mode}"].append(result)


def _note_paths(tr, args, kwargs, result, seconds):
    spec, u, v, cfg = args[:4]
    same = bool(np.array_equal(np.asarray(u), np.asarray(v)))
    if result.mode == "discrete":
        steps = int(cfg.horizon)
    else:
        steps = int(round(float(cfg.horizon) / cfg.dt))
    bucket = result.mode if same else "uv"
    tr.counts[f"path_steps.{bucket}"] += cfg.paths * steps * (1 if same else 2)
    tr.counts[f"mc_seconds.{bucket}"] += seconds


def _note_entry_share(tr, args, kwargs, result, seconds):
    passed = np.concatenate([np.ravel(e) for e in result.entry_pass])
    tr.samples["entry_share"].append(float(np.mean(passed)))


#: (module, attribute, span name or function of the call's arguments, note)
TARGETS = (
    ("kronspec.cli", "main", "cli.main", None),
    ("kronspec.sysio", "load_system", "sysio.load_system", _note_file_bytes),
    ("kronspec.kronsum", "build_discrete_gram", "kronsum.build_discrete_gram", None),
    ("kronspec.kronsum", "build_continuous_gram", "kronsum.build_continuous_gram", None),
    ("kronspec.kronsum", "build_discrete_sum", "kronsum.build_discrete_sum", _note_dense_bytes),
    ("kronspec.kronsum", "build_continuous_sum", "kronsum.build_continuous_sum", _note_dense_bytes),
    ("kronspec.kronsum", "classify_stability", "kronsum.classify_stability", None),
    ("kronspec.spectral", "hermitian_extremes", "spectral.hermitian_extremes", _note_bracket),
    ("kronspec.spectral", "summarize", "spectral.summarize", None),
    ("kronspec.evolution", "propagate_continuous",
     _by_route("evolution.propagate_continuous", "kronecker"), None),
    ("kronspec.evolution", "propagate_discrete",
     _by_route("evolution.propagate_discrete", "direct"), None),
    ("kronspec.evolution", "matrix_exponential", "evolution.matrix_exponential", None),
    ("kronspec.evolution", "max_relative_discrepancy", "evolution.max_relative_discrepancy",
     _note_discrepancy),
    ("kronspec.montecarlo", "simulate_continuous", "montecarlo.simulate_continuous", _note_paths),
    ("kronspec.montecarlo", "simulate_discrete", "montecarlo.simulate_discrete", _note_paths),
    ("kronspec.montecarlo", "compare_to_exact", "montecarlo.compare_to_exact", _note_entry_share),
)


class Tracer:
    """Installs the wrappers for the duration of a ``with`` block."""

    def __init__(self):
        self.op = None
        self.spans = []
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, note):
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(self.spans)
            self.spans.append([self.op, label, time.perf_counter(), None,
                               self._stack[-1] if self._stack else None])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][3] = time.perf_counter()
            if note is not None:
                note(self, args, kwargs, result, self.spans[idx][3] - self.spans[idx][2])
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        modules = [mod for key, mod in sys.modules.items()
                   if key == "kronspec" or key.startswith("kronspec.")]
        for modname, attr, name, note in TARGETS:
            original = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(name, original, note)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))
        # SystemSpec validates and converts its matrices in __post_init__
        spec_cls = sys.modules["kronspec.matrices"].SystemSpec
        original = spec_cls.__post_init__
        spec_cls.__post_init__ = self._wrap("matrices.SystemSpec", original, None)
        self._undo.append((spec_cls, "__post_init__", original))
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
        return False

    def per_op(self):
        """{op index: {span name: [total s, self s, calls]}}."""
        child = defaultdict(float)
        for op, name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
        for i, (op, name, start, end, parent) in enumerate(self.spans):
            rec = out[op][name]
            rec[0] += end - start
            rec[1] += end - start - child[i]
            rec[2] += 1
        return out


def _mean_over_ops(per_op, n_ops, name, field):
    return sum(rec[name][field] for rec in per_op.values() if name in rec) / n_ops


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-layer metrics, averaged per op; 0 where the workload never calls the layer."""
    per_op = tracer.per_op()
    ms = lambda name: 1e3 * _mean_over_ops(per_op, n_ops, name, 0)
    calls = lambda name: _mean_over_ops(per_op, n_ops, name, 2)
    counts, samples = tracer.counts, tracer.samples

    def ns_per_step(bucket):
        steps = counts[f"path_steps.{bucket}"]
        return 1e9 * counts[f"mc_seconds.{bucket}"] / steps if steps else 0.0

    classify_calls = calls("kronsum.classify_stability")
    out = {
        "sysio.load_system.ms": ms("sysio.load_system"),
        "sysio.load_system.bytes": counts["sysio.load_system.bytes"] / n_ops,
        "cli.main.self_ms": 1e3 * _mean_over_ops(per_op, n_ops, "cli.main", 1),
        "matrices.SystemSpec.ms": ms("matrices.SystemSpec"),
        "kronsum.dense_bytes": counts["kronsum.dense_bytes"] / n_ops,
        "kronsum.dense_fallback_share": (
            calls("spectral.summarize") / classify_calls if classify_calls else 0.0),
        "kronsum.bracket_width_median": (
            statistics.median(samples["bracket_width"]) if samples["bracket_width"] else 0.0),
        "spectral.hermitian_extremes.calls": calls("spectral.hermitian_extremes"),
        "spectral.summarize.calls": calls("spectral.summarize"),
        "evolution.matrix_exponential.calls": calls("evolution.matrix_exponential"),
        "evolution.route_discrepancy_max.continuous":
            max(samples["discrepancy.continuous"], default=0.0),
        "evolution.route_discrepancy_max.discrete":
            max(samples["discrepancy.discrete"], default=0.0),
        "montecarlo.ns_per_path_step.continuous": ns_per_step("continuous"),
        "montecarlo.ns_per_path_step.discrete": ns_per_step("discrete"),
        "montecarlo.ns_per_path_step.uv": ns_per_step("uv"),
        "montecarlo.entry_pass_share": min(samples["entry_share"], default=0.0),
    }
    for name in ("kronsum.build_discrete_gram", "kronsum.build_continuous_gram",
                 "kronsum.build_discrete_sum", "kronsum.build_continuous_sum",
                 "spectral.hermitian_extremes", "spectral.summarize",
                 "evolution.propagate_continuous.ode", "evolution.propagate_continuous.kronecker",
                 "evolution.propagate_discrete.direct", "evolution.propagate_discrete.kronecker",
                 "evolution.matrix_exponential", "montecarlo.simulate_continuous",
                 "montecarlo.simulate_discrete", "montecarlo.compare_to_exact"):
        out[f"{name}.ms"] = ms(name)
    return out


def dominant(tracer: Tracer, ops) -> tuple[str, float]:
    """The span name with the most self time over the given op indices, and
    its share of the traced self time there."""
    per_op = tracer.per_op()
    total = defaultdict(float)
    for op in ops:
        for name, (_, self_s, _) in per_op.get(op, {}).items():
            total[name] += self_s
    if not total:
        return "none", 0.0
    top = max(total, key=total.get)
    return top, total[top] / sum(total.values())
