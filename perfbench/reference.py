"""Reference answers in plain numpy, written without calling kronspec.

Every check the benchmark makes compares the program's output with a value
computed here from the same input data: Hermitian companion extremes by
``eigvalsh``, spectra of the d^2-by-d^2 sums built with ``np.kron``, and
covariance trajectories by the one-step recursion (discrete) or a Taylor
series matrix exponential with scaling and squaring (continuous), which is a
different algorithm from the program's Pade approximant.
"""

from __future__ import annotations

import math

import numpy as np


def companion(a: np.ndarray, bs: list[np.ndarray], mode: str) -> np.ndarray:
    """N = A*A + sum B*B (discrete) or M = A + A* + sum B*B (continuous)."""
    out = a.conj().T @ a if mode == "discrete" else a + a.conj().T
    for b in bs:
        out = out + b.conj().T @ b
    return (out + out.conj().T) / 2.0


def companion_extremes(a, bs, mode) -> tuple[float, float]:
    w = np.linalg.eigvalsh(companion(a, bs, mode))
    return float(w[0]), float(w[-1])


def dense_sum(a: np.ndarray, bs: list[np.ndarray], mode: str) -> np.ndarray:
    """D (discrete) or C (continuous), the d^2-by-d^2 stochastic Kronecker sum."""
    if mode == "discrete":
        out = np.kron(a.conj(), a)
    else:
        eye = np.eye(a.shape[0])
        out = np.kron(a.conj(), eye) + np.kron(eye, a)
    for b in bs:
        out = out + np.kron(b.conj(), b)
    return out


def spectral_value(a, bs, mode) -> float:
    """rho(D) for discrete mode, alpha(C) for continuous mode."""
    w = np.linalg.eigvals(dense_sum(a, bs, mode))
    return float(np.max(np.abs(w))) if mode == "discrete" else float(np.max(w.real))


def expm_taylor(x: np.ndarray) -> np.ndarray:
    """exp(x) by a degree-24 Taylor polynomial of x / 2^s, squared s times."""
    norm = float(np.linalg.norm(x, 1))
    s = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    y = x / 2.0 ** s
    term = np.eye(x.shape[0], dtype=np.complex128)
    out = term.copy()
    for k in range(1, 25):
        term = term @ y / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def covariance_discrete(a, bs, u, v, steps: int) -> list[np.ndarray]:
    """V(0..steps) of V(n+1) = A V(n) A* + sum B V(n) B*, V(0) = u v*."""
    cur = np.outer(u, v.conj())
    out = [cur]
    for _ in range(steps):
        nxt = a @ cur @ a.conj().T
        for b in bs:
            nxt = nxt + b @ cur @ b.conj().T
        out.append(nxt)
        cur = nxt
    return out


def covariance_continuous(a, bs, u, v, times) -> list[np.ndarray]:
    """V(t) = unvec(exp(t C) vec(u v*)) at each time, vec stacking columns."""
    d = a.shape[0]
    c = dense_sum(a, bs, "continuous")
    w0 = np.outer(u, v.conj()).reshape(-1, order="F")
    return [(expm_taylor(t * c) @ w0).reshape((d, d), order="F") for t in times]


def relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    """max |got - want| over max(|got|, |want|), the measure of criterion 4."""
    scale = max(float(np.max(np.abs(got))), float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) / scale
