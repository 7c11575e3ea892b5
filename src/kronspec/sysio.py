"""JSON system files and complex-number serialization for the CLI.

A system file is a JSON document::

    {
      "d": 2,
      "m": 1,
      "A": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.7, 0.0]]],
      "B": [ ...m matrices shaped like A... ]
    }

Every complex number is a two-element ``[re, im]`` array of JSON numbers.
A matrix or vector of them is converted in one step: its shape is checked
first, then its numbers are gathered in one flat list, checked to be plain
ints and floats, and converted by one ``np.array`` call with one finiteness
check.  Only when that fails does a per-entry walk run, to name the first
bad entry (it also converts, one by one, real numbers of other types from a
caller's own lists).  Parse failures carry a location: line/column for malformed JSON,
a JSON path like ``A[0][1]`` for structural problems and bad entries.
"""

from __future__ import annotations

import json
import math
import numbers
from itertools import chain

import numpy as np

from .matrices import SystemSpec


class SystemFileError(ValueError):
    """Malformed system file or vector; ``location`` points at the offender."""

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        super().__init__(f"{message} (at {location})" if location else message)


def _parse_complex(node, loc: str) -> complex:
    if (
        not isinstance(node, (list, tuple))
        or len(node) != 2
        or not all(isinstance(p, numbers.Real) and not isinstance(p, bool) for p in node)
    ):
        raise SystemFileError("complex entries must be [re, im] pairs of numbers", loc)
    try:
        re, im = float(node[0]), float(node[1])
    except OverflowError:  # an integer literal beyond double range
        re = im = math.inf
    if not (math.isfinite(re) and math.isfinite(im)):
        raise SystemFileError("non-finite complex entry", loc)
    return complex(re, im)


def _convert_pairs(entries: list, shape: tuple) -> np.ndarray | None:
    """``entries``, flat ``[re, im]`` pairs, as a complex array of ``shape`` in one conversion.

    None unless every entry is a list or tuple of two ints or floats (no
    bools, strings or nulls, which ``np.array`` would take) and every number
    is finite in double precision; the caller then walks the entries to
    name the first bad one.  Real and imaginary parts are stored apart, so
    the result equals ``complex(re, im)`` per entry bit for bit.
    """
    if not (set(map(type, entries)) <= {list, tuple} and set(map(len, entries)) == {2}):
        return None
    leaves = list(chain.from_iterable(entries))
    if not set(map(type, leaves)) <= {float, int}:
        return None
    try:
        parts = np.array(leaves, dtype=float).reshape(*shape, 2)
    except OverflowError:  # an integer literal beyond double range
        return None
    if not np.isfinite(parts).all():
        return None
    out = np.empty(shape, dtype=np.complex128)
    out.real = parts[..., 0]
    out.imag = parts[..., 1]
    return out


def _parse_matrix(node, d: int, loc: str) -> np.ndarray:
    if not isinstance(node, list) or len(node) != d:
        raise SystemFileError(f"expected {d} rows", loc)
    for i, row in enumerate(node):  # every row's shape before the d-by-d allocation
        if not isinstance(row, list) or len(row) != d:
            raise SystemFileError(f"expected {d} entries", f"{loc}[{i}]")
    out = _convert_pairs(list(chain.from_iterable(node)), (d, d))
    if out is None:
        out = np.array([[_parse_complex(entry, f"{loc}[{i}][{j}]") for j, entry in enumerate(row)]
                        for i, row in enumerate(node)])
    return out


def parse_system(doc) -> SystemSpec:
    """Build a :class:`SystemSpec` from a decoded system-file document."""
    if not isinstance(doc, dict):
        raise SystemFileError("system file must be a JSON object")
    for key in ("d", "m", "A", "B"):
        if key not in doc:
            raise SystemFileError(f"missing required key {key!r}")
    d, m = doc["d"], doc["m"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise SystemFileError("'d' must be a positive integer", "d")
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise SystemFileError("'m' must be a nonnegative integer", "m")
    a = _parse_matrix(doc["A"], d, "A")
    if not isinstance(doc["B"], list) or len(doc["B"]) != m:
        raise SystemFileError(f"'B' must be a list of {m} matrices", "B")
    noise = tuple(_parse_matrix(bk, d, f"B[{k}]") for k, bk in enumerate(doc["B"]))
    return SystemSpec(a, noise)


def load_system(path) -> SystemSpec:
    """Read and validate a system file from disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemFileError(f"cannot read system file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemFileError(
            f"invalid JSON: {exc.msg}", f"line {exc.lineno}, column {exc.colno}"
        ) from exc
    except (RecursionError, ValueError) as exc:  # nested too deeply, or too many digits
        raise SystemFileError(f"invalid JSON: {exc}") from exc
    return parse_system(doc)


def parse_vector(source, d: int | None = None) -> np.ndarray:
    """Parse a vector given as JSON text or a decoded list of [re, im] pairs."""
    if isinstance(source, str):
        try:
            source = json.loads(source)
        except json.JSONDecodeError as exc:
            raise SystemFileError(
                f"invalid vector JSON: {exc.msg}", f"column {exc.colno}"
            ) from exc
        except (RecursionError, ValueError) as exc:
            raise SystemFileError(f"invalid vector JSON: {exc}") from exc
    if not isinstance(source, list) or not source:
        raise SystemFileError("vector must be a nonempty JSON array of [re, im] pairs")
    out = _convert_pairs(source, (len(source),))
    if out is None:
        out = np.array([_parse_complex(e, f"[{i}]") for i, e in enumerate(source)])
    if d is not None and out.shape[0] != d:
        raise SystemFileError(f"vector has dimension {out.shape[0]}, expected {d}")
    return out


def matrix_pairs(m: np.ndarray) -> list[list[list[float]]]:
    """Nested rows of ``[re, im]`` pairs, the form every complex matrix is written in."""
    m = np.asarray(m, dtype=np.complex128)
    return np.stack((m.real, m.imag), axis=-1).tolist()
