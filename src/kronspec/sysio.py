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
first, then its entries are checked against the one entry rule of
:func:`_parts` and converted by one ``np.array`` call with one finiteness
check.  Only when that fails does a walk apply the same rule to one entry
at a time, to name the first bad entry.  Parse failures carry a location:
line/column for malformed JSON, a JSON path like ``A[0][1]`` for structural
problems and bad entries.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .matrices import SystemSpec


class SystemFileError(ValueError):
    """Malformed system file or vector; ``location`` points at the offender."""

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        super().__init__(f"{message} (at {location})" if location else message)


_NOT_A_PAIR = "complex entries must be [re, im] pairs of numbers"


def _parts(entries: list) -> np.ndarray | str:
    """``entries`` as a flat float array of their [re, im] parts, or why one is not valid.

    The one entry rule: a valid entry is a list or tuple of two ints or floats
    (no bools, strings, nulls or other number types, which ``np.array`` would
    take), each finite in double precision.  One ``np.array`` call converts
    them all; an integer beyond double range is non-finite.
    """
    if not (set(map(type, entries)) <= {list, tuple} and set(map(len, entries)) == {2}):
        return _NOT_A_PAIR
    leaves = list(chain.from_iterable(entries))
    if not set(map(type, leaves)) <= {float, int}:
        return _NOT_A_PAIR
    try:
        parts = np.array(leaves, dtype=float)
    except OverflowError:  # an integer literal beyond double range
        return "non-finite complex entry"
    return parts if np.isfinite(parts).all() else "non-finite complex entry"


def _complex(entries: list, shape: tuple, where) -> np.ndarray:
    """Flat ``[re, im]`` ``entries`` as a complex array of ``shape``.

    When :func:`_parts` refuses them, a walk applies it to each entry alone
    and raises the first refusal at ``where(i)``, entry i's location.  Real
    and imaginary parts are stored apart, so the result equals
    ``complex(re, im)`` per entry bit for bit.
    """
    parts = _parts(entries)
    if isinstance(parts, str):
        for i, entry in enumerate(entries):
            if isinstance(refusal := _parts([entry]), str):
                raise SystemFileError(refusal, where(i))
    parts = parts.reshape(*shape, 2)
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
    return _complex(list(chain.from_iterable(node)), (d, d),
                    lambda k: f"{loc}[{k // d}][{k % d}]")


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
    out = _complex(source, (len(source),), lambda i: f"[{i}]")
    if d is not None and out.shape[0] != d:
        raise SystemFileError(f"vector has dimension {out.shape[0]}, expected {d}")
    return out


def matrix_pairs(m: np.ndarray) -> list:
    """``m`` with each entry as an ``[re, im]`` pair, the form every complex array is written in.

    A matrix gives nested rows of pairs, a vector a list of pairs.
    """
    m = np.asarray(m, dtype=np.complex128)
    return np.stack((m.real, m.imag), axis=-1).tolist()
