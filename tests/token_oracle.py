"""The matrix and point readers token by token: the loadtxt reader's oracle.

These are ``fileio.load_matrix`` and ``fileio.load_points`` as they were
before bodies went through one ``numpy.loadtxt`` call, kept here to pin it:
every body must give the same array bit for bit, or the same
``FormatError`` message. They share ``fileio``'s header and integer
helpers, which did not change.
"""

from __future__ import annotations

import numpy as np

from specbound.errors import FormatError
from specbound.fileio import _ints, _read


def finite_numbers(path, tokens: list[str]) -> np.ndarray:
    try:
        nums = np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError as exc:
        raise FormatError(f"{path}: non-numeric entry") from exc
    if not np.isfinite(nums).all():
        raise FormatError(f"{path}: non-finite entry {nums[~np.isfinite(nums)][0]}")
    return nums


def load_matrix(path) -> np.ndarray:
    fields, body = _read(path, "matrix <rows> <cols> <real|complex>")
    n_rows, n_cols = _ints(path, fields[:2], "bad dimensions in header")
    if n_rows < 1 or n_cols < 1:
        raise FormatError(f"{path}: dimensions must be at least 1, got {n_rows}x{n_cols}")
    kind = fields[2]
    if kind not in ("real", "complex"):
        raise FormatError(f"{path}: field type must be 'real' or 'complex'")
    tokens = " ".join(body).split()
    expected = n_rows * n_cols * (2 if kind == "complex" else 1)
    if len(tokens) != expected:
        raise FormatError(f"{path}: expected {expected} numbers, found {len(tokens)}")
    nums = finite_numbers(path, tokens)
    mat = nums.view(complex) if kind == "complex" else nums.astype(complex)
    return mat.reshape(n_rows, n_cols)


def load_points(path) -> np.ndarray:
    fields, body = _read(path, "points <count>")
    (count,) = _ints(path, fields, "bad count")
    tokens = " ".join(body).split()
    if len(tokens) != 2 * count:
        raise FormatError(f"{path}: expected {count} 're im' pairs")
    return finite_numbers(path, tokens).view(complex)
