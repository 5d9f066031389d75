"""Text formats shared by the CLI; no other module reads or writes them.

Matrix file:    ``matrix <rows> <cols> <real|complex>`` then rows*cols entries
                whitespace-separated in row-major order (a complex entry is
                two consecutive floats ``re im``); lines may break anywhere.
Point-set file: ``points <count>`` then one ``re im`` pair per line.
Graph file:     ``graph <n_vertices>`` then ``u v w`` per edge, 0-based.
Cut file:       ``cut <n> <q>`` then one label per line in {0..q-1}.
Spectrum file:  ``spectrum <n>`` then ``index re im`` per line (1-based index).

Grammar. A file is split into lines as ``str.splitlines`` does (``\\n``,
``\\r\\n``, ``\\r`` and the other Unicode line breaks), and each line is
stripped of whitespace; empty lines and lines starting with ``#`` are
skipped. A ``#`` anywhere else is not a comment. The first line left is the
header. Fields are separated by any Unicode whitespace:

- Header numbers, graph endpoints, cut labels and spectrum indices are plain
  decimal integers, ``[+-]?[0-9]+``; ``3_0``, ``1.0`` and non-ASCII digits
  are rejected. Graph endpoints must also fit in 64 bits, and a graph has at
  most 3 037 000 499 vertices (floor(sqrt(2**63 - 1)), so that every vertex
  pair has a 64-bit key).
- Matrix, point and spectrum entries (``re``, ``im``) use Python ``float``
  syntax and must be finite (``nan`` and ``inf`` are rejected).
- Graph weights are read by ``numpy.loadtxt``: Python ``float`` syntax
  without ``_`` separators or non-ASCII digits. Every edge line has exactly
  three fields.

Files are decoded as UTF-8 whatever the locale. A file that breaks the
grammar, or that cannot be read or decoded, raises :class:`FormatError`.
Writers put one record per line (a matrix row per line) and every float in
``%.17g``, which reads back bit for bit. They write line by line through one
open file, so the file's text is never held whole.

Reading does not change the grammar. A matrix or point body goes through
one ``numpy.loadtxt`` call when its C reader takes it: ASCII fields, every
line with the same number of them. That reader converts each field with
``PyOS_string_to_double``, the routine behind ``float``, so it gives
``float``'s value. Any other body (``1_0``, non-ASCII digits, lines of
different lengths), and one without the expected count of finite entries,
is read again with ``float`` per token. So the accepted files, their
values and every error message are those of the token reader alone.
"""

from __future__ import annotations

import csv
import re
from pathlib import Path

import numpy as np

from .errors import FormatError
from .graphs import QCut, WeightedGraph

_EDGE = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])
_DECIMAL = re.compile(r"[+-]?[0-9]+")  # int() would also take "3_0" and other scripts' digits
# Writers convert this many rows of columns to Python numbers at a time, so a
# file is written without its whole text, or all its rows as Python objects,
# in memory at once.
WRITE_CHUNK = 4096


def _read(path, header: str) -> tuple[list[str], list[str]]:
    """The header fields after the keyword, and the body lines, of a file in ``header``'s format."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    lines = [s for line in text.splitlines() if (s := line.strip()) and s[0] != "#"]
    if not lines:
        raise FormatError(f"{path}: empty file")
    fields, expected = lines[0].split(), header.split()
    if len(fields) != len(expected) or fields[0] != expected[0]:
        raise FormatError(f"{path}: expected header '{header}'")
    return fields[1:], lines[1:]


def _ints(path, tokens: list[str], message: str) -> list[int]:
    if not all(map(_DECIMAL.fullmatch, tokens)):
        raise FormatError(f"{path}: {message}")
    return [int(x) for x in tokens]


def _entries(path, body: list[str], count: int, mismatch: str) -> np.ndarray:
    """The ``count`` finite floats of the body lines, in order: one loadtxt call, else by token.

    ``mismatch``, formatted with ``found``, words the error for a wrong count.
    """
    if body:  # loadtxt warns on no lines at all
        try:
            nums = np.loadtxt(body, float, comments=None, ndmin=1).ravel()
        except ValueError:
            pass
        else:
            if nums.size == count and np.isfinite(nums).all():
                return nums
    return _token_entries(path, body, count, mismatch)


def _token_entries(path, body: list[str], count: int, mismatch: str) -> np.ndarray:
    """``_entries`` token by token: split on whitespace, count, then ``float`` each token."""
    tokens = " ".join(body).split()
    if len(tokens) != count:
        raise FormatError(f"{path}: " + mismatch.format(found=len(tokens)))
    return _finite_numbers(path, tokens)


def _finite_numbers(path, tokens: list[str]) -> np.ndarray:
    try:
        nums = np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError as exc:
        raise FormatError(f"{path}: non-numeric entry") from exc
    if not np.isfinite(nums).all():
        raise FormatError(f"{path}: non-finite entry {nums[~np.isfinite(nums)][0]}")
    return nums


def _write_lines(path, header: str, lines) -> None:
    """Write the header line, then ``lines`` (each ending in a newline) as they come."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


def _column_lines(line: str, *columns: np.ndarray):
    """``line % row`` for each row of the equal-length ``columns``, WRITE_CHUNK rows at a time."""
    for start in range(0, len(columns[0]), WRITE_CHUNK):
        chunk = (c[start : start + WRITE_CHUNK].tolist() for c in columns)
        yield from map(line.__mod__, zip(*chunk))


def load_matrix(path) -> np.ndarray:
    fields, body = _read(path, "matrix <rows> <cols> <real|complex>")
    n_rows, n_cols = _ints(path, fields[:2], "bad dimensions in header")
    if n_rows < 1 or n_cols < 1:
        raise FormatError(f"{path}: dimensions must be at least 1, got {n_rows}x{n_cols}")
    kind = fields[2]
    if kind not in ("real", "complex"):
        raise FormatError(f"{path}: field type must be 'real' or 'complex'")
    expected = n_rows * n_cols * (2 if kind == "complex" else 1)
    nums = _entries(path, body, expected, f"expected {expected} numbers, found {{found}}")
    mat = nums.view(complex) if kind == "complex" else nums.astype(complex)
    return mat.reshape(n_rows, n_cols)


def save_matrix(path, matrix) -> None:
    mat = np.asarray(matrix)
    is_complex = np.iscomplexobj(mat) and np.abs(mat.imag).max(initial=0.0) > 0
    kind = "complex" if is_complex else "real"
    parts = np.stack((mat.real, mat.imag), axis=-1) if is_complex else np.real(mat)
    width = mat.shape[1] * (2 if is_complex else 1)
    line = " ".join(["%.17g"] * width) + "\n"
    rows = parts.reshape(mat.shape[0], width).astype(float)
    header = f"matrix {mat.shape[0]} {mat.shape[1]} {kind}"
    _write_lines(path, header, (line % tuple(row.tolist()) for row in rows))


def load_points(path) -> np.ndarray:
    fields, body = _read(path, "points <count>")
    (count,) = _ints(path, fields, "bad count")
    return _entries(path, body, 2 * count, f"expected {count} 're im' pairs").view(complex)


def load_graph(path) -> WeightedGraph:
    fields, body = _read(path, "graph <n_vertices>")
    (n,) = _ints(path, fields, "bad vertex count")
    try:  # loadtxt warns on no lines at all
        edges = np.loadtxt(body, _EDGE, comments=None, ndmin=1) if body else np.zeros(0, _EDGE)
    except ValueError as exc:
        raise FormatError(f"{path}: edge lines must be 'u v w' with integers u, v") from exc
    try:
        return WeightedGraph.from_arrays(n, edges["u"], edges["v"], edges["w"])
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_graph(path, graph: WeightedGraph) -> None:
    lines = _column_lines("%d %d %.17g\n", graph.u, graph.v, graph.w)
    _write_lines(path, f"graph {graph.n_vertices}", lines)


def load_cut(path) -> QCut:
    fields, body = _read(path, "cut <n> <q>")
    n, q = _ints(path, fields, "bad header numbers")
    tokens = " ".join(body).split()
    if len(tokens) != n:
        raise FormatError(f"{path}: expected {n} labels, found {len(tokens)}")
    try:
        return QCut(labels=np.fromiter(_ints(path, tokens, "non-integer label"), np.int64, n), q=q)
    except OverflowError:  # a label past 64 bits lies outside [0, q) for every q <= n
        raise FormatError(f"{path}: labels must lie in [0, {q})") from None
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_cut(path, cut: QCut) -> None:
    lines = [f"cut {len(cut.labels)} {cut.q}"]
    lines.extend(str(x) for x in cut.labels)
    Path(path).write_text("\n".join(lines) + "\n")


def save_spectrum(path, eigenvalues) -> None:
    vals = np.asarray(eigenvalues, dtype=complex)
    lines = _column_lines("%d %.17g %.17g\n", np.arange(1, len(vals) + 1), vals.real, vals.imag)
    _write_lines(path, f"spectrum {len(vals)}", lines)


def load_spectrum(path) -> np.ndarray:
    fields, body = _read(path, "spectrum <n>")
    (n,) = _ints(path, fields, "bad eigenvalue count")
    if len(body) != n:
        raise FormatError(f"{path}: expected {n} eigenvalue lines")
    rows = [line.split() for line in body]
    if any(len(row) != 3 for row in rows):
        raise FormatError(f"{path}: eigenvalue lines must be 'index re im'")
    index = _ints(path, [row[0] for row in rows], "non-integer eigenvalue index")
    if not all(1 <= i <= n for i in index):
        raise FormatError(f"{path}: eigenvalue index outside 1..{n}")
    if len(set(index)) != n:
        raise FormatError(f"{path}: repeated eigenvalue index")
    out = np.empty(n, dtype=complex)
    out[np.array(index, dtype=np.intp) - 1] = _finite_numbers(
        path, [tok for row in rows for tok in row[1:]]
    ).view(complex)
    return out


def write_spectrum_csv(path, eigenvalues) -> None:
    vals = np.asarray(eigenvalues, dtype=complex)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "re", "im"])
        for i, z in enumerate(vals):
            writer.writerow([i + 1, f"{z.real:.17g}", f"{z.imag:.17g}"])


def write_cluster_csv(path, rows: list[dict]) -> None:
    """Per-cluster table: cluster (1-based), size, total ED, coupling, MED."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster", "size", "total_external_degree", "coupling", "med"])
        for row in rows:
            writer.writerow(
                [
                    row["cluster"] + 1,
                    row["size"],
                    f"{row['total_external_degree']:.17g}",
                    f"{row['coupling']:.17g}",
                    f"{row['med']:.17g}",
                ]
            )
