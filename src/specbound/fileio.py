"""Text formats shared by the CLI.

Matrix file:    ``matrix <rows> <cols> <real|complex>`` then rows*cols entries
                whitespace-separated in row-major order (a complex entry is
                two consecutive floats ``re im``).
Point-set file: ``points <count>`` then one ``re im`` pair per line.
Graph file:     ``graph <n_vertices>`` then ``u v w`` per edge, 0-based.
Cut file:       ``cut <n> <q>`` then one label per line in {0..q-1}.
Spectrum file:  ``spectrum <n>`` then ``index re im`` per line (1-based index).

Lines starting with ``#`` are comments everywhere. Matrix and point entries
must be finite (``nan`` and ``inf`` are rejected).
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import FormatError
from .graphs import QCut, WeightedGraph


def _tokens(path) -> list[list[str]]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    rows = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append(stripped.split())
    if not rows:
        raise FormatError(f"{path}: empty file")
    return rows


def _flat(rows: list[list[str]]) -> list[str]:
    return [tok for row in rows for tok in row]


def _finite_numbers(path, tokens: list[str]) -> np.ndarray:
    try:
        nums = np.array([float(x) for x in tokens])
    except ValueError as exc:
        raise FormatError(f"{path}: non-numeric entry") from exc
    if not np.isfinite(nums).all():
        raise FormatError(f"{path}: non-finite entry {nums[~np.isfinite(nums)][0]}")
    return nums


def load_matrix(path) -> np.ndarray:
    rows = _tokens(path)
    header = rows[0]
    if len(header) != 4 or header[0] != "matrix":
        raise FormatError(f"{path}: expected header 'matrix <rows> <cols> <real|complex>'")
    try:
        n_rows, n_cols = int(header[1]), int(header[2])
    except ValueError as exc:
        raise FormatError(f"{path}: bad dimensions in header") from exc
    if n_rows < 1 or n_cols < 1:
        raise FormatError(f"{path}: dimensions must be at least 1, got {n_rows}x{n_cols}")
    kind = header[3]
    if kind not in ("real", "complex"):
        raise FormatError(f"{path}: field type must be 'real' or 'complex'")
    per_entry = 2 if kind == "complex" else 1
    body = _flat(rows[1:])
    expected = n_rows * n_cols * per_entry
    if len(body) != expected:
        raise FormatError(
            f"{path}: expected {expected} numbers, found {len(body)}"
        )
    nums = _finite_numbers(path, body)
    if kind == "complex":
        nums = nums[0::2] + 1j * nums[1::2]
    return nums.reshape(n_rows, n_cols).astype(complex)


def save_matrix(path, matrix) -> None:
    mat = np.asarray(matrix)
    is_complex = np.iscomplexobj(mat) and np.abs(mat.imag).max(initial=0.0) > 0
    kind = "complex" if is_complex else "real"
    lines = [f"matrix {mat.shape[0]} {mat.shape[1]} {kind}"]
    for row in mat:
        if kind == "complex":
            lines.append(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row))
        else:
            lines.append(" ".join(f"{float(np.real(z)):.17g}" for z in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_points(path) -> np.ndarray:
    rows = _tokens(path)
    header = rows[0]
    if len(header) != 2 or header[0] != "points":
        raise FormatError(f"{path}: expected header 'points <count>'")
    try:
        count = int(header[1])
    except ValueError as exc:
        raise FormatError(f"{path}: bad count") from exc
    body = _flat(rows[1:])
    if len(body) != 2 * count:
        raise FormatError(f"{path}: expected {count} 're im' pairs")
    nums = _finite_numbers(path, body)
    return nums[0::2] + 1j * nums[1::2]


def load_graph(path) -> WeightedGraph:
    rows = _tokens(path)
    header = rows[0]
    if len(header) != 2 or header[0] != "graph":
        raise FormatError(f"{path}: expected header 'graph <n_vertices>'")
    try:
        n = int(header[1])
    except ValueError as exc:
        raise FormatError(f"{path}: bad vertex count") from exc
    edges = []
    for row in rows[1:]:
        if len(row) != 3:
            raise FormatError(f"{path}: edge lines must be 'u v w'")
        try:
            edges.append((int(row[0]), int(row[1]), float(row[2])))
        except ValueError as exc:
            raise FormatError(f"{path}: bad edge line {' '.join(row)}") from exc
    try:
        return WeightedGraph(n_vertices=n, edges=tuple(edges))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_graph(path, graph: WeightedGraph) -> None:
    lines = [f"graph {graph.n_vertices}"]
    lines.extend(f"{u} {v} {w:.17g}" for u, v, w in graph.edges)
    Path(path).write_text("\n".join(lines) + "\n")


def load_cut(path) -> QCut:
    rows = _tokens(path)
    header = rows[0]
    if len(header) != 3 or header[0] != "cut":
        raise FormatError(f"{path}: expected header 'cut <n> <q>'")
    try:
        n, q = int(header[1]), int(header[2])
    except ValueError as exc:
        raise FormatError(f"{path}: bad header numbers") from exc
    body = _flat(rows[1:])
    if len(body) != n:
        raise FormatError(f"{path}: expected {n} labels, found {len(body)}")
    try:
        labels = tuple(int(x) for x in body)
    except ValueError as exc:
        raise FormatError(f"{path}: non-integer label") from exc
    try:
        return QCut(labels=labels, q=q)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_cut(path, cut: QCut) -> None:
    lines = [f"cut {len(cut.labels)} {cut.q}"]
    lines.extend(str(x) for x in cut.labels)
    Path(path).write_text("\n".join(lines) + "\n")


def save_spectrum(path, eigenvalues) -> None:
    vals = np.asarray(eigenvalues, dtype=complex)
    lines = [f"spectrum {len(vals)}"]
    lines.extend(
        f"{i + 1} {z.real:.17g} {z.imag:.17g}" for i, z in enumerate(vals)
    )
    Path(path).write_text("\n".join(lines) + "\n")


def load_spectrum(path) -> np.ndarray:
    rows = _tokens(path)
    header = rows[0]
    if len(header) != 2 or header[0] != "spectrum":
        raise FormatError(f"{path}: expected header 'spectrum <n>'")
    try:
        n = int(header[1])
    except ValueError as exc:
        raise FormatError(f"{path}: bad eigenvalue count") from exc
    body = rows[1:]
    if len(body) != n:
        raise FormatError(f"{path}: expected {n} eigenvalue lines")
    if any(len(row) != 3 for row in body):
        raise FormatError(f"{path}: eigenvalue lines must be 'index re im'")
    try:
        index = [int(row[0]) for row in body]
    except ValueError as exc:
        raise FormatError(f"{path}: non-integer eigenvalue index") from exc
    if not all(1 <= i <= n for i in index):
        raise FormatError(f"{path}: eigenvalue index outside 1..{n}")
    if len(set(index)) != n:
        raise FormatError(f"{path}: repeated eigenvalue index")
    nums = _finite_numbers(path, [tok for row in body for tok in row[1:]])
    out = np.empty(n, dtype=complex)
    out[np.array(index, dtype=np.intp) - 1] = nums[0::2] + 1j * nums[1::2]
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
