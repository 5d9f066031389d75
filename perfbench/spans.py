"""Spans around specbound's public calls, for the traced benchmark run.

The library is never edited: ``Tracer.install`` replaces each function or
method named in ``LAYERS`` by a wrapper, in every ``specbound`` module
namespace that binds it (``experiments`` imports the ``bounds`` functions by
name, ``cli`` imports ``experiments`` and ``bounds`` functions, and so on),
and patches the methods on their class. ``Tracer.uninstall`` puts the
originals back.

A wrapper records a span only while an operation span is open, so set-up and
output checks stay untraced. Spans live in flat arrays in memory (one row per
span: name, operation id, parent row, start, end, returned-or-raised) and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Every traced call, as (module, attribute path, per-layer metric kinds). The
# span name is "<module>.<path>", with "__post_init__" shown as "init".
# Counts and times are per operation; ok_ratio is returned calls over all
# calls (1 when the call never happened).
LAYERS = (
    ("experiments", "synth_clustered_graph", ("self_s",)),
    ("experiments", "add_intercluster_edges", ("self_s",)),
    ("experiments", "reproduce_pipeline", ("self_s",)),
    ("experiments", "random_normal_pair", ("self_s",)),
    ("experiments", "audit_random_matrices", ("self_s",)),
    ("graphs", "WeightedGraph.adjacency", ("calls", "self_s")),
    ("graphs", "WeightedGraph.__post_init__", ("self_s",)),
    ("graphs", "coupling", ("calls", "self_s")),
    ("graphs", "max_external_degree", ("calls", "self_s")),
    ("graphs", "laplacian_spectrum", ("calls", "self_s")),
    ("graphs", "residual_identity_check", ("self_s",)),
    ("graphs", "laplacian_diff_bound_check", ("self_s",)),
    ("graphs", "nullspace_bound_known_perturbed", ("self_s",)),
    ("graphs", "nullspace_bound_known_base", ("self_s", "ok_ratio")),
    ("graphs", "best_q_cut", ("self_s",)),
    ("graphs", "total_coupling", ("calls", "self_s")),
    ("spectral", "decompose_normal", ("calls", "self_s")),
    ("spectral", "two_norm", ("calls", "self_s")),
    ("spectral", "coupling_matrix", ("self_s",)),
    ("spectral", "residual_norms", ("self_s",)),
    ("spectral", "bauer_fike_gap", ("self_s",)),
    ("bounds", "bound_full_main", ("calls", "self_s")),
    ("bounds", "bound_simplified", ("calls", "self_s")),
    ("bounds", "bound_davis_kahan", ("calls", "self_s")),
    ("bounds", "bound_tilde_free", ("calls", "self_s", "ok_ratio")),
    ("bounds", "hat_partition", ("calls", "self_s", "ok_ratio")),
    ("bounds", "dsp_between", ("calls", "self_s")),
    ("bounds", "evaluate_bounds", ("calls", "self_s")),
    ("subspace", "OrthonormalFrame.__post_init__", ("calls", "self_s")),
    ("subspace", "dsp_projector", ("self_s",)),
    ("setdist", "sep", ("calls", "self_s")),
    ("fileio", "load_matrix", ("self_s",)),
    ("fileio", "load_graph", ("self_s",)),
    ("cli", "main", ("self_s",)),
)

# Calls whose first argument is an input file: its size counts toward
# fileio.bytes_read.
FILE_READERS = ("fileio.load_matrix", "fileio.load_graph")

OP_SPAN = "op"


def span_name(module: str, path: str) -> str:
    return f"{module}.{path.replace('__post_init__', 'init')}"


_UNITS = {"calls": "count/op", "self_s": "s/op", "ok_ratio": "ratio"}

PER_LAYER = tuple(
    (f"{span_name(module, path)}.{kind}", _UNITS[kind])
    for module, path, kinds in LAYERS
    for kind in kinds
) + (
    ("fileio.bytes_read", "B/op"),
    # Whole-run figures of the traced run: its throughput (set against the
    # untraced run's ops_per_s it gives the tracing overhead), the mean traced
    # op wall time, and the sum of all layers' self times per op, which can
    # never exceed that wall time.
    ("trace.ops_per_s", "1/s"),
    ("trace.op_wall_s", "s/op"),
    ("trace.layers_self_s", "s/op"),
)


class Tracer:
    """Records nested spans of one thread's calls into specbound."""

    def __init__(self):
        self.names = [OP_SPAN, *(span_name(m, path) for m, path, _ in LAYERS)]
        self.ids = {name: k for k, name in enumerate(self.names)}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.ok = array("b")
        self.start = array("d")
        self.end = array("d")
        self.bytes_read = 0
        self._stack: list[int] = []
        self._op_id = -1
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        row = len(self.start)
        self.name.append(name_id)
        self.op.append(self._op_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.ok.append(0)
        self.end.append(0.0)
        self._stack.append(row)
        self.start.append(time.perf_counter())
        return row

    def _close(self, row: int, ok: bool) -> None:
        self.end[row] = time.perf_counter()
        self.ok[row] = ok
        self._stack.pop()

    @contextmanager
    def operation(self, op_id: int):
        """Open the root span of one benchmark operation."""
        self._op_id = op_id
        row = self._open(self.ids[OP_SPAN])
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(row, ok)
            self._op_id = -1

    def _wrap(self, fn, name: str):
        name_id = self.ids[name]
        reads_file = name in FILE_READERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            if reads_file:
                self.bytes_read += os.path.getsize(args[0])
            row = self._open(name_id)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                self._close(row, ok)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every call in LAYERS wherever specbound binds it."""
        for module, _, _ in LAYERS:
            importlib.import_module(f"specbound.{module}")
        namespaces = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "specbound" or key.startswith("specbound.")
        ]
        for module, path, _ in LAYERS:
            mod = sys.modules[f"specbound.{module}"]
            owner_path, _, attr = path.rpartition(".")
            if owner_path:  # a method: patch it once, on its class
                owner = getattr(mod, owner_path)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(original, span_name(module, path)))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, span_name(module, path))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "ok": np.frombuffer(self.ok, dtype=np.int8),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path) -> None:
        """Write every span, with the name table, to one .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread's call stack, so the children of a span are
    disjoint intervals inside it and the time they cover is their summed
    duration.
    """
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(start)
    )
    return duration - covered


def layer_metrics(tracer: Tracer, ops_per_s: float) -> dict[str, dict]:
    """The PER_LAYER metrics, as {name: {"value", "unit"}}, of a finished traced run."""
    cols = tracer.arrays()
    own = self_times(cols["start"], cols["end"], cols["parent"])
    size = len(tracer.names)
    calls = np.bincount(cols["name"], minlength=size)
    self_s = np.bincount(cols["name"], weights=own, minlength=size)
    returned = np.bincount(cols["name"], weights=cols["ok"], minlength=size)
    op_rows = cols["name"] == tracer.ids[OP_SPAN]
    ops = max(int(op_rows.sum()), 1)
    out: dict[str, float] = {}
    for module, path, kinds in LAYERS:
        span = span_name(module, path)
        k = tracer.ids[span]
        values = {
            "calls": calls[k] / ops,
            "self_s": self_s[k] / ops,
            "ok_ratio": returned[k] / calls[k] if calls[k] else 1.0,
        }
        for kind in kinds:
            out[f"{span}.{kind}"] = float(values[kind])
    out["fileio.bytes_read"] = tracer.bytes_read / ops
    out["trace.ops_per_s"] = ops_per_s
    out["trace.op_wall_s"] = float((cols["end"] - cols["start"])[op_rows].sum()) / ops
    out["trace.layers_self_s"] = float(own[~op_rows].sum()) / ops
    return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER}
