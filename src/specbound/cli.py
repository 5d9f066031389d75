"""Command-line interface.

Reports default to human-readable key<TAB>value lines; bound entries print as
``name<TAB>value<TAB>condition_ok<TAB>vacuous`` preceded by a ``lhs_dsp``
line. ``--json`` switches to a machine schema. Indices are 1-based on the
command line and in every report; internal computation is 0-based.

Exit codes: 0 success; 2 precondition or condition violation on required
inputs, or arrays too large to allocate; 3 inequality violation detected (a
soundness bug); 4 I/O or format error, in reading input or in writing output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import fileio, graphs
from .bounds import (
    IndexPartition,
    KappaPolicy,
    PerturbationContext,
    bound_tilde_free,
    evaluate_bounds,
    search_closest_invariant,
)
from .errors import FormatError, GapConditionViolated, SpecboundError
from .experiments import (
    ExperimentConfig,
    add_intercluster_edges,
    audit_random_matrices,
    reproduce_report,
    synth_clustered_graph,
    synth_perturbation,
)
from .setdist import sep_preserving_check, sep_preserving_partition
from .spectral import NORMALITY_TOL, decompose_normal
from .subspace import (RANK_TOL, complement_frame, dsp_complement, dsp_overlap, dsp_projector,
                       orthonormalize)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_INEQUALITY = 3
EXIT_IO = 4


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.12g}"
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "nan"
        return "inf" if value > 0 else "-inf"
    if isinstance(value, (np.floating, np.integer)):
        return _jsonable(value.item())
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _one_based(indices) -> list[int]:
    return [int(i) + 1 for i in indices]


def _parse_indices(csv_text: str, n: int) -> IndexPartition:
    try:
        one_based = [int(tok) for tok in csv_text.split(",") if tok.strip()]
    except ValueError as exc:
        raise FormatError(f"bad index list {csv_text!r}") from exc
    if any(not 1 <= i <= n for i in one_based):
        raise FormatError(f"indices in {csv_text!r} must lie in 1..{n}")
    try:
        return IndexPartition(n, tuple(i - 1 for i in one_based))
    except ValueError as exc:  # repeated, empty, or leaving no complement
        raise FormatError(f"bad index list {csv_text!r}: {exc}") from exc


class Report:
    """Accumulates lines / JSON payload uniformly for both output modes."""

    def __init__(self, command: str):
        self.command = command
        self.lines: list[str] = []
        self.payload: dict = {"command": command}

    def kv(self, key: str, value):
        self.lines.append(f"{key}\t{_fmt(value)}")
        self.payload[key] = _jsonable(value)

    def bound_report(self, report, label: str | None = None):
        entries = []
        self.lines.append(f"lhs_dsp\t{_fmt(report.lhs_dsp)}")
        for entry in report.bounds:
            self.lines.append(
                f"{entry.name}\t{_fmt(entry.value)}\t{_fmt(entry.condition_ok)}"
                f"\t{_fmt(entry.vacuous)}"
            )
            has_ratio = entry.value != 0.0 and math.isfinite(entry.value)
            entries.append(
                {
                    "name": entry.name,
                    "value": _jsonable(entry.value),
                    "condition_ok": entry.condition_ok,
                    "vacuous": entry.vacuous,
                    "inputs_digest": entry.inputs_digest,
                    "slack_ratio": _jsonable(report.lhs_dsp / entry.value) if has_ratio else None,
                    "detail": _jsonable(entry.detail),
                }
            )
        block = {"lhs_dsp": _jsonable(report.lhs_dsp), "bounds": entries}
        if report.chosen_a_tilde is not None:
            block["chosen_a_tilde"] = _one_based(report.chosen_a_tilde.indices)
        self.payload.setdefault("reports", []).append(
            {"label": label, **block} if label else block
        )

    def emit(self, as_json: bool) -> None:
        # Flushed at once, so that a report that cannot be written fails in ``main``.
        if as_json:
            print(json.dumps(self.payload, indent=2), flush=True)
        else:
            print("\n".join(self.lines), flush=True)


def _emit_csv(out_dir, base_values, perturbed_values, cluster_rows=None) -> None:
    """``--emit-csv``: both spectra as CSV and text, and the cluster table when there is one."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, values in (("base", base_values), ("perturbed", perturbed_values)):
        fileio.write_spectrum_csv(out / f"{name}_spectrum.csv", values)
        fileio.save_spectrum(out / f"{name}_spectrum.txt", values)
    if cluster_rows is not None:
        fileio.write_cluster_csv(out / "clusters.csv", cluster_rows)


def _load_frame(path, tol):
    mat = fileio.load_matrix(path)
    return orthonormalize(mat, tol=tol if tol is not None else RANK_TOL)


def cmd_dsp(args) -> int:
    rep = Report("dsp")
    frame_a = _load_frame(args.a, args.tol)
    frame_b = _load_frame(args.b, args.tol)
    value = dsp_projector(frame_a, frame_b)
    rep.kv("d_sp", value)
    rep.kv("form_projector", value)
    rep.kv("form_overlap", dsp_overlap(frame_a, frame_b))
    if frame_a.q < frame_a.n:  # the complement form needs a proper subspace
        rep.kv("form_complement", dsp_complement(complement_frame(frame_a), frame_b))
    rep.emit(args.json)
    return EXIT_OK


def cmd_partition(args) -> int:
    rep = Report("partition")
    p = fileio.load_points(args.p)
    q = fileio.load_points(args.q)
    r = fileio.load_points(args.r)
    check = sep_preserving_check(p, q, r)
    rep.kv("holds_full", check["holds_full"])
    rep.kv("holds_simple", check["holds_simple"])
    rep.kv("margin", check["margin"])
    result = sep_preserving_partition(p, q, r)  # raises ConditionViolated -> exit 2
    rep.kv("p_tilde", _one_based(result.p_tilde))
    rep.kv("q_tilde", _one_based(result.q_tilde))
    rep.kv("sep_pq", result.sep_pq)
    rep.kv("hausdorff_pq_r", result.hausdorff_pq_r)
    rep.kv("new_sep_lower_bound", result.new_sep_lower_bound)
    rep.emit(args.json)
    return EXIT_OK


def cmd_bounds(args) -> int:
    """Bounds for one split. One ``bound_tilde_free`` call, made when its report or
    the default A~ needs it, decides the half-gap condition and gives the default
    A~ (A where the condition fails), a failed condition's margin and the report."""
    rep = Report("bounds")
    tol = args.tol if args.tol is not None else NORMALITY_TOL
    base_mat = fileio.load_matrix(args.base)
    pert_mat = fileio.load_matrix(args.perturbed)
    if base_mat.shape != pert_mat.shape:
        raise FormatError(
            f"base matrix is {base_mat.shape[0]}x{base_mat.shape[1]} but the "
            f"perturbed one is {pert_mat.shape[0]}x{pert_mat.shape[1]}"
        )
    base = decompose_normal(base_mat, tol=tol)
    pert = decompose_normal(pert_mat, tol=tol)
    ctx = PerturbationContext(base, pert, pert_mat - base_mat)
    n = base.n
    a = _parse_indices(args.set_a, n)
    a_tilde = _parse_indices(args.set_a_tilde, n) if args.set_a_tilde else None
    tilde_free = args.mode in ("tilde-free", "all")
    tf = margin = None
    if tilde_free or a_tilde is None:
        try:
            tf = bound_tilde_free(ctx, a)
        except GapConditionViolated as exc:
            if args.mode == "tilde-free":
                raise  # explicitly requested: a violated precondition, exit 2
            margin = exc.margin
    if a_tilde is None:
        a_tilde = a if tf is None else tf.chosen_a_tilde
    rep.kv("set_a", _one_based(a.indices))
    rep.kv("set_a_tilde", _one_based(a_tilde.indices))
    policy = KappaPolicy(args.kappa)
    exit_code = EXIT_OK
    if args.mode != "tilde-free":
        families = ("full", "simplified", "dk") if args.mode == "all" else (args.mode,)
        report = evaluate_bounds(ctx, a, a_tilde, families, policy)
        rep.bound_report(report, label="tilde_aware")
        if not report.holds():
            exit_code = EXIT_INEQUALITY
    if tilde_free and tf is None:
        rep.kv("tilde_free_condition_ok", False)
        rep.kv("tilde_free_condition_margin", margin)
    elif tilde_free:
        rep.kv("set_a_hat", _one_based(tf.chosen_a_tilde.indices))
        rep.bound_report(tf, label="tilde_free")
        if not tf.holds():
            exit_code = EXIT_INEQUALITY
    if args.emit_csv:
        _emit_csv(args.emit_csv, base.eigenvalues, pert.eigenvalues)
    rep.emit(args.json)
    return exit_code


def cmd_search(args) -> int:
    rep = Report("search")
    pert = decompose_normal(
        fileio.load_matrix(args.perturbed),
        tol=args.tol if args.tol is not None else NORMALITY_TOL,
    )
    target = _load_frame(args.target, args.tol)
    if target.q != args.q:
        raise FormatError(
            f"target has {target.q} columns but --q is {args.q}"
        )
    a_tilde, value = search_closest_invariant(pert, target, args.q)
    rep.kv("a_tilde", _one_based(a_tilde.indices))
    rep.kv("d_sp", value)
    rep.emit(args.json)
    return EXIT_OK


def _cluster_rows(table: dict) -> list[dict]:
    return [
        {"cluster": j, **{key: column[j].item() for key, column in table.items()}}
        for j in range(len(table["size"]))
    ]


def _emit_graph_csv(out_dir, ctx: graphs.GraphPerturbation) -> None:
    _emit_csv(
        out_dir,
        ctx.base_values,
        graphs.laplacian_eigenvalues(ctx.perturbed),
        _cluster_rows(ctx.cluster_table),
    )


def cmd_graph_audit(args) -> int:
    rep = Report("graph-audit")
    base = fileio.load_graph(args.graph)
    pert = fileio.load_graph(args.perturbed)
    cut = fileio.load_cut(args.cut)
    rep.kv("n_vertices", base.n_vertices)
    rep.kv("q", cut.q)

    ctx = graphs.GraphPerturbation(base, pert, cut)
    checks = graphs.graph_report(ctx)
    for row in checks.identity:
        rep.kv(f"cluster_{row['cluster'] + 1}_residual_sq", row["lhs"])
        rep.kv(f"cluster_{row['cluster'] + 1}_coupling", row["rhs"])
    rep.kv("residual_identity_ok", checks.verdicts["residual_identity"])
    for j, ok in enumerate(checks.sandwiches["ok"].tolist()):
        rep.kv(f"cluster_{j + 1}_sandwich_ok", ok)
    rep.kv("laplacian_diff_op_norm", checks.diff["op_norm"])
    rep.kv("laplacian_diff_bound", checks.diff["bound"])
    rep.kv("laplacian_diff_ok", checks.diff["ok"])
    if checks.known_perturbed is None:
        rep.kv("known_perturbed_condition_ok", False)
    else:
        rep.bound_report(checks.known_perturbed, label="known_perturbed")
    if checks.known_base is None:
        rep.kv("med_condition_ok", False)
        rep.kv("med_condition_margin", checks.med_margin)
    else:
        rep.bound_report(checks.known_base, label="known_base")

    if args.emit_csv:
        _emit_graph_csv(args.emit_csv, ctx)
    rep.emit(args.json)
    return EXIT_OK if all(checks.verdicts.values()) else EXIT_INEQUALITY


def _experiment_config(args) -> ExperimentConfig:
    return ExperimentConfig(n_vertices=args.n, q=args.q, intra_edge_prob=args.intra_p,
                            inter_edge_count=args.inter_edges, seed=args.seed)


def cmd_graph_synth(args) -> int:
    rep = Report("graph-synth")
    cfg = _experiment_config(args)
    graph, cut = synth_clustered_graph(cfg)
    perturbed = add_intercluster_edges(graph, cut, cfg)
    out = Path(args.out)
    fileio.save_graph(out.with_suffix(".graph"), graph)
    fileio.save_graph(out.with_suffix(".perturbed.graph"), perturbed)
    fileio.save_cut(out.with_suffix(".cut"), cut)
    rep.kv("n_vertices", cfg.n_vertices)
    rep.kv("q", cfg.q)
    rep.kv("seed", cfg.seed)
    rep.kv("intra_edges", len(graph.w))
    rep.kv("inter_edges", len(perturbed.w) - len(graph.w))
    rep.kv("graph_file", str(out.with_suffix(".graph")))
    rep.kv("perturbed_file", str(out.with_suffix(".perturbed.graph")))
    rep.kv("cut_file", str(out.with_suffix(".cut")))
    rep.emit(args.json)
    return EXIT_OK


def cmd_graph_best_cut(args) -> int:
    rep = Report("graph-best-cut")
    graph = fileio.load_graph(args.graph)
    mode = "exact" if args.exact else "heuristic"
    cut, value = graphs.best_q_cut(
        graph, args.q, mode=mode, limit=args.limit, seed=args.seed
    )
    rep.kv("mode", mode)
    rep.kv("labels", list(cut.labels))
    rep.kv("total_coupling", value)
    rep.emit(args.json)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    rep = Report("reproduce")
    cfg = _experiment_config(args)
    ctx = synth_perturbation(cfg)
    checks = graphs.graph_report(ctx)
    report = reproduce_report(cfg, ctx, checks)
    del report["inequalities"]  # five of the verdicts, all printed below
    for key, value in report.items():
        rep.kv(key, value)
    for name, ok in checks.verdicts.items():
        rep.kv(f"inequality_{name}_ok", ok)
    if args.emit_csv:
        _emit_graph_csv(args.emit_csv, ctx)
    rep.emit(args.json)
    return EXIT_OK if report["all_inequalities_ok"] else EXIT_INEQUALITY


def cmd_audit(args) -> int:
    rep = Report("audit")
    summary = audit_random_matrices(args.count, n_max=args.n_max, seed=args.seed)
    for key, value in summary.as_dict().items():
        rep.kv(key, value)
    rep.emit(args.json)
    return EXIT_OK if summary.violations == 0 else EXIT_INEQUALITY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specbound",
        description=(
            "Subspace distances, invariant-subspace perturbation bounds for "
            "normal matrices, and graph-Laplacian null-space diagnostics. "
            "All indices on the command line and in reports are 1-based."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=False, emit_csv=False):
        """--json on every command; --tol and --emit-csv where the command reads them."""
        p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
        if tol:
            p.add_argument("--tol", type=float, default=None,
                           help="override the default numeric tolerance")
        if emit_csv:
            p.add_argument("--emit-csv", metavar="DIR", default=None,
                           help="write eigenvalue/cluster CSV tables into DIR; on graph "
                                "commands this takes the perturbed Laplacian's full "
                                "spectrum, one dense eigensolve per connected component "
                                "(tens of seconds at n = 10 000)")

    def experiment(p):
        """The options ``_experiment_config`` reads, with ``ExperimentConfig``'s defaults."""
        cfg = ExperimentConfig()
        p.add_argument("--n", type=int, default=cfg.n_vertices)
        p.add_argument("--q", type=int, default=cfg.q)
        p.add_argument("--intra-p", type=float, default=cfg.intra_edge_prob)
        p.add_argument("--inter-edges", type=int, default=cfg.inter_edge_count)
        p.add_argument("--seed", type=int, default=cfg.seed)

    p = sub.add_parser("dsp", help="subspace distance between two frames")
    p.add_argument("--a", required=True, help="matrix file spanning the first subspace")
    p.add_argument("--b", required=True, help="matrix file spanning the second subspace")
    common(p, tol=True)
    p.set_defaults(func=cmd_dsp)

    p = sub.add_parser("partition", help="separation-preserving partition of a perturbed set")
    p.add_argument("--p", required=True, help="point-set file for the first group")
    p.add_argument("--q", required=True, help="point-set file for the second group")
    p.add_argument("--r", required=True, help="point-set file for the perturbed union")
    common(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("bounds", help="invariant-subspace perturbation bounds")
    p.add_argument("--base", required=True, help="base matrix file")
    p.add_argument("--perturbed", required=True, help="perturbed matrix file")
    p.add_argument("--set-a", required=True,
                   help="1-based CSV indices into the sorted base spectrum")
    p.add_argument("--set-a-tilde", default=None,
                   help="1-based CSV indices into the sorted perturbed spectrum "
                        "(default: nearest-group identification when the gap "
                        "condition holds, else the same indices as --set-a)")
    p.add_argument("--mode", choices=["full", "simplified", "dk", "tilde-free", "all"],
                   default="all")
    p.add_argument("--kappa", choices=["zero", "tightest"], default="zero",
                   help="kappa policy for the main bound")
    common(p, tol=True, emit_csv=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("search", help="closest q-dimensional invariant subspace")
    p.add_argument("--perturbed", required=True, help="perturbed matrix file")
    p.add_argument("--target", required=True, help="matrix file spanning the target")
    p.add_argument("--q", type=int, required=True)
    common(p, tol=True)
    p.set_defaults(func=cmd_search)

    graph = sub.add_parser("graph", help="graph-Laplacian operations")
    gsub = graph.add_subparsers(dest="graph_command", required=True)

    p = gsub.add_parser("audit", help="verify identities and null-space bounds")
    p.add_argument("--graph", required=True, help="base graph file")
    p.add_argument("--perturbed", required=True, help="perturbed graph file")
    p.add_argument("--cut", required=True, help="cut file")
    common(p, emit_csv=True)
    p.set_defaults(func=cmd_graph_audit)

    sizing_note = (
        "Cluster sizes are a multinomial draw over n - q vertices plus one "
        "guaranteed vertex per cluster (never empty). The 64-bit seed is "
        "split into per-phase streams (sizes, each cluster's edges, "
        "inter-cluster edges) with a splitmix64 chain, so every run is "
        "reproducible bit for bit."
    )

    p = gsub.add_parser(
        "synth",
        help="generate a clustered graph + perturbation",
        description=sizing_note,
    )
    experiment(p)
    p.add_argument("--out", required=True, help="output path prefix")
    common(p)
    p.set_defaults(func=cmd_graph_synth)

    p = gsub.add_parser("best-cut", help="q-cut minimizing total coupling")
    p.add_argument("--graph", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--exact", action="store_true")
    p.add_argument(
        "--limit", type=int, default=100_000,
        help="most q-block partitions, S(n, q), that --exact may visit; a larger "
             "search, or a limit of 2**63 or more, exits 2 (default 100000). "
             "A partition costs about 0.1 us "
             "when 2**n <= q*S(n, q) and about 4 us on a 76-edge graph "
             "otherwise (one core)",
    )
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_graph_best_cut)

    p = sub.add_parser(
        "reproduce",
        help="clustered-graph experiment at any scale",
        description=(
            "Generate a q-cluster graph, add random inter-cluster edges, and "
            "verify every null-space perturbation inequality; reference "
            "figures from the original experiment are printed alongside for "
            "comparison (they gate nothing: that random graph is not "
            "reproducible). " + sizing_note
        ),
    )
    experiment(p)
    common(p, emit_csv=True)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("audit", help="random-matrix bound audit campaign")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_audit)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process.

    Parsing never changes the parser, and every build leaves argparse's
    reference cycles (parsers, actions, help formatters) to the cyclic
    garbage collector, which let them pile up over many in-process calls.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:  # stdout itself fails: drop its output, or exit flushes it again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except (SpecboundError, MemoryError) as exc:  # numpy refuses arrays it cannot allocate
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    raise SystemExit(main())
