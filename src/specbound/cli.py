"""Command-line interface.

Reports default to human-readable key<TAB>value lines; bound entries print as
``name<TAB>value<TAB>condition_ok<TAB>vacuous`` preceded by a ``lhs_dsp``
line. ``--json`` switches to a machine schema. Indices are 1-based on the
command line and in every report; internal computation is 0-based.

Exit codes: 0 success; 2 precondition or condition violation on required
inputs; 3 inequality violation detected (a soundness bug); 4 I/O or format
error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import fileio, graphs
from .bounds import (
    IndexPartition,
    KappaPolicy,
    bound_tilde_free,
    evaluate_bounds,
    hat_partition,
    search_closest_invariant,
)
from .errors import (
    FormatError,
    GapConditionViolated,
    MedConditionViolated,
    SpecboundError,
    ZeroGap,
)
from .experiments import (
    ExperimentConfig,
    add_intercluster_edges,
    audit_random_matrices,
    reproduce_pipeline,
    synth_clustered_graph,
)
from .setdist import sep_preserving_check, sep_preserving_partition
from .spectral import decompose_normal
from .subspace import complement_frame, dsp_complement, dsp_overlap, dsp_projector, orthonormalize

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_INEQUALITY = 3
EXIT_IO = 4


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
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
    return IndexPartition(n, tuple(i - 1 for i in one_based))


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
            entries.append(
                {
                    "name": entry.name,
                    "value": _jsonable(entry.value),
                    "condition_ok": entry.condition_ok,
                    "vacuous": entry.vacuous,
                    "inputs_digest": entry.inputs_digest,
                }
            )
        block = {"lhs_dsp": _jsonable(report.lhs_dsp), "bounds": entries}
        if report.chosen_a_tilde is not None:
            block["chosen_a_tilde"] = _one_based(report.chosen_a_tilde.indices)
        self.payload.setdefault("reports", []).append(
            {"label": label, **block} if label else block
        )

    def emit(self, as_json: bool) -> None:
        if as_json:
            print(json.dumps(self.payload, indent=2))
        else:
            print("\n".join(self.lines))


def _load_frame(path, tol):
    mat = fileio.load_matrix(path)
    return orthonormalize(mat, tol=tol if tol is not None else 1e-12)


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
    rep = Report("bounds")
    tol = args.tol if args.tol is not None else 1e-8
    base_mat = fileio.load_matrix(args.base)
    pert_mat = fileio.load_matrix(args.perturbed)
    mdiff = pert_mat - base_mat
    base = decompose_normal(base_mat, tol=tol)
    pert = decompose_normal(pert_mat, tol=tol)
    n = base.n
    a = _parse_indices(args.set_a, n)
    if args.set_a_tilde:
        a_tilde = _parse_indices(args.set_a_tilde, n)
    else:
        try:
            a_tilde = hat_partition(base, pert, mdiff, a)
        except GapConditionViolated:
            a_tilde = a
    rep.kv("set_a", _one_based(a.indices))
    rep.kv("set_a_tilde", _one_based(a_tilde.indices))
    families = {
        "full": ("full",),
        "simplified": ("simplified",),
        "dk": ("dk",),
        "all": ("full", "simplified", "dk"),
    }
    policy = KappaPolicy(args.kappa)
    exit_code = EXIT_OK
    if args.mode in families:
        report = evaluate_bounds(
            base, pert, mdiff, a, a_tilde, families[args.mode], policy
        )
        rep.bound_report(report, label="tilde_aware")
        if any(
            report.lhs_dsp > e.value * (1 + 1e-9) + 1e-12
            for e in report.bounds
            if e.condition_ok
        ):
            exit_code = EXIT_INEQUALITY
    if args.mode in ("tilde-free", "all"):
        try:
            tf = bound_tilde_free(base, mdiff, a)
        except GapConditionViolated as exc:
            if args.mode == "tilde-free":
                raise  # explicitly requested: a violated precondition, exit 2
            rep.kv("tilde_free_condition_ok", False)
            rep.kv("tilde_free_condition_margin", exc.margin)
        else:
            rep.kv("set_a_hat", _one_based(tf.chosen_a_tilde.indices))
            rep.bound_report(tf, label="tilde_free")
            if any(
                tf.lhs_dsp > e.value * (1 + 1e-9) + 1e-12
                for e in tf.bounds
                if e.condition_ok
            ):
                exit_code = EXIT_INEQUALITY
    if args.emit_csv:
        out = Path(args.emit_csv)
        out.mkdir(parents=True, exist_ok=True)
        fileio.write_spectrum_csv(out / "base_spectrum.csv", base.eigenvalues)
        fileio.write_spectrum_csv(out / "perturbed_spectrum.csv", pert.eigenvalues)
        fileio.save_spectrum(out / "base_spectrum.txt", base.eigenvalues)
        fileio.save_spectrum(out / "perturbed_spectrum.txt", pert.eigenvalues)
    rep.emit(args.json)
    return exit_code


def cmd_search(args) -> int:
    rep = Report("search")
    pert = decompose_normal(
        fileio.load_matrix(args.perturbed),
        tol=args.tol if args.tol is not None else 1e-8,
    )
    target = _load_frame(args.target, args.tol)
    if target.q != args.q:
        raise FormatError(
            f"target has {target.q} columns but --q is {args.q}"
        )
    mode = "exact" if args.exact else "heuristic"
    a_tilde, value = search_closest_invariant(
        pert, target, args.q, mode=mode, limit=args.limit
    )
    rep.kv("mode", mode)
    rep.kv("a_tilde", _one_based(a_tilde.indices))
    rep.kv("d_sp", value)
    rep.emit(args.json)
    return EXIT_OK


def _cluster_rows(cut, graph) -> list[dict]:
    rows = []
    for j in range(cut.q):
        members = cut.members(j)
        total_ed = sum(
            graphs.external_degree(int(v), j, cut, graph) for v in members
        )
        rows.append(
            {
                "cluster": j,
                "size": int(len(members)),
                "total_external_degree": float(total_ed),
                "coupling": graphs.coupling(j, cut, graph),
                "med": graphs.max_external_degree(j, cut, graph),
            }
        )
    return rows


def cmd_graph_audit(args) -> int:
    rep = Report("graph-audit")
    base = fileio.load_graph(args.graph)
    pert = fileio.load_graph(args.perturbed)
    cut = fileio.load_cut(args.cut)
    rep.kv("n_vertices", base.n_vertices)
    rep.kv("q", cut.q)

    violated = False
    identity = graphs.residual_identity_check(base, pert, cut)
    for row in identity:
        rep.kv(f"cluster_{row['cluster'] + 1}_residual_sq", row["lhs"])
        rep.kv(f"cluster_{row['cluster'] + 1}_coupling", row["rhs"])
    rep.kv("residual_identity_ok", all(r["ok"] for r in identity))
    violated |= not all(r["ok"] for r in identity)

    for j in range(cut.q):
        sandwich = graphs.coupling_sandwich(j, cut, pert)
        ok = sandwich["lower"] <= sandwich["value"] <= sandwich["upper"] + 1e-12
        rep.kv(f"cluster_{j + 1}_sandwich_ok", ok)
        violated |= not ok

    diff_check = graphs.laplacian_diff_bound_check(base, pert, cut)
    rep.kv("laplacian_diff_op_norm", diff_check["op_norm"])
    rep.kv("laplacian_diff_bound", diff_check["bound"])
    rep.kv("laplacian_diff_ok", diff_check["ok"])
    violated |= not diff_check["ok"]

    try:
        known_pert = graphs.nullspace_bound_known_perturbed(base, pert, cut)
        rep.bound_report(known_pert, label="known_perturbed")
        violated |= known_pert.lhs_dsp > known_pert.bounds[0].value * (1 + 1e-9) + 1e-12
    except ZeroGap:
        rep.kv("known_perturbed_condition_ok", False)
    try:
        known_base = graphs.nullspace_bound_known_base(base, pert, cut)
        rep.bound_report(known_base, label="known_base")
        violated |= any(
            known_base.lhs_dsp > e.value * (1 + 1e-9) + 1e-12
            for e in known_base.bounds
        )
    except MedConditionViolated as exc:
        rep.kv("med_condition_ok", False)
        rep.kv("med_condition_margin", exc.margin)

    if args.emit_csv:
        out = Path(args.emit_csv)
        out.mkdir(parents=True, exist_ok=True)
        base_vals = graphs.laplacian_eigenvalues(base)
        pert_vals, _ = graphs.laplacian_spectrum(pert)
        fileio.write_spectrum_csv(out / "base_spectrum.csv", base_vals)
        fileio.write_spectrum_csv(out / "perturbed_spectrum.csv", pert_vals)
        fileio.save_spectrum(out / "base_spectrum.txt", base_vals)
        fileio.save_spectrum(out / "perturbed_spectrum.txt", pert_vals)
        fileio.write_cluster_csv(out / "clusters.csv", _cluster_rows(cut, pert))

    rep.emit(args.json)
    return EXIT_INEQUALITY if violated else EXIT_OK


def cmd_graph_synth(args) -> int:
    rep = Report("graph-synth")
    cfg = ExperimentConfig(
        n_vertices=args.n,
        q=args.q,
        intra_edge_prob=args.intra_p,
        inter_edge_count=args.inter_edges,
        seed=args.seed,
    )
    graph, cut = synth_clustered_graph(cfg)
    perturbed = add_intercluster_edges(graph, cut, cfg)
    out = Path(args.out)
    fileio.save_graph(out.with_suffix(".graph"), graph)
    fileio.save_graph(out.with_suffix(".perturbed.graph"), perturbed)
    fileio.save_cut(out.with_suffix(".cut"), cut)
    rep.kv("n_vertices", cfg.n_vertices)
    rep.kv("q", cfg.q)
    rep.kv("seed", cfg.seed)
    rep.kv("intra_edges", len(graph.edges))
    rep.kv("inter_edges", len(perturbed.edges) - len(graph.edges))
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
    cfg = ExperimentConfig(
        n_vertices=args.n,
        q=args.q,
        intra_edge_prob=args.intra_p,
        inter_edge_count=args.inter_edges,
        seed=args.seed,
    )
    report = reproduce_pipeline(cfg)
    inequalities = report.pop("inequalities")
    for key, value in report.items():
        rep.kv(key, value)
    for name, ok in inequalities.items():
        rep.kv(f"inequality_{name}_ok", ok)
    if args.emit_csv:
        out = Path(args.emit_csv)
        out.mkdir(parents=True, exist_ok=True)
        base, cut = synth_clustered_graph(cfg)
        perturbed = add_intercluster_edges(base, cut, cfg)
        base_vals = graphs.laplacian_eigenvalues(base)
        pert_vals, _ = graphs.laplacian_spectrum(perturbed)
        fileio.write_spectrum_csv(out / "base_spectrum.csv", base_vals)
        fileio.write_spectrum_csv(out / "perturbed_spectrum.csv", pert_vals)
        fileio.write_cluster_csv(out / "clusters.csv", _cluster_rows(cut, perturbed))
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

    def common(p):
        p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
        p.add_argument("--tol", type=float, default=None,
                       help="override the default numeric tolerance")
        p.add_argument("--emit-csv", metavar="DIR", default=None,
                       help="write eigenvalue/cluster CSV tables into DIR")

    p = sub.add_parser("dsp", help="subspace distance between two frames")
    p.add_argument("--a", required=True, help="matrix file spanning the first subspace")
    p.add_argument("--b", required=True, help="matrix file spanning the second subspace")
    common(p)
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
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("search", help="closest q-dimensional invariant subspace")
    p.add_argument("--perturbed", required=True, help="perturbed matrix file")
    p.add_argument("--target", required=True, help="matrix file spanning the target")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--exact", action="store_true", help="full enumeration")
    p.add_argument("--limit", type=int, default=200_000,
                   help="largest allowed enumeration size")
    common(p)
    p.set_defaults(func=cmd_search)

    graph = sub.add_parser("graph", help="graph-Laplacian operations")
    gsub = graph.add_subparsers(dest="graph_command", required=True)

    p = gsub.add_parser("audit", help="verify identities and null-space bounds")
    p.add_argument("--graph", required=True, help="base graph file")
    p.add_argument("--perturbed", required=True, help="perturbed graph file")
    p.add_argument("--cut", required=True, help="cut file")
    common(p)
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
    p.add_argument("--n", type=int, default=333)
    p.add_argument("--q", type=int, default=12)
    p.add_argument("--intra-p", type=float, default=0.95)
    p.add_argument("--inter-edges", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path prefix")
    common(p)
    p.set_defaults(func=cmd_graph_synth)

    p = gsub.add_parser("best-cut", help="q-cut minimizing total coupling")
    p.add_argument("--graph", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--limit", type=int, default=100_000)
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
    p.add_argument("--n", type=int, default=333)
    p.add_argument("--q", type=int, default=12)
    p.add_argument("--intra-p", type=float, default=0.95)
    p.add_argument("--inter-edges", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("audit", help="random-matrix bound audit campaign")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SpecboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    raise SystemExit(main())
