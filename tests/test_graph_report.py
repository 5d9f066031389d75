"""The one graph report: ``graphs.graph_report`` and its two renderers, ``reproduce`` and
``graph audit``, pinned against golden outputs and against each other."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from specbound import fileio, graphs
from specbound.cli import main
from specbound.errors import InvalidConfig
from specbound.experiments import (ExperimentConfig, reproduce_pipeline, reproduce_report,
                                   synth_perturbation)
from specbound.graphs import GraphPerturbation, QCut, WeightedGraph

DATA = Path(__file__).parent / "data"

# Two Q3 hypercubes joined by two edges: the CI's repeated-eigenvalue audit.
_Q3 = ((0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 6), (3, 7), (4, 5), (4, 6), (5, 7),
       (6, 7))
HYPERCUBES = (
    "graph 16\n" + "".join(f"{u} {v} 1\n{u + 8} {v + 8} 1\n" for u, v in _Q3),
    "graph 16\n" + "".join(f"{u} {v} 1\n{u + 8} {v + 8} 1\n" for u, v in _Q3)
    + "0 8 1\n7 15 2\n",
    "cut 16 2\n" + "0\n" * 8 + "1\n" * 8,
)

# A base graph whose weighted degrees at vertices 0, 3 and 4 pass the float range.
BASE_OVERFLOW = (
    "graph 6\n0 5 2\n1 3 3\n3 4 1e308\n0 3 1e308\n1 5 3\n0 4 1e308\n1 4 3\n",
    "graph 6\n0 5 2\n1 3 3\n3 4 1e308\n0 3 1e308\n1 5 3\n0 4 1e308\n1 4 3\n2 4 1\n",
    "cut 6 2\n1\n1\n0\n1\n1\n1\n",
)


def two_triangles(weight: str, joining: str) -> tuple[str, str, str]:
    """Triangles {0, 1, 2} and {3, 4, 5} of edge weight ``weight``, joined by edge (2, 3)."""
    edges = "".join(f"{u} {v} {weight}\n" for u, v in ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5),
                                                         (4, 5)))
    return f"graph 6\n{edges}", f"graph 6\n{edges}2 3 {joining}\n", "cut 6 2\n0\n0\n0\n1\n1\n1\n"


# (triple, whether the fine and the coarse known-base values are finite, or None
# where the MED condition fails)
RULE_CASES = {
    # CI's triple: the couplings overflow, and both known-base values are NaN
    # (2 * 1e308 is inf, then inf - inf)
    "1e308": (("graph 3\n0 1 1e308\n", "graph 3\n0 1 1e308\n1 2 1e308\n", "cut 3 2\n0\n0\n1\n"),
              (False, False)),
    # the couplings overflow, so the fine value is inf while the coarse is 1/14
    "1e201": (two_triangles("1e201", "1e200"), (False, True)),
    # every sandwich and the Laplacian difference are equalities (max MED 1
    # is not below lambda_3 / 4 = 3/4)
    "unit": (two_triangles("1", "1"), None),
}


def write_triple(tmp_path, texts) -> list[str]:
    paths = [tmp_path / name for name in ("g.graph", "gp.graph", "c.cut")]
    for path, text in zip(paths, texts):
        path.write_text(text)
    return [str(p) for p in paths]


def audit_argv(paths, *extra) -> list[str]:
    return ["graph", "audit", "--graph", paths[0], "--perturbed", paths[1], "--cut", paths[2],
            *extra]


def run(capsys, argv) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_matches_golden(expected, actual, path="output"):
    """Same keys in the same order; booleans, integers, strings and nulls equal; floats
    within 1e-12 relative."""
    if isinstance(expected, dict):
        assert list(actual) == list(expected), path
        for key, value in expected.items():
            assert_matches_golden(value, actual[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), path
        for i, (want, got) in enumerate(zip(expected, actual)):
            assert_matches_golden(want, got, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert type(actual) is float, path
        assert math.isclose(actual, expected, rel_tol=1e-12, abs_tol=0.0), (path, expected, actual)
    else:
        assert type(actual) is type(expected) and actual == expected, (path, expected, actual)


def assert_text_matches_golden(expected: str, actual: str):
    """Line by line, field by field: text fields equal; numbers within 1e-12 relative, or
    one unit apart in the 12th significant digit, the last one ``_fmt`` prints."""
    want_lines, got_lines = expected.splitlines(), actual.splitlines()
    assert len(got_lines) == len(want_lines)
    for want_line, got_line in zip(want_lines, got_lines):
        want, got = want_line.split("\t"), got_line.split("\t")
        assert len(got) == len(want) and got[0] == want[0], (want_line, got_line)
        for w, g in zip(want[1:], got[1:]):
            try:
                a, b = float(w), float(g)
            except ValueError:
                assert g == w, (want_line, got_line)
                continue
            if a == b:
                continue
            digit = 10.0 ** (math.floor(math.log10(abs(a))) - 11) if a else 0.0
            assert abs(a - b) <= 1e-12 * abs(a) + digit * (1 + 1e-9), (want_line, got_line)


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
def test_graph_audit_of_the_hypercubes_matches_golden(tmp_path, capsys, as_json):
    paths = write_triple(tmp_path, HYPERCUBES)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, audit_argv(paths, *(["--json"] if as_json else [])))
    assert code == 0 and err == ""
    if as_json:
        expected = json.loads((DATA / "graph_audit_hypercubes.json").read_text())
        assert_matches_golden(expected, json.loads(out))
    else:
        assert_text_matches_golden((DATA / "graph_audit_hypercubes.txt").read_text(), out)


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
def test_reproduce_n2000_matches_golden(capsys, as_json):
    argv = ["reproduce", "--n", "2000", "--q", "24", *(["--json"] if as_json else [])]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    if as_json:
        expected = json.loads((DATA / "reproduce_n2000.json").read_text())
        assert_matches_golden(expected, json.loads(out))
    else:
        assert_text_matches_golden((DATA / "reproduce_n2000.txt").read_text(), out)


def test_graph_audit_of_synthesised_files_reports_what_reproduce_reports(tmp_path, capsys):
    prefix = tmp_path / "g2000"
    code, _, _ = run(capsys, ["graph", "synth", "--n", "2000", "--q", "24", "--out", str(prefix)])
    assert code == 0
    paths = [str(prefix.with_suffix(s)) for s in (".graph", ".perturbed.graph", ".cut")]
    code, out, _ = run(capsys, audit_argv(paths, "--json"))
    assert code == 0
    audit = json.loads(out)
    code, out, _ = run(capsys, ["reproduce", "--n", "2000", "--q", "24", "--json"])
    assert code == 0
    reproduce = json.loads(out)

    bounds = {b["name"]: b["value"] for r in audit["reports"] for b in r["bounds"]}
    assert [r["lhs_dsp"] for r in audit["reports"]] == [reproduce["lhs_dsp"]] * 2
    assert bounds == {
        "nullspace_known_perturbed": reproduce["known_perturbed_bound"],
        "nullspace_known_base_fine": reproduce["known_base_bound_fine"],
        "nullspace_known_base_coarse": reproduce["known_base_bound_coarse"],
    }
    assert audit["laplacian_diff_op_norm"] == reproduce["laplacian_diff_op_norm"]
    couplings = [audit[f"cluster_{j + 1}_coupling"] for j in range(24)]
    ctx = synth_perturbation(ExperimentConfig(n_vertices=2000, q=24))
    assert couplings == ctx.couplings.tolist()
    assert float(np.mean(couplings)) == reproduce["mean_coupling"]


@pytest.mark.parametrize("warning_filter", ["error", "default"])
def test_base_degree_past_the_float_range_exits_2(tmp_path, capsys, warning_filter):
    paths = write_triple(tmp_path, BASE_OVERFLOW)
    with warnings.catch_warnings():
        warnings.simplefilter(warning_filter, RuntimeWarning)
        for extra in ([], ["--json"]):
            code, out, err = run(capsys, audit_argv(paths, *extra))
            assert code == 2 and out == ""
            assert err == "error: the base graph's weighted degree at vertex 0 overflows the " \
                          "float range\n"


def test_base_degree_past_the_float_range_is_refused_by_the_context():
    base = WeightedGraph(4, ((0, 1, 1e308), (1, 2, 1e308)))
    pert = WeightedGraph(4, ((0, 1, 1e308), (1, 2, 1e308), (2, 3, 1.0)))
    with pytest.raises(InvalidConfig, match="vertex 1 overflows"):
        GraphPerturbation(base, pert, QCut(labels=(0, 0, 0, 1), q=2))


@pytest.mark.parametrize("emit_csv", [False, True], ids=["plain", "emit-csv"])
def test_graph_audit_builds_the_coupling_tables_once(tmp_path, capsys, monkeypatch, emit_csv):
    calls, coupling_tables = [], graphs.coupling_tables
    monkeypatch.setattr(graphs, "coupling_tables",
                        lambda *a: calls.append(a) or coupling_tables(*a))
    paths = write_triple(tmp_path, HYPERCUBES)
    extra = ["--emit-csv", str(tmp_path / "csv")] if emit_csv else []
    code, _, _ = run(capsys, audit_argv(paths, *extra))
    assert code == 0 and len(calls) == 1
    assert (tmp_path / "csv" / "clusters.csv").exists() is emit_csv


def random_triple(rng):
    """A clustered base, a cut of it, and the base plus random crossing edges."""
    n, q = int(rng.integers(4, 14)), int(rng.integers(2, 4))
    labels = np.concatenate([np.arange(q), rng.integers(0, q, n - q)])
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    weights = rng.uniform(0.1, 3.0, len(pairs))
    inside = [(u, v, w) for (u, v), w in zip(pairs, weights)
              if labels[u] == labels[v] and rng.random() < 0.7]
    across = [(u, v, w) for (u, v), w in zip(pairs, weights)
              if labels[u] != labels[v] and rng.random() < 0.3]
    cut = QCut(labels=tuple(labels.tolist()), q=q)
    return WeightedGraph(n, tuple(inside)), WeightedGraph(n, tuple(inside + across)), cut


def test_report_tables_are_the_perturbed_graphs_bit_for_bit():
    rng = np.random.default_rng(31)
    for _ in range(40):
        base, pert, cut = random_triple(rng)
        ctx = GraphPerturbation(base, pert, cut)
        report = graphs.graph_report(ctx)
        for key, column in graphs.coupling_sandwiches(cut, pert).items():
            assert np.array_equal(report.sandwiches[key], column), key
        for key, column in graphs.cluster_table(cut, pert).items():
            assert np.array_equal(ctx.cluster_table[key], column), key
        assert report.identity == graphs.residual_identity_check(ctx)
        assert report.diff == graphs.laplacian_diff_bound_check(ctx)
        assert list(report.verdicts)[:3] == [
            "residual_identity", "coupling_sandwich", "laplacian_diff_bound"]
        assert all(report.verdicts.values())


def test_report_records_a_vanishing_gap_and_a_failed_med_condition(tmp_path, capsys):
    # Vertices 3 and 4 stay isolated: three perturbed components for q = 2, so
    # lambda'_3 = lambda_3 = 0.
    base = WeightedGraph(5, ((0, 1, 1.0),))
    pert = WeightedGraph(5, ((0, 1, 1.0), (1, 2, 1.0)))
    cut = QCut(labels=(0, 0, 1, 1, 1), q=2)
    report = graphs.graph_report(GraphPerturbation(base, pert, cut))
    assert report.known_perturbed is None and report.known_base is None
    assert report.med_margin == -1.0
    assert list(report.verdicts) == [
        "residual_identity", "coupling_sandwich", "laplacian_diff_bound"]
    paths = write_triple(tmp_path, ("graph 5\n0 1 1\n", "graph 5\n0 1 1\n1 2 1\n",
                                    "cut 5 2\n0\n0\n1\n1\n1\n"))
    code, out, _ = run(capsys, audit_argv(paths))
    assert code == 0
    assert out.splitlines()[-3:] == ["known_perturbed_condition_ok\tfalse",
                                     "med_condition_ok\tfalse", "med_condition_margin\t-1"]


def count_label_conversions(monkeypatch, n, run_once) -> int:
    """How many ``np.asarray`` or ``np.array`` calls ``run_once()`` makes on an n-long tuple
    or list: a cut's labels converted again after the cut is built."""
    calls = []
    for name in ("asarray", "array"):
        def wrapped(obj, *args, _convert=getattr(np, name), **kwargs):
            if isinstance(obj, (tuple, list)) and len(obj) == n:
                calls.append(obj)
            return _convert(obj, *args, **kwargs)
        monkeypatch.setattr(np, name, wrapped)
    run_once()
    monkeypatch.undo()
    return len(calls)


def test_reproduce_converts_no_label_tuple(monkeypatch):
    cfg = ExperimentConfig(n_vertices=2000, q=24)
    assert count_label_conversions(monkeypatch, 2000, lambda: reproduce_pipeline(cfg)) == 0


@pytest.mark.parametrize("emit_csv", [False, True], ids=["plain", "emit-csv"])
def test_graph_audit_converts_no_label_tuple(tmp_path, capsys, monkeypatch, emit_csv):
    prefix = tmp_path / "g"
    synth = ["graph", "synth", "--n", "2000", "--q", "200", "--inter-edges", "5"]
    assert run(capsys, [*synth, "--out", str(prefix)])[0] == 0
    paths = [str(prefix.with_suffix(s)) for s in (".graph", ".perturbed.graph", ".cut")]
    argv = audit_argv(paths, *(["--emit-csv", str(tmp_path / "csv")] if emit_csv else []))
    codes = []
    assert count_label_conversions(monkeypatch, 2000, lambda: codes.append(main(argv))) == 0
    assert codes == [0]


@pytest.mark.parametrize("name", sorted(RULE_CASES))
def test_every_verdict_holds_and_both_commands_exit_on_all_of_them(tmp_path, capsys, name):
    # A check whose value is not finite is not evaluated: the known-base fine
    # bound and the chain (which compares two bound values) hold by that
    # rule on both overflow triples, and every other check by ``holds``.
    texts, finite = RULE_CASES[name]
    paths = write_triple(tmp_path, texts)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ctx = GraphPerturbation(fileio.load_graph(paths[0]), fileio.load_graph(paths[1]),
                                fileio.load_cut(paths[2]))
        report = graphs.graph_report(ctx)
        cfg = ExperimentConfig(n_vertices=ctx.base.n_vertices, q=ctx.cut.q)
        reproduced = reproduce_report(cfg, ctx)
        code, _, err = run(capsys, audit_argv(paths))
    checks = ["residual_identity", "coupling_sandwich", "laplacian_diff_bound", "known_perturbed"]
    if finite is None:
        assert report.known_base is None
    else:
        checks += ["known_base", "known_base_fine", "known_base_chain"]
        assert tuple(entry.condition_ok for entry in report.known_base.bounds) == finite
        assert tuple(math.isfinite(entry.value) for entry in report.known_base.bounds) == finite
    assert list(report.verdicts) == checks
    assert all(report.verdicts.values()), report.verdicts
    assert (code, err) == (0, "")
    assert reproduced["all_inequalities_ok"] is True
    if name == "unit":
        third = 2.0 / 3.0
        for column in ("lower", "value", "upper"):
            assert report.sandwiches[column].tolist() == [third, third]
        assert (report.diff["op_norm"], report.diff["bound"]) == (2.0, 2.0)


def test_graph_audit_and_reproduce_exit_3_on_any_false_verdict(tmp_path, capsys, monkeypatch):
    # Each verdict alone, made false, decides both exit codes; the 1e201 triple
    # and reproduce at n = 60 with two added edges both have all seven.
    paths = write_triple(tmp_path, RULE_CASES["1e201"][0])
    graph_report = graphs.graph_report
    for name in ("residual_identity", "coupling_sandwich", "laplacian_diff_bound",
                 "known_perturbed", "known_base", "known_base_fine", "known_base_chain"):
        def failing(ctx, name=name):
            report = graph_report(ctx)
            assert report.verdicts[name]
            report.verdicts[name] = False
            return report

        monkeypatch.setattr(graphs, "graph_report", failing)
        assert run(capsys, audit_argv(paths))[0] == 3, name
        assert run(capsys, ["reproduce", "--n", "60", "--q", "3", "--inter-edges", "2"])[0] == 3, \
            name


def reweighted(ctx: GraphPerturbation, factor: float) -> GraphPerturbation:
    """``ctx`` with every edge weight of both graphs multiplied by ``factor``."""
    scaled = [WeightedGraph.from_arrays(g.n_vertices, g.u, g.v, g.w * factor)
              for g in (ctx.base, ctx.perturbed)]
    return GraphPerturbation(*scaled, ctx.cut)


@pytest.fixture(scope="module")
def n333():
    return synth_perturbation(ExperimentConfig(n_vertices=333, q=12, seed=0))


def test_identity_rejects_doubled_couplings_at_tiny_weights(n333):
    # At weights x 1e-6 every coupling is below 1e-9: an absolute slack of 1e-9
    # let a table twice the true one pass.
    ctx = reweighted(n333, 1e-6)
    assert all(row["ok"] for row in graphs.residual_identity_check(ctx))
    ctx.__dict__["couplings"] = 2.0 * ctx.couplings
    assert not all(row["ok"] for row in graphs.residual_identity_check(ctx))


def graph_decisions(ctx: GraphPerturbation) -> tuple:
    """Every agreement verdict and zero decision of ``ctx``: the identity rows, the base's
    null count, and whether each null-space bound is evaluated and holds."""
    from specbound.spectra import zero_eigenvalues

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = graphs.graph_report(ctx)
    nulls = int(np.count_nonzero(zero_eigenvalues(ctx.base_values, ctx._base_degrees)))
    return (tuple(row["ok"] for row in report.identity), nulls,
            report.known_perturbed is not None, report.known_base is not None,
            report.verdicts)


def test_decisions_do_not_move_with_the_weights_scale(n333):
    # Multiplying every weight by 2^k scales every eigenvalue, coupling and degree
    # by 2^k or 4^k; at x 1e-12 an absolute zero test read lambda_{q+1} = 1.7e-11
    # as zero and dropped both null-space bounds.
    stock = graph_decisions(n333)
    assert stock[0] == (True,) * 12 and stock[1:4] == (12, True, True)
    assert all(stock[4].values())
    for factor in (2.0**-60, 2.0**60, 1e-12):
        assert graph_decisions(reweighted(n333, factor)) == stock, factor


# Triples whose couplings or residuals pass the float range, with the identity's verdict.
OVERFLOW_IDENTITY_CASES = {
    # one crossing edge into a 3-vertex cluster: residual 2 w^2 / 3 = 1.13e308, coupling inf
    "1.3e154": two_triangles("1", "1.3e154"),
    "1e308": RULE_CASES["1e308"][0],
    "degree-overflows": ("graph 4\n2 3 1\n", "graph 4\n2 3 1\n0 1 1e308\n1 2 1e308\n",
                         "cut 4 3\n0\n1\n2\n2\n"),
    "reciprocal-overflows": ("graph 6\n3 5 0.5\n1 5 0.5\n",
                             "graph 6\n0 3 0.5\n3 5 0.5\n1 5 0.5\n2 3 0.5\n0 5 5e-324\n",
                             "cut 6 2\n0\n1\n0\n1\n1\n1\n"),
}


@pytest.mark.parametrize("name", sorted(OVERFLOW_IDENTITY_CASES))
def test_identity_holds_past_the_float_range(tmp_path, name):
    paths = write_triple(tmp_path, OVERFLOW_IDENTITY_CASES[name])
    ctx = GraphPerturbation(fileio.load_graph(paths[0]), fileio.load_graph(paths[1]),
                            fileio.load_cut(paths[2]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = graphs.residual_identity_check(ctx)
    assert all(row["ok"] for row in rows), rows
    if name == "1.3e154":
        assert rows[0]["lhs"] == pytest.approx(1.3e154**2 / 3 * 2) and rows[0]["rhs"] == math.inf


def test_perturbed_degree_past_the_float_range_leaves_the_bounds_unevaluated(tmp_path, capsys):
    # Vertex 1's perturbed degree 2e308 is inf: Ltilde has an inf entry, nothing
    # is solved, and both null-space bounds are reported but not evaluated.
    paths = write_triple(tmp_path, ("graph 4\n0 1 1\n2 3 1\n",
                                    "graph 4\n0 1 1\n2 3 1\n1 2 1e308\n1 3 1e308\n",
                                    "cut 4 2\n0\n0\n1\n1\n"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, audit_argv(paths))
    assert (code, err) == (0, "")
    lines = dict(line.split("\t", 1) for line in out.splitlines())
    assert lines["lhs_dsp"] == "nan"
    assert lines["nullspace_known_perturbed"] == "nan\tfalse\ttrue"
    assert (lines["med_condition_ok"], lines["med_condition_margin"]) == ("false", "-inf")
