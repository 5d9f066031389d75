import contextlib
import io
import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specbound import QCut, WeightedGraph, fileio
from specbound.cli import main
from specbound.spectral import HERMITIAN_PART_ANGLE

from conftest import make_rng, random_unitary


def run_cli_err(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.err


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def write_matrix(tmp_path, name, mat):
    path = tmp_path / name
    fileio.save_matrix(path, np.asarray(mat, dtype=complex))
    return str(path)


def write_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def write_points(tmp_path, name, pts):
    path = tmp_path / name
    lines = [f"points {len(pts)}"]
    lines += [f"{complex(p).real:.17g} {complex(p).imag:.17g}" for p in pts]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def parse_kv(out):
    pairs = {}
    for line in out.splitlines():
        fields = line.split("\t")
        if len(fields) == 2:
            pairs[fields[0]] = fields[1]
    return pairs


class TestDspCommand:
    def test_known_distance(self, tmp_path, capsys):
        a = write_matrix(tmp_path, "a.mat", [[1.0], [0.0]])
        b = write_matrix(tmp_path, "b.mat", [[1.0], [1.0]])  # orthonormalized inside
        code, out = run_cli(capsys, "dsp", "--a", a, "--b", b)
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["d_sp"]) == pytest.approx(1 / np.sqrt(2), abs=1e-10)
        assert float(kv["form_overlap"]) == pytest.approx(1 / np.sqrt(2), abs=1e-10)

    def test_json_mode(self, tmp_path, capsys):
        a = write_matrix(tmp_path, "a.mat", [[1.0], [0.0]])
        code, out = run_cli(capsys, "dsp", "--a", a, "--b", a, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "dsp"
        assert payload["d_sp"] <= 1e-10

    def test_bad_file_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_text("not a matrix\n")
        code, _ = run_cli(capsys, "dsp", "--a", str(bad), "--b", str(bad))
        assert code == 4


    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_tolerance_that_disables_the_rank_test_exit_2(self, tmp_path, capsys, tol):
        # the second column differs from the first by 1e-14: rank deficient
        a = write_matrix(tmp_path, "a.mat", [[1.0, 1.0], [0.0, 1e-14], [0.0, 0.0]])
        code, err = run_cli_err(capsys, "dsp", "--a", a, "--b", a)
        assert code == 2 and "dependent" in err
        code, err = run_cli_err(capsys, "dsp", "--a", a, "--b", a, "--tol", tol)
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1 and "tolerance" in err


class TestPartitionCommand:
    def test_happy_path(self, tmp_path, capsys):
        p = write_points(tmp_path, "p.pts", [0.0])
        q = write_points(tmp_path, "q.pts", [10.0])
        r = write_points(tmp_path, "r.pts", [0.5, 9.5])
        code, out = run_cli(capsys, "partition", "--p", p, "--q", q, "--r", r)
        assert code == 0
        kv = parse_kv(out)
        assert kv["p_tilde"] == "1"
        assert kv["q_tilde"] == "2"
        assert float(kv["new_sep_lower_bound"]) == pytest.approx(9.0)

    def test_condition_violation_exit_2(self, tmp_path, capsys):
        p = write_points(tmp_path, "p.pts", [0.0])
        q = write_points(tmp_path, "q.pts", [1.0])
        r = write_points(tmp_path, "r.pts", [0.5])
        code, _ = run_cli(capsys, "partition", "--p", p, "--q", q, "--r", r)
        assert code == 2


class TestBoundsCommand:
    def setup_files(self, tmp_path):
        base = write_matrix(tmp_path, "base.mat", np.diag([0.0, 0.0, 5.0]))
        pert = write_matrix(tmp_path, "pert.mat", np.diag([0.1, 0.1, 5.3]))
        return base, pert

    def test_report_serialization(self, tmp_path, capsys):
        base, pert = self.setup_files(tmp_path)
        code, out = run_cli(
            capsys, "bounds", "--base", base, "--perturbed", pert, "--set-a", "1,2"
        )
        assert code == 0
        lines = out.splitlines()
        lhs_lines = [ln for ln in lines if ln.startswith("lhs_dsp\t")]
        assert lhs_lines, "bound report must start with an lhs_dsp line"
        entry_lines = [ln for ln in lines if ln.startswith("full_main")]
        assert entry_lines
        fields = entry_lines[0].split("\t")
        assert len(fields) == 4
        assert fields[2] in ("true", "false") and fields[3] in ("true", "false")

    def test_json_payload(self, tmp_path, capsys):
        base, pert = self.setup_files(tmp_path)
        code, out = run_cli(
            capsys, "bounds", "--base", base, "--perturbed", pert,
            "--set-a", "1,2", "--mode", "all", "--kappa", "tightest", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["set_a"] == [1, 2]
        assert payload["set_a_hat"] == [1, 2]
        names = [b["name"] for rep in payload["reports"] for b in rep["bounds"]]
        assert "full_main_kappa_tightest" in names
        assert "tilde_free_part1_fine" in names
        for rep in payload["reports"]:
            for b in rep["bounds"]:
                if b["condition_ok"]:
                    assert rep["lhs_dsp"] <= b["value"] * (1 + 1e-9) + 1e-12

    def test_json_entries_carry_detail_and_slack_ratio(self, tmp_path, capsys):
        base, pert = self.setup_files(tmp_path)
        argv = ["bounds", "--base", base, "--perturbed", pert, "--set-a", "1,2", "--mode", "all",
                "--kappa", "tightest"]
        code, out = run_cli(capsys, *argv, "--json")
        assert code == 0
        reports = {r["label"]: r for r in json.loads(out)["reports"]}
        entries = {b["name"]: b for r in reports.values() for b in r["bounds"]}
        full = entries["full_main_kappa_tightest"]
        assert set(full["detail"]) == {"direct_value", "interchanged_value", "kappa_direct",
                                       "kappa_interchanged"}
        assert len(full["detail"]["kappa_direct"]) == 2
        assert len(full["detail"]["kappa_interchanged"]) == 1
        assert set(entries["davis_kahan_part1"]["detail"]) == {"sep_a_btilde", "sep_b_atilde"}
        assert entries["simplified_part1"]["detail"] == {"kappa_a": 0.0, "kappa_b": 0.0}
        assert entries["tilde_free_part2"]["detail"] == {}
        for report in reports.values():
            for b in report["bounds"]:
                if isinstance(b["value"], float) and b["value"] > 0.0:
                    assert b["slack_ratio"] == report["lhs_dsp"] / b["value"]
                else:
                    assert b["slack_ratio"] is None
        # The text report carries neither: one line per entry, as before.
        code, text = run_cli(capsys, *argv)
        assert code == 0
        for line in text.splitlines():
            assert len(line.split("\t")) in (2, 4)

    @pytest.mark.parametrize("perturbed, value", [([0.0, 1.0], 0.0), ([1.0, 0.0], "inf")])
    def test_json_slack_ratio_is_null_for_a_zero_or_inf_value(self, tmp_path, capsys,
                                                              perturbed, value):
        # No perturbation gives 0; A~ swapped onto B's eigenvalue gives sep = 0 and inf.
        base = write_matrix(tmp_path, "b.mat", np.diag([0.0, 1.0]))
        pert = write_matrix(tmp_path, "p.mat", np.diag(perturbed))
        code, out = run_cli(capsys, "bounds", "--base", base, "--perturbed", pert, "--set-a", "1",
                            "--set-a-tilde", "2" if value == "inf" else "1", "--mode", "dk",
                            "--json")
        assert code == 0
        entries = {b["name"]: b for r in json.loads(out)["reports"] for b in r["bounds"]}
        assert entries["davis_kahan_part1"]["value"] == value
        assert entries["davis_kahan_part1"]["slack_ratio"] is None

    def test_overflowing_pair_warns_nothing(self, tmp_path, capsys):
        # Squares, differences and norms of entries near the float range overflow
        # to inf and are reported as such, with no RuntimeWarning. The exit code 3
        # is a false violation of rounding (davis_kahan_part1 = 0 < lhs_dsp).
        base = write_text(tmp_path, "b.mat", "matrix 2 2 real\n1e308 0\n0 1e-3\n")
        pert = write_text(tmp_path, "p.mat", "matrix 2 2 real\n1e154 -1e308\n-1e308 1e200\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(capsys, "bounds", "--base", base, "--perturbed", pert,
                                "--set-a", "2", "--mode", "all", "--kappa", "tightest")
        assert code == 3
        assert parse_kv(out)["tilde_free_condition_ok"] == "false"

    def test_explicit_a_tilde(self, tmp_path, capsys):
        base, pert = self.setup_files(tmp_path)
        code, out = run_cli(
            capsys, "bounds", "--base", base, "--perturbed", pert,
            "--set-a", "1,2", "--set-a-tilde", "1,3", "--mode", "dk", "--json",
        )
        assert code == 0
        assert json.loads(out)["set_a_tilde"] == [1, 3]

    def test_tilde_free_gap_violation_exit_2(self, tmp_path, capsys):
        base = write_matrix(tmp_path, "b.mat", np.diag([0.0, 1.0]))
        pert = write_matrix(tmp_path, "p.mat", np.diag([0.9, 1.9]))
        code, _ = run_cli(
            capsys, "bounds", "--base", base, "--perturbed", pert,
            "--set-a", "1", "--mode", "tilde-free",
        )
        assert code == 2

    def test_non_normal_input_exit_2(self, tmp_path, capsys):
        base = write_matrix(tmp_path, "b.mat", [[1.0, 1.0], [0.0, 1.0]])
        code, _ = run_cli(
            capsys, "bounds", "--base", base, "--perturbed", base, "--set-a", "1"
        )
        assert code == 2

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_matrix_entry_exit_4(self, tmp_path, capsys, entry):
        base, _ = self.setup_files(tmp_path)
        pert = tmp_path / "bad.mat"
        pert.write_text(f"matrix 3 3 real\n0.1 0 0\n0 {entry} 0\n0 0 5.3\n")
        code, err = run_cli_err(
            capsys, "bounds", "--base", base, "--perturbed", str(pert), "--set-a", "1,2"
        )
        assert code == 4
        assert "Traceback" not in err and "non-finite" in err

    def test_matrices_of_different_sizes_exit_4(self, tmp_path, capsys):
        base, _ = self.setup_files(tmp_path)
        pert = write_matrix(tmp_path, "p2.mat", np.diag([0.1, 5.3]))
        code, err = run_cli_err(
            capsys, "bounds", "--base", base, "--perturbed", pert, "--set-a", "1"
        )
        assert code == 4
        assert "Traceback" not in err and "3x3" in err and "2x2" in err

    @pytest.mark.parametrize("header, body", [("matrix -1 -2 real", "1 2"),
                                              ("matrix -1 -1 real", "1")])
    def test_negative_dimensions_exit_4(self, tmp_path, capsys, header, body):
        # The dimensions' product matches the entry count, so only the sign
        # of each dimension gives the file away.
        good, _ = self.setup_files(tmp_path)
        bad = tmp_path / "negative.mat"
        bad.write_text(f"{header}\n{body}\n")
        for files in ((str(bad), good), (good, str(bad))):
            code, err = run_cli_err(
                capsys, "bounds", "--base", files[0], "--perturbed", files[1], "--set-a", "1"
            )
            assert code == 4
            assert err.startswith("error: ") and len(err.splitlines()) == 1
            assert "dimensions must be at least 1" in err

    @pytest.mark.parametrize("set_a", ["1,1", "1,2,3", ","])
    def test_invalid_index_set_exit_4(self, tmp_path, capsys, set_a):
        # repeated indices, all of n (no complement left), and an empty set
        base, pert = self.setup_files(tmp_path)
        for flag in ("--set-a", "--set-a-tilde"):
            argv = ["bounds", "--base", base, "--perturbed", pert, "--set-a", "1,2", flag, set_a]
            code, err = run_cli_err(capsys, *argv)
            assert code == 4
            assert "Traceback" not in err and "bad index list" in err

    def test_emit_csv(self, tmp_path, capsys):
        base, pert = self.setup_files(tmp_path)
        out_dir = tmp_path / "csv"
        code, _ = run_cli(
            capsys, "bounds", "--base", base, "--perturbed", pert,
            "--set-a", "1,2", "--emit-csv", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "base_spectrum.csv").exists()
        assert (out_dir / "perturbed_spectrum.csv").exists()


class TestSearchCommand:
    def test_exact_and_heuristic(self, tmp_path, capsys):
        pert = write_matrix(tmp_path, "p.mat", np.diag([1.0, 2.0, 3.0]))
        target = write_matrix(tmp_path, "t.mat", np.eye(3)[:, :2])
        code, out = run_cli(
            capsys, "search", "--perturbed", pert, "--target", target, "--q", "2",
        )
        assert code == 0
        kv = parse_kv(out)
        assert kv["a_tilde"] == "1,2"
        assert float(kv["d_sp"]) <= 1e-7
        assert "mode" not in kv


class TestGraphCommands:
    def test_synth_audit_best_cut(self, tmp_path, capsys):
        prefix = tmp_path / "demo"
        code, out = run_cli(
            capsys, "graph", "synth", "--n", "18", "--q", "3",
            "--intra-p", "0.9", "--inter-edges", "2", "--seed", "5",
            "--out", str(prefix),
        )
        assert code == 0
        kv = parse_kv(out)
        assert kv["inter_edges"] == "2"
        graph_file = kv["graph_file"]
        pert_file = kv["perturbed_file"]
        cut_file = kv["cut_file"]

        code, out = run_cli(
            capsys, "graph", "audit", "--graph", graph_file,
            "--perturbed", pert_file, "--cut", cut_file,
            "--emit-csv", str(tmp_path / "csv"),
        )
        assert code == 0
        kv = parse_kv(out)
        assert kv["residual_identity_ok"] == "true"
        assert kv["laplacian_diff_ok"] == "true"
        assert (tmp_path / "csv" / "clusters.csv").exists()
        assert (tmp_path / "csv" / "base_spectrum.txt").exists()

        code, out = run_cli(
            capsys, "graph", "best-cut", "--graph", pert_file, "--q", "3",
        )
        assert code == 0
        assert parse_kv(out)["mode"] == "heuristic"

    def test_best_cut_takes_any_non_negative_seed(self, tmp_path, capsys):
        path = tmp_path / "ring.graph"
        fileio.save_graph(path, WeightedGraph(6, tuple((i, (i + 1) % 6, 1.0) for i in range(6))))
        for seed in ("0", str(2**64), str(10**38)):
            code, out = run_cli(capsys, "graph", "best-cut", "--graph", str(path), "--q", "2",
                                "--seed", seed)
            assert code == 0 and parse_kv(out)["mode"] == "heuristic"

    def test_best_cut_exact_tiny(self, tmp_path, capsys):
        path = tmp_path / "tiny.graph"
        fileio.save_graph(
            path,
            WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0), (1, 2, 0.1))),
        )
        code, out = run_cli(
            capsys, "graph", "best-cut", "--graph", str(path), "--q", "2", "--exact"
        )
        assert code == 0
        kv = parse_kv(out)
        assert kv["labels"] == "0,0,1,1"

    def test_best_cut_exact_when_every_coupling_is_inf(self, tmp_path, capsys):
        # Every 3-cut cuts an edge whose squared weight overflows to inf; the
        # first cut in lexicographic order stands.
        path = tmp_path / "heavy.graph"
        path.write_text("graph 4\n0 1 1.0\n2 3 1e300\n1 2 1e300\n")
        code = main(["graph", "best-cut", "--graph", str(path), "--q", "3", "--exact", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Traceback" not in captured.err
        payload = json.loads(captured.out)
        assert payload["labels"] == [0, 0, 1, 2]
        assert payload["total_coupling"] == "inf"

    def test_best_cut_exact_limit_beyond_int64_exits_2(self, tmp_path, capsys):
        # S(70, 2) = 2**69 - 1 cuts: a limit that admits them must not reach
        # the int64 cut counters.
        path = tmp_path / "path70.graph"
        fileio.save_graph(path, WeightedGraph(70, tuple((i, i + 1, 1.0) for i in range(69))))
        for limit in (str(2**63), "1" + "0" * 30):
            code, err = run_cli_err(capsys, "graph", "best-cut", "--graph", str(path),
                                    "--q", "2", "--exact", "--limit", limit)
            assert code == 2
            assert "Traceback" not in err
            assert err.startswith("error: ") and err.count("\n") == 1 and "limit" in err

    def test_best_cut_exact_search_far_past_limit_exits_2_at_once(self, tmp_path, capsys):
        # S(4000, 3000) has over 3000 digits; the lower bound 3000**1000 rejects
        # the search before any partition count is formed.
        path = tmp_path / "empty4000.graph"
        path.write_text("graph 4000\n")
        start = time.perf_counter()
        code, err = run_cli_err(capsys, "graph", "best-cut", "--graph", str(path),
                                "--q", "3000", "--exact")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err == "error: S(4000,3000) >= 3000**1000 q-partitions exceeds the limit 100000\n"

    @pytest.mark.parametrize("q", ["2", "3"])
    def test_best_cut_overflowing_squares_warn_nothing(self, tmp_path, capsys, q):
        # Every squared weight of the 4-clique overflows; an inf coupling is
        # the result, and stderr stays empty.
        path = tmp_path / "clique.graph"
        path.write_text("graph 4\n" + "".join(
            f"{u} {v} 1e300\n" for u in range(4) for v in range(u + 1, 4)
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["graph", "best-cut", "--graph", str(path), "--q", q, "--exact", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["total_coupling"] == "inf"
        assert captured.err == ""

    def test_audit_invalid_extension_exit_2(self, tmp_path, capsys):
        g1 = tmp_path / "a.graph"
        g2 = tmp_path / "b.graph"
        cut = tmp_path / "c.cut"
        fileio.save_graph(g1, WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0))))
        fileio.save_graph(g2, WeightedGraph(4, ((2, 3, 1.0),)))  # drops a base edge
        fileio.save_cut(cut, QCut(labels=(0, 0, 1, 1), q=2))
        code, _ = run_cli(
            capsys, "graph", "audit", "--graph", str(g1),
            "--perturbed", str(g2), "--cut", str(cut),
        )
        assert code == 2

    def test_sandwich_lower_side_equal_to_the_coupling(self, tmp_path, capsys):
        # Two 5-paths joined by a perfect matching: every crossing vertex has
        # one crossing edge, so each cluster's lower sandwich value equals its
        # coupling, with the same squares summed in another order.
        path = tuple((i, i + 1, 1.0) for i in (0, 1, 2, 3, 5, 6, 7, 8))
        files = [tmp_path / name for name in ("a.graph", "b.graph", "c.cut")]
        fileio.save_graph(files[0], WeightedGraph(10, path))
        fileio.save_cut(files[2], QCut(labels=(0,) * 5 + (1,) * 5, q=2))
        rng = np.random.default_rng(5)
        weights = [(0.532, 2.126, 1.401, 2.417, 0.783)]
        weights += [rng.uniform(0.1, 3, 5) for _ in range(60)]
        targets = [(5, 6, 7, 9, 8)] + [5 + rng.permutation(5) for _ in range(60)]
        for w, far in zip(weights, targets):
            matching = tuple((i, int(far[i]), float(w[i])) for i in range(5))
            fileio.save_graph(files[1], WeightedGraph(10, path + matching))
            code, out = run_cli(
                capsys, "graph", "audit", "--graph", str(files[0]),
                "--perturbed", str(files[1]), "--cut", str(files[2]),
            )
            kv = parse_kv(out)
            assert kv["cluster_1_sandwich_ok"] == kv["cluster_2_sandwich_ok"] == "true"
            assert code == 0

    def test_non_finite_weight_in_graph_file(self, tmp_path, capsys):
        g = tmp_path / "g.graph"
        g.write_text("graph 3\n0 1 1.0\n1 2 nan\n")
        c = tmp_path / "c.cut"
        fileio.save_cut(c, QCut(labels=(0, 0, 1), q=2))
        code, err = run_cli_err(
            capsys, "graph", "audit", "--graph", str(g), "--perturbed", str(g),
            "--cut", str(c),
        )
        assert code in (2, 4)
        assert "Traceback" not in err and "non-finite" in err

    @pytest.mark.parametrize(
        "text",
        ["graph 99999999999999999999\n0 1 1\n", "graph 99999999999999999999\n",
         "graph 8589934592\n0 1 1\n"],
        ids=["2**63-plus-with-edge", "2**63-plus-edgeless", "2**33-with-edge"],
    )
    def test_vertex_count_above_the_limit_exits_4(self, tmp_path, capsys, text):
        g = tmp_path / "g.graph"
        g.write_text(text)
        code, err = run_cli_err(capsys, "graph", "best-cut", "--graph", str(g), "--q", "2",
                                "--exact")
        assert code == 4
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert "more than 3037000499" in err


    def test_audit_one_cluster_per_vertex_exit_2(self, tmp_path, capsys):
        # q = n: lambda_(q+1) does not exist
        g1, g2, cut = tmp_path / "a.graph", tmp_path / "b.graph", tmp_path / "c.cut"
        fileio.save_graph(g1, WeightedGraph(3, ()))
        fileio.save_graph(g2, WeightedGraph(3, ((0, 1, 0.5), (1, 2, 0.25))))
        fileio.save_cut(cut, QCut(labels=(0, 1, 2), q=3))
        code, err = run_cli_err(
            capsys, "graph", "audit", "--graph", str(g1),
            "--perturbed", str(g2), "--cut", str(cut),
        )
        assert code == 2
        assert "Traceback" not in err and "no eigenvalue 4" in err

    def test_cluster_rows_match_per_vertex_oracle(self):
        from specbound.cli import _cluster_rows
        from specbound.graphs import cluster_table, coupling, external_degree, max_external_degree

        rng = np.random.default_rng(71)
        for _ in range(20):
            n, q = int(rng.integers(2, 16)), int(rng.integers(1, 4))
            q = min(q, n)
            labels = np.concatenate([np.arange(q), rng.integers(0, q, n - q)])
            cut = QCut(labels=tuple(int(x) for x in labels), q=q)
            edges = tuple(
                (u, v, float(rng.random() + 0.1))
                for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
            )
            graph = WeightedGraph(n, edges)
            oracle = [
                {
                    "cluster": j,
                    "size": int(len(cut.members(j))),
                    "total_external_degree": float(
                        sum(external_degree(int(v), j, cut, graph) for v in cut.members(j))
                    ),
                    "coupling": coupling(j, cut, graph),
                    "med": max_external_degree(j, cut, graph),
                }
                for j in range(q)
            ]
            rows = _cluster_rows(cluster_table(cut, graph))
            assert [sorted(r) for r in rows] == [sorted(r) for r in oracle]
            for row, expected in zip(rows, oracle):
                assert type(row["size"]) is int and row["size"] == expected["size"]
                for key in ("total_external_degree", "coupling", "med"):
                    assert type(row[key]) is float
                    assert row[key] == pytest.approx(expected[key], rel=1e-12, abs=1e-15)


class TestReproduceAndAudit:
    def test_one_cluster_per_vertex_exit_2(self, capsys):
        code, err = run_cli_err(
            capsys, "reproduce", "--n", "10", "--q", "10", "--inter-edges", "3"
        )
        assert code == 2
        assert "Traceback" not in err and "no eigenvalue 11" in err

    def test_more_clusters_than_vertices_exit_2(self, capsys):
        code, err = run_cli_err(capsys, "reproduce", "--n", "5", "--q", "6")
        assert code == 2
        assert "Traceback" not in err and "q <= n_vertices" in err

    def test_reproduce_small(self, capsys):
        code, out = run_cli(
            capsys, "reproduce", "--n", "24", "--q", "3",
            "--intra-p", "0.9", "--inter-edges", "3", "--seed", "6",
        )
        assert code == 0
        kv = parse_kv(out)
        assert kv["all_inequalities_ok"] == "true"
        assert "reference_lhs_dsp" in kv

    def test_reproduce_condition_gate_exits_zero(self, capsys):
        # enough cross edges to break the MED condition: reported, not an error
        code, out = run_cli(
            capsys, "reproduce", "--n", "14", "--q", "2",
            "--intra-p", "0.5", "--inter-edges", "30", "--seed", "2",
        )
        assert code == 0
        kv = parse_kv(out)
        assert kv["med_condition_ok"] == "false"
        assert "known_base_bound_fine" not in kv

    def test_reproduce_json_is_byte_identical_across_runs(self):
        # the eigenbasis Lanczos starts from a seeded vector and restarts from seeded ones
        argv = [sys.executable, "-m", "specbound", "reproduce", "--n", "2000", "--q", "24", "--json"]
        first, second = (subprocess.run(argv, capture_output=True) for _ in range(2))
        assert first.returncode == 0, first.stderr
        assert json.loads(first.stdout)["all_inequalities_ok"] is True
        assert first.stdout == second.stdout

    def test_audit_small(self, capsys):
        code, out = run_cli(capsys, "audit", "--count", "5", "--seed", "3")
        assert code == 0
        kv = parse_kv(out)
        assert kv["violations"] == "0"
        assert kv["instances"] == "5"

    def test_reproduce_emit_csv_builds_the_graphs_once(self, tmp_path, capsys, monkeypatch):
        from specbound import cli as cli_mod
        from specbound import experiments

        calls = []
        original = experiments.synth_clustered_graph

        def counting(cfg):
            calls.append(cfg)
            return original(cfg)

        for module in (experiments, cli_mod):
            if getattr(module, "synth_clustered_graph", None) is original:
                monkeypatch.setattr(module, "synth_clustered_graph", counting)
        out_dir = tmp_path / "csv"
        code, out = run_cli(
            capsys, "reproduce", "--n", "60", "--q", "3", "--emit-csv", str(out_dir),
        )
        assert code == 0 and parse_kv(out)["all_inequalities_ok"] == "true"
        assert len(calls) == 1
        for name in ("base_spectrum.csv", "perturbed_spectrum.csv", "base_spectrum.txt",
                     "perturbed_spectrum.txt", "clusters.csv"):
            assert (out_dir / name).exists(), name


class TestFlagsPerCommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ["partition", "--p", "p.pts", "--q", "q.pts", "--r", "r.pts", "--tol", "1e-8"],
            ["graph", "audit", "--graph", "g", "--perturbed", "p", "--cut", "c", "--tol", "nan"],
            ["graph", "synth", "--out", "demo", "--tol", "1e-8"],
            ["graph", "best-cut", "--graph", "g", "--q", "2", "--tol", "nan"],
            ["reproduce", "--tol", "-7"],
            ["audit", "--tol", "1e-8"],
            ["dsp", "--a", "a.mat", "--b", "b.mat", "--emit-csv", "out"],
            ["partition", "--p", "p.pts", "--q", "q.pts", "--r", "r.pts", "--emit-csv", "out"],
            ["search", "--perturbed", "p.mat", "--target", "t.mat", "--q", "1",
             "--emit-csv", "out"],
            ["graph", "synth", "--out", "demo", "--emit-csv", "out"],
            ["graph", "best-cut", "--graph", "g", "--q", "2", "--emit-csv", "out"],
            ["audit", "--emit-csv", "out"],
            ["search", "--perturbed", "p.mat", "--target", "t.mat", "--q", "1", "--exact"],
        ],
    )
    def test_a_flag_the_command_does_not_read_exits_2(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        err = capsys.readouterr().err
        assert excinfo.value.code == 2
        assert "Traceback" not in err and "unrecognized arguments" in err
        assert list(tmp_path.iterdir()) == []


class TestExitCodeMapping:
    def test_violation_maps_to_exit_3(self, tmp_path, capsys, monkeypatch):
        # a fabricated identity failure must surface as the soundness exit code
        from specbound import cli as cli_mod

        g = tmp_path / "g.graph"
        c = tmp_path / "c.cut"
        fileio.save_graph(g, WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0))))
        fileio.save_cut(c, QCut(labels=(0, 0, 1, 1), q=2))

        def fake_identity(ctx):
            return [{"cluster": 0, "lhs": 1.0, "rhs": 2.0, "ok": False},
                    {"cluster": 1, "lhs": 0.0, "rhs": 0.0, "ok": True}]

        monkeypatch.setattr(cli_mod.graphs, "residual_identity_check", fake_identity)
        code, out = run_cli(
            capsys, "graph", "audit", "--graph", str(g),
            "--perturbed", str(g), "--cut", str(c),
        )
        assert code == 3
        assert parse_kv(out)["residual_identity_ok"] == "false"

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["graph", "best-cut", "--graph", "{graph}", "--q", "0"], "q = 0"),
            (["graph", "best-cut", "--graph", "{graph}", "--q", "13"], "q = 13"),
            (["audit", "--n-max", "1"], "n_max"),
            (["audit", "--n-max", "0"], "n_max"),
            (["audit", "--count", "-3"], "count"),
            (["bounds", "--base", "{base}", "--perturbed", "{pert}", "--set-a", "1",
              "--tol", "nan"], "tolerance"),
            (["bounds", "--base", "{base}", "--perturbed", "{pert}", "--set-a", "1",
              "--tol", "-1"], "tolerance"),
            (["graph", "best-cut", "--graph", "{graph}", "--q", "3", "--seed", "-1"], "seed"),
        ],
    )
    def test_out_of_range_argument_exit_2(self, tmp_path, capsys, argv, named):
        files = {
            "graph": tmp_path / "ring.graph",
            "base": write_matrix(tmp_path, "base.mat", np.diag([0.0, 5.0])),
            "pert": write_matrix(tmp_path, "pert.mat", np.diag([0.1, 5.3])),
        }
        fileio.save_graph(
            files["graph"], WeightedGraph(12, tuple((i, (i + 1) % 12, 1.0) for i in range(12)))
        )
        code, err = run_cli_err(capsys, *(arg.format(**files) for arg in argv))
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err


class TestWriteErrors:
    """A write that fails, to a file or to stdout, exits 4 with one error line."""

    @pytest.fixture
    def files(self, tmp_path):
        fileio.save_graph(tmp_path / "ring.graph", WeightedGraph(6, ((0, 1, 1.0), (2, 3, 1.0))))
        (tmp_path / "file").write_text("")
        return {"graph": str(tmp_path / "ring.graph"), "dir": str(tmp_path)}

    @pytest.mark.parametrize(
        "argv, stdout",
        [
            (["graph", "synth", "--n", "12", "--q", "3", "--inter-edges", "2",
              "--out", "{dir}/no/such/dir/g"], "devnull"),
            (["reproduce", "--n", "60", "--q", "3", "--emit-csv", "{dir}/file/sub"], "devnull"),
            (["graph", "best-cut", "--graph", "{graph}", "--q", "2", "--exact", "--json"],
             "closed_pipe"),
            (["graph", "best-cut", "--graph", "{graph}", "--q", "2", "--exact", "--json"],
             "/dev/full"),
        ],
        ids=["synth-out-in-missing-dir", "csv-dir-under-a-file", "stdout-epipe", "stdout-enospc"],
    )
    def test_exit_4_without_traceback(self, files, argv, stdout):
        if stdout == "closed_pipe":
            read, fd = os.pipe()
            os.close(read)
        elif stdout == "/dev/full":
            if not os.path.exists(stdout):
                pytest.skip("no /dev/full")
            fd = os.open(stdout, os.O_WRONLY)
        else:
            fd = os.open(os.devnull, os.O_WRONLY)
        # Block-buffered stdout, as for any file or pipe: output still buffered
        # after a failed write would fail again in the interpreter's final flush.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "specbound", *(arg.format(**files) for arg in argv)],
                stdout=fd, stderr=subprocess.PIPE, text=True, env=env,
            )
        finally:
            os.close(fd)
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


# Runs one CLI call (or only the import, for argv None) in a fresh process,
# then prints the exit code and the scipy modules loaded as the last line.
_COLD_START = """
import json, sys
argv = json.loads(sys.argv[1])
from specbound.cli import main
try:
    code = 0 if argv is None else main(argv)
except SystemExit as exc:
    code = exc.code
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
print(json.dumps([code, loaded]))
"""


def on_one_line(offsets, corner=0.0) -> np.ndarray:
    """A normal matrix whose eigenvalues 0.5 + i exp(i HERMITIAN_PART_ANGLE) t
    all project to one eigenvalue of the Hermitian part that
    ``decompose_normal`` takes, so they form one coupled block.

    A non-zero ``corner`` is put in the top-right entry of the diagonal
    eigenvalue matrix before it is turned, so the result is a Schur form
    away from normal by that much."""
    t = np.diag(0.5 + 1j * np.exp(1j * HERMITIAN_PART_ANGLE) * np.asarray(offsets))
    t[0, -1] = corner
    u = random_unitary(len(t), make_rng(7))
    return (u @ t) @ u.conj().T


class TestColdStart:
    """Only the calls that need scipy load it (the pytest process has it loaded).

    The graph application's solve is numpy alone (``spectra.lanczos`` in the
    base's eigenbasis), so ``reproduce`` and ``graph audit`` need none; a
    standalone graph's Lanczos solve, as in the best-cut heuristic, is a
    SuperLU factorization.

    ``bounds`` and ``search`` need it only for a coupled block of
    ``decompose_normal`` that the skew-Hermitian part's eigenbasis leaves
    coupled, which takes input normal only to about the coupling threshold:
    an exactly normal block needs none.
    """

    @pytest.fixture
    def files(self, tmp_path):
        ring = WeightedGraph(6, tuple((i, (i + 1) % 6, 1.0 + i) for i in range(6)))
        fileio.save_graph(tmp_path / "ring.graph", ring)
        synth = tmp_path / "synth"
        assert main(["graph", "synth", "--n", "60", "--q", "3", "--out", str(synth)]) == 0
        return {
            "out": str(tmp_path / "demo"),
            "synth": str(synth),
            "graph": str(tmp_path / "ring.graph"),
            "a": write_matrix(tmp_path, "a.mat", [[1.0], [0.0]]),
            "b": write_matrix(tmp_path, "b.mat", [[1.0], [1.0]]),
            "p": write_points(tmp_path, "p.pts", [0.0]),
            "q": write_points(tmp_path, "q.pts", [10.0]),
            "r": write_points(tmp_path, "r.pts", [0.5, 9.5]),
            "herm": write_matrix(tmp_path, "herm.mat", np.diag([0.0, 1.0, 5.0])),
            "herm_t": write_matrix(tmp_path, "herm_t.mat", np.diag([0.1, 1.1, 5.3])),
            "normal": write_matrix(tmp_path, "normal.mat", np.diag([0.0, 1j, 5.0])),
            "normal_t": write_matrix(tmp_path, "normal_t.mat", np.diag([0.1, 1.1j, 5.3])),
            "coupled": write_matrix(tmp_path, "coupled.mat", on_one_line([-1.0, 0.0, 2.0])),
            "coupled_t": write_matrix(tmp_path, "coupled_t.mat", on_one_line([-0.9, 0.1, 2.2])),
            "target": write_matrix(tmp_path, "target.mat", [[1.0], [0.0], [0.0]]),
            # Departures of 3e-9, about 2e-9 ||M||_2: the coupling threshold
            # is capped at 0.25 RECONSTRUCTION_RTOL max|T_jj| / sqrt(3),
            # about 7e-10, and half the corner stays in the rotated block.
            "near": write_matrix(tmp_path, "near.mat", on_one_line([-1.0, 0.0, 2.0], 3e-9)),
            "near_t": write_matrix(tmp_path, "near_t.mat", on_one_line([-0.9, 0.1, 2.2], 3e-9)),
        }

    @pytest.mark.parametrize(
        "argv, loads_scipy",
        [
            (None, False),
            (["--help"], False),
            (["graph", "synth", "--n", "12", "--q", "3", "--inter-edges", "2",
              "--out", "{out}"], False),
            (["graph", "best-cut", "--graph", "{graph}", "--q", "2", "--exact"], False),
            (["graph", "best-cut", "--graph", "{graph}", "--q", "3", "--exact"], False),
            # the spectral heuristic solves a standalone graph: SuperLU's shift-invert
            (["graph", "best-cut", "--graph", "{graph}", "--q", "2"], True),
            (["reproduce", "--n", "60", "--q", "3"], False),
            # no added edge: the perturbed spectrum is the base's, read off its clusters
            (["reproduce", "--n", "60", "--q", "3", "--inter-edges", "0"], False),
            (["graph", "audit", "--graph", "{synth}.graph", "--perturbed",
              "{synth}.perturbed.graph", "--cut", "{synth}.cut"], False),
            (["dsp", "--a", "{a}", "--b", "{b}"], False),
            (["partition", "--p", "{p}", "--q", "{q}", "--r", "{r}"], False),
            (["bounds", "--base", "{herm}", "--perturbed", "{herm_t}", "--set-a", "1,2"],
             False),
            (["bounds", "--base", "{normal}", "--perturbed", "{normal_t}", "--set-a", "1,2"],
             False),
            (["bounds", "--base", "{coupled}", "--perturbed", "{coupled_t}", "--set-a", "1,2"],
             False),
            (["search", "--perturbed", "{coupled_t}", "--target", "{target}", "--q", "1"],
             False),
            (["bounds", "--base", "{near}", "--perturbed", "{near_t}", "--set-a", "1,2"],
             True),
            (["audit", "--count", "2"], False),
        ],
        ids=["import", "help", "graph-synth", "best-cut-q2", "best-cut-q3",
             "best-cut-heuristic", "reproduce", "reproduce-no-added-edge", "graph-audit", "dsp",
             "partition", "bounds-hermitian", "bounds-normal", "bounds-coupled",
             "search-coupled", "bounds-near-normal", "audit"],
    )
    def test_scipy_loads_only_where_needed(self, files, argv, loads_scipy):
        if argv is not None:
            argv = [arg.format(**files) for arg in argv]
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_START, json.dumps(argv)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        code, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0
        assert bool(loaded) == loads_scipy, loaded


class TestExitContract:
    """Inputs at the edges of the float range exit 0 or 2, never with a traceback."""

    def test_kappa_cap_whose_square_overflows(self, tmp_path, capsys):
        # other / own = 1e200: its square passes the float range, so the cap is 1
        base = write_matrix(tmp_path, "b.mat", np.diag([0.0, 1.0]))
        pert = write_matrix(tmp_path, "p.mat", np.diag([1e-200, 1.0]))
        code, out = run_cli(capsys, "bounds", "--base", base, "--perturbed", pert,
                            "--set-a", "1")
        assert code == 0
        assert parse_kv(out)["set_a_hat"] == "1"

    def test_simplified_squares_that_overflow_are_inf(self, tmp_path, capsys):
        base = write_matrix(tmp_path, "b.mat", np.diag([0.0, 1e200]))
        pert = write_matrix(tmp_path, "p.mat", np.diag([0.001, 1e200]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # full_main's numpy squares
            code, out = run_cli(capsys, "bounds", "--base", base, "--perturbed", pert,
                                "--set-a", "1", "--json")
        assert code == 0
        entries = {b["name"]: b for r in json.loads(out)["reports"] for b in r["bounds"]}
        for name in ("simplified_part1", "simplified_part2"):
            assert entries[name]["value"] == "inf"
            assert entries[name]["condition_ok"] is False
        assert entries["davis_kahan_part1"]["value"] == pytest.approx(1e-203)

    @pytest.mark.parametrize("command", ["bounds", "search"])
    def test_eigenvalue_modulus_past_the_float_range_exit_2(self, tmp_path, capsys, command):
        big = write_text(tmp_path, "big.mat", "matrix 2 2 real\n1e308 1e308\n1e308 1e308\n")
        if command == "bounds":
            argv = ["bounds", "--base", big, "--perturbed", big, "--set-a", "1"]
        else:
            target = write_matrix(tmp_path, "t.mat", np.eye(2)[:, :1])
            argv = ["search", "--perturbed", big, "--target", target, "--q", "1"]
        code, err = run_cli_err(capsys, *argv)
        assert code == 2
        assert err == "error: an eigenvalue's modulus overflows the float range\n"

    def test_search_q_not_below_n_exit_2(self, tmp_path, capsys):
        pert = write_matrix(tmp_path, "p.mat", np.diag([1.0, 2.0]))
        target = write_matrix(tmp_path, "t.mat", np.eye(2))
        code, err = run_cli_err(capsys, "search", "--perturbed", pert, "--target", target,
                                "--q", "2")
        assert code == 2
        assert err.startswith("error: q = 2 must lie in 1..1") and err.count("\n") == 1

    def test_graph_audit_with_infinite_residuals_and_couplings(self, tmp_path, capsys):
        # lhs = rhs = inf: the identity holds, and no square's overflow warns
        base = write_text(tmp_path, "g.graph", "graph 3\n0 1 1e308\n")
        pert = write_text(tmp_path, "gp.graph", "graph 3\n0 1 1e308\n1 2 1e308\n")
        cut = write_text(tmp_path, "c.cut", "cut 3 2\n0\n0\n1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = run_cli(capsys, "graph", "audit", "--graph", base, "--perturbed", pert,
                                "--cut", cut)
        assert code == 0
        kv = parse_kv(out)
        assert kv["residual_identity_ok"] == "true"
        assert kv["cluster_1_residual_sq"] == kv["cluster_1_coupling"] == "inf"

    @pytest.mark.parametrize("base, pert, cut, diff_norm", [
        # vertex 1's added degree passes the float range: ||Ltilde - L||_2 is inf
        ("graph 4\n2 3 1\n", "graph 4\n2 3 1\n0 1 1e308\n1 2 1e308\n",
         "cut 4 3\n0\n1\n2\n2\n", "inf"),
        # a weight whose reciprocal passes the float range: the low-rank count is not
        # certified, and the solve falls through to the next one
        ("graph 6\n3 5 0.5\n1 5 0.5\n",
         "graph 6\n0 3 0.5\n3 5 0.5\n1 5 0.5\n2 3 0.5\n0 5 5e-324\n",
         "cut 6 2\n0\n1\n0\n1\n1\n1\n", "1.5"),
    ], ids=["degree-overflows", "reciprocal-overflows"])
    def test_graph_audit_with_extreme_added_weights(self, tmp_path, capsys, base, pert, cut,
                                                    diff_norm):
        files = [write_text(tmp_path, name, text)
                 for name, text in (("g.graph", base), ("gp.graph", pert), ("c.cut", cut))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # 1 / 5e-324 in the count
            code, out = run_cli(capsys, "graph", "audit", "--graph", files[0],
                                "--perturbed", files[1], "--cut", files[2])
        assert code == 0
        kv = parse_kv(out)
        assert kv["laplacian_diff_op_norm"] == diff_norm and kv["laplacian_diff_ok"] == "true"

    def test_audit_whose_arrays_numpy_refuses_exit_2(self, capsys):
        # seed 0 draws n = 1 430 636 first: a 15 TiB array, refused at once
        code, err = run_cli_err(capsys, "audit", "--count", "1", "--n-max", "100000000")
        assert code == 2
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


class TestOnePassPerDecision:
    """Each decision is made once per command: the half-gap check, the lemma's distances."""

    @pytest.mark.parametrize("pert_diag", [[0.1, 0.1, 5.3], [0.1, 4.0, 5.3]],
                             ids=["condition-holds", "condition-fails"])
    def test_bounds_mode_all_makes_one_half_gap_pass(self, tmp_path, capsys, monkeypatch,
                                                     pert_diag):
        from specbound import bounds

        calls, half_gap = [], bounds._half_gap
        monkeypatch.setattr(bounds, "_half_gap", lambda *a: calls.append(a) or half_gap(*a))
        base = write_matrix(tmp_path, "base.mat", np.diag([0.0, 0.0, 5.0]))
        pert = write_matrix(tmp_path, "pert.mat", np.diag(pert_diag))
        code, _ = run_cli(capsys, "bounds", "--base", base, "--perturbed", pert,
                          "--set-a", "1,2", "--mode", "all")
        assert code == 0 and len(calls) == 1
        code, _ = run_cli(capsys, "bounds", "--base", base, "--perturbed", pert,
                          "--set-a", "1,2", "--set-a-tilde", "1,2", "--mode", "full")
        assert code == 0 and len(calls) == 1  # an explicit A~ needs no half-gap pass

    def test_partition_builds_two_distance_tables_per_lemma_call(self, tmp_path, capsys,
                                                                 monkeypatch):
        from specbound import setdist

        calls, cross_dist = [], setdist._cross_dist
        monkeypatch.setattr(setdist, "_cross_dist",
                            lambda *a: calls.append(a) or cross_dist(*a))
        p = write_points(tmp_path, "p.pts", [0.0, 0.1])
        q = write_points(tmp_path, "q.pts", [10.0, 10j])
        r = write_points(tmp_path, "r.pts", [0.5, 9.5, 0.2, 9.9j])
        code, out = run_cli(capsys, "partition", "--p", p, "--q", q, "--r", r)
        assert code == 0 and len(calls) == 4
        assert parse_kv(out)["p_tilde"] == "1,3"


# The fuzz's entries: the float range's edges, a subnormal, a digit separator
# that Python's float() takes, and plain values. One file in five may also
# hold a non-finite value or a non-number, and have one entry too many or too
# few.
ENTRY_POOL = ("0", "-0", "1", "-1", "0.5", "2", "3", "1e-3", "1e308", "-1e308", "1e200",
              "1e154", "5e-324", "1_0")
BAD_ENTRIES = ("nan", "inf", "-inf", "x", "1e")
# Edge weights are positive, and graph files take no digit separator.
WEIGHT_POOL = tuple(e for e in ENTRY_POOL if float(e) > 0 and "_" not in e)


ONE_IN_FIVE = st.sampled_from((False, False, False, False, True))


def entry_pool(draw, pool=ENTRY_POOL):
    return ENTRY_POOL + BAD_ENTRIES if draw(ONE_IN_FIVE) else pool


@st.composite
def body_lines(draw, count):
    """``count`` entries wrapped over lines; a file in five may be off by one."""
    pool = entry_pool(draw)
    if pool != ENTRY_POOL:
        count = max(0, count + draw(st.integers(-1, 1)))
    tokens = draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count))
    widths = draw(st.lists(st.integers(1, 4), min_size=len(tokens), max_size=len(tokens)))
    lines, at = [], 0
    for width in widths:
        if at < len(tokens):
            lines.append(" ".join(tokens[at:at + width]))
            at += width
    return lines


@st.composite
def matrix_text(draw, rows, cols):
    """A matrix file: diagonal or symmetric (so often normal) or free, real or complex."""
    kind = draw(st.sampled_from(("real", "complex")))
    shape = draw(st.sampled_from(("diagonal", "symmetric", "free")))
    if shape == "free" or rows != cols:
        lines = draw(body_lines(rows * cols * (2 if kind == "complex" else 1)))
    else:
        values = draw(st.lists(st.sampled_from(entry_pool(draw)), min_size=rows * rows,
                               max_size=rows * rows))
        grid = [[values[min(i, j) * rows + max(i, j)] if shape == "symmetric" or i == j
                 else "0" for j in range(rows)] for i in range(rows)]
        lines = [" ".join(e if kind == "real" else f"{e} 0" for e in row) for row in grid]
    return "\n".join([f"matrix {rows} {cols} {kind}", *lines]) + "\n"


@st.composite
def graph_files(draw):
    """A base graph, a perturbed graph and a cut; the perturbed one usually extends the base."""
    n = draw(st.integers(1, 8))
    q = draw(st.integers(1, n))
    rest = draw(st.lists(st.integers(0, q - 1), min_size=n - q, max_size=n - q))
    labels = draw(st.permutations([*range(q), *rest]))  # no cluster is empty
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    weights = draw(st.lists(st.sampled_from(entry_pool(draw, WEIGHT_POOL)), min_size=len(chosen),
                            max_size=len(chosen)))
    edges = [f"{u} {v} {w}" for (u, v), w in zip(chosen, weights)]
    intra = [e for (u, v), e in zip(chosen, edges) if labels[u] == labels[v]]
    if draw(ONE_IN_FIVE):  # a stray line
        edges.append(draw(st.sampled_from(("0 0 1", f"0 {n} 1", "1 0", "a b c", "0 1 1 1"))))
    return ("\n".join([f"graph {n}", *intra]) + "\n",
            "\n".join([f"graph {n}", *edges]) + "\n",
            "\n".join([f"cut {n} {q}", *map(str, labels)]) + "\n", q)


def points_text(draw):
    count = draw(st.integers(0, 4))
    return "\n".join([f"points {count}", *draw(body_lines(2 * count))]) + "\n"


def index_list(draw, n):
    if draw(ONE_IN_FIVE):
        return draw(st.sampled_from(("", ",", "x", "0", "1,1", "1_0")))
    indices = draw(st.lists(st.integers(1, n), min_size=1, max_size=max(1, n - 1), unique=True))
    return ",".join(map(str, indices))


@st.composite
def cli_call(draw):
    """One argv for a command that reads files (named ``@name``), and their texts by name."""
    command = draw(st.sampled_from(("bounds", "search", "dsp", "partition", "audit",
                                    "best-cut")))
    n = draw(st.integers(1, 6))
    if command == "bounds":
        files = {"b": draw(matrix_text(n, n)), "p": draw(matrix_text(n, n))}
        argv = ["bounds", "--base", "@b", "--perturbed", "@p", "--set-a", index_list(draw, n),
                "--mode", draw(st.sampled_from(("full", "simplified", "dk", "tilde-free",
                                                "all"))),
                "--kappa", draw(st.sampled_from(("zero", "tightest")))]
        if draw(st.booleans()):
            argv += ["--set-a-tilde", index_list(draw, n)]
    elif command == "search":
        q = draw(st.integers(0, n + 1))
        files = {"p": draw(matrix_text(n, n)), "t": draw(matrix_text(n, max(q, 1)))}
        argv = ["search", "--perturbed", "@p", "--target", "@t", "--q", str(q)]
    elif command == "dsp":
        k = draw(st.integers(1, n))
        files = {"a": draw(matrix_text(n, k)), "b": draw(matrix_text(n, k))}
        argv = ["dsp", "--a", "@a", "--b", "@b"]
    elif command == "partition":
        files = {name: points_text(draw) for name in ("p", "q", "r")}
        argv = ["partition", "--p", "@p", "--q", "@q", "--r", "@r"]
    elif command == "audit":
        base, pert, cut, _ = draw(graph_files())
        files = {"g": base, "gp": pert, "c": cut}
        argv = ["graph", "audit", "--graph", "@g", "--perturbed", "@gp", "--cut", "@c"]
    else:
        _, pert, _, q = draw(graph_files())
        files = {"g": pert}
        argv = ["graph", "best-cut", "--graph", "@g", "--q", str(q + draw(st.integers(-1, 1)))]
        if draw(st.booleans()):
            argv.append("--exact")
    if draw(st.booleans()):
        argv.append("--json")
    return argv, files


class TestExitContractFuzz:
    """Every command ends in exit 0, 2, 3 or 4 on any small input, never in an exception."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(call=cli_call())
    def test_documented_exit_code(self, tmp_path, call):
        argv, files = call
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / arg[1:]) if arg[:1] == "@" else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, files, err.getvalue())
