import json

import numpy as np
import pytest

from specbound import QCut, WeightedGraph, fileio
from specbound.cli import main


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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
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
        from specbound.graphs import coupling, external_degree, max_external_degree

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
            rows = _cluster_rows(cut, graph)
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
