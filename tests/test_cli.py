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
        for flag in ([], ["--exact"]):
            code, out = run_cli(
                capsys, "search", "--perturbed", pert, "--target", target,
                "--q", "2", *flag,
            )
            assert code == 0
            kv = parse_kv(out)
            assert kv["a_tilde"] == "1,2"
            assert float(kv["d_sp"]) <= 1e-7


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


class TestReproduceAndAudit:
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


class TestExitCodeMapping:
    def test_violation_maps_to_exit_3(self, tmp_path, capsys, monkeypatch):
        # a fabricated identity failure must surface as the soundness exit code
        from specbound import cli as cli_mod

        g = tmp_path / "g.graph"
        c = tmp_path / "c.cut"
        fileio.save_graph(g, WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0))))
        fileio.save_cut(c, QCut(labels=(0, 0, 1, 1), q=2))

        def fake_identity(base, pert, cut):
            return [{"cluster": 0, "lhs": 1.0, "rhs": 2.0, "ok": False},
                    {"cluster": 1, "lhs": 0.0, "rhs": 0.0, "ok": True}]

        monkeypatch.setattr(cli_mod.graphs, "residual_identity_check", fake_identity)
        code, out = run_cli(
            capsys, "graph", "audit", "--graph", str(g),
            "--perturbed", str(g), "--cut", str(c),
        )
        assert code == 3
        assert parse_kv(out)["residual_identity_ok"] == "false"
