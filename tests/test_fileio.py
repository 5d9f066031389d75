import numpy as np
import pytest

from specbound import QCut, WeightedGraph
from specbound.errors import FormatError
from specbound import fileio


class TestMatrixFormat:
    def test_real_round_trip(self, tmp_path):
        path = tmp_path / "m.mat"
        mat = np.array([[1.0, 2.5], [-3.0, 0.25]])
        fileio.save_matrix(path, mat)
        assert path.read_text().splitlines()[0] == "matrix 2 2 real"
        assert np.allclose(fileio.load_matrix(path), mat)

    def test_complex_round_trip(self, tmp_path):
        path = tmp_path / "m.mat"
        mat = np.array([[1 + 2j, 0.5j], [3.0, -1 - 1j]])
        fileio.save_matrix(path, mat)
        assert np.allclose(fileio.load_matrix(path), mat)

    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "m.mat"
        path.write_text("# a comment\nmatrix 2 1 real\n1.0\n# another\n2.0\n")
        assert np.allclose(fileio.load_matrix(path), [[1.0], [2.0]])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.mat"
        path.write_text("matrics 2 2 real\n1 2 3 4\n")
        with pytest.raises(FormatError):
            fileio.load_matrix(path)

    def test_wrong_entry_count(self, tmp_path):
        path = tmp_path / "m.mat"
        path.write_text("matrix 2 2 real\n1 2 3\n")
        with pytest.raises(FormatError):
            fileio.load_matrix(path)

    @pytest.mark.parametrize("text", ["matrix -1 -2 real\n1 2\n", "matrix -1 -1 real\n1\n",
                                      "matrix 0 3 real\n", "matrix 2 -1 complex\n"])
    def test_dimensions_below_one(self, tmp_path, text):
        path = tmp_path / "m.mat"
        path.write_text(text)
        with pytest.raises(FormatError, match="at least 1"):
            fileio.load_matrix(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            fileio.load_matrix(tmp_path / "nope.mat")

    @pytest.mark.parametrize("entry", ["nan", "inf", "-Infinity"])
    def test_non_finite_entry(self, tmp_path, entry):
        path = tmp_path / "m.mat"
        path.write_text(f"matrix 1 2 complex\n1 {entry} 0 0\n")
        with pytest.raises(FormatError, match="non-finite"):
            fileio.load_matrix(path)


class TestPointsFormat:
    def test_load(self, tmp_path):
        path = tmp_path / "p.pts"
        path.write_text("points 2\n0 0\n1 -1\n")
        pts = fileio.load_points(path)
        assert np.allclose(pts, [0, 1 - 1j])

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "p.pts"
        path.write_text("points 3\n0 0\n1 -1\n")
        with pytest.raises(FormatError):
            fileio.load_points(path)

    def test_non_finite_entry(self, tmp_path):
        path = tmp_path / "p.pts"
        path.write_text("points 2\n0 0\n1 nan\n")
        with pytest.raises(FormatError, match="non-finite"):
            fileio.load_points(path)


class TestGraphFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "g.graph"
        g = WeightedGraph(4, ((0, 1, 1.5), (2, 3, 0.25)))
        fileio.save_graph(path, g)
        assert fileio.load_graph(path).edges == g.edges

    def test_duplicate_edges_rejected(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("graph 3\n0 1 1.0\n1 0 2.0\n")
        with pytest.raises(FormatError):
            fileio.load_graph(path)


class TestCutFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.cut"
        cut = QCut(labels=(0, 1, 0, 2), q=3)
        fileio.save_cut(path, cut)
        loaded = fileio.load_cut(path)
        assert loaded.labels == cut.labels and loaded.q == 3

    def test_empty_cluster_rejected(self, tmp_path):
        path = tmp_path / "c.cut"
        path.write_text("cut 3 3\n0\n0\n1\n")
        with pytest.raises(FormatError):
            fileio.load_cut(path)


class TestSpectrumFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "s.spec"
        vals = np.array([1 + 2j, -0.5, 3.25j])
        fileio.save_spectrum(path, vals)
        assert path.read_text().splitlines()[0] == "spectrum 3"
        assert np.allclose(fileio.load_spectrum(path), vals)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("spectrum x\n1 1 0\n", "bad eigenvalue count"),
            ("spectrum 2\n1 1 0\n1.5 2 0\n", "non-integer eigenvalue index"),
            ("spectrum 2\n1 1 0\n2 two 0\n", "non-numeric"),
            ("spectrum 3\n0 1 0\n2 2 0\n3 3 0\n", "outside 1..3"),
            ("spectrum 3\n1 1 0\n2 2 0\n4 3 0\n", "outside 1..3"),
            ("spectrum 2\n1 1 0\n99999999999999999999 2 0\n", "outside 1..2"),
            ("spectrum 3\n1 1 0\n2 2 0\n2 3 0\n", "repeated"),
            ("spectrum 2\n1 nan 0\n2 2 0\n", "non-finite"),
            ("spectrum 2\n1 1 0\n2 2 -inf\n", "non-finite"),
        ],
        ids=["count", "index", "field", "index_0", "index_past_n", "index_past_int64", "repeated",
             "nan", "inf"],
    )
    def test_malformed_file(self, tmp_path, text, message):
        path = tmp_path / "s.spec"
        path.write_text(text)
        with pytest.raises(FormatError, match=message):
            fileio.load_spectrum(path)

    def test_indices_in_any_order(self, tmp_path):
        path = tmp_path / "s.spec"
        path.write_text("spectrum 3\n3 3 0\n1 1 0.5\n2 2 0\n")
        assert fileio.load_spectrum(path).tolist() == [1 + 0.5j, 2, 3]

    def test_empty_spectrum(self, tmp_path):
        path = tmp_path / "s.spec"
        fileio.save_spectrum(path, [])
        assert fileio.load_spectrum(path).shape == (0,)

    def test_csv_emission(self, tmp_path):
        path = tmp_path / "s.csv"
        fileio.write_spectrum_csv(path, np.array([1.0, 2.0]))
        lines = path.read_text().splitlines()
        assert lines[0] == "index,re,im"
        assert lines[1].startswith("1,1,")
