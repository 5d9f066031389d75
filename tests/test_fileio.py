import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbound import QCut, WeightedGraph
from specbound.cli import main
from specbound.errors import FormatError
from specbound import fileio
from specbound.graphs import MAX_VERTICES

import token_oracle


# -- the per-element writers the array writers replaced, kept as oracles -------

def oracle_save_matrix(path, matrix) -> None:
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


def oracle_save_graph(path, graph: WeightedGraph) -> None:
    lines = [f"graph {graph.n_vertices}"]
    lines.extend(f"{u} {v} {w:.17g}" for u, v, w in graph.edges)
    Path(path).write_text("\n".join(lines) + "\n")


# -- the array writers that built the whole text, kept as oracles of the streaming ones --

def text_save_matrix(path, matrix) -> None:
    mat = np.asarray(matrix)
    is_complex = np.iscomplexobj(mat) and np.abs(mat.imag).max(initial=0.0) > 0
    kind = "complex" if is_complex else "real"
    parts = np.stack((mat.real, mat.imag), axis=-1) if is_complex else np.real(mat)
    width = mat.shape[1] * (2 if is_complex else 1)
    line = " ".join(["%.17g"] * width)
    rows = parts.reshape(mat.shape[0], width).astype(float)
    lines = [f"matrix {mat.shape[0]} {mat.shape[1]} {kind}"]
    lines.extend(line % tuple(row) for row in rows.tolist())
    Path(path).write_text("\n".join(lines) + "\n")


def text_save_graph(path, graph: WeightedGraph) -> None:
    lines = [f"graph {graph.n_vertices}"]
    columns = graph.u.tolist(), graph.v.tolist(), graph.w.tolist()
    lines.extend(map("%d %d %.17g".__mod__, zip(*columns)))
    Path(path).write_text("\n".join(lines) + "\n")


def text_save_spectrum(path, eigenvalues) -> None:
    vals = np.asarray(eigenvalues, dtype=complex)
    lines = [f"spectrum {len(vals)}"]
    columns = range(1, len(vals) + 1), vals.real.tolist(), vals.imag.tolist()
    lines.extend(map("%d %.17g %.17g".__mod__, zip(*columns)))
    Path(path).write_text("\n".join(lines) + "\n")


def bits(values) -> np.ndarray:
    """The IEEE bit patterns of a float or complex array, so -0.0 != 0.0."""
    return np.ascontiguousarray(values).view(np.uint64)


# Signed zeros, subnormals, the float range's edges and ordinary values.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
WEIGHTS = st.one_of(st.sampled_from([x for x in EDGE_FLOATS if x > 0]),
                    st.floats(min_value=5e-324, allow_infinity=False))


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = st.lists(FLOATS, min_size=rows * cols, max_size=rows * cols)
    real = np.array(draw(entries)).reshape(rows, cols)
    kind = draw(st.sampled_from(["real", "complex", "zero imaginary part"]))
    if kind == "real":
        return real
    mat = np.empty((rows, cols), dtype=complex)  # set part by part, as re + 1j * im drops -0.0
    mat.real = real
    if kind == "complex":
        mat.imag = np.array(draw(entries)).reshape(rows, cols)
    else:
        mat.imag = draw(st.sampled_from([0.0, -0.0]))
    return mat


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), max_size=12))
    keys = list(dict.fromkeys((min(p), max(p)) for p in pairs))
    weights = draw(st.lists(WEIGHTS, min_size=len(keys), max_size=len(keys)))
    return WeightedGraph(n, tuple((u, v, w) for (u, v), w in zip(keys, weights)))


class TestArrayCodecs:
    """The row and column writers write the oracles' bytes, and read back bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(mat=matrices())
    def test_matrix_bytes_and_round_trip(self, tmp_path_factory, mat):
        tmp = tmp_path_factory.mktemp("m")
        fileio.save_matrix(tmp / "new.mat", mat)
        oracle_save_matrix(tmp / "old.mat", mat)
        assert (tmp / "new.mat").read_bytes() == (tmp / "old.mat").read_bytes()
        # A matrix whose imaginary parts are all zero is written real; it reads back +0.0.
        written_complex = (tmp / "new.mat").read_text().split("\n")[0].endswith("complex")
        expected = mat if written_complex else np.real(mat).astype(complex)
        loaded = fileio.load_matrix(tmp / "new.mat")
        assert loaded.dtype == complex and loaded.shape == mat.shape
        assert np.array_equal(bits(loaded), bits(expected))

    @settings(max_examples=200, deadline=None)
    @given(graph=graphs())
    def test_graph_bytes_and_round_trip(self, tmp_path_factory, graph):
        tmp = tmp_path_factory.mktemp("g")
        fileio.save_graph(tmp / "new.graph", graph)
        oracle_save_graph(tmp / "old.graph", graph)
        assert (tmp / "new.graph").read_bytes() == (tmp / "old.graph").read_bytes()
        loaded = fileio.load_graph(tmp / "new.graph")
        assert loaded.n_vertices == graph.n_vertices
        assert np.array_equal(loaded.u, graph.u) and np.array_equal(loaded.v, graph.v)
        assert np.array_equal(bits(loaded.w), bits(graph.w))

    def test_spectrum_bytes(self, tmp_path):
        vals = np.array([1 + 2j, -0.0, 5e-324j, complex(1e308, -1e308), 1 / 3])
        fileio.save_spectrum(tmp_path / "s.spec", vals)
        lines = [f"spectrum {len(vals)}"] + [
            f"{i + 1} {z.real:.17g} {z.imag:.17g}" for i, z in enumerate(vals)]
        assert (tmp_path / "s.spec").read_text() == "\n".join(lines) + "\n"
        assert np.array_equal(bits(fileio.load_spectrum(tmp_path / "s.spec")), bits(vals))


class TestStreamingWriters:
    """The line-by-line writers write the whole-text writers' bytes."""

    @pytest.mark.parametrize(
        "mat",
        [
            np.arange(12.0).reshape(3, 4) / 7,
            np.array([[1 + 2j, -0.0], [5e-324j, complex(1e308, -1e308)]]),
            np.array([[1 / 3]]),
            np.array([[-0.0 + 0j]]),
            np.random.default_rng(3).standard_normal((fileio.WRITE_CHUNK + 5, 3)),
        ],
        ids=["real", "complex", "1x1", "1x1-zero-imaginary", "past-one-chunk"],
    )
    def test_matrix(self, tmp_path, mat):
        fileio.save_matrix(tmp_path / "new.mat", mat)
        text_save_matrix(tmp_path / "old.mat", mat)
        assert (tmp_path / "new.mat").read_bytes() == (tmp_path / "old.mat").read_bytes()

    @pytest.mark.parametrize(
        "graph",
        [
            WeightedGraph(5, ()),
            WeightedGraph(1, ()),
            WeightedGraph(4, ((0, 1, 1 / 3), (2, 3, 5e-324), (1, 3, 1e308))),
            WeightedGraph.from_arrays(
                fileio.WRITE_CHUNK + 2,
                np.arange(fileio.WRITE_CHUNK + 1), np.arange(1, fileio.WRITE_CHUNK + 2),
                np.linspace(0.1, 7.0, fileio.WRITE_CHUNK + 1),
            ),
        ],
        ids=["empty-edges", "one-vertex", "weights", "past-one-chunk"],
    )
    def test_graph(self, tmp_path, graph):
        fileio.save_graph(tmp_path / "new.graph", graph)
        text_save_graph(tmp_path / "old.graph", graph)
        assert (tmp_path / "new.graph").read_bytes() == (tmp_path / "old.graph").read_bytes()

    @pytest.mark.parametrize(
        "vals",
        [[], [1 + 2j], np.linspace(-1, 1, fileio.WRITE_CHUNK + 3) * (1 - 0.5j)],
        ids=["empty", "one", "past-one-chunk"],
    )
    def test_spectrum(self, tmp_path, vals):
        fileio.save_spectrum(tmp_path / "new.spec", vals)
        text_save_spectrum(tmp_path / "old.spec", vals)
        assert (tmp_path / "new.spec").read_bytes() == (tmp_path / "old.spec").read_bytes()


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

    def test_entries_wrap_lines_in_float_syntax(self, tmp_path):
        path = tmp_path / "m.mat"
        path.write_text("matrix 2 2 complex\n1 2 3\n# mid-row\n4\n1_0 -0.0\n .5e1\t١ \n")
        expected = np.array([[1 + 2j, 3 + 4j], [complex(10, -0.0), 5 + 1j]])
        assert np.array_equal(bits(fileio.load_matrix(path)), bits(expected))

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


# Entries that only the token path reads (1_0, non-ASCII digits), that both
# paths reject (non-finite, non-numeric), and the float range's edges.
EDGE_TOKENS = ["1_0", "\u0661\u0662", "nan", "inf", "-Infinity", "1e400", "-1e400", "-0.0", "-0",
               ".5", "5e-324", "-5e-324", "1e-310", "2.2250738585072014e-308",
               "1.7976931348623157e308", "-1.7976931348623157e308", "+1E5", "x", "1#", "0x1"]
TOKENS = st.one_of(st.sampled_from(EDGE_TOKENS), FLOATS.map(repr), FLOATS.map("%.17g".__mod__))
SEPARATORS = st.sampled_from([" ", "\t", "  ", "\xa0", "\u2003"])
LINE_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\u2028"])


@st.composite
def bodies(draw):
    """Body text and its token count: rows, wrapped or ragged, comments between them."""
    tokens = draw(st.lists(TOKENS, max_size=12))
    layout = draw(st.sampled_from(["rows", "wrapped", "one per line", "single line"]))
    if layout == "rows":
        width = draw(st.integers(1, 4))
        breaks = [i % width == width - 1 for i in range(len(tokens))]
    elif layout == "wrapped":
        breaks = draw(st.lists(st.booleans(), min_size=len(tokens), max_size=len(tokens)))
    else:
        breaks = [layout == "one per line"] * len(tokens)
    text = ""
    for token, end in zip(tokens, breaks):
        text += token + (draw(LINE_BREAKS) if end else draw(SEPARATORS))
        if end and draw(st.integers(0, 3)) == 0:
            text += draw(st.sampled_from(["# between rows", "  # indented", "#"])) + draw(LINE_BREAKS)
    if draw(st.booleans()):
        text += draw(st.sampled_from(["# note", "1 # note"]))
    return text, len(tokens)


def outcome(loader, path):
    """A loader's array as (dtype, shape, bits), or its FormatError message."""
    try:
        values = loader(path)
    except FormatError as exc:
        return str(exc)
    return values.dtype, values.shape, bits(values).tolist()


class TestLoadtxtReader:
    """Matrix and point bodies read as the token-by-token oracle reads them, bit for bit."""

    @staticmethod
    def assert_same(path, header, body):
        path.write_bytes(f"{header}\n{body}".encode())
        loader, oracle = {"matrix": (fileio.load_matrix, token_oracle.load_matrix),
                          "points": (fileio.load_points, token_oracle.load_points)}[header.split()[0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert outcome(loader, path) == outcome(oracle, path)

    @settings(max_examples=600, deadline=None)
    @given(drawn=bodies(), data=st.data())
    def test_matches_the_token_oracle(self, tmp_path_factory, drawn, data):
        body, count = drawn
        count += data.draw(st.sampled_from([0, 0, 0, -1, 1]))
        kind = data.draw(st.sampled_from(["real", "complex", "points"]))
        if kind == "points":
            header = f"points {count // 2}"
        elif kind == "complex":
            header = f"matrix 1 {max(count // 2, 1)} complex"
        else:
            header = data.draw(st.sampled_from([f"matrix 1 {max(count, 1)} real",
                                                f"matrix {max(count, 1)} 1 real"]))
        self.assert_same(tmp_path_factory.mktemp("body") / "f", header, body)

    @pytest.mark.parametrize(
        "header, body",
        [("matrix 2 3 real", "1 2 3\n4 5 6\n"),
         ("matrix 2 2 complex", "1 2 3\n4 5\n6 7 8\n"),
         ("matrix 2 2 real", "1 2\n3\n4\n"),
         ("matrix 3 1 real", "1\n2\n3\n"),
         ("matrix 1 4 real", "1 2 3 4"),
         ("matrix 1 1 real", ""),
         ("points 0", ""),
         ("matrix 2 2 real", "1 2\n# between rows\n3 4\n"),
         ("matrix 2 2 real", "1 2\n3 # 4\n"),
         ("matrix 2 2 real", "1 2\r\n3 4\r\n"),
         ("matrix 2 2 real", "1 2\r3 4\r"),
         ("matrix 2 2 real", "1 2\u20283 4"),
         ("matrix 2 2 real", "1\xa02\n3\u20034\n"),
         ("matrix 2 2 real", "1_0 2\n3 4\n"),
         ("matrix 2 2 real", "1 \u0661\u0662\n3 4\n"),
         ("matrix 2 2 real", "1 2\n3 nan\n"),
         ("matrix 2 2 real", "1 inf\n3 4\n"),
         ("matrix 2 2 real", "1 2\n3 1e400\n"),
         ("matrix 2 2 complex", "-0.0 -0 5e-324 -5e-324\n1e-310 2.2250738585072014e-308 "
                                "1.7976931348623157e308 -1.7976931348623157e308\n"),
         ("matrix 2 2 real", "1 2\n3 4 5\n"),
         ("points 2", "0 0\n1 -1\n"),
         ("points 2", "0 0 1\n-1\n"),
         ("points 2", "0 0\n1 nan\n"),
         ("points 2", "0 0\n1_0 -1\n"),
         ("points 3", "0 0\n1 -1\n")],
        ids=["rectangular", "ragged", "wrapped", "one-per-line", "single-line",
             "empty-matrix", "empty-points", "comment-line", "comment-mid-line", "crlf", "cr",
             "u2028", "nbsp-em-space", "underscore", "arabic-indic-digits", "nan", "inf",
             "1e400", "signed-zeros-subnormals-extremes", "count-too-high", "points",
             "points-wrapped", "points-nan", "points-underscore", "points-count"],
    )
    def test_named_bodies(self, tmp_path, header, body):
        self.assert_same(tmp_path / "f", header, body)

    @settings(max_examples=100, deadline=None)
    @given(mat=matrices())
    def test_written_files_never_take_the_token_path(self, tmp_path_factory, mat):
        def token_path(*args):
            raise AssertionError("a written file reached the token path")

        tmp = tmp_path_factory.mktemp("w")
        fileio.save_matrix(tmp / "m.mat", mat)
        flat = np.asarray(mat, dtype=complex).ravel()
        (tmp / "p.pts").write_text(
            f"points {flat.size}\n" + "".join(f"{z.real:.17g} {z.imag:.17g}\n" for z in flat))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fileio, "_token_entries", token_path)
            loaded = fileio.load_matrix(tmp / "m.mat")
            points = fileio.load_points(tmp / "p.pts")
        assert np.array_equal(bits(loaded), bits(token_oracle.load_matrix(tmp / "m.mat")))
        assert np.array_equal(bits(points), bits(flat))

    def test_utf8_comment_under_the_c_locale(self, tmp_path):
        path = tmp_path / "f.mat"
        path.write_bytes("# café\nmatrix 2 1 real\n1\n0\n".encode())
        env = {**os.environ, "PYTHONUTF8": "0", "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}
        proc = subprocess.run(
            [sys.executable, "-m", "specbound", "dsp", "--a", str(path), "--b", str(path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr


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


class TestGraphReader:
    """Edge lines are read as one array; a bad one exits 4 with one error line."""

    @pytest.mark.parametrize(
        "edges",
        ["0 1\n", "0 1 1.0 2\n", "1.5 2 1.0\n", "1.0 2 1.0\n", "0 1 1.0 # note\n", "0 1 nan\n",
         "0 99999999999999999999 1.0\n", "0 3_0 1.0\n", "0 \u0662 1.0\n", "0 1 1_0\n", "0 1 -1\n",
         "0 1 1.0\n1 0 2.0\n", "0 7 1.0\n"],
        ids=["2-fields", "4-fields", "endpoint-1.5", "endpoint-1.0", "trailing-comment",
             "nan-weight", "endpoint-overflow", "underscore", "non-ascii-digit",
             "underscore-weight", "negative-weight", "duplicate", "out-of-range"],
    )
    def test_malformed_edge_line_exits_4(self, tmp_path, capsys, edges):
        path = tmp_path / "g.graph"
        path.write_text("graph 3\n0 2 1.0\n" + edges)
        with pytest.raises(FormatError):
            fileio.load_graph(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["graph", "best-cut", "--graph", str(path), "--q", "1", "--exact"])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        ["graph 3\r0 1 1.5\r1 2 0.25\r", "graph 3\r\n0 1 1.5\r\n1 2 0.25",
         "# a graph\ngraph 3\n\n0 1 1.5\n  # between edges\n\n\t\n1 2 0.25\n# end\n",
         "graph 3\n0\u30001\t1.5\n +1 2 .25 \n"],
        ids=["cr-only", "crlf-no-final-newline", "comments-and-blank-lines", "unicode-whitespace"],
    )
    def test_loads(self, tmp_path, text):
        path = tmp_path / "g.graph"
        path.write_bytes(text.encode())
        assert fileio.load_graph(path) == WeightedGraph(3, ((0, 1, 1.5), (1, 2, 0.25)))

    @pytest.mark.parametrize("count", ["1_0", "\u0663", "3.0"])
    def test_header_count_not_plain_decimal(self, tmp_path, count):
        path = tmp_path / "g.graph"
        path.write_text(f"graph {count}\n0 1 1.0\n")
        with pytest.raises(FormatError, match="bad vertex count"):
            fileio.load_graph(path)

    @pytest.mark.parametrize(
        "text",
        ["graph 99999999999999999999\n0 1 1\n", "graph 99999999999999999999\n",
         "graph 8589934592\n0 1 1\n", "graph 3037000500\n"],
        ids=["2**63-plus-with-edge", "2**63-plus-edgeless", "2**33-with-edge", "limit-plus-1"],
    )
    def test_vertex_count_above_the_limit(self, tmp_path, text):
        path = tmp_path / "g.graph"
        path.write_text(text)
        with pytest.raises(FormatError, match="more than 3037000499"):
            fileio.load_graph(path)

    def test_vertex_count_at_the_limit(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("graph 3037000499\n3037000497 3037000498 1\n0 1 1\n")
        graph = fileio.load_graph(path)
        assert graph.n_vertices == MAX_VERTICES
        assert graph.edge_keys().tolist() == [1, 3037000497 * 3037000499 + 3037000498]

    def test_header_without_edges_warns_nothing(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("graph 4\n# no edges\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graph = fileio.load_graph(path)
        assert graph.n_vertices == 4 and len(graph.w) == 0
        assert graph.u.dtype == graph.v.dtype == np.int64 and graph.w.dtype == np.float64

    @pytest.mark.parametrize("loader", [fileio.load_graph, fileio.load_matrix, fileio.load_cut])
    def test_undecodable_file(self, tmp_path, loader):
        path = tmp_path / "bad"
        path.write_bytes(b"graph 3\n0 1 \xff\n")
        with pytest.raises(FormatError, match="cannot read"):
            loader(path)


# Characters that numbers, separators, comments and line breaks are made of.
BODY_TEXT = st.text(st.sampled_from(list("0123456789 .-+e#_nai\n\r\t\x00\x0c\x85　١")),
                    max_size=40)


@settings(max_examples=300, deadline=None)
@given(header=st.sampled_from(["matrix 2 1 real", "matrix 1 1 complex", "points 2", "graph 3",
                               "cut 3 2", "spectrum 2"]),
       body=BODY_TEXT)
def test_any_body_loads_or_raises_format_error(tmp_path_factory, header, body):
    path = tmp_path_factory.mktemp("fuzz") / "f"
    path.write_bytes(f"{header}\n{body}".encode())
    loader = {"matrix": fileio.load_matrix, "points": fileio.load_points,
              "graph": fileio.load_graph, "cut": fileio.load_cut,
              "spectrum": fileio.load_spectrum}[header.split()[0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            loader(path)
        except FormatError:
            pass


class TestCutFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.cut"
        cut = QCut(labels=(0, 1, 0, 2), q=3)
        fileio.save_cut(path, cut)
        loaded = fileio.load_cut(path)
        assert loaded.labels == cut.labels and loaded.q == 3

    @pytest.mark.parametrize("label", ["1_0", "\u0661", "1.0", "0x1"])
    def test_label_not_plain_decimal(self, tmp_path, label):
        path = tmp_path / "c.cut"
        path.write_text(f"cut 3 2\n0\n{label}\n1\n")
        with pytest.raises(FormatError, match="non-integer label"):
            fileio.load_cut(path)

    def test_label_past_64_bits_is_out_of_range(self, tmp_path):
        path = tmp_path / "c.cut"
        path.write_text(f"cut 3 2\n0\n{2**64}\n1\n")
        with pytest.raises(FormatError, match=re.escape("labels must lie in [0, 2)")):
            fileio.load_cut(path)

    def test_labels_wrap_lines(self, tmp_path):
        path = tmp_path / "c.cut"
        path.write_text("cut 4 2\n0 +1\n# comment\n0\n\n1\n")
        assert fileio.load_cut(path).labels == (0, 1, 0, 1)

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
            ("spectrum 2\n1 1 0\n\u0662 2 0\n", "non-integer eigenvalue index"),
            ("spectrum 2\n1 1 0\n2 two 0\n", "non-numeric"),
            ("spectrum 3\n0 1 0\n2 2 0\n3 3 0\n", "outside 1..3"),
            ("spectrum 3\n1 1 0\n2 2 0\n4 3 0\n", "outside 1..3"),
            ("spectrum 2\n1 1 0\n99999999999999999999 2 0\n", "outside 1..2"),
            ("spectrum 3\n1 1 0\n2 2 0\n2 3 0\n", "repeated"),
            ("spectrum 2\n1 nan 0\n2 2 0\n", "non-finite"),
            ("spectrum 2\n1 1 0\n2 2 -inf\n", "non-finite"),
        ],
        ids=["count", "index", "index_non_ascii", "field", "index_0", "index_past_n",
             "index_past_int64", "repeated", "nan", "inf"],
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
