import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbound import (
    IndicatorFrame,
    OrthonormalFrame,
    complement_frame,
    dsp_complement,
    dsp_overlap,
    dsp_projector,
    dsp_residual,
    orthonormalize,
)
from specbound.errors import (
    DimensionMismatch,
    FullSpace,
    NotOrthonormal,
    RankDeficient,
)

from conftest import make_rng, random_frame, random_unitary


def projector_distance_oracle(x: np.ndarray, y: np.ndarray) -> float:
    """Independent evaluation straight from the definition."""
    px = x @ x.conj().T
    py = y @ y.conj().T
    q = x.shape[1]
    return float(np.linalg.norm(px - py) / np.sqrt(2 * q))


class TestOrthonormalize:
    def test_orthonormal_input_unchanged(self):
        raw = np.eye(3, dtype=complex)[:, :2]
        frame = orthonormalize(raw)
        assert np.allclose(frame.columns, raw)

    def test_single_column_scaled(self):
        frame = orthonormalize(np.array([[3.0], [4.0]]))
        # normalize (3, 4) by its Euclidean length 5
        assert np.allclose(frame.columns.ravel(), [0.6, 0.8])

    def test_repeated_column_rank_deficient(self):
        e1 = np.array([[1.0], [0.0], [0.0]])
        with pytest.raises(RankDeficient):
            orthonormalize(np.hstack([e1, e1]))

    def test_zero_matrix_rank_deficient(self):
        with pytest.raises(RankDeficient):
            orthonormalize(np.zeros((3, 1)))


@st.composite
def raw_columns(draw):
    """A random n x q matrix, n <= 12 and 1 <= q <= n + 1, real or complex."""
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 12))
    q = draw(st.integers(1, n + 1))
    raw = rng.standard_normal((n, q))
    if draw(st.booleans()):
        raw = raw + 1j * rng.standard_normal((n, q))
    return raw, rng


class TestFrameProperties:
    @settings(max_examples=200, deadline=None)
    @given(raw_columns())
    def test_qr_frame_and_its_complement(self, drawn):
        raw, rng = drawn
        n, q = raw.shape
        if q > n:  # a column past the n-th is always dependent
            with pytest.raises(RankDeficient, match=f"column {n} is dependent"):
                orthonormalize(raw)
            return
        frame = orthonormalize(raw)
        cols = frame.columns
        assert np.linalg.norm(cols.conj().T @ cols - np.eye(q)) <= 1e-13 * q
        # the projector onto raw's column space, independently through its pseudoinverse
        onto_raw = raw @ np.linalg.pinv(raw)
        assert np.linalg.norm(frame.projector() - onto_raw) <= 1e-14 * np.linalg.cond(raw) * n
        # each column keeps its raw column's direction: Gram-Schmidt's positive diagonal
        diag = np.diagonal(cols.conj().T @ raw)
        assert np.abs(diag.imag).max() <= 1e-13 * np.linalg.norm(raw)
        assert (diag.real > 0).all()
        if q < n:
            comp = complement_frame(frame).columns
            assert comp.shape == (n, n - q)
            assert np.linalg.norm(cols.conj().T @ comp) <= 1e-13 * n
            full = np.hstack([cols, comp])
            assert np.linalg.norm(full.conj().T @ full - np.eye(n)) <= 1e-13 * n
        else:
            with pytest.raises(FullSpace):
                complement_frame(frame)
        if q > 1:  # column k becomes a combination of the earlier ones
            k = int(rng.integers(1, q))
            dependent = raw.copy()
            dependent[:, k] = raw[:, :k] @ rng.standard_normal(k)
            with pytest.raises(RankDeficient, match=f"column {k} is dependent"):
                orthonormalize(dependent)


class TestFrameValidation:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(NotOrthonormal):
            OrthonormalFrame(np.array([[1.0, 0.9], [0.0, 0.1]]))

    def test_rejects_non_finite_columns(self):
        # Their Gram defect is NaN, which no tolerance comparison lets through.
        with np.errstate(invalid="ignore"):
            with pytest.raises(NotOrthonormal):
                OrthonormalFrame(np.array([[np.inf, 0.0], [0.0, 1.0]]))
            with pytest.raises(NotOrthonormal):
                orthonormalize(np.array([[np.nan], [1.0]]))

    def test_rejects_bad_shape(self):
        with pytest.raises(DimensionMismatch):
            OrthonormalFrame(np.ones((2, 3)))

    def test_columns_read_only(self):
        frame = orthonormalize(np.eye(2))
        with pytest.raises(ValueError):
            frame.columns[0, 0] = 5.0

    def test_real_input_stays_real(self):
        for raw in (np.eye(3)[:, :2], np.eye(3, dtype=np.float32)[:, :2], np.eye(3, dtype=int)):
            frame = OrthonormalFrame(raw)
            assert frame.columns.dtype == np.float64
            assert np.array_equal(frame.columns, raw)

    def test_complex_input_is_copied_bit_for_bit(self):
        raw = random_frame(7, 3, make_rng(11)).columns.copy()
        frame = OrthonormalFrame(raw)
        assert frame.columns.dtype == complex and frame.columns.tobytes() == raw.tobytes()
        assert OrthonormalFrame(np.eye(3, dtype=np.complex64)[:, :2]).columns.dtype == complex
        raw[0, 0] = 5.0
        assert frame.columns[0, 0] != 5.0


def random_labels(n, q, rng):
    """n labels in [0, q), each class used at least once, in random order."""
    return rng.permutation(np.concatenate((np.arange(q), rng.integers(0, q, n - q))))


class TestIndicatorFrame:
    def test_columns_are_the_normalized_indicators(self):
        frame = IndicatorFrame([1, 0, 1, 1], 2)
        expected = np.array([[0, 1], [1, 0], [0, 1], [0, 1]]) / np.sqrt([1.0, 3.0])
        assert frame.columns.dtype == np.float64
        assert np.array_equal(frame.columns, expected)
        assert (frame.n, frame.q) == (4, 2)
        with pytest.raises(ValueError):
            frame.columns[0, 0] = 5.0

    def test_products_and_residual_match_the_dense_frame(self):
        rng = make_rng(12)
        for _ in range(40):
            n = int(rng.integers(1, 60))
            q = int(rng.integers(1, min(n, 8) + 1))
            labels = random_labels(n, q, rng)
            # sorted labels sum Y's rows in place, others a reordered copy
            for x, y in itertools.product(
                (IndicatorFrame(labels, q), IndicatorFrame(np.sort(labels), q)),
                (OrthonormalFrame(np.linalg.qr(rng.standard_normal((n, q)))[0]),
                 random_frame(n, q, rng)),
            ):
                dense = OrthonormalFrame(x.columns)
                coords = x.coordinates(y.columns)
                assert np.abs(coords - dense.coordinates(y.columns)).max() <= 1e-14
                assert np.abs(x.combine(coords) - dense.combine(coords)).max() <= 1e-14
                column = x.coordinates(y.columns[:, 0])
                assert column.shape == (q,)
                assert np.abs(x.combine(column) - dense.combine(column)).max() <= 1e-14
                assert abs(dsp_residual(x, y) - dsp_residual(dense, y)) <= 1e-14
                assert abs(dsp_overlap(x, y) - dsp_overlap(dense, y)) <= 1e-7
                assert abs(dsp_residual(x, y) - dsp_projector(dense, y)) <= 1e-10

    def test_residual_is_y_less_its_class_means(self):
        labels = np.array([0, 1, 0, 2, 1, 0])
        x = IndicatorFrame(labels, 3)
        y = OrthonormalFrame(np.linalg.qr(make_rng(13).standard_normal((6, 3)))[0])
        means = np.array([y.columns[labels == j].mean(axis=0) for j in range(3)])
        outside = y.columns - means[labels]
        assert dsp_residual(x, y) == pytest.approx(np.linalg.norm(outside) / np.sqrt(3), rel=1e-14)

    @pytest.mark.parametrize(
        "labels, q, error",
        [([0, 1, 1], 3, RankDeficient), ([0, 2, 1], 2, DimensionMismatch),
         ([0, -1], 2, DimensionMismatch), ([[0, 1]], 2, DimensionMismatch),
         ([0, 1], 0, DimensionMismatch), ([0], 2, DimensionMismatch),
         ([0, 1.5, 1], 2, DimensionMismatch), (["0", "1"], 2, DimensionMismatch)],
        ids=["empty_class", "label_too_large", "negative_label", "two_dimensional",
             "no_class", "more_classes_than_points", "fraction", "strings"],
    )
    def test_rejects_bad_labels(self, labels, q, error):
        with pytest.raises(error):
            IndicatorFrame(labels, q)

    def test_takes_integral_floats_and_bools(self):
        for labels in ((0.0, 1.0, 1.0), (False, True, True)):
            frame = IndicatorFrame(labels, 2)
            assert frame.labels.dtype == np.int64 and frame.labels.tolist() == [0, 1, 1]


class TestComplement:
    def test_c2_complement_of_e1_spans_e2(self):
        frame = OrthonormalFrame(np.array([[1.0], [0.0]]))
        comp = complement_frame(frame)
        assert comp.q == 1
        assert abs(comp.columns[1, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_c3_complement_of_e1_e2_spans_e3(self):
        frame = OrthonormalFrame(np.eye(3)[:, :2])
        comp = complement_frame(frame)
        assert comp.q == 1
        assert abs(comp.columns[2, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_full_space_rejected(self):
        with pytest.raises(FullSpace):
            complement_frame(OrthonormalFrame(np.eye(2)))

    def test_random_complement_is_orthogonal_and_completes_unitary(self):
        rng = make_rng(11)
        for _ in range(20):
            frame = random_frame(5, 2, rng)
            comp = complement_frame(frame)
            assert np.linalg.norm(frame.columns.conj().T @ comp.columns) <= 1e-10
            full = np.hstack([frame.columns, comp.columns])
            assert np.linalg.norm(full.conj().T @ full - np.eye(5)) <= 1e-10


class TestDistanceExamples:
    def test_identical_subspace_zero(self):
        rng = make_rng(3)
        frame = random_frame(4, 2, rng)
        assert dsp_projector(frame, frame) <= 1e-10

    def test_orthogonal_lines_distance_one(self):
        e1 = OrthonormalFrame(np.array([[1.0], [0.0]]))
        e2 = OrthonormalFrame(np.array([[0.0], [1.0]]))
        assert dsp_projector(e1, e2) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_line_against_axis(self):
        e1 = np.array([[1.0], [0.0]])
        mix = np.array([[1.0], [1.0]]) / np.sqrt(2)
        expected = projector_distance_oracle(e1, mix)
        assert expected == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        got = dsp_projector(OrthonormalFrame(e1), OrthonormalFrame(mix))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_overlap_examples(self):
        e1 = OrthonormalFrame(np.array([[1.0], [0.0]]))
        e2 = OrthonormalFrame(np.array([[0.0], [1.0]]))
        mix = OrthonormalFrame(np.array([[1.0], [1.0]]) / np.sqrt(2))
        assert dsp_overlap(e1, e1) == pytest.approx(0.0, abs=1e-12)
        assert dsp_overlap(e1, e2) == pytest.approx(1.0, abs=1e-12)
        assert dsp_overlap(e1, mix) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_complement_form_mirrors_projector_form(self):
        rng = make_rng(4)
        for _ in range(10):
            x = random_frame(5, 2, rng)
            y = random_frame(5, 2, rng)
            via_comp = dsp_complement(complement_frame(x), y)
            assert via_comp == pytest.approx(dsp_projector(x, y), abs=1e-10)

    def test_dimension_mismatch(self):
        a = OrthonormalFrame(np.eye(3)[:, :1])
        b = OrthonormalFrame(np.eye(2)[:, :1])
        with pytest.raises(DimensionMismatch):
            dsp_projector(a, b)
        with pytest.raises(DimensionMismatch):
            dsp_complement(a, b)


class TestMetricProperties:
    def test_three_form_agreement(self):
        rng = make_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 11))
            q = int(rng.integers(1, n))
            x, y = random_frame(n, q, rng), random_frame(n, q, rng)
            d = dsp_projector(x, y)
            assert abs(d - dsp_overlap(x, y)) <= 1e-10
            assert abs(d - dsp_residual(x, y)) <= 1e-10
            assert abs(d - dsp_complement(complement_frame(x), y)) <= 1e-10

    def test_basis_invariance(self):
        rng = make_rng(6)
        for _ in range(25):
            n, q = 6, 3
            x, y = random_frame(n, q, rng), random_frame(n, q, rng)
            rx, ry = random_unitary(q, rng), random_unitary(q, rng)
            rotated = dsp_projector(
                OrthonormalFrame(x.columns @ rx), OrthonormalFrame(y.columns @ ry)
            )
            assert abs(rotated - dsp_projector(x, y)) <= 1e-10

    def test_metric_axioms(self):
        rng = make_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            q = int(rng.integers(1, n))
            x, y, z = (random_frame(n, q, rng) for _ in range(3))
            assert abs(dsp_projector(x, y) - dsp_projector(y, x)) <= 1e-12
            assert dsp_projector(x, x) <= 1e-10
            assert dsp_projector(x, z) <= dsp_projector(x, y) + dsp_projector(y, z) + 1e-9

    def test_complement_scaling_identity(self):
        rng = make_rng(8)
        for _ in range(25):
            n = int(rng.integers(3, 9))
            q = int(rng.integers(1, n))
            if q == n:
                continue
            x, y = random_frame(n, q, rng), random_frame(n, q, rng)
            lhs = np.sqrt(q) * dsp_projector(x, y)
            rhs = np.sqrt(n - q) * dsp_projector(complement_frame(x), complement_frame(y))
            assert abs(lhs - rhs) <= 1e-10

    def test_range(self):
        rng = make_rng(9)
        for _ in range(60):
            n = int(rng.integers(2, 10))
            q = int(rng.integers(1, n))
            d = dsp_projector(random_frame(n, q, rng), random_frame(n, q, rng))
            assert -1e-12 <= d <= 1 + 1e-12

    def test_distance_one_unreachable_above_half_dimension(self):
        # distance 1 needs orthogonal subspaces, impossible when 2q > n
        rng = make_rng(10)
        for _ in range(40):
            n = int(rng.integers(3, 9))
            q = int(rng.integers(n // 2 + 1, n + 1))
            d = dsp_projector(random_frame(n, q, rng), random_frame(n, q, rng))
            assert d < 1.0
