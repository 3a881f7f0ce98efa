import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import knotfold
from knotfold.cloud import NORM_BLOCK_ROWS
from knotfold.errors import (DimensionMismatch, InsufficientData,
                             KnotfoldError, MomentOverflow, NotSymmetric)
from knotfold.pca import (
    CovarianceAccumulator,
    _one_blas_thread,
    dimension_estimate,
    project,
    sym_eig,
)

from conftest import traced_peak
from oracles import add_rows, dense, matrix_cloud


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


class TestAccumulator:
    def test_hand_example(self):
        acc = add_rows(CovarianceAccumulator(2), [1, 0], [-1, 0])
        assert np.allclose(acc.finalize(), [[2, 0], [0, 0]])

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            add_rows(CovarianceAccumulator(2), [1, 2]).finalize()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            add_rows(CovarianceAccumulator(2), [1, 2, 3])

    def test_matches_numpy_cov(self):
        x = np.random.default_rng(1).standard_normal((50, 6))
        acc = CovarianceAccumulator(6)
        for row in x:
            add_rows(acc, row)
        assert np.allclose(acc.finalize(), np.cov(x.T), atol=1e-12)

    def test_one_update_rule(self):
        """Rows, one-row blocks and merged one-row shards all combine
        through merge, so they agree to the bit."""
        x = np.random.default_rng(4).standard_normal((30, 5))
        rows, blocks, shards = (CovarianceAccumulator(5) for _ in range(3))
        for row in x:
            add_rows(rows, row)
            blocks.add_block(row[None, :])
            shards.merge(add_rows(CovarianceAccumulator(5), row))
        for acc in (blocks, shards):
            assert acc.count == rows.count
            assert np.array_equal(acc.mean, rows.mean)
            assert np.array_equal(acc.m2, rows.m2)

    def test_merge_equals_single_pass(self):
        x = np.random.default_rng(2).standard_normal((101, 5))
        whole = CovarianceAccumulator(5).add_block(x)
        parts = CovarianceAccumulator(5).add_block(x[:33]).merge(
            CovarianceAccumulator(5).add_block(x[33:]))
        rel = np.abs(whole.finalize() - parts.finalize()).max()
        assert rel <= 1e-10 * max(1.0, np.abs(whole.finalize()).max())

    def test_empty_block_is_a_silent_no_op(self):
        x = np.random.default_rng(5).standard_normal((4, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            empty = CovarianceAccumulator(3)
            assert empty.add_block(np.empty((0, 3))) is empty
            assert empty.count == 0
            acc = CovarianceAccumulator(3).add_block(x)
            mean, m2 = acc.mean.copy(), acc.m2.copy()
            assert acc.add_block(np.empty((0, 3))) is acc
        assert acc.count == 4
        assert np.array_equal(acc.mean, mean) and np.array_equal(acc.m2, m2)
        with pytest.raises(DimensionMismatch):
            CovarianceAccumulator(3).add_block(np.empty((0, 4)))

    def test_same_bits_as_the_written_out_moments(self):
        """One block gives the bits of centering a copy and of (K + K^T)/2,
        the covariance's defining formulas."""
        x = np.random.default_rng(6).standard_normal((40, 7)) * 1e3
        acc = CovarianceAccumulator(7).add_block(x)
        centered = x - x.mean(axis=0)
        with _one_blas_thread():
            m2 = centered.T @ centered
        k = m2 / 39
        assert np.array_equal(acc.mean, x.mean(axis=0))
        assert np.array_equal(acc.m2, m2)
        assert np.array_equal(acc.finalize(), (k + k.T) / 2.0)

    def test_permutation_invariance(self):
        x = np.random.default_rng(3).standard_normal((40, 4))
        a = CovarianceAccumulator(4).add_block(x)
        b = CovarianceAccumulator(4).add_block(x[::-1])
        assert np.allclose(a.finalize(), b.finalize(), rtol=1e-9)


class TestSymEig:
    def test_diagonal(self):
        es = sym_eig(np.diag([3.0, 1.0]))
        assert np.allclose(es.eigenvalues, [3, 1])
        assert np.allclose(np.abs(es.eigenvectors), np.eye(2))

    def test_hand_2x2(self):
        es = sym_eig([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(es.eigenvalues, [3, 1])
        assert np.allclose(np.abs(es.eigenvectors[:, 0]),
                           [1 / np.sqrt(2)] * 2)

    def test_zero_matrix(self):
        es = sym_eig(np.zeros((3, 3)))
        assert np.allclose(es.eigenvalues, 0)
        assert np.allclose(es.eigenvectors.T @ es.eigenvectors, np.eye(3))

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            sym_eig([[0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite(self, bad):
        with pytest.raises(NotSymmetric):
            sym_eig([[bad, 0.0], [0.0, 1.0]])

    def test_trivial_sizes(self):
        es = sym_eig(np.zeros((0, 0)))
        assert es.dim == 0 and es.eigenvectors.shape == (0, 0)
        es = sym_eig([[-2.0]])
        assert es.eigenvalues.tolist() == [-2.0]
        assert es.eigenvectors.tolist() == [[1.0]]

    @pytest.mark.parametrize("n", [3, 20, 64, 65, 200])
    def test_contract(self, n):
        k = random_symmetric(n, n)
        es = sym_eig(k)
        v, lam = es.eigenvectors, es.eigenvalues
        norm = max(1.0, float(np.abs(k).max()))
        assert np.abs(k @ v - v * lam).max() <= 1e-8 * norm
        assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-10
        assert (np.diff(lam) <= 1e-12).all()
        assert abs(np.trace(k) - lam.sum()) <= 1e-8 * max(1, abs(np.trace(k)))

    def test_rank_deficient_large(self):
        rng = np.random.default_rng(7)
        b = rng.standard_normal((10, 120))
        k = b.T @ b / 9
        es = sym_eig(k)
        assert (es.eigenvalues[10:] < 1e-8).all()
        v = es.eigenvectors
        assert np.abs(k @ v - v * es.eigenvalues).max() <= 1e-8 * np.abs(k).max()

    def test_sign_convention(self):
        es = sym_eig(random_symmetric(12, 5))
        for i in range(12):
            col = es.eigenvectors[:, i]
            assert col[np.argmax(np.abs(col))] > 0

    def test_symmetric_input_skips_symmetrization_bit_for_bit(self):
        """An exactly symmetric K goes to eigh as it is, and a K that is
        symmetric only to round-off is symmetrized first; both give the
        bits of eigh((K + K^T) / 2)."""
        k = random_symmetric(40, 8)
        skewed = k.copy()
        skewed[3, 5] += 1e-13
        for m in (k, skewed):
            with _one_blas_thread():
                lam, vec = np.linalg.eigh((m + m.T) / 2.0)
            es = sym_eig(m)
            assert np.array_equal(es.eigenvalues, lam[::-1])
            assert np.array_equal(np.abs(es.eigenvectors),
                                  np.abs(vec[:, ::-1]))

    @pytest.mark.parametrize("entry", [(0, 2), (599, 3), (3, 599)])
    def test_skew_in_any_row_block_raises(self, entry):
        """The symmetry check runs one block of rows at a time; a skew
        entry in the first or the last of three blocks is refused."""
        n = 2 * NORM_BLOCK_ROWS + 88
        k = random_symmetric(n, 10)
        k[entry] += 1.0
        with pytest.raises(NotSymmetric):
            sym_eig(k)

    def test_deterministic(self):
        k = random_symmetric(30, 9)
        a, b = sym_eig(k), sym_eig(k.copy())
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)


class TestVariances:
    def test_normalized(self):
        es = sym_eig(np.diag([3.0, 1.0]))
        lam_bar, s = es.normalized, es.cumulative
        assert np.allclose(lam_bar, [0.75, 0.25])
        assert np.allclose(s, [0.75, 1.0])
        assert abs(s[-1] - 1.0) <= 1e-12

    def test_single_positive(self):
        es = sym_eig(np.diag([5.0, 0.0, 0.0]))
        assert np.allclose(es.normalized, [1, 0, 0])

    def test_degenerate(self):
        """A spectrum with no positive variance has zero shares, not NaN."""
        es = sym_eig(np.zeros((2, 2)))
        assert np.array_equal(es.normalized, [0, 0])
        assert np.array_equal(es.cumulative, [0, 0])


class TestDimension:
    def test_examples(self):
        assert dimension_estimate([0.96, 0.03, 0.01]) == 1
        assert dimension_estimate([0.70, 0.20, 0.06, 0.04]) == 3

    def test_boundary_closed(self):
        assert dimension_estimate([0.95, 0.05]) == 1

    def test_threshold_param(self):
        assert dimension_estimate([0.5, 0.3, 0.2], threshold=0.79) == 2


class TestScaleEquivariance:
    @given(st.floats(0.1, 100), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_scaling_rows(self, c, seed):
        x = np.random.default_rng(seed).standard_normal((30, 5))
        k1 = CovarianceAccumulator(5).add_block(x).finalize()
        k2 = CovarianceAccumulator(5).add_block(c * x).finalize()
        e1, e2 = sym_eig(k1), sym_eig(k2)
        assert np.allclose(e2.eigenvalues, c * c * e1.eigenvalues,
                           rtol=1e-9, atol=1e-12)
        assert np.abs(e2.normalized - e1.normalized).max() <= 1e-10
        assert dimension_estimate(e1.normalized) == \
            dimension_estimate(e2.normalized)


class TestProjection:
    """project reads a cloud's rows; these clouds are align'ed integer
    matrices."""

    def test_distances_preserved_full_rank(self):
        x = np.random.default_rng(11).integers(-50, 50, (25, 6))
        acc = CovarianceAccumulator(6).add_block(x)
        es = sym_eig(acc.finalize())
        y = project(matrix_cloud(x), acc.mean, es, 6)
        centered = x - acc.mean
        for i in (0, 5, 11):
            for j in (3, 17):
                d1 = np.linalg.norm(centered[i] - centered[j])
                d2 = np.linalg.norm(y[i] - y[j])
                assert abs(d1 - d2) <= 1e-8

    def test_mean_maps_to_origin(self):
        """Rows and their reflections through an integer point have that
        point for their mean."""
        rng = np.random.default_rng(12)
        point = rng.integers(-9, 9, 4)
        x = rng.integers(-50, 50, (5, 4))
        acc = CovarianceAccumulator(4).add_block(np.vstack([x, 2 * point - x]))
        es = sym_eig(acc.finalize())
        assert np.array_equal(acc.mean, point)
        assert np.allclose(project(matrix_cloud(point[None, :]), acc.mean,
                                   es, 4), 0)

    def test_rows(self, double_twist_91):
        """Projecting some rows gives the bits of projecting their own
        matrix, whether a block of them is consecutive or not."""
        m = dense(double_twist_91)
        acc = CovarianceAccumulator(m.shape[1]).add_block(m)
        es = sym_eig(acc.finalize())
        rows = np.r_[0:300, 301:900:3, 1000:1541]
        got = project(matrix_cloud(m), acc.mean, es, 3, rows)
        want = project(matrix_cloud(m[rows]), acc.mean, es, 3)
        assert got.tobytes() == want.tobytes()

    def test_cloud_columns(self, double_twist_91):
        """A family cloud projects, through its rows(), with the bits of its
        dense matrix; columns cut a window from both."""
        m = dense(double_twist_91)
        acc = CovarianceAccumulator(40).add_block(m[:, 30:70])
        es = sym_eig(acc.finalize())
        rows = np.r_[0:300, 301:900:3, 1000:1541]
        want = project(matrix_cloud(m[:, 30:70]), acc.mean, es, 3,
                       rows).tobytes()
        for source in (matrix_cloud(m), double_twist_91):
            got = project(source, acc.mean, es, 3, rows, slice(30, 70))
            assert got.tobytes() == want
        with pytest.raises(DimensionMismatch):
            project(double_twist_91, acc.mean, es, 3, rows, slice(30, 71))

    def test_k_too_large(self):
        x = np.random.default_rng(13).integers(-50, 50, (10, 4))
        acc = CovarianceAccumulator(4).add_block(x)
        es = sym_eig(acc.finalize())
        with pytest.raises(DimensionMismatch):
            project(matrix_cloud(x), acc.mean, es, 5)


class TestInputsUnchanged:
    """The PCA core centers and symmetrizes private copies: a float64
    input array, and the matrix of a projected cloud, come back with the
    same bits."""

    def test_add_block_finalize_sym_eig_project(self):
        x = np.random.default_rng(14).standard_normal((30, 5))
        x_before = x.copy()
        acc = CovarianceAccumulator(5).add_block(x)
        assert np.array_equal(x, x_before)
        m2_before = acc.m2.copy()
        k = acc.finalize()
        assert np.array_equal(acc.m2, m2_before)
        skewed = k.copy()
        skewed[0, 1] += 1e-14
        for m in (k, skewed):
            m_before = m.copy()
            es = sym_eig(m)
            assert np.array_equal(m, m_before)
        mean_before = acc.mean.copy()
        cloud = matrix_cloud(np.rint(x * 100).astype(np.int64))
        matrix_before = cloud.matrix.copy()
        project(cloud, acc.mean, es, 3)
        assert np.array_equal(cloud.matrix, matrix_before)
        assert np.array_equal(x, x_before)
        assert np.array_equal(acc.mean, mean_before)


class TestExactMoments:
    """Integer rows give exact moments, so K has the same bits however the
    rows are blocked, sharded or multiplied."""

    @staticmethod
    def blocked(m, size):
        acc = CovarianceAccumulator(m.shape[1])
        for i in range(0, len(m), size):
            acc.add_block(m[i:i + size])
        return acc

    def test_block_sizes(self, double_twist_91):
        m = dense(double_twist_91)
        want = self.blocked(m, len(m)).finalize()
        for size in (1, 7):
            assert self.blocked(m, size).finalize().tobytes() == want.tobytes()

    def test_shard_orders(self, double_twist_91):
        m = dense(double_twist_91)
        cuts = [0, 300, 301, 900, 1400, len(m)]
        shards = [self.blocked(m[a:b], len(m)) for a, b in zip(cuts, cuts[1:])]
        want = self.blocked(m, len(m)).finalize().tobytes()
        for order in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 0, 4, 1, 3]):
            acc = CovarianceAccumulator(m.shape[1])
            for i in order:
                acc.merge(shards[i])
            assert acc.finalize().tobytes() == want, order

    def test_blas_threads_without_the_pin(self):
        """The integer product is exact, so it needs no BLAS pin: with the
        pin patched out, 1 and 2 OpenBLAS threads give the same K."""
        script = (
            "import contextlib, hashlib\n"
            "import numpy as np\n"
            "import knotfold.pca as pca\n"
            "from knotfold.families import family_cloud\n"
            "pca._one_blas_thread = contextlib.nullcontext\n"
            "c = family_cloud('torus', 300)[1]\n"
            "m = c.rows(np.arange(len(c.row_ids)))\n"
            "acc = pca.CovarianceAccumulator(m.shape[1]).add_block(m)\n"
            "k = acc.finalize()\n"
            "print(hashlib.sha256(k.tobytes()).hexdigest())\n")
        src = os.path.dirname(os.path.dirname(knotfold.__file__))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=src)
            digests.append(subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                text=True, timeout=300, check=True).stdout)
        assert digests[0] == digests[1] and len(digests[0]) == 65

    def test_exact_past_the_float_range(self):
        """Products summing past 2^53 move to int64 and stay exact: K is the
        exact rational covariance, rounded at most twice."""
        rng = np.random.default_rng(20)
        m = rng.integers(2**22 - 500, 2**22, size=(600, 3)) | 1
        acc = self.blocked(m, 100)
        assert acc.raw.dtype == np.int64
        k = acc.finalize()
        rows = m.tolist()
        n = len(rows)
        for i in range(3):
            for j in range(3):
                s_ij = sum(r[i] * r[j] for r in rows)
                s_i, s_j = sum(r[i] for r in rows), sum(r[j] for r in rows)
                exact = float(Fraction(n * s_ij - s_i * s_j, n * (n - 1)))
                assert math.isclose(k[i, j], exact, rel_tol=2**-52)

    def test_over_bound_block_raises(self):
        """A block whose float product could round is refused, not
        rounded."""
        with pytest.raises(MomentOverflow):
            add_rows(CovarianceAccumulator(2), [2**27, 0])
        rows = np.full((NORM_BLOCK_ROWS, 2), 2**23)
        CovarianceAccumulator(2).add_block(rows[:2])
        with pytest.raises(KnotfoldError):
            CovarianceAccumulator(2).add_block(rows)

    def test_over_bound_covariance_raises(self):
        """N S past int64 is refused when K is formed."""
        acc = CovarianceAccumulator(1).add_block(np.full((4000, 1), 2**20))
        with pytest.raises(MomentOverflow):
            acc.finalize()

    def test_kinds_do_not_mix(self):
        with pytest.raises(DimensionMismatch):
            add_rows(CovarianceAccumulator(2), [1, 2], [0.5, 1.0])
        with pytest.raises(DimensionMismatch):
            add_rows(CovarianceAccumulator(2), [0.5, 1.0], [1, 2])
        with pytest.raises(DimensionMismatch):
            add_rows(CovarianceAccumulator(2), [1, 2]).merge(
                add_rows(CovarianceAccumulator(2), [0.5, 1.0]))

    def test_column_window(self, double_twist_91):
        """finalize(columns) equals the moments of those columns alone."""
        m = dense(double_twist_91)
        acc = CovarianceAccumulator(m.shape[1]).add_block(m)
        part = CovarianceAccumulator(40).add_block(m[:, 30:70])
        assert acc.finalize(slice(30, 70)).tobytes() == \
            part.finalize().tobytes()
        assert acc.mean[30:70].tobytes() == part.mean.tobytes()


class TestMemory:
    """A block or a projection holds one float copy of a block of rows at a
    time, never of the whole matrix; numpy reports its buffers to
    tracemalloc, so the peaks repeat exactly."""

    def test_add_block_peaks_below_one_and_a_half_copies(
            self, double_twist_91):
        """Far below: one float block of rows, S and one product."""
        m = dense(double_twist_91)
        acc = CovarianceAccumulator(m.shape[1])
        block = min(acc.block_rows, len(m)) * m.shape[1] * 8
        square = m.shape[1] ** 2 * 8  # S, and one block's product
        _, peak = traced_peak(lambda: acc.add_block(m))
        assert block < m.size * 8 / 4
        assert peak < 1.05 * (block + 2 * square)

    def test_project_peaks_below_one_and_a_half_copies(self, double_twist_91):
        """Far below: one centered float block of rows and the output."""
        m = dense(double_twist_91)
        acc = CovarianceAccumulator(m.shape[1]).add_block(m)
        es = sym_eig(acc.finalize())
        block = NORM_BLOCK_ROWS * m.shape[1] * 8
        cloud = matrix_cloud(m)
        _, peak = traced_peak(lambda: project(cloud, acc.mean, es, 3))
        assert peak < 1.5 * block + len(m) * 3 * 8
