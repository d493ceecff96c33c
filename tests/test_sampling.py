import math

import numpy as np
import pytest

from haargauss import (
    Dims,
    RngStream,
    dump_matrix_csv,
    gram_schmidt_coupling,
    load_matrix_csv,
    replicate_map,
    sample_coupled_pair,
    sample_gaussian_matrix,
    sample_haar_submatrix,
)

from conftest import assert_within_se, explicit_q, mean_and_se


class TestDims:
    def test_valid(self):
        d = Dims(10, 2, 3)
        assert (d.n, d.p, d.q) == (10, 2, 3)
        assert d.coupling_sigma == pytest.approx(1.8)

    @pytest.mark.parametrize("n,p,q", [(10, 0, 3), (10, 11, 3), (10, 2, 0), (10, 2, 11)])
    def test_invalid(self, n, p, q):
        with pytest.raises(ValueError):
            Dims(n, p, q)


class TestGaussianMatrix:
    def test_moments(self):
        x = sample_gaussian_matrix(1000, 1000, RngStream(5, 0))
        flat = x.ravel()
        assert abs(flat.mean()) <= 0.004
        assert abs((flat**4).mean() - 3.0) <= 0.05

    def test_trace_normalization(self):
        x = sample_gaussian_matrix(100, 100, RngStream(5, 1))
        assert abs(float(np.trace(x.T @ x)) / 100**2 - 1.0) <= 0.01

    def test_zero_dimension_raises(self):
        with pytest.raises(ValueError):
            sample_gaussian_matrix(0, 3, RngStream(0))


class TestChiSquare:
    def test_moments(self):
        draws = RngStream(31, 0).generator.chisquare(5, 10**6)
        mean, _ = mean_and_se(draws)
        assert abs(mean - 5.0) <= 0.02
        assert abs(draws.var(ddof=1) - 10.0) <= 0.1

    def test_second_moment_m3(self):
        draws = RngStream(31, 1).generator.chisquare(3, 10**6)
        sq = draws**2
        mean, se = mean_and_se(sq)
        assert_within_se(mean, 15.0, se, k=4, label="E chi^2(3)^2")
        assert abs(mean - 15.0) <= 0.2


class TestHaarSubmatrix:
    def test_full_matrix_is_orthogonal(self):
        d = Dims(30, 30, 30)
        z = sample_haar_submatrix(d, RngStream(3, 0))
        assert np.max(np.abs(z.T @ z - np.eye(30))) <= 1e-10
        # unit-norm columns make the mean square exactly 1/n on every draw
        assert float(np.mean(z**2)) == pytest.approx(1.0 / 30, rel=0, abs=1e-14)

    def test_entry_second_moment(self):
        # A strict p < n, q < n corner: over the full orthogonal matrix the
        # mean square is exactly 1/n on every draw, which leaves nothing random.
        n = 10
        vals = replicate_map(
            lambda s, _: float(np.mean(sample_haar_submatrix(Dims(n, 3, 4), s) ** 2)),
            10_000,
            101,
        )
        mean, se = mean_and_se(vals)
        assert_within_se(mean, 1.0 / n, se, k=3, label="E entry^2")

    @pytest.mark.parametrize("n,p,q", [(1024, 32, 32), (2000, 1000, 1), (50, 5, 4)])
    def test_matches_explicit_q_oracle(self, n, p, q):
        d = Dims(n, p, q)
        for index in range(5):
            z = sample_haar_submatrix(d, RngStream(110, index))
            oracle = explicit_q(RngStream(110, index).standard_normal((n, q)))[:p]
            assert np.max(np.abs(z - oracle)) <= 1e-12

    @pytest.mark.parametrize("n", [12, 30])
    def test_square_corners_orthogonal(self, n):
        # Y_top R^-1 loses orthogonality with the condition number of Y
        for index in range(20):
            z = sample_haar_submatrix(Dims(n, n, n), RngStream(111, index))
            assert np.max(np.abs(z.T @ z - np.eye(n))) <= 1e-10

    def test_entry_fourth_moment_n2(self):
        vals = replicate_map(
            lambda s, _: sample_haar_submatrix(Dims(2, 1, 1), s)[0, 0] ** 4,
            30_000,
            102,
        )
        mean, se = mean_and_se(vals)
        assert_within_se(mean, 3.0 / 8.0, se, k=3, label="E entry^4 at n=2")


class TestGramSchmidtCoupling:
    def test_columns_orthonormal(self):
        y = RngStream(8, 0).standard_normal((200, 12))
        gs = gram_schmidt_coupling(y)
        gram = gs.q.T @ gs.q
        assert np.max(np.abs(gram - np.eye(12))) <= 1e-9

    def test_residual_plus_projection_reconstructs(self):
        y = RngStream(8, 1).standard_normal((50, 7))
        gs = gram_schmidt_coupling(y)
        assert np.max(np.abs(gs.w + gs.projections() - y)) <= 1e-10
        assert np.allclose(np.linalg.norm(gs.w, axis=0), gs.w_norms)

    def test_w_norm_squared_mean(self):
        # residual column k has squared length distributed chi-square(n-k+1)
        n, q = 30, 5
        vals = replicate_map(
            lambda s, _: gram_schmidt_coupling(s.standard_normal((n, q))).w_norms ** 2,
            8_000,
            105,
            width=q,
        )
        for k in range(q):
            mean, se = mean_and_se(vals[:, k])
            assert_within_se(mean, n - k, se, k=4, label=f"E |w_{k+1}|^2")

    def test_projection_norm_squared_mean(self):
        # projection onto the span of k-1 previous columns: chi-square(k-1)
        n, q = 30, 5
        def one(stream, _):
            gs = gram_schmidt_coupling(stream.standard_normal((n, q)))
            proj = gs.projections()
            return np.einsum("ij,ij->j", proj, proj)
        vals = replicate_map(one, 8_000, 106, width=q)
        for k in range(q):
            mean, se = mean_and_se(vals[:, k])
            if k == 0:
                assert mean == 0.0
            else:
                assert_within_se(mean, float(k), se, k=4, label=f"E |proj_{k+1}|^2")

    def test_degenerate_pivot_without_stream_raises(self):
        y = RngStream(12, 1).standard_normal((20, 3))
        y[:, 1] = y[:, 0]
        with pytest.raises(RuntimeError):
            gram_schmidt_coupling(y)

    def test_too_many_columns(self):
        with pytest.raises(ValueError):
            gram_schmidt_coupling(np.ones((3, 4)))


class TestCoupledPair:
    def test_q1_shrink_algebra(self):
        # single column: the coupled distance is |sqrt(n)/|y| - 1| * |y_top|
        d = Dims(50, 20, 1)
        pair = sample_coupled_pair(d, RngStream(21, 4))
        full = sample_coupled_pair(Dims(50, 50, 1), RngStream(21, 4))
        y = full.y_block[:, 0]
        lhs = np.linalg.norm(math.sqrt(50) * pair.gamma_block - pair.y_block)
        rhs = abs(math.sqrt(50) / np.linalg.norm(y) - 1.0) * np.linalg.norm(y[:20])
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_gamma_block_is_the_haar_corner(self):
        # the coupled pair and the Haar sampler share one kernel, so the same
        # stream gives the same corner bit for bit
        for d in (Dims(15, 4, 3), Dims(200, 50, 1), Dims(12, 12, 12)):
            pair = sample_coupled_pair(d, RngStream(112, d.n))
            corner = sample_haar_submatrix(d, RngStream(112, d.n))
            assert pair.gamma_block.tobytes() == corner.tobytes()

    def test_block_shapes(self):
        d = Dims(15, 4, 3)
        pair = sample_coupled_pair(d, RngStream(2, 0))
        assert pair.y_block.shape == (4, 3)
        assert pair.gamma_block.shape == (4, 3)

    def test_exchangeable_entries(self):
        # second moments of entries (1,1) and (2,2) agree
        d = Dims(12, 3, 3)
        vals = replicate_map(
            lambda s, _: np.array(
                [sample_coupled_pair(d, s).gamma_block[i, i] ** 2 for i in (0, 1)]
            ),
            10_000,
            107,
            width=2,
        )
        m1, s1 = mean_and_se(vals[:, 0])
        m2, s2 = mean_and_se(vals[:, 1])
        assert abs(m1 - m2) <= 4 * math.hypot(s1, s2)

    def test_marginal_matches_direct_haar_sampler(self):
        d = Dims(25, 4, 3)
        coupled = replicate_map(
            lambda s, _: np.array(
                [sample_coupled_pair(d, s).gamma_block[0, 0],
                 sample_coupled_pair(d, s).gamma_block[0, 0] ** 2]
            ),
            8_000,
            108,
            width=2,
        )
        direct = replicate_map(
            lambda s, _: np.array(
                [sample_haar_submatrix(d, s)[0, 0],
                 sample_haar_submatrix(d, s)[0, 0] ** 2]
            ),
            8_000,
            109,
            width=2,
        )
        for col in (0, 1):
            mc, sc = mean_and_se(coupled[:, col])
            md, sd = mean_and_se(direct[:, col])
            assert abs(mc - md) <= 4 * math.hypot(sc, sd)


class TestMatrixCsv:
    def test_round_trip(self, tmp_path):
        m = RngStream(0, 0).standard_normal((3, 5))
        path = dump_matrix_csv(m, tmp_path / "m.csv")
        text = path.read_text()
        assert text.splitlines()[0] == "# 3 5"
        back = load_matrix_csv(path)
        assert np.array_equal(back, m)

    def test_seventeen_digits(self, tmp_path):
        path = dump_matrix_csv(np.array([[1.0 / 3.0]]), tmp_path / "x.csv")
        assert "0.33333333333333331" in path.read_text()
