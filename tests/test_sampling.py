import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from haargauss import (
    Dims,
    RngStream,
    dump_matrix_csv,
    gram_schmidt_coupling,
    load_matrix_csv,
    log_ln,
    replicate_map,
    sample_coupled_pair,
    sample_gaussian_matrix,
    sample_haar_submatrix,
    trace_power_moment,
    wishart_trace_stats,
)
from haargauss.limits import _hs_terms
from haargauss.sampling import _haar_factor, _haar_rows, _wishart_rows

from conftest import NanStream, assert_within_se, explicit_q, mean_and_se, variance_and_se


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
        # stacked on the full draw's own bottom rows, B = Y_bot, the kernel
        # is Gram-Schmidt on Y itself
        for index in range(5):
            y = RngStream(110, index).standard_normal((n, q))
            z, _ = _haar_factor(y[:p], y[p:])
            assert np.max(np.abs(z - explicit_q(y)[:p])) <= 1e-12

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


def two_sample_ks(a: np.ndarray, b: np.ndarray) -> float:
    """sup_x |F_a(x) - F_b(x)| over the pooled sample points."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


class TestBartlettRows:
    """B'B ~ Wishart_q(rows) for the rows stacked under Y_top, and the
    corners read off the stack, checked in law against exact moments."""

    @pytest.mark.parametrize("rows,q", [(12, 5), (3, 5)])
    def test_trace_square_mean_and_variance(self, rows, q):
        def one(stream, _):
            b = _wishart_rows(rows, q, stream)
            gram = b.T @ b
            return float(np.einsum("ij,ij->", gram, gram))

        vals = replicate_map(one, 40_000, 120 + rows)
        exact = wishart_trace_stats(rows, q)
        mean, se = mean_and_se(vals)
        assert_within_se(mean, float(exact.e_tr2), se, k=4, label="E tr[(B'B)^2]")
        var, var_se = variance_and_se(vals)
        assert_within_se(var, float(exact.var_tr2), var_se, k=4, label="Var tr[(B'B)^2]")

    def test_shapes_and_triangle(self):
        stream = RngStream(121, 0)
        b = _wishart_rows(9, 4, stream)
        assert b.shape == (4, 4)
        assert np.array_equal(b, np.triu(b)) and np.all(np.diagonal(b) > 0)
        assert _wishart_rows(2, 4, stream).shape == (2, 4)
        assert _wishart_rows(0, 4, stream).shape == (0, 4)

    @pytest.mark.parametrize("n,p,q", [(60, 20, 7), (40, 38, 5)])
    def test_corner_trace_powers(self, n, p, q):
        # (40, 38, 5) has n - p < q: B is the two Gaussian rows themselves
        d = Dims(n, p, q)

        def one(stream, _):
            z = sample_haar_submatrix(d, stream)
            gram = z.T @ z
            gram_sq = gram @ gram
            return np.array([np.trace(gram), np.trace(gram_sq), np.einsum("ij,ij->", gram_sq, gram)])

        vals = replicate_map(one, 20_000, 122)
        for k in (1, 2, 3):
            mean, se = mean_and_se(vals[:, k - 1])
            assert_within_se(mean, float(trace_power_moment(k, d)), se, k=4, label=f"E tr[(Z'Z)^{k}]")

    def test_log_ratio_matches_explicit_q_corners(self):
        # two-sample KS at the 0.1% level: c(0.001) = 1.95
        d = Dims(60, 20, 7)
        root_n = math.sqrt(d.n)
        count = 4000
        bartlett = replicate_map(
            lambda s, _: log_ln(root_n * sample_haar_submatrix(d, s), d), count, 123
        )
        explicit = replicate_map(
            lambda s, _: log_ln(root_n * explicit_q(s.standard_normal((d.n, d.q)))[: d.p], d),
            count,
            124,
        )
        assert two_sample_ks(bartlett, explicit) < 1.95 * math.sqrt(2.0 / count)

    def test_q1_corner_mass(self):
        # q = 1: B is sqrt(chi^2_{n-p}), and |z|^2 ~ Beta(p/2, (n-p)/2) has mean p/n
        d = Dims(500, 40, 1)
        vals = replicate_map(lambda s, _: float(np.sum(sample_haar_submatrix(d, s) ** 2)), 20_000, 125)
        mean, se = mean_and_se(vals)
        assert_within_se(mean, d.p / d.n, se, k=4, label="E |z|^2 at q = 1")

    def test_p_equals_n_stacks_no_rows(self):
        # p = n: nothing is stacked under Y_top, and the corner's columns are
        # orthonormal
        z = sample_haar_submatrix(Dims(9, 9, 4), RngStream(126, 0))
        assert np.max(np.abs(z.T @ z - np.eye(4))) <= 1e-14


class TestNFree:
    def test_huge_n_allocates_no_n_rows(self):
        # an n x q draw at n = 10^9 would need 16 GB
        d = Dims(10**9, 3, 2)
        tracemalloc.start()
        try:
            z = sample_haar_submatrix(d, RngStream(127, 0))
            hs_norm = _hs_terms(d, *_haar_rows(d, RngStream(127, 1)))[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert z.shape == (3, 2) and math.isfinite(hs_norm)
        assert peak < 2**20

    def test_no_general_solve_in_sampling(self):
        source = Path(__file__).resolve().parent.parent / "src" / "haargauss" / "sampling.py"
        assert "np.linalg.solve" not in source.read_text(encoding="utf-8")


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
        vals = replicate_map(one, 8_000, 106)
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

    def test_nan_draw_raises(self):
        # NaN makes every ordered comparison false, so the pivot test must fail closed
        d = Dims(10, 3, 2)
        with pytest.raises(RuntimeError, match="pivot nan"):
            _haar_factor(*_haar_rows(d, NanStream(12, 2)))

    def test_too_many_columns(self):
        with pytest.raises(ValueError):
            gram_schmidt_coupling(np.ones((3, 4)))


class TestCoupledPair:
    def test_q1_shrink_algebra(self):
        # single column: the coupled distance is |sqrt(n)/|y| - 1| * |y_top|
        y = RngStream(21, 4).standard_normal((50, 1))
        gamma_block, _ = _haar_factor(y[:20], y[20:])
        lhs = np.linalg.norm(math.sqrt(50) * gamma_block - y[:20])
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
        )
        direct = replicate_map(
            lambda s, _: np.array(
                [sample_haar_submatrix(d, s)[0, 0],
                 sample_haar_submatrix(d, s)[0, 0] ** 2]
            ),
            8_000,
            109,
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
