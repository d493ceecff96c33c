import math

import numpy as np
import pytest

from haargauss import (
    Dims,
    RngStream,
    clt_w_statistic,
    clt_w_statistic_p1,
    half_normal_cdf,
    replicate_map,
    run_hs_experiment,
    sigma_trace_sums,
    wishart_trace_stats,
)
from haargauss.limits import FIGURE_GRID, _hs_terms
from haargauss.sampling import _haar_rows

from conftest import assert_within_se, explicit_q, mean_and_se, variance_and_se


class TestHsSample:
    @pytest.mark.parametrize("n,p,q", [(50, 10, 4), (200, 20, 6), (500, 500, 3)])
    def test_decomposition_identity(self, n, p, q):
        d = Dims(n, p, q)
        for index in range(4):
            hs_norm, term_ab, term_c, cross = _hs_terms(d, *_haar_rows(d, RngStream(301, index)))
            assert hs_norm**2 == pytest.approx(term_ab + term_c + cross, abs=1e-8)

    def test_cross_term_bounded(self):
        # per column |eps_j| <= 2 sqrt(a_j b_j c_j) by Cauchy-Schwarz, and
        # summing over columns gives |cross| <= 2 sqrt(term_ab term_c)
        d = Dims(100, 30, 8)
        for index in range(20):
            _, term_ab, term_c, cross = _hs_terms(d, *_haar_rows(d, RngStream(302, index)))
            assert abs(cross) <= 2.0 * math.sqrt(term_ab * term_c) * (1.0 + 1e-9) + 1e-12

    def test_q1_shrink_formula(self):
        d = Dims(64, 16, 1)
        for index in range(5):
            y = RngStream(303, index).standard_normal((64, 1))
            hs_norm = _hs_terms(d, y[:16], y[16:])[0]
            norm = float(np.linalg.norm(y))
            expected = abs(math.sqrt(64) / norm - 1.0) * float(np.linalg.norm(y[:16]))
            assert hs_norm == pytest.approx(expected, abs=1e-10)

    def test_full_square_definition(self):
        # p = q = n: the statistic is the norm of the full coupled difference
        d = Dims(12, 12, 12)
        y = RngStream(304, 0).standard_normal((12, 12))
        expected = float(np.linalg.norm(math.sqrt(12) * explicit_q(y) - y))
        hs_norm = _hs_terms(d, *_haar_rows(d, RngStream(304, 0)))[0]
        assert hs_norm == pytest.approx(expected, abs=1e-8)


class TestHsExperiment:
    def test_mean_square_bound_small_case(self):
        d = Dims(500, 10, 2)
        result = run_hs_experiment(d, 3000, 305)
        assert result.hs_sq_bound == pytest.approx(24 * 10 * 4 / 500)
        assert result.mean_sq <= result.hs_sq_bound

    def test_projection_mass_matches_exact_sum(self):
        d = Dims(200, 6, 4)
        result = run_hs_experiment(d, 5000, 306)
        mean, se = mean_and_se(result.term_c)
        expected = float(sigma_trace_sums(d).sum_e_tr)
        assert_within_se(mean, expected, se, k=4, label="sum of projection masses")

    def test_q1_ks_field(self):
        d = Dims(400, 200, 1)
        result = run_hs_experiment(d, 1500, 307)
        assert result.ks_vs_half_normal is not None
        assert result.ks_vs_half_normal < 0.06
        multi = run_hs_experiment(Dims(50, 5, 3), 200, 308)
        assert multi.ks_vs_half_normal is None

    def test_half_normal_cdf(self):
        assert half_normal_cdf(-1.0) == 0.0
        assert half_normal_cdf(1e9) == pytest.approx(1.0)
        # median of |N(0,1)| is about 0.6745
        assert half_normal_cdf(0.674489750196, 1.0) == pytest.approx(0.5, abs=1e-9)


class TestCltStatistic:
    def test_centered(self):
        vals = replicate_map(lambda s, _: clt_w_statistic(200, 10, s), 4000, 309)
        mean, se = mean_and_se(vals)
        assert_within_se(mean, 0.0, se, k=4, label="mean W")

    def test_variance_matches_gram_moments(self):
        # exact second moment from the Wishart trace identities:
        # Var W = (q-1)(p+2q-1)/(pq)
        p, q = 120, 12
        vals = replicate_map(lambda s, _: clt_w_statistic(p, q, s), 6000, 310)
        var, se = variance_and_se(vals)
        expected = (q - 1) * (p + 2 * q - 1) / (p * q)
        assert_within_se(var, expected, se, k=4, label="Var W")

    def test_trace_square_mean_matches_exact(self):
        p, q = 30, 6

        def one(stream, _):
            x = stream.standard_normal((p, q))
            gram = x.T @ x
            return float(np.einsum("ij,ij->", gram, gram))

        vals = replicate_map(one, 8000, 311)
        mean, se = mean_and_se(vals)
        assert_within_se(mean, float(wishart_trace_stats(p, q).e_tr2), se, k=4)

    def test_p1_scaling_variance(self):
        vals = replicate_map(lambda s, _: clt_w_statistic_p1(10_000, s), 800, 312)
        var, se = variance_and_se(vals)
        assert_within_se(var, 8.0, se, k=4, label="p=1 variance")

    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            clt_w_statistic(1, 5, RngStream(0))
        with pytest.raises(ValueError):
            clt_w_statistic_p1(1, RngStream(0))

    def test_figure_grid_constant(self):
        assert len(FIGURE_GRID) == 6
        assert FIGURE_GRID[-1] == (10000, 100)
