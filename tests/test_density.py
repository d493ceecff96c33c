import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from haargauss import (
    Dims,
    NEG_INFINITY,
    RngStream,
    UnsupportedRegimeError,
    log_kn_asymptotic,
    log_kn_exact,
    log_ln,
    replicate_map,
    sample_haar_submatrix,
)

from conftest import assert_within_se, log_wishart_constant, mean_and_se


class TestWishartConstant:
    def test_t1_values(self):
        assert log_wishart_constant(2, 1) == pytest.approx(-math.log(2.0), rel=1e-14)
        expected = -math.log(2.0**1.5 * math.sqrt(math.pi) / 2.0)
        assert log_wishart_constant(3, 1) == pytest.approx(expected, rel=1e-14)

    def test_brute_force_product(self):
        # evaluate the defining product directly and compare in log space
        s, t = 5, 2
        product = math.pi ** (t * (t - 1) / 4) * 2 ** (s * t / 2)
        for j in range(1, t + 1):
            product *= math.gamma((s - j + 1) / 2)
        assert log_wishart_constant(s, t) == pytest.approx(-math.log(product), abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_wishart_constant(1.0, 2)
        with pytest.raises(ValueError):
            log_wishart_constant(3.0, 0)


class TestLogKnExact:
    def test_small_cases(self):
        val = log_kn_exact(Dims(3, 1, 1))
        assert val == pytest.approx(0.5 * math.log(2 / 3) + math.log(math.sqrt(math.pi) / 2), abs=1e-12)
        assert log_kn_exact(Dims(4, 2, 1)) == pytest.approx(-math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("n,p,q", [(10, 4, 3), (50, 20, 5), (300, 100, 40), (2000, 800, 300)])
    def test_wishart_ratio_identity(self, n, p, q):
        lhs = log_kn_exact(Dims(n, p, q))
        w_inner = log_wishart_constant(n - p, q)
        w_outer = log_wishart_constant(n, q)
        rhs = w_inner - w_outer - (p * q / 2.0) * math.log(n)
        # the identity is exact; the residual is cancellation roundoff against
        # the magnitude of the two log constants
        scale = max(abs(w_inner), abs(w_outer))
        assert lhs == pytest.approx(rhs, abs=max(1e-10, 4e-15 * scale))

    def test_swap_symmetry(self):
        assert log_kn_exact(Dims(30, 4, 9)) == log_kn_exact(Dims(30, 9, 4))

    def test_unsupported_regime(self):
        with pytest.raises(UnsupportedRegimeError):
            log_kn_exact(Dims(10, 6, 5))


class TestLogKnAsymptotic:
    def test_close_to_exact_moderate_dims(self):
        d = Dims(20_000, 400, 10)
        gap = abs(log_kn_asymptotic(d) - log_kn_exact(d))
        assert gap < 0.01

    def test_monotone_degradation(self):
        # with pq/n held fixed the expansion error shrinks as n grows
        gaps = []
        for n, p, q in ((4000, 80, 10), (16_000, 320, 10), (64_000, 1280, 10)):
            d = Dims(n, p, q)
            gaps.append(abs(log_kn_asymptotic(d) - log_kn_exact(d)))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_full_width_rejected(self):
        with pytest.raises(ValueError):
            log_kn_asymptotic(Dims(10, 10, 2))


class TestLogLn:
    def test_zero_point(self):
        assert log_ln(np.zeros((2, 2)), Dims(10, 2, 2)) == 0.0

    def test_scalar_case(self):
        # single column of norm sqrt(n)/2: Gram eigenvalue n/4
        n, p = 16, 4
        z = np.zeros((p, 1))
        z[0, 0] = math.sqrt(n) / 2.0
        c_n = (n - p - 1 - 1) / 2
        expected = c_n * math.log(3.0 / 4.0) + n / 8.0
        assert log_ln(z, Dims(n, p, 1)) == pytest.approx(expected, rel=1e-12)

    def test_out_of_support(self):
        n, p = 9, 4
        z = np.zeros((p, 1))
        z[0, 0] = math.sqrt(n)
        assert log_ln(z, Dims(n, p, 1)) == NEG_INFINITY

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            log_ln(np.zeros((2, 3)), Dims(10, 3, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_raises(self, bad):
        # a NaN or an infinity is a sampler defect, not a point off the support
        z = np.ones((3, 2))
        z[1, 0] = bad
        with pytest.raises(RuntimeError, match="not finite"):
            log_ln(z, Dims(10, 3, 2))


class TestLogLnStack:
    # (60, 20, 20) mixes members in and out of the support, (12, 5, 6) has
    # c_n = 0 and q > p, (400, 190, 190) has every member outside
    @pytest.mark.parametrize("n, p, q", [(60, 20, 20), (2000, 10, 10), (200, 3, 20), (100, 99, 1),
                                         (12, 5, 6), (400, 190, 190)])
    def test_stack_equals_blocks_bit_for_bit(self, n, p, q):
        d = Dims(n, p, q)
        z = RngStream(4, 0).standard_normal((2, 7, p, q))
        single = np.array([[log_ln(block, d) for block in row] for row in z])
        stacked = log_ln(z, d)
        assert stacked.shape == (2, 7) and np.array_equal(stacked, single)
        if (n, p, q) == (60, 20, 20):
            assert np.isfinite(single).any() and (single == NEG_INFINITY).any()

    @pytest.mark.parametrize("n, p, q", [(1024, 32, 32), (60, 3, 20)])
    def test_corner_stack_equals_corners_bit_for_bit(self, n, p, q):
        # the KL estimator's draws: sqrt(n) times Haar corners
        d = Dims(n, p, q)
        z = np.array([math.sqrt(n) * sample_haar_submatrix(d, RngStream(4, i)) for i in range(9)])
        single = np.array([log_ln(block, d) for block in z])
        assert np.isfinite(single).all() and np.array_equal(log_ln(z, d), single)

    def test_nan_member_raises(self):
        z = RngStream(4, 1).standard_normal((5, 4, 3))
        z[2, 1, 0] = np.nan
        with pytest.raises(RuntimeError, match="not finite"):
            log_ln(z, Dims(20, 4, 3))

    def test_wrong_block_shape(self):
        with pytest.raises(ValueError):
            log_ln(np.zeros((5, 3, 4)), Dims(20, 4, 3))


@st.composite
def _blocks(draw):
    """(z, n, p, q): a p x q block with entries in [-2 sqrt(n), 2 sqrt(n)]."""
    n = draw(st.integers(2, 40))
    p = draw(st.integers(1, n))
    q = draw(st.integers(1, n))
    bound = 2.0 * math.sqrt(n)
    z = draw(arrays(np.float64, (p, q), elements=st.floats(-bound, bound)))
    return z, n, p, q


class TestLogLnProperties:
    @settings(max_examples=300, deadline=None)
    @given(_blocks())
    def test_transpose_invariance(self, block):
        z, n, p, q = block
        a = log_ln(z, Dims(n, p, q))
        b = log_ln(z.T, Dims(n, q, p))
        if a == NEG_INFINITY or b == NEG_INFINITY:
            assert a == b
        else:
            assert math.isclose(a, b, rel_tol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(_blocks())
    def test_minus_infinity_exactly_outside_support(self, block):
        z, n, p, q = block
        top = float(np.linalg.eigvalsh(z.T @ z)[-1]) / n
        assume(abs(top - 1.0) > 1e-6)
        assert (log_ln(z, Dims(n, p, q)) == NEG_INFINITY) == (top > 1.0)


class TestLogLikelihoodRatio:
    def test_change_of_measure_normalization(self):
        # E over Gaussian blocks of exp(log ratio) is 1
        d = Dims(200, 5, 3)
        vals = replicate_map(
            lambda s, _: float(np.exp(log_kn_exact(d) + log_ln(s.standard_normal((5, 3)), d))),
            6000,
            201,
        )
        mean, se = mean_and_se(vals)
        assert_within_se(mean, 1.0, se, k=4, label="E exp(log ratio)")

    def test_out_of_support_point(self):
        d = Dims(9, 4, 1)
        z = np.zeros((4, 1))
        z[0, 0] = 3.5
        assert log_kn_exact(d) + log_ln(z, d) == NEG_INFINITY

    def test_transpose_swap_invariance(self):
        d = Dims(60, 8, 5)
        d_t = Dims(60, 5, 8)
        for index in range(5):
            z = RngStream(202, index).standard_normal((8, 5))
            a = log_kn_exact(d) + log_ln(z, d)
            b = log_kn_exact(d_t) + log_ln(z.T, d_t)
            assert a == pytest.approx(b, abs=1e-9)

    def test_asymptotic_mode(self):
        d = Dims(5000, 100, 4)
        z = RngStream(203, 0).standard_normal((100, 4))
        exact = log_kn_exact(d) + log_ln(z, d)
        asym = log_kn_asymptotic(d) + log_ln(z, d)
        assert exact == pytest.approx(asym, abs=0.01)


class TestPrimedParts:
    def test_rectangular_regime_log_ratio_law(self):
        # q/p small and pq/n = 1: the log ratio approaches N(-1/8, 1/4)
        d = Dims(62_500, 2500, 25)

        def one(stream, _):
            z = stream.standard_normal((2500, 25))
            return log_kn_exact(d) + log_ln(z, d)

        vals = replicate_map(one, 1500, 205)
        mean, se = mean_and_se(vals)
        assert_within_se(mean, -1.0 / 8.0, se, k=4, label="mean log ratio")
        var = float(np.var(vals, ddof=1))
        assert abs(var - 0.25) <= 0.2 * 0.25

    def test_kl_change_of_measure_cross_check(self):
        # E over Gaussian blocks of ratio * log ratio equals the mean log
        # ratio under the corner law
        from haargauss import estimate_kl

        d = Dims(400, 8, 4)

        def one(stream, _):
            lr = log_kn_exact(d) + log_ln(stream.standard_normal((8, 4)), d)
            if lr == NEG_INFINITY:
                return 0.0
            return float(np.exp(np.float64(lr)) * lr)

        vals = replicate_map(one, 8000, 206)
        g_mean, g_se = mean_and_se(vals)
        kl = estimate_kl(d, 8000, 207)
        assert abs(g_mean - kl.mean) <= 4 * math.hypot(g_se, kl.std_error)
