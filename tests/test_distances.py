import math

import numpy as np
import pytest

from haargauss import (
    Dims,
    DistanceKind,
    EstimateWithError,
    RngStream,
    UnsupportedRegimeError,
    estimate_hellinger,
    estimate_kl,
    estimate_tv,
    hellinger_sq_limit,
    kl_limit,
    log_kn_exact,
    log_ln,
    sample_haar_submatrix,
    tv_limit_lower_bound,
)

from conftest import NanStream, assert_within_se, exact_kl, gauss_legendre_expectation, q1_distances


class TestLimitOracles:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_tv_floor_matches_quadrature(self, sigma):
        mu, s = -sigma**2 / 8.0, sigma / 2.0
        kink = -mu / s
        oracle = gauss_legendre_expectation(
            lambda x: abs(math.exp(x) - 1.0), mu, s, split=(kink,)
        )
        assert abs(tv_limit_lower_bound(sigma) - oracle) <= 1e-6

    def test_tv_floor_vanishes_at_zero(self):
        assert tv_limit_lower_bound(1e-9) == pytest.approx(0.0, abs=1e-8)

    def test_tv_floor_reference_points(self):
        assert tv_limit_lower_bound(1.0) == pytest.approx(0.3948, abs=5e-4)
        assert tv_limit_lower_bound(2.0) == pytest.approx(0.7658, abs=5e-4)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_kl_limit_matches_quadrature(self, sigma):
        mu, s = -sigma**2 / 8.0, sigma / 2.0
        oracle = gauss_legendre_expectation(lambda x: x * math.exp(x), mu, s)
        assert abs(kl_limit(sigma) - oracle) <= 1e-9

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_hellinger_limit_matches_quadrature(self, sigma):
        mu, s = -sigma**2 / 8.0, sigma / 2.0
        oracle = 1.0 - gauss_legendre_expectation(lambda x: math.exp(x / 2.0), mu, s)
        assert abs(hellinger_sq_limit(sigma) - oracle) <= 1e-9

    def test_domain(self):
        for fn in (tv_limit_lower_bound, kl_limit, hellinger_sq_limit):
            with pytest.raises(ValueError):
                fn(0.0)


class TestEstimateContracts:
    def test_replicates_floor(self):
        with pytest.raises(ValueError):
            EstimateWithError(0.1, 0.01, 1, DistanceKind.TV)

    def test_unsupported_dimensions(self):
        for est in (estimate_tv, estimate_kl, estimate_hellinger):
            with pytest.raises(UnsupportedRegimeError):
                est(Dims(2, 2, 2), 100, 0)

    def test_no_draw_in_support(self):
        # far from the curve every Gaussian block leaves the support; the old
        # estimate was a constant (TV 1, Hellinger^2 1) with std_error 0
        from haargauss import NoDrawInSupportError

        for est in (estimate_tv, estimate_hellinger):
            with pytest.raises(NoDrawInSupportError):
                est(Dims(400, 190, 190), 20, 0)

    def test_constant_terms_raise(self):
        # at (400, 100, 100) every Gaussian block is inside the support but
        # its ratio rounds to 0, so each TV term is exactly 1 and the
        # estimate would be 1.0 with std_error 0
        from haargauss import NoDrawInSupportError

        with pytest.raises(NoDrawInSupportError, match="distinguishable from 0"):
            estimate_tv(Dims(400, 100, 100), 2000, 3)

    def test_hellinger_property_guard(self):
        est = estimate_tv(Dims(50, 3, 2), 100, 0)
        with pytest.raises(ValueError):
            _ = est.hellinger

    def test_rounding_level_terms_raise(self):
        # at (400, 100, 100) every square-root ratio term is below 1e-30, so
        # 1 - mean rounds to exactly 1 while the standard error is about 1e-36
        from haargauss import NoDrawInSupportError

        with pytest.raises(NoDrawInSupportError, match="rounding level"):
            estimate_hellinger(Dims(400, 100, 100), 500, 5)

    def test_nan_gaussian_block_raises(self, monkeypatch):
        # a NaN draw is a sampler defect, not a block outside the support
        import haargauss.parallel as parallel

        monkeypatch.setattr(parallel, "RngStream", NanStream)
        for est in (estimate_tv, estimate_hellinger):
            with pytest.raises(RuntimeError, match="not finite"):
                est(Dims(60, 3, 2), 20, 0)

    def test_kl_abort_on_support_violation(self, monkeypatch):
        # a corner sample outside the support is a bug, not a data point
        import haargauss.distances as distances_module

        monkeypatch.setattr(distances_module, "log_ln", lambda z, d: np.full(z.shape[:-2], -np.inf))
        with pytest.raises(RuntimeError, match="support"):
            estimate_kl(Dims(50, 3, 2), 10, 0)

    @pytest.mark.parametrize("first", [0, 4, 9])
    def test_kl_abort_names_the_first_corner_outside(self, monkeypatch, first):
        import haargauss.distances as distances_module

        # every member from ``first`` on is outside; the ten corners make one stack
        monkeypatch.setattr(distances_module, "log_ln",
                            lambda z, d: np.where(np.arange(len(z)) >= first, -np.inf, 0.0))
        d = Dims(50, 3, 2)
        corner = math.sqrt(d.n) * sample_haar_submatrix(d, RngStream(6, first))
        with pytest.raises(RuntimeError, match="support") as exc:
            estimate_kl(d, 10, 6)
        assert f"replicate={first}, max|entry|={np.max(np.abs(corner)):.6e})" in str(exc.value)


class TestDeterminism:
    def test_seed_and_thread_invariance(self):
        d = Dims(120, 5, 3)
        a = estimate_tv(d, 400, 11)
        b = estimate_tv(d, 400, 11)
        c = estimate_tv(d, 400, 11)
        assert (a.mean, a.std_error) == (b.mean, b.std_error) == (c.mean, c.std_error)

    def test_different_seed_changes_result(self):
        d = Dims(120, 5, 3)
        a = estimate_tv(d, 400, 11)
        b = estimate_tv(d, 400, 12)
        assert a.mean != b.mean


class TestEstimatorStatistics:
    def test_ranges(self):
        d = Dims(150, 6, 4)
        tv = estimate_tv(d, 2000, 21)
        he = estimate_hellinger(d, 2000, 22)
        kl = estimate_kl(d, 2000, 23)
        assert 0.0 <= tv.mean <= 2.0
        assert he.mean <= 1.0
        assert he.hellinger <= 1.0
        assert kl.mean >= -3 * kl.std_error

    @pytest.mark.parametrize("n,p", [(60, 20), (400, 100), (400, 380)])
    def test_q1_exact_oracle(self, n, p):
        # at q = 1 each distance is a 1-D integral over t = |z|^2
        d = Dims(n, p, 1)
        estimators = (estimate_tv, estimate_kl, estimate_hellinger)
        for seed, est, value in zip((31, 32, 33), estimators, q1_distances(n, p)):
            got = est(d, 20_000, seed)
            assert_within_se(got.mean, value, got.std_error, k=4, label=f"{got.kind.value} at {d}")

    def test_pinsker_and_sandwich(self):
        d = Dims(400, 8, 4)
        tv = estimate_tv(d, 5000, 41)
        kl = estimate_kl(d, 5000, 42)
        he = estimate_hellinger(d, 5000, 43)
        # squared total variation below twice the divergence
        joint = math.hypot(2 * tv.mean * tv.std_error, 2 * kl.std_error)
        assert tv.mean**2 <= 2 * kl.mean + 6 * joint
        # squared Hellinger sandwich
        h = he.hellinger
        se_h = he.std_error / (2 * h) if h > 0 else he.std_error
        assert 2 * he.mean <= tv.mean + 6 * math.hypot(2 * he.std_error, tv.std_error)
        assert tv.mean <= 2 * math.sqrt(2) * h + 6 * math.hypot(tv.std_error, 2 * math.sqrt(2) * se_h)

    def test_tv_monotone_in_block_size(self):
        # growing either side of the block can only grow the distance
        n = 300
        base = estimate_tv(Dims(n, 4, 3), 5000, 51)
        wider = estimate_tv(Dims(n, 8, 3), 5000, 52)
        taller = estimate_tv(Dims(n, 8, 6), 5000, 53)
        slack_1 = 3 * math.hypot(base.std_error, wider.std_error)
        slack_2 = 3 * math.hypot(wider.std_error, taller.std_error)
        assert wider.mean >= base.mean - slack_1
        assert taller.mean >= wider.mean - slack_2

    def test_metadata_carried(self):
        d = Dims(60, 3, 2)
        est = estimate_kl(d, 64, 77)
        assert est.replicates == 64
        assert est.kind is DistanceKind.KL


class TestKlOracle:
    @pytest.mark.parametrize(
        "n,p,q,replicates", [(1024, 32, 32, 4000), (60, 20, 7, 20_000), (400, 100, 1, 20_000)]
    )
    def test_estimate_within_se_of_exact(self, n, p, q, replicates):
        d = Dims(n, p, q)
        est = estimate_kl(d, replicates, 130)
        assert_within_se(est.mean, exact_kl(n, p, q), est.std_error, k=4, label=f"KL at {d}")

    # (1024, 32, 32) corners take 8 KiB, so 20 of them span three 64 KiB stacks
    @pytest.mark.parametrize("n, p, q", [(1024, 32, 32), (60, 3, 20)])
    def test_batch_equals_one_corner_at_a_time(self, n, p, q):
        d = Dims(n, p, q)
        single = np.array([log_kn_exact(d) + log_ln(math.sqrt(n) * sample_haar_submatrix(d, RngStream(9, i)), d)
                           for i in range(20)])
        est = estimate_kl(d, 20, 9)
        assert est.mean == float(np.mean(single))
        assert est.std_error == float(np.std(single, ddof=1) / math.sqrt(20))
