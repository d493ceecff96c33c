import numpy as np
import pytest

from haargauss import (
    RngStream,
    cholesky_logdet,
    ks_statistic,
    normal_cdf,
    replicate_map,
)


class TestRngStream:
    def test_same_key_bit_identical(self):
        a = RngStream(42, 3).standard_normal(64)
        b = RngStream(42, 3).standard_normal(64)
        assert np.array_equal(a, b)

    def test_scalar_gaussian_matches_vector_path(self):
        s1, s2 = RngStream(9, 1), RngStream(9, 1)
        assert s1.gaussian() == s2.standard_normal(1)[0]

    def test_distinct_replicates_differ(self):
        a = RngStream(42, 0).standard_normal(16)
        b = RngStream(42, 1).standard_normal(16)
        assert not np.allclose(a, b)

    def test_gaussian_moments(self):
        draws = RngStream(2024, 0).standard_normal(10**6)
        assert abs(draws.mean()) <= 0.004
        assert abs(draws.var() - 1.0) <= 0.006

    def test_key_range_validation(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(0, 2**64)


class TestReplicateMap:
    # the engine is the index-ordered loop over keyed streams, for any fn shape
    @pytest.mark.parametrize("fn", [
        lambda s, i: s.gaussian() + i,
        lambda s, i: np.append(s.standard_normal(2), i),
    ], ids=["scalar", "vector"])
    def test_matches_direct_loop(self, fn):
        direct = np.array([fn(RngStream(17, i), i) for i in range(25)])
        out = replicate_map(fn, 25, 17)
        assert out.dtype == np.float64 and out.shape == direct.shape
        assert np.array_equal(out, direct)

    def test_rejects_no_replicates(self):
        with pytest.raises(ValueError):
            replicate_map(lambda s, i: 0.0, 0, 0)


class TestNormalCdf:
    def test_center_and_tail(self):
        assert normal_cdf(0.0) == 0.5
        assert normal_cdf(-10.0) < 1e-20
        assert normal_cdf(10.0) >= 1.0 - 1e-15

    def test_symmetry(self):
        for x in np.linspace(-6, 6, 41):
            assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)


class TestCholeskyLogdet:
    def test_identity(self):
        assert cholesky_logdet(np.eye(3)) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal(self):
        assert cholesky_logdet(np.diag([2.0, 0.5])) == pytest.approx(0.0, abs=1e-14)

    def test_indefinite_is_a_value(self):
        assert cholesky_logdet(np.diag([1.0, -1.0])) is None

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            cholesky_logdet(np.ones((2, 3)))

    def test_agrees_with_eigensolver(self):
        rng = np.random.default_rng(7)
        for order in (2, 5, 12, 30):
            b = rng.standard_normal((order + 4, order))
            a = b.T @ b
            ld = cholesky_logdet(a)
            eigenvalues = np.linalg.eigvalsh(a)
            assert ld == pytest.approx(float(np.log(eigenvalues).sum()), abs=1e-8)


class TestKsStatistic:
    def test_plugin_quantiles(self):
        # samples sitting exactly at the (i - 0.5)/n quantiles of the cdf
        n = 250
        samples = (np.arange(1, n + 1) - 0.5) / n
        assert ks_statistic(samples, lambda x: min(max(x, 0.0), 1.0)) <= 0.5 / n + 1e-12

    def test_single_sample_at_median(self):
        assert ks_statistic([0.0], normal_cdf) == pytest.approx(0.5)

    def test_normal_sample_against_normal_cdf(self):
        draws = RngStream(77, 0).standard_normal(10**4)
        assert ks_statistic(draws, normal_cdf) < 0.02

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ks_statistic([], normal_cdf)
