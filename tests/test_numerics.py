import numpy as np
import pytest

from haargauss import (
    RngStream,
    cholesky_logdet,
    ks_statistic,
    normal_cdf,
    replicate_map,
)
from haargauss import parallel


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


def _draw(stream, index):
    return stream.standard_normal((4, 2))  # 64 bytes: 1024 draws to a block


def _elementwise(stack):
    return stack[:, 0, 0] * stack[:, 3, 1] - stack[:, 2, 0]


class TestBatchedReplicateMap:
    BLOCK = parallel.BLOCK_BYTES // 64

    @staticmethod
    def direct(replicates, seed):
        return _elementwise(np.array([_draw(RngStream(seed, i), i) for i in range(replicates)]))

    @staticmethod
    def recording(sizes):
        def batch(stack):
            sizes.append(len(stack))
            return _elementwise(stack)
        return batch

    @pytest.mark.parametrize("replicates", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_matches_one_batch_of_fresh_streams(self, replicates):
        sizes = []
        out = replicate_map(_draw, replicates, 31, batch=self.recording(sizes))
        assert out.dtype == np.float64 and np.array_equal(out, self.direct(replicates, 31))
        full, rest = divmod(replicates, self.BLOCK)
        assert sizes == [self.BLOCK] * full + ([rest] if rest else [])

    @pytest.mark.parametrize("block_bytes", ["one draw", "whole run"])
    def test_block_size_is_not_a_result(self, monkeypatch, block_bytes):
        replicates = 700
        monkeypatch.setattr(parallel, "BLOCK_BYTES", 64 if block_bytes == "one draw" else 64 * replicates)
        sizes = []
        out = replicate_map(_draw, replicates, 8, batch=self.recording(sizes))
        assert np.array_equal(out, self.direct(replicates, 8))
        assert sizes == ([1] * replicates if block_bytes == "one draw" else [replicates])

    def test_default_batch_over_several_blocks(self):
        # three draws of 24 bytes: 2730 to a block, so 6000 replicates make three
        fn = lambda s, i: s.standard_normal(3)
        out = replicate_map(fn, 6000, 12)
        assert out.shape == (6000, 3) and np.array_equal(out, np.array([fn(RngStream(12, i), i) for i in range(6000)]))

    def test_rekeyed_generator_matches_fresh_stream(self):
        stream = RngStream(5)
        for index in (3, 0, 2**64 - 1, 3):
            # the last stream stopped mid-buffer, holding half a 64-bit word
            stream.generator.integers(0, 1000, size=3, dtype=np.uint32)
            for draw in (lambda s: s.standard_normal((3, 5)), lambda s: s.chi_square(np.arange(1.0, 7.0)),
                         lambda s: s.generator.integers(0, 2**32, size=5, dtype=np.uint32)):
                fresh = draw(RngStream(5, index))
                assert np.array_equal(draw(stream.rekey(index)), fresh)
                assert stream.replicate_index == index
                stream.generator.integers(0, 1000, size=1, dtype=np.uint32)


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
        out = cholesky_logdet(np.diag([1.0, -1.0]))
        assert out.shape == () and np.isnan(out)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            cholesky_logdet(np.ones((2, 3)))

    def test_failed_stack_of_one_is_factored_once(self, monkeypatch):
        calls, factor = [], np.linalg.cholesky

        def counted(a):
            calls.append(a.shape)
            return factor(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        bad, good = np.diag([1.0, -1.0]), np.diag([2.0, 3.0])
        assert np.isnan(cholesky_logdet(bad)) and len(calls) == 1
        assert np.isnan(cholesky_logdet(bad[None])).all() and len(calls) == 2
        # a mixed stack falls back to one member at a time
        out = cholesky_logdet(np.stack([good, bad, good]))
        assert np.isnan(out[1]) and out[0] == out[2] == cholesky_logdet(good)
        assert calls[2:] == [(3, 2, 2), (2, 2), (2, 2), (2, 2), (1, 2, 2)]

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
