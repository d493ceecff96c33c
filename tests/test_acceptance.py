"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every stochastic check runs at its stated replicate count with a fixed seed,
compares against exact rational values or pre-verified oracles, and uses the
stated tolerance (standard-error bands where specified).  Run with
``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from haargauss import (
    Dims,
    clt_w_statistic,
    clt_w_statistic_p1,
    dirichlet_moment,
    entry_monomial_moment,
    estimate_hellinger,
    estimate_kl,
    estimate_tv,
    chi_square_central_stats,
    hellinger_sq_limit,
    kl_limit,
    log_kn_asymptotic,
    log_kn_exact,
    MonomialPattern,
    replicate_map,
    run_hs_experiment,
    sample_haar_submatrix,
    sigma_trace_sums,
    trace_power_moment,
    tv_limit_lower_bound,
    wishart_trace_stats,
)
from haargauss.cli import _verify_checks, main

from conftest import (
    assert_within_se,
    gauss_legendre_expectation,
    mean_and_se,
    variance_and_se,
)


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {number} ({name}): FAIL "
              f"({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[acceptance] criterion {number} ({name}): PASS ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {number} overran its {budget_s}s budget: {elapsed:.1f}s"


def test_criterion_1_exact_identities():
    with criterion(1, "exact-identity suite", 10.0):
        for name, cases, ok in _verify_checks():
            assert ok, f"exact identity {name} failed"
            assert cases > 0


def test_criterion_2_oracles():
    with criterion(2, "oracle suite", 30.0):
        # squared-coordinate cross moment on the circle: E U(1-U) for
        # U ~ Beta(1/2, 1/2), via the substitution u = sin^2(t) that removes
        # the endpoint singularities and leaves (2/pi) integral over [0, pi/2]
        ts, ws = np.polynomial.legendre.leggauss(120)
        theta = 0.25 * math.pi * (ts + 1.0)
        u = np.sin(theta) ** 2
        beta_cross = (0.25 * math.pi) * float((ws * (2.0 / math.pi) * u * (1.0 - u)).sum())
        assert abs(beta_cross - 0.125) <= 1e-12
        assert dirichlet_moment(2, (1, 1)) == pytest.approx(0.125)

        # order-2 column is (cos t, sin t): mean of cos^4 over the circle is
        # (1/pi) times the integral over [0, pi]
        quarter = 0.5 * float((ws * np.cos(0.5 * math.pi * (ts + 1.0)) ** 4).sum())
        assert abs(quarter - 0.375) <= 1e-12
        assert float(entry_monomial_moment(MonomialPattern.G11_4, 2)) == 0.375

        # univariate Gaussian oracles for the scalar Wishart statistics
        def gauss_moment(power: int) -> float:
            return gauss_legendre_expectation(lambda x: x**power, 0.0, 1.0)

        m4, m6, m8 = gauss_moment(4), gauss_moment(6), gauss_moment(8)
        scalar = wishart_trace_stats(1, 1)
        assert abs((m8 - m4 * m4) - 96.0) <= 1e-8
        assert float(scalar.var_tr2) == 96.0
        assert abs((m6 - 1.0 * m4) - 12.0) <= 1e-9
        assert float(scalar.cov_tr_tr2) == 12.0
        assert abs(m4 - 3.0) <= 1e-10
        assert float(scalar.e_tr2) == 3.0

        # centered square of a one-degree chi-square
        fourth = gauss_legendre_expectation(lambda x: (x * x - 1.0) ** 4, 0.0, 1.0)
        second = gauss_legendre_expectation(lambda x: (x * x - 1.0) ** 2, 0.0, 1.0)
        assert abs((fourth - second * second) - 56.0) <= 1e-8
        assert float(chi_square_central_stats(1).var_sq_centered) == 56.0

        # limit-law identities for the log ratio, against brute quadrature
        for sigma in (0.5, 1.0, 2.0):
            mu, s = -sigma**2 / 8.0, sigma / 2.0
            tv_oracle = gauss_legendre_expectation(
                lambda x: abs(math.exp(x) - 1.0), mu, s, split=(-mu / s,)
            )
            assert abs(tv_limit_lower_bound(sigma) - tv_oracle) <= 1e-6
            kl_oracle = gauss_legendre_expectation(lambda x: x * math.exp(x), mu, s)
            assert abs(kl_limit(sigma) - kl_oracle) <= 1e-9
            h_oracle = 1.0 - gauss_legendre_expectation(lambda x: math.exp(x / 2.0), mu, s)
            assert abs(hellinger_sq_limit(sigma) - h_oracle) <= 1e-9


def test_criterion_3_monte_carlo_vs_exact():
    with criterion(3, "MC vs exact at (50, 5, 4)", 300.0):
        d = Dims(50, 5, 4)
        n_rep = 100_000

        def corner_traces(stream, _):
            z = sample_haar_submatrix(d, stream)
            gram = z.T @ z
            gram_sq = gram @ gram
            return np.array(
                [np.trace(gram), np.trace(gram_sq), np.einsum("ij,ij->", gram_sq, gram)]
            )

        traces = replicate_map(corner_traces, n_rep, 9301)
        for k in (1, 2, 3):
            mean, se = mean_and_se(traces[:, k - 1])
            exact = float(trace_power_moment(k, d))
            assert_within_se(mean, exact, se, k=4, label=f"E trace power {k}")

        def wishart_tr2(stream, _):
            x = stream.standard_normal((5, 4))
            gram = x.T @ x
            return float(np.einsum("ij,ij->", gram, gram))

        tr2 = replicate_map(wishart_tr2, n_rep, 9302)
        stats = wishart_trace_stats(5, 4)
        mean, se = mean_and_se(tr2)
        assert_within_se(mean, float(stats.e_tr2), se, k=4, label="E tr2")
        var, var_se = variance_and_se(tr2)
        assert_within_se(var, float(stats.var_tr2), var_se, k=4, label="Var tr2")

        coupling = run_hs_experiment(d, n_rep, 9303)
        mean, se = mean_and_se(coupling.term_c)
        expected = float(sigma_trace_sums(d).sum_e_tr)
        assert_within_se(mean, expected, se, k=4, label="sum of projection masses")

        def overlap_square(stream, _):
            u = stream.standard_normal(5)
            v = stream.standard_normal(5)
            w = float(u @ v) ** 2 - float(u @ u)
            return w * w

        soup = replicate_map(overlap_square, n_rep, 9304)
        mean, se = mean_and_se(soup)
        assert_within_se(mean, 2.0 * 5 * 7, se, k=4, label="centered overlap square")


def test_criterion_4_normalizer():
    with criterion(4, "normalizer expansion", 60.0):
        big = Dims(10**6, 10**4, 10)
        gap_big = abs(log_kn_asymptotic(big) - log_kn_exact(big))
        assert gap_big < 0.01, f"gap {gap_big} at (1e6, 1e4, 10)"
        square = Dims(10**5, 300, 300)
        gap_square = abs(log_kn_asymptotic(square) - log_kn_exact(square))
        assert gap_square < 0.05, f"gap {gap_square} at (1e5, 300, 300)"


def _pinsker_and_sandwich(tv, kl, he):
    joint_pinsker = math.hypot(2 * tv.mean * tv.std_error, 2 * kl.std_error)
    assert tv.mean**2 <= 2 * kl.mean + 6 * joint_pinsker
    h = he.hellinger
    assert 2 * he.mean <= tv.mean + 6 * math.hypot(2 * he.std_error, tv.std_error)
    se_h = he.std_error / (2 * h) if h > 0 else he.std_error
    assert tv.mean <= 2 * math.sqrt(2) * h + 6 * math.hypot(tv.std_error, 2 * math.sqrt(2) * se_h)


def test_criterion_5_distance_regimes():
    with criterion(5, "distance regimes", 1200.0):
        n_rep = 10_000
        vanishing = Dims(2000, 10, 10)
        tv_v = estimate_tv(vanishing, n_rep, 9501)
        kl_v = estimate_kl(vanishing, n_rep, 9502)
        he_v = estimate_hellinger(vanishing, n_rep, 9503)
        assert tv_v.mean < 0.2
        assert kl_v.mean < 0.05
        assert he_v.hellinger < 0.2
        _pinsker_and_sandwich(tv_v, kl_v, he_v)

        critical = Dims(1024, 32, 32)
        tv_c = estimate_tv(critical, n_rep, 9504)
        kl_c = estimate_kl(critical, n_rep, 9505)
        he_c = estimate_hellinger(critical, n_rep, 9506)
        assert tv_c.mean >= 0.395 - 3 * tv_c.std_error
        assert tv_c.mean <= 0.545
        assert abs(kl_c.mean - 0.125) <= max(3 * kl_c.std_error, 0.05)
        assert abs(he_c.mean - 0.0308) <= max(3 * he_c.std_error, 0.02)
        _pinsker_and_sandwich(tv_c, kl_c, he_c)


def test_criterion_6_coupling():
    with criterion(6, "coupling suite", 1200.0):
        # mean-square bound on a six-point grid spanning the regimes
        grid = [
            (Dims(200, 5, 2), 400),
            (Dims(500, 10, 2), 400),
            (Dims(1000, 10, 5), 400),
            (Dims(2000, 50, 4), 400),
            (Dims(5000, 20, 10), 300),
            (Dims(62_500, 100, 25), 200),
        ]
        mean_for_band = None
        for d, n_rep in grid:
            result = run_hs_experiment(d, n_rep, 9601)
            assert result.mean_sq <= result.hs_sq_bound, f"bound violated at {d}"
            if d.n == 62_500:
                mean_for_band = result.mean

        # single-column law against the half-normal limit
        single = run_hs_experiment(Dims(2000, 1000, 1), 5000, 9602)
        assert single.ks_vs_half_normal is not None
        assert single.ks_vs_half_normal < 0.03

        # concentration of the coupled distance on the critical curve
        target = math.sqrt(0.5)
        assert mean_for_band is not None
        assert abs(mean_for_band - target) <= 0.1 * target


def test_criterion_7_clt(tmp_path):
    with criterion(7, "overlap CLT suite", 900.0):
        code = main(["clt", "--figure-grid", "-N", "6000", "--seed", "9701", "--threads", "1",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        (run_dir,) = tmp_path.iterdir()
        header, *lines = (run_dir / "results.csv").read_text().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert len(rows) == 6
        assert all(row["N"] == "6000" for row in rows)
        ks = {(int(row["p"]), int(row["q"])): float(row["ks_normal"]) for row in rows}
        assert ks[(10000, 100)] < 0.03
        assert ks[(165, 30)] > ks[(10000, 100)]
        # KS decreases along the theoretical quality order, within noise
        quality_order = [(165, 30), (355, 50), (900, 30), (1600, 40), (2500, 50), (10000, 100)]
        ks_values = [ks[pq] for pq in quality_order]
        for earlier, later in zip(ks_values[:-1], ks_values[1:]):
            assert later <= earlier + 0.03
        # histogram artifacts, one per grid point, each with its normal overlay
        svgs = sorted(run_dir.glob("clt-hist-*.svg"))
        assert len(svgs) == 6
        assert all("<polyline" in svg.read_text() for svg in svgs)

        w_900 = replicate_map(lambda s, _: clt_w_statistic(900, 30, s), 5000, 9702)
        var_900 = float(np.var(w_900, ddof=1))
        assert abs(var_900 - 1.0) <= 0.1, f"Var W at (900, 30) = {var_900}"

        w_p1 = replicate_map(lambda s, _: clt_w_statistic_p1(10_000, s), 6000, 9703)
        var_p1 = float(np.var(w_p1, ddof=1))
        assert abs(var_p1 - 8.0) <= 0.5, f"p=1 variance = {var_p1}"


def test_criterion_8_reproducibility(tmp_path):
    """Byte-identical results for repeated runs and for any --threads value.

    Each suite's stochastic pipeline is re-run through the same code path
    (per-replicate keyed substreams, index-ordered pairwise reduction) at
    reduced replicate counts, plus a full CLI round trip; invariance is a
    structural property of that path, independent of the count.
    """
    with criterion(8, "reproducibility", 600.0):
        critical = Dims(1024, 32, 32)
        for estimator in (estimate_tv, estimate_kl, estimate_hellinger):
            first = estimator(critical, 500, 42)
            again = estimator(critical, 500, 42)
            assert (first.mean, first.std_error) == (again.mean, again.std_error)

        hs_first = run_hs_experiment(Dims(2000, 100, 5), 300, 42)
        hs_again = run_hs_experiment(Dims(2000, 100, 5), 300, 42)
        assert np.array_equal(hs_first.hs_norms, hs_again.hs_norms)
        assert np.array_equal(hs_first.term_c, hs_again.term_c)

        w_first = replicate_map(lambda s, _: clt_w_statistic(900, 30, s), 400, 42)
        w_again = replicate_map(lambda s, _: clt_w_statistic(900, 30, s), 400, 42)
        assert np.array_equal(w_first, w_again)

        def corner_trace(stream, _):
            z = sample_haar_submatrix(Dims(50, 5, 4), stream)
            return float(np.einsum("ij,ij->", z, z))

        t_first = replicate_map(corner_trace, 2000, 42)
        t_again = replicate_map(corner_trace, 2000, 42)
        assert np.array_equal(t_first, t_again)

        # CLI end to end: result files byte-identical across thread counts
        # and across repeated runs
        payloads = []
        for threads, sub in ((1, "t1"), (4, "t4"), (4, "t4-again")):
            base = tmp_path / sub
            base.mkdir()
            code = main(
                ["distance", "--n", "400", "--p", "8", "--q", "6", "-N", "300",
                 "--seed", "42", "--threads", str(threads), "--output-dir", str(base)]
            )
            assert code == 0
            run_dir = next(p for p in base.iterdir() if p.is_dir())
            payloads.append((run_dir / "results.csv").read_bytes())
        assert payloads[0] == payloads[1] == payloads[2]

        coupling_payloads = []
        for threads, sub in ((1, "c1"), (4, "c4")):
            base = tmp_path / sub
            base.mkdir()
            code = main(
                ["coupling", "--n", "500", "--p", "250", "--q", "1", "-N", "400",
                 "--seed", "42", "--threads", str(threads), "--output-dir", str(base)]
            )
            assert code == 0
            run_dir = next(p for p in base.iterdir() if p.is_dir())
            coupling_payloads.append(
                (run_dir / "results.csv").read_bytes()
                + (run_dir / "coupling-hs-0.csv").read_bytes()
                + (run_dir / "coupling-hs-0.svg").read_bytes()
            )
        assert coupling_payloads[0] == coupling_payloads[1]
