"""Shared test utilities: standard-error assertions and brute-force
quadrature oracles kept independent of the library code they check."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from haargauss import RngStream


class NanStream(RngStream):
    """A stream whose Gaussian and chi-square draws each carry one NaN, as a
    corrupted sampler or a bad BLAS result would: every check downstream must
    reject it."""

    def standard_normal(self, shape):
        out = super().standard_normal(shape)
        out.flat[0] = np.nan
        return out

    def chi_square(self, df):
        out = np.array(super().chi_square(df), dtype=float)
        out.flat[0] = np.nan
        return out


def assert_within_se(observed: float, expected: float, std_error: float, k: float = 4.0, label: str = ""):
    """Assert |observed - expected| <= k standard errors.

    A standard error that is not finite, or no larger than rounding relative
    to ``expected``, means the statistic does not vary from draw to draw; a
    band of k such errors then checks nothing but rounding, so it fails here.
    """
    floor = 64 * np.finfo(float).eps * max(1.0, abs(expected))
    assert math.isfinite(std_error) and std_error > floor, (
        f"{label or 'value'}: std_error {std_error!r} is not finite or is at "
        f"rounding level (<= {floor:.3g}); the statistic does not vary, so the "
        "SE band tests nothing"
    )
    margin = k * std_error
    assert abs(observed - expected) <= margin, (
        f"{label or 'value'} {observed} differs from {expected} by "
        f"{abs(observed - expected):.6g} > {k} se = {margin:.6g}"
    )


def mean_and_se(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def variance_and_se(values: np.ndarray) -> tuple[float, float]:
    """Sample variance with its own standard error (via the fourth moment)."""
    values = np.asarray(values, dtype=float)
    n = values.size
    centered = values - values.mean()
    var = float(centered @ centered / (n - 1))
    m4 = float(np.mean(centered**4))
    se = math.sqrt(max(m4 - var * var, 0.0) / n)
    return var, se


def gauss_legendre_expectation(fn, mu: float, s: float, split=(), half_width: float = 14.0, nodes: int = 200) -> float:
    """E[fn(xi)] for xi ~ N(mu, s^2) by panel-wise Gauss-Legendre quadrature.

    ``split`` lists interior points (in standard-normal units) where the
    integrand is allowed to be non-smooth; each smooth panel is integrated
    separately, so kinks cost nothing.  Plain Gauss-Hermite stalls near 1e-3
    on the |e^x - 1| kink, which is why the oracle uses split panels.
    """
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    points = sorted({-half_width, half_width, *(z for z in split if -half_width < z < half_width)})
    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        z = 0.5 * (b - a) * xs + 0.5 * (a + b)
        f = np.array([fn(mu + s * zi) for zi in z])
        phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        total += 0.5 * (b - a) * float((ws * f * phi).sum())
    return total


def log_wishart_constant(s: float, t: int) -> float:
    """ln of the Wishart normalizing constant w(s, t).

    1/w(s, t) = pi^{t(t-1)/4} * 2^{st/2} * prod_{j=1}^{t} Gamma((s-j+1)/2),
    defined for integer t >= 1 and real s > t - 1.
    """
    if int(t) != t or t < 1:
        raise ValueError(f"t must be a positive integer, got {t}")
    t = int(t)
    if not s > t - 1:
        raise ValueError(f"require s > t - 1, got s={s}, t={t}")
    log_inv = (t * (t - 1) / 4.0) * math.log(math.pi) + (s * t / 2.0) * math.log(2.0)
    for j in range(1, t + 1):
        log_inv += math.lgamma((s - j + 1) / 2.0)
    return -log_inv


def exact_kl(n: int, p: int, q: int) -> float:
    """KL(f || g) of the scaled n x n Haar corner against i.i.d. normals.

    With Z'Z oriented on the smaller side (q <= p), the likelihood ratio is
    K_n det(I - Z'Z)^{c_n} e^{n tr(Z'Z)/2}, c_n = (n - p - q - 1)/2, and
    K_n = n^{-pq/2} w(n - p, q)/w(n, q).  Writing Z = Y_top R^-1 for an n x q
    Gaussian Y = QR gives det(I - Z'Z) = det(Y_bot'Y_bot)/det(Y'Y), a ratio of
    Wishart determinants with E ln det W_q(m) = q ln 2 + sum_i psi((m-i+1)/2),
    and E tr(Z'Z) = pq/n, so
    KL = ln K_n + c_n sum_{i=1}^q [psi((n-p-i+1)/2) - psi((n-i+1)/2)] + pq/2.
    Evaluated in 40-digit arithmetic.
    """
    p, q = max(p, q), min(p, q)
    with mpmath.workdps(40):
        half = mpmath.mpf(1) / 2
        log_kn = half * p * q * (mpmath.log(2) - mpmath.log(n))
        psi_sum = mpmath.mpf(0)
        for i in range(1, q + 1):
            full, rest = half * (n - i + 1), half * (n - p - i + 1)
            log_kn += mpmath.loggamma(full) - mpmath.loggamma(rest)
            psi_sum += mpmath.digamma(rest) - mpmath.digamma(full)
        return float(log_kn + half * (n - p - q - 1) * psi_sum + half * p * q)


def q1_distances(n: int, p: int) -> tuple[float, float, float]:
    """(TV, KL, squared Hellinger) of the scaled n x n Haar corner of shape
    p x 1 against i.i.d. normals, in the library's conventions (TV as the
    L1 distance, squared Hellinger as 1 - integral of sqrt(fg)).

    The likelihood ratio depends on z only through t = |z|^2, which is
    n Beta(p/2, (n - p)/2) under the corner and chi-square(p) under the
    Gaussian, so each distance is the same distance between those two laws
    of t.  Gaussian mass beyond t = n, where the corner has none, adds its
    weight to TV.  The log ratio is (n - p - 2)/2 ln(1 - t/n) + t/2 plus a
    constant, concave or convex in t, so the densities cross at most twice,
    once on each side of its extremum t = p + 2; the quadrature is split
    there and at each crossing.  Evaluated in 30-digit arithmetic.
    """
    with mpmath.workdps(30):
        a, b = mpmath.mpf(p) / 2, mpmath.mpf(n - p) / 2
        n_mp = mpmath.mpf(n)
        log_beta = mpmath.loggamma(a) + mpmath.loggamma(b) - mpmath.loggamma(a + b)
        log_chi = a * mpmath.log(2) + mpmath.loggamma(a)

        def log_f(t):
            u = t / n_mp
            return (a - 1) * mpmath.log(u) + (b - 1) * mpmath.log1p(-u) - log_beta - mpmath.log(n_mp)

        def log_g(t):
            return (a - 1) * mpmath.log(t) - t / 2 - log_chi

        def log_ratio(t):
            return log_f(t) - log_g(t)

        edges = [mpmath.mpf(0), mpmath.mpf(p + 2), n_mp] if p + 2 < n else [mpmath.mpf(0), n_mp]
        inner = mpmath.mpf(10) ** -25 * n_mp
        crossings = [
            mpmath.findroot(log_ratio, (lo + inner, hi - inner), solver="anderson")
            for lo, hi in zip(edges[:-1], edges[1:])
            if log_ratio(lo + inner) * log_ratio(hi - inner) < 0
        ]
        points = sorted(edges + crossings)
        tv = mpmath.quad(lambda t: abs(mpmath.exp(log_f(t)) - mpmath.exp(log_g(t))), points)
        tv += mpmath.gammainc(a, n_mp / 2, mpmath.inf, regularized=True)
        kl = mpmath.quad(lambda t: mpmath.exp(log_f(t)) * log_ratio(t), points)
        hellinger_sq = 1 - mpmath.quad(lambda t: mpmath.exp((log_f(t) + log_g(t)) / 2), points)
        return float(tv), float(kl), float(hellinger_sq)


def explicit_q(y: np.ndarray) -> np.ndarray:
    """Gram-Schmidt on the columns of y as Householder QR with Q formed
    explicitly, each column's sign pinned so that R has a positive diagonal."""
    q, r = np.linalg.qr(y)
    return q * np.sign(np.diagonal(r))


@pytest.fixture
def tol():
    return 1e-10
