"""Shared test utilities: standard-error assertions and brute-force
quadrature oracles kept independent of the library code they check."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from haargauss import RngStream


class NanStream(RngStream):
    """A stream whose Gaussian draws carry one NaN, as a corrupted sampler
    or a bad BLAS result would: every check downstream must reject it."""

    def standard_normal(self, shape):
        out = super().standard_normal(shape)
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


def explicit_q(y: np.ndarray) -> np.ndarray:
    """Gram-Schmidt on the columns of y as Householder QR with Q formed
    explicitly, each column's sign pinned so that R has a positive diagonal."""
    q, r = np.linalg.qr(y)
    return q * np.sign(np.diagonal(r))


@pytest.fixture
def tol():
    return 1e-10
