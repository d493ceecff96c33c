"""Log-space evaluation of the density of the scaled orthogonal corner and
of its likelihood ratio against the i.i.d. Gaussian density.

The ratio factors as a deterministic normalizer times an eigenvalue-dependent
term, so ln f/g at z is ``log_kn_exact(d).log_kn + log_ln(z, d)``.  Points whose Gram spectrum leaves the support contribute a density of
zero; that case is carried as a -inf log value, not an error, because the
distance estimators integrate over Gaussian samples that can legally land
there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import cholesky_logdet
from .sampling import Dims

__all__ = [
    "NEG_INFINITY",
    "KnParts",
    "UnsupportedRegimeError",
    "log_kn_exact",
    "log_kn_asymptotic",
    "log_ln",
]

NEG_INFINITY = float("-inf")


class UnsupportedRegimeError(ValueError):
    """The density formula needs p + q <= n (after swapping p and q)."""


@dataclass(frozen=True)
class KnParts:
    """Log normalizer together with the spectral exponent c_n."""

    log_kn: float
    c_n: float


def _canonical_pq(d: Dims) -> tuple[int, int]:
    """Orient the block so the Gram matrix is the smaller of the two; the
    density is symmetric under transposing the corner."""
    return (d.p, d.q) if d.q <= d.p else (d.q, d.p)


def _c_n(n: int, p: int, q: int) -> float:
    # integer arithmetic first; n, p, q can be large enough that naive float
    # subtraction of the pieces would round
    return (n - p - q - 1) / 2.0


def _log_kn_exact_raw(n: int, p: int, q: int) -> float:
    """Sum form of the exact log normalizer; q = 0 gives the empty product."""
    if q == 0:
        return 0.0
    total = (p * q / 2.0) * (math.log(2.0) - math.log(n))
    for j in range(q):
        total += math.lgamma((n - j) / 2.0) - math.lgamma((n - p - j) / 2.0)
    return total


def _log_kn_asymptotic_raw(n: int, p: int, q: int) -> float:
    """Four-term normalizer expansion; q = 0 gives 0 by convention."""
    if q == 0:
        return 0.0
    ratio = p / n
    return (
        -p * q / 2.0
        + (q * (q + 1) / 4.0) * math.log1p(p / (n - p))
        - p * q**3 / (12.0 * n * n)
        - _c_n(n, p, q) * q * math.log1p(-ratio)
    )


def log_kn_exact(d: Dims) -> KnParts:
    """Exact log normalizer of the likelihood ratio, via log-gamma sums."""
    p, q = _canonical_pq(d)
    n = d.n
    if p + q > n:
        raise UnsupportedRegimeError(
            f"density requires p + q <= n, got p={p}, q={q}, n={n}"
        )
    return KnParts(log_kn=_log_kn_exact_raw(n, p, q), c_n=_c_n(n, p, q))


def log_kn_asymptotic(d: Dims) -> KnParts:
    """Stirling-regime expansion of the log normalizer.

    Valid when the wide side p grows with n while p/n stays away from 1; the
    dropped remainder vanishes along sequences with pq = O(n).
    """
    p, q = _canonical_pq(d)
    n = d.n
    if p >= n:
        raise ValueError(f"asymptotic normalizer needs p < n, got p={p}, n={n}")
    return KnParts(log_kn=_log_kn_asymptotic_raw(n, p, q), c_n=_c_n(n, p, q))


def _gram(point: np.ndarray) -> np.ndarray:
    """Gram matrix on the smaller side of the block."""
    p, q = point.shape
    return point.T @ point if q <= p else point @ point.T


def log_ln(z_block: np.ndarray, d: Dims) -> float:
    """ln of the eigenvalue factor at an evaluation point z (a p x q block
    on the Gaussian scale).

    Equals c_n * ln det(I - z'z/n) + tr(z'z)/2 when all Gram eigenvalues of
    z'z/n lie in (0, 1), and -inf otherwise; the Cholesky probe detects the
    out-of-support case as a non-PD matrix.
    """
    z = np.asarray(z_block, dtype=float)
    if z.shape != (d.p, d.q):
        raise ValueError(f"expected a {d.p} x {d.q} block, got shape {z.shape}")
    gram = _gram(z)
    trace = float(np.einsum("ij,ij->", z, z))
    shifted = np.eye(gram.shape[0]) - gram / d.n
    logdet = cholesky_logdet(shifted)
    if logdet is None:
        return NEG_INFINITY
    return _c_n(d.n, d.p, d.q) * logdet + 0.5 * trace
