"""Log-space evaluation of the density of the scaled orthogonal corner and
of its likelihood ratio against the i.i.d. Gaussian density.

The ratio factors as a deterministic normalizer times an eigenvalue-dependent
term, so ln f/g at z is ``log_kn_exact(d) + log_ln(z, d)``.  Points whose
Gram spectrum leaves the support contribute a density of zero; that case is
carried as a -inf log value, not an error, because the distance estimators
integrate over Gaussian samples that can legally land there.  A point that
is not finite is an error.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import cholesky_logdet
from .sampling import Dims

__all__ = [
    "NEG_INFINITY",
    "UnsupportedRegimeError",
    "log_kn_exact",
    "log_kn_asymptotic",
    "log_ln",
]

NEG_INFINITY = float("-inf")


class UnsupportedRegimeError(ValueError):
    """The density formula needs p + q <= n (after swapping p and q)."""


def _canonical_pq(d: Dims) -> tuple[int, int]:
    """Orient the block so the Gram matrix is the smaller of the two; the
    density is symmetric under transposing the corner."""
    return (d.p, d.q) if d.q <= d.p else (d.q, d.p)


def log_kn_exact(d: Dims) -> float:
    """Exact log normalizer of the likelihood ratio, via log-gamma sums."""
    p, q = _canonical_pq(d)
    n = d.n
    if p + q > n:
        raise UnsupportedRegimeError(
            f"density requires p + q <= n, got p={p}, q={q}, n={n}"
        )
    total = (p * q / 2.0) * (math.log(2.0) - math.log(n))
    for j in range(q):
        total += math.lgamma((n - j) / 2.0) - math.lgamma((n - p - j) / 2.0)
    return total


def log_kn_asymptotic(d: Dims) -> float:
    """Stirling-regime expansion of the log normalizer, to four terms.

    Valid when the wide side p grows with n while p/n stays away from 1; the
    dropped remainder vanishes along sequences with pq = O(n).
    """
    p, q = _canonical_pq(d)
    n = d.n
    if p >= n:
        raise ValueError(f"asymptotic normalizer needs p < n, got p={p}, n={n}")
    return (
        -p * q / 2.0
        + (q * (q + 1) / 4.0) * math.log1p(p / (n - p))
        - p * q**3 / (12.0 * n * n)
        - (n - p - q - 1) / 2.0 * q * math.log1p(-(p / n))
    )


def log_ln(z_block: np.ndarray, d: Dims) -> float:
    """ln of the eigenvalue factor at an evaluation point z (a p x q block
    on the Gaussian scale).

    Equals c_n * ln det(I - z'z/n) + tr(z'z)/2, c_n = (n - p - q - 1)/2,
    when all Gram eigenvalues of z'z/n lie in (0, 1), and -inf otherwise; the
    Cholesky probe detects the out-of-support case as a non-PD matrix.  A
    block holding a NaN or an infinity is a sampler defect, not a point
    outside the support, and raises ``RuntimeError``.
    """
    z = np.asarray(z_block, dtype=float)
    if z.shape != (d.p, d.q):
        raise ValueError(f"expected a {d.p} x {d.q} block, got shape {z.shape}")
    # the Gram matrix on the smaller side of the block
    gram = z.T @ z if d.q <= d.p else z @ z.T
    trace = float(np.einsum("ij,ij->", z, z))
    if not math.isfinite(trace):
        raise RuntimeError(f"evaluation point is not finite (dims={d}, tr(z'z)={trace})")
    shifted = np.eye(gram.shape[0]) - gram / d.n
    logdet = cholesky_logdet(shifted)
    if logdet is None:
        return NEG_INFINITY
    # integer arithmetic first; n, p, q can be large enough that naive float
    # subtraction of the pieces would round
    return (d.n - d.p - d.q - 1) / 2.0 * logdet + 0.5 * trace
