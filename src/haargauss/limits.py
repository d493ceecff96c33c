"""Experiments around the coupling and the limit theorems: the
Hilbert-Schmidt statistic with its decomposition, the q = 1 limit law, the
concentration of the coupled distance, and the Gram-overlap CLT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import RngStream, ks_statistic, normal_cdf
from .parallel import replicate_map
from .sampling import Dims, _haar_factor, _haar_rows, _wishart_rows

__all__ = [
    "FIGURE_GRID",
    "HsExperimentResult",
    "run_hs_experiment",
    "clt_w_statistic",
    "clt_w_statistic_p1",
    "half_normal_cdf",
]

# (p, q) pairs of the standard-normal comparison grid for the overlap CLT
FIGURE_GRID: tuple[tuple[int, int], ...] = (
    (165, 30),
    (900, 30),
    (1600, 40),
    (355, 50),
    (2500, 50),
    (10000, 100),
)


def half_normal_cdf(x: float, scale: float = 1.0) -> float:
    """CDF of scale * |N(0,1)|."""
    if x <= 0.0:
        return 0.0
    return 2.0 * normal_cdf(x / scale) - 1.0


def _hs_terms(d: Dims, y_top: np.ndarray, bottom: np.ndarray) -> tuple[float, float, float, float]:
    """One coupled draw from top rows and the rows stacked under them (see
    ``_haar_rows``): (hs_norm, term_ab, term_c, cross), the per-draw entries
    of :class:`HsExperimentResult`."""
    q_top, r = _haar_factor(y_top, bottom)
    root_n = math.sqrt(d.n)

    # column k of y is Q (R e_k): its residual length is R_kk and its
    # projection onto the previous columns is Q triu(R, 1) e_k
    proj_top = q_top @ np.triu(r, 1)

    shrink = root_n - np.diagonal(r)
    a = shrink * shrink
    b = np.einsum("ij,ij->j", q_top, q_top)
    c = np.einsum("ij,ij->j", proj_top, proj_top)
    eps = -2.0 * shrink * np.einsum("ij,ij->j", q_top, proj_top)

    diff = root_n * q_top - y_top
    hs_sq = float(np.einsum("ij,ij->", diff, diff))
    return math.sqrt(hs_sq), float((a * b).sum()), float(c.sum()), float(eps.sum())


@dataclass(frozen=True)
class HsExperimentResult:
    """Replicated coupled-distance draws plus the derived summaries.

    Per draw, hs_norms^2 = term_ab + term_c + cross up to roundoff, where
    term_ab sums the products of the column shrink factors with the top-block
    column masses, term_c sums the top-block projection masses, and cross
    collects the mixed inner products.
    """

    hs_norms: np.ndarray
    term_ab: np.ndarray
    term_c: np.ndarray
    cross: np.ndarray
    mean: float
    mean_sq: float
    hs_sq_bound: float
    sigma: float
    ks_vs_half_normal: float | None


def run_hs_experiment(d: Dims, replicates: int, master_seed: int) -> HsExperimentResult:
    """Replicate the coupled Hilbert-Schmidt draw.

    Reports the sample mean and mean square against the proven bound
    24 p q^2 / n, and for single-column blocks also the KS distance of the
    draws against the limiting half-normal with scale sqrt(p / (2n))."""
    values = replicate_map(
        lambda stream, _: np.array(_hs_terms(d, *_haar_rows(d, stream))),
        replicates,
        master_seed,
    )
    hs = values[:, 0]
    ks = None
    if d.q == 1:
        scale = math.sqrt(d.p / d.n / 2.0)
        ks = ks_statistic(hs, lambda x: half_normal_cdf(x, scale))
    return HsExperimentResult(
        hs_norms=hs,
        term_ab=values[:, 1],
        term_c=values[:, 2],
        cross=values[:, 3],
        mean=float(np.mean(hs)),
        mean_sq=float(np.mean(hs * hs)),
        hs_sq_bound=24.0 * d.p * d.q * d.q / d.n,
        sigma=d.coupling_sigma,
        ks_vs_half_normal=ks,
    )


def clt_w_statistic(p: int, q: int, stream: RngStream) -> float:
    """One draw of the centered, normalized off-diagonal Gram overlap
    statistic for a p x q standard Gaussian matrix.

    W reads the matrix only through its Gram matrix, which is drawn in law
    as B'B from Wishart rows in O(min(p, q) q^2) time; the squared
    off-diagonal overlaps sum to its squared Frobenius norm minus diagonal."""
    if p < 2 or q < 2:
        raise ValueError(f"need p >= 2 and q >= 2, got p={p}, q={q}")
    b = _wishart_rows(p, q, stream)
    gram = b.T @ b
    fro_sq = float(np.einsum("ij,ij->", gram, gram))
    diag = np.diagonal(gram)
    off_sq = fro_sq - float(diag @ diag)
    return (off_sq - q * (q - 1) * p) / (2.0 * p * q)


def clt_w_statistic_p1(q: int, stream: RngStream) -> float:
    """Single-row variant under the q^{3/2} scaling.

    With scalar columns the overlap sum collapses to a chi-square quadratic,
    so the statistic needs the heavier normalization; its limit law has
    variance 8 rather than 1."""
    if q < 2:
        raise ValueError(f"need q >= 2, got q={q}")
    g = stream.standard_normal(q)
    g_sq = g * g
    s2 = float(g_sq.sum())
    s4 = float((g_sq * g_sq).sum())
    return (s2 * s2 - s4 - q * (q - 1)) / q**1.5
