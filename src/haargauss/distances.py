"""Monte Carlo estimators of the three probability distances between the
scaled orthogonal corner and the i.i.d. Gaussian block.

Conventions: the total variation distance carries the factor 2 (the sup
difference doubled equals the L1 distance of the densities), the Hellinger
estimate is reported as squared Hellinger, and the Kullback-Leibler value is
the mean log ratio under the corner's own law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .density import UnsupportedRegimeError, log_kn_exact, log_ln
from .numerics import RngStream, normal_cdf
from .parallel import replicate_map, thread_count
from .sampling import Dims, sample_haar_submatrix

__all__ = [
    "DistanceKind",
    "EstimateWithError",
    "NoDrawInSupportError",
    "estimate_tv",
    "estimate_kl",
    "estimate_hellinger",
    "tv_limit_lower_bound",
    "kl_limit",
    "hellinger_sq_limit",
]


class DistanceKind(Enum):
    TV = "tv"
    KL = "kl"
    HELLINGER = "hellinger"


class NoDrawInSupportError(UnsupportedRegimeError):
    """No Gaussian block has a ratio distinguishable from 0 (each lies
    outside the corner density's support or rounds to ratio 0 there), so the
    estimate is a constant whose standard error is zero or at rounding level."""


@dataclass(frozen=True)
class EstimateWithError:
    """Monte Carlo estimate with its standard error.

    For the Hellinger kind, ``mean`` holds the squared Hellinger distance
    (one minus the mean of the square-root ratio terms) and ``std_error`` is
    the standard error of that mean.
    """

    mean: float
    std_error: float
    replicates: int
    kind: DistanceKind

    def __post_init__(self) -> None:
        if self.replicates < 2:
            raise ValueError(f"replicates must be >= 2, got {self.replicates}")

    @property
    def hellinger(self) -> float:
        """H itself, i.e. the square root of the squared-Hellinger mean."""
        if self.kind is not DistanceKind.HELLINGER:
            raise ValueError(f"hellinger is undefined for kind {self.kind}")
        return math.sqrt(max(self.mean, 0.0))


def _estimate(
    d: Dims,
    replicates: int,
    master_seed: int,
    kind: DistanceKind,
    term: Callable[[np.ndarray], np.ndarray],
) -> EstimateWithError:
    """Mean and standard error of ``term(log f/g)`` over replicate draws.

    KL draws sqrt(n) times a Haar corner (law f); the other kinds draw a
    Gaussian p x q block (law g).  A Gaussian block may legally fall outside
    the support of f and enters ``term`` with log ratio -inf; a corner sample
    can only do so through a sampler or density defect (the event has
    probability zero), so it aborts the run with diagnostics.  The Hellinger
    kind reports one minus the mean, the squared distance.  When the per-draw
    terms vary only at rounding level, the standard error is at most 64 eps
    times max(1, |estimate|) and carries no information (far from the
    critical curve every Gaussian block has a ratio that rounds to 0), and
    ``NoDrawInSupportError`` is raised.
    """
    log_kn = log_kn_exact(d)
    root_n = math.sqrt(d.n)

    def draw(stream: RngStream, _: int) -> np.ndarray:
        if kind is DistanceKind.KL:
            return root_n * sample_haar_submatrix(d, stream)
        return stream.standard_normal((d.p, d.q))

    log_ratios = replicate_map(draw, replicates, master_seed, batch=lambda stack: log_kn + log_ln(stack, d))
    if kind is DistanceKind.KL and np.isneginf(log_ratios).any():
        index = int(np.argmax(np.isneginf(log_ratios)))  # the first corner outside
        top = float(np.max(np.abs(draw(RngStream(master_seed, index), index))))
        raise RuntimeError(
            "corner sample fell outside the density support; this indicates a "
            f"sampler or density bug (dims={d}, seed={master_seed}, "
            f"replicate={index}, max|entry|={top:.6e})"
        )
    values = term(log_ratios)
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(values.size))
    if kind is DistanceKind.HELLINGER:
        mean = 1.0 - mean
    if se <= 64 * np.finfo(float).eps * max(1.0, abs(mean)):
        raise NoDrawInSupportError(
            f"the {replicates} per-draw terms vary only at rounding level: no Gaussian "
            f"block has a ratio distinguishable from 0 (dims={d})"
        )
    return EstimateWithError(mean, se, replicates, kind)


def estimate_tv(
    d: Dims, replicates: int, master_seed: int, threads: int | None = None
) -> EstimateWithError:
    """Total variation estimate: the mean of |ratio - 1| over Gaussian
    blocks, where a block outside the corner's support has ratio 0 and
    contributes exactly 1.  ``threads`` is checked and ignored
    (see :func:`~haargauss.parallel.thread_count`) until the benchmark stops
    passing it."""
    thread_count(threads)
    return _estimate(
        d, replicates, master_seed, DistanceKind.TV,
        lambda log_ratio: np.abs(np.exp(log_ratio) - 1.0),
    )


def estimate_kl(
    d: Dims, replicates: int, master_seed: int, threads: int | None = None
) -> EstimateWithError:
    """Kullback-Leibler estimate: the mean log ratio over scaled corner
    samples.  ``threads`` is checked and ignored
    (see :func:`~haargauss.parallel.thread_count`) until the benchmark stops
    passing it."""
    thread_count(threads)
    return _estimate(
        d, replicates, master_seed, DistanceKind.KL, lambda log_ratio: log_ratio
    )


def estimate_hellinger(d: Dims, replicates: int, master_seed: int) -> EstimateWithError:
    """Squared Hellinger estimate: one minus the mean of exp(log ratio / 2)
    over Gaussian blocks; out-of-support samples contribute 0 to that mean."""
    return _estimate(
        d, replicates, master_seed, DistanceKind.HELLINGER,
        lambda log_ratio: np.exp(0.5 * log_ratio),
    )


def tv_limit_lower_bound(sigma: float) -> float:
    """E|e^xi - 1| = 4 Phi(sigma/4) - 2 for xi ~ N(-sigma^2/8, sigma^2/4).

    This is the proven asymptotic floor of the total variation distance on
    the curve pq/n -> sigma as min(p, q) -> infinity; with q fixed the limit
    law of the log ratio differs (see :func:`kl_limit`).  The empirical
    estimate is compared against it as a band, not an equality.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return 4.0 * normal_cdf(sigma / 4.0) - 2.0


def kl_limit(sigma: float) -> float:
    """E[xi e^xi] = sigma^2 / 8 for the same limiting log ratio xi.

    Like the other limit values it holds only as min(p, q) -> infinity on
    the curve pq/n -> sigma: at sigma = 1 with q = 10 the exact KL is about
    0.1477 (at n = 10^4 up to 10^8), not 0.125."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return sigma * sigma / 8.0


def hellinger_sq_limit(sigma: float) -> float:
    """1 - E[e^{xi/2}] = 1 - exp(-sigma^2/32) for the same xi, as
    min(p, q) -> infinity on the curve pq/n -> sigma."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return 1.0 - math.exp(-sigma * sigma / 32.0)
