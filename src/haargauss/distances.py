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

from .density import NEG_INFINITY, UnsupportedRegimeError, log_kn_exact, log_ln
from .numerics import RngStream, normal_cdf
from .parallel import replicate_map
from .sampling import Dims, sample_haar_submatrix

__all__ = [
    "DistanceKind",
    "EstimateWithError",
    "NoDrawInSupportError",
    "estimate_tv",
    "estimate_kl",
    "estimate_hellinger",
    "estimate_tv_from_haar",
    "tv_limit_lower_bound",
    "kl_limit",
    "hellinger_sq_limit",
]


class DistanceKind(Enum):
    TV = "tv"
    KL = "kl"
    HELLINGER = "hellinger"


class NoDrawInSupportError(UnsupportedRegimeError):
    """Every Gaussian block fell outside the corner density's support, so the
    Gaussian-side estimate is a constant with a zero standard error."""


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
    threads: int | None,
    kind: DistanceKind,
    on_corner: bool,
    term: Callable[[float], float],
) -> EstimateWithError:
    """Mean and standard error of ``term(log f/g)`` over replicate draws.

    The draw is a Gaussian p x q block (law g) or, with ``on_corner``, sqrt(n)
    times a Haar corner (law f).  A Gaussian block may legally fall outside
    the support of f and enters ``term`` with log ratio -inf; a corner sample
    can only do so through a sampler or density defect (the event has
    probability zero), so it aborts the run with diagnostics.  When no
    Gaussian block lands inside the support the estimate carries no
    information, and ``NoDrawInSupportError`` is raised.  The Hellinger kind
    reports one minus the mean, the squared distance.
    """
    log_kn = log_kn_exact(d).log_kn
    root_n = math.sqrt(d.n)

    def one(stream: RngStream, index: int) -> float:
        if on_corner:
            point = root_n * sample_haar_submatrix(d, stream)
        else:
            point = stream.standard_normal((d.p, d.q))
        log_ratio = log_kn + log_ln(point, d)
        if on_corner and log_ratio == NEG_INFINITY:
            top = float(np.max(np.abs(point)))
            raise RuntimeError(
                "corner sample fell outside the density support; this indicates a "
                f"sampler or density bug (dims={d}, seed={master_seed}, "
                f"replicate={index}, max|entry|={top:.6e})"
            )
        return log_ratio

    log_ratios = replicate_map(one, replicates, master_seed, threads=threads)
    if np.all(log_ratios == NEG_INFINITY):
        raise NoDrawInSupportError(
            f"none of {replicates} Gaussian blocks lies inside the support (dims={d})"
        )
    values = np.array([term(log_ratio) for log_ratio in log_ratios])
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(values.size))
    if kind is DistanceKind.HELLINGER:
        mean = 1.0 - mean
    return EstimateWithError(mean, se, replicates, kind)


def estimate_tv(
    d: Dims, replicates: int, master_seed: int, threads: int | None = None
) -> EstimateWithError:
    """Total variation estimate: the mean of |ratio - 1| over Gaussian
    blocks, where a block outside the corner's support has ratio 0 and
    contributes exactly 1."""
    return _estimate(
        d, replicates, master_seed, threads, DistanceKind.TV, False,
        lambda log_ratio: float(np.abs(np.exp(np.float64(log_ratio)) - 1.0)),
    )


def estimate_kl(
    d: Dims, replicates: int, master_seed: int, threads: int | None = None
) -> EstimateWithError:
    """Kullback-Leibler estimate: the mean log ratio over scaled corner
    samples."""
    return _estimate(
        d, replicates, master_seed, threads, DistanceKind.KL, True, lambda log_ratio: log_ratio
    )


def estimate_hellinger(
    d: Dims, replicates: int, master_seed: int, threads: int | None = None
) -> EstimateWithError:
    """Squared Hellinger estimate: one minus the mean of exp(log ratio / 2)
    over Gaussian blocks; out-of-support samples contribute 0 to that mean."""
    return _estimate(
        d, replicates, master_seed, threads, DistanceKind.HELLINGER, False,
        lambda log_ratio: float(np.exp(np.float64(0.5 * log_ratio))),
    )


def estimate_tv_from_haar(
    d: Dims, replicates: int, master_seed: int, threads: int | None = None
) -> EstimateWithError:
    """Total variation in its corner-sample form, the mean of
    |1 - exp(-log ratio)| over scaled corner samples; agrees with
    :func:`estimate_tv` in expectation and serves as its cross-check."""
    return _estimate(
        d, replicates, master_seed, threads, DistanceKind.TV, True,
        lambda log_ratio: float(np.abs(1.0 - np.exp(np.float64(-log_ratio)))),
    )


def tv_limit_lower_bound(sigma: float) -> float:
    """E|e^xi - 1| = 4 Phi(sigma/4) - 2 for xi ~ N(-sigma^2/8, sigma^2/4).

    This is the proven asymptotic floor of the total variation distance on
    the curve pq/n -> sigma; the empirical estimate is compared against it
    as a band, not an equality.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return 4.0 * normal_cdf(sigma / 4.0) - 2.0


def kl_limit(sigma: float) -> float:
    """E[xi e^xi] = sigma^2 / 8 for the same limiting log ratio xi."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return sigma * sigma / 8.0


def hellinger_sq_limit(sigma: float) -> float:
    """1 - E[e^{xi/2}] = 1 - exp(-sigma^2/32) for the same xi."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return 1.0 - math.exp(-sigma * sigma / 32.0)
