"""Deterministic numerical primitives shared by the whole package.

Seeded counter-based random substreams, special functions, a
log-determinant Cholesky, and a goodness-of-fit statistic.
Everything here is pure given its inputs; streams are value objects that
can be rebuilt identically on any worker.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "RngStream",
    "normal_cdf",
    "cholesky_logdet",
    "ks_statistic",
]

_UINT64_MAX = 2**64 - 1


class RngStream:
    """A reproducible random substream identified by value.

    A stream is fully determined by ``(master_seed, replicate_index)``, which
    keys a Philox counter-based generator, so streams with different replicate
    indices are independent by construction and equal keys always reproduce
    bit-identical sequences.

    Gaussian deviates come from numpy's ziggurat sampler; only their moments
    are contractual, not the bit patterns.
    """

    __slots__ = ("master_seed", "replicate_index", "_generator")

    def __init__(self, master_seed: int, replicate_index: int = 0):
        for name, value in (
            ("master_seed", master_seed),
            ("replicate_index", replicate_index),
        ):
            if not (0 <= int(value) <= _UINT64_MAX):
                raise ValueError(f"{name} must fit in an unsigned 64-bit integer, got {value!r}")
        self.master_seed = int(master_seed)
        self.replicate_index = int(replicate_index)
        self._generator: np.random.Generator | None = None

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator, created lazily from the key."""
        if self._generator is None:
            key = np.array([self.master_seed, self.replicate_index], dtype=np.uint64)
            self._generator = np.random.Generator(np.random.Philox(key=key))
        return self._generator

    def gaussian(self) -> float:
        return float(self.generator.standard_normal())

    def standard_normal(self, shape) -> np.ndarray:
        return self.generator.standard_normal(shape)

    def chi_square(self, df) -> np.ndarray:
        return self.generator.chisquare(df)

    def __repr__(self) -> str:
        return (
            f"RngStream(master_seed={self.master_seed}, "
            f"replicate_index={self.replicate_index})"
        )


def normal_cdf(x: float) -> float:
    """Standard normal CDF Phi(x), accurate in both tails."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def cholesky_logdet(a: np.ndarray) -> float | None:
    """ln det(A) for symmetric positive definite A, or None when A is not PD.

    The non-PD outcome is a value, not an error: callers in the density code
    map it to a zero-density sentinel.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"cholesky_logdet requires a square matrix, got shape {a.shape}")
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    diag = np.diagonal(chol)
    if not np.all(diag > 0) or not np.all(np.isfinite(diag)):
        return None
    return float(2.0 * np.log(diag).sum())


def ks_statistic(samples: Sequence[float] | np.ndarray, cdf: Callable[[float], float]) -> float:
    """Kolmogorov-Smirnov statistic sup_x |F_empirical(x) - cdf(x)|.

    Evaluated at the sorted sample points, which is where the supremum of the
    difference against a step function is attained.
    """
    xs = np.sort(np.asarray(samples, dtype=float).ravel())
    n = xs.size
    if n == 0:
        raise ValueError("ks_statistic requires a nonempty sample set")
    f = np.array([float(cdf(x)) for x in xs])
    steps = np.arange(1, n + 1, dtype=float) / n
    d_plus = float(np.max(steps - f))
    d_minus = float(np.max(f - (steps - 1.0 / n)))
    return max(d_plus, d_minus, 0.0)
