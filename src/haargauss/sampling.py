"""Samplers for Gaussian matrices, Haar-orthogonal submatrices, and the
coupled pair built by column-wise Gram-Schmidt.

Only the first q columns of an orthogonal matrix are ever materialized: the
orthonormalized Gaussian columns are exactly those columns, so memory stays
O(nq) instead of O(n^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import RngStream

__all__ = [
    "Dims",
    "CoupledPair",
    "GramSchmidtResult",
    "sample_gaussian_matrix",
    "sample_haar_submatrix",
    "sample_coupled_pair",
    "gram_schmidt_coupling",
    "dump_matrix_csv",
    "load_matrix_csv",
]

# column pivot below this norm counts as a numerically degenerate draw
PIVOT_TOL = 1e-12


@dataclass(frozen=True)
class Dims:
    """Problem dimensions: an n x n orthogonal matrix and its p x q corner."""

    n: int
    p: int
    q: int

    def __post_init__(self) -> None:
        if not (1 <= self.p <= self.n):
            raise ValueError(f"require 1 <= p <= n, got p={self.p}, n={self.n}")
        if not (1 <= self.q <= self.n):
            raise ValueError(f"require 1 <= q <= n, got q={self.q}, n={self.n}")

    @property
    def distance_sigma(self) -> float:
        """pq/n, the scale parameter of the distance phase transition."""
        return self.p * self.q / self.n

    @property
    def coupling_sigma(self) -> float:
        """pq^2/n, the scale parameter of the coupled Euclidean distance."""
        return self.p * self.q * self.q / self.n


@dataclass(frozen=True)
class CoupledPair:
    """Top-left p x q blocks of a Gaussian matrix and of the orthogonal
    matrix obtained by Gram-Schmidt on the same Gaussian columns."""

    y_block: np.ndarray
    gamma_block: np.ndarray


@dataclass(frozen=True)
class GramSchmidtResult:
    """Orthonormalized columns plus the per-column intermediates.

    ``w`` holds the residual vectors before normalization (column k of ``w``
    is the component of Gaussian column k orthogonal to the previous
    orthonormal columns), and ``w_norms`` their lengths.  The projection of
    column k onto the span of the previous columns is ``y[:, k] - w[:, k]``.
    """

    y: np.ndarray
    q: np.ndarray
    w: np.ndarray
    w_norms: np.ndarray

    def projections(self) -> np.ndarray:
        return self.y - self.w


def sample_gaussian_matrix(rows: int, cols: int, stream: RngStream) -> np.ndarray:
    """rows x cols matrix of i.i.d. standard normal entries."""
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be >= 1, got {rows} x {cols}")
    return stream.standard_normal((rows, cols))


def gram_schmidt_coupling(y: np.ndarray) -> GramSchmidtResult:
    """Column-wise modified Gram-Schmidt with one conditional
    reorthogonalization pass.

    A second projection pass runs whenever a column loses more than a factor
    1/sqrt(2) of its pre-projection norm, which keeps the computed columns
    orthonormal to near machine precision while agreeing with the classical
    procedure in exact arithmetic.  A pivot below ``PIVOT_TOL`` (a
    probability-zero event for Gaussian columns) raises ``RuntimeError``.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"expected a 2-d array of columns, got shape {y.shape}")
    n, q = y.shape
    if q > n:
        raise ValueError(f"cannot orthonormalize {q} columns in dimension {n}")

    # work on contiguous rows: column slices of a row-major (n, q) array are
    # strided and an order of magnitude slower to project against
    yt = np.ascontiguousarray(y.T)
    qt = np.empty((q, n))
    wt = np.empty((q, n))
    w_norms = np.empty(q)
    for k in range(q):
        col = yt[k]
        pre_norm = float(np.linalg.norm(col))
        w = col.copy()
        for i in range(k):
            w -= (qt[i] @ w) * qt[i]
        if float(np.linalg.norm(w)) < pre_norm / math.sqrt(2.0):
            for i in range(k):
                w -= (qt[i] @ w) * qt[i]
        norm = float(np.linalg.norm(w))
        if norm < PIVOT_TOL:
            raise RuntimeError(
                f"Gram-Schmidt pivot {norm:.3e} below {PIVOT_TOL:.1e} at column {k}"
            )
        wt[k] = w
        w_norms[k] = norm
        qt[k] = w / norm
    return GramSchmidtResult(y=y, q=qt.T, w=wt.T, w_norms=w_norms)


def sample_haar_submatrix(d: Dims, stream: RngStream) -> np.ndarray:
    """p x q upper-left block of an n x n Haar-invariant orthogonal matrix.

    Draws an n x q Gaussian matrix and orthonormalizes its columns by
    sign-corrected QR.  Plain QR is not Haar distributed; flipping each
    column by the sign of the matching diagonal entry of R pins the
    factorization to positive diagonal and restores invariance.
    """
    q, r = np.linalg.qr(stream.standard_normal((d.n, d.q)))
    signs = np.sign(np.diagonal(r))
    signs = np.where(signs == 0.0, 1.0, signs)
    return (q * signs)[: d.p, :].copy()


def sample_coupled_pair(d: Dims, stream: RngStream) -> CoupledPair:
    """Draw the coupled pair of p x q blocks (Gaussian, Haar) on one
    probability space via Gram-Schmidt on shared Gaussian columns."""
    g = stream.standard_normal((d.n, d.q))
    result = gram_schmidt_coupling(g)
    return CoupledPair(
        y_block=result.y[: d.p, :].copy(),
        gamma_block=result.q[: d.p, :].copy(),
    )


def dump_matrix_csv(matrix: np.ndarray, path: str | Path) -> Path:
    """Write a dense matrix as CSV: header ``# rows cols``, row-major rows,
    17 significant digits per entry."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {matrix.shape}")
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"# {matrix.shape[0]} {matrix.shape[1]}\n")
        for row in matrix:
            fh.write(",".join(f"{v:.17g}" for v in row))
            fh.write("\n")
    return path


def load_matrix_csv(path: str | Path) -> np.ndarray:
    """Read a matrix written by :func:`dump_matrix_csv`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError(f"missing '# rows cols' header in {path}")
        rows, cols = (int(tok) for tok in header[1:].split())
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (rows, cols):
        raise ValueError(f"header says {rows}x{cols} but body is {data.shape}")
    return data
