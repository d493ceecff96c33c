"""Samplers for Gaussian matrices, Haar-orthogonal submatrices, the coupled
pair built by column-wise Gram-Schmidt, and the bidiagonal model of a
Gaussian block's Gram spectrum.

All but the last, and the coupled Hilbert-Schmidt statistic, read one kernel.
Gram-Schmidt on the columns of an n x q Gaussian Y is its QR with R pinned
to a positive diagonal, and a Haar corner is the top p rows of that Q.  As
Y'Y = Y_top'Y_top + Y_bot'Y_bot, the n - p bottom rows may be replaced by
any independent B with B'B ~ Wishart_q(n - p); one reduced QR of the stack
[Y_top; B] then gives (Y_top, R) in the joint law of the full draw, exactly,
at O(pq^2 + q^3) time and memory whatever n is.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import RngStream

__all__ = [
    "Dims",
    "sample_gaussian_matrix",
    "sample_haar_submatrix",
    "sample_coupled_pair",
    "sample_bidiagonal",
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
    def canonical(self) -> tuple[int, int]:
        """(p, q) oriented so that q <= p, the side of the smaller Gram
        matrix; the corner's density is symmetric under transposing it."""
        return (self.p, self.q) if self.q <= self.p else (self.q, self.p)

    @property
    def coupling_sigma(self) -> float:
        """pq^2/n, the scale parameter of the coupled Euclidean distance."""
        return self.p * self.q * self.q / self.n


def sample_gaussian_matrix(rows: int, cols: int, stream: RngStream) -> np.ndarray:
    """rows x cols matrix of i.i.d. standard normal entries."""
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be >= 1, got {rows} x {cols}")
    return stream.standard_normal((rows, cols))


def _wishart_rows(rows: int, q: int, stream: RngStream) -> np.ndarray:
    """B with B'B ~ Wishart_q(rows): for rows >= q the upper Bartlett factor,
    B_ii = sqrt(chi^2_{rows-i}) and N(0, 1) above the diagonal (Bartlett 1933;
    Muirhead 1982, Thm 3.2.14), else the rows x q Gaussian itself."""
    if rows < q:
        return stream.standard_normal((rows, q))
    b = np.diag(np.sqrt(stream.chi_square(rows - np.arange(q))))
    b[~np.tri(q, dtype=bool)] = stream.standard_normal(q * (q - 1) // 2)
    return b


def _haar_factor(y_top: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The top rows of Q, a Haar corner Y_top R^-1, and the positive-diagonal
    R of [y_top; b] = QR.  Q comes from one reduced Householder QR, so square
    corners are orthogonal to rounding.  A pivot R_kk below ``PIVOT_TOL`` (a
    probability-zero event for Gaussian columns) or not a number, as from a
    NaN anywhere in the stack, raises ``RuntimeError``."""
    qmat, r = np.linalg.qr(np.vstack((y_top, b)))
    signs = np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    r *= signs[:, None]
    pivots = np.diagonal(r)
    if not pivots.min() >= PIVOT_TOL:
        k = int(np.argmin(pivots))
        raise RuntimeError(
            f"Gram-Schmidt pivot {pivots[k]:.3e} below {PIVOT_TOL:.1e} at column {k}"
        )
    return qmat[: len(y_top)] * signs, r


def _haar_rows(d: Dims, stream: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """The p x q Gaussian Y_top, then the Wishart rows B standing in for Y_bot."""
    y_top = stream.standard_normal((d.p, d.q))
    return y_top, _wishart_rows(d.n - d.p, d.q, stream)


def gram_schmidt_coupling(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt on the columns of y as its positive-diagonal QR, (Q, R):
    column k's residual has length R_kk and its projection onto the previous
    columns is Q triu(R, 1) e_k.  A pivot below ``PIVOT_TOL`` raises
    ``RuntimeError``."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"expected a 2-d array of columns, got shape {y.shape}")
    n, q = y.shape
    if q > n:
        raise ValueError(f"cannot orthonormalize {q} columns in dimension {n}")
    return _haar_factor(y, np.empty((0, q)))


def sample_haar_submatrix(d: Dims, stream: RngStream) -> np.ndarray:
    """p x q upper-left block of an n x n Haar-invariant orthogonal matrix.

    Gram-Schmidt on the columns of an n x q Gaussian, i.e. QR with R pinned
    to a positive diagonal (plain QR is not Haar distributed), run on the
    stack [Y_top; B] of the module docstring.
    """
    return _haar_factor(*_haar_rows(d, stream))[0]


def sample_coupled_pair(d: Dims, stream: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Draw the coupled pair of p x q blocks (Gaussian Y_top, Haar corner) on
    one probability space via Gram-Schmidt on shared Gaussian columns."""
    y_top, b = _haar_rows(d, stream)
    return y_top, _haar_factor(y_top, b)[0]


def sample_bidiagonal(d: Dims, count: int, stream: RngStream) -> np.ndarray:
    """``count`` independent draws of the squared entries of the upper
    bidiagonal B whose B'B has, in law, the spectrum of the Gram matrix of a
    p x q Gaussian block (Golub-Kahan; Silverstein 1985; Dumitriu & Edelman
    2002), as a ``(count, 2q - 1)`` array from one ``chi_square`` call.

    With p >= q after swapping the two sides, the columns are
    B_ii^2 ~ chi^2_{p-i+1} for i = 1..q, then B_{i,i+1}^2 ~ chi^2_{q-i} for
    i = 1..q-1.
    """
    p, q = d.canonical
    df = np.concatenate((p - np.arange(q), q - 1 - np.arange(q - 1)))
    return stream.chi_square(np.broadcast_to(df, (count, 2 * q - 1)))


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
