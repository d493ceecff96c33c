"""Exact closed-form expectations as arbitrary-precision rationals.

Every formula is evaluated in big-integer rational arithmetic; several of
them cancel catastrophically in floating point once the matrix order grows,
so conversion to float happens only at the caller's boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Sequence

from .sampling import Dims

__all__ = [
    "MonomialPattern",
    "ChiSquareCentralStats",
    "WishartTraceStats",
    "SigmaTraceSums",
    "double_factorial",
    "dirichlet_moment",
    "entry_monomial_moment",
    "trace_power_moment",
    "chi_square_central_stats",
    "wishart_trace_stats",
    "sigma_trace_sums",
]


class MonomialPattern(Enum):
    """Monomials of entries of a Haar-orthogonal matrix with known exact mean.

    The set is closed: only the monomials with a proved closed form are
    listed, a general Weingarten calculus is out of scope.  Names encode the
    entry powers, e.g. G11SQ_G12SQ is the mean of entry(1,1)^2 * entry(1,2)^2;
    CYCLE4 and CYCLE6 are the alternating products around a 2x2 and 3x3 cycle.
    """

    G11_SQ = "g11_sq"
    G11_4 = "g11_4"
    G11SQ_G12SQ = "g11sq_g12sq"
    G11SQ_G22SQ = "g11sq_g22sq"
    CYCLE4 = "cycle4"
    TRIPLE_COL = "triple_col"
    CYCLE4_G23SQ = "cycle4_g23sq"
    G11SQ_G21SQ_G22SQ = "g11sq_g21sq_g22sq"
    CYCLE4_G22CUBE = "cycle4_g22cube"
    CYCLE6 = "cycle6"
    # single-column companions of the six-entry formulas, stated along the
    # way in the same derivations; exposed because the invariant suite and
    # the Dirichlet cross-checks want them
    G11SQ_G21SQ = "g11sq_g21sq"
    G11_4_G21SQ = "g11_4_g21sq"


def double_factorial(k: int) -> int:
    """(k)!! for odd k >= -1, with (-1)!! = 1 by convention."""
    if k < -1 or k % 2 == 0:
        raise ValueError(f"double_factorial expects an odd integer >= -1, got {k}")
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def dirichlet_moment(m: int, a: Sequence[int]) -> Fraction:
    """Mixed moment E(U_1^{a_1} ... U_m^{a_m}) of the squared coordinates of
    a uniform point on the unit sphere in R^m.

    Equals prod_i (2 a_i - 1)!! / prod_{i=1}^{a} (m + 2i - 2) with
    a = sum a_i.
    """
    if m < 2:
        raise ValueError(f"dirichlet_moment requires m >= 2, got {m}")
    a = list(a)
    if len(a) > m:
        raise ValueError(f"got {len(a)} exponents for {m} coordinates")
    if any(int(ai) != ai or ai < 0 for ai in a):
        raise ValueError("exponents must be non-negative integers")
    total = sum(int(ai) for ai in a)
    num = 1
    for ai in a:
        num *= double_factorial(2 * int(ai) - 1)
    den = 1
    for i in range(1, total + 1):
        den *= m + 2 * i - 2
    return Fraction(num, den)


# per pattern: the smallest matrix order at which its rows and columns are
# distinct, and its exact mean as a function of that order n
_ENTRY_MOMENTS: dict[MonomialPattern, tuple[int, Callable[[int], Fraction]]] = {
    MonomialPattern.G11_SQ: (2, lambda n: Fraction(1, n)),
    MonomialPattern.G11_4: (2, lambda n: Fraction(3, n * (n + 2))),
    MonomialPattern.G11SQ_G12SQ: (2, lambda n: Fraction(1, n * (n + 2))),
    MonomialPattern.G11SQ_G22SQ: (2, lambda n: Fraction(n + 1, n * (n - 1) * (n + 2))),
    MonomialPattern.CYCLE4: (2, lambda n: Fraction(-1, n * (n - 1) * (n + 2))),
    MonomialPattern.TRIPLE_COL: (3, lambda n: Fraction(1, n * (n + 2) * (n + 4))),
    MonomialPattern.CYCLE4_G23SQ: (3, lambda n: Fraction(-1, (n - 1) * n * (n + 2) * (n + 4))),
    MonomialPattern.G11SQ_G21SQ_G22SQ: (
        2,
        lambda n: Fraction(1, (n - 1) * n * (n + 2)) - Fraction(3, (n - 1) * n * (n + 2) * (n + 4)),
    ),
    MonomialPattern.CYCLE4_G22CUBE: (2, lambda n: Fraction(-3, (n - 1) * n * (n + 2) * (n + 4))),
    MonomialPattern.CYCLE6: (3, lambda n: Fraction(2, (n - 2) * (n - 1) * n * (n + 2) * (n + 4))),
    MonomialPattern.G11SQ_G21SQ: (2, lambda n: Fraction(1, n * (n + 2))),
    MonomialPattern.G11_4_G21SQ: (2, lambda n: Fraction(3, n * (n + 2) * (n + 4))),
}


def entry_monomial_moment(pattern: MonomialPattern, n: int) -> Fraction:
    """Exact mean of the given entry monomial for matrix order n."""
    min_n, formula = _ENTRY_MOMENTS[pattern]
    if n < min_n:
        raise ValueError(f"pattern {pattern.name} requires n >= {min_n}, got {n}")
    return formula(n)


def trace_power_moment(k: int, d: Dims) -> Fraction:
    """E tr[(Z'Z)^k] for the p x q Haar corner Z, k in {1, 2, 3}."""
    n, p, q = d.n, d.p, d.q
    if k == 1:
        return Fraction(p * q, n)
    if k == 2:
        bracket = Fraction(p + q + 1)
        if (p - 1) * (q - 1) != 0:
            bracket -= Fraction((p - 1) * (q - 1), n - 1)
        return Fraction(p * q, n * (n + 2)) * bracket
    if k == 3:
        first = Fraction(p * q, n * (n + 2) * (n + 4)) * (
            p * p + q * q + 3 * p * q + 3 * (p + q) + 4
        )
        second = Fraction(0)
        if (p - 1) * (q - 1) != 0:
            bracket = Fraction(-3 * (p + q))
            if (p - 2) * (q - 2) != 0:
                bracket += Fraction(2 * (p - 2) * (q - 2), n - 2)
            second = Fraction(p * q * (p - 1) * (q - 1), (n - 1) * n * (n + 2) * (n + 4)) * bracket
        return first + second
    raise ValueError(f"trace power k must be 1, 2 or 3, got {k}")


@dataclass(frozen=True)
class ChiSquareCentralStats:
    var: Fraction
    var_sq_centered: Fraction
    var_sq: Fraction
    third_central: Fraction
    fourth_central: Fraction


def chi_square_central_stats(m: int) -> ChiSquareCentralStats:
    """Exact central statistics of a chi-square variate with m degrees."""
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    return ChiSquareCentralStats(
        var=Fraction(2 * m),
        var_sq_centered=Fraction(8 * m * (m + 6)),
        var_sq=Fraction(8 * m * (m + 2) * (m + 3)),
        third_central=Fraction(8 * m),
        fourth_central=Fraction(12 * m * (m + 4)),
    )


@dataclass(frozen=True)
class WishartTraceStats:
    e_tr2: Fraction
    var_tr2: Fraction
    cov_tr_tr2: Fraction


def wishart_trace_stats(p: int, q: int) -> WishartTraceStats:
    """Exact mean/variance of tr[(X'X)^2] and its covariance with tr(X'X)
    for a p x q standard Gaussian matrix X."""
    if p < 1 or q < 1:
        raise ValueError(f"need p >= 1 and q >= 1, got p={p}, q={q}")
    return WishartTraceStats(
        e_tr2=Fraction(p * q * (p + q + 1)),
        var_tr2=Fraction(
            4 * p * p * q * q + 8 * p * q * (p + q) ** 2 + 20 * p * q * (p + q + 1)
        ),
        cov_tr_tr2=Fraction(4 * p * q * (p + q + 1)),
    )


@dataclass(frozen=True)
class SigmaTraceSums:
    sum_e_tr: Fraction
    sum_e_tr2: Fraction


def sigma_trace_sums(d: Dims) -> SigmaTraceSums:
    """Exact sums over j = 2..q of E tr[(S_{j-1})_p] and E tr[(S_{j-1})_p^2],
    where S_k is the rank-k projector onto the first k orthonormal columns
    and (.)_p keeps the top-left p x p block.  Both sums vanish for q = 1."""
    n, p, q = d.n, d.p, d.q
    if q == 1:
        return SigmaTraceSums(Fraction(0), Fraction(0))
    sum_e_tr = Fraction(p * q * (q - 1), 2 * n)
    sum_e_tr2 = Fraction(p * q * (q - 1) * (p + 2), 2 * n * (n + 2))
    if q > 2:
        sum_e_tr2 += Fraction(
            p * q * (q - 1) * (q - 2) * (n - p), 3 * n * (n - 1) * (n + 2)
        )
    return SigmaTraceSums(sum_e_tr=sum_e_tr, sum_e_tr2=sum_e_tr2)
