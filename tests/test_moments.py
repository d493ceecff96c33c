from fractions import Fraction

import pytest

from haargauss import (
    Dims,
    MonomialPattern,
    chi_square_central_stats,
    dirichlet_moment,
    double_factorial,
    entry_monomial_moment,
    sigma_trace_sums,
    trace_power_moment,
    wishart_trace_stats,
)

P = MonomialPattern


class TestDoubleFactorial:
    def test_values(self):
        assert double_factorial(-1) == 1
        assert double_factorial(1) == 1
        assert double_factorial(5) == 15
        assert double_factorial(9) == 945

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            double_factorial(4)


class TestDirichletMoment:
    def test_first_coordinate(self):
        for n in (2, 3, 10, 1000):
            assert dirichlet_moment(n, (1,)) == Fraction(1, n)

    def test_cross_moment_m2(self):
        assert dirichlet_moment(2, (1, 1)) == Fraction(1, 8)

    def test_cross_moment_m3(self):
        assert dirichlet_moment(3, (1, 1, 1)) == Fraction(1, 105)

    def test_total_mass(self):
        # the squared coordinates sum to one
        for m in (2, 5, 17):
            assert sum(dirichlet_moment(m, tuple(int(i == j) for i in range(m))) for j in range(m)) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            dirichlet_moment(1, (1,))
        with pytest.raises(ValueError):
            dirichlet_moment(3, (1, -1))
        with pytest.raises(ValueError):
            dirichlet_moment(3, (1, 1, 1, 1))


class TestEntryMonomials:
    def test_reference_values(self):
        assert entry_monomial_moment(P.G11_SQ, 4) == Fraction(1, 4)
        assert entry_monomial_moment(P.G11_4, 2) == Fraction(3, 8)
        assert entry_monomial_moment(P.CYCLE4, 3) == Fraction(-1, 30)
        assert entry_monomial_moment(P.CYCLE6, 3) == Fraction(1, 105)
        assert entry_monomial_moment(P.G11SQ_G12SQ, 3) == Fraction(1, 15)
        assert entry_monomial_moment(P.G11SQ_G22SQ, 3) == Fraction(4, 30)
        assert entry_monomial_moment(P.TRIPLE_COL, 3) == Fraction(1, 105)

    def test_rotation_angle_values_at_n2(self):
        # at order 2 the column is (cos t, sin t), t uniform: quadrature gives
        # E cos^4 = 3/8, E cos^4 sin^2 = 1/16, E cos^2 sin^2 = 1/8
        assert entry_monomial_moment(P.G11_4, 2) == Fraction(3, 8)
        assert entry_monomial_moment(P.G11SQ_G21SQ_G22SQ, 2) == Fraction(1, 16)
        assert entry_monomial_moment(P.CYCLE4_G22CUBE, 2) == Fraction(-1, 16)
        assert entry_monomial_moment(P.G11SQ_G21SQ, 2) == Fraction(1, 8)

    def test_minimum_order_enforced(self):
        for pattern in (P.TRIPLE_COL, P.CYCLE4_G23SQ, P.CYCLE6):
            with pytest.raises(ValueError):
                entry_monomial_moment(pattern, 2)

    @pytest.mark.parametrize("n", [2, 3, 7, 100, 10**4, 10**6])
    def test_row_normalization(self, n):
        assert n * entry_monomial_moment(P.G11_SQ, n) == 1

    @pytest.mark.parametrize("n", [2, 3, 7, 100, 10**4, 10**6])
    def test_fourth_moment_sum_rule(self, n):
        # multiply the unit-row identity by entry(1,1)^2 and take means
        lhs = entry_monomial_moment(P.G11_4, n) + (n - 1) * entry_monomial_moment(
            P.G11SQ_G12SQ, n
        )
        assert lhs == entry_monomial_moment(P.G11_SQ, n)

    @pytest.mark.parametrize("n", [2, 3, 7, 100, 10**4, 10**6])
    def test_orthogonality_sum_rule(self, n):
        lhs = n * entry_monomial_moment(P.G11SQ_G12SQ, n) + n * (n - 1) * entry_monomial_moment(
            P.CYCLE4, n
        )
        assert lhs == 0

    @pytest.mark.parametrize("n", [3, 4, 9, 50, 1000])
    def test_dirichlet_consistency(self, n):
        pairs = [
            (P.G11_SQ, (1,)),
            (P.G11_4, (2,)),
            (P.TRIPLE_COL, (1, 1, 1)),
            (P.G11SQ_G21SQ, (1, 1)),
            (P.G11_4_G21SQ, (2, 1)),
        ]
        for pattern, exponents in pairs:
            assert entry_monomial_moment(pattern, n) == dirichlet_moment(n, exponents)


class TestTracePowerMoment:
    def test_linear(self):
        assert trace_power_moment(1, Dims(10, 2, 3)) == Fraction(3, 5)

    def test_quadratic(self):
        assert trace_power_moment(2, Dims(10, 2, 3)) == Fraction(13, 45)

    @pytest.mark.parametrize("n", [3, 4, 10, 100, 10**4])
    def test_full_dimension_is_order(self, n):
        d = Dims(n, n, n)
        assert trace_power_moment(2, d) == n
        assert trace_power_moment(3, d) == n

    def test_degenerate_small_orders(self):
        # single entry: Z is +-1/sqrt(1), all powers have mean 1
        d = Dims(1, 1, 1)
        for k in (1, 2, 3):
            assert trace_power_moment(k, d) == 1

    def test_bad_power(self):
        with pytest.raises(ValueError):
            trace_power_moment(4, Dims(5, 2, 2))


class TestChiSquare:
    def test_central_stats(self):
        stats1 = chi_square_central_stats(1)
        assert stats1.var == 2
        assert stats1.var_sq_centered == 56
        assert stats1.third_central == 8
        assert stats1.fourth_central == 60
        stats2 = chi_square_central_stats(2)
        assert stats2.var_sq == 320

    def test_validation(self):
        with pytest.raises(ValueError):
            chi_square_central_stats(0)


class TestWishartTraceStats:
    def test_scalar_case(self):
        stats = wishart_trace_stats(1, 1)
        assert stats.e_tr2 == 3
        assert stats.var_tr2 == 96
        assert stats.cov_tr_tr2 == 12

    def test_reference_dims(self):
        stats = wishart_trace_stats(5, 4)
        assert stats.e_tr2 == 5 * 4 * 10
        assert stats.var_tr2 == 4 * 25 * 16 + 8 * 20 * 81 + 20 * 20 * 10


class TestSigmaTraceSums:
    def test_single_column_vanishes(self):
        sums = sigma_trace_sums(Dims(10, 3, 1))
        assert sums.sum_e_tr == 0
        assert sums.sum_e_tr2 == 0

    def test_two_columns(self):
        sums = sigma_trace_sums(Dims(10, 2, 2))
        assert sums.sum_e_tr == Fraction(1, 5)
        assert sums.sum_e_tr2 == Fraction(2 * 4, 10 * 12)

    def test_two_columns_matches_dirichlet_partial_sum(self):
        # sum of p squared coordinates of a uniform column, second moment
        for n, p in ((10, 2), (30, 7), (100, 40)):
            expected = p * dirichlet_moment(n, (2,)) + p * (p - 1) * dirichlet_moment(n, (1, 1))
            assert sigma_trace_sums(Dims(n, p, 2)).sum_e_tr2 == expected
