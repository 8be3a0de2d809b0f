"""q-Pochhammer, Gaussian binomials, characters, partial thetas, products."""

import pytest

from math import isqrt

from qfish.qseries import (
    PeriodicChar,
    ThetaSpec,
    binom_row_trunc,
    chi_t,
    mean_value_zero,
    partial_theta,
    quintiple_sides,
    theta_spec_t,
    torus_product,
)
from qfish.series import IntSeries, first_difference, int_arg
from test_series import poly_divides


def pochhammer(base_exp: int, n: int, out_order: int | None = None) -> IntSeries:
    """(q^base_exp; q)_n = prod_{k=1..n} (1 - q^(base_exp+k-1)).

    base_exp may be <= 0, giving a Laurent polynomial; for base_exp = 1-N
    and n >= N the factor (1 - q^0) makes the product identically zero.
    ``out_order`` None returns the exact polynomial, else it is >= 1.
    """
    base_exp, n = int_arg(base_exp, "base_exp"), int_arg(n, "n", 0)
    out_order = None if out_order is None else int_arg(out_order, "out_order", 1)
    acc = IntSeries.one(out_order)
    for k in range(1, n + 1):
        e = base_exp + k - 1
        if e == 0:
            return IntSeries.zero(out_order)
        acc = acc - acc.shift(e)
    return acc


def q_binomial(n: int, k: int) -> IntSeries:
    """The Gaussian binomial coefficient as an exact polynomial.

    Zero when k < 0 or k > n (in particular for any k >= 0 when n < 0),
    matching the vanishing conventions the multisum engines rely on.  As
    [n, k] = [n, n-k], the row is built to column min(k, n-k) only.
    """
    n, k = int_arg(n, "n"), int_arg(k, "k")
    if k < 0 or k > n:
        return IntSeries.zero()
    return IntSeries.make(0, binom_row_trunc(n, min(k, n - k), n * n // 4 + 1)[-1], None)


def poly(*coeffs, min_exp=0, order=None):
    return IntSeries.make(min_exp, coeffs, order)


class TestPochhammer:
    def test_qq3(self):
        assert pochhammer(1, 3) == poly(1, -1, -1, 0, 1, 1, -1)

    def test_vanishes_at_unity_factor(self):
        assert pochhammer(1 - 2, 2).is_zero()

    def test_empty_product(self):
        assert pochhammer(1, 0) == IntSeries.one()

    def test_laurent_base(self):
        got = pochhammer(-1, 2)  # (1 - q^-1)(1 - 1) = 0
        assert got.is_zero()
        got = pochhammer(-2, 2)  # (1 - q^-2)(1 - q^-1)
        one_minus = lambda e: IntSeries.one() - IntSeries.monomial(e)
        assert got == one_minus(-2) * one_minus(-1)


class TestQBinomial:
    def test_four_choose_two(self):
        # oracle: expand (q)_4 / ((q)_2 (q)_2) by exact division
        num = pochhammer(1, 4)
        den = pochhammer(1, 2) * pochhammer(1, 2)
        wit = poly_divides(den, num)
        assert wit.divides and wit.unit_exp == 0
        assert q_binomial(4, 2) == wit.quotient
        assert q_binomial(4, 2) == poly(1, 1, 2, 1, 1)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_empty_selection(self, n):
        assert q_binomial(n, 0) == IntSeries.one()

    def test_out_of_range(self):
        assert q_binomial(1, 2).is_zero()
        assert q_binomial(3, -1).is_zero()
        assert q_binomial(-2, 0).is_zero()
        assert q_binomial(-2, 1).is_zero()

    @pytest.mark.parametrize("n", range(0, 13))
    def test_symmetry_degree_positivity(self, n):
        for k in range(0, n + 1):
            b = q_binomial(n, k)
            assert b == q_binomial(n, n - k)
            assert all(c >= 0 for c in b.coeffs)
            assert b.degree == k * (n - k)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_q_pascal(self, n):
        for k in range(0, n + 1):
            rhs = q_binomial(n - 1, k - 1) + q_binomial(n - 1, k).shift(k)
            assert q_binomial(n, k) == rhs

    @pytest.mark.parametrize("n,k", [(5, 2), (8, 3), (10, 5)])
    def test_division_oracle(self, n, k):
        wit = poly_divides(pochhammer(1, n - k) * pochhammer(1, k), pochhammer(1, n))
        assert wit.divides
        assert q_binomial(n, k) == wit.quotient


def _pascal_oracle(n):
    """Exact rows [n, 0..n] by the q-Pascal rule [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    rows = [[1]]
    for top in range(1, n + 1):
        nxt = []
        for k in range(top + 1):
            left = rows[k - 1] if k >= 1 else []
            right = rows[k] if k < top else []
            out = [0] * max(len(left), k + len(right) if right else 0)
            for i, c in enumerate(left):
                out[i] += c
            for i, c in enumerate(right):
                out[k + i] += c
            nxt.append(out)
        rows = nxt
    return rows


class TestBinomRowTrunc:
    @pytest.mark.parametrize("n", range(0, 15))
    def test_against_pascal_oracle(self, n):
        exact = _pascal_oracle(n)
        for jmax in sorted({0, 1, n // 2, n, n + 3}):
            for length in sorted({1, 2, 5, n * n // 4 + 1}):
                got = binom_row_trunc(n, jmax, length)
                assert len(got) == min(jmax, n) + 1
                for j, row in enumerate(got):
                    assert list(row) == exact[j][:length]


class TestChi:
    def test_t2_values(self):
        c = chi_t(2)
        assert c.period == 24
        assert c(5) == 1 and c(19) == 1 and c(11) == -1 and c(13) == -1
        assert c(6) == 0

    def test_t3_support(self):
        c = chi_t(3)
        assert c.period == 48
        assert {r for r in range(48) if c(r) == 1} == {13, 35}
        assert {r for r in range(48) if c(r) == -1} == {19, 29}

    def test_t1_is_conductor_12_character(self):
        c = chi_t(1)
        assert c.period == 12
        assert {r for r in range(12) if c(r) == 1} == {1, 11}
        assert {r for r in range(12) if c(r) == -1} == {5, 7}

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_exactly_four_support_points(self, t):
        c = chi_t(t)
        vals = [c(r) for r in range(c.period)]
        assert vals.count(1) == 2 and vals.count(-1) == 2


class TestThetaSpec:
    def test_parameters(self):
        s2 = theta_spec_t(2, 0)
        assert (s2.a, s2.b) == (25, 48)
        s3 = theta_spec_t(3, 1)
        assert (s3.a, s3.b) == (169, 96)

    def test_integral_exponent_example(self):
        assert theta_spec_t(2, 0).exponent(11) == 2

    @pytest.mark.parametrize("t", [2.0, True])
    def test_non_integer_t_refused(self, t):
        with pytest.raises(TypeError):
            theta_spec_t(t, 0)

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_support_condition_over_period(self, t):
        spec = theta_spec_t(t, 0)
        for n in range(spec.char.period):
            if spec.char(n):
                assert (n * n - spec.a) % spec.b == 0


class TestPartialTheta:
    def test_t2_nu1_order_18(self):
        # enumerate n = 5, 11, 13, 19, 29 by hand
        got = partial_theta(theta_spec_t(2, 1), 18)
        assert got == poly(5, 0, -11, -13, 0, 0, 0, 19, *([0] * 9), 29, order=18)

    def test_t2_nu0_order_8(self):
        assert partial_theta(theta_spec_t(2, 0), 8) == poly(1, 0, -1, -1, 0, 0, 0, 1, order=8)

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_constant_term(self, t):
        # the first support point n0 = 2^(t+1) - 3 has exponent 0 and sign +1
        got = partial_theta(theta_spec_t(t, 0), 2)
        assert got.coeff(0) == 1

    def test_oracle_brute_force(self):
        spec = theta_spec_t(3, 1)
        order = 40
        acc = {}
        for n in range(0, spec.char.period * 10):
            c = spec.char(n)
            if c and (n * n - spec.a) // spec.b < order:
                e = (n * n - spec.a) // spec.b
                acc[e] = acc.get(e, 0) + c * n
        got = partial_theta(spec, order)
        for e in range(order):
            assert got.coeff(e) == acc.get(e, 0)


class TestThetaTerms:
    """ThetaSpec.terms walks the support progressions of chi; it must yield
    exactly what a scan of every n with n^2 < a + b * out_order finds."""

    @staticmethod
    def scan(spec, out_order):
        out = []
        for n in range(isqrt(spec.a + spec.b * out_order) + 1):
            if spec.char(n) and spec.exponent(n) < out_order:
                out.append((n, spec.char(n), spec.exponent(n)))
        return out

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("nu", [0, 1])
    def test_equals_scan(self, t, nu):
        spec = theta_spec_t(t, nu)
        for out_order in (1, 2, 7, 60, 200):
            assert sorted(spec.terms(out_order)) == self.scan(spec, out_order)

    def test_generic_spec(self):
        # the conductor-8 character with (n^2 - 1)/8
        spec = ThetaSpec(1, 8, 0, PeriodicChar(8, (0, 1, 0, -1, 0, -1, 0, 1)))
        assert sorted(spec.terms(4)) == [(1, 1, 0), (3, -1, 1), (5, -1, 3)]
        for out_order in (1, 5, 50, 300):
            assert sorted(spec.terms(out_order)) == self.scan(spec, out_order)


class TestMeanValueZero:
    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", range(1, 13))
    def test_grid(self, t, m):
        assert mean_value_zero(theta_spec_t(t, 0), m)

    def test_integer_cancellation(self):
        # M = 1: plain signs cancel over one period
        assert mean_value_zero(theta_spec_t(2, 0), 1)


class TestTorusProduct:
    def test_t2_order_11(self):
        got = torus_product(2, 11)
        assert got == poly(1, 0, -1, -1, 0, 0, 0, 1, 0, 0, 0, order=11)

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_constant_term(self, t):
        assert torus_product(t, 3).coeff(0) == 1

    @pytest.mark.parametrize("t", [2, 3])
    def test_equals_partial_theta_to_60(self, t):
        lhs = partial_theta(theta_spec_t(t, 0), 60)
        assert first_difference(lhs, torus_product(t, 60)) is None

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    def test_is_the_quintiple_product_side(self, t):
        for order in (1, 2, 17, 90):
            assert torus_product(t, order) == quintiple_sides(2 ** (t + 1), 2**t - 1, order)[1]

    def test_t2_naive_product_oracle(self):
        order = 30
        naive = IntSeries.one(order)
        for e in list(range(3, order, 8)) + list(range(5, order, 8)) + \
                list(range(8, order, 8)) + list(range(2, order, 16)) + \
                list(range(14, order, 16)):
            naive = naive - naive.shift(e)
        assert torus_product(2, order) == naive


class TestQuintuple:
    @pytest.mark.parametrize("t,order", [(2, 30), (3, 50)])
    def test_sides_agree(self, t, order):
        lhs, rhs = quintiple_sides(2 ** (t + 1), 2**t - 1, order)
        assert first_difference(lhs, rhs) is None

    def test_k0_term(self):
        lhs, _ = quintiple_sides(8, 3, 4)
        # k = 0 contributes 1 - q^3; k = +-1 terms start at exponent >= 4
        assert lhs.coeff(0) == 1 and lhs.coeff(3) == -1

    def test_unbounded_rejected(self):
        with pytest.raises(ValueError):
            quintiple_sides(0, 3, 10)
        with pytest.raises(ValueError):
            quintiple_sides(4, 9, 10)  # q - 2x exponent would be negative
