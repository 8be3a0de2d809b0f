"""Cyclotomic polynomials and exact arithmetic in Z[zeta_M]."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfish.cyclotomic import CycInt, _phi_coeffs, _reduce, cyc_eval
from qfish.series import IntSeries, NotPolynomialError
from test_series import poly_divides


def cyclotomic_poly(m: int) -> IntSeries:
    """Phi_M as an exact integer polynomial."""
    return IntSeries.make(0, _phi_coeffs(m), None)


def poly(*coeffs, min_exp=0):
    return IntSeries.make(min_exp, coeffs)


@lru_cache(maxsize=None)
def phi_by_division(m):
    """Oracle (the recursion _phi_coeffs replaced): x^M - 1 divided
    exactly by Phi_d for every proper divisor d of M."""
    poly = IntSeries.make(0, [-1] + [0] * (m - 1) + [1])
    for d in range(1, m):
        if m % d == 0:
            wit = poly_divides(IntSeries.make(0, phi_by_division(d)), poly)
            assert wit.divides
            poly = wit.quotient
    return poly.coeffs


class TestCyclotomicPoly:
    @pytest.mark.parametrize("m", range(1, 200))
    def test_moebius_product_matches_division(self, m):
        assert _phi_coeffs(m) == phi_by_division(m)

    def test_small_cases(self):
        assert cyclotomic_poly(1) == poly(-1, 1)
        assert cyclotomic_poly(4) == poly(1, 0, 1)  # divide x^4-1 by (x-1)(x+1)
        assert cyclotomic_poly(6) == poly(1, -1, 1)

    @pytest.mark.parametrize("m", range(1, 25))
    def test_divisor_product_is_xm_minus_one(self, m):
        prod = IntSeries.one()
        for d in range(1, m + 1):
            if m % d == 0:
                prod = prod * cyclotomic_poly(d)
        expect = IntSeries.make(0, [-1] + [0] * (m - 1) + [1])
        assert prod == expect

    def test_degree_is_euler_phi(self):
        def phi(n):
            return sum(1 for k in range(1, n + 1) if _gcd(k, n) == 1)

        for m in range(1, 20):
            assert cyclotomic_poly(m).degree == phi(m)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


class TestCycInt:
    def test_full_orbit_sums_to_zero(self):
        val = cyc_eval(poly(1, 1, 1, 1), 4)
        assert val.is_zero()

    def test_exponent_reduction(self):
        assert cyc_eval(IntSeries.monomial(5), 4) == CycInt.root_power(4, 1)

    def test_negative_exponent(self):
        # zeta_3^-1 = zeta_3^2 = -1 - zeta_3 mod Phi_3
        assert cyc_eval(IntSeries.monomial(-1), 3).coeffs == (-1, -1)

    def test_truncated_input_rejected(self):
        with pytest.raises(NotPolynomialError):
            cyc_eval(IntSeries.make(0, [1, 1], 5), 4)

    @pytest.mark.parametrize("call", [
        lambda: cyc_eval(IntSeries.one(), 0),
        lambda: cyc_eval(IntSeries.one(), -3),
        lambda: CycInt.root_power(0, 1),
    ])
    def test_level_below_one_rejected(self, call):
        with pytest.raises(ValueError, match="M must be >= 1"):
            call()

    def test_root_power_order(self):
        z = CycInt.root_power(12, 1)
        acc = CycInt.integer(12, 1)
        for _ in range(12):
            acc = acc * z
        assert acc == CycInt.integer(12, 1)

    laurent = st.builds(
        lambda min_exp, coeffs: IntSeries.make(min_exp, coeffs),
        st.integers(-5, 5),
        st.lists(st.integers(-6, 6), max_size=6),
    )

    @given(laurent, laurent, st.integers(1, 12))
    @settings(max_examples=120, deadline=None)
    def test_ring_homomorphism(self, p, r, m):
        lhs = cyc_eval(p * r, m)
        rhs = cyc_eval(p, m) * cyc_eval(r, m)
        assert lhs == rhs
        assert cyc_eval(p + r, m) == cyc_eval(p, m) + cyc_eval(r, m)

    @given(st.integers(-40, 40), st.lists(st.integers(-2**70, 2**70), max_size=80),
           st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_eval_equals_the_coefficient_loop(self, min_exp, coeffs, m):
        # cyc_eval takes one slice sum per residue class; the oracle adds
        # each coefficient into its class mod M
        p = IntSeries.make(min_exp, coeffs)
        acc = [0] * m
        for i, c in enumerate(p.coeffs):
            acc[(p.min_exp + i) % m] += c
        assert cyc_eval(p, m) == CycInt(m, _reduce(acc, m))

    @pytest.mark.parametrize("m", [1, 2, 7, 12, 30])
    def test_bigint_product(self, m):
        # coefficients past int64 take the kernel's object lane
        p = poly(*[(-3) ** (45 + i) for i in range(2 * m)])
        r = poly(*[2**70 - i for i in range(m + 1)], min_exp=-2)
        assert cyc_eval(p, m) * cyc_eval(r, m) == cyc_eval(p * r, m)

    @pytest.mark.parametrize("value,text", [
        (CycInt(5, (1, -2, 0, 3)), "1 + -2*z + 3*z^3"),
        (CycInt(5, (-1, 0, 1, 1)), "-1 + 1*z^2 + 1*z^3"),
        (CycInt(4, (0, 1)), "1*z"),
        (CycInt(6, (0, -1)), "-1*z"),
        (CycInt.zero(4), "0"),
    ], ids=["mixed", "z_powers", "z", "minus_z", "zero"])
    def test_str(self, value, text):
        assert str(value) == text
