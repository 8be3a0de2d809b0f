"""Exact series arithmetic: windows, units, substitution, named products."""

from fractions import Fraction
from itertools import accumulate
from operator import neg

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfish import cyclotomic, series
from qfish.cyclotomic import cyc_eval
from qfish.qseries import quintiple_sides, torus_product
from qfish.series import (
    IntSeries,
    NotPolynomialError,
    Record,
    TruncationError,
    divisor_sum_series,
    euler_product,
    exact_over_one_minus_qk,
    first_difference,
    int_arg,
    one_minus_q_power,
    over_one_minus_qk,
    progression_product,
    require,
    times_one_minus_qk,
)


def invert_unit(a, out_order=None):
    """Oracle: the multiplicative inverse of a unit of Z[[q]] on its window,
    by the generic O(n^2) recurrence the package once used for every
    1/(q)_j and (1-q)^(-e).  Needs min_exp 0 and constant coefficient +-1
    (the only units whose inverses stay integral)."""
    order = a.order if out_order is None else out_order
    if order is None:
        raise ValueError("invert_unit needs a truncation order")
    if a.min_exp != 0 or not a.coeffs or a.coeffs[0] not in (1, -1):
        raise ValueError("series is not a unit over the integers (constant term must be +-1)")
    if order < 1:
        raise ValueError("out_order must be >= 1")
    c0 = a.coeffs[0]
    out = [0] * order
    out[0] = c0
    for k in range(1, order):
        s = 0
        for i in range(1, min(k, len(a.coeffs) - 1) + 1):
            s += a.coeffs[i] * out[k - i]
        out[k] = -c0 * s
    return IntSeries.make(0, out, order)


class DivisionWitness(Record):
    """``quotient`` is h with p = d * h * q**unit_exp, or None; ``remainder``
    is set when ``divides`` is False."""

    __slots__ = ("divides", "quotient", "unit_exp", "remainder")


def poly_divides(d, p):
    """Oracle: does d divide p up to a monomial unit q**k?

    The general fraction-free pseudo-division the package once used to test
    (q)_lambda-divisibility of dissection pieces.  True iff p = d * h * q**k
    with h an integer polynomial and k an integer; returns the witness
    (h, k), or the division remainder when the answer is no: zero when d
    divides p over Q[q] only, else a nonzero rational multiple of the
    remainder over Q[q]."""
    if d.order is not None or p.order is not None:
        raise NotPolynomialError("poly_divides operates on exact polynomials")
    if d.is_zero():
        raise ValueError("divisor must be nonzero")
    if p.is_zero():
        return DivisionWitness(True, IntSeries.zero(), 0, None)
    unit = p.min_exp - d.min_exp
    den = d.coeffs
    lead = den[-1]
    # scaled by lead**k, k the number of quotient terms, every step divides
    # exactly and the quotient and remainder are lead**k times those over Q
    scale = lead ** max(len(p.coeffs) - len(den) + 1, 0)
    rem = [c * scale for c in p.coeffs]
    quo = [0] * max(len(rem) - len(den) + 1, 0)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + len(den) - 1] // lead
        quo[i] = c
        if c:
            for j, dj in enumerate(den):
                rem[i + j] -= c * dj
    if any(rem):
        return DivisionWitness(False, None, unit, IntSeries.make(p.min_exp, rem, None))
    if any(c % scale for c in quo):
        # divisible over Q[q] but the quotient is not integral
        return DivisionWitness(False, None, unit, IntSeries.zero())
    return DivisionWitness(True, IntSeries.make(0, [c // scale for c in quo], None), unit, None)


def substitute_one_minus_q(a: IntSeries, out_order: int) -> IntSeries:
    """Composition a(1-q), expanded as a power series in q.

    Exact for polynomial content: every stored coefficient participates.
    Each Horner step in 1-q, and each factor of the (1-q)^min_exp prefactor,
    is a pass of ``times_one_minus_qk`` (or ``over_one_minus_qk``) at k = 1.
    """
    require(a, IntSeries, "a")
    out_order = int_arg(out_order, "out_order", 1)
    if a.order is not None and out_order > a.order:
        raise TruncationError(
            f"composition to order {out_order} needs input known to that order (have {a.order})"
        )
    if not a.coeffs:
        return IntSeries.zero(out_order)
    # a = q^min_exp * P(q); evaluate P at u = 1-q by Horner, then fix the
    # (1-q)^min_exp prefactor.
    acc = []
    for c in reversed(a.coeffs):
        if len(acc) < out_order:
            acc.append(0)  # the slot the product by 1-q grows into
        times_one_minus_qk(acc, 1)  # acc <- acc * (1-q) + c
        acc[0] += c
    acc += [0] * (out_order - len(acc))
    step = times_one_minus_qk if a.min_exp > 0 else over_one_minus_qk
    for _ in range(abs(a.min_exp)):
        step(acc, 1)
    return IntSeries.make(0, acc, out_order)


def poly(*coeffs, min_exp=0, order=None):
    return IntSeries.make(min_exp, coeffs, order)


small_series = st.builds(
    lambda min_exp, coeffs: IntSeries.make(min_exp, coeffs),
    st.integers(-4, 4),
    st.lists(st.integers(-9, 9), max_size=7),
)


def _add_loop(self, other, sign):
    """Oracle: IntSeries.__add__ as it was, one Python step per coefficient."""
    order = series._min_order(self.order, other.order)
    if not self.coeffs:
        return (other if sign > 0 else -other).truncate(order)
    if not other.coeffs:
        return self.truncate(order)
    lo = min(self.min_exp, other.min_exp)
    hi = max(self.min_exp + len(self.coeffs), other.min_exp + len(other.coeffs))
    if order is not None:
        hi = min(hi, order)
    out = [0] * (hi - lo)
    for src, sg in ((self, 1), (other, sign)):
        cs = src.coeffs[:max(hi - src.min_exp, 0)]
        for i, c in enumerate(cs if sg > 0 else map(neg, cs), src.min_exp - lo):
            out[i] += c
    return IntSeries.make(lo, out, order)


def _terms(s):
    """The nonzero coefficients of s by exponent."""
    return {s.min_exp + i: c for i, c in enumerate(s.coeffs) if c}


# windows near q^0, far apart (up to q^(+-300)), empty, exact or cut
wide_series = st.builds(
    lambda lo, coeffs, cut: IntSeries.make(lo, coeffs, None if cut is None else lo + cut),
    st.one_of(st.integers(-5, 5), st.integers(-300, 300)),
    st.lists(st.integers(-9, 9), max_size=6),
    st.one_of(st.none(), st.integers(-2, 8)),
)


def window_first_difference(a, b):
    """Oracle: first_difference as it was, comparing two dense windows.

    First exponent where a and b disagree on their common window.

    Returns None when equal there, else (exponent, a_coeff, b_coeff).
    """
    order = series._min_order(a.order, b.order)
    lo = min(a.min_exp, b.min_exp)
    hi = max(a.min_exp + len(a.coeffs), b.min_exp + len(b.coeffs))
    if order is not None:
        hi = min(hi, order)
    wa, wb = _window(a, lo, hi), _window(b, lo, hi)
    if wa == wb:
        return None
    i = next(i for i, (ca, cb) in enumerate(zip(wa, wb)) if ca != cb)
    return (lo + i, wa[i], wb[i])


def _window(a, lo, hi):
    """The coefficients of q^lo .. q^(hi - 1) in a, for lo <= a.min_exp."""
    k = min(a.min_exp, hi) - lo
    cs = a.coeffs[:hi - lo - k]
    return [0] * k + list(cs) + [0] * (hi - lo - k - len(cs))


class TestArith:
    def test_product_of_first_three_factors(self):
        # direct hand expansion of (1-q)(1-q^2)(1-q^3)
        prod = poly(1, -1) * poly(1, 0, -1) * poly(1, 0, 0, -1)
        assert prod == poly(1, -1, -1, 0, 1, 1, -1)

    def test_additive_identity(self):
        a = poly(3, 0, -2, min_exp=-1, order=4)
        assert a + IntSeries.zero() == a

    def test_shift(self):
        assert poly(1, 1).shift(-2) == poly(1, 1, min_exp=-2)

    @pytest.mark.parametrize("k", [-3, 0, 2])
    def test_shift_of_exact_zero_is_zero(self, k):
        assert IntSeries.zero().shift(k) == IntSeries.zero()
        assert IntSeries.zero(5).shift(k) == IntSeries.zero(5 + k)

    def test_mul_order_rule(self):
        a = poly(1, 2, order=4)           # window [0, 4)
        b = poly(1, 1, min_exp=2, order=5)  # window [2, 5)
        c = a * b
        assert c.order == min(4 + 2, 5 + 0)
        assert c.min_exp == 2

    @given(small_series, small_series, st.one_of(st.none(), st.integers(-3, 8)))
    @example(poly(1, 2, 3, 4, 5, 6, 7, min_exp=4), poly(1, 1), 1)
    @settings(max_examples=150, deadline=None)
    def test_add_is_coefficientwise(self, a, b, order):
        # a stays exact, so its window may start at or past b's order and
        # run longer than the window of the sum
        b = b.truncate(order) if order is not None else b
        s, d = a + b, a - b
        assert s.order == d.order == b.order
        for e in range(-6, 14 if order is None else order):
            assert s.coeff(e) == a.coeff(e) + b.coeff(e)
            assert d.coeff(e) == a.coeff(e) - b.coeff(e)

    @given(small_series, small_series, st.one_of(st.none(), st.integers(-6, 8)),
           st.one_of(st.none(), st.integers(-6, 8)))
    @example(IntSeries.zero(), poly(1, 2, min_exp=-3), None, None)
    @example(poly(4, min_exp=-4), IntSeries.zero(), -5, None)
    @settings(max_examples=200, deadline=None)
    def test_add_matches_coefficient_loop(self, a, b, order_a, order_b):
        a, b = a.truncate(order_a), b.truncate(order_b)
        assert a + b == _add_loop(a, b, 1)
        assert a - b == _add_loop(a, b, -1)
        assert b - a == _add_loop(b, a, -1)

    @given(wide_series, wide_series)
    @example(poly(1, min_exp=10**9), poly(1, 2, order=2))  # a window far past the order
    @example(poly(1, 2, order=2), poly(1, min_exp=10**9))
    @example(IntSeries.zero(), poly(3, min_exp=-300))
    @example(poly(3, min_exp=-300, order=-299), IntSeries.zero(4))
    @settings(max_examples=300, deadline=None)
    def test_add_sub_match_exponent_dict(self, a, b):
        order = series._min_order(a.order, b.order)
        for got, sign in ((a + b, 1), (a - b, -1)):
            want = _terms(a)
            for e, c in _terms(b).items():
                want[e] = want.get(e, 0) + sign * c
            assert _terms(got) == {e: c for e, c in want.items()
                                   if c and (order is None or e < order)}
            assert got.order == order
            # the normal form: a nonzero lead, and a cut window that ends at
            # the order (an exact zero sits at q^0)
            assert not got.coeffs or got.coeffs[0]
            if order is not None:
                assert got.min_exp + len(got.coeffs) == order
            elif not got.coeffs:
                assert got.min_exp == 0
            else:
                assert got.coeffs[-1]

    def test_orders_never_widen(self):
        a = poly(1, 1, order=3)
        b = poly(1, 1, order=9)
        assert (a + b).order == 3
        assert (a - b).order == 3

    def test_coeff_beyond_order_raises(self):
        a = poly(1, 1, order=2)
        with pytest.raises(TruncationError):
            a.coeff(2)

    @given(small_series, small_series, small_series)
    @settings(max_examples=150, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestKernelCalls:
    def test_one_call_on_stored_coeffs(self, monkeypatch):
        """Each product hands its stored coefficient tuples to one kernel call."""
        calls = []

        def recorder(kernel):
            def wrapped(a, b, n, *rest):
                calls.append((a, b, n))
                return kernel(a, b, n, *rest)
            return wrapped

        monkeypatch.setattr(series, "mul_trunc", recorder(series.mul_trunc))
        monkeypatch.setattr(cyclotomic, "mul_trunc", recorder(cyclotomic.mul_trunc))
        cases = [
            (poly(1, 2, 3, min_exp=-1), poly(4, 5), 4),  # exact: the full product
            (poly(1, 2, 3, order=3), poly(1, -1, min_exp=1, order=6), 3),  # order 4, lo 1
            (cyc_eval(poly(1, 2, 3, 4), 12), cyc_eval(poly(5, -6, 7), 12), 7),  # deg Phi_12 = 4
        ]
        for a, b, n in cases:
            calls.clear()
            a * b
            assert len(calls) == 1
            ka, kb, kn = calls[0]
            assert ka is a.coeffs and kb is b.coeffs and kn == n


class TestInvert:
    def test_geometric(self):
        inv = invert_unit(poly(1, -1, order=5))
        assert inv == poly(1, 1, 1, 1, 1, order=5)

    def test_identity(self):
        assert invert_unit(IntSeries.one(7)) == IntSeries.one(7)

    def test_fibonacci(self):
        # long division oracle: 1/(1 - q - q^2) has Fibonacci coefficients
        inv = invert_unit(poly(1, -1, -1, order=6))
        fib = [1, 1]
        while len(fib) < 6:
            fib.append(fib[-1] + fib[-2])
        assert list(inv.coeffs) == fib

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="not a unit"):
            invert_unit(poly(2, 1, order=4))
        with pytest.raises(ValueError, match="not a unit"):
            invert_unit(poly(1, 1, min_exp=1, order=4))

    @given(st.lists(st.integers(-5, 5), min_size=0, max_size=6),
           st.sampled_from([1, -1]))
    @settings(max_examples=80, deadline=None)
    def test_two_sided_inverse(self, tail, unit):
        a = IntSeries.make(0, [unit] + tail, 8)
        inv = invert_unit(a)
        assert a * inv == IntSeries.one(8)
        assert inv * a == IntSeries.one(8)


coeff_lists = st.lists(st.integers(-50, 50), max_size=24)


class TestOneMinusQk:
    """The list primitives every factor 1 - q^k goes through."""

    @given(coeff_lists, st.integers(1, 30))
    @settings(max_examples=150, deadline=None)
    def test_over_undoes_times(self, cs, k):
        work = list(cs)
        assert over_one_minus_qk(times_one_minus_qk(work, k), k) is work
        assert work == cs

    @given(coeff_lists, st.integers(1, 30))
    @settings(max_examples=150, deadline=None)
    def test_times_is_the_series_product(self, cs, k):
        n = len(cs)
        if not n:
            return
        got = times_one_minus_qk(list(cs), k)
        x = IntSeries.make(0, cs, n)
        assert IntSeries.make(0, got, n) == x - x.shift(k)

    @given(coeff_lists, st.integers(1, 30))
    @settings(max_examples=150, deadline=None)
    def test_over_agrees_with_unit_inverse(self, cs, k):
        n = len(cs)
        if not n:
            return
        got = over_one_minus_qk(list(cs), k)
        one = IntSeries.one(n)
        inverse = invert_unit(one - one.shift(k), n)
        assert IntSeries.make(0, got, n) == IntSeries.make(0, cs, n) * inverse

    @given(coeff_lists, st.integers(0, 10))
    @settings(max_examples=80, deadline=None)
    def test_k_past_the_window_is_the_identity(self, cs, extra):
        k = len(cs) + extra or 1
        for step in (times_one_minus_qk, over_one_minus_qk):
            assert step(list(cs), k) == cs

    @given(coeff_lists)
    @settings(max_examples=80, deadline=None)
    def test_over_at_k1_is_accumulate(self, cs):
        assert over_one_minus_qk(list(cs), 1) == list(accumulate(cs))

    @given(coeff_lists, st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_exact_division_undoes_times(self, cs, k):
        work = list(cs) + [0] * k
        assert exact_over_one_minus_qk(times_one_minus_qk(work, k), k)
        assert work == cs

    @given(coeff_lists, st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_exact_division_agrees_with_oracle(self, cs, k):
        d = IntSeries.make(0, [1] + [0] * (k - 1) + [-1])
        wit = poly_divides(d, IntSeries.make(0, cs))
        work = list(cs)
        assert exact_over_one_minus_qk(work, k) == wit.divides
        if wit.divides:
            assert IntSeries.make(0, work) == wit.quotient.shift(wit.unit_exp)
        else:
            assert work == over_one_minus_qk(list(cs), k)

    def test_geometric_and_pochhammer(self):
        assert over_one_minus_qk([1, 0, 0, 0, 0, 0, 0], 3) == [1, 0, 0, 1, 0, 0, 1]
        assert times_one_minus_qk(times_one_minus_qk([1, 0, 0, 0, 0], 1), 2) == [1, -1, -1, 1, 0]


class TestSubstitute:
    def test_degree_one(self):
        assert substitute_one_minus_q(poly(0, 1), 4) == poly(1, -1, order=4)

    def test_inverse_power(self):
        # q^-1 |-> (1-q)^-1 = geometric series
        assert substitute_one_minus_q(IntSeries.monomial(-1), 4) == poly(1, 1, 1, 1, order=4)

    def test_binomial_oracle(self):
        # 1 + (1-q) + (1-q)^2 = 3 - 3q + q^2
        assert substitute_one_minus_q(poly(1, 1, 1), 5) == poly(3, -3, 1, order=5)

    def test_out_order_beyond_window_rejected(self):
        with pytest.raises(TruncationError):
            substitute_one_minus_q(poly(1, 1, order=3), 5)

    @given(st.integers(-5, 5), st.lists(st.integers(-6, 6), max_size=6), st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_prefactor_against_unit_inverse(self, min_exp, coeffs, order):
        # (1-q)^e times the image of the q^e-free part, e < 0 through the oracle
        a = IntSeries.make(min_exp, coeffs)
        e = a.min_exp
        pref = one_minus_q_power(abs(e), order)
        if e < 0:
            pref = invert_unit(pref, order)
        body = substitute_one_minus_q(a.shift(-e), order)
        assert substitute_one_minus_q(a, order) == body * pref

    @given(st.integers(0, 3), st.lists(st.integers(-6, 6), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_involution_on_polynomials(self, min_exp, coeffs):
        # q -> 1-q is an involution of Z[q]; negative exponents leave the
        # polynomial ring and are excluded.
        a = IntSeries.make(min_exp, coeffs)
        order = (min_exp + len(coeffs) + 2) * 2
        twice = substitute_one_minus_q(substitute_one_minus_q(a, order), order)
        assert first_difference(twice, a) is None


class TestNamedSeries:
    def test_euler_product_order_13(self):
        assert euler_product(13) == poly(
            1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, order=13
        )

    def test_euler_product_order_1(self):
        assert euler_product(1) == IntSeries.one(1)

    def test_euler_order_6_direct_product(self):
        assert euler_product(6) == poly(1, -1, -1, 0, 0, 1, order=6)

    def test_euler_equals_pentagonal_expansion(self):
        # the pentagonal number theorem, the builder euler_product once had
        def pentagonal(order):
            out = [0] * order
            out[0] = 1
            k = 1
            while k * (3 * k - 1) // 2 < order:
                for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                    if e < order:
                        out[e] += -1 if k % 2 else 1
                k += 1
            return IntSeries.make(0, out, order)

        for order in range(1, 301):
            assert euler_product(order) == pentagonal(order), order

    def test_euler_equals_direct_product_every_order(self):
        for order in range(1, 61):
            direct = IntSeries.one(order)
            for k in range(1, order + 1):
                direct = direct - direct.shift(k)
            assert euler_product(order) == direct, order

    def test_divisor_sum(self):
        def d(n):
            return sum(1 for k in range(1, n + 1) if n % k == 0)

        s = divisor_sum_series(7)
        assert s.min_exp == 1  # the q^0 coefficient is zero
        assert [s.coeff(n) for n in range(7)] == [0] + [d(n) for n in range(1, 7)]
        assert d(1) == 1
        assert divisor_sum_series(13).coeff(12) == 6  # divisors 1,2,3,4,6,12

    def test_progression_product_matches_naive(self):
        pairs = [(2, 3), (1, 5)]
        order = 25
        naive = IntSeries.one(order)
        for start, step in pairs:
            e = start
            while e < order:
                naive = naive - naive.shift(e)
                e += step
        assert progression_product(pairs, order) == naive


@pytest.mark.parametrize("call", [
    lambda: invert_unit(IntSeries.one(5), 0),
    lambda: progression_product([(1, 1)], 0),
    lambda: torus_product(2, 0),
    lambda: quintiple_sides(8, 3, 0),
])
def test_out_order_below_one_rejected(call):
    with pytest.raises(ValueError, match="out_order must be >= 1"):
        call()


class TestPolyDivides:
    def test_constructed_multiple(self):
        d = poly(1, -1) * poly(1, 0, -1)
        p = d * poly(1, 5)
        wit = poly_divides(d, p)
        assert wit.divides and wit.quotient == poly(1, 5) and wit.unit_exp == 0

    def test_obvious_nondivisor(self):
        wit = poly_divides(poly(1, -1), poly(1, 1))
        assert not wit.divides
        assert wit.remainder is not None and not wit.remainder.is_zero()

    def test_laurent_unit(self):
        # q^-1 - 1 = (1 - q) * 1 * q^-1
        wit = poly_divides(poly(1, -1), poly(1, -1, min_exp=-1))
        assert wit.divides and wit.unit_exp == -1
        recon = poly(1, -1) * wit.quotient * IntSeries.monomial(wit.unit_exp)
        assert recon == poly(1, -1, min_exp=-1)

    def test_truncated_input_rejected(self):
        with pytest.raises(NotPolynomialError):
            poly_divides(poly(1, -1), poly(1, 1, order=5))

    def test_non_monic_divides_over_q_only(self):
        # 1 + q = (2 + 2q) * 1/2: a quotient over Q[q], none over Z[q]
        wit = poly_divides(poly(2, 2), poly(1, 1))
        assert not wit.divides and wit.quotient is None
        assert wit.remainder is not None and wit.remainder.is_zero()

    def test_non_monic_remainder_degree(self):
        d, p = poly(2, 3), poly(1, 0, 1)
        wit = poly_divides(d, p)
        assert not wit.divides and wit.quotient is None
        # long division over Q, coefficients listed lowest degree first
        rem = [Fraction(c) for c in p.coeffs]
        for i in range(len(rem) - len(d.coeffs), -1, -1):
            c = rem[i + len(d.coeffs) - 1] / d.coeffs[-1]
            for j, dj in enumerate(d.coeffs):
                rem[i + j] -= c * dj
        assert any(rem)
        rem_degree = max(e for e, c in enumerate(rem) if c)
        assert not wit.remainder.is_zero() and wit.remainder.degree == rem_degree

    @given(small_series, st.lists(st.integers(-4, 4), min_size=1, max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_product_always_divides(self, h, dcoeffs):
        d = IntSeries.make(0, dcoeffs)
        if d.is_zero():
            return
        p = d * h
        wit = poly_divides(d, p)
        assert wit.divides
        recon = d * wit.quotient * IntSeries.monomial(wit.unit_exp)
        assert recon == p


class TestFirstDifference:
    @given(wide_series, st.one_of(st.none(), wide_series), st.integers(-6, 6),
           st.integers(-2, 2))
    @settings(max_examples=300, deadline=None)
    def test_matches_window_comparison(self, a, other, e, c):
        # b is a itself, a moved by one monomial, or an unrelated series
        b = a + IntSeries.monomial(a.min_exp + e, c) if other is None else other
        assert first_difference(a, b) == window_first_difference(a, b)
        assert first_difference(b, a) == window_first_difference(b, a)

    def test_reports_both_coefficients(self):
        a, b = poly(1, 2, 3, order=5), poly(1, 2, 4, 9, min_exp=0)
        assert first_difference(a, b) == (2, 3, 4)
        assert first_difference(a, b.truncate(2)) is None


class TestFromTerms:
    @given(st.lists(st.tuples(st.integers(-5, 12), st.integers(-3, 3)), max_size=10),
           st.one_of(st.none(), st.integers(-2, 10)))
    @example([(2, 1), (2, -1)], None)  # cancelling
    @example([(3, 2), (-1, 4), (3, 5)], 4)  # repeated
    @example([(5, 1), (7, 2), (1, 1)], 5)  # at and past the order
    @example([(5, 1)], 5)
    @settings(max_examples=200, deadline=None)
    def test_matches_monomial_sum(self, terms, order):
        want = sum((IntSeries.monomial(e, c, order) for e, c in terms), IntSeries.zero(order))
        assert IntSeries.from_terms(terms, order) == want
        assert IntSeries.from_terms(iter(terms), order) == want


class TestWindowSemantics:
    def test_zero_window(self):
        z = IntSeries.zero(5)
        assert z.is_zero() and z.order == 5

    def test_normalization_strips_leading_zeros(self):
        a = IntSeries.make(0, [0, 0, 3], None)
        assert a.min_exp == 2 and a.coeffs == (3,)

    def test_truncate_never_widens(self):
        a = poly(1, 1, order=3)
        assert a.truncate(10).order == 3


class TestDisplay:
    @pytest.mark.parametrize("series,text", [
        (IntSeries.make(-2, [1, 0, -3, 1, 2]), "q^-2 - 3 + q + 2*q^2"),
        (IntSeries.make(0, [2, -1], 5), "2 - q + O(q^5)"),
        (IntSeries.make(-1, [1, 1], 3), "q^-1 + 1 + O(q^3)"),
        (IntSeries.zero(), "0"),
        (IntSeries.zero(4), "0 + O(q^4)"),
        (IntSeries.make(1, [-1, 0, 1]), "-q + q^3"),
        (IntSeries.make(0, [-1, 1]), "-1 + q"),
        (IntSeries.make(0, [-2], 3), "-2 + O(q^3)"),
        (IntSeries.make(3, [5]), "5*q^3"),
    ], ids=["laurent", "truncated", "truncated_laurent", "zero", "zero_truncated",
            "leading_minus_q", "leading_minus_one", "leading_minus_two", "monomial"])
    def test_str(self, series, text):
        assert str(series) == text
