"""Fishburn coefficients, dissections, divisibility, and congruences."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfish.backend import mul_trunc
from qfish.fishburn import (
    S_set,
    _exact_div,
    _xi_from_lvalues,
    binom_congruence,
    congruence_j_range,
    dissection,
    divisibility_check,
    is_prime,
    straub_order_bound,
    verify_congruence,
    xi_coefficients,
    xi_lvalues,
    xi_series,
)
from qfish.oeis import parse_bfile
from qfish.qseries import q_binomial, theta_spec_t
from qfish.series import IntSeries, NotPolynomialError, one_minus_q_power, substitute_one_minus_q
from qfish.torus import _acc_mul, _sub_row, kz_partial_polynomials, torus_params

DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


# The retired two-pass builder, kept as an oracle for _sub_row: first the
# Gaussian binomial row at q -> 1-q by the Pascal rule, then the factors.
def _powers(top, count):
    """(1-q)^e cut below q^count for e = 0 .. top - 1, as lists."""
    return [list(one_minus_q_power(e, min(e + 1, count)).coeffs) for e in range(top)]


def _sub_pascal_row(prev, n, pw, count):
    """Row n of [n, k] at q -> 1-q, as pools [0, coeffs]:
    [n, k] = [n-1, k-1] + q^k [n-1, k], and q^k maps to (1-q)^k."""
    if n == 0:
        return [[0, [1]]]
    row = [[0, [1]]]
    for k in range(1, n):
        row.append(_acc_mul([0, list(prev[k - 1][1])], [0, pw[k]], prev[k], count))
    row.append([0, [1]])
    return row


def _sub_factors(row, order, pw):
    """(-1)^j (1-q)^C(j,2) row[j] cut below q^order."""
    out = []
    for j, (_, cs) in enumerate(row):
        prod = mul_trunc(pw[j * (j - 1) // 2], cs, order)
        out.append([-c for c in prod] if j & 1 else prod)
    return out


# The retired L-value engine, kept as an oracle for _xi_from_lvalues: the odd
# L-values from a power-series-division recurrence, xi from Stirling rows.  It
# holds for chi(0) = 0 only: otherwise the quotient below is odd only up to
# the constant -chi(0)/2, which the recurrence drops.
def _odd_lvalue_numerators(vals: tuple, count: int) -> list:
    """[T_1, T_3, .., T_(2 count - 1)] for chi(n) = vals[n mod P], P = len(vals).

    T_i = (i+1)! P^(i+1) R_i, where R_i = i! [z^i] of
    sum_{n=1..P} chi(n) e^(-nz) / (1 - e^(-Pz)), so L(-i, chi) = (-1)^i R_i.
    Multiplying the quotient back by (1 - e^(-Pz))/z gives the integer
    recurrence T_i = i! P^i N_(i+1) + sum_{j=2..i+1} (-1)^j C(i+1, j)
    (i!/(i+2-j)!) P^(2j-2) T_(i+1-j), with N_i = sum_{n=1..P} chi(n) (-n)^i.
    For an even chi with mean value zero the quotient is an odd function of
    z, so T_i = 0 at even i and only odd j contribute at odd i.
    """
    p = len(vals)
    if sum(vals) or any(vals[n] != vals[-n] for n in range(p)):
        raise ArithmeticError("chi must be even with mean value zero")
    p4 = p**4
    powers = [[(n or p) ** 2, c] for n, c in enumerate(vals) if c]  # [n^2, chi(n) n^(i+1)]
    out = []
    lead = 1  # i! P^i
    for i in range(1, 2 * count, 2):
        for pw in powers:
            pw[1] *= pw[0]
        lead *= (i - 1) * i * p * p if i > 1 else p
        acc = lead * sum(pw[1] for pw in powers)
        coef = (i + 1) * i * (i - 1) // 6 * i * p4  # j = 3: C(i+1, 3) (i!/(i-1)!) P^4
        for j in range(3, i + 1, 2):
            acc -= coef * out[(i - j) // 2]  # (-1)^j = -1 at odd j
            coef = _exact_div(coef * ((i + 1 - j) * (i - j) * (i + 2 - j) * (i + 1 - j) * p4),
                              (j + 1) * (j + 2))
        out.append(acc)
    return out


def _xi_from_recurrence(vals: tuple, a: int, b: int, count: int) -> list:
    """xi(0 .. count-1) from F(e^(-s)) = -1/2 e^(as/b) sum_k L(-2k-1, chi)
    (-s/b)^k / k!, chi(n) = vals[n mod len(vals)], every division exact.

    With L(-2l-1) = -T_(2l+1) / ((2l+2)! P^(2l+2)) over the common
    denominator D = (2 count)! P^(2 count), the s-coefficients
    G_k = k! [s^k] F(e^(-s)) are sum_l C(k, l) a^(k-l) (-1)^l V_l / (2 b^k D)
    with V_l = -D L(-2l-1), a binomial transform.  G_k is an integer
    (F = sum_n xi(n) (1 - e^(-s))^n), and s^k/k! = sum_n |s(n, k)| q^n/n! at
    s = -log(1-q) gives xi(n) = sum_k |s(n, k)| G_k / n!.
    """
    p = len(vals)
    ts = _odd_lvalue_numerators(vals, count)
    ys = [0] * count
    scale = 1  # D / ((2l+2)! P^(2l+2))
    for l in range(count - 1, -1, -1):
        ys[l] = -ts[l] * scale if l & 1 else ts[l] * scale
        scale *= (2 * l + 1) * (2 * l + 2) * p * p
    gs = []
    den = 2 * scale  # 2 b^k D
    for _ in range(count):
        gs.append(_exact_div(ys[0], den))
        ys = [a * y + y1 for y, y1 in zip(ys, ys[1:])]  # k -> k + 1 in the transform
        den *= b
    xs = []
    row = [1]  # |s(n, k)|, k = 0..n
    nfact = 1
    for n in range(count):
        if n:
            row = [(n - 1) * c + c1 for c, c1 in zip(row + [0], [0] + row)]
            nfact *= n
        xs.append(_exact_div(sum(c * g for c, g in zip(row, gs)), nfact))
    return xs


def _padded(cs, length):
    assert len(cs) <= length
    return list(cs) + [0] * (length - len(cs))


class TestXi:
    def test_classical_values(self):
        assert xi_coefficients(1, 6) == [1, 1, 2, 5, 15, 53]

    def test_t2_values(self):
        assert xi_coefficients(2, 6) == [1, 3, 11, 50, 280, 1890]

    def test_t3_values(self):
        assert xi_coefficients(3, 6) == [1, 7, 49, 420, 4515, 59367]

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_against_full_polynomial_substitution(self, t):
        # dual route: engine vs direct q -> 1-q on the exact partial sum;
        # n_top below count - 1 exercises the per-n cut at count - n before
        # the result has stabilised in N
        polys = list(kz_partial_polynomials(torus_params(t), 20 + 4))
        for count in (9, 20):
            for n_top in sorted({0, 3, count - 2, count + 4}):
                direct = substitute_one_minus_q(polys[n_top], count)
                assert list(direct.coeffs) == xi_series(t, n_top, count)

    @pytest.mark.parametrize("t", [2, 3])
    def test_guard_stability(self, t):
        assert xi_series(t, 16 + 4, 16) == xi_series(t, 16 + 9, 16)

    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize("k", [10, 30])
    def test_partial_sum_bound_stability(self, t, k):
        # coefficients of q^j in the 1-q expansion of the N-th partial sum
        # agree between N = K and N = K + 5 for j <= K
        assert xi_series(t, k, k) == xi_series(t, k + 5, k)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            xi_coefficients(2, 0)

    def test_non_integer_t_refused_cold_and_warm(self):
        # the cache key (2.0, 5) equals (2, 5): once the t = 2 entry is
        # filled, an unchecked 2.0 would read it
        import qfish.fishburn as fb

        fb._xi_cached.cache_clear()
        try:
            with pytest.raises(TypeError):
                xi_coefficients(2.0, 5)
            assert xi_coefficients(2, 5) == [1, 3, 11, 50, 280]
            for t in (2.0, True):
                with pytest.raises(TypeError):
                    xi_coefficients(t, 5)
        finally:
            fb._xi_cached.cache_clear()

    @pytest.fixture
    def cold_xi(self, monkeypatch):
        """An empty xi store, and the list of (t, count) the engine is asked for."""
        import qfish.fishburn as fb

        asked = []

        def recording(t, count):
            asked.append((t, count))
            return xi_lvalues(t, count)

        monkeypatch.setattr(fb, "xi_lvalues", recording)
        fb._xi_cached.cache_clear()
        yield asked
        fb._xi_cached.cache_clear()

    def test_counts_sliced_from_the_longest_table(self, cold_xi):
        # the session menu's t = 2 counts, longest first: one engine call
        assert xi_coefficients(2, 49) == xi_lvalues(2, 49)
        for c in (25, 22, 21, 20, 15, 14, 10, 7, 5):
            assert xi_coefficients(2, c) == xi_lvalues(2, c)
        assert cold_xi == [(2, 49)]
        # a longer count builds a longer table, then serves the shorter ones
        for c in (10, 15, 20, 21, 24, 25, 24):
            assert xi_coefficients(3, c) == xi_lvalues(3, c)
        assert cold_xi == [(2, 49), (3, 10), (3, 15), (3, 20), (3, 21), (3, 24), (3, 25)]

    def test_slices_stay_typed(self, cold_xi):
        for call in (lambda: xi_coefficients(2.0, 5), lambda: xi_coefficients(2, 5.0)):
            with pytest.raises(TypeError):  # cold
                call()
            xi_coefficients(2, 30)
            with pytest.raises(TypeError):  # a longer t = 2 table warm
                call()
        with pytest.raises(ValueError):
            xi_coefficients(2, 0)
        assert cold_xi == [(2, 30)]

    def test_table_store_bounded(self, cold_xi, monkeypatch):
        import qfish.fishburn as fb

        # one table per t, at most 16, the least recently read dropped first;
        # a stand-in engine keeps t up to 19 cheap
        monkeypatch.setattr(fb, "xi_lvalues", lambda t, count: cold_xi.append((t, count))
                            or [t] * count)
        for t in range(1, 19):
            xi_coefficients(t, 4)
        assert fb._xi_cached.cache_info().currsize == 16
        xi_coefficients(3, 2)  # t = 3 read again, so t = 4 is the oldest
        xi_coefficients(19, 4)
        del cold_xi[:]
        for t in (3, 18, 19):
            assert xi_coefficients(t, 3) == [t] * 3
        assert cold_xi == []
        assert xi_coefficients(4, 3) == [4] * 3  # rebuilt after eviction
        assert xi_coefficients(1, 3) == [1] * 3
        assert cold_xi == [(4, 3), (1, 3)]


class TestXiLvalues:
    """The strange-identity engine against the multisum DP, its oracle."""

    @pytest.mark.parametrize("t,top", [(1, 30), (2, 30), (3, 30), (4, 15)])
    def test_every_count_matches_dp(self, t, top):
        # xi_series is stable in N from N = count - 1 on, so one DP run gives
        # the DP's answer for every smaller count as a prefix
        dp = xi_series(t, top + 4, top)
        for c in range(1, top + 1):
            assert xi_lvalues(t, c) == dp[:c], c

    @pytest.mark.parametrize("t,count", [(2, 100), (3, 40), (5, 14)])
    def test_matches_dp_deep(self, t, count):
        assert xi_lvalues(t, count) == xi_series(t, count + 4, count)

    @pytest.mark.parametrize("t,count", [(1, 200), (2, 250), (4, 200)])
    def test_matches_retired_engine(self, t, count):
        # counts the DP does not reach in tier-1
        vals, a, b = self._data(t)
        assert xi_lvalues(t, count) == _xi_from_recurrence(tuple(vals), a, b, count)

    @given(st.integers(1, 6), st.lists(st.integers(-3, 3), min_size=7, max_size=7),
           st.integers(-5, 5), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_even_character_matches_retired_engine(self, half_p, half, a, b):
        # chi(P/2) counts once, every other residue pairs with P - r; the
        # recurrence takes chi(0) = 0.  Scaling chi by k clears every
        # denominator of L, G and xi
        count, p = 8, 2 * half_p
        vals = [half[min(n, p - n)] if n else 0 for n in range(p)]
        vals[half_p] -= sum(vals)
        k = 2 * math.factorial(2 * count) * p ** (2 * count) * b**count * math.factorial(count)
        vals = tuple(k * v for v in vals)
        assert _xi_from_lvalues(vals, a, b, count) == _xi_from_recurrence(vals, a, b, count)

    def test_character_nonzero_at_zero(self):
        # chi(n) = (-1)^(n+1): L(-2l-1) = (-1)^l T_(l+1) / 4^(l+1) with the
        # tangent numbers T = 1, 2, 16, 272, so at a = 0, b = 1,
        # G_l = -T_(l+1) / (2 4^(l+1)), and xi(n) = sum_l |s(n, l)| G_l / n!
        k = 2 * 4**4 * 6
        g = [-k * t // (2 * 4 ** (i + 1)) for i, t in enumerate([1, 2, 16, 272])]
        xs = [g[0], g[1], (g[1] + g[2]) // 2, (2 * g[1] + 3 * g[2] + g[3]) // 6]
        assert _xi_from_lvalues((-k, k), 0, 1, 4) == xs

    def test_bfile_sample(self):
        entries = parse_bfile(DATA / "b022493_sample.txt")
        got = xi_coefficients(1, len(entries))
        assert got == [entries[n] for n in range(len(entries))]

    def test_xi_coefficients_reads_the_lvalue_engine(self, monkeypatch):
        import qfish.fishburn as fb

        def boom(*args):
            raise AssertionError("xi_coefficients reached the DP")

        monkeypatch.setattr(fb, "xi_series", boom)
        fb._xi_cached.cache_clear()
        try:
            assert xi_coefficients(2, 9) == xi_lvalues(2, 9)
        finally:
            fb._xi_cached.cache_clear()

    def test_validation(self):
        for t, count in [(0, 5), (-1, 5), (2, 0), (2, -3)]:
            with pytest.raises(ValueError):
                xi_lvalues(t, count)
        for t, count in [(0, 5), (2, 0)]:
            with pytest.raises(ValueError):
                xi_coefficients(t, count)

    @staticmethod
    def _data(t):
        spec = theta_spec_t(t, 1)
        return list(spec.char.values), spec.a, spec.b

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_flipped_character_value(self, t):
        # one flipped value breaks evenness; flipping a value and its mirror
        # -n as well keeps chi even but breaks the mean value zero
        vals, a, b = self._data(t)
        n = vals.index(1)
        vals[n] = -1
        with pytest.raises(ArithmeticError):
            _xi_from_lvalues(tuple(vals), a, b, 20)
        vals[-n] = -1
        with pytest.raises(ArithmeticError):
            _xi_from_lvalues(tuple(vals), a, b, 20)

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_negated_character_differs(self, t):
        # -chi is even with mean value zero: every step is exact, the
        # values are not the DP's, while the unperturbed data give them
        vals, a, b = self._data(t)
        dp = xi_series(t, 16, 12)
        assert _xi_from_lvalues(tuple(vals), a, b, 12) == dp
        assert _xi_from_lvalues(tuple(-v for v in vals), a, b, 12) != dp

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_shifted_a(self, t):
        vals, a, b = self._data(t)
        with pytest.raises(ArithmeticError):
            _xi_from_lvalues(tuple(vals), a + 1, b, 20)

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_doubled_b(self, t):
        vals, a, b = self._data(t)
        with pytest.raises(ArithmeticError):
            _xi_from_lvalues(tuple(vals), a, 2 * b, 20)

    def test_leaves_fractions_unloaded(self):
        code = (
            "import sys; from qfish.fishburn import xi_coefficients; "
            "assert xi_coefficients(3, 20)[:3] == [1, 7, 49]; "
            "print('fractions' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.split() == ["False"]


class TestSubRow:
    COUNT = 16

    def _rows(self, length):
        pw = _powers(92, self.COUNT)  # e <= C(14, 2) for _sub_factors
        rows = [_sub_row(None, 0, length, pw)]
        for n in range(1, 15):
            rows.append(_sub_row(rows[-1], n, length, pw))
        return pw, rows

    def test_matches_retired_builder(self):
        # every j <= n for n <= 14, cut at lengths 1, 2, 5 and count - n + 1
        pw, full = self._rows(self.COUNT)
        pascal = _sub_pascal_row(None, 0, pw, self.COUNT)
        for n in range(15):
            if n:
                pascal = _sub_pascal_row(pascal, n, pw, self.COUNT)
            for length in sorted({1, 2, 5, min(self.COUNT - n + 1, self.COUNT)}):
                row = full[0] if n == 0 else _sub_row(full[n - 1], n, length, pw)
                want = _sub_factors(pascal, length, pw)
                assert len(row) == n + 1
                for j, (lo, cs) in enumerate(row):
                    assert lo == 0 and cs
                    assert _padded(cs, length) == _padded(want[j], length), (n, j, length)

    def test_constant_terms(self):
        # the constant term of F[n][j] is (-1)^j C(n, j), so no entry is empty
        _, rows = self._rows(3)
        for n, row in enumerate(rows):
            assert [cs[0] for _, cs in row] == [(-1) ** j * math.comb(n, j) for j in range(n + 1)]

    def test_against_direct_substitution(self):
        # F[n][j] = (-1)^j (1-q)^C(j,2) [n, j] at q -> 1-q, from the definition
        _, rows = self._rows(self.COUNT)
        for n in range(11):
            for j in range(n + 1):
                poly = q_binomial(n, j).shift(j * (j - 1) // 2).scale((-1) ** j)
                direct = substitute_one_minus_q(poly, self.COUNT)
                assert _padded(rows[n][j][1], self.COUNT) == list(direct.coeffs), (n, j)


class TestDissection:
    def test_by_definition(self):
        d = dissection(IntSeries.make(0, [1, 2, 3, 4]), 2)
        assert d.pieces[0] == IntSeries.make(0, [1, 3])
        assert d.pieces[1] == IntSeries.make(0, [2, 4])

    def test_negative_exponents(self):
        # q^-1 lands in class s-1 at power -1
        d = dissection(IntSeries.monomial(-1), 5)
        assert d.pieces[4] == IntSeries.monomial(-1)
        assert d.reconstruct() == IntSeries.monomial(-1)

    def test_truncated_rejected(self):
        with pytest.raises(NotPolynomialError):
            dissection(IntSeries.make(0, [1, 1], 5), 2)

    @given(
        st.integers(-6, 6),
        st.lists(st.integers(-9, 9), min_size=0, max_size=12),
        st.integers(2, 7),
    )
    @settings(max_examples=120, deadline=None)
    def test_round_trip(self, min_exp, coeffs, s):
        p = IntSeries.make(min_exp, coeffs)
        assert dissection(p, s).reconstruct() == p


class TestSSet:
    @pytest.mark.parametrize(
        "t,s,expect",
        [
            (2, 5, {0, 2, 3}),
            (2, 17, {0, 2, 3, 4, 7, 8, 9, 11, 14}),
            (3, 7, {0, 2, 3, 4}),
            (3, 13, {0, 2, 5, 6, 7, 8, 11}),
        ],
    )
    def test_printed_sets(self, t, s, expect):
        assert S_set(theta_spec_t(t, 0), s) == expect

    def test_s_equal_one(self):
        assert S_set(theta_spec_t(2, 0), 1) == {0}

    @given(st.integers(1, 5), st.integers(0, 1), st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_support_scan_equals_full_period_scan(self, t, nu, s):
        # oracle: the scan of every n in one period(chi) * s range
        spec = theta_spec_t(t, nu)
        full = {spec.exponent(n) % s for n in range(spec.char.period * s) if spec.char(n)}
        assert S_set(spec, s) == full

    def test_classical_j_ranges(self):
        # the S-set rule at t=1 reproduces the classical congruence ranges
        assert congruence_j_range(1, 5) == [1, 2]
        assert congruence_j_range(1, 7) == [1]
        assert congruence_j_range(1, 11) == [1, 2, 3]


class TestDivisibility:
    def test_t2_s5_n9(self):
        rep = divisibility_check(2, 5, 9)
        assert rep.lam == 2
        assert [e["i"] for e in rep.entries] == [1, 4]
        assert rep.passed

    @pytest.mark.parametrize("n_index", [4, 9, 14])
    def test_t2_s5_progression(self, n_index):
        assert divisibility_check(2, 5, n_index).passed

    def test_t1_classical(self):
        rep = divisibility_check(1, 5, 9)
        assert rep.passed
        assert set(e["i"] for e in rep.entries) == {3, 4}  # S = {0, 1, 2}

    def test_lambda_zero_trivial(self):
        rep = divisibility_check(2, 5, 3)
        assert rep.lam == 0 and rep.passed

    def test_detects_perturbation(self, monkeypatch):
        # 1 + q^1 lands on piece 1 as a constant: (q)_2 cannot divide it
        import qfish.fishburn as fishburn_mod

        real = fishburn_mod.kz_full_polynomial
        monkeypatch.setattr(fishburn_mod, "kz_full_polynomial",
                            lambda p, n: real(p, n) + IntSeries.monomial(1))
        rep = divisibility_check(2, 5, 9)
        assert not rep.passed and not rep.as_dict()["pass"]
        bad = [e for e in rep.entries if not e["divisible"]]
        assert [e["i"] for e in bad] == [1]
        assert isinstance(bad[0]["remainder_degree"], int) and "quotient_degree" not in bad[0]

    def test_odd_t_laurent_pieces(self):
        rep = divisibility_check(3, 7, 13)
        assert rep.passed
        assert [e["i"] for e in rep.entries] == [1, 5, 6]
        # Laurent dissection: at least one piece needs a monomial unit
        assert any(e["unit_exp"] != 0 for e in rep.entries)


class TestCongruence:
    def test_t2_p5_printed_value(self):
        assert xi_coefficients(2, 5)[4] == 280
        rep = verify_congruence(2, 5, 1, 1)
        assert rep.passed and rep.j_range == (1,)

    def test_t2_p17(self):
        rep = verify_congruence(2, 17, 1, 1)
        assert rep.passed and rep.j_range == (1, 2)

    def test_t1_p5_values(self):
        rep = verify_congruence(1, 5, 1, 1)
        assert rep.passed
        by_j = {e["j"]: e["xi"] for e in rep.entries}
        assert by_j == {1: 15, 2: 5}

    def test_prime_validation(self):
        with pytest.raises(ValueError):
            verify_congruence(2, 4, 1, 1)
        with pytest.raises(ValueError):
            verify_congruence(2, 3, 1, 1)

    def test_vacuous_branch(self, monkeypatch):
        import qfish.fishburn as fb

        monkeypatch.setattr(fb, "S_set", lambda spec, s: {s - 1})
        rep = verify_congruence(2, 5, 1, 1)
        assert rep.vacuous and rep.passed and rep.entries == ()

    def test_scan_beyond_range(self):
        rep = verify_congruence(2, 5, 1, 1, scan_all_j=True)
        assert rep.passed  # pass judged only on the claimed range
        assert {e["j"] for e in rep.scanned} == {2, 3, 4}

    def test_scan_on_empty_claimed_range(self):
        rep = verify_congruence(2, 13, 1, 1, scan_all_j=True)
        assert rep.j_range == () and rep.vacuous and rep.passed
        assert [e["j"] for e in rep.scanned] == list(range(1, 13))

    def test_r3_instance_t2(self):
        # beyond the acceptance gate: one r = 3 case stays desk-sized at t = 2
        rep = verify_congruence(2, 5, 3, 1)
        assert rep.passed
        assert rep.entries[0]["index"] == 124

    def test_failure_detected(self, monkeypatch):
        import qfish.fishburn as fb

        bad = list(xi_coefficients(2, 5))
        bad[4] += 1
        monkeypatch.setattr(fb, "xi_coefficients", lambda t, c: bad[:c])
        rep = verify_congruence(2, 5, 1, 1)
        assert not rep.passed


class TestStraub:
    def test_p5_r1_n2_residue(self):
        # square 5q - 10q^2 + 10q^3 - 5q^4 + q^5 and reduce mod 5: only q^10
        base = IntSeries.one() - IntSeries.make(
            0, [(-1 if i & 1 else 1) * math.comb(5, i) for i in range(6)]
        )
        sq = base * base
        residues = [sq.coeff(e) % 5 for e in range(sq.degree + 1)]
        assert residues == [0] * 10 + [1]
        assert straub_order_bound(5, 1, 2)

    def test_p5_r2_n2(self):
        assert straub_order_bound(5, 2, 2)

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_r1_n1(self, p):
        assert straub_order_bound(p, 1, 1)

    @pytest.mark.parametrize("p", [5, 7])
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_grid(self, p, r, n):
        assert straub_order_bound(p, r, n)

    @pytest.mark.parametrize("r, n", [(0, 1), (-1, 2), (1, -1)])
    def test_vacuous_arguments_rejected(self, r, n):
        # modulus p^0 = 1 passes everything; a negative n would act as n = 0
        with pytest.raises(ValueError):
            straub_order_bound(5, r, n)


class TestBinomCongruence:
    def test_examples(self):
        assert math.comb(8, 4) == 70
        assert binom_congruence(3, 1, 5, 1, 1, 1)
        assert binom_congruence(0, 0, 5, 1, 1, 1)  # comb(0, 4) = 0
        assert binom_congruence(0, 1, 7, 1, 1, 1)  # comb(7, 6) = 7

    @pytest.mark.parametrize("r", [0, -1])
    def test_vacuous_modulus_rejected(self, r):
        with pytest.raises(ValueError):
            binom_congruence(0, 0, 5, r, 1, 1)

    def test_stated_grid(self):
        for t, p in ((2, 5), (3, 7)):
            sset = S_set(theta_spec_t(t, 0), p)
            jr = congruence_j_range(t, p)
            for r in (1, 2):
                for i in sorted(sset):
                    for j in jr:
                        for l in range(1, 7):
                            for m in (1, 2):
                                assert binom_congruence(i, l, p, r, m, j)


class TestIsPrime:
    def test_values(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]
