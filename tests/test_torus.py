"""Parameters, index-vector enumeration, the KZ series, colored Jones, H/M."""

import copy
import itertools
from collections.abc import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfish.qseries as qseries_mod
import qfish.series as series_mod
import qfish.torus as torus_mod
from qfish.backend import pool_dp
from qfish.cyclotomic import CycInt, cyc_eval
from qfish.identities import verify_key_identity, verify_rewrite2, verify_root_match
from qfish.qseries import binom_row_trunc, chi_t
from qfish.series import (IntSeries, exact_over_one_minus_qk, first_difference, int_arg,
                          one_minus_q_power, pool_add, times_one_minus_qk)
from test_qseries import pochhammer, q_binomial
from test_series import invert_unit, substitute_one_minus_q
from qfish.torus import (
    H_multisum,
    H_theta,
    M_series,
    TorusParams,
    _acc_mul,
    _check_params,
    _series,
    a_n_t,
    admissible_jvectors,
    b_sums,
    colored_jones,
    kz_at_root_of_unity,
    kz_full_polynomial,
    kz_inner_sum,
    slater_multisum,
    torus_params,
)


def v_exponent(jv: tuple, p: TorusParams) -> int:
    """v(jv) = (sum j_l l - a)/m + sum C(j_l, 2); integral iff jv is admissible.
    jv must have m - 1 nonnegative entries."""
    _check_params(p)
    jv = [int_arg(j, f"jv[{i}]", 0) for i, j in enumerate(jv)]
    if len(jv) != p.m - 1:
        raise ValueError("index vector needs m - 1 entries")
    total = sum(j * l for l, j in enumerate(jv, start=1))
    num = total - p.a
    if num % p.m:
        raise ValueError("inadmissible index vector: weighted sum fails the congruence")
    return num // p.m + sum(j * (j - 1) // 2 for j in jv)


def kz_partial_polynomials(p: TorusParams, n_top: int) -> Iterator[IntSeries]:
    """F_t(q; N) = sign * q^(-h') * sum_{n=0}^{N} (q)_n G_n(q) for
    N = 0..n_top as exact Laurent polynomials, one inner sum per N.

    Laurent for every t >= 3 (min exponent -h' = -1, -4, -9 at t = 3, 4, 5);
    for t = 1 this is sum (q)_n.  Each product is added into one pool.

    The product route, kept here as the oracle for the Horner sum of
    torus.kz_full_polynomial.
    """
    _check_params(p)
    n_top = int_arg(n_top, "N", 0)
    total, poch = [0, []], [p.sign]  # sign * sum_{n<=N} (q)_n G_n, sign * (q)_N
    for n in range(n_top + 1):
        if n:
            poch.extend([0] * n)
            times_one_minus_qk(poch, n)
        inner = kz_inner_sum(p, n, None)
        _acc_mul(total, [0, poch], [inner.min_exp, inner.coeffs], None)
        yield _series([total[0] - p.h_d, total[1]], None)


def brute_force_jvectors(p, j_cap, v_cap):
    """Independent oracle: filter the full box {0..j_cap}^(m-1) by the
    printed congruence 3 * sum j_l l == 1 (mod m)."""
    out = []
    if p.m == 1:
        v = -p.a
        if v_cap is None or v < v_cap:
            out.append(((), v))
        return out
    for jv in itertools.product(range(j_cap + 1), repeat=p.m - 1):
        total = sum(j * l for l, j in enumerate(jv, start=1))
        if (3 * total) % p.m != 1 % p.m:
            continue
        v = (total - p.a) // p.m + sum(j * (j - 1) // 2 for j in jv)
        if v_cap is None or v < v_cap:
            out.append((jv, v))
    return out


def _ksum_walk(p, n, jv, k_step):
    """sum_k q^(k * k_step) prod_l [n + I(l<=k), j_l] for one index vector."""
    pre = [IntSeries.one()]
    for l in range(1, p.m):
        pre.append(pre[-1] * q_binomial(n + 1, jv[l - 1]))
    sufs = [IntSeries.one() for _ in range(p.m)]
    for k in range(p.m - 2, -1, -1):
        sufs[k] = sufs[k + 1] * q_binomial(n, jv[k])
    acc = IntSeries.zero()
    for k in range(p.m):
        acc = acc + (pre[k] * sufs[k]).shift(k * k_step)
    return acc


# (t, N) pairs where the DP results are compared with the per-vector walks
WALK_CASES = [(t, big_n) for t in (1, 2, 3) for big_n in range(1, 7)] + [
    (4, big_n) for big_n in (1, 2, 3)
]


def colored_jones_walk(p, big_n):
    """Oracle: J_N(T(3, 2^t); q) summed one admissible index vector at a time."""
    total = IntSeries.zero()
    for n in range(big_n):
        inner = IntSeries.zero()
        for jv, v in admissible_jvectors(p, j_cap=n + 1):
            sj = sum(jv)
            term = _ksum_walk(p, n, jv, -big_n)
            inner = inner + term.shift(v - big_n * sj).scale(-1 if sj & 1 else 1)
        total = total + (pochhammer(1 - big_n, n) * inner).shift(-big_n * n * p.m)
    return total.shift(2**p.t - 1 - p.h_d - big_n).scale(p.sign)


def colored_jones_dp(p, big_n):
    """Oracle: J_N(T(3, 2^t); q) from the multisum,

        sign q^(2^t - 1 - h' - N) sum_{n<N} (q^(1-N))_n q^(-nmN) G_n^(N)(q),

    with G_n^(N) the inner sum weighted by q^(-N (sum j + k)), run through
    the (S, A)-pool DP.  Each factor [n(+1), j] carries q^(-N j); each
    [n+1, j] factor carries one more q^(-N), which A picks up once per level
    until k is fixed.  The n-sum stops at N - 1 because (q^(1-N))_n vanishes
    from n = N on."""
    total = IntSeries.zero()
    for n in range(big_n):
        facs = ((), ())  # t = 1 has no levels
        if p.m > 1:
            facs = tuple(
                [[lo + j * (j - 1) // 2 - big_n * j, [-c for c in rows[j]] if j & 1 else rows[j]]
                 if j < len(rows) else None for j in range(n + 2)]
                for rows, lo in ((binom_row_trunc(top, top, top * top // 4 + 1), lo)
                                 for top, lo in ((n, 0), (n + 1, -big_n)))
            )
        inner = torus_mod._series(torus_mod._pool_dp(p, *facs, None), None)
        total = total + (pochhammer(1 - big_n, n) * inner).shift(-big_n * n * p.m)
    return total.shift(2**p.t - 1 - p.h_d - big_n).scale(p.sign)


def kz_at_root_walk(p, big_n):
    """Oracle: F_t(zeta_N) summed in Z[zeta_N] one index vector at a time."""
    one = CycInt.integer(big_n, 1)
    total = CycInt.zero(big_n)
    poch = one
    for n in range(big_n):
        if n:
            poch = poch * (one - CycInt.root_power(big_n, n))
        inner = CycInt.zero(big_n)
        for jv, v in admissible_jvectors(p, j_cap=n + 1):
            ks = cyc_eval(_ksum_walk(p, n, jv, 0), big_n).mul_root_power(v)
            inner = inner + (-ks if sum(jv) & 1 else ks)
        total = total + poch * inner
    if p.sign < 0:
        total = -total
    return total.mul_root_power(-p.h_d)


def a_n_t_walk(p, n, q_order):
    """Oracle: a_{n,t} summed one admissible index vector at a time, with the
    reindexed binomial tops (n - sum j - r)/m + I(l <= r), r = (n - sum j) mod m."""
    acc = IntSeries.zero(q_order)
    for jv, v in admissible_jvectors(p, j_cap=n + 1, v_cap=q_order):
        sj = sum(jv)
        r = (n - sj) % p.m
        c = (n - sj - r) // p.m
        prod = IntSeries.one(q_order)
        for l in range(1, p.m):
            prod = prod * q_binomial(c + (1 if l <= r else 0), jv[l - 1])
        acc = acc + prod.shift(v).scale(-1 if sj & 1 else 1).truncate(q_order)
    return acc


def slater_walk(p, order):
    """Oracle: sum'_{jv} (-1)^(sum j) q^v / prod (q)_{j_l}, one index vector
    at a time."""
    j_cap = 2
    while j_cap * (j_cap - 1) // 2 < order:
        j_cap += 1
    total = IntSeries.zero(order)
    for jv, v in admissible_jvectors(p, j_cap=j_cap, v_cap=order):
        term = IntSeries.one(order)
        for j in jv:
            term = term * invert_unit(pochhammer(1, j, order), order)
        total = total + term.shift(v).scale(-1 if sum(jv) & 1 else 1).truncate(order)
    return total


def q_factors(rows, jmax):
    """Oracle (the factor builder the (x; q)_n table replaced):
    (-1)^j q^C(j,2) rows[j] for j = 0..jmax, None past the row."""
    return [
        [j * (j - 1) // 2, [-c for c in rows[j]] if j & 1 else list(rows[j])]
        if j < len(rows) else None
        for j in range(jmax + 1)
    ]


def count_rows(monkeypatch):
    """A list that gains one item per factor row built through _row_step
    (by an (x; q)_n table or by the substituted rows) from here on."""
    built = []
    real = torus_mod._row_step
    monkeypatch.setattr(torus_mod, "_row_step", lambda *args: built.append(1) or real(*args))
    return built


def count_windows(monkeypatch):
    """A list that gains the arguments of every a-window built (torus._a_window)
    from here on."""
    calls = []
    real = torus_mod._a_window
    monkeypatch.setattr(torus_mod, "_a_window", lambda *args: calls.append(args) or real(*args))
    return calls


def count_binom_rows(monkeypatch):
    """A list that gains the arguments of every binom_row_trunc call from
    here on, through torus or through qseries."""
    calls = []
    real = qseries_mod.binom_row_trunc

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(torus_mod, "binom_row_trunc", counted)
    monkeypatch.setattr(qseries_mod, "binom_row_trunc", counted)
    return calls


def m_summand_full(p, n, x_stop, q_order):
    """Oracle (the walk before the q^v cut): the (x-degree, IntSeries)
    terms of the n-th summand of M_t, every product cut below q^q_order."""
    jmax = min(n + 1, torus_mod._jmax(q_order))
    b_n, b_np1 = (
        [IntSeries.make(0, r, q_order) for r in binom_row_trunc(top, min(top, jmax), q_order)]
        for top in (n, n + 1)
    )
    b_n.append(IntSeries.zero(q_order))
    one = IntSeries.one(q_order)
    for jv, v in admissible_jvectors(p, j_cap=n + 1, v_cap=q_order):
        sj = sum(jv)
        pre = [one]
        for l in range(1, p.m):
            pre.append(pre[-1] * b_np1[jv[l - 1]])
        sufs = [one] * p.m
        for k in range(p.m - 2, -1, -1):
            sufs[k] = sufs[k + 1] * b_n[jv[k]]
        for k in range(p.m):
            x_deg = n * p.m + sj + k
            if x_deg >= x_stop:
                break
            prod = pre[k] * sufs[k]
            if not prod.is_zero():
                yield x_deg, prod.shift(v).scale(-1 if sj & 1 else 1)


def column_difference(a, b):
    """First (x-exponent, q-exponent, a_coeff, b_coeff) where the x-columns
    a and b (equally many) differ, or None."""
    assert len(a) == len(b)
    return next(((j, *d) for j, (ca, cb) in enumerate(zip(a, b))
                 if (d := first_difference(ca, cb)) is not None), None)


def h_multisum_per_term(p, x_bound, q_order):
    """Oracle (the accumulation H_multisum replaced): every term of every
    summand convolved on its own with the IntSeries columns of (x)_{n+1},
    summed by x-degree after the x^(-h) shift; the negative degrees must
    cancel."""
    work = q_order + p.h_d
    zero = IntSeries.zero(work)
    cols = {}
    poch_x = [IntSeries.one(work)]
    n = 0
    while n * p.m - p.h < x_bound:
        poch_x = [c - c1.shift(n) for c, c1 in zip(poch_x + [zero], [zero] + poch_x)]
        poch_x = poch_x[: x_bound + p.h + 1]
        for x_deg, term in m_summand_full(p, n, x_bound + p.h, work):
            piece = term.scale(p.sign)
            for e, col in enumerate(poch_x, x_deg - p.h):
                if e >= x_bound:
                    break
                cols[e] = cols.get(e, zero) + col * piece
        n += 1
    assert all(c.is_zero() for e, c in cols.items() if e < 0)
    return tuple(cols.get(e, zero).shift(-p.h_d) for e in range(x_bound))


class TestParams:
    @pytest.mark.parametrize(
        "t,expect",
        [
            (1, (1, 0, -1, 1, 0)),
            (2, (2, 1, 0, 1, 2)),
            (3, (4, 2, 1, 3, 6)),
            (4, (8, 5, 4, 3, 14)),
        ],
    )
    def test_table(self, t, expect):
        p = torus_params(t)
        assert (p.m, p.h_dd, p.h_d, p.a, p.h) == expect

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
    def test_congruence_invariant(self, t):
        p = torus_params(t)
        assert (3 * p.a) % p.m == 1 % p.m

    def test_invalid(self):
        with pytest.raises(ValueError):
            torus_params(0)

    @pytest.mark.parametrize("t", [2.0, True, "2"])
    def test_non_integer_refused(self, t):
        with pytest.raises(TypeError):
            torus_params(t)

    def test_index_types_accepted(self):
        class Three:
            def __index__(self):
                return 3

        p = torus_params(Three())
        assert type(p.t) is int and p == torus_params(3)


class TestVExponent:
    def test_examples(self):
        p3 = torus_params(3)
        assert v_exponent((0, 0, 1), p3) == 0
        assert v_exponent((1, 1, 0), p3) == 0
        assert v_exponent((3,), torus_params(2)) == 4

    def test_inadmissible_raises(self):
        with pytest.raises(ValueError):
            v_exponent((0, 0, 0), torus_params(3))

    @pytest.mark.parametrize("jv,t", [((1, 2, 0), 2), ((), 2), ((1, 0), 3),
                                      ((-1,), 2), ((-1, 0, 0), 3)])
    def test_malformed_vector_raises(self, jv, t):
        with pytest.raises(ValueError):
            v_exponent(jv, torus_params(t))

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_nonnegative_integer_exhaustive(self, t):
        p = torus_params(t)
        for jv, v in brute_force_jvectors(p, 6, None):
            assert v_exponent(jv, p) == v
            assert v >= 0


class TestEnumerator:
    def test_t2_example(self):
        got = list(admissible_jvectors(torus_params(2), 3, 5))
        assert got == [((1,), 0), ((3,), 4)]

    def test_t3_example(self):
        got = list(admissible_jvectors(torus_params(3), 1, 1))
        assert got == [((0, 0, 1), 0), ((1, 1, 0), 0)]

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_empty_at_vcap_zero(self, t):
        if t == 1:
            # t=1's empty vector has v = -1 < 0, so it does appear
            assert list(admissible_jvectors(torus_params(1), 4, 0)) == [((), -1)]
        else:
            assert list(admissible_jvectors(torus_params(t), 4, 0)) == []

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    @pytest.mark.parametrize("j_cap", [0, 1, 2, 3, 4])
    def test_matches_brute_force(self, t, j_cap):
        p = torus_params(t)
        for v_cap in (None, 1, 5, 30):
            got = sorted(admissible_jvectors(p, j_cap, v_cap))
            assert got == sorted(brute_force_jvectors(p, j_cap, v_cap))


class TestInnerSum:
    """The aggregated DP must equal a plain per-vector computation."""

    @pytest.mark.parametrize("t,n", [(2, 0), (2, 1), (2, 2), (2, 4), (2, 6),
                                     (3, 0), (3, 1), (3, 2), (3, 4), (3, 6),
                                     (4, 0), (4, 1), (4, 2)])
    def test_against_per_vector_sum(self, t, n):
        p = torus_params(t)
        acc = IntSeries.zero()
        for jv, v in admissible_jvectors(p, j_cap=n + 1):
            term = IntSeries.zero()
            for k in range(p.m):
                prod = IntSeries.one()
                for l in range(1, p.m):
                    prod = prod * q_binomial(n + (1 if l <= k else 0), jv[l - 1])
                term = term + prod
            acc = acc + term.shift(v).scale(-1 if sum(jv) & 1 else 1)
        assert first_difference(kz_inner_sum(p, n, None), acc) is None
        for order in (1, 2, 3, 5, 12):
            assert first_difference(kz_inner_sum(p, n, order), acc) is None

    @pytest.mark.parametrize("t,n", [(2, 5), (3, 4), (4, 2)])
    @pytest.mark.parametrize("order", [None, 2, 9])
    def test_graded_ends_sum_to_ungraded(self, t, n, order):
        # the x-degree keys only split the end state
        p = torus_params(t)
        fac = torus_mod._q_setup(n, order)
        ends = torus_mod._pool_dp(p, *fac, order, graded=True)
        total = IntSeries.zero(order)
        for pool in ends.values():
            total = total + torus_mod._series(pool, order)
        assert total == torus_mod._series(torus_mod._pool_dp(p, *fac, order), order)


class TestPoolAdd:
    """Pool sums are plain adds: no kernel call and no aliasing."""

    @pytest.fixture
    def no_kernel(self, monkeypatch):
        def boom(*args):
            raise AssertionError("pool add reached the product kernel")

        # a cached G_n would answer without running the DP
        kz_inner_sum.cache_clear()
        monkeypatch.setattr(torus_mod, "mul_trunc", boom)
        monkeypatch.setattr(series_mod, "mul_trunc", boom)

    def test_ladd(self, no_kernel):
        # the sum lands in the left pool; the right one is untouched
        a, b = [2, [1, 1]], [0, [4]]
        got = pool_add(a, b)
        assert got is a and a == [0, [4, 0, 1, 1]]
        assert b == [0, [4]]
        assert pool_add(None, b) is b and pool_add(a, None) is a
        # a right pool that overlaps the left one and runs past its end
        assert pool_add([3, [7, 2]], [1, [5, 0, 1]]) == [1, [5, 0, 8, 2]]


class TestFactorsAreOnlyRead:
    """_pool_dp never writes into its factor pools, so pool_add may add into
    its left pool in place: every pool it receives belongs to the DP run."""

    @pytest.mark.parametrize("t", [2, 3, 4])
    @pytest.mark.parametrize("order", [None, 9])
    @pytest.mark.parametrize("graded", [False, True])
    def test_q_factors(self, t, order, graded):
        # the q-lift runs the compiled DP where the extension is built
        p = torus_params(t)
        fac = torus_mod._q_setup(5, order)
        before = copy.deepcopy(fac)
        if pool_dp is not None:
            assert pool_dp(p.m, p.a, *fac, order, graded) is not NotImplemented
        assert torus_mod._pool_dp(p, *fac, order, graded=graded)
        assert fac == before

    @pytest.mark.parametrize("t", [2, 3, 4])
    @pytest.mark.parametrize("order", [None, 9])
    @pytest.mark.parametrize("graded", [False, True])
    def test_q_factors_python_loop(self, t, order, graded, monkeypatch):
        # without the compiled DP, _pool_dp runs its Python loop
        monkeypatch.setattr(torus_mod, "pool_dp", None)
        fac = torus_mod._q_setup(5, order)
        before = copy.deepcopy(fac)
        assert torus_mod._pool_dp(torus_params(t), *fac, order, graded=graded)
        assert fac == before

    @pytest.mark.parametrize("t", [2, 3, 4])
    @pytest.mark.parametrize("order", [None, 9])
    @pytest.mark.parametrize("graded", [False, True])
    def test_substituted_factors(self, t, order, graded):
        # the substituted rows of the xi oracle's inner sums, built and
        # lifted as it builds and lifts them, read by its ungraded DP copy
        # (cut at order, or at the rows' cut 12) and, as plain factor data
        # with every low exponent 0, by the library DP
        from test_fishburn import _lift_pool_dp, _lift_row_step, _sub_lift

        pw = [list(one_minus_q_power(e, min(e + 1, 12)).coeffs) for e in range(6)]
        row = [[0, [1]]]
        for n in range(3):
            row = _lift_row_step(row, n, 12, _sub_lift(pw, 12))
        fac = row + [None], _lift_row_step(row, 3, 12, _sub_lift(pw, 12))
        before = copy.deepcopy(fac)
        p = torus_params(t)
        assert _lift_pool_dp(p, *fac, order or 12, _sub_lift(pw, order or 12))
        assert torus_mod._pool_dp(p, *fac, order, graded=graded)
        assert fac == before


class TestExactCaches:
    """A second request for an exact G_n is answered from its cache, without
    a product."""

    def test_second_call_makes_no_product(self, monkeypatch):
        p = torus_params(3)
        kz_inner_sum.cache_clear()
        first = kz_inner_sum(p, 4, None)

        def boom(*args):
            raise AssertionError("a cached call reached the product kernel")

        monkeypatch.setattr(torus_mod, "mul_trunc", boom)
        assert kz_inner_sum(p, 4, None) == first
        assert kz_inner_sum.cache_info().hits == 1


class TestKZSeries:
    def test_t2_constant_term(self):
        assert kz_full_polynomial(torus_params(2), 0).truncate(1).coeff(0) == 1

    def test_t1_is_pochhammer_sum(self):
        got = kz_full_polynomial(torus_params(1), 3).truncate(10)
        expect = IntSeries.zero(10)
        for n in range(4):
            expect = expect + pochhammer(1, n, 10)
        assert got == expect

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    def test_partial_polynomials_add_one_summand_each(self, t):
        # F_t(q; N) - F_t(q; N-1) = sign q^(-h') (q)_N G_N(q), summed with
        # IntSeries arithmetic; t = 4 and 5 add h' = 4 and 9, and t = 4 the
        # second sign of -1
        p = torus_params(t)
        prev = IntSeries.zero()
        for n, poly in enumerate(kz_partial_polynomials(p, 6)):
            summand = pochhammer(1, n) * kz_inner_sum(p, n, None)
            assert poly == prev + summand.shift(-p.h_d).scale(p.sign)
            prev = poly
        assert prev == kz_full_polynomial(p, 6)

    @pytest.mark.parametrize("t,n_top", [(1, 40), (2, 50), (3, 20), (4, 12), (5, 8)])
    def test_horner_equals_the_product_route(self, t, n_top):
        # every N <= n_top; at t = 2 the oracle's last products leave int64
        p = torus_params(t)
        for n, poly in enumerate(kz_partial_polynomials(p, n_top)):
            assert kz_full_polynomial(p, n) == poly

    def test_inner_sums_are_built_in_ascending_order(self, monkeypatch):
        # the exact (x; q)_n table keeps its newest two rows only, so asking
        # for G_N first and then G_(N-1), .. would rebuild rows from row 0
        # for every n (2556 rows at N = 70)
        kz_inner_sum.cache_clear()
        torus_mod._xq_rows.cache_clear()
        built = count_rows(monkeypatch)
        kz_full_polynomial(torus_params(2), 40)
        assert 0 < len(built) <= 40 + 2

    def test_odd_t_is_laurent(self):
        p = torus_params(3)
        assert kz_full_polynomial(p, 3).min_exp == -1

    @pytest.mark.parametrize("t", [2, 3])
    def test_substituted_coefficients_stabilize(self, t):
        # agreement between N = K and N = K + 5 after q -> 1-q
        p = torus_params(t)
        K = 8
        a = substitute_one_minus_q(kz_full_polynomial(p, K), K)
        b = substitute_one_minus_q(kz_full_polynomial(p, K + 5), K)
        assert a == b


class TestColoredJones:
    def test_trefoil_n2(self):
        got = colored_jones(torus_params(1), 2)
        assert got == IntSeries.make(-4, [-1, 1, 0, 1])

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_unknot_normalization(self, t):
        assert colored_jones(torus_params(t), 1) == IntSeries.one()

    def test_t1_formula_oracle(self):
        # J_N(T(3,2); q) = q^(1-N) sum_n q^(-nN) (q^(1-N))_n, directly
        for big_n in range(1, 7):
            expect = IntSeries.zero()
            for n in range(big_n):
                expect = expect + pochhammer(1 - big_n, n).shift(-n * big_n)
            expect = expect.shift(1 - big_n)
            assert colored_jones(torus_params(1), big_n) == expect

    @pytest.mark.parametrize("t,big_n", WALK_CASES)
    def test_against_per_vector_walk(self, t, big_n):
        p = torus_params(t)
        assert colored_jones(p, big_n) == colored_jones_walk(p, big_n)

    @pytest.mark.parametrize("t,big_n", [(2, 2), (2, 5), (3, 4)])
    def test_matches_kz_at_root(self, t, big_n):
        p = torus_params(t)
        lhs = kz_at_root_of_unity(p, big_n).mul_root_power(2**t - 1)
        rhs = cyc_eval(colored_jones(p, big_n), big_n)
        assert lhs == rhs


class TestMortonClosedForm:
    """colored_jones is Morton's closed form; the weighted multisum DP it
    replaced is the oracle."""

    @pytest.mark.parametrize("t,n_max", [(1, 30), (2, 20), (3, 12), (4, 8), (5, 5)])
    def test_against_weighted_dp(self, t, n_max):
        p = torus_params(t)
        for big_n in range(1, n_max + 1):
            assert colored_jones(p, big_n) == colored_jones_dp(p, big_n), big_n

    def test_division_is_exact(self):
        # (1 - q^3)(-1 - 2q)
        cs = [-1, -2, 0, 1, 2]
        assert exact_over_one_minus_qk(cs, 3) and cs == [-1, -2]
        cs = []
        assert exact_over_one_minus_qk(cs, 4) and cs == []

    @pytest.mark.parametrize("coeffs,n", [([1, 1], 3), ([1, 0, 1, 0], 2), ([1], 1)])
    def test_division_refuses_a_remainder(self, coeffs, n):
        assert not exact_over_one_minus_qk(coeffs, n)

    def test_perturbed_morton_sum_is_refused(self, monkeypatch):
        # (1 - q^N) J_N plus one monomial leaves a remainder; the division
        # works in place on its list, so each call gets a copy
        p, big_n = torus_params(3), 6
        jn = colored_jones(p, big_n)
        prod = list(jn.coeffs) + [0] * big_n
        for i, c in enumerate(jn.coeffs):
            prod[i + big_n] -= c
        quotient = list(prod)
        assert exact_over_one_minus_qk(quotient, big_n) and quotient == list(jn.coeffs)
        prod[len(prod) // 2] += 1
        assert not exact_over_one_minus_qk(list(prod), big_n)
        # colored_jones raises rather than return a value built on a remainder
        monkeypatch.setattr(torus_mod, "exact_over_one_minus_qk", lambda cs, k: False)
        with pytest.raises(ArithmeticError, match="1 - q\\^N does not divide"):
            colored_jones(p, big_n)

    def test_no_product_and_no_row(self, monkeypatch):
        def boom(*args):
            raise AssertionError("colored_jones reached the product kernel")

        monkeypatch.setattr(torus_mod, "mul_trunc", boom)
        built, binom_rows = count_rows(monkeypatch), count_binom_rows(monkeypatch)
        assert colored_jones(torus_params(4), 12).coeffs
        assert binom_rows == []
        assert built == []


class TestT1HasNoLevels:
    """t = 1 has no index coordinates: the DP returns its start pool q^(-1),
    and no Gaussian-binomial row is built for it."""

    def test_inner_sum_is_q_inverse(self):
        p = torus_params(1)
        kz_inner_sum.cache_clear()
        for n in range(21):
            assert kz_inner_sum(p, n, None) == IntSeries.monomial(-1)
            for order in (1, 2, 9, 30):
                assert kz_inner_sum(p, n, order) == IntSeries.monomial(-1, 1, order)

    def test_colored_jones_is_the_trefoil_formula(self):
        # J_N(T(3,2); q) = q^(1-N) sum_n q^(-nN) (q^(1-N))_n
        for big_n in range(1, 13):
            expect = IntSeries.zero()
            for n in range(big_n):
                expect = expect + pochhammer(1 - big_n, n).shift(-n * big_n)
            assert colored_jones(torus_params(1), big_n) == expect.shift(1 - big_n)

    def test_root_match_builds_no_rows(self, monkeypatch):
        kz_inner_sum.cache_clear()
        built, binom_rows = count_rows(monkeypatch), count_binom_rows(monkeypatch)
        assert verify_root_match(1, 30).passed
        assert binom_rows == []
        assert built == []


class TestRootEvaluation:
    @pytest.mark.parametrize("t,big_n", WALK_CASES)
    def test_against_per_vector_walk(self, t, big_n):
        p = torus_params(t)
        assert kz_at_root_of_unity(p, big_n) == kz_at_root_walk(p, big_n)

    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("big_n", [1, 2, 3, 5, 6])
    def test_against_polynomial_evaluation(self, t, big_n):
        # independent route: the sum terminates at n = N-1, so evaluating the
        # exact partial-sum polynomial at zeta_N must give the same element
        p = torus_params(t)
        direct = cyc_eval(kz_full_polynomial(p, big_n - 1), big_n)
        assert kz_at_root_of_unity(p, big_n) == direct

    @pytest.mark.parametrize("t,n_max", [(1, 30), (2, 20), (3, 9), (4, 3)])
    def test_root_match_reads_each_partial_sum(self, monkeypatch, t, n_max):
        # The match evaluates F_t(q; N_max - 1) at every zeta_N.  With J_N
        # replaced by q^(2^t - 1) F_t(q; N - 1) from the oracle, it passes at
        # N exactly when that left side is F_t(q; N - 1) at zeta_N.
        import qfish.identities as identities_mod

        polys = list(kz_partial_polynomials(torus_params(t), n_max - 1))
        monkeypatch.setattr(identities_mod, "colored_jones",
                            lambda p, big_n: polys[big_n - 1].shift(2**t - 1))
        rep = verify_root_match(t, n_max)
        assert rep.details == {f"N={n}": "pass" for n in range(1, n_max + 1)}

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_at_n_equal_one(self, t):
        # only n = 0 survives and the unknot normalization gives 1
        from qfish.cyclotomic import CycInt

        assert kz_at_root_of_unity(torus_params(t), 1) == CycInt.integer(1, 1)


@pytest.mark.parametrize("build", [H_theta, H_multisum, M_series])
@pytest.mark.parametrize("t,xb,qo", [(2, 1, 1), (2, 9, 13), (3, 14, 5)])
def test_two_variable_series_are_x_bound_columns(build, t, xb, qo):
    cols = build(torus_params(t), xb, qo)
    assert type(cols) is tuple and len(cols) == xb
    assert all(type(c) is IntSeries and c.order == qo for c in cols)


class TestHSeries:
    def test_h_theta_t2_leading(self):
        h = H_theta(torus_params(2), 8, 20)
        assert h[0] == IntSeries.one(20)
        assert h[3] == IntSeries.monomial(2, -1, 20)
        assert h[4] == IntSeries.monomial(3, -1, 20)
        assert h[7] == IntSeries.monomial(7, 1, 20)

    def test_h_theta_t3_leading(self):
        h = H_theta(torus_params(3), 12, 20)
        assert h[0] == IntSeries.one(20)
        assert h[3] == IntSeries.monomial(2, -1, 20)
        assert h[8] == IntSeries.monomial(7, -1, 20)
        assert h[11] == IntSeries.monomial(11, 1, 20)

    @pytest.mark.parametrize("t", [2, 3, 4])
    @pytest.mark.parametrize("xb,qo", [(1, 1), (6, 40), (30, 12), (9, 9)])
    def test_theta_form_brute_force(self, t, xb, qo):
        # sum chi_t(n) q^((n^2 - a)/b) x^((n - n0)/2) over every n whose
        # x-degree lies in the window
        chi = chi_t(t)
        n0 = 2 ** (t + 1) - 3
        a, b = n0 * n0, 3 * 2 ** (t + 2)
        cols = [[0] * qo for _ in range(xb)]
        for n in range(n0 + 2 * xb):
            if chi(n):
                assert n >= n0 and (n - n0) % 2 == 0 and (n * n - a) % b == 0, n
                if (n * n - a) // b < qo:
                    cols[(n - n0) // 2][(n * n - a) // b] += chi(n)
        expect = tuple(IntSeries.make(0, c, qo) for c in cols)
        assert H_theta(torus_params(t), xb, qo) == expect

    @pytest.mark.parametrize("t,xb,qo", [(2, 12, 30), (3, 10, 20)])
    def test_multisum_equals_theta_form(self, t, xb, qo):
        p = torus_params(t)
        assert column_difference(H_theta(p, xb, qo), H_multisum(p, xb, qo)) is None

    def test_constant_terms(self):
        for t in (2, 3):
            p = torus_params(t)
            assert H_multisum(p, 4, 8)[0].coeff(0) == 1

    def test_multisum_checks_negative_degrees(self, monkeypatch):
        # summand 0 of M_2 starts at x^2 = x^h; a pool put at x^0 survives
        # the x^(-h) shift at degree -2, and the check must refuse it
        real = torus_mod._m_graded

        def perturbed(p, n, q_order):
            ends = real(p, n, q_order)
            return {**ends, 0: [0, [1]]} if n == 0 else ends

        monkeypatch.setattr(torus_mod, "_m_graded", perturbed)
        with pytest.raises(ArithmeticError, match="negative x-degree -2"):
            H_multisum(torus_params(2), 4, 8)

    def test_theta_checks_negative_degrees(self, monkeypatch):
        # the terms of H_2 start at n = n0 = 5, x^0; a term put at n = 1
        # lands at x^(-2), and the check must refuse it rather than drop it
        real = torus_mod.theta_spec_t

        class Perturbed:
            def __init__(self, t, nu):
                self.spec = real(t, nu)

            def terms(self, out_order):
                return itertools.chain([(1, 1, 0)], self.spec.terms(out_order))

        monkeypatch.setattr(torus_mod, "theta_spec_t", Perturbed)
        with pytest.raises(ArithmeticError, match="negative x-degree -2"):
            H_theta(torus_params(2), 4, 8)


def b_n(p, n, q_order):
    """b_{n,t} = a_{n,t} - a_{n-1,t}, read through torus.a_n_t, where a test
    may patch it; a_n_t gives a_{-1,t} = 0."""
    return torus_mod.a_n_t(p, n, q_order) - torus_mod.a_n_t(p, n - 1, q_order)


class TestMSeries:
    @pytest.mark.parametrize("t,xb,qo", [(2, 12, 30), (3, 8, 20)])
    def test_one_minus_x_m_equals_b_sum(self, t, xb, qo):
        p = torus_params(t)
        m = M_series(p, xb, qo)
        lhs = (m[0],) + tuple(c - prev for prev, c in zip(m, m[1:]))
        rhs = tuple(b_n(p, n, qo) for n in range(xb))
        assert column_difference(lhs, rhs) is None

    def test_x0_coefficient_is_a0(self):
        for t in (2, 3):
            p = torus_params(t)
            assert first_difference(M_series(p, 3, 15)[0], a_n_t(p, 0, 15)) is None

    @pytest.mark.parametrize("t,xb", [(2, 12), (3, 10)])
    @pytest.mark.parametrize("qo", [3, 20])
    def test_every_column_is_a_n(self, t, xb, qo):
        p = torus_params(t)
        m = M_series(p, xb, qo)
        for n in range(xb):
            assert first_difference(m[n], a_n_t(p, n, qo)) is None

    def test_b0_equals_a0(self):
        p = torus_params(2)
        assert b_n(p, 0, 12) == a_n_t(p, 0, 12)

    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize("K", [3, 7, 12])
    def test_telescoping(self, t, K):
        p = torus_params(t)
        total = IntSeries.zero(15)
        for n in range(K + 1):
            total = total + b_n(p, n, 15)
        assert first_difference(total, a_n_t(p, K, 15)) is None

    # a_{n,t} at q_order 12 stops changing after n = 24 (t = 2) and n = 47 (t = 3)
    @pytest.mark.parametrize("t,n_top", [(2, 32), (3, 56)])
    def test_a_n_against_per_vector_walk(self, t, n_top):
        p = torus_params(t)
        for n in range(-1, n_top):
            assert a_n_t(p, n, 12) == a_n_t_walk(p, n, 12), n

    def test_a_n_t4_window(self):
        p = torus_params(4)
        for qo in (3, 8):
            for n in range(24):
                assert a_n_t(p, n, qo) == a_n_t_walk(p, n, qo), (qo, n)


def _stable_window(p, q_order):
    """(K, S): the first summand index K = L from which the summands of M_t
    agree below q^L, and their slot count S = (m - 1)(J + 1) + 1."""
    return q_order, (p.m - 1) * (torus_mod._jmax(q_order) + 1) + 1


STABLE_CASES = [(2, 12), (3, 12), (4, 4)]


class TestStableSummand:
    """Past K every summand of M_t is the K-th one below q^L, and past
    (K - 1)m + S the coefficient a_{n,t} repeats with period m."""

    @pytest.mark.parametrize("t,qo", STABLE_CASES)
    def test_summands_equal_past_k(self, t, qo):
        p = torus_params(t)
        top, slots = _stable_window(p, qo)

        def summand(n):  # the end pools as series, every x-degree a slot
            ends = torus_mod._m_graded.__wrapped__(p, n, qo)
            assert max(ends) < slots
            return [torus_mod._series(ends.get(d), qo) for d in range(slots)]

        table = summand(top)
        for n in range(top, top + 3):
            assert summand(n) == table, n

    @pytest.mark.parametrize("t,qo", STABLE_CASES)
    def test_a_n_against_walk_past_period_start(self, t, qo):
        p = torus_params(t)
        top, slots = _stable_window(p, qo)
        for n in range(-1, (top - 1) * p.m + slots + 2 * p.m + 1):
            assert a_n_t(p, n, qo) == a_n_t_walk(p, n, qo), n

    @pytest.mark.parametrize("t,qo,most", [(2, 70, 71), (3, 20, 22)])
    def test_key_identity_dp_count(self, t, qo, most):
        # at most one DP per summand index k = 0..K
        p = torus_params(t)
        top, _ = _stable_window(p, qo + p.h_d)
        assert top + 1 == most
        b_sums.cache_clear()
        torus_mod._m_graded.cache_clear()
        assert verify_key_identity(t, qo).passed
        assert torus_mod._m_graded.cache_info().misses <= most

    @pytest.mark.parametrize("t,qo,n", [(2, 30, 11), (3, 20, 7), (4, 12, 5)])
    def test_cold_a_n_t_builds_no_window(self, t, qo, n, monkeypatch):
        # a_{n,t} alone runs the DPs of its summands k <= n/m, and only the
        # b-sums build the whole a-window
        p = torus_params(t)
        windows = count_windows(monkeypatch)
        b_sums.cache_clear()
        torus_mod._m_graded.cache_clear()
        a_n_t(p, n, qo)
        assert torus_mod._m_graded.cache_info().misses <= n // p.m + 1
        assert windows == []

    @pytest.mark.parametrize("t,xb,qo", [(2, 12, 30), (3, 8, 20)])
    def test_cold_rewrite_builds_no_window(self, t, xb, qo, monkeypatch):
        windows = count_windows(monkeypatch)
        b_sums.cache_clear()
        torus_mod._m_graded.cache_clear()
        assert verify_rewrite2(t, xb, qo).passed
        assert windows == []

    @pytest.mark.parametrize("t,xb,qo", [(2, 30, 3), (3, 20, 4), (3, 10, 24), (4, 12, 30)])
    def test_h_multisum_dp_count(self, t, xb, qo):
        # one DP per summand n <= n_top, and past n = work none at all
        p = torus_params(t)
        work, n_top = qo + p.h_d, (xb + p.h - 1) // p.m
        torus_mod._m_graded.cache_clear()
        H_multisum(p, xb, qo)
        assert torus_mod._m_graded.cache_info().misses == min(n_top, work) + 1


# (t, n, order): every order at every n up to a top per t; exact t = 5 stops
# at n = 3, the last summand whose exact DP stays on the int64 lane
GRADED_CASES = [(t, n, order) for t, top in ((2, 12), (3, 12), (4, 8), (5, 5))
                for n in range(top + 1) for order in (None, 10, 25)
                if not (t == 5 and order is None and n > 3)]


class TestGradedPools:
    """Summed over the x-degree d, the graded DP's end pools are the
    ungraded end pool (x -> 1), on the compiled lane and on the loop."""

    @pytest.mark.parametrize("lane", ["compiled", "loop"])
    @pytest.mark.parametrize("t,n,order", GRADED_CASES)
    def test_grades_sum_to_the_ungraded_pool(self, monkeypatch, lane, t, n, order):
        if lane == "loop":
            monkeypatch.setattr(torus_mod, "pool_dp", None)
        p = torus_params(t)
        facs = torus_mod._q_setup(n, order)
        total = IntSeries.zero(order)
        for pool in torus_mod._pool_dp(p, *facs, order, graded=True).values():
            total = total + torus_mod._series(pool, order)
        assert total.coeffs
        assert total == torus_mod._series(torus_mod._pool_dp(p, *facs, order), order)


class TestXqRows:
    """The factor rows of the DP are the coefficients of (x; q)_n, built by
    F_{n+1}[j] = F_n[j] - q^n F_n[j-1]; the signed Gaussian-binomial rows
    are the oracle."""

    @given(st.integers(0, 40), st.one_of(st.none(), st.integers(1, 60)))
    @settings(max_examples=300, deadline=None)
    def test_rows_are_signed_binomial_rows(self, n, order):
        row = torus_mod._xq_rows(order).row(n)
        if order is None:
            expect = q_factors(binom_row_trunc(n, n, n * n // 4 + 1), n)
        else:
            jmax = min(n, torus_mod._jmax(order))
            expect = [[lo, cs[:order - lo]]
                      for lo, cs in q_factors(binom_row_trunc(n, jmax, order), jmax)]
        assert [[lo, list(cs)] for lo, cs in row] == expect

    @pytest.mark.parametrize("order", [None, 1, 7, 30])
    def test_rows_read_in_any_order(self, order):
        # an exact table keeps two rows and rebuilds from F_0; a cut one
        # keeps rows 0..order and answers row order past it
        table = torus_mod._XqRows(order)
        for n in (9, 3, 4, 12, 0, 12, 40, 35):
            assert table.row(n) == torus_mod._XqRows(order).row(n), n
        if order is None:
            assert len(table.rows) <= 2
        else:
            assert len(table.rows) <= order + 1
            assert table.row(order + 5) is table.row(order)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_order_below_one_refused(self, bad):
        with pytest.raises(ValueError):
            torus_mod._xq_rows(bad)


class TestCutWalk:
    """The per-vector walk cuts a vector's products below q^(q_order - v),
    and H_multisum convolves the graded DP's summands, by x-degree, with
    (x)_{n+1}; the full-length walk and the per-term accumulation are the
    oracles."""

    @pytest.mark.parametrize("t,n_top,x_stop", [(2, 8, 30), (3, 5, 30), (4, 2, 30), (3, 4, 14)])
    @pytest.mark.parametrize("qo", [1, 2, 7, 25])
    def test_terms_are_full_terms_truncated(self, t, n_top, x_stop, qo):
        p = torus_params(t)
        for n in range(n_top + 1):
            got = [(x, torus_mod._series(pool, qo)) for x, pool in torus_mod._m_summand(p, n, x_stop, qo)]
            want = [(x, term.truncate(qo)) for x, term in m_summand_full(p, n, x_stop, qo)]
            assert got == want, n

    @pytest.mark.parametrize("t,xb,qo", [
        (2, 12, 30), (3, 10, 24), (3, 4, 7), (4, 6, 8), (2, 1, 1),
        (2, 30, 3), (3, 20, 4), (2, 40, 1), (4, 30, 2),  # summands past n = work
    ])
    def test_h_multisum_equals_per_term_accumulation(self, t, xb, qo):
        p = torus_params(t)
        assert H_multisum(p, xb, qo) == h_multisum_per_term(p, xb, qo)


class TestSlaterMultisum:
    @pytest.mark.parametrize("t,orders", [(2, (1, 2, 5, 40)), (3, (1, 3, 30)), (4, (1, 4, 18))])
    def test_against_per_vector_walk(self, t, orders):
        p = torus_params(t)
        for order in orders:
            assert slater_multisum(p, order) == slater_walk(p, order), order

    @pytest.mark.parametrize("order", [1, 2, 5, 16, 17, 30, 31, 40, 60, 90])
    def test_rows_are_unit_inverses(self, order, monkeypatch):
        # the factors (-1)^j q^C(j,2) / (q)_j come from one Gaussian-binomial
        # row, with no (x; q)_n table built, and equal that table's row
        # `order`; the generic unit inverse is the oracle
        seen = []
        real = torus_mod._pool_dp
        monkeypatch.setattr(torus_mod, "_pool_dp",
                            lambda p, fac_n, fac_np1, order: seen.append(fac_np1)
                            or real(p, fac_n, fac_np1, order))
        torus_mod._xq_rows.cache_clear()
        built = count_rows(monkeypatch)
        slater_multisum(torus_params(2), order)
        assert built == []
        (rows,) = seen
        assert rows == torus_mod._xq_rows(order).row(order)
        assert len(rows) == torus_mod._jmax(order) + 1
        for j, row in enumerate(rows):
            expect = invert_unit(pochhammer(1, j, order), order).shift(j * (j - 1) // 2)
            expect = expect.truncate(order).scale(-1 if j & 1 else 1)
            assert torus_mod._series(row, order) == expect, j


class TestWindowValidation:
    # an empty window compares nothing, so the builders refuse it up front
    @pytest.mark.parametrize("bad", [0, -1])
    @pytest.mark.parametrize("build,slot", [
        (lambda p, bad: a_n_t(p, 3, bad), "q_order"),
        (lambda p, bad: b_n(p, 3, bad), "q_order"),
        (lambda p, bad: M_series(p, bad, 5), "x_bound"),
        (lambda p, bad: M_series(p, 5, bad), "q_order"),
        (lambda p, bad: H_theta(p, bad, 5), "x_bound"),
        (lambda p, bad: H_theta(p, 5, bad), "q_order"),
        (lambda p, bad: H_multisum(p, bad, 5), "x_bound"),
        (lambda p, bad: H_multisum(p, 5, bad), "q_order"),
    ], ids=["a_n_t", "b_n_t", "M_series_x", "M_series_q", "H_theta_x", "H_theta_q",
            "H_multisum_x", "H_multisum_q"])
    def test_empty_window_raises(self, build, slot, bad):
        # the message names the one argument the case zeroes
        with pytest.raises(ValueError, match=f"^{slot} must be >= 1$"):
            build(torus_params(3), bad)
