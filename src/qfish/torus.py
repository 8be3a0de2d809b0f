"""Objects attached to the torus knots T(3, 2^t).

The integer parameter table, the congruence-constrained index vectors
appearing in the q-hypergeometric multisums, the Kontsevich-Zagier series
F_t(q; N), the colored Jones polynomial J_N(T(3, 2^t); q), and the
two-variable series H_t(x, q) and M_t(x, q) with their coefficient
sequences a_{n,t}, b_{n,t}.  The multisums run through one inner-sum
dynamic program (below); J_N does not, it comes from the closed form for
torus knots, so the root-of-unity match compares two independent routes.

Index-vector convention: jv is a tuple (j_1, .., j_{m-1}), m = 2^(t-1),
admissible when 3 * sum j_l * l == 1 (mod m), equivalently sum j_l * l == a
(mod m).  The sign (-1)^(sum j_l) is always included alongside q^v; at a
root of unity this is forced by the colored Jones match, and it is what
makes the 1-q expansions start with +1.

For t = 1 there are no indices at all: the single empty vector carries
v = -a(1) = -1, and the general formulas collapse to F(q) = sum (q)_n and
to the trefoil Jones polynomial.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from itertools import accumulate
from operator import add, neg, sub

from .backend import mul_trunc, pool_dp
from .cyclotomic import CycInt, cyc_eval
from .qseries import binom_row_trunc, theta_spec_t
from .series import (IntSeries, Record, exact_over_one_minus_qk, int_arg, pool_add, pool_cover,
                     require, times_one_minus_qk)

__all__ = ["H_multisum", "H_theta", "M_series", "TorusParams", "a_n_t", "admissible_jvectors",
           "colored_jones", "kz_at_root_of_unity", "kz_full_polynomial", "torus_params"]


class TorusParams(Record):
    """Integer invariants of T(3, 2^t): m = 2^(t-1), h = 2^t - 2, and the
    parity-split values h'' (sign exponent), h' (global q-shift), a
    (congruence offset)."""

    __slots__ = ("t", "m", "h_dd", "h_d", "a", "h")

    @property
    def sign(self) -> int:
        return -1 if self.h_dd & 1 else 1


def torus_params(t: int) -> TorusParams:
    t = int_arg(t, "t", 1)
    p2 = 2**t
    if t % 2 == 0:
        nums = (p2 - 1, p2 - 4, 2 ** (t - 1) + 1)
    else:
        nums = (p2 - 2, p2 - 5, p2 + 1)
    if any(x % 3 for x in nums):
        raise ArithmeticError("parameter formulas failed to be integral")
    h_dd, h_d, a = (x // 3 for x in nums)
    p = TorusParams(t, 2 ** (t - 1), h_dd, h_d, a, p2 - 2)
    if t >= 2 and (3 * p.a) % p.m != 1 % p.m:
        raise ArithmeticError("3a != 1 (mod m); exponent integrality would fail")
    return p


def _check_params(p) -> None:
    """Refuse a p that is not the TorusParams of some t."""
    require(p, TorusParams, "p", "; pass torus_params(t)")


def admissible_jvectors(
    p: TorusParams, j_cap: int, v_cap: int | None = None
) -> Iterator[tuple]:
    """Stream of (jv, v) over admissible vectors with every j_l <= j_cap and,
    when v_cap is given, v < v_cap.

    Depth-first over l = 1..m-1 tracking the weighted sum mod m and a lower
    bound on v; branches whose partial v already reaches v_cap are pruned,
    and the last coordinate steps directly through its admissible residue
    class (m-1 is odd, hence invertible mod m = 2^(t-1)).
    """
    _check_params(p)
    j_cap = int_arg(j_cap, "j_cap")
    v_cap = None if v_cap is None else int_arg(v_cap, "v_cap")
    m = p.m
    if j_cap < 0:
        return
    if m == 1:
        v = -p.a  # the empty vector
        if v_cap is None or v < v_cap:
            yield (), v
        return
    inv = pow(m - 1, -1, m)
    jv = [0] * (m - 1)

    def rec(level: int, total: int, csum: int) -> Iterator[tuple]:
        if level == m - 1:
            j0 = ((p.a - total) * inv) % m
            for j in range(j0, j_cap + 1, m):
                v = (total + j * (m - 1) - p.a) // m + csum + j * (j - 1) // 2
                if v_cap is not None and v >= v_cap:
                    break  # v is increasing in the last coordinate
                jv[level - 1] = j
                yield tuple(jv), v
            return
        for j in range(j_cap + 1):
            cs = csum + j * (j - 1) // 2
            t2 = total + j * level
            if v_cap is not None:
                floor_part = -((p.a - t2) // m)  # ceil((t2 - a)/m), <= any completion
                if cs + max(0, floor_part) >= v_cap:
                    break  # both parts only grow with j
            jv[level - 1] = j
            yield from rec(level + 1, t2, cs)

    yield from rec(1, 0, 0)


# -- the aggregated inner sum ------------------------------------------------
#
# Every term of the Kontsevich-Zagier multisum needs, for fixed n,
#
#     G_n(q) = sum'_{jv} (-1)^(sum j) q^(v(jv)) sum_{k=0}^{m-1}
#                  prod_l [n + I(l<=k), j_l]_q,
#
# with v(jv) = (T - a)/m + sum_l C(j_l, 2) and T = sum_l l j_l.  The j_l are
# coupled only through T mod m, so rather than walking index vectors one at
# a time, _pool_dp runs a dynamic program over (level l, residue r = T mod m),
# keeping per state the pair
#   A = contribution of completions whose k lies at or beyond the level
#       (all binomial tops n+1 so far),
#   S = contribution already committed to some k below the level.
# The pools carry q^floor(T/m) themselves: a step by j from residue r at
# level l lands on residue (r + l j) mod m and multiplies by
# q^((r + l j) div m).  The start pool is q^(-floor(a/m)) (q^0 for t >= 2,
# where a < m, and the q^(-1) of t = 1, which has no levels), so on the
# admissible class T = a (mod m) a pool holds exactly q^((T - a)/m).
# A level step costs two multiplications per (state, j): S + A times the
# factor f_n[j], and A times f_np1[j].  On the last level j runs only
# through the residue class that lands on r = a mod m, so the end is the one
# state there, S + A.  The aggregation is valid because both pools are
# linear in the summands.  Pools and factors are lists [lo, coeffs] carrying
# their own low exponent, and the factors arrive as data, with `lift`
# applying the step's power of q; each lifted pair (f_n[j], f_np1[j]) is
# built once per (j, shift) within one DP run:
#   - q-series (kz_inner_sum, a_n_t): f[j] = (-1)^j q^C(j,2) [n(+1), j]_q,
#     the coefficient of x^j in (x; q)_n (resp. (x; q)_{n+1}) by the
#     q-binomial theorem, read off the rows of _XqRows (below); lifted by
#     moving its low exponent.
#   - the image of q -> 1-q (inner_sums_at_one_minus_q, for the oracle
#     qfish.fishburn.xi_series): the same f[j] at q -> 1-q, built by the
#     step of _XqRows (_row_step) with the DP's own lift, a product with
#     (1-q)^shift; every low exponent is 0.
#   - the generalized Slater sum: f_n all None (A pools only), f_np1[j] =
#     (-1)^j q^C(j,2) / (q)_j, the x^j coefficient of (x; q)_inf (Euler),
#     which below q^order is row `order` of the same table, read off one
#     Gaussian-binomial row without building the table (slater_multisum).
# Graded mode also keys by the x-degree d = sum j + k of M_t: the state key
# is r + m d.  A step by j adds j to d, and A gains one more per level until
# k is fixed (on the A -> S step at level l = k + 1, or at the end for
# k = m - 1); the end pools come back keyed by d.  Every product is cut below
# one q^order (None = exact), which is honest because exponents never fall
# along a path: lifts and factor lows are >= 0.
#
# For the q-series lift the whole DP is one call to backend.pool_dp where the
# compiled extension is built: the same steps on int64 arrays, whose q-lift
# moves a low exponent.  Most of its products are tiny (8.5 coefficients on
# average over the 22 graded summands at t = 3, order 21), so one C call
# replaces thousands of kernel calls and their Python glue.  It returns
# NotImplemented where a coefficient, a product (the mul_trunc bound
# max|a| max|b| overlap < 2^62) or a checked add leaves int64, and the Python
# loop below then runs.  The loop is the DP on the pure lane, for the
# (1-q)-power lift and for big integers, and the tests' reference.
#
# In the loop, a step's product goes straight into its destination pool:
# _acc_mul grows the pool's list once to cover the product's exponents
# (series.pool_cover), and one kernel call mul_trunc(src, f, n, pool, off)
# adds the product into it, so no product list is built and no Python loop
# adds it.  A state's S + A, and the end S + A, is added into its S pool in
# place (series.pool_add).  Every pool the DP writes is private to its run,
# and the factors are only read, so the in-place adds are safe; so are the
# adds into the fresh pools of M_series and H_theta, of a_n_t and of the
# a-window.  The G_n that callers ask for again are immutable
# IntSeries kept in kz_inner_sum's bounded lru_cache, so a process builds
# each once (kz_tail_sum reads the cut ones).  The graded summands of M_t
# stay end pools, summed into a_{n,t} by a_n_t for its own n and, for every
# n at once, into the a-window (_a_window) that b_sums reads, and convolved
# with (x)_{n+1} by H_multisum.


def _acc_mul(dst, src, f, lim):
    """dst + src * f for pools [lo, coeffs] (None is zero), the product cut
    below q^lim (None = exact).  dst is updated in place: it grows to cover
    the product, which the kernel then adds into it."""
    lo = src[0] + f[0]
    a, b = src[1], f[1]
    n = len(a) + len(b) - 1 if a and b else 0
    if lim is not None and lim - lo < n:
        n = lim - lo
    if n <= 0:
        return dst
    if dst is None:
        return [lo, mul_trunc(a, b, n)]
    off = pool_cover(dst, lo, n)
    mul_trunc(a, b, n, dst[1], off)
    return dst


def _q_lift(f, s):
    """The q-series factor pool f times q^s."""
    return [f[0] + s, f[1]]


def _pool_dp(p: TorusParams, fac_n: list, fac_np1: list, order, graded: bool = False,
             lift=_q_lift):
    """The end pool (None is zero) of the (S, A)-pool DP described above, or
    with graded, {d: end pool} by x-degree.

    fac_np1[j] is the factor pool for [n+1, j], j = 0..jmax; fac_n[j] is the
    one for [n, j] or None where [n, j] vanishes.  lift(f, s) is the factor
    f times q^s in the factors' domain.  Every product is cut below q^order
    (None = exact); the lifted factor low exponents must then not decrease
    in j, as one at or past the order ends the j-loop.  The factors are
    only read; every pool the DP writes into is its own.  With the q-lift
    the compiled pool_dp answers when it can (see above).
    """
    if lift is _q_lift and pool_dp is not None:
        ends = pool_dp(p.m, p.a, fac_n, fac_np1, order, graded)
        if ends is not NotImplemented:
            return ends
    m = p.m
    inv = pow(m - 1, -1, m)  # m - 1 is odd, hence invertible mod m = 2^(t-1)
    dm = m if graded else 0
    states = {0: [None, [-(p.a // m), [1]]]}
    lifted: dict = {}
    for level in range(1, m):
        nxt: dict = {}
        for key, (s_pool, a_pool) in states.items():
            r = key % m
            sa = pool_add(s_pool, a_pool)
            # on the last level only the steps landing on r = a (mod m) are kept
            j0, jstep = (((p.a - r) * inv) % m, m) if level == m - 1 else (0, 1)
            for j in range(j0, len(fac_np1), jstep):
                s, r2 = divmod(r + level * j, m)
                fs = lifted.get((j, s)) if s else (fac_n[j], fac_np1[j])
                if fs is None:
                    fn = fac_n[j]
                    fs = lifted[j, s] = (fn and lift(fn, s), lift(fac_np1[j], s))
                fn, fp = fs
                if order is not None and fp[0] >= order:
                    break  # lifted factor lows rise with j
                k2 = key - r + r2 + dm * j
                if sa is not None and fn is not None:
                    ent = nxt.get(k2) or nxt.setdefault(k2, [None, None])
                    ent[0] = _acc_mul(ent[0], sa, fn, order)
                if a_pool is not None:
                    ent = nxt.get(k2 + dm) or nxt.setdefault(k2 + dm, [None, None])
                    ent[1] = _acc_mul(ent[1], a_pool, fp, order)
        states = nxt
    ends = {key // m: pool_add(*pools) for key, pools in states.items()}
    return ends if graded else ends.get(0)


def _jmax(q_order: int) -> int:
    """The largest j with C(j, 2) < q_order.  An admissible vector with
    v < q_order has every j_l <= _jmax(q_order), because v >= C(j_l, 2)."""
    j = 1
    while (j + 1) * j // 2 < q_order:
        j += 1
    return j


def _row_step(prev: list, n: int, cut, lift) -> list:
    """Row n + 1 of (x; X)_n = sum_j F_n[j] x^j from row n, prev:
    F_{n+1}[j] = F_n[j] - X^n F_n[j-1] for j = 1..len(prev), F_n[n+1] = 0,
    where lift(f, n) is X^n f, the lift _pool_dp takes.  Every entry is cut
    below q^cut (None = exact): one whose X^n term starts at or past the cut
    is shared with prev, and a new top entry past the cut is dropped.  The
    entries of prev are only read."""
    row = [prev[0]]
    for j, f in enumerate(prev, 1):
        lo, cs = lift(f, n)
        if cut is not None:
            if lo >= cut:  # F_{n+1}[j] = F_n[j] below the cut; no new top entry
                row += prev[j:j + 1]
                continue
            cs = cs[:cut - lo]
        ent = [prev[j][0], prev[j][1][:cut and cut - prev[j][0]]] if j < len(prev) else [lo, []]
        row.append(pool_add(ent, [lo, cs], sub))
    return row


class _XqRows:
    """The rows of (x; q)_n = sum_j F_n[j] x^j, F_n[j] = (-1)^j q^C(j,2)
    [n, j]_q, for one order: row n holds the factor pools [C(j, 2), coeffs]
    for the j with C(j, 2) below the order, each cut below q^order (None =
    exact, every j <= n), built by _row_step with the q-lift.

    A cut table keeps rows 0..order: from n = order on the q^n term lies
    past the cut, so every later row is row order.  An exact table keeps
    only its newest two rows (row n holds about n^3/6 coefficients) and
    rebuilds an earlier one from F_0 = 1.  The entries are only read.
    """

    __slots__ = ("order", "n0", "rows")

    def __init__(self, order):
        self.order = order
        self.n0, self.rows = 0, [[[0, [1]]]]

    def row(self, n: int) -> list:
        """Row n (n >= 0)."""
        if self.order is not None:
            n = min(n, self.order)
        if n < self.n0:
            self.n0, self.rows = 0, [[[0, [1]]]]
        while (top := self.n0 + len(self.rows) - 1) < n:
            self.rows.append(_row_step(self.rows[-1], top, self.order, _q_lift))
            if self.order is None and len(self.rows) > 2:
                del self.rows[0]
                self.n0 += 1
        return self.rows[n - self.n0]


@lru_cache(maxsize=8, typed=True)
def _xq_rows(order) -> _XqRows:
    """The (x; q)_n table at order (None = exact).  The cache is typed and
    the order goes through int_arg, so 9.0 never reads the table of 9."""
    return _XqRows(None if order is None else int_arg(order, "order", 1))


def _q_setup(n: int, order) -> tuple:
    """(fac_n, fac_np1) of the n-th q-series summand, truncated below
    ``order`` (None = exact): rows n and n + 1 of the (x; q)_n table, the
    first padded with None for [n, n + 1] = 0."""
    xq = _xq_rows(order)
    fac_n, fac_np1 = xq.row(n), xq.row(n + 1)
    return fac_n + [None] * (len(fac_np1) - len(fac_n)), fac_np1


def _series(pool, order) -> IntSeries:
    """The pool [lo, coeffs] (None is zero) as an IntSeries cut below order
    (None = exact)."""
    return IntSeries.make(*pool, order) if pool else IntSeries.zero(order)


@lru_cache(maxsize=32, typed=True)
def _m_graded(p: TorusParams, n: int, q_order: int) -> dict:
    """The n-th summand of M_t by x-degree, as the DP's end pools: the pool
    at d (None is zero) is the coefficient of x^(nm + d), cut below
    q^q_order.  Every d is a sum j + k with j_l <= jmax = min(n + 1, J), so
    d < (m - 1)(jmax + 1) + 1.  The pools are only read."""
    return _pool_dp(p, *_q_setup(n, q_order), q_order, graded=True)


def slater_multisum(p: TorusParams, order: int) -> IntSeries:
    """sum'_{jv} (-1)^(sum j) q^v / prod_l (q)_{j_l}, cut below q^order: the
    DP with A pools only.  Its factors (-1)^j q^C(j,2) / (q)_j, j <= J =
    _jmax(order), are the coefficients of (x; q)_inf.  Below q^order,
    [order + J, j] is 1/(q)_j (they differ from q^(order + J - j + 1) on),
    so one Gaussian-binomial row gives them all, each signed and placed at
    q^C(j, 2) and cut below q^order: row ``order`` of the (x; q)_n table,
    without the table."""
    big_j = _jmax(order)
    fac = [[j * (j - 1) // 2, [-c if j & 1 else c for c in row[:order - j * (j - 1) // 2]]]
           for j, row in enumerate(binom_row_trunc(order + big_j, big_j, order))]
    return _series(_pool_dp(p, [None] * len(fac), fac, order), order)


@lru_cache(maxsize=256, typed=True)
def kz_inner_sum(p: TorusParams, n: int, order) -> IntSeries:
    """G_n(q) as an IntSeries (exact when order is None): the end pool of
    the DP on the _q_setup factors of the n-th q-series summand.  t = 1 has
    no levels, so the DP returns its start pool q^(-1) and no factor row is
    built."""
    return _series(_pool_dp(p, *(_q_setup(n, order) if p.m > 1 else ((), ())), order), order)


def inner_sums_at_one_minus_q(p: TorusParams, pw: list, count: int) -> Iterator[list]:
    """q^(a div m) G_n(q) at q -> 1-q for n = 0 .. count - 1, each a list
    from q^0 cut below q^(count - n).  For t >= 2 (a < m) that is G_n(1-q),
    the DP on the rows of (x; 1-q)_n, whose step and whose DP lift each q^s
    to (1-q)^s through one lift; t = 1 has no levels, and its G_n = q^(-1)
    gives 1.  pw[e] is (1-q)^e cut no lower than q^count, for e <= n + 1 at
    the n-th sum."""
    row = [[0, [1]]]  # F[0]
    for n in range(count):
        if p.m == 1:
            yield [1]
            continue
        order = count - n
        lift = lambda f, s: [0, mul_trunc(pw[s], f[1], order)]  # (1-q)^s f
        row_next = _row_step(row, n, order, lift)
        pool = _pool_dp(p, row + [None], row_next, order, lift=lift)
        yield pool[1] if pool else []
        row = row_next


def kz_full_polynomial(p: TorusParams, n_top: int) -> IntSeries:
    """F_t(q; N) = sign * q^(-h') * sum_{n=0}^{N} (q)_n G_n(q) as an exact
    Laurent polynomial (no truncation anywhere).  Laurent for every t >= 3
    (min exponent -h' = -1, -4, -9 at t = 3, 4, 5); for t = 1 this is
    sum (q)_n.

    The sum runs by Horner's rule, G_0 + (1 - q)(G_1 + (1 - q^2)(G_2 + ..
    + (1 - q^N) G_N)): one 1 - q^(n+1) pass and one add of G_n per n, and
    no product.  The G_n are asked for in ascending order first, because
    the exact (x; q)_n table keeps only its newest two rows.
    """
    _check_params(p)
    n_top = int_arg(n_top, "N", 0)
    inners = [kz_inner_sum(p, n, None) for n in range(n_top + 1)]
    acc = [inners[-1].min_exp, list(inners[-1].coeffs)]
    for n in range(n_top - 1, -1, -1):
        acc[1].extend([0] * (n + 1))
        times_one_minus_qk(acc[1], n + 1)
        pool_add(acc, [inners[n].min_exp, inners[n].coeffs])
    lo, cs = acc
    return IntSeries.make(lo - p.h_d, cs if p.sign > 0 else map(neg, cs))


def kz_tail_sum(p: TorusParams, eul: IntSeries) -> IntSeries:
    """sum_n ((q)_n - (q)_inf) G_n(q), the key identity's first multisum
    term, cut below q^work, where eul is (q)_inf cut there.  (q)_n -
    (q)_inf = O(q^(n+1)), so the sum ends at n = work - 2; each product is
    added into one pool (_acc_mul)."""
    work = eul.order
    total = None
    poch = [1] + [0] * (work - 1)  # (q)_n below q^work
    for n in range(work + 1):
        if n:
            times_one_minus_qk(poch, n)
        diffp = list(map(sub, poch[n + 1:], eul.coeffs[n + 1:]))
        if n and not any(diffp):
            break
        inner = kz_inner_sum(p, n, work)
        total = _acc_mul(total, [n + 1, diffp], [inner.min_exp, inner.coeffs], work)
    return _series(total, work)


def colored_jones(p: TorusParams, big_n: int) -> IntSeries:
    """J_N(T(3, r); q), r = 2^t, as an exact Laurent polynomial,
    J_N(unknot) = 1, from the closed form for torus knots (Rosso-Jones,
    "On the invariants of torus knots derived from quantum groups", 1993;
    Morton, "The coloured Jones function and Alexander polynomial for torus
    knots", 1995):

        (q^(N/2) - q^(-N/2)) J_N(q) = q^(-3r(N^2-1)/4)
            sum_{k=-(N-1)/2}^{(N-1)/2} sum_{eps=+-1} eps q^(3rk^2 + (3+eps r)k + eps/2),

    k stepping by 1 (half-integers for even N).  Times q^(N/2) every
    exponent is an integer: with K = 2k, four times it is
    2N - 3r(N^2 - 1) + 3rK^2 + 2(3 + eps r)K + 2 eps, checked to be divisible
    by 4.
    The 2N monomials, negated, are then divided by 1 - q^N, checked exactly.
    One formula covers every t; no inner-sum DP, kernel product or
    Gaussian-binomial row is involved.
    """
    _check_params(p)
    big_n = int_arg(big_n, "N", 1)
    r = 2**p.t
    base = 2 * big_n - 3 * r * (big_n * big_n - 1)
    terms = []
    for k2 in range(1 - big_n, big_n, 2):
        for eps in (1, -1):
            x4 = base + 3 * r * k2 * k2 + 2 * (3 + eps * r) * k2 + 2 * eps
            if x4 % 4:
                raise ArithmeticError("Morton exponent failed to be integral")
            terms.append((x4 // 4, -eps))
    num = IntSeries.from_terms(terms)
    coeffs = list(num.coeffs)
    if not exact_over_one_minus_qk(coeffs, big_n):
        raise ArithmeticError("1 - q^N does not divide the sum")
    return IntSeries.make(num.min_exp, coeffs)


def kz_at_root_of_unity(p: TorusParams, big_n: int) -> CycInt:
    """F_t(zeta_N) evaluated exactly in Z[zeta_N].

    (q)_n vanishes at zeta_N from n = N on, so the exact partial sum
    F_t(q; N-1) evaluated at zeta_N is the whole value.
    """
    big_n = int_arg(big_n, "N", 1)
    return cyc_eval(kz_full_polynomial(p, big_n - 1), big_n)


# -- the two-variable series -------------------------------------------------
#
# H_theta, H_multisum and M_series return a tuple of x_bound IntSeries
# columns: index j is the coefficient of x^j, cut below q^q_order.


def _check_window(p: TorusParams, x_bound: int, q_order: int) -> tuple:
    """The checked (x_bound, q_order): t < 2 and an empty window, which would
    pass with nothing compared, are refused."""
    _check_params(p)
    if p.t < 2:
        raise ValueError("the two-variable series and a_{n,t} need t >= 2")
    return int_arg(x_bound, "x_bound", 1), int_arg(q_order, "q_order", 1)


def _check_cancelled(cols: dict, low: int) -> None:
    """The pools by x-degree ``cols`` (None is zero) stand before an x^(-low)
    prefactor, which must cancel: a nonzero pool below x-degree low is
    refused rather than assumed away."""
    for e, pool in cols.items():
        if e < low and pool and any(pool[1]):
            raise ArithmeticError(f"nonzero coefficient at negative x-degree {e - low}")


def H_theta(p: TorusParams, x_bound: int, q_order: int) -> tuple:
    """H_t(x, q) = sum_{n>=0} chi_t(n) q^((n^2-(2^(t+1)-3)^2)/(3*2^(t+2)))
    x^((n-(2^(t+1)-3))/2), truncated in both variables: the terms of
    P^(0), each a monomial pool at its x-degree below x_bound.  A term at
    a negative x-degree is refused (_check_cancelled with low = 0)."""
    x_bound, q_order = _check_window(p, x_bound, q_order)
    n0 = 2 ** (p.t + 1) - 3
    cols: dict = {}  # x-degree -> pool
    for n, sign, qe in theta_spec_t(p.t, 0).terms(q_order):
        if (d := (n - n0) // 2) < x_bound:
            cols[d] = pool_add(cols.get(d), [qe, [sign]])
    _check_cancelled(cols, 0)
    return tuple(_series(cols.get(d), q_order) for d in range(x_bound))


def _m_summand(p: TorusParams, n: int, x_stop: int, q_order: int) -> Iterator[tuple]:
    """(x-degree, pool) terms of the n-th summand of M_t,

        x^(nm) sum'_{jv} (-x)^(sum j) q^v sum_k x^k prod_l [n + I(l<=k), j_l],

    with x-degree < x_stop and each pool [v, coeffs] cut below q^q_order.
    The k-sum reads prefix products over tops n+1 and suffix products over
    tops n.  Only M_series keeps this per-vector walk, on purpose: in
    verify_rewrite2 it is the side independent of a_n_t, which reads the
    graded DP (as H_multisum does, whose independent partner in the
    difference equation is the theta form).  A vector's products are cut
    below q^(q_order - v): past that nothing survives its q^v shift.  Every
    row starts with q^0 and has positive coefficients, so every product is
    a nonempty list from q^0 unless a row [n, n+1] = 0 enters it.
    """
    jmax = min(n + 1, _jmax(q_order))
    b_n = binom_row_trunc(n, min(n, jmax), q_order) + ((),)  # [n, n+1] = 0, read only when jmax = n+1
    b_np1 = binom_row_trunc(n + 1, jmax, q_order)
    for jv, v in admissible_jvectors(p, j_cap=n + 1, v_cap=q_order):
        sj = sum(jv)
        w = q_order - v
        pre = [(1,)]
        for l in range(1, p.m):
            pre.append(mul_trunc(pre[-1], b_np1[jv[l - 1]], w))
        sufs = [(1,)] * p.m
        for k in range(p.m - 2, -1, -1):
            sufs[k] = mul_trunc(sufs[k + 1], b_n[jv[k]], w)
        for k in range(p.m):
            x_deg = n * p.m + sj + k
            if x_deg >= x_stop:
                break
            cs = mul_trunc(pre[k], sufs[k], w)
            if cs:
                yield x_deg, [v, [-c for c in cs] if sj & 1 else cs]


def H_multisum(p: TorusParams, x_bound: int, q_order: int) -> tuple:
    """The multisum side of H_t:

        sign * q^(-h') x^(-h) sum_n (x)_{n+1} x^(nm)
            sum'_{jv} (-x)^(sum j) q^v sum_k x^k prod_l [n + I(l<=k), j_l],

    that is sign * q^(-h') x^(-h) times the n-th summand of M_t convolved
    with (x)_{n+1}.  The summand comes by x-degree from the graded DP
    (_m_graded), and past n = work, the working order, it is summand work
    (a_n_t has why); the columns of (x)_{n+1} = (x; q)_{n+1} are the rows
    of the factor table.  The x^(-h) prefactor must cancel: negative
    x-degrees are accumulated and checked by _check_cancelled with low = h.
    """
    x_bound, q_order = _check_window(p, x_bound, q_order)
    work = q_order + p.h_d
    top = x_bound + p.h  # x-degrees before the x^(-h) shift stay below top
    xq = _xq_rows(work)
    cols: dict = {}  # x-degree before the shift -> pool
    n = 0
    while n * p.m - p.h < x_bound:
        poch = xq.row(n + 1)
        for d, pool in _m_graded(p, min(n, work), work).items():
            x_deg = n * p.m + d
            if pool and x_deg < top:
                for e, col in enumerate(poch[:top - x_deg], x_deg):
                    cols[e] = _acc_mul(cols.get(e), pool, col, work)
        n += 1
    _check_cancelled(cols, p.h)
    return tuple(_series(cols.get(e + p.h), work).shift(-p.h_d).scale(p.sign)
                 for e in range(x_bound))


def M_series(p: TorusParams, x_bound: int, q_order: int) -> tuple:
    """M_t(x, q) = sum_n x^(nm) sum'_{jv} (-x)^(sum j) q^v sum_k x^k prod_l [...]."""
    x_bound, q_order = _check_window(p, x_bound, q_order)
    cols: dict = {}  # x-degree -> pool
    n = 0
    while n * p.m < x_bound:
        for x_deg, term in _m_summand(p, n, x_bound, q_order):
            cols[x_deg] = pool_add(cols.get(x_deg), term)
        n += 1
    return tuple(_series(cols.get(d), q_order) for d in range(x_bound))


def _a_stable(p: TorusParams, q_order: int) -> int:
    """(L - 1)m + S, L = q_order: from here on a_{n,t} depends only on n mod m
    (see a_n_t)."""
    return (q_order - 1) * p.m + (p.m - 1) * (_jmax(q_order) + 1) + 1


def _a_window(p: TorusParams, q_order: int) -> list:
    """a[n] = a_{n,t} for every n <= stable + m, cut below q^q_order (see
    a_n_t), as dense coefficient lists over q^0 .. q^(q_order-1), built in
    one pass over the graded summands: the end pool at x-degree d of
    summand k lands on a_{km+d}."""
    m = p.m
    count = _a_stable(p, q_order) + m + 1
    a = [[0] * q_order for _ in range(count)]
    for k in range((count - 1) // m + 1):
        for d, pool in _m_graded(p, min(k, q_order), q_order).items():
            if k * m + d < count:
                pool_add([0, a[k * m + d]], pool)
    return a


def a_n_t(p: TorusParams, n: int, q_order: int) -> IntSeries:
    """a_{n,t}(q): the x^n coefficient of M_t, the sum of slot n - km of the
    graded summands k <= n/m.

    Below q^L, L = q_order, the summands stop depending on k from K = L on:
    the DP reads the factor [k, j] only below q^(L - C(j,2)), and [k, j] is
    1/(q)_j below q^(k - j + 1), which for k >= L lies at or above that
    (C(j, 2) >= j - 1).  So summand L stands for every k >= L.  Its
    S = (m - 1)(J + 1) + 1 slots, J = _jmax(L), fill the window of every
    n >= (L - 1)m + S, so a_{n,t} depends only on n mod m there and is read
    from the first such n in its class.
    """
    _, q_order = _check_window(p, 1, q_order)
    n = int_arg(n, "n")
    stable = _a_stable(p, q_order)
    if n >= stable + p.m:
        n = stable + (n - stable) % p.m
    acc = [0, [0] * q_order]
    for k in range(n // p.m + 1):
        pool_add(acc, _m_graded(p, min(k, q_order), q_order).get(n - k * p.m))
    return IntSeries.make(*acc, q_order)


@lru_cache(maxsize=32, typed=True)
def b_sums(p: TorusParams, work: int) -> tuple:
    """(sum_n b_{n,t}, sum_n (n - h) b_{n,t}) over every n, truncated below
    work; the cutoff n_cut, the first n past h that ends 2m consecutive
    vanishing terms; and whether the sums to n_cut and to 2 n_cut agree.

    No b-term is built: b_n = a_n - a_{n-1} (a_{-1} = 0) vanishes exactly
    when a_n == a_{n-1}, and the sums to N are closed forms in the a_n,

        sum_{n<N} b_n = a_{N-1},
        sum_{n<N} (n - h) b_n = (N - 1 - h) a_{N-1} - sum_{n<N-1} a_n.

    From stable = _a_stable(p, work) on, a_n depends only on n mod m, so a
    nonzero b_n in the period stable + 1 .. stable + m recurs in every
    period and the sums diverge (ArithmeticError).  Otherwise b_n = 0 past
    stable, and the sums over every n are those to N = stable + 1.  They
    equal those of summing the b-terms one by one, which
    tests/test_identities.py keeps as the oracle.  The answer is cached,
    and each miss reads the a_n off a fresh a-window (_a_window).
    """
    m = p.m
    stable = _a_stable(p, work)
    a = _a_window(p, work)
    if any(an != a[stable] for an in a[stable + 1:stable + m + 1]):
        raise ArithmeticError("b_{n,t} sum failed to stabilize")
    run = n = 0
    prev = [0] * work  # a_{-1} = 0
    while run < 2 * m or n <= p.h:
        cur = a[min(n, stable)]
        run = run + 1 if cur == prev else 0
        prev, n = cur, n + 1
    n_cut = n
    sums = list(accumulate(a[:stable], lambda s, x: list(map(add, s, x)), initial=[0] * work))
    out = []
    for top in (n_cut - 1, 2 * n_cut - 1, stable):  # the sums to N = top + 1
        done, past = min(top, stable), max(top - stable, 0)
        tw = [(top - p.h) * x - s - past * y for x, s, y in zip(a[done], sums[done], a[stable])]
        out.append((IntSeries.make(0, a[done], work), IntSeries.make(0, tw, work)))
    return (*out[2], n_cut, out[0] == out[1])
