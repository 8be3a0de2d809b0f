"""Objects attached to the torus knots T(3, 2^t).

The integer parameter table, the congruence-constrained index vectors
appearing in the q-hypergeometric multisums, the Kontsevich-Zagier series
F_t(q; N), the colored Jones polynomial J_N(T(3, 2^t); q), and the
two-variable series H_t(x, q) and M_t(x, q) with their coefficient
sequences a_{n,t}, b_{n,t}.

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

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .backend import mul, mul_trunc
from .biseries import BiAccumulator, BiSeries
from .cyclotomic import CycInt, cyc_eval
from .qseries import binom_row, binom_row_trunc, chi_t, q_binomial
from .series import IntSeries


@dataclass(frozen=True, slots=True)
class TorusParams:
    """Integer invariants of T(3, 2^t): m = 2^(t-1), h = 2^t - 2, and the
    parity-split values h'' (sign exponent), h' (global q-shift), a
    (congruence offset)."""

    t: int
    m: int
    h_dd: int
    h_d: int
    a: int
    h: int

    @property
    def sign(self) -> int:
        return -1 if self.h_dd & 1 else 1


def torus_params(t: int) -> TorusParams:
    if t < 1:
        raise ValueError("t must be >= 1")
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


def v_exponent(jv: tuple, p: TorusParams) -> int:
    """v(jv) = (sum j_l l - a)/m + sum C(j_l, 2); integral iff jv is admissible."""
    total = sum(j * l for l, j in enumerate(jv, start=1))
    num = total - p.a
    if num % p.m:
        raise ValueError("inadmissible index vector: weighted sum fails the congruence")
    return num // p.m + sum(j * (j - 1) // 2 for j in jv)


def admissible_jvectors(
    p: TorusParams, j_cap: int, v_cap: Optional[int] = None
) -> Iterator[tuple]:
    """Stream of (jv, v) over admissible vectors with every j_l <= j_cap and,
    when v_cap is given, v < v_cap.

    Depth-first over l = 1..m-1 tracking the weighted sum mod m and a lower
    bound on v; branches whose partial v already reaches v_cap are pruned,
    and the last coordinate steps directly through its admissible residue
    class (m-1 is odd, hence invertible mod m = 2^(t-1)).
    """
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
#                  prod_l [n + I(l<=k), j_l]_q.
#
# Rather than walking index vectors one at a time, the engine runs a dynamic
# program over (level l, exact weighted sum T), keeping per state the pair
#   A = contribution of completions whose k lies at or beyond the level
#       (all binomial tops n+1 so far),
#   S = contribution already committed to some k below the level.
# One level step costs two truncated multiplications per (state, j), and the
# congruence filter plus the q^((T-a)/m) shift are applied once at the end.
# The aggregation is valid because both pools are linear in the summands.
#
# The colored Jones polynomial needs the same sum with the extra weight
# q^(-N (sum j + k)): q^(-N j) joins the per-coordinate shift, and q^(-N k)
# is paid where k is fixed, on the A -> S step at level l (k = l - 1) and
# on the final A pool (k = m - 1).  Those shifts are negative, so each pool
# is a list [lo, coeffs] carrying its own low exponent.


def _acc_mul(dst, src, b, shift: int, sign: int, lim):
    """dst + sign * q^shift * src * b, products cut below q^lim (None = exact)."""
    lo = src[0] + shift
    if lim is None:
        prod = mul(src[1], b)
    else:
        prod = mul_trunc(src[1], b, lim - lo)
    if not prod:
        return dst
    if dst is None:
        return [lo, prod if sign > 0 else [-c for c in prod]]
    coeffs = dst[1]
    if lo < dst[0]:
        coeffs[:0] = [0] * (dst[0] - lo)
        dst[0] = lo
    off = lo - dst[0]
    need = off + len(prod)
    if len(coeffs) < need:
        coeffs.extend([0] * (need - len(coeffs)))
    if sign > 0:
        for i, c in enumerate(prod, off):
            if c:
                coeffs[i] += c
    else:
        for i, c in enumerate(prod, off):
            if c:
                coeffs[i] -= c
    return dst


def _ladd(a, b, b_shift: int = 0):
    """a + q^b_shift * b for pools [lo, coeffs] (None is zero)."""
    if b is None:
        return a
    blo = b[0] + b_shift
    if a is None:
        return [blo, b[1]]
    alo, ac = a
    bc = b[1]
    lo = min(alo, blo)
    out = [0] * (max(alo + len(ac), blo + len(bc)) - lo)
    out[alo - lo: alo - lo + len(ac)] = ac
    for i, c in enumerate(bc, blo - lo):
        if c:
            out[i] += c
    return [lo, out]


def _jk_inner_dp(p: TorusParams, n: int, order, weight: int = 0):
    """(min_exp, coeffs) of G_n(q), truncated below ``order`` (None = exact).

    ``weight`` N > 0 multiplies each summand by q^(-N (sum j + k)), giving
    the inner sum of the colored Jones polynomial J_N; exact mode only,
    because the truncation cuts assume nonnegative shifts.
    """
    m = p.m
    if order is None:
        rows_n = binom_row(n)
        rows_np1 = binom_row(n + 1)
        jmax = n + 1
    else:
        # every cut lim below is <= order (a < m for t >= 2, and t = 1 has
        # no levels), so only j(j-1)/2 < order and q^i, i < order, are read
        jmax = 0
        while jmax < n + 1 and (jmax + 1) * jmax // 2 < order:
            jmax += 1
        rows_n = binom_row_trunc(n, jmax, order)
        rows_np1 = binom_row_trunc(n + 1, jmax, order)
    bn = [rows_n[j] if j < len(rows_n) else () for j in range(jmax + 1)]
    bp = [rows_np1[j] if j < len(rows_np1) else () for j in range(jmax + 1)]
    states = {0: (None, [0, [1]])}
    for level in range(1, m):
        nxt: dict = {}
        for total, (s_pool, a_pool) in states.items():
            sa = _ladd(s_pool, a_pool, -weight * (level - 1))
            for j in range(jmax + 1):
                if not bn[j] and not bp[j]:
                    continue
                t2 = total + j * level
                if order is None:
                    lim = None
                else:
                    lim = order + ((p.a - t2) // m)  # order - ceil((t2-a)/m)
                    if lim <= 0:
                        continue
                w = j * (j - 1) // 2
                if lim is not None and w >= lim:
                    break  # larger j only shifts content further out
                w -= weight * j
                sign = -1 if j & 1 else 1
                ent = nxt.get(t2)
                if ent is None:
                    ent = [None, None]
                    nxt[t2] = ent
                if sa is not None and bn[j]:
                    ent[0] = _acc_mul(ent[0], sa, bn[j], w, sign, lim)
                if a_pool is not None and bp[j]:
                    ent[1] = _acc_mul(ent[1], a_pool, bp[j], w, sign, lim)
        states = {t: (e[0], e[1]) for t, e in nxt.items()}
    pieces = []
    for total, (s_pool, a_pool) in states.items():
        if (total - p.a) % m:
            continue
        val = _ladd(s_pool, a_pool, -weight * (m - 1))
        if val is not None:
            pieces.append(((total - p.a) // m + val[0], val[1]))
    if not pieces:
        return 0, []
    lo = min(sh for sh, _ in pieces)
    hi = max(sh + len(v) for sh, v in pieces)
    if order is not None:
        hi = min(hi, order)
    out = [0] * max(hi - lo, 0)
    for sh, val in pieces:
        for i, c in enumerate(val):
            if c and sh + i < hi:
                out[sh + i - lo] += c
    return lo, out


def kz_inner_sum(p: TorusParams, n: int, order) -> IntSeries:
    """G_n(q) as an IntSeries (exact when order is None)."""
    lo, out = _jk_inner_dp(p, n, order)
    return IntSeries.make(lo, out, order)


def kz_partial_sum(p: TorusParams, n_top: int, out_order: int) -> IntSeries:
    """F_t(q; N) = sign * q^(-h') * sum_{n=0}^{N} (q)_n G_n(q), truncated.

    Laurent for odd t (min exponent -h'); for t = 1 this is sum (q)_n.
    """
    if n_top < 0:
        raise ValueError("N must be >= 0")
    if out_order < 1:
        raise ValueError("out_order must be >= 1")
    pad = 1 if p.m == 1 else 0  # t=1 inner term sits at q^(-1)
    work = out_order + p.h_d + pad
    total = IntSeries.zero(work)
    poch = IntSeries.one(work)
    for n in range(n_top + 1):
        if n:
            poch = poch.mul_one_minus_qk(n)
        inner = kz_inner_sum(p, n, work)
        if inner:
            total = total + poch * inner
    return total.shift(-p.h_d).scale(p.sign).truncate(out_order)


def kz_full_polynomial(p: TorusParams, n_top: int) -> IntSeries:
    """F_t(q; N) as an exact Laurent polynomial (no truncation anywhere)."""
    if n_top < 0:
        raise ValueError("N must be >= 0")
    total = IntSeries.zero()
    poch = IntSeries.one()
    for n in range(n_top + 1):
        if n:
            poch = poch.mul_one_minus_qk(n)
        inner = kz_inner_sum(p, n, None)
        if inner:
            total = total + poch * inner
    return total.shift(-p.h_d).scale(p.sign)


def colored_jones(p: TorusParams, big_n: int) -> IntSeries:
    """J_N(T(3, 2^t); q) as an exact Laurent polynomial, J_N(unknot) = 1.

    J_N = sign q^(2^t - 1 - h' - N) sum_{n<N} (q^(1-N))_n q^(-nmN) G_n^(N)(q),
    where G_n^(N) is the inner sum with the weight q^(-N (sum j + k)); the
    n-sum stops at N-1 because (q^(1-N))_n vanishes from n = N on.  For
    t = 1 this is the trefoil formula q^(1-N) sum_n q^(-nN) (q^(1-N))_n.
    """
    if big_n < 1:
        raise ValueError("N must be >= 1")
    total = IntSeries.zero()
    poch = IntSeries.one()
    for n in range(big_n):
        if n:
            poch = poch - poch.shift(n - big_n)
        lo, out = _jk_inner_dp(p, n, None, big_n)
        inner = IntSeries.make(lo - big_n * n * p.m, out)
        if inner:
            total = total + poch * inner
    pref_exp = 2**p.t - 1 - p.h_d - big_n
    return total.shift(pref_exp).scale(p.sign)


def kz_at_root_of_unity(p: TorusParams, big_n: int) -> CycInt:
    """F_t(zeta_N) evaluated exactly in Z[zeta_N].

    (q)_n vanishes at zeta_N from n = N on, so the exact partial sum
    F_t(q; N-1) evaluated at zeta_N is the whole value.
    """
    if big_n < 1:
        raise ValueError("N must be >= 1")
    return cyc_eval(kz_full_polynomial(p, big_n - 1), big_n)


# -- the two-variable series -------------------------------------------------


def H_theta(p: TorusParams, x_bound: int, q_order: int) -> BiSeries:
    """H_t(x, q) = sum_{n>=0} chi_t(n) q^((n^2-(2^(t+1)-3)^2)/(3*2^(t+2)))
    x^((n-(2^(t+1)-3))/2), truncated in both variables."""
    if p.t < 2:
        raise ValueError("H_t needs t >= 2")
    char = chi_t(p.t)
    n0 = 2 ** (p.t + 1) - 3
    a = n0 * n0
    b = 3 * 2 ** (p.t + 2)
    acc = BiAccumulator(x_bound, q_order)
    for r in char.support_residues():
        sign = char.values[r]
        n = r
        while True:
            xe = (n - n0) // 2
            qe = (n * n - a) // b
            if xe >= x_bound or qe >= q_order:
                break
            acc.add(xe, IntSeries.monomial(qe, sign, q_order))
            n += char.period
    return acc.finish()


def H_multisum(p: TorusParams, x_bound: int, q_order: int) -> BiSeries:
    """The multisum side of H_t:

        sign * q^(-h') x^(-h) sum_n (x)_{n+1} x^(nm)
            sum'_{jv} (-x)^(sum j) q^v sum_k x^k prod_l [n + I(l<=k), j_l].

    The x^(-h) prefactor must cancel, so negative x-degrees are accumulated
    and verified to vanish rather than assumed away.
    """
    if p.t < 2:
        raise ValueError("the multisum form needs t >= 2")
    work = q_order + p.h_d
    acc = BiAccumulator(x_bound + p.h, work)
    poch_x = [IntSeries.one(work)]  # (x)_n columns by x-degree, here n = 0
    n = 0
    while n * p.m - p.h < x_bound:
        # (x)_{n+1} = (x)_n * (1 - x q^n)
        nxt = []
        for d in range(len(poch_x) + 1):
            col = poch_x[d] if d < len(poch_x) else IntSeries.zero(work)
            if d:
                col = col - poch_x[d - 1].shift(n)
            nxt.append(col)
        poch_x = nxt[: x_bound + p.h + 1]
        for jv, v in admissible_jvectors(p, j_cap=n + 1, v_cap=work):
            sj = sum(jv)
            sign = -1 if (p.h_dd + sj) & 1 else 1
            pre = [IntSeries.one(work)]
            for l in range(1, p.m):
                pre.append(pre[-1] * q_binomial(n + 1, jv[l - 1]).with_order(work))
            sufs = [IntSeries.one(work) for _ in range(p.m)]
            for k in range(p.m - 2, -1, -1):
                sufs[k] = sufs[k + 1] * q_binomial(n, jv[k]).with_order(work)
            for k in range(p.m):
                prod = pre[k] * sufs[k]
                if prod.is_zero():
                    continue
                piece = prod.shift(v).scale(sign)
                base_x = n * p.m + sj + k - p.h
                for d, col in enumerate(poch_x):
                    if base_x + d >= x_bound:
                        break
                    if not col.is_zero():
                        acc.add(base_x + d, col * piece)
        n += 1
    bis = acc.finish()
    return BiSeries.make(x_bound, q_order, [c.shift(-p.h_d) for c in bis.cols[:x_bound]])


def M_series(p: TorusParams, x_bound: int, q_order: int) -> BiSeries:
    """M_t(x, q) = sum_n x^(nm) sum'_{jv} (-x)^(sum j) q^v sum_k x^k prod_l [...]."""
    if p.t < 2:
        raise ValueError("M_t needs t >= 2")
    acc = BiAccumulator(x_bound, q_order)
    n = 0
    while n * p.m < x_bound:
        for jv, v in admissible_jvectors(p, j_cap=n + 1, v_cap=q_order):
            sj = sum(jv)
            sign = -1 if sj & 1 else 1
            pre = [IntSeries.one(q_order)]
            for l in range(1, p.m):
                pre.append(pre[-1] * q_binomial(n + 1, jv[l - 1]).with_order(q_order))
            sufs = [IntSeries.one(q_order) for _ in range(p.m)]
            for k in range(p.m - 2, -1, -1):
                sufs[k] = sufs[k + 1] * q_binomial(n, jv[k]).with_order(q_order)
            for k in range(p.m):
                if n * p.m + sj + k >= x_bound:
                    break
                prod = pre[k] * sufs[k]
                if not prod.is_zero():
                    acc.add(n * p.m + sj + k, prod.shift(v).scale(sign))
        n += 1
    return acc.finish()


@lru_cache(maxsize=None)
def a_n_t(p: TorusParams, n: int, q_order: int) -> IntSeries:
    """a_{n,t}(q): the x^n coefficient of M_t, in closed reindexed form.

    Binomial tops are (n - sum j - r)/m + I(l <= r) with r the reduction of
    n - sum j mod m; vanishing binomials make the sum finite.
    """
    if p.t < 2:
        raise ValueError("a_{n,t} needs t >= 2")
    if n < 0:
        return IntSeries.zero(q_order)
    acc = IntSeries.zero(q_order)
    for jv, v in admissible_jvectors(p, j_cap=n + 1, v_cap=q_order):
        sj = sum(jv)
        r = (n - sj) % p.m
        c = (n - sj - r) // p.m
        prod = IntSeries.one(q_order - v if q_order > v else 1)
        for l in range(1, p.m):
            b = q_binomial(c + (1 if l <= r else 0), jv[l - 1])
            if b.is_zero():
                prod = None
                break
            prod = prod * b
        if prod is not None and not prod.is_zero():
            acc = acc + prod.shift(v).scale(-1 if sj & 1 else 1).truncate(q_order)
    return acc.truncate(q_order)


def b_n_t(p: TorusParams, n: int, q_order: int) -> IntSeries:
    """b_{n,t} = a_{n,t} - a_{n-1,t} with a_{-1,t} = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return a_n_t(p, n, q_order) - a_n_t(p, n - 1, q_order)
