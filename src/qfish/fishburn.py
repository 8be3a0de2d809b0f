"""Generalized Fishburn numbers and their arithmetic.

xi_t(n) are the coefficients of F_t(1-q).  There are two independent
routes to them, and `xi_coefficients` uses the first:

* `xi_lvalues` reads them off the strange identity
  F_t(e^(-s)) = -1/2 e^(as/b) sum_k L(-2k-1, chi_t) (-s/b)^k / k!
  (Zagier; Lawrence-Zagier) at s = -log(1-q), in O(count^2) big +- big *
  small integer steps: the odd L-values of chi_t come from a tangent-number
  triangle and the Appell triangles of the Bernoulli polynomials, the
  s-coefficients from a binomial triangle, and the q-coefficients from a
  Stirling triangle.
* `xi_series` expands the multisum itself and is kept as the oracle.

In `xi_series`, substituting q -> 1-q into a *truncation* of the partial
sum would scramble every coefficient (each dropped monomial (1-q)^e has
nonzero constant term), so it substitutes into the exact partial-sum
polynomial instead, factor by factor: the image of
the n-th summand is divisible by q^n because 1 - (1-q)^k = kq + O(q^2),
which both truncates the computation at `count` coefficients and makes the
result independent of the summation bound once it reaches count - 1.
The inner sums G_n(1-q) come from qfish.torus (`inner_sums_at_one_minus_q`),
which runs its one inner-sum dynamic program on the factor rows of
(x; q)_n at q -> 1-q; here are the (q)_n factor, the sum over n and the
(1-q)^(-h') prefactor.

Also here: s-dissections, the S-sets of exponent residues, the
(q)_lambda-divisibility checker for dissection pieces, the prime-power
congruence verifier, and the two supporting binomial lemmas.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .backend import mul_trunc
from .cyclotomic import is_prime
from .qseries import ThetaSpec, theta_spec_t
from .series import (
    IntSeries,
    NotPolynomialError,
    Record,
    exact_over_one_minus_qk,
    int_arg,
    one_minus_q_power,
    over_one_minus_qk,
    require,
)
from .torus import inner_sums_at_one_minus_q, kz_full_polynomial, torus_params


# -- the multisum at q -> 1-q ----------------------------------------------


def xi_series(t: int, n_top: int, count: int) -> list:
    """First ``count`` coefficients of F_t(1-q; N) with N = n_top.

    Exactly the substitution image of the full partial-sum polynomial;
    summands with n >= count are invisible below q^count and are skipped,
    which is also why the result stabilizes in N.
    """
    n_top, count = int_arg(n_top, "N", 0), int_arg(count, "count", 1)
    p = torus_params(t)
    n_last = min(n_top, count - 1)
    # (1-q)^e cut below q^count: the inner sums read e <= n_last + 1
    pw = [list(one_minus_q_power(e, min(e + 1, count)).coeffs) for e in range(n_last + 2)]
    total = [0] * count
    poch_tail = [1]  # (q)_n at q -> 1-q equals q^n * poch_tail
    for n, inner in zip(range(n_last + 1), inner_sums_at_one_minus_q(p, pw, count)):
        if n:
            # (1 - (1-q)^n)/q
            u = [-c for c in pw[n][1:]]
            poch_tail = mul_trunc(poch_tail, u, count - n)
        mul_trunc(poch_tail, inner, count - n, total, n)
    # the prefactor q^(-h') and the inner sums' q^(-(a div m)), which cancel at t = 1
    for _ in range(p.h_d + p.a // p.m):
        over_one_minus_qk(total, 1)
    return [-c for c in total] if p.sign < 0 else total


# -- the strange identity: xi_t from L-values ----------------------------------


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("the L-value series has a non-integral coefficient")
    return q


def _xi_from_lvalues(vals: tuple, a: int, b: int, count: int) -> list:
    """xi(0 .. count-1) from F(e^(-s)) = -1/2 e^(as/b) sum_k L(-2k-1, chi)
    (-s/b)^k / k!, chi(n) = vals[n mod P], P = len(vals), every division exact.

    Four triangles, each step of which is big +- big * small:
    1. Brent and Harvey's tangent numbers T_k give beta_j = d B_j P^j for
       j <= 2 count, as B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)); d, the
       product of the primes <= 2 count + 1, clears every Bernoulli
       denominator (von Staudt-Clausen).
    2. The Appell triangle from beta has d P^n B_n(r/P) at its head after n
       steps; it runs two steps at a time, as only even n are read.
       B_n(1-x) = B_n(x) at even n, so the residues r <= P/2, each but 0
       and P/2 counted twice, give h_n = d P B_(n, chi), and
       L(-2l-1) = -h_(2l+2) / ((2l+2) d P).
    3. Over D = d P lcm(2, 4, .., 2 count) the V_l = -D L(-2l-1) are integers,
       and G_k = k! [s^k] F(e^(-s)) = sum_l C(k, l) a^(k-l) (-1)^l V_l /
       (2 b^k D) is a binomial triangle.
    4. G_k is an integer (F = sum_n xi(n) (1 - e^(-s))^n), and at
       s = -log(1-q), s^k/k! = sum_n |s(n, k)| q^n/n!.  As sum_k |s(n, k)| x^k
       = x (x+1) .. (x+n-1), the Stirling triangle from G has n! xi(n) at its
       head at step n.
    """
    p = len(vals)
    if sum(vals) or any(vals[n] != vals[-n] for n in range(p)):
        raise ArithmeticError("chi must be even with mean value zero")
    top = 2 * count
    tan = [0] + [math.factorial(k) for k in range(count)]  # tan[k] = (k-1)!, then T_k
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            tan[j] = (j - k) * tan[j - 1] + (j - k + 2) * tan[j]
    d = math.prod(n for n in range(2, top + 2) if is_prime(n))
    beta = [d, _exact_div(-d * p, 2)] + [0] * (top - 1)
    scale, q = d, 1  # d P^(2k), 4^k
    for k in range(1, count + 1):
        scale *= p * p
        q *= 4
        beta[2 * k] = _exact_div((2 * k if k & 1 else -2 * k) * tan[k] * scale, q * (q - 1))
    hs = [0] * count
    for r in range(p // 2 + 1):
        if vals[r]:
            w = vals[r] if 2 * r % p == 0 else 2 * vals[r]  # r and P - r
            row, sq, dbl = beta, r * r, 2 * r
            for l in range(count):  # two steps at a time: only even n are read
                row = [sq * y0 + dbl * y1 + y2 for y0, y1, y2 in zip(row, row[1:], row[2:])]
                hs[l] += w * row[0]
    m = math.lcm(*range(2, top + 1, 2))
    ys = [(-h if l & 1 else h) * _exact_div(m, 2 * l + 2) for l, h in enumerate(hs)]
    gs = []
    den = 2 * d * p * m  # 2 b^k D
    for _ in range(count):
        gs.append(_exact_div(ys[0], den))
        ys = [a * y + y1 for y, y1 in zip(ys, ys[1:])]  # k -> k + 1 in the transform
        den *= b
    xs = []
    nfact = 1
    for n in range(count):
        nfact *= n or 1
        xs.append(_exact_div(gs[0], nfact))
        gs = [n * g + g1 for g, g1 in zip(gs, gs[1:])]
    return xs


def xi_lvalues(t: int, count: int) -> list:
    """xi_t(0 .. count-1) from the strange identity, with P = 3 2^(t+1),
    a = (2^(t+1)-3)^2, b = 3 2^(t+2) and chi = chi_t, in exact integers:
    four triangles of O(count^2) big +- big * small steps in all.

    A non-integral intermediate raises ArithmeticError; nothing is rounded.
    """
    count = int_arg(count, "count", 1)
    spec = theta_spec_t(t, 1)
    return _xi_from_lvalues(spec.char.values, spec.a, spec.b, count)


@lru_cache(maxsize=16, typed=True)
def _xi_cached(t: int) -> list:
    """The longest xi_t table built so far, grown in place by
    xi_coefficients, which hands out slices of it."""
    return []


def xi_coefficients(t: int, count: int) -> list:
    """xi_t(0 .. count-1), sliced from the longest table built for t when
    that one is long enough.  t and count are checked before the table is
    read, so (2.0, c) and (2, 5.0) raise however warm t = 2 is."""
    t, count = int_arg(t, "t", 1), int_arg(count, "count", 1)
    table = _xi_cached(t)
    if len(table) < count:
        table[:] = xi_lvalues(t, count)
    return table[:count]


# -- dissection and divisibility ---------------------------------------------


class Dissection(Record):
    """s-dissection of a Laurent polynomial: F(q) = sum_i q^i A_i(q^s).

    Exponent e lands in piece e mod s at power floor(e / s), so negative
    exponents are handled consistently.
    """

    __slots__ = ("s", "pieces")


def dissection(series: IntSeries, s: int) -> Dissection:
    require(series, IntSeries, "series")
    s = int_arg(s, "s", 1)
    if series.order is not None:
        raise NotPolynomialError("dissection needs a completed (exact) polynomial")
    # exponents e = i (mod s) sit s apart in the window, at powers e // s
    lo, cs = series.min_exp, series.coeffs
    pieces = tuple(IntSeries.make((lo + k) // s, cs[k::s], None)
                   for k in ((i - lo) % s for i in range(s)))
    return Dissection(s, pieces)


def S_set(spec: ThetaSpec, s: int) -> set:
    """Residues mod s of (n^2 - a)/b over the support of the character.

    n -> exponent mod s has period period(chi) * s, so one scan of that
    range is exhaustive; it steps through the support residues of chi by
    the period.
    """
    require(spec, ThetaSpec, "spec")
    s = int_arg(s, "s", 1)
    period = spec.char.period
    return {spec.exponent(n) % s for r in spec.char.support_residues()
            for n in range(r, period * s, period)}


class DivisibilityReport(Record):
    # ``entries`` holds one dict per checked residue class
    __slots__ = ("t", "s", "n_index", "lam", "s_set", "entries", "passed")

    def as_dict(self) -> dict:
        return {
            "t": self.t,
            "s": self.s,
            "N": self.n_index,
            "lambda": self.lam,
            "s_set": list(self.s_set),
            "entries": [dict(e) for e in self.entries],
            "pass": self.passed,
        }


def divisibility_check(t: int, s: int, n_index: int) -> DivisibilityReport:
    """Dissect the exact partial sum F_t(q; N) and test, for every residue
    class i outside the S-set, whether (q)_lambda divides the piece A_i up
    to a monomial unit, lambda = floor((N+1)/s).

    The piece q^u h(q), h(0) != 0, is divided by 1 - q, 1 - q^2, ...,
    1 - q^lambda in turn, each pass checked exact.  A passing entry records
    the unit exponent u and the degree of h / (q)_lambda; a failing one
    records u and ``divisible_to``, the largest j < lambda with (q)_j | A_i,
    which is where the first pass stopped.

    Failures are recorded in the report rather than raised: for t >= 3 the
    pieces are Laurent and the divisibility statement's exact scope is an
    open question, so outcomes are data.
    """
    s, n_index = int_arg(s, "s", 2), int_arg(n_index, "n_index", 0)
    p = torus_params(t)
    poly = kz_full_polynomial(p, n_index)
    dis = dissection(poly, s)
    lam = (n_index + 1) // s
    sset = tuple(sorted(S_set(theta_spec_t(t, 0), s)))
    entries = []
    ok = True
    for i in range(s):
        if i in sset:
            continue
        piece = dis.pieces[i]
        cs = list(piece.coeffs)
        j = 0
        while j < lam and exact_over_one_minus_qk(cs, j + 1):
            j += 1
        ent = {"i": i, "divisible": j == lam, "unit_exp": piece.min_exp}
        if j == lam:
            ent["quotient_degree"] = len(cs) - 1
        else:
            ok = False
            ent["divisible_to"] = j
        entries.append(ent)
    return DivisibilityReport(t, s, n_index, lam, sset, tuple(entries), ok)


# -- congruences ---------------------------------------------------------------


class CongruenceReport(Record):
    __slots__ = ("t", "p", "r", "m_max", "j_range", "entries", "passed", "vacuous", "scanned")

    def as_dict(self) -> dict:
        out = {
            "t": self.t,
            "p": self.p,
            "r": self.r,
            "m_max": self.m_max,
            "j_range": list(self.j_range),
            "entries": [dict(e) for e in self.entries],
            "pass": self.passed,
            "vacuous": self.vacuous,
        }
        if self.scanned:
            out["scanned_extra_j"] = [dict(e) for e in self.scanned]
        return out


def congruence_j_range(t: int, p: int) -> list:
    """j = 1 .. p - 1 - max(S-set): the indices with a divisibility claim."""
    sset = S_set(theta_spec_t(t, 0), p)
    return list(range(1, p - max(sset)))


def verify_congruence(t: int, p: int, r: int, m_max: int, scan_all_j: bool = False) -> CongruenceReport:
    """Check xi_t(p^r m - j) == 0 (mod p^r) for m <= m_max and j in the
    claimed range.

    For t = 1 the same S-set rule reproduces the classical Fishburn
    congruences (j <= 2 at p = 5, j <= 1 at p = 7, j <= 3 at p = 11).
    With ``scan_all_j`` the report also records residues for j beyond the
    claimed range; those carry no expectation and do not affect `pass`.
    """
    t, p = int_arg(t, "t", 1), int_arg(p, "p")
    if not is_prime(p) or p < 5:
        raise ValueError("p must be a prime >= 5")
    r, m_max = int_arg(r, "r", 1), int_arg(m_max, "m_max", 1)
    j_range = congruence_j_range(t, p)
    modulus = p**r
    if not j_range and not scan_all_j:
        return CongruenceReport(t, p, r, m_max, (), (), True, True, ())
    xs = xi_coefficients(t, modulus * m_max)
    entries = []
    scanned = []
    ok = True
    scan_js = range(1, p) if scan_all_j else j_range
    for m in range(1, m_max + 1):
        for j in scan_js:
            idx = modulus * m - j
            residue = xs[idx] % modulus
            ent = {"m": m, "j": j, "index": idx, "xi": xs[idx], "residue": residue}
            if j in j_range:
                entries.append(ent)
                if residue:
                    ok = False
            else:
                scanned.append(ent)
    return CongruenceReport(t, p, r, m_max, tuple(j_range), tuple(entries), ok, not j_range,
                            tuple(scanned))


def straub_order_bound(p: int, r: int, n: int) -> bool:
    """Does (1 - (1-q)^p)^n vanish below q^(pn - (p-1)(r-1)) modulo p^r?

    Expands the power exactly and reduces; this is the order bound that
    turns dissection divisibility into prime-power congruences.
    """
    p, r, n = int_arg(p, "p"), int_arg(r, "r", 1), int_arg(n, "n", 0)
    if not is_prime(p):
        raise ValueError("p must be prime")
    base = IntSeries.one() - IntSeries.make(0, one_minus_q_power(p, p + 1).coeffs)
    pw = IntSeries.one()
    for _ in range(n):
        pw = pw * base
    bound = p * n - (p - 1) * (r - 1)
    modulus = p**r
    return all(pw.coeff(e) % modulus == 0 for e in range(min(bound, pw.degree + 1)))


def binom_congruence(i: int, l: int, p: int, r: int, m: int, j: int) -> bool:
    """binom(i + l*p, p^r m - j) == 0 (mod p^r), the coefficient lemma,
    stated for 0 <= i < p, l >= 0, m >= 1 and j < p - i.  Outside that
    domain the binomial is not the lemma's coefficient, so it is refused."""
    i, l, p = int_arg(i, "i"), int_arg(l, "l", 0), int_arg(p, "p")
    r, m, j = int_arg(r, "r", 1), int_arg(m, "m", 1), int_arg(j, "j")
    if not is_prime(p):
        raise ValueError("p must be prime")
    if not 0 <= i < p:
        raise ValueError("i must be in 0 .. p - 1")
    if j >= p - i:
        raise ValueError("j must be < p - i")
    return math.comb(i + l * p, p**r * m - j) % p**r == 0
