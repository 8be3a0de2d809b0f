"""q-hypergeometric building blocks.

The rows of Gaussian binomials, the periodic sign characters attached to
the torus knots T(3, 2^t), partial theta functions, and the five-fold
infinite products tied to them by Watson's quintiple product identity.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import count

from .cyclotomic import cyc_eval
from .series import (IntSeries, Record, int_arg, over_one_minus_qk, progression_product, require,
                     times_one_minus_qk)

__all__ = ["PeriodicChar", "ThetaSpec", "chi_t", "mean_value_zero", "partial_theta",
           "quintiple_sides", "theta_spec_t", "torus_product"]


def binom_row_trunc(n: int, jmax: int, length: int) -> tuple:
    """[n, j] for j = 0..min(jmax, n), each cut below q^length (length >= 1).

    Built along the row by [n, j] = [n, j-1] (1 - q^(n-j+1)) / (1 - q^j),
    so no other row is touched; the division is exact on any prefix, and
    the second half of the row mirrors the first.  It builds the rows of
    the per-vector walks; the inner-sum DP reads its signed rows off the
    (x; q)_n table in qfish.torus, a second algorithm on purpose (the
    generalized Slater sum, whose identity has no walk on its other side,
    reads its 1/(q)_j off one row here).  Since
    deg [n, j] = j(n-j) <= n^2/4, a length of n^2//4 + 1 gives the exact
    rows.
    """
    cur = [1]
    rows = [(1,)]
    for j in range(1, min(jmax, n) + 1):
        if 2 * j > n:
            rows.append(rows[n - j])  # [n, j] = [n, n-j]
            continue
        e = n - j + 1
        out = cur + [0] * (min(length, len(cur) + e) - len(cur))
        over_one_minus_qk(times_one_minus_qk(out, e), j)
        del out[j * (n - j) + 1:]
        cur = out
        rows.append(tuple(out))
    return tuple(rows)


class PeriodicChar(Record):
    """Periodic integer function given by a residue table of -1/0/+1 values."""

    __slots__ = ("period", "values")

    def __call__(self, n: int) -> int:
        return self.values[n % self.period]

    def support_residues(self) -> list:
        return [r for r, v in enumerate(self.values) if v]


def chi_t(t: int) -> PeriodicChar:
    """The sign character of modulus 3*2^(t+1) attached to T(3, 2^t).

    +1 at 2^(t+1)-3 and 3+2^(t+2), -1 at 2^(t+1)+3 and 2^(t+2)-3.  t = 1 is
    admitted and reproduces the conductor-12 character with support
    {1, 5, 7, 11}.
    """
    t = int_arg(t, "t", 1)
    period = 3 * 2 ** (t + 1)
    vals = [0] * period
    vals[(2 ** (t + 1) - 3) % period] = 1
    vals[(3 + 2 ** (t + 2)) % period] = 1
    vals[(2 ** (t + 1) + 3) % period] = -1
    vals[(2 ** (t + 2) - 3) % period] = -1
    return PeriodicChar(period, tuple(vals))


class ThetaSpec(Record):
    """Data (a, b, nu, chi) of a partial theta sum over n**nu chi(n) q^((n^2-a)/b)."""

    __slots__ = ("a", "b", "nu", "char")

    def exponent(self, n: int) -> int:
        num = n * n - self.a
        if num % self.b:
            raise ValueError(f"(n^2-a)/b is not integral at n={n}")
        return num // self.b

    def terms(self, out_order: int) -> Iterator[tuple]:
        """(n, chi(n), exponent) for every n >= 0 with chi(n) != 0 and
        exponent < out_order, walking one support progression of chi after
        another (the exponent rises along each)."""
        period = self.char.period
        for r in self.char.support_residues():
            for n in count(r, period):
                e = self.exponent(n)
                if e >= out_order:
                    break
                yield n, self.char.values[r], e


def theta_spec_t(t: int, nu: int) -> ThetaSpec:
    """ThetaSpec with a = (2^(t+1)-3)^2, b = 3*2^(t+2) and the chi_t character.

    The support condition ((n^2-a)/b integral wherever chi(n) != 0) is
    verified over a full period at construction.
    """
    t, nu = int_arg(t, "t", 1), int_arg(nu, "nu")
    if nu not in (0, 1):
        raise ValueError("nu must be 0 or 1")
    char = chi_t(t)
    a = (2 ** (t + 1) - 3) ** 2
    b = 3 * 2 ** (t + 2)
    for r in char.support_residues():
        if (r * r - a) % b:
            raise ValueError(f"support condition fails at residue {r} (chi_t bug)")
    return ThetaSpec(a, b, nu, char)


def partial_theta(spec: ThetaSpec, out_order: int) -> IntSeries:
    """sum_{n>=0} n^nu chi(n) q^((n^2-a)/b), all terms with exponent < out_order.

    Only the arithmetic progressions supporting chi are scanned.
    """
    require(spec, ThetaSpec, "spec")
    out_order = int_arg(out_order, "out_order", 1)
    return IntSeries.from_terms(((e, sign * (n if spec.nu else 1))
                                 for n, sign, e in spec.terms(out_order)), out_order)


def mean_value_zero(spec: ThetaSpec, m: int) -> bool:
    """Exact check that n -> zeta_M^((n^2-a)/b) chi(n) sums to zero over a period.

    The sum runs over M * period(chi) consecutive integers, gathered by
    exponent mod M, and is evaluated in Z[zeta_M] by cyc_eval; no floating
    point is involved.
    """
    require(spec, ThetaSpec, "spec")
    m = int_arg(m, "M", 1)
    acc = [0] * m
    for n in range(1, m * spec.char.period + 1):
        c = spec.char(n)
        if c:
            acc[spec.exponent(n) % m] += c
    return cyc_eval(IntSeries.make(0, acc), m).is_zero()


def _quintiple_pairs(q_power: int, x_power: int) -> list:
    """(start, step) of the five progressions of the quintiple product
    (q, x, q/x; q)_inf (q x^2, q/x^2; q^2)_inf under q -> q^q_power,
    x -> q^x_power."""
    q, x = q_power, x_power
    return [(q, q), (x, q), (q - x, q), (q + 2 * x, 2 * q), (q - 2 * x, 2 * q)]


def torus_product(t: int, out_order: int) -> IntSeries:
    """(q^(2^t-1), q^(2^t+1), q^(2^(t+1)); q^(2^(t+1)))_inf (q^2, q^(2^(t+2)-2); q^(2^(t+2)))_inf:
    the product side of quintiple_sides(2^(t+1), 2^t - 1)."""
    t = int_arg(t, "t", 1)
    return progression_product(_quintiple_pairs(2 ** (t + 1), 2**t - 1), out_order)


def quintiple_sides(q_power: int, x_power: int, out_order: int) -> tuple:
    """Both sides of Watson's quintiple product identity under q -> q^q_power, x -> q^x_power.

    Left: the bilateral sum over k of q^(q_power*k(3k-1)/2 + 3k*x_power)
    (1 - q^(x_power + q_power*k)); right: the matching five-fold product.
    The two sides are computed independently.  Raises if the substitution
    does not give series bounded below / genuine power series.
    """
    q_power, x_power = int_arg(q_power, "q_power", 1), int_arg(x_power, "x_power")
    out_order = int_arg(out_order, "out_order", 1)
    pairs = _quintiple_pairs(q_power, x_power)
    if any(start < 1 for start, _ in pairs):
        raise ValueError("substitution gives a product factor with nonpositive exponent")
    terms = []
    k = 0
    while True:
        hit = False
        for kk in ((k,) if k == 0 else (k, -k)):
            e1 = q_power * kk * (3 * kk - 1) // 2 + 3 * kk * x_power
            e2 = e1 + x_power + q_power * kk
            if min(e1, e2) < out_order:
                hit = True
                terms += ((e1, 1), (e2, -1))
        if not hit and k > 0:
            break
        k += 1
    if any(e < 0 for e, _ in terms):
        raise ValueError("bilateral sum has exponents unbounded below")
    return IntSeries.from_terms(terms, out_order), progression_product(pairs, out_order)
