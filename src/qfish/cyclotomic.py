"""Exact arithmetic in Z[zeta_M], the ring of cyclotomic integers.

Elements are integer vectors modulo the M-th cyclotomic polynomial Phi_M,
so root-of-unity evaluations of q-series stay exact: zero means zero.
"""

from __future__ import annotations

from functools import lru_cache

from .backend import mul_trunc
from .series import (IntSeries, NotPolynomialError, Record, int_arg, over_one_minus_qk, require,
                     times_one_minus_qk)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@lru_cache(maxsize=256, typed=True)
def _phi_coeffs(m: int) -> tuple:
    """Phi_M = prod_{d | M squarefree} (x^(M/d) - 1)^mu(d): one pass of 1 - x^k or
    1/(1 - x^k) per d, on one list cut above x^M (deg Phi_M = phi(M) <= M)."""
    m = int_arg(m, "M", 1)
    passes = [(m, 1)]  # (M/d, mu(d)) for each squarefree d | M
    for p in range(2, m + 1):
        if m % p == 0 and is_prime(p):
            passes += [(k // p, -mu) for k, mu in passes]
    cs = [-1 if m == 1 else 1] + [0] * m  # x^k - 1 = -(1 - x^k); sum mu(d) = 0 for M > 1
    for k, mu in passes:
        (times_one_minus_qk if mu > 0 else over_one_minus_qk)(cs, k)
    deg = sum(k * mu for k, mu in passes)  # phi(M)
    if any(cs[deg + 1:]):
        raise ArithmeticError(f"Phi_{m} has a term past x^{deg}")
    return tuple(cs[:deg + 1])


def _reduce(coeffs: list, m: int) -> tuple:
    """Reduce a coefficient list modulo Phi_M to length deg Phi_M."""
    phi = _phi_coeffs(m)
    deg = len(phi) - 1
    cs = list(coeffs)
    for i in range(len(cs) - 1, deg - 1, -1):
        c = cs[i]
        if c:
            cs[i] = 0
            for j in range(deg + 1):
                cs[i - deg + j] -= c * phi[j]
    cs = cs[:deg]
    cs.extend([0] * (deg - len(cs)))
    return tuple(cs)


class CycInt(Record):
    """Element of Z[x]/(Phi_M(x)), i.e. an integer of the M-th cyclotomic field."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs: tuple):
        self.level = level
        self.coeffs = coeffs  # length = deg Phi_M = euler_phi(M)

    @staticmethod
    def zero(m: int) -> "CycInt":
        return CycInt(m, _reduce([], m))

    @staticmethod
    def integer(m: int, value: int) -> "CycInt":
        return CycInt(m, _reduce([int_arg(value, "value")], m))

    @staticmethod
    def root_power(m: int, exp: int, coeff: int = 1) -> "CycInt":
        """coeff * zeta_M**exp (any integer exponent)."""
        return cyc_eval(IntSeries.monomial(exp, coeff), m)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check(self, other: "CycInt") -> None:
        if self.level != other.level:
            raise ValueError("cyclotomic levels differ")

    def __add__(self, other: "CycInt") -> "CycInt":
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check(other)
        return CycInt(self.level, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycInt") -> "CycInt":
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check(other)
        return CycInt(self.level, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycInt":
        return CycInt(self.level, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return CycInt(self.level, tuple(other * a for a in self.coeffs))
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check(other)
        a, b = self.coeffs, other.coeffs
        return CycInt(self.level, _reduce(mul_trunc(a, b, len(a) + len(b) - 1), self.level))

    __rmul__ = __mul__

    def mul_root_power(self, exp: int) -> "CycInt":
        """Multiply by zeta**exp (cheap monomial product)."""
        e = int_arg(exp, "exp") % self.level
        if e == 0:
            return self
        out = [0] * e + list(self.coeffs)
        return CycInt(self.level, _reduce(out, self.level))

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            term = str(c) if i == 0 else f"{c}*z^{i}" if i > 1 else f"{c}*z"
            parts.append(term)
        return " + ".join(parts) if parts else "0"


def cyc_eval(p: IntSeries, m: int) -> CycInt:
    """Image of an exact Laurent polynomial under q -> zeta_M.

    Negative exponents go through zeta**(-1) = zeta**(M-1); truncated input
    is rejected because its evaluation would not be well-defined.
    """
    require(p, IntSeries, "p")
    m = int_arg(m, "M", 1)
    if p.order is not None:
        raise NotPolynomialError("cyc_eval needs an exact Laurent polynomial")
    cs, acc = p.coeffs, [0] * m
    for i in range(min(m, len(cs))):  # one slice sum per residue class
        acc[(p.min_exp + i) % m] = sum(cs[i::m])
    return CycInt(m, _reduce(acc, m))
