"""Truncated Laurent series over arbitrary-precision integers.

``IntSeries`` is the carrier for every single-variable q-series in the
package.  A value is a dense coefficient window ``[min_exp, order)`` plus
the truncation order; ``order is None`` means the value is an exact Laurent
polynomial (known to all orders, zero outside the stored window).

Windows are tracked explicitly and combined with ``min`` on every binary
operation; they are never silently widened.  All operations are pure and
no code assigns a field of a value once it is built, so everything here is
safe to share across threads.  That immutability is a convention, not
enforced: the record types are plain ``__slots__`` classes (see ``Record``),
because a frozen dataclass costs about three times as much to construct and
importing ``dataclasses`` (with ``inspect``) adds to every process's start-up.

Every product of cut coefficient lists by a factor 1 - q^k, and every
division by one, is a pass of ``times_one_minus_qk`` or ``over_one_minus_qk``,
in place on a list the caller owns.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, attrgetter, sub
from typing import Iterable, Optional

from .backend import mul_trunc


class SeriesError(ValueError):
    pass


class TruncationError(SeriesError):
    """Requested data lies at or beyond the truncation order."""


class NotPolynomialError(SeriesError):
    """An exact (untruncated) Laurent polynomial was required."""


class Record:
    """Base of the package's read-only record types.

    A subclass names its fields, in constructor order, in ``__slots__`` and
    gets field-by-field equality (with objects of the same class only), hash
    and repr; a further subclass appends the fields it names to its parent's.
    The constructor takes exactly the fields, positionally: any other count,
    or a keyword, is a TypeError, so each record has one way to be built.
    The two hot value types, ``IntSeries`` and ``CycInt``, replace the
    generic ``__init__`` with direct assignments.  Fields are never assigned
    after construction.
    """

    __slots__ = ()
    _names: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._names = cls._names + cls.__dict__.get("__slots__", ())
        cls._fields = attrgetter(*cls._names)

    def __init__(self, *args):
        names = self._names
        if len(args) != len(names):
            raise TypeError(f"{type(self).__name__}() takes its {len(names)} fields "
                            f"{names}, got {len(args)} arguments")
        for name, value in zip(names, args):
            setattr(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{type(self).__qualname__}({body})"


def _min_order(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class IntSeries(Record):
    """Dense integer Laurent series truncated at ``order``.

    ``coeffs[i]`` (a tuple) is the coefficient of ``q**(min_exp + i)``;
    ``order`` is an int or None.  After normalization the leading stored
    coefficient is nonzero (unless the series is zero on its window) and,
    for finite order, the window ``min_exp .. order-1`` is covered exactly.
    """

    __slots__ = ("min_exp", "coeffs", "order")

    def __init__(self, min_exp: int, coeffs: tuple, order: Optional[int]):
        self.min_exp = min_exp
        self.coeffs = coeffs
        self.order = order

    # -- construction ------------------------------------------------------

    @staticmethod
    def make(min_exp: int, coeffs: Iterable[int], order: Optional[int] = None) -> "IntSeries":
        cs = list(coeffs)
        if order is not None:
            width = order - min_exp
            if width <= 0:
                return IntSeries(order, (), order)
            if len(cs) > width:
                cs = cs[:width]
            elif len(cs) < width:
                cs.extend([0] * (width - len(cs)))
        # strip leading zeros (bump min_exp)
        lead = 0
        while lead < len(cs) and cs[lead] == 0:
            lead += 1
        if lead:
            cs = cs[lead:]
            min_exp += lead
        if order is None:
            while cs and cs[-1] == 0:
                cs.pop()
            if not cs:
                min_exp = 0
        else:
            if not cs:
                min_exp = order
        return IntSeries(min_exp, tuple(cs), order)

    @staticmethod
    def zero(order: Optional[int] = None) -> "IntSeries":
        return IntSeries.make(0, (), order)

    @staticmethod
    def one(order: Optional[int] = None) -> "IntSeries":
        return IntSeries.make(0, (1,), order)

    @staticmethod
    def monomial(exp: int, coeff: int = 1, order: Optional[int] = None) -> "IntSeries":
        return IntSeries.make(exp, (coeff,), order)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def degree(self) -> int:
        """Degree of an exact polynomial (-1 for the zero polynomial)."""
        if self.order is not None:
            raise NotPolynomialError("degree is only defined for exact polynomials")
        return self.min_exp + len(self.coeffs) - 1 if self.coeffs else -1

    def coeff(self, exp: int) -> int:
        if self.order is not None and exp >= self.order:
            raise TruncationError(f"coefficient of q^{exp} unknown beyond order {self.order}")
        if exp < self.min_exp or exp >= self.min_exp + len(self.coeffs):
            return 0
        return self.coeffs[exp - self.min_exp]

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            e = self.min_exp + i
            mag = abs(c)
            if e == 0:
                term = str(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                term = var if mag == 1 else f"{mag}*{var}"
            parts.append(("- " if c < 0 else "+ ") + term)
        body = " ".join(parts).lstrip("+ ") or "0"
        if body.startswith("- "):
            body = "-" + body[2:]
        if self.order is not None:
            body += f" + O(q^{self.order})"
        return body

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "IntSeries", sign: int = 1) -> "IntSeries":
        order = _min_order(self.order, other.order)
        if not self.coeffs:
            return (other if sign > 0 else -other).truncate(order)
        if not other.coeffs:
            return self.truncate(order)
        lo = min(self.min_exp, other.min_exp)
        hi = max(self.min_exp + len(self.coeffs), other.min_exp + len(other.coeffs))
        if order is not None:
            hi = min(hi, order)
        out = [0] * (hi - lo)
        a = self.coeffs[:max(hi - self.min_exp, 0)]
        i = self.min_exp - lo
        out[i:i + len(a)] = a
        b = other.coeffs[:max(hi - other.min_exp, 0)]
        i = other.min_exp - lo
        out[i:i + len(b)] = map(add if sign > 0 else sub, out[i:i + len(b)], b)
        return IntSeries.make(lo, out, order)

    def __neg__(self) -> "IntSeries":
        return IntSeries(self.min_exp, tuple(-c for c in self.coeffs), self.order)

    def __sub__(self, other: "IntSeries") -> "IntSeries":
        return self.__add__(other, -1)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, IntSeries):
            return NotImplemented
        # result order per the degree-shift rule
        order = None
        if self.order is not None:
            order = self.order + other.min_exp
        if other.order is not None:
            order = _min_order(order, other.order + self.min_exp)
        lo = self.min_exp + other.min_exp
        if not self.coeffs or not other.coeffs:
            return IntSeries.make(lo, (), order)
        n = len(self.coeffs) + len(other.coeffs) - 1 if order is None else order - lo
        return IntSeries.make(lo, mul_trunc(self.coeffs, other.coeffs, n), order)

    __rmul__ = __mul__

    def scale(self, c: int) -> "IntSeries":
        if c == 0:
            return IntSeries.make(0, (), self.order)
        return IntSeries(self.min_exp, tuple(c * x for x in self.coeffs), self.order)

    def shift(self, k: int) -> "IntSeries":
        """Multiply by q**k (exponent translation); an exact zero stays the
        canonical zero."""
        if self.order is None and not self.coeffs:
            return IntSeries.zero()
        return IntSeries(
            self.min_exp + k,
            self.coeffs,
            None if self.order is None else self.order + k,
        )

    def truncate(self, order: Optional[int]) -> "IntSeries":
        """Narrow the window to ``order`` (never widens)."""
        if order is None or (self.order is not None and order >= self.order):
            return self
        return IntSeries.make(self.min_exp, self.coeffs, order)

    def inflate(self, k: int) -> "IntSeries":
        """Substitute q -> q**k (exact polynomials only)."""
        if self.order is not None:
            raise NotPolynomialError("inflate needs an exact polynomial")
        if k <= 0:
            raise ValueError("inflation factor must be positive")
        if not self.coeffs:
            return self
        out = [0] * ((len(self.coeffs) - 1) * k + 1)
        out[::k] = self.coeffs
        return IntSeries.make(self.min_exp * k, out, None)


def times_one_minus_qk(cs: list, k: int) -> list:
    """The coefficient list cs times 1 - q^k (k >= 1), in place on its
    window len(cs); returns cs."""
    cs[k:] = map(sub, cs[k:], cs[:len(cs) - k])
    return cs


def over_one_minus_qk(cs: list, k: int) -> list:
    """The coefficient list cs divided by 1 - q^k (k >= 1), in place on its
    window len(cs): 1/(1 - q^k) = 1 + q^k + q^(2k) + ..., so the quotient
    takes prefix sums along each residue class mod k.  Returns cs."""
    for r in range(min(k, len(cs))):
        cs[r::k] = accumulate(cs[r::k])
    return cs


def substitute_one_minus_q(a: IntSeries, out_order: int) -> IntSeries:
    """Composition a(1-q), expanded as a power series in q.

    Exact for polynomial content: every stored coefficient participates.
    Each Horner step in 1-q, and each factor of the (1-q)^min_exp prefactor,
    is a pass of ``times_one_minus_qk`` (or ``over_one_minus_qk``) at k = 1.
    """
    if out_order < 1:
        raise ValueError("out_order must be >= 1")
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


def one_minus_q_power(e: int, out_order: int) -> IntSeries:
    """(1-q)**e cut below q^out_order >= 1, e >= 0, via binomial coefficients."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    if out_order < 1:
        raise ValueError("out_order must be >= 1")
    out = [0] * out_order
    c = 1
    for i in range(min(e, out_order - 1) + 1):
        out[i] = c if i % 2 == 0 else -c
        c = c * (e - i) // (i + 1)
    return IntSeries.make(0, out, out_order)


def divisor_sum_series(out_order: int) -> IntSeries:
    """sum_{i>=1} q^i/(1-q^i) = sum_n d(n) q^n with d the divisor count."""
    if out_order < 1:
        raise ValueError("out_order must be >= 1")
    out = [0] * out_order
    for i in range(1, out_order):
        for n in range(i, out_order, i):
            out[n] += 1
    return IntSeries.make(0, out, out_order)


def progression_product(pairs: Iterable[tuple], out_order: int) -> IntSeries:
    """Product of (1 - q^(start + k*step)) over k >= 0 for each (start, step).

    Each factor whose exponent stays below out_order is one pass of
    ``times_one_minus_qk`` over the window.
    """
    if out_order < 1:
        raise ValueError("out_order must be >= 1")
    out = [1] + [0] * (out_order - 1)
    for start, step in pairs:
        if start < 1 or step < 1:
            raise ValueError("progression exponents must be positive")
        for e in range(start, out_order, step):
            times_one_minus_qk(out, e)
    return IntSeries.make(0, out, out_order)


def euler_product(out_order: int) -> IntSeries:
    """(q;q)_infinity, the progression product of (1 - q^k) over k >= 1."""
    return progression_product([(1, 1)], out_order)


# -- exact polynomial division --------------------------------------------


class DivisionWitness(Record):
    """``quotient`` is h with p = d * h * q**unit_exp, or None; ``remainder``
    is set when ``divides`` is False."""

    __slots__ = ("divides", "quotient", "unit_exp", "remainder")


def poly_divides(d: IntSeries, p: IntSeries) -> DivisionWitness:
    """Does d divide p up to a monomial unit q**k?

    True iff p = d * h * q**k with h an integer polynomial and k an integer.
    The monomial unit accommodates Laurent inputs (dissection pieces of
    series with negative exponents).  Returns the witness (h, k), or the
    division remainder when the answer is no: zero when d divides p over
    Q[q] only, else a nonzero rational multiple of the remainder over Q[q].
    """
    if d.order is not None or p.order is not None:
        raise NotPolynomialError("poly_divides operates on exact polynomials")
    if d.is_zero():
        raise ValueError("divisor must be nonzero")
    if p.is_zero():
        return DivisionWitness(True, IntSeries.zero(), 0, None)
    unit = p.min_exp - d.min_exp
    den = d.coeffs
    lead = den[-1]
    # Fraction-free pseudo-division: scaled by lead**k, k the number of
    # quotient terms, every step divides exactly and the quotient and
    # remainder are lead**k times those over Q.  For the monic-up-to-sign
    # divisors the engine feeds in, e.g. (q)_lambda, this is plain integer
    # long division.
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
        rser = IntSeries.make(p.min_exp, rem, None)
        return DivisionWitness(False, None, unit, rser)
    if any(c % scale for c in quo):
        # divisible over Q[q] but the quotient is not integral
        return DivisionWitness(False, None, unit, IntSeries.zero())
    h = IntSeries.make(0, [c // scale for c in quo], None)
    return DivisionWitness(True, h, unit, None)


def first_difference(a: IntSeries, b: IntSeries):
    """First exponent where a and b disagree on their common window.

    Returns None when equal there, else (exponent, a_coeff, b_coeff).
    """
    order = _min_order(a.order, b.order)
    lo = min(a.min_exp, b.min_exp)
    hi = max(a.min_exp + len(a.coeffs), b.min_exp + len(b.coeffs))
    if order is not None:
        hi = min(hi, order)
    wa, wb = _window(a, lo, hi), _window(b, lo, hi)
    if wa == wb:
        return None
    i = next(i for i, (ca, cb) in enumerate(zip(wa, wb)) if ca != cb)
    return (lo + i, wa[i], wb[i])


def _window(a: IntSeries, lo: int, hi: int) -> list:
    """The coefficients of q^lo .. q^(hi - 1) in a, for lo <= a.min_exp."""
    k = min(a.min_exp, hi) - lo
    cs = a.coeffs[:hi - lo - k]
    return [0] * k + list(cs) + [0] * (hi - lo - k - len(cs))
