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

A pool is a mutable coefficient window, a list [lo, coeffs]; ``pool_cover``
grows one to cover a range of exponents and ``pool_add`` adds one into
another in place.  They are the one rule for adding windows: the pools of
qfish.torus and ``IntSeries`` addition both run on them.

Every product of cut coefficient lists by a factor 1 - q^k, and every
division by one, is a pass of ``times_one_minus_qk`` or ``over_one_minus_qk``,
in place on a list the caller owns; ``exact_over_one_minus_qk`` is the one
division of a polynomial by 1 - q^k that checks it is exact.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import accumulate
from operator import add, attrgetter, index, sub

from .backend import mul_trunc

__all__ = ["IntSeries", "NotPolynomialError", "SeriesError", "TruncationError",
           "divisor_sum_series", "euler_product"]


class SeriesError(ValueError):
    pass


class TruncationError(SeriesError):
    """Requested data lies at or beyond the truncation order."""


class NotPolynomialError(SeriesError):
    """An exact (untruncated) Laurent polynomial was required."""


def require(value, cls: type, name: str, hint: str = "") -> None:
    """Refuse an argument ``name`` that is not a ``cls`` with a TypeError
    naming it, before any attribute of it is read."""
    if not isinstance(value, cls):
        raise TypeError(f"{name} must be of type {cls.__name__}, not {type(value).__name__}{hint}")


def int_arg(value, name: str, low: int | None = None) -> int:
    """The integer argument ``name`` as an int, through operator.index, and
    at least ``low`` when that is given.  True and 2.0 raise TypeError
    rather than act as 1 and 2; a value below ``low`` raises ValueError."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an int, not bool")
    try:
        value = index(value)
    except TypeError as exc:
        raise TypeError(f"{name} must be an int: {exc}") from None
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}")
    return value


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


def _order_arg(order) -> int | None:
    """A truncation order argument: None (exact) or an int, through int_arg."""
    return None if order is None else int_arg(order, "order")


def _min_order(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def pool_cover(dst: list, lo: int, n: int) -> int:
    """Extend the pool dst [lo, coeffs] in place to cover q^lo .. q^(lo+n-1);
    returns the index of q^lo in its coeffs."""
    cs = dst[1]
    if lo < dst[0]:
        cs[:0] = [0] * (dst[0] - lo)
        dst[0] = lo
    off = lo - dst[0]
    if len(cs) < off + n:
        cs.extend([0] * (off + n - len(cs)))
    return off


def pool_add(a, b, op=add):
    """a + b for pools [lo, coeffs] (None is zero), or a - b with op=sub:
    b added into a in place, or the nonzero side when one is zero (op=sub
    needs a pool a).  a must be a pool the caller owns, never one that is
    shared; b is only read."""
    if a is None or b is None:
        return b if a is None else a
    lo, coeffs = b
    i = pool_cover(a, lo, len(coeffs))
    a[1][i:i + len(coeffs)] = map(op, a[1][i:i + len(coeffs)], coeffs)
    return a


class IntSeries(Record):
    """Dense integer Laurent series truncated at ``order``.

    ``coeffs[i]`` (a tuple) is the coefficient of ``q**(min_exp + i)``;
    ``order`` is an int or None.  After normalization the leading stored
    coefficient is nonzero (unless the series is zero on its window) and,
    for finite order, the window ``min_exp .. order-1`` is covered exactly.
    """

    __slots__ = ("min_exp", "coeffs", "order")

    def __init__(self, min_exp: int, coeffs: tuple, order: int | None):
        self.min_exp = min_exp
        self.coeffs = coeffs
        self.order = order

    # -- construction ------------------------------------------------------

    @staticmethod
    def make(min_exp: int, coeffs: Iterable[int], order: int | None = None) -> "IntSeries":
        cs = list(coeffs)
        if order is not None:
            width = order - min_exp
            if width <= 0:
                return IntSeries(order, (), order)
            if len(cs) > width:
                cs = cs[:width]
            elif len(cs) < width:
                cs.extend([0] * (width - len(cs)))
        # strip leading zeros (bump min_exp); an all-zero window, such as the
        # difference of two equal sides, skips the scan
        lead = 0 if any(cs) else len(cs)
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
    def zero(order: int | None = None) -> "IntSeries":
        return IntSeries.make(0, (), _order_arg(order))

    @staticmethod
    def one(order: int | None = None) -> "IntSeries":
        return IntSeries.make(0, (1,), _order_arg(order))

    @staticmethod
    def monomial(exp: int, coeff: int = 1, order: int | None = None) -> "IntSeries":
        return IntSeries.make(int_arg(exp, "exp"), (int_arg(coeff, "coeff"),), _order_arg(order))

    @staticmethod
    def from_terms(terms: Iterable[tuple], order: int | None = None) -> "IntSeries":
        """The series sum c q^e over the (exponent e, coefficient c) pairs
        terms, cut below order (None = exact): repeated exponents are summed,
        and terms at or past the order are dropped."""
        order = _order_arg(order)
        pairs = [(int_arg(e, "exponent"), int_arg(c, "coefficient")) for e, c in terms]
        if order is not None:
            pairs = [(e, c) for e, c in pairs if e < order]
        if not pairs:
            return IntSeries.zero(order)
        lo = min(e for e, _ in pairs)
        cs = [0] * (max(e for e, _ in pairs) - lo + 1)
        for e, c in pairs:
            cs[e - lo] += c
        return IntSeries.make(lo, cs, order)

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
        exp = int_arg(exp, "exp")
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

    def __add__(self, other: "IntSeries", op=add) -> "IntSeries":
        if not isinstance(other, IntSeries):
            return NotImplemented
        order = _min_order(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        if order is not None:  # nothing at or past the order is added
            a, b = a[:max(order - self.min_exp, 0)], b[:max(order - other.min_exp, 0)]
        if not b:
            return self.truncate(order)
        if not a:
            return (other if op is add else -other).truncate(order)
        return IntSeries.make(*pool_add([self.min_exp, list(a)], [other.min_exp, b], op), order)

    def __neg__(self) -> "IntSeries":
        return IntSeries(self.min_exp, tuple(-c for c in self.coeffs), self.order)

    def __sub__(self, other: "IntSeries") -> "IntSeries":
        return self.__add__(other, sub)

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
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
        c = int_arg(c, "c")
        if c == 0:
            return IntSeries.make(0, (), self.order)
        return IntSeries(self.min_exp, tuple(c * x for x in self.coeffs), self.order)

    def shift(self, k: int) -> "IntSeries":
        """Multiply by q**k (exponent translation); an exact zero stays the
        canonical zero."""
        k = int_arg(k, "k")
        if self.order is None and not self.coeffs:
            return IntSeries.zero()
        return IntSeries(
            self.min_exp + k,
            self.coeffs,
            None if self.order is None else self.order + k,
        )

    def truncate(self, order: int | None) -> "IntSeries":
        """Narrow the window to ``order`` (never widens)."""
        order = _order_arg(order)
        if order is None or (self.order is not None and order >= self.order):
            return self
        return IntSeries.make(self.min_exp, self.coeffs, order)


def times_one_minus_qk(cs: list, k: int) -> list:
    """The coefficient list cs times 1 - q^k (k >= 1), in place on its
    window len(cs); returns cs.  The map stops with cs[k:], and the
    assignment reads all of it before it writes."""
    cs[k:] = map(sub, cs[k:], cs)
    return cs


def over_one_minus_qk(cs: list, k: int) -> list:
    """The coefficient list cs divided by 1 - q^k (k >= 1), in place on its
    window len(cs): 1/(1 - q^k) = 1 + q^k + q^(2k) + ..., so the quotient
    takes prefix sums along each residue class mod k.  Returns cs."""
    for r in range(min(k, len(cs))):
        cs[r::k] = accumulate(cs[r::k])
    return cs


def exact_over_one_minus_qk(cs: list, k: int) -> bool:
    """Divide the polynomial coefficient list cs by 1 - q^k (k >= 1), in
    place, checked exactly.  The quotient is the ``over_one_minus_qk`` pass
    with its top k entries removed, and 1 - q^k divides cs iff those entries
    vanish: then cs is cut to the quotient and True is returned, otherwise
    cs keeps the whole pass and False is returned."""
    over_one_minus_qk(cs, k)
    top = max(len(cs) - k, 0)
    if any(cs[top:]):
        return False
    del cs[top:]
    return True


def one_minus_q_power(e: int, out_order: int) -> IntSeries:
    """(1-q)**e cut below q^out_order >= 1, e >= 0, via binomial coefficients."""
    e, out_order = int_arg(e, "e", 0), int_arg(out_order, "out_order", 1)
    out = [0] * out_order
    c = 1
    for i in range(min(e, out_order - 1) + 1):
        out[i] = c if i % 2 == 0 else -c
        c = c * (e - i) // (i + 1)
    return IntSeries.make(0, out, out_order)


def divisor_sum_series(out_order: int) -> IntSeries:
    """sum_{i>=1} q^i/(1-q^i) = sum_n d(n) q^n with d the divisor count."""
    out_order = int_arg(out_order, "out_order", 1)
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
    out_order = int_arg(out_order, "out_order", 1)
    out = [1] + [0] * (out_order - 1)
    for start, step in pairs:
        for e in range(int_arg(start, "start", 1), out_order, int_arg(step, "step", 1)):
            times_one_minus_qk(out, e)
    return IntSeries.make(0, out, out_order)


def euler_product(out_order: int) -> IntSeries:
    """(q;q)_infinity, the progression product of (1 - q^k) over k >= 1."""
    return progression_product([(1, 1)], out_order)


def first_difference(a: IntSeries, b: IntSeries):
    """First exponent where a and b disagree on their common window: the
    first nonzero coefficient of a - b.

    Returns None when equal there, else (exponent, a_coeff, b_coeff).
    """
    d = a - b
    e = next((d.min_exp + i for i, c in enumerate(d.coeffs) if c), None)
    return None if e is None else (e, a.coeff(e), b.coeff(e))
