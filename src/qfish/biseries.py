"""Series truncated in two variables x and q.

Carrier for H_t(x, q) and M_t(x, q): a column of q-series, one per x-degree
below ``x_bound``, all sharing a common q-order.  Every engine builds one
with ``BiSeries.make`` from its list of columns; those in torus collect
their terms as pools by x-degree first and check there that an x^(-h)
prefactor cancels.
"""

from __future__ import annotations

from .series import IntSeries, Record, first_difference


class BiSeries(Record):
    """``cols[j]`` is the IntSeries coefficient of x^j, j = 0 .. x_bound - 1."""

    __slots__ = ("x_bound", "q_order", "cols")

    @staticmethod
    def make(x_bound: int, q_order: int, cols) -> "BiSeries":
        cs = list(cols)[:x_bound]
        while len(cs) < x_bound:
            cs.append(IntSeries.zero(q_order))
        return BiSeries(x_bound, q_order, tuple(c.truncate(q_order) for c in cs))

    def substitute_x_times_qk(self, k: int) -> "BiSeries":
        """x -> q**k * x: the x^j column picks up a q-shift of j*k."""
        cols = [self.cols[j].shift(j * k).truncate(self.q_order) for j in range(self.x_bound)]
        return BiSeries(self.x_bound, self.q_order, tuple(cols))

    def mul_one_minus_x(self) -> "BiSeries":
        """Multiply by (1 - x)."""
        cols = []
        for j in range(self.x_bound):
            c = self.cols[j]
            if j:
                c = c - self.cols[j - 1]
            cols.append(c)
        return BiSeries(self.x_bound, self.q_order, tuple(cols))


def bi_first_difference(a: BiSeries, b: BiSeries):
    """First (x, q) position where a and b differ on the common window."""
    xb = min(a.x_bound, b.x_bound)
    for j in range(xb):
        d = first_difference(a.cols[j], b.cols[j])
        if d is not None:
            return (j, d[0], d[1], d[2])
    return None
