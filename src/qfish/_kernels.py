"""Dense integer polynomial kernels, pure Python.

A coefficient vector is a plain list of ints indexed from exponent 0.
Everything is exact (arbitrary precision).  ``mul_trunc`` is the one
convolution and the module's only entry point (a full product asks for
``len(a) + len(b) - 1`` coefficients): each output coefficient is one
diagonal sum ``sum(map(mul, ...))`` over slices, so the inner loop runs
in C.  The operands may be lists or tuples.

``mul_trunc(a, b, n, out, off)`` is the accumulate form: it adds the
product's coefficients into the list ``out`` at ``off, off + 1, ...`` in
place (a zero coefficient leaves its slot untouched) and returns ``out``.
``out`` must be a list with at least ``off`` plus the product length
items, and ``off >= 0``; both are checked before anything is written.

This module is the whole kernel when ``qfish._speedups`` is not built.
When it is, ``_speedups.c`` runs products that fit int64 on C arrays and
hands every other product to ``mul_trunc`` here; ``qfish.backend`` uses
the extension exactly when it imports.
"""

from __future__ import annotations

from operator import index as _index
from operator import mul as _mul


def mul_trunc(a, b, n: int, out=None, off: int = 0) -> list:
    """First ``n`` coefficients of ``a * b`` (result length <= n); with
    ``out``, added into ``out[off:]`` in place and ``out`` returned."""
    la, lb = len(a), len(b)
    n = max(min(n, la + lb - 1), 0) if la and lb else 0
    off = _index(off)
    if out is not None:
        if not isinstance(out, list):
            raise TypeError(f"out must be a list, not {type(out).__name__}")
        if off < 0 or len(out) - off < n:
            raise ValueError("off must be >= 0 and out long enough for the product")
    if not n:
        return [] if out is None else out
    rb = b[::-1]  # rb[lb - 1 - j] = b[j], so a diagonal is two forward slices
    res = []
    for k in range(n):
        i0, i1 = max(0, k - lb + 1), min(la, k + 1)
        j0 = lb - 1 - k + i0
        res.append(sum(map(_mul, a[i0:i1], rb[j0:j0 + i1 - i0])))
    if out is None:
        return res
    for i, c in enumerate(res, off):
        if c:
            out[i] += c
    return out
