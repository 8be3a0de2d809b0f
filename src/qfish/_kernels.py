"""Dense integer polynomial kernels, pure Python.

A coefficient vector is a plain list of ints indexed from exponent 0.
Everything is exact (arbitrary precision).  ``mul_trunc`` is the one
convolution: each output coefficient is one diagonal sum
``sum(map(mul, ...))`` over slices, so the inner loop runs in C.

This module is the whole kernel without a C compiler.  With one,
``qfish._speedups`` (``_speedups.c``) runs products that fit int64 on C
arrays and hands every other product to ``mul_trunc`` here;
``qfish.backend`` picks the module at import time.
"""

from __future__ import annotations

from operator import mul as _mul


def mul_trunc(a, b, n: int) -> list:
    """First ``n`` coefficients of ``a * b`` (result length <= n)."""
    la, lb = len(a), len(b)
    n = min(n, la + lb - 1)
    if la == 0 or lb == 0 or n <= 0:
        return []
    rb = b[::-1]  # rb[lb - 1 - j] = b[j], so a diagonal is two forward slices
    out = []
    for k in range(n):
        i0, i1 = max(0, k - lb + 1), min(la, k + 1)
        j0 = lb - 1 - k + i0
        out.append(sum(map(_mul, a[i0:i1], rb[j0:j0 + i1 - i0])))
    return out


def mul(a, b) -> list:
    """Full product of two coefficient vectors."""
    return mul_trunc(a, b, len(a) + len(b) - 1)
