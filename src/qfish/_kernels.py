"""Dense integer polynomial kernels, pure Python reference implementation.

A coefficient vector is a plain list of ints indexed from exponent 0.
Everything is exact (arbitrary precision); schoolbook multiplication is
deliberate, the series this package handles are dense and desk-sized.

``qfish._speedups`` (``_speedups.c``, a small C extension) implements the
same two functions with an int64 fast path; ``qfish.backend`` picks one of
the twins at import time.
"""

from __future__ import annotations


def mul(a: list, b: list) -> list:
    """Full product of two coefficient vectors."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return []
    out = [0] * (la + lb - 1)
    for i in range(la):
        ai = a[i]
        if ai:
            for j in range(lb):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
    return out


def mul_trunc(a: list, b: list, n: int) -> list:
    """First ``n`` coefficients of ``a * b`` (result length <= n)."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0 or n <= 0:
        return []
    if la + lb - 1 < n:
        n = la + lb - 1
    out = [0] * n
    for i in range(min(la, n)):
        ai = a[i]
        if ai:
            jmax = min(lb, n - i)
            for j in range(jmax):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
    return out
