"""Kernel selection: the compiled extension when it imports, pure Python
otherwise.

The extension ``qfish._speedups`` is built from ``_speedups.c`` by
``python setup.py build_ext --inplace`` (or ``pip install .``); without a C
compiler the build is skipped and the pure kernels are used.  The
extension multiplies int64-sized products on C arrays and hands every
other product to the pure ``mul_trunc``, so both backends share one
big-integer convolution.  ``mul_trunc`` is the one product both modules
export: ``mul_trunc(a, b, n)`` returns the first ``n`` coefficients
(``n = len(a) + len(b) - 1`` for the full product), and
``mul_trunc(a, b, n, out, off)`` (positional) adds them into the list
``out`` at ``off`` in place and returns ``out``; ``out`` and ``off`` are
checked before anything is written.

``pool_dp`` is the extension's (S, A)-pool DP of ``torus._pool_dp`` for
q-series factors, or None on the pure lane, where ``_pool_dp`` runs its
Python loop; it returns ``NotImplemented`` where a value leaves int64,
and ``_pool_dp`` then runs the loop too.  ``available_backends()`` hands
out both modules, so tests and benchmarks can run the pure kernel next to
the compiled one in one process.
"""

from __future__ import annotations

from . import _kernels as _pure

try:
    from . import _speedups as _fast
except ImportError:
    _fast = None

_impl = _fast if _fast is not None else _pure

mul_trunc = _impl.mul_trunc
pool_dp = getattr(_impl, "pool_dp", None)


def backend_name() -> str:
    return "compiled" if _impl is _fast else "pure"


def available_backends() -> dict:
    """Both kernel modules, for benchmarks and cross-checking tests."""
    out = {"pure": _pure}
    if _fast is not None:
        out["compiled"] = _fast
    return out
