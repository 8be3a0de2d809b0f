"""The compiled and pure kernels must agree bit-for-bit, and the pure
diagonal-sum convolution must agree with a row-by-row schoolbook.

The compiled module is the one the package imported; when it is not
importable and a C compiler is present, it is built from ``setup.py`` into a
temporary directory, so these tests skip only on a machine without a
compiler.
"""

import copy
import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfish.torus as torus_mod
from qfish.backend import available_backends

BACKENDS = available_backends()
PURE = BACKENDS["pure"]
ROOT = Path(__file__).resolve().parents[1]

INT64_MAX = 2**63 - 1
LLONG_MIN = -(2**63)

small_ints = st.lists(st.integers(-(10**3), 10**3), max_size=12)
big_ints = st.lists(st.integers(-(10**25), 10**25), max_size=8)
mixed = st.one_of(small_ints, big_ints)
zero_heavy = st.lists(st.sampled_from([0, 0, 0, 0, 1, -7, 2**64, -(10**30)]), max_size=12)
operands = st.one_of(mixed, zero_heavy).flatmap(
    lambda xs: st.sampled_from([xs, tuple(xs)]))


def schoolbook_mul_trunc(a, b, n):
    """The row-by-row schoolbook product, kept as the oracle for the
    diagonal-sum convolution in ``qfish._kernels``."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0 or n <= 0:
        return []
    if la + lb - 1 < n:
        n = la + lb - 1
    out = [0] * n
    for i in range(min(la, n)):
        ai = a[i]
        if ai:
            for j in range(min(lb, n - i)):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
    return out


def _have_compiler() -> bool:
    # the compiler setuptools would use: $CC, else the one Python was built with
    cc = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "").split()
    return bool(cc) and shutil.which(cc[0]) is not None


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    if "compiled" in BACKENDS:
        return BACKENDS["compiled"]
    if not _have_compiler() or not (ROOT / "setup.py").exists():
        pytest.skip("compiled extension not built and no C compiler to build it")
    out = tmp_path_factory.mktemp("ext")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out), "--build-temp", str(out / "tmp")],
        cwd=ROOT, capture_output=True, text=True,
    )
    built = [p for suffix in importlib.machinery.EXTENSION_SUFFIXES
             for p in (out / "qfish").glob("_speedups" + suffix)]
    if not built:
        pytest.fail("a C compiler is present but the extension did not build:\n"
                    + proc.stdout[-2000:] + proc.stderr[-2000:])
    spec = importlib.util.spec_from_file_location("qfish._speedups", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _agree(compiled, a, b, n=None):
    if n is None:  # the full product
        n = len(a) + len(b) - 1
    assert compiled.mul_trunc(a, b, n) == PURE.mul_trunc(a, b, n)


class TestKernelAgreement:
    @given(mixed, mixed)
    @settings(max_examples=300, deadline=None)
    def test_mul(self, compiled, a, b):
        _agree(compiled, a, b)

    @given(mixed, mixed, st.integers(-3, 30))
    @settings(max_examples=300, deadline=None)
    def test_mul_trunc(self, compiled, a, b, n):
        _agree(compiled, a, b, n)

    def test_int64_boundary(self, compiled):
        # values straddling the fast-path overflow bound
        near = 2**31
        _agree(compiled, [near, -near, near - 1], [near, near, -near])
        huge = [2**63 - 1, -(2**63), 2**64]
        _agree(compiled, huge, huge)

    def test_fast_limit_edges(self, compiled):
        # max|a| * max|b| * overlap == 2^62 - 1 = 3 * 715827883 * 2147483647
        a = [715827883, -715827883, 715827883]
        b = [2147483647, 2147483647, -2147483647]
        assert 715827883 * 2147483647 * 3 == 2**62 - 1
        _agree(compiled, a, b)
        _agree(compiled, [2147483649], [-2147483647])
        # exactly 2^62, just outside the int64 lane
        _agree(compiled, [2**31, -(2**31)], [2**30, 2**30])
        _agree(compiled, [2**31], [2**31])
        # sums that would overflow int64 if the lane were taken wrongly
        _agree(compiled, [2**32] * 4, [2**31] * 4)
        _agree(compiled, [INT64_MAX] * 3, [INT64_MAX] * 3)

    def test_extreme_operands(self, compiled):
        for a in ([LLONG_MIN], [INT64_MAX], [-INT64_MAX], [LLONG_MIN, INT64_MAX, 1]):
            for b in ([1], [-1], [0, 1], [LLONG_MIN], [INT64_MAX, -INT64_MAX]):
                _agree(compiled, a, b)
                _agree(compiled, a, b, 1)

    def test_truncation_lengths(self, compiled):
        a, b = [1, -2, 3], [4, 5]
        for n in (0, -1, -(10**30), 1, 3, 4, 5, 100, 2**63, 10**30):
            _agree(compiled, a, b, n)
            _agree(compiled, [10**30, 1], b, n)

    def test_all_zero_operands(self, compiled):
        for a, b in (([0, 0, 0], [5, 6]), ([0] * 3, [10**30]),
                     ([10**30, 0], [0, 0]), ([0], [0])):
            _agree(compiled, a, b)
            _agree(compiled, a, b, 2)

    def test_sequence_operands(self, compiled):
        assert compiled.mul_trunc((1, 2), (3, 10**30), 3) == PURE.mul_trunc((1, 2), (3, 10**30), 3)
        assert compiled.mul_trunc((1, 2), [3, 4], 2) == PURE.mul_trunc((1, 2), [3, 4], 2)

    def test_empty_and_zero(self, compiled):
        for impl in (PURE, compiled):
            assert impl.mul_trunc([], [1, 2], 1) == []
            assert impl.mul_trunc([1], [1], 0) == []
            assert impl.mul_trunc([0, 0], [0], 2) == [0, 0]


class TestPureConvolution:
    @given(operands, operands, st.integers(-3, 30))
    @settings(max_examples=300, deadline=None)
    def test_matches_schoolbook(self, a, b, drawn):
        full = len(a) + len(b) - 1
        for n in (drawn, -(10**30), 0, 1, full, full + 1, full + 5, 2**63, 10**30):
            got = PURE.mul_trunc(a, b, n)
            assert type(got) is list
            assert got == schoolbook_mul_trunc(a, b, n)
        assert PURE.mul_trunc(a, b, full) == schoolbook_mul_trunc(a, b, full)

    def test_dense_operands(self):
        a = list(range(-40, 41))
        b = [3**k - 2**90 for k in range(57)]
        for n in (1, 56, 57, 80, 81, 137, 200):
            assert PURE.mul_trunc(a, b, n) == schoolbook_mul_trunc(a, b, n)
            assert PURE.mul_trunc(b, a, n) == schoolbook_mul_trunc(b, a, n)


class TestCompiledContract:
    def test_refcounts_unchanged(self, compiled):
        big = 10**30
        mid = 2**40  # not a cached small int, stays in the int64 lane
        before = sys.getrefcount(big), sys.getrefcount(mid)
        for _ in range(1000):
            compiled.mul_trunc([big, 0, 1], [big, 2], 4)
            compiled.mul_trunc([mid, 3], [mid, 0, 5], 2)
        assert (sys.getrefcount(big), sys.getrefcount(mid)) == before
        # each result element is owned by the result list alone
        res = compiled.mul_trunc([big], [big], 1)
        refs = sys.getrefcount(res[0])  # outside the assert, which holds one more
        assert refs == 2

    def test_non_int_raises_type_error(self, compiled):
        for bad in (1.5, None, "x"):
            with pytest.raises(TypeError):
                compiled.mul_trunc([1, bad], [2, 3], 3)  # int64 lane
            with pytest.raises(TypeError):
                compiled.mul_trunc([10**30, bad], [2, 3], 3)  # PyObject lane
            with pytest.raises(TypeError):
                compiled.mul_trunc([1], [bad], 1)
        with pytest.raises(TypeError):
            compiled.mul_trunc([1], [1], 1.0)

    def test_number_protocol_errors_propagate(self, compiled):
        class Boom(int):
            def __mul__(self, other):
                raise ArithmeticError("boom")

        big = 10**30
        before = sys.getrefcount(big)
        for impl in (PURE, compiled):
            for _ in range(100):
                with pytest.raises(ArithmeticError, match="boom"):
                    impl.mul_trunc([big, Boom(big)], [big, 1], 3)
        assert sys.getrefcount(big) == before

    def test_operand_mutated_during_product(self, compiled):
        a = []

        class Clearing(int):
            def __mul__(self, other):
                a.clear()
                return int(self) * other

        a.extend([Clearing(10**30), 10**30, 7])
        assert compiled.mul_trunc(a, [1, 2], 4) == PURE.mul_trunc([10**30, 10**30, 7], [1, 2], 4)


# slots of an accumulate target: small ints, int64 edges where a C add
# overflows, and ints beyond int64 (not the cached small ints, so `is` shows
# whether a slot was rewritten)
slot_values = st.sampled_from([0, 1, -7, 2**40, -(2**40), INT64_MAX, INT64_MAX - 3,
                               LLONG_MIN, LLONG_MIN + 3, 2**64, -(10**30)])


def _accumulated(out, a, b, n, off):
    """out with the schoolbook product's coefficients added at off."""
    want = list(out)
    for i, c in enumerate(schoolbook_mul_trunc(a, b, n), off):
        want[i] += c
    return want


class TestAccumulate:
    """mul_trunc(a, b, n, out, off) adds the product into out[off:] in place,
    identically in both modules, and checks out and off before any write."""

    @given(operands, operands, st.one_of(st.integers(-3, 30), st.just(10**30)),
           st.integers(0, 3), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_pure(self, compiled, a, b, n, off, data):
        m = max(min(n, len(a) + len(b) - 1), 0) if a and b else 0
        out = data.draw(st.lists(slot_values, min_size=off + m, max_size=off + m + 2))
        got, want = list(out), list(out)
        assert compiled.mul_trunc(a, b, n, got, off) is got
        assert PURE.mul_trunc(a, b, n, want, off) is want
        assert got == want == _accumulated(out, a, b, n, off)
        prod = PURE.mul_trunc(a, b, n)
        untouched = [i for i in range(len(out))
                     if not off <= i < off + len(prod) or prod[i - off] == 0]
        assert all(got[i] is out[i] for i in untouched)

    def test_int64_slot_overflow(self, compiled):
        for x, c in ((INT64_MAX, 1), (INT64_MAX - 3, 5), (LLONG_MIN, -1), (LLONG_MIN + 3, -4)):
            for impl in (PURE, compiled):
                out = [x, x]
                impl.mul_trunc([c], [1, 0], 2, out, 0)
                assert out == [x + c, x]
                assert out[1] is x  # a zero coefficient is not added

    def test_bigint_handoff(self, compiled):
        a, b = [10**30, 0, -1], (3, 10**25)
        out = [1, 2**64, INT64_MAX, 5, 6]
        got = list(out)
        compiled.mul_trunc(a, b, 3, got, 1)
        assert got == _accumulated(out, a, b, 3, 1)
        assert got[0] is out[0] and got[4] is out[4]

    def test_invalid_out_raises_before_writing(self, compiled):
        cases = [
            (TypeError, ([1, None], [2, 3], 2), [5, 6], 0),  # non-int operand
            (TypeError, ([10**30, None], [2, 3], 2), [5, 6], 0),  # ... on the handoff path
            (ValueError, ([1, 2], [3, 4], 3), [5, 6], 0),  # out too short
            (ValueError, ([1, 2], [3, 4], 3), [5, 6, 7], 1),  # too short past off
            (ValueError, ([1], [1], 1), [5, 6], -1),  # off < 0
            (ValueError, ([1], [1], 1), [5, 6], 10**30),  # off past any end
            (TypeError, ([1], [1], 1), (5, 6), 0),  # out not a list
            (TypeError, ([1], [1], 1), bytearray(2), 0),
        ]
        for impl in (PURE, compiled):
            for exc, args, out, off in cases:
                before = list(out)
                with pytest.raises(exc):
                    impl.mul_trunc(*args, out, off)
                assert list(out) == before

    def test_out_shrinks_during_add(self, compiled):
        for impl in (PURE, compiled):
            out = []

            class Clearing(int):
                def __add__(self, other):
                    out.clear()
                    return int(self) + other

            out.extend([Clearing(1), 1, 1])
            with pytest.raises(IndexError):
                impl.mul_trunc([1, 1, 1], [1], 3, out, 0)
            assert out == []

    def test_refcounts_unchanged(self, compiled):
        mid, big = 2**40, 10**30
        out = [mid, 0, big]
        before = sys.getrefcount(out), sys.getrefcount(mid), sys.getrefcount(big)
        for _ in range(1000):
            compiled.mul_trunc([0, 1], [1, 0], 2, out, 1)  # adds 0, then 1 into out[2]
            compiled.mul_trunc([0, big], [1], 2, out, 0)  # handoff; adds big into out[1]
            compiled.mul_trunc([0], [5], 1, out, 0)  # product all zero: nothing written
        assert out[0] is mid and out[1] == 1000 * big and out[2] == big + 1000
        assert sys.getrefcount(out) == before[0]
        assert sys.getrefcount(mid) == before[1]


# -- the compiled (S, A)-pool DP ------------------------------------------------

def _loop(f, s):
    """A q-lift that is not torus._q_lift, so _pool_dp runs its Python loop."""
    return [f[0] + s, f[1]]


def _normalized(ends, order, graded):
    if graded:
        return {d: s for d, pool in ends.items() if (s := torus_mod._series(pool, order))}
    return torus_mod._series(ends, order)


small_pools = st.builds(lambda lo, cs: [lo, cs], st.integers(-2, 6),
                        st.lists(st.integers(-5, 5), max_size=4))


@st.composite
def dp_inputs(draw):
    m = draw(st.sampled_from([1, 2, 4, 8]))
    nf = draw(st.integers(0, 6 if m < 8 else 4))
    fac_np1 = [draw(small_pools) for _ in range(nf)]
    fac_n = [draw(st.one_of(st.none(), small_pools)) for _ in range(nf)]
    order = draw(st.one_of(st.none(), st.integers(-2, 15)))
    return m, draw(st.integers(-20, 40)), fac_n, fac_np1, order, draw(st.booleans())


class TestCompiledPoolDP:
    """pool_dp runs torus._pool_dp's DP for the q-lift on int64: equal to the
    Python loop after _series, NotImplemented wherever a value leaves int64
    (and _pool_dp then answers by its loop), factors only read."""

    @given(dp_inputs())
    @settings(max_examples=400, deadline=None)
    def test_matches_python_loop(self, compiled, case):
        m, a, fac_n, fac_np1, order, graded = case
        before = copy.deepcopy((fac_n, fac_np1))
        got = compiled.pool_dp(m, a, fac_n, fac_np1, order, graded)
        assert got is not NotImplemented
        assert (fac_n, fac_np1) == before
        want = torus_mod._pool_dp(SimpleNamespace(m=m, a=a), fac_n, fac_np1, order, graded, lift=_loop)
        assert _normalized(got, order, graded) == _normalized(want, order, graded)
        via = torus_mod._pool_dp(SimpleNamespace(m=m, a=a), fac_n, fac_np1, order, graded)
        assert _normalized(via, order, graded) == _normalized(want, order, graded)

    @pytest.mark.parametrize("fac_np1,graded", [
        ([[0, [1]], [0, [2**63]]], False),  # a coefficient past int64
        ([[0, [1]], [0, [2**63]]], True),
        ([[0, [1]], [0, [2**62]]], False),  # 1 * 2^62 * 1 breaks the product bound
        ([[0, [1]], [0, [2**62]]], True),
        # j = 1, 3, 5 land on one coefficient: (2^62 - 1) * 3 overflows its add
        ([[0, [1]], [0, [2**62 - 1]], [0, [0]], [-1, [2**62 - 1]], [0, [0]], [-2, [2**62 - 1]]],
         False),
    ], ids=["coefficient", "coefficient-graded", "product_bound", "product_bound-graded",
            "accumulate"])
    def test_int64_fallbacks(self, compiled, fac_np1, graded):
        p = SimpleNamespace(m=2, a=1)  # t = 2: one level, odd j only
        fac_n = [None] * len(fac_np1)
        assert compiled.pool_dp(p.m, p.a, fac_n, fac_np1, None, graded) is NotImplemented
        want = torus_mod._pool_dp(p, fac_n, fac_np1, None, graded, lift=_loop)
        got = torus_mod._pool_dp(p, fac_n, fac_np1, None, graded)
        assert _normalized(got, None, graded) == _normalized(want, None, graded)
        pools = want.values() if graded else [want]
        assert max(abs(c) for pool in pools for c in pool[1]) >= 2**62

    def test_non_int_raises_type_error(self, compiled):
        fac_n = [None, None, None]
        for bad in (1.5, None, "x"):
            with pytest.raises(TypeError):
                compiled.pool_dp(2, 1, fac_n, [[0, [1]], [0, [1, bad]]], None, False)
            with pytest.raises(TypeError):  # a big int does not end the scan
                compiled.pool_dp(2, 1, fac_n, [[0, [10**30]], [0, [bad]]], None, False)
            with pytest.raises(TypeError):  # past the order cut, still read
                compiled.pool_dp(2, 1, fac_n, [[0, [1]], [0, [1]], [9, [bad]]], 5, True)
        for bad_pool in (None, [0], [0.0, [1]], 7):
            with pytest.raises(TypeError):
                compiled.pool_dp(2, 1, fac_n, [[0, [1]], bad_pool], None, False)
        with pytest.raises(TypeError):
            compiled.pool_dp(2, 1, fac_n, [[0, [1]], [0, [1]]], 3.0, False)

    def test_refcounts_unchanged(self, compiled):
        mid, big = 2**40, 10**30
        fac_n = [[0, [1, mid]], None]
        lanes = ([[0, [mid, 3]], [1, [mid]]], [[0, [big]], [0, [big]]], [[0, [1]], [0, [1.5]]])
        before = [sys.getrefcount(x) for x in (mid, big, fac_n, *lanes)]
        for _ in range(1000):
            for graded in (False, True):
                assert compiled.pool_dp(2, 1, fac_n, lanes[0], None, graded)
                assert compiled.pool_dp(2, 1, fac_n, lanes[1], None, graded) is NotImplemented
                with pytest.raises(TypeError):
                    compiled.pool_dp(2, 1, fac_n, lanes[2], None, graded)
        assert [sys.getrefcount(x) for x in (mid, big, fac_n, *lanes)] == before
        # each pool and coefficient is owned by the result alone
        res = compiled.pool_dp(2, 1, fac_n, lanes[0], None, False)
        refs = sys.getrefcount(res[1]), sys.getrefcount(res[1][0])
        assert refs == (2, 2)
