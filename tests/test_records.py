"""Value semantics of the record types, what a fresh process imports, and
which private names one module may import from another."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfish.torus as torus_mod
from qfish import (
    BiSeries,
    CongruenceReport,
    CycInt,
    Dissection,
    DivisibilityReport,
    IdentityReport,
    IntSeries,
    PeriodicChar,
    ThetaSpec,
    a_n_t,
    torus_params,
)
from qfish.cyclotomic import _phi_coeffs
from qfish.fishburn import _xi_cached, xi_coefficients
from qfish.qseries import binom_row_trunc, chi_t, q_binomial
from qfish.series import DivisionWitness
from qfish.torus import _a_window, _m_graded, kz_inner_sum

SRC = Path(__file__).resolve().parent.parent / "src"

# Each maker returns a fresh object, equal to the one it returned before.
MAKERS = {
    "IntSeries": lambda: IntSeries(1, (2, 3), 5),
    "DivisionWitness": lambda: DivisionWitness(False, None, 2, IntSeries(0, (1,), None)),
    "BiSeries": lambda: BiSeries(1, 3, (IntSeries(0, (1,), 3),)),
    "CycInt": lambda: CycInt(4, (1, -1)),
    "PeriodicChar": lambda: PeriodicChar(2, (1, -1)),
    "ThetaSpec": lambda: ThetaSpec(1, 24, 0, PeriodicChar(2, (1, -1))),
    "TorusParams": lambda: torus_params(3),
    "Dissection": lambda: Dissection(2, (IntSeries(0, (1,), None),), 7),
    "DivisibilityReport": lambda: DivisibilityReport(2, 7, 27, 4, (0, 3), (), True),
    "CongruenceReport": lambda: CongruenceReport(2, 5, 1, 3, (1, 2), (), True, True, ()),
    "IdentityReport": lambda: IdentityReport("key", {"t": 2}, True, None, {"n": 1}),
}
UNHASHABLE = {"IdentityReport"}  # its window is a dict, as with the dataclass


def _fields(rec):
    return [getattr(rec, name) for name in rec.__slots__]


# The underscore names a module may import from a sibling: backend's kernel
# modules.
PRIVATE_IMPORTS = {
    ("backend", "", "_kernels"),
    ("backend", "", "_speedups"),
}


def test_no_private_name_crosses_a_module_boundary():
    found = set()
    for path in sorted((SRC / "qfish").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                if node.level:
                    source = node.module or ""
                elif (node.module or "").startswith("qfish"):
                    source = node.module.removeprefix("qfish").removeprefix(".")
                else:
                    continue
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                source = ""
                names = [alias.name.removeprefix("qfish.") for alias in node.names
                         if alias.name.startswith("qfish.")]
            else:
                continue
            found |= {(path.stem, source, name) for name in names if name.startswith("_")}
    assert found - PRIVATE_IMPORTS == set()


def test_cold_start_imports_no_heavy_stdlib():
    # -S keeps site hooks of the host interpreter out of the module set
    code = (
        "import qfish, qfish.cli, sys; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'fractions', 'decimal')"
        " if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == []


@pytest.mark.parametrize("name", sorted(MAKERS))
class TestValueSemantics:
    def test_equal_fields_equal_objects(self, name):
        a, b = MAKERS[name](), MAKERS[name]()
        assert a == b and not (a != b)
        if name not in UNHASHABLE:
            assert hash(a) == hash(b)

    def test_one_field_differs(self, name):
        a = MAKERS[name]()
        args = _fields(a)
        args[0] = "other"
        assert a != type(a)(*args)

    def test_other_class_never_equal(self, name):
        a = MAKERS[name]()
        sub = type("Sub", (type(a),), {"__slots__": ()})
        assert a != sub(*_fields(a))
        assert a != tuple(_fields(a))

    def test_repr_names_fields(self, name):
        a = MAKERS[name]()
        body = ", ".join(f"{f}={getattr(a, f)!r}" for f in a.__slots__)
        assert repr(a) == f"{name}({body})"


def test_repr_literal():
    assert repr(torus_params(3)) == "TorusParams(t=3, m=4, h_dd=2, h_d=1, a=3, h=6)"
    assert repr(IntSeries(1, (2, 3), 5)) == "IntSeries(min_exp=1, coeffs=(2, 3), order=5)"


@pytest.mark.parametrize("args,kwargs", [
    ((2, ()), {}),
    ((2, (), 4, 5), {}),
    ((2, ()), {"n_index": 4}),
    ((), {"s": 3, "pieces": (), "n_index": 4}),
], ids=["too_few", "too_many", "keyword_field", "all_keywords"])
def test_record_takes_exactly_its_fields(args, kwargs):
    with pytest.raises(TypeError):
        Dissection(*args, **kwargs)


def test_torus_params_is_a_cache_key():
    a_n_t(torus_params(3), 2, 6)
    hits = _a_window.cache_info().hits
    a_n_t(torus_params(3), 2, 6)
    assert _a_window.cache_info().hits == hits + 1


def test_engine_caches_bounded():
    assert _a_window.cache_info().maxsize == 32
    assert _xi_cached.cache_info().maxsize == 16
    assert torus_mod._xq_rows.cache_info().maxsize == 8
    assert _m_graded.cache_info().maxsize == 32
    assert _phi_coeffs.cache_info().maxsize == 256
    assert chi_t.cache_info().maxsize == 16
    assert kz_inner_sum.cache_info().maxsize == 256
    # and no cache anywhere in the package is unbounded
    import qfish.cli  # noqa: F401  (loads every engine module)

    engines = [mod for name, mod in sys.modules.items() if name.startswith("qfish.")]
    cached = [obj for mod in engines for obj in vars(mod).values() if hasattr(obj, "cache_info")]
    assert len({id(obj) for obj in cached}) >= 8
    assert {id(torus_mod._xq_rows), id(_xi_cached)} <= {id(obj) for obj in cached}
    assert all(obj.cache_info().maxsize is not None for obj in cached)
    # and every one is typed: a float key equals its int key
    assert all(obj.cache_parameters()["typed"] for obj in cached)
    # the (x; q)_n factor tables: one per order, at most 8 of them, and an
    # order that is not an int is refused cold and with its int's table warm
    torus_mod._xq_rows.cache_clear()
    with pytest.raises(TypeError):
        torus_mod._xq_rows(9.0)
    for order in range(1, 11):
        torus_mod._xq_rows(order).row(order)
    assert torus_mod._xq_rows.cache_info().currsize == 8
    with pytest.raises(TypeError):
        torus_mod._xq_rows(9.0)


@pytest.mark.parametrize("call,warm", [
    (lambda: a_n_t(torus_params(2), 3.0, 10), lambda: a_n_t(torus_params(2), 3, 10)),
    (lambda: kz_inner_sum(torus_params(2), 2.0, None),
     lambda: kz_inner_sum(torus_params(2), 2, None)),
    (lambda: q_binomial(4.0, 2), lambda: q_binomial(4, 2)),
    (lambda: xi_coefficients(2, 5.0), lambda: xi_coefficients(2, 5)),
], ids=["a_n_t", "kz_inner_sum", "q_binomial", "xi_coefficients"])
def test_float_argument_refused_cold_and_warm(call, warm):
    # the checked cold path raises; once the int entry is filled, the float
    # call must still take that path rather than read the int's entry
    for cache in (_a_window, kz_inner_sum, binom_row_trunc, _xi_cached, torus_mod._xq_rows):
        cache.cache_clear()
    with pytest.raises(TypeError):
        call()
    warm()
    with pytest.raises(TypeError):
        call()
