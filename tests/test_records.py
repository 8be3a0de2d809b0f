"""Value semantics of the record types, what a fresh process imports,
which private names one module may import from another, and which exported
names the library itself uses."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfish
import qfish.torus as torus_mod
from qfish import (
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
from qfish.torus import _m_graded, b_sums, kz_inner_sum
from test_qseries import q_binomial
from test_series import DivisionWitness

SRC = Path(__file__).resolve().parent.parent / "src"

# Each maker returns a fresh object, equal to the one it returned before.
MAKERS = {
    "IntSeries": lambda: IntSeries(1, (2, 3), 5),
    # the witness of the poly_divides oracle in the tests, a record with None fields
    "DivisionWitness": lambda: DivisionWitness(False, None, 2, IntSeries(0, (1,), None)),
    "CycInt": lambda: CycInt(4, (1, -1)),
    "PeriodicChar": lambda: PeriodicChar(2, (1, -1)),
    "ThetaSpec": lambda: ThetaSpec(1, 24, 0, PeriodicChar(2, (1, -1))),
    "TorusParams": lambda: torus_params(3),
    "Dissection": lambda: Dissection(2, (IntSeries(0, (1,), None),)),
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


# Exported names that no module of the library uses yet, each waiting on the
# ROADMAP item that gives it a report path.
PENDING = {
    "straub_order_bound": 14,
    "binom_congruence": 14,
    "xi_series": 11,
    "kz_at_root_of_unity": 11,
    "mean_value_zero": 11,
}


def test_every_export_has_a_caller_in_the_library():
    # a name counts where it is loaded or read as an attribute, not where it
    # is defined and not in a docstring; __init__.py only re-exports
    used = set()
    for path in sorted((SRC / "qfish").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exported = set(qfish.__all__)
    assert set(PENDING) <= exported
    assert sorted(exported - used - set(PENDING)) == []
    assert sorted(set(PENDING) & used) == []


def test_each_module_states_its_exports():
    # the modules __init__.py imports from, each naming its exports once
    tree = ast.parse((SRC / "qfish" / "__init__.py").read_text())
    names = [node.module for node in tree.body if isinstance(node, ast.ImportFrom) and node.level]
    assert names
    stated = []
    for name in names:
        module = importlib.import_module(f"qfish.{name}")
        assert "__all__" in vars(module), name
        for export in module.__all__:
            assert not export.startswith("_"), (name, export)
            assert getattr(module, export) is getattr(qfish, export), (name, export)
        stated += module.__all__
    assert len(stated) == len(set(stated))
    assert sorted(stated) == qfish.__all__


def test_cold_start_imports_no_heavy_stdlib():
    # -S keeps site hooks of the host interpreter out of the module set; a
    # whole JSON request runs, so the flag parsing and the dump count too
    code = (
        "import qfish, qfish.cli, sys; "
        "qfish.cli.main(['xi', '--t', '1', '--count', '3', '--format', 'json']); "
        "print('loaded:', *(m for m in ('dataclasses', 'inspect', 'fractions', 'decimal',"
        " 'typing', 'pathlib', 'csv', 'argparse', 'getopt', 'gettext', 'locale')"
        " if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines()[-1] == "loaded:"


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


@pytest.mark.parametrize("call", [
    lambda: IntSeries(0, (1,), None) + 1,
    lambda: IntSeries(0, (1,), None) - 1,
    lambda: CycInt(4, (1, -1)) + 1,
    lambda: CycInt(4, (1, -1)) - 1,
    lambda: CycInt(4, (1, -1)) * 1.5,
    lambda: CycInt(4, (1, -1)) * IntSeries(0, (1,), None),
], ids=["IntSeries+int", "IntSeries-int", "CycInt+int", "CycInt-int", "CycInt*float",
        "CycInt*IntSeries"])
def test_foreign_operand_is_a_type_error(call):
    # the operator answers NotImplemented, so Python raises the TypeError
    with pytest.raises(TypeError, match="unsupported operand"):
        call()


@pytest.mark.parametrize("args,kwargs", [
    ((2,), {}),
    ((2, (), 4), {}),
    ((2,), {"pieces": ()}),
    ((), {"s": 3, "pieces": ()}),
], ids=["too_few", "too_many", "keyword_field", "all_keywords"])
def test_record_takes_exactly_its_fields(args, kwargs):
    with pytest.raises(TypeError):
        Dissection(*args, **kwargs)


def test_torus_params_is_a_cache_key():
    a_n_t(torus_params(3), 2, 6)
    hits = _m_graded.cache_info().hits
    a_n_t(torus_params(3), 2, 6)
    assert _m_graded.cache_info().hits == hits + 1


def test_engine_caches_bounded():
    assert b_sums.cache_info().maxsize == 32
    assert _xi_cached.cache_info().maxsize == 16
    assert torus_mod._xq_rows.cache_info().maxsize == 8
    assert _m_graded.cache_info().maxsize == 32
    assert _phi_coeffs.cache_info().maxsize == 256
    assert kz_inner_sum.cache_info().maxsize == 256
    # these six are the package's only caches, and none is unbounded
    import qfish.cli  # noqa: F401  (loads every engine module)

    engines = [mod for name, mod in sys.modules.items() if name.startswith("qfish.")]
    cached = [obj for mod in engines for obj in vars(mod).values() if hasattr(obj, "cache_info")]
    six = (b_sums, _xi_cached, torus_mod._xq_rows, _m_graded, _phi_coeffs, kz_inner_sum)
    assert {id(obj) for obj in cached} == {id(obj) for obj in six}
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
    for cache in (_m_graded, kz_inner_sum, _xi_cached, torus_mod._xq_rows):
        cache.cache_clear()
    with pytest.raises(TypeError):
        call()
    warm()
    with pytest.raises(TypeError):
        call()
