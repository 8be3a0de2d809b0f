"""Library entry points refuse an argument outside their domain with
ValueError, and an argument of the wrong type with TypeError, in process.
Each case names the message it must raise, so a check that goes away, or
that another check now answers, fails here."""

import re
from pathlib import Path

import pytest

from qfish.cyclotomic import CycInt, cyc_eval
from qfish.fishburn import (
    S_set,
    binom_congruence,
    dissection,
    divisibility_check,
    straub_order_bound,
    verify_congruence,
    xi_coefficients,
    xi_lvalues,
    xi_series,
)
from qfish.identities import (
    verify_difference_equation,
    verify_key_identity,
    verify_rewrite2,
    verify_root_match,
    verify_slater,
    verify_theta_product,
)
from qfish.oeis import check_bfile
from qfish.qseries import (
    chi_t,
    mean_value_zero,
    partial_theta,
    quintiple_sides,
    theta_spec_t,
    torus_product,
)
from qfish.series import (
    IntSeries,
    divisor_sum_series,
    euler_product,
    one_minus_q_power,
    progression_product,
)
from qfish.torus import (
    H_multisum,
    H_theta,
    M_series,
    a_n_t,
    admissible_jvectors,
    colored_jones,
    kz_at_root_of_unity,
    kz_full_polynomial,
    torus_params,
)
from test_cyclotomic import cyclotomic_poly
from test_qseries import pochhammer, q_binomial
from test_series import substitute_one_minus_q
from test_torus import v_exponent

T1, T2 = torus_params(1), torus_params(2)
POLY = IntSeries.make(0, [1, 2, 3])
SPEC = theta_spec_t(2, 0)
BFILE = Path(__file__).parent / "data" / "b022493_sample.txt"

# Every integer argument of the public entry points goes through
# series.int_arg: (function and argument name, call with the value, lowest
# value or None).  True and 2.0 must raise TypeError "<name> must be an
# int", and a value below the lowest ValueError "<name> must be >= <low>";
# the cases are generated into CASES and TYPE_CASES below.  The oracles that
# moved from the library into the tests (substitute_one_minus_q,
# cyclotomic_poly, pochhammer, q_binomial, v_exponent) kept their checks
# verbatim, and their rows keep an oracle from reading True or 2.0 as an int.
INT_SLOTS = [
    ("substitute_one_minus_q out_order", lambda v: substitute_one_minus_q(POLY, v), 1),
    ("one_minus_q_power e", lambda v: one_minus_q_power(v, 5), 0),
    ("one_minus_q_power out_order", lambda v: one_minus_q_power(2, v), 1),
    ("divisor_sum_series out_order", lambda v: divisor_sum_series(v), 1),
    ("progression_product out_order", lambda v: progression_product([(1, 1)], v), 1),
    ("euler_product out_order", lambda v: euler_product(v), 1),
    ("cyclotomic_poly M", lambda v: cyclotomic_poly(v), 1),
    ("cyc_eval M", lambda v: cyc_eval(POLY, v), 1),
    ("pochhammer base_exp", lambda v: pochhammer(v, 3), None),
    ("pochhammer n", lambda v: pochhammer(1, v), 0),
    ("pochhammer out_order", lambda v: pochhammer(1, 3, v), 1),
    ("q_binomial n", lambda v: q_binomial(v, 2), None),
    ("q_binomial k", lambda v: q_binomial(4, v), None),
    ("chi_t t", lambda v: chi_t(v), 1),
    ("theta_spec_t t", lambda v: theta_spec_t(v, 0), 1),
    ("theta_spec_t nu", lambda v: theta_spec_t(2, v), None),
    ("torus_product t", lambda v: torus_product(v, 5), 1),
    ("torus_product out_order", lambda v: torus_product(2, v), 1),
    ("partial_theta out_order", lambda v: partial_theta(SPEC, v), 1),
    ("mean_value_zero M", lambda v: mean_value_zero(SPEC, v), 1),
    ("quintiple_sides q_power", lambda v: quintiple_sides(v, 3, 5), 1),
    ("quintiple_sides x_power", lambda v: quintiple_sides(8, v, 5), None),
    ("quintiple_sides out_order", lambda v: quintiple_sides(8, 3, v), 1),
    ("torus_params t", lambda v: torus_params(v), 1),
    ("v_exponent jv[0]", lambda v: v_exponent((v,), T2), 0),
    ("admissible_jvectors j_cap", lambda v: list(admissible_jvectors(T2, v)), None),
    ("admissible_jvectors v_cap", lambda v: list(admissible_jvectors(T2, 3, v)), None),
    ("kz_full_polynomial N", lambda v: kz_full_polynomial(T2, v), 0),
    ("colored_jones N", lambda v: colored_jones(T2, v), 1),
    ("kz_at_root_of_unity N", lambda v: kz_at_root_of_unity(T2, v), 1),
    ("H_theta x_bound", lambda v: H_theta(T2, v, 4), 1),
    ("H_theta q_order", lambda v: H_theta(T2, 4, v), 1),
    ("H_multisum x_bound", lambda v: H_multisum(T2, v, 4), 1),
    ("H_multisum q_order", lambda v: H_multisum(T2, 4, v), 1),
    ("M_series x_bound", lambda v: M_series(T2, v, 4), 1),
    ("M_series q_order", lambda v: M_series(T2, 4, v), 1),
    ("a_n_t n", lambda v: a_n_t(T2, v, 5), None),
    ("a_n_t q_order", lambda v: a_n_t(T2, 2, v), 1),
    ("xi_series N", lambda v: xi_series(2, v, 3), 0),
    ("xi_series count", lambda v: xi_series(2, 5, v), 1),
    ("xi_lvalues t", lambda v: xi_lvalues(v, 3), 1),
    ("xi_lvalues count", lambda v: xi_lvalues(2, v), 1),
    ("xi_coefficients t", lambda v: xi_coefficients(v, 3), 1),
    ("xi_coefficients count", lambda v: xi_coefficients(2, v), 1),
    ("dissection s", lambda v: dissection(POLY, v), 1),
    ("S_set s", lambda v: S_set(SPEC, v), 1),
    ("divisibility_check t", lambda v: divisibility_check(v, 5, 9), 1),
    ("divisibility_check s", lambda v: divisibility_check(2, v, 9), 2),
    ("divisibility_check n_index", lambda v: divisibility_check(2, 5, v), 0),
    ("verify_congruence t", lambda v: verify_congruence(v, 5, 1, 1), 1),
    ("verify_congruence p", lambda v: verify_congruence(2, v, 1, 1), None),
    ("verify_congruence r", lambda v: verify_congruence(2, 5, v, 1), 1),
    ("verify_congruence m_max", lambda v: verify_congruence(2, 5, 1, v), 1),
    ("straub_order_bound p", lambda v: straub_order_bound(v, 1, 2), None),
    ("straub_order_bound r", lambda v: straub_order_bound(5, v, 2), 1),
    ("straub_order_bound n", lambda v: straub_order_bound(5, 1, v), 0),
    ("binom_congruence i", lambda v: binom_congruence(v, 1, 5, 1, 1, 1), None),
    ("binom_congruence l", lambda v: binom_congruence(0, v, 5, 1, 1, 1), 0),
    ("binom_congruence p", lambda v: binom_congruence(0, 1, v, 1, 1, 1), None),
    ("binom_congruence r", lambda v: binom_congruence(0, 1, 5, v, 1, 1), 1),
    ("binom_congruence m", lambda v: binom_congruence(0, 1, 5, 1, v, 1), 1),
    ("binom_congruence j", lambda v: binom_congruence(0, 1, 5, 1, 1, v), None),
    ("verify_difference_equation t", lambda v: verify_difference_equation(v, 4, 4), 1),
    ("verify_difference_equation x_bound", lambda v: verify_difference_equation(2, v, 4), 1),
    ("verify_difference_equation q_order", lambda v: verify_difference_equation(2, 4, v), 1),
    ("verify_rewrite2 t", lambda v: verify_rewrite2(v, 4, 4), 1),
    ("verify_rewrite2 x_bound", lambda v: verify_rewrite2(2, v, 4), 1),
    ("verify_rewrite2 q_order", lambda v: verify_rewrite2(2, 4, v), 1),
    ("verify_key_identity t", lambda v: verify_key_identity(v, 5), 1),
    ("verify_key_identity q_order", lambda v: verify_key_identity(2, v), 1),
    ("verify_theta_product t", lambda v: verify_theta_product(v, 5), 1),
    ("verify_theta_product q_order", lambda v: verify_theta_product(2, v), 1),
    ("verify_slater q_order", lambda v: verify_slater(v, 5), 1),
    ("verify_slater gen_q_order", lambda v: verify_slater(5, v), 1),
    ("verify_root_match t", lambda v: verify_root_match(v, 3), 1),
    ("verify_root_match N_max", lambda v: verify_root_match(2, v), 1),
    ("check_bfile count", lambda v: check_bfile(BFILE, v), 1),
]

# The scalar arguments of the value types take the same rule (an order may
# still be None); IntSeries.make, the normaliser every builder calls, stays
# unchecked.  Each is refused for True, 2.0 and 1.5.
SCALAR_SLOTS = [
    ("IntSeries.coeff exp", lambda v: POLY.coeff(v)),
    ("IntSeries.scale c", lambda v: POLY.scale(v)),
    ("IntSeries.shift k", lambda v: POLY.shift(v)),
    ("IntSeries.truncate order", lambda v: POLY.truncate(v)),
    ("IntSeries.zero order", lambda v: IntSeries.zero(v)),
    ("IntSeries.one order", lambda v: IntSeries.one(v)),
    ("IntSeries.monomial exp", lambda v: IntSeries.monomial(v)),
    ("IntSeries.monomial coeff", lambda v: IntSeries.monomial(2, v)),
    ("IntSeries.monomial order", lambda v: IntSeries.monomial(2, 1, v)),
    ("IntSeries.from_terms exponent", lambda v: IntSeries.from_terms([(v, 1)])),
    ("IntSeries.from_terms coefficient", lambda v: IntSeries.from_terms([(1, v)])),
    ("IntSeries.from_terms order", lambda v: IntSeries.from_terms([(1, 1)], v)),
    ("CycInt.integer value", lambda v: CycInt.integer(4, v)),
    ("CycInt.root_power exp", lambda v: CycInt.root_power(4, v)),
    ("CycInt.root_power coeff", lambda v: CycInt.root_power(4, 1, v)),
    ("CycInt.mul_root_power exp", lambda v: CycInt.integer(4, 1).mul_root_power(v)),
]


def _slot_pattern(label: str) -> str:
    return re.escape(label.rsplit(" ", 1)[1])

CASES = [
    ("xi_series count 0", lambda: xi_series(2, 5, 0), "count"),
    ("xi_series N -1", lambda: xi_series(2, -1, 5), "N must be"),
    ("dissection s 0", lambda: dissection(POLY, 0), "s must be"),
    ("S_set s 0", lambda: S_set(theta_spec_t(2, 0), 0), "s must be"),
    ("divisibility_check s 1", lambda: divisibility_check(2, 1, 9), "s must be"),
    ("verify_congruence r 0", lambda: verify_congruence(2, 5, 0, 1), "r must be >= 1"),
    ("verify_congruence m_max 0", lambda: verify_congruence(2, 5, 1, 0), "m_max must be >= 1"),
    ("straub_order_bound p 9", lambda: straub_order_bound(9, 1, 1), "prime"),
    ("binom_congruence p 4", lambda: binom_congruence(0, 1, 4, 1, 1, 1), "prime"),
    ("binom_congruence p 0", lambda: binom_congruence(0, 1, 0, 1, 1, 1), "prime"),
    ("binom_congruence i -3", lambda: binom_congruence(-3, 0, 5, 1, 1, 1), "i must be"),
    ("binom_congruence l -1", lambda: binom_congruence(0, -1, 5, 1, 1, 1), "l must be >= 0"),
    ("binom_congruence m 0", lambda: binom_congruence(0, 1, 5, 1, 0, 1), "m must be >= 1"),
    ("binom_congruence j 9", lambda: binom_congruence(0, 1, 5, 1, 1, 9), "j must be"),
    ("binom_congruence j p - i", lambda: binom_congruence(2, 1, 5, 1, 1, 3), "j must be"),
    ("verify_key_identity t 1", lambda: verify_key_identity(1, 10), "t >= 2"),
    ("verify_theta_product t 1", lambda: verify_theta_product(1, 10), "t >= 2"),
    ("pochhammer n -1", lambda: pochhammer(1, -1), "n must be"),
    ("pochhammer order 0", lambda: pochhammer(1, 3, 0), "out_order"),
    ("pochhammer order -2", lambda: pochhammer(1, 3, -2), "out_order"),
    ("one_minus_q_power e -1", lambda: one_minus_q_power(-1, 5), "e must be >= 0"),
    ("one_minus_q_power order 0", lambda: one_minus_q_power(2, 0), "out_order"),
    ("one_minus_q_power order -3", lambda: one_minus_q_power(2, -3), "out_order"),
    ("progression_product start 0", lambda: progression_product([(0, 2)], 5),
     "^start must be >= 1$"),
    ("progression_product step 0", lambda: progression_product([(1, 0)], 5),
     "^step must be >= 1$"),
    ("substitute_one_minus_q order 0", lambda: substitute_one_minus_q(POLY, 0), "out_order"),
    ("substitute_one_minus_q order -3", lambda: substitute_one_minus_q(POLY, -3), "out_order"),
    ("colored_jones N 0", lambda: colored_jones(T2, 0), "N must be"),
    ("kz_at_root_of_unity N 0", lambda: kz_at_root_of_unity(T2, 0), "N must be"),
    ("H_theta t 1", lambda: H_theta(T1, 4, 4), "t >= 2"),
    ("H_multisum t 1", lambda: H_multisum(T1, 4, 4), "t >= 2"),
    ("M_series t 1", lambda: M_series(T1, 4, 4), "t >= 2"),
    ("a_n_t t 1", lambda: a_n_t(T1, 2, 5), "t >= 2"),
] + [
    (f"{label} below {low}", lambda call=call, low=low: call(low - 1),
     f"^{_slot_pattern(label)} must be >= {low}$")
    for label, call, low in INT_SLOTS if low is not None
]


@pytest.mark.parametrize("call,match", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_refused(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# An int where a series or a TorusParams belongs is refused by name before
# any attribute of it is read.
PARAMS = "p must be of type TorusParams, not int; pass torus_params"
TYPE_CASES = [
    ("cyc_eval p", lambda: cyc_eval(3, 5), "p must be of type IntSeries"),
    ("partial_theta spec", lambda: partial_theta(3, 5), "spec must be of type ThetaSpec"),
    ("mean_value_zero spec", lambda: mean_value_zero(3, 5), "spec must be of type ThetaSpec"),
    ("S_set spec", lambda: S_set(3, 5), "spec must be of type ThetaSpec"),
    ("dissection series", lambda: dissection(3, 2), "series must be of type IntSeries"),
    ("substitute_one_minus_q a", lambda: substitute_one_minus_q(3, 5),
     "a must be of type IntSeries"),
    ("v_exponent p", lambda: v_exponent((1,), 3), PARAMS),
    ("admissible_jvectors p", lambda: list(admissible_jvectors(3, 2)), PARAMS),
    ("kz_full_polynomial p", lambda: kz_full_polynomial(3, 2), PARAMS),
    ("colored_jones p", lambda: colored_jones(3, 2), PARAMS),
    ("kz_at_root_of_unity p", lambda: kz_at_root_of_unity(3, 2), PARAMS),
    ("H_theta p", lambda: H_theta(3, 4, 4), PARAMS),
    ("H_multisum p", lambda: H_multisum(3, 4, 4), PARAMS),
    ("M_series p", lambda: M_series(3, 4, 4), PARAMS),
    ("a_n_t p", lambda: a_n_t(3, 2, 5), PARAMS),
    ("verify_congruence r bool", lambda: verify_congruence(2, 5, True, 1), "r must be an int"),
    ("verify_congruence m_max bool", lambda: verify_congruence(2, 5, 1, True),
     "m_max must be an int"),
    ("xi_series N float", lambda: xi_series(2, 5.0, 3), "'float' object cannot be interpreted"),
    ("xi_series N bool", lambda: xi_series(2, True, 3), "N must be an int"),
    ("xi_series count bool", lambda: xi_series(2, 5, True), "count must be an int"),
    ("xi_coefficients count bool", lambda: xi_coefficients(2, True), "count must be an int"),
    ("divisibility_check n_index bool", lambda: divisibility_check(2, 5, True),
     "n_index must be an int"),
    ("progression_product start bool", lambda: progression_product([(True, True)], 5),
     "^start must be an int, not bool$"),
    ("progression_product step bool", lambda: progression_product([(1, True)], 5),
     "^step must be an int, not bool$"),
    ("progression_product start 1.0", lambda: progression_product([(1.0, 1)], 5),
     "^start must be an int: 'float' object cannot be interpreted as an integer$"),
    # a bool operand of * answers NotImplemented, as a float or a str does
    ("IntSeries * True", lambda: POLY * True,
     r"^unsupported operand type\(s\) for \*: 'IntSeries' and 'bool'$"),
    ("True * IntSeries", lambda: True * POLY,
     r"^unsupported operand type\(s\) for \*: 'bool' and 'IntSeries'$"),
    ("CycInt * True", lambda: CycInt.integer(4, 1) * True,
     r"^unsupported operand type\(s\) for \*: 'CycInt' and 'bool'$"),
    ("True * CycInt", lambda: True * CycInt.integer(4, 1),
     r"^unsupported operand type\(s\) for \*: 'bool' and 'CycInt'$"),
] + [
    (f"{label} {value!r}", lambda call=call, value=value: call(value),
     f"^{_slot_pattern(label)} must be an int{tail}")
    for label, call, _ in INT_SLOTS
    for value, tail in ((True, ", not bool$"),
                        (2.0, ": 'float' object cannot be interpreted as an integer$"))
] + [
    (f"{label} {value!r}", lambda call=call, value=value: call(value),
     f"^{_slot_pattern(label)} must be an int{tail}")
    for label, call in SCALAR_SLOTS
    for value, tail in ((True, ", not bool$"),
                        (2.0, ": 'float' object cannot be interpreted as an integer$"),
                        (1.5, ": 'float' object cannot be interpreted as an integer$"))
]


@pytest.mark.parametrize("call,match", [c[1:] for c in TYPE_CASES],
                         ids=[c[0] for c in TYPE_CASES])
def test_wrong_type_refused(call, match):
    with pytest.raises(TypeError, match=match):
        call()


def test_case_ids_unique():
    # a repeated id would make pytest renumber the cases that share it
    for cases in (CASES, TYPE_CASES):
        ids = [c[0] for c in cases]
        assert len(ids) == len(set(ids))
