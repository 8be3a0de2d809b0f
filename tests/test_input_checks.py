"""Library entry points refuse an argument outside their domain with
ValueError, and an argument of the wrong type with TypeError, in process.
Each case names the message it must raise, so a check that goes away, or
that another check now answers, fails here."""

import pytest

from qfish.cyclotomic import cyc_eval
from qfish.fishburn import (
    S_set,
    binom_congruence,
    dissection,
    divisibility_check,
    straub_order_bound,
    verify_congruence,
    xi_coefficients,
    xi_series,
)
from qfish.identities import verify_key_identity, verify_theta_product
from qfish.qseries import pochhammer, theta_spec_t
from qfish.series import (
    IntSeries,
    one_minus_q_power,
    poly_divides,
    progression_product,
    substitute_one_minus_q,
)
from qfish.torus import (
    H_multisum,
    H_theta,
    M_series,
    a_n_t,
    admissible_jvectors,
    b_n_t,
    colored_jones,
    kz_at_root_of_unity,
    kz_full_polynomial,
    torus_params,
    v_exponent,
)

T1, T2 = torus_params(1), torus_params(2)
POLY = IntSeries.make(0, [1, 2, 3])

CASES = [
    ("xi_series count 0", lambda: xi_series(2, 5, 0), "count"),
    ("xi_series N -1", lambda: xi_series(2, -1, 5), "N must be"),
    ("dissection s 0", lambda: dissection(POLY, 0), "s must be"),
    ("S_set s 0", lambda: S_set(theta_spec_t(2, 0), 0), "s must be"),
    ("divisibility_check s 1", lambda: divisibility_check(2, 1, 9), "s must be"),
    ("verify_congruence r 0", lambda: verify_congruence(2, 5, 0, 1), "r, m_max"),
    ("verify_congruence m_max 0", lambda: verify_congruence(2, 5, 1, 0), "r, m_max"),
    ("straub_order_bound p 9", lambda: straub_order_bound(9, 1, 1), "prime"),
    ("binom_congruence p 4", lambda: binom_congruence(0, 1, 4, 1, 1, 1), "prime"),
    ("binom_congruence p 0", lambda: binom_congruence(0, 1, 0, 1, 1, 1), "prime"),
    ("binom_congruence i -3", lambda: binom_congruence(-3, 0, 5, 1, 1, 1), "i must be"),
    ("binom_congruence l -1", lambda: binom_congruence(0, -1, 5, 1, 1, 1), "l >= 0"),
    ("binom_congruence m 0", lambda: binom_congruence(0, 1, 5, 1, 0, 1), "m >= 1"),
    ("binom_congruence j 9", lambda: binom_congruence(0, 1, 5, 1, 1, 9), "j must be"),
    ("binom_congruence j p - i", lambda: binom_congruence(2, 1, 5, 1, 1, 3), "j must be"),
    ("verify_key_identity t 1", lambda: verify_key_identity(1, 10), "t >= 2"),
    ("verify_theta_product t 1", lambda: verify_theta_product(1, 10), "t >= 2"),
    ("pochhammer n -1", lambda: pochhammer(1, -1), "n must be"),
    ("pochhammer order 0", lambda: pochhammer(1, 3, 0), "out_order"),
    ("pochhammer order -2", lambda: pochhammer(1, 3, -2), "out_order"),
    ("one_minus_q_power e -1", lambda: one_minus_q_power(-1, 5), "nonnegative"),
    ("one_minus_q_power order 0", lambda: one_minus_q_power(2, 0), "out_order"),
    ("one_minus_q_power order -3", lambda: one_minus_q_power(2, -3), "out_order"),
    ("progression_product start 0", lambda: progression_product([(0, 2)], 5), "positive"),
    ("substitute_one_minus_q order 0", lambda: substitute_one_minus_q(POLY, 0), "out_order"),
    ("substitute_one_minus_q order -3", lambda: substitute_one_minus_q(POLY, -3), "out_order"),
    ("poly_divides by zero", lambda: poly_divides(IntSeries.zero(), POLY), "nonzero"),
    ("colored_jones N 0", lambda: colored_jones(T2, 0), "N must be"),
    ("kz_at_root_of_unity N 0", lambda: kz_at_root_of_unity(T2, 0), "N must be"),
    ("H_theta t 1", lambda: H_theta(T1, 4, 4), "t >= 2"),
    ("H_multisum t 1", lambda: H_multisum(T1, 4, 4), "t >= 2"),
    ("M_series t 1", lambda: M_series(T1, 4, 4), "t >= 2"),
    ("a_n_t t 1", lambda: a_n_t(T1, 2, 5), "t >= 2"),
    ("b_n_t n -1", lambda: b_n_t(T2, -1, 5), "n must be"),
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
    ("poly_divides d", lambda: poly_divides(3, IntSeries.one()), "d must be of type IntSeries"),
    ("poly_divides p", lambda: poly_divides(IntSeries.one(), 3), "p must be of type IntSeries"),
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
    ("b_n_t p", lambda: b_n_t(3, 2, 5), PARAMS),
    ("verify_congruence r bool", lambda: verify_congruence(2, 5, True, 1), "r must be an int"),
    ("verify_congruence m_max bool", lambda: verify_congruence(2, 5, 1, True),
     "m_max must be an int"),
    ("xi_series N float", lambda: xi_series(2, 5.0, 3), "'float' object cannot be interpreted"),
    ("xi_series N bool", lambda: xi_series(2, True, 3), "N must be an int"),
    ("xi_series count bool", lambda: xi_series(2, 5, True), "count must be an int"),
    ("xi_coefficients count bool", lambda: xi_coefficients(2, True), "count must be an int"),
    ("divisibility_check n_index bool", lambda: divisibility_check(2, 5, True),
     "n_index must be an int"),
]


@pytest.mark.parametrize("call,match", [c[1:] for c in TYPE_CASES],
                         ids=[c[0] for c in TYPE_CASES])
def test_wrong_type_refused(call, match):
    with pytest.raises(TypeError, match=match):
        call()
