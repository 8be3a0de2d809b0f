"""Library entry points refuse an argument outside their domain with
ValueError, in process.  Each case names the message it must raise, so a
check that goes away, or that another check now answers, fails here."""

import pytest

from qfish.fishburn import (
    S_set,
    binom_congruence,
    dissection,
    divisibility_check,
    straub_order_bound,
    verify_congruence,
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
    b_n_t,
    colored_jones,
    kz_at_root_of_unity,
    torus_params,
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
