"""qfish: exact q-series computations for the torus knots T(3, 2^t).

Truncated Laurent series and cyclotomic integers over exact integers carry
the Kontsevich-Zagier series, the colored Jones polynomial, generalized
Fishburn numbers, their prime-power congruences, and the finite q-series
identities connecting them.
"""

from .backend import backend_name
from .cyclotomic import CycInt, cyc_eval
from .fishburn import (
    CongruenceReport,
    Dissection,
    DivisibilityReport,
    S_set,
    binom_congruence,
    dissection,
    divisibility_check,
    straub_order_bound,
    verify_congruence,
    xi_coefficients,
    xi_series,
)
from .identities import (
    IdentityReport,
    verify_difference_equation,
    verify_key_identity,
    verify_rewrite2,
    verify_root_match,
    verify_slater,
    verify_theta_product,
)
from .qseries import (
    PeriodicChar,
    ThetaSpec,
    chi_t,
    mean_value_zero,
    partial_theta,
    quintiple_sides,
    theta_spec_t,
    torus_product,
)
from .series import (
    IntSeries,
    NotPolynomialError,
    SeriesError,
    TruncationError,
    divisor_sum_series,
    euler_product,
)
from .torus import (
    TorusParams,
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
)

__version__ = "0.1.0"

__all__ = [
    "CongruenceReport",
    "CycInt",
    "Dissection",
    "DivisibilityReport",
    "H_multisum",
    "H_theta",
    "IdentityReport",
    "IntSeries",
    "M_series",
    "NotPolynomialError",
    "PeriodicChar",
    "S_set",
    "SeriesError",
    "ThetaSpec",
    "TorusParams",
    "TruncationError",
    "a_n_t",
    "admissible_jvectors",
    "b_n_t",
    "backend_name",
    "binom_congruence",
    "chi_t",
    "colored_jones",
    "cyc_eval",
    "dissection",
    "divisibility_check",
    "divisor_sum_series",
    "euler_product",
    "kz_at_root_of_unity",
    "kz_full_polynomial",
    "mean_value_zero",
    "partial_theta",
    "quintiple_sides",
    "straub_order_bound",
    "theta_spec_t",
    "torus_params",
    "torus_product",
    "verify_congruence",
    "verify_difference_equation",
    "verify_key_identity",
    "verify_rewrite2",
    "verify_root_match",
    "verify_slater",
    "verify_theta_product",
    "xi_coefficients",
    "xi_series",
]
