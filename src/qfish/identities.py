"""Structured verification of the finite q-series identities.

Every checker computes its two sides by independent routes (no shared
subexpressions beyond the base ring), compares them exactly on an honest
truncation window, and returns an IdentityReport carrying the window, the
verdict, and the first discrepancy if any.

The two sides of the root-of-unity match are independent routes: F_t comes
from the inner-sum dynamic program (``torus._pool_dp``) and J_N from
Morton's closed form for torus knots, two different polynomials that meet
only after evaluation at zeta_N.  In the (1 - x) M_t
rewrite, M_t comes from the per-vector summand walk and b_{n,t} from the
same DP graded by x-degree.  The multisum form of H_t reads that graded DP
too; in the difference equation its independent partner is the theta form,
a sum of monomials over chi_t with no DP and no product.  The key
identity's multisum side comes whole from torus (kz_tail_sum, and b_sums
over the a-window); its partner is a partial theta and a product, no DP.
"""

from __future__ import annotations

from operator import add

from .cyclotomic import cyc_eval
from .qseries import (
    partial_theta,
    theta_spec_t,
    torus_product,
    quintiple_sides,
)
from .series import (
    IntSeries,
    Record,
    divisor_sum_series,
    euler_product,
    first_difference,
    int_arg,
    over_one_minus_qk,
    progression_product,
)
from .torus import (
    M_series,
    b_n_t,
    b_sums,
    colored_jones,
    H_multisum,
    H_theta,
    kz_full_polynomial,
    kz_tail_sum,
    slater_multisum,
    torus_params,
)

__all__ = ["IdentityReport", "verify_difference_equation", "verify_key_identity",
           "verify_rewrite2", "verify_root_match", "verify_slater", "verify_theta_product"]


class IdentityReport(Record):
    __slots__ = ("name", "window", "passed", "first_discrepancy", "details")

    def as_dict(self) -> dict:
        out = {
            "identity": self.name,
            "window": dict(self.window),
            "pass": self.passed,
        }
        if self.first_discrepancy is not None:
            out["first_discrepancy"] = dict(self.first_discrepancy)
        if self.details:
            out["details"] = dict(self.details)
        return out


def _report(name: str, window: dict, diff, keys: tuple,
            details: dict | None = None) -> IdentityReport:
    """The report of a comparison whose first difference (None if the sides
    agree) is the tuple ``diff``, named field by field by ``keys``."""
    first = None if diff is None else dict(zip(keys, diff))
    return IdentityReport(name, window, diff is None, first, details or {})


def _series_report(name: str, window: dict, lhs: IntSeries, rhs: IntSeries,
                   details: dict | None = None) -> IdentityReport:
    return _report(name, window, first_difference(lhs, rhs), ("exponent", "lhs", "rhs"), details)


def _bi_report(name: str, window: dict, lhs, rhs) -> IdentityReport:
    """Compare two sequences of x-columns (IntSeries, index j the coefficient
    of x^j) on their common window: the first column that differs names the
    x-exponent, its first difference the rest."""
    diff = next(((j, *d) for j, (a, b) in enumerate(zip(lhs, rhs))
                 if (d := first_difference(a, b)) is not None), None)
    return _report(name, window, diff, ("x_exponent", "q_exponent", "lhs", "rhs"))


def _merge(name: str, window: dict, parts: list) -> IdentityReport:
    passed = all(r.passed for r in parts)
    first = next((r.first_discrepancy for r in parts if not r.passed), None)
    details = {r.name: ("pass" if r.passed else "fail") for r in parts}
    for r in parts:
        if not r.passed:
            details[r.name + "_discrepancy"] = r.first_discrepancy
    return IdentityReport(name, window, passed, first, details)


# -- difference equation and the theta/multisum match -------------------------


def _diff_rhs(t: int, f: tuple, x_bound: int, q_order: int) -> list:
    """The x-columns of 1 - q^2 x^3 - q^(2^t-1) x^(2^t) + q^(3+2^t) x^(3+2^t)
    + q^(5*2^t-3) x^(3*2^t) f(q^2 x), for the x-columns f."""
    p2 = 2**t
    cols = [IntSeries.zero(q_order)] * x_bound
    # the four monomials sit at distinct x-degrees below 3 * 2^t for t >= 2
    for x_deg, q_exp, c in ((0, 0, 1), (3, 2, -1), (p2, p2 - 1, -1), (3 + p2, 3 + p2, 1)):
        if x_deg < x_bound:
            cols[x_deg] = IntSeries.monomial(q_exp, c, q_order)
    # x -> q^2 x gives column j of f a factor q^(2j)
    for j in range(min(len(f), x_bound - 3 * p2)):
        cols[3 * p2 + j] = f[j].shift(2 * j + 5 * p2 - 3).truncate(q_order)
    return cols


def verify_difference_equation(t: int, x_bound: int, q_order: int) -> IdentityReport:
    """Check that both forms of H_t satisfy the defining difference equation
    and that they agree with each other on the window."""
    p = torus_params(t)
    x_bound, q_order = int_arg(x_bound, "x_bound", 1), int_arg(q_order, "q_order", 1)
    window = {"t": t, "x_bound": x_bound, "q_order": q_order}
    h_series = H_theta(p, x_bound, q_order)
    h_multi = H_multisum(p, x_bound, q_order)
    parts = [
        _bi_report("theta_form_difference_eq", window, h_series,
                   _diff_rhs(t, h_series, x_bound, q_order)),
        _bi_report("multisum_form_difference_eq", window, h_multi,
                   _diff_rhs(t, h_multi, x_bound, q_order)),
        _bi_report("theta_equals_multisum", window, h_series, h_multi),
    ]
    return _merge("difference_equation", window, parts)


def verify_rewrite2(t: int, x_bound: int, q_order: int) -> IdentityReport:
    """(1 - x) M_t(x, q) = sum_n b_{n,t}(q) x^n, both sides independently."""
    p = torus_params(t)
    x_bound, q_order = int_arg(x_bound, "x_bound", 1), int_arg(q_order, "q_order", 1)
    window = {"t": t, "x_bound": x_bound, "q_order": q_order}
    m = M_series(p, x_bound, q_order)
    lhs = m[:1] + tuple(c - prev for prev, c in zip(m, m[1:]))
    rhs = [b_n_t(p, n, q_order) for n in range(x_bound)]
    return _bi_report("m_series_rewrite", window, lhs, rhs)


# -- the key identity ----------------------------------------------------------


def verify_key_identity(t: int, q_order: int) -> IdentityReport:
    """The two-variable identity behind the partial-theta asymptotics,
    multiplied by 2 so both sides stay in Z[[q]]:

        P^(1)(q) - (2^(t+1)-3) * five_fold_product(q)
      = 2 [ s q^(-h') sum_n ((q)_n - (q)_inf) G_n(q)
          + s q^(-h') (q)_inf (sum_i q^i/(1-q^i)) sum_n b_{n,t}
          - s q^(-h') (q)_inf sum_n (n - h) b_{n,t} ],  s = (-1)^(h''+1).

    The first sum is torus.kz_tail_sum.  The two b-sums are the exact sums
    over every n from torus.b_sums (in closed form over a_{n,t}; no b-term
    is built), which raises if they diverge.
    The report also carries the heuristic cutoff n_cut (``b_sum_cutoff``)
    and whether the sums to n_cut and to 2 n_cut agree
    (``cutoff_doubling_stable``); a pass needs that agreement too, so the
    heuristic can turn a pass into a fail but never a fail into a pass.
    """
    p = torus_params(t)
    if p.t < 2:
        raise ValueError("the key identity needs t >= 2")
    q_order = int_arg(q_order, "q_order", 1)
    window = {"t": t, "q_order": q_order}
    lhs = partial_theta(theta_spec_t(t, 1), q_order) - torus_product(t, q_order).scale(
        2 ** (t + 1) - 3
    )
    work = q_order + p.h_d
    eul = euler_product(work)
    s1 = kz_tail_sum(p, eul)
    tb, tw, n_cut, cutoff_stable = b_sums(p, work)
    rhs = (s1 + eul * (divisor_sum_series(work) * tb - tw)).scale(-p.sign).shift(-p.h_d).scale(2)
    rep = _series_report("key_identity", window, lhs, rhs,
                         {"b_sum_cutoff": n_cut, "cutoff_doubling_stable": cutoff_stable})
    if not cutoff_stable and rep.passed:
        return IdentityReport(rep.name, rep.window, False, rep.first_discrepancy, rep.details)
    return rep


# -- theta = product, Slater ---------------------------------------------------


def verify_theta_product(t: int, q_order: int) -> IdentityReport:
    """P^(0)(q) = five-fold product, plus the bilateral reorganization:
    the same partial theta equals the quintiple-product bilateral sum."""
    p = torus_params(t)
    if p.t < 2:
        raise ValueError("t >= 2 required")
    q_order = int_arg(q_order, "q_order", 1)
    window = {"t": t, "q_order": q_order}
    p0 = partial_theta(theta_spec_t(t, 0), q_order)
    # the product side at (2^(t+1), 2^t - 1) is torus_product(t, q_order)
    bilateral, product5 = quintiple_sides(2 ** (t + 1), 2**t - 1, q_order)
    parts = [
        _series_report("partial_theta_equals_product", window, p0, product5),
        _series_report("partial_theta_equals_bilateral", window, p0, bilateral),
        _series_report("quintiple_product_sides", window, bilateral, product5),
    ]
    return _merge("theta_product", window, parts)


def _slater86(q_order: int) -> IdentityReport:
    """Slater's list (86): (q)_inf sum_n q^(2n(n+1))/(q)_{2n+1}
    = (q^3, q^5, q^8; q^8)_inf (q^2, q^14; q^16)_inf."""
    window = {"q_order": q_order}
    total = [0] * q_order
    inv = [1] * q_order  # 1/(q)_1
    n = 0
    while (e := 2 * n * (n + 1)) < q_order:
        if n:  # 1/(q)_(2n-1) -> 1/(q)_(2n+1)
            over_one_minus_qk(over_one_minus_qk(inv, 2 * n), 2 * n + 1)
        total[e:] = map(add, total[e:], inv)  # plus q^e / (q)_(2n+1)
        n += 1
    lhs = euler_product(q_order) * IntSeries.make(0, total, q_order)
    rhs = progression_product([(3, 8), (5, 8), (8, 8), (2, 16), (14, 16)], q_order)
    return _series_report("slater_86", window, lhs, rhs)


def _gen_slater(t: int, q_order: int) -> IdentityReport:
    """(q)_inf sign q^(-h') sum'_{jv} (-1)^(sum j) q^v / prod (q)_{j_l}
    equals the five-fold product."""
    p = torus_params(t)
    window = {"t": t, "q_order": q_order}
    work = q_order + p.h_d
    total = slater_multisum(p, work)
    lhs = (euler_product(work) * total).shift(-p.h_d).scale(p.sign).truncate(q_order)
    rhs = torus_product(t, q_order)
    return _series_report(f"generalized_slater_t{t}", window, lhs, rhs)


def verify_slater(q_order: int, gen_q_order: int | None = None) -> IdentityReport:
    """Slater (86) at q_order plus the generalized product identity for
    t = 2 and t = 3 (at gen_q_order, default q_order)."""
    q_order = int_arg(q_order, "q_order", 1)
    go = q_order if gen_q_order is None else int_arg(gen_q_order, "gen_q_order", 1)
    window = {"q_order": q_order, "gen_q_order": go}
    parts = [_slater86(q_order), _gen_slater(2, go), _gen_slater(3, go)]
    return _merge("slater", window, parts)


# -- root-of-unity match -------------------------------------------------------


def verify_root_match(t: int, n_max: int) -> IdentityReport:
    """zeta_N^(2^t - 1) F_t(zeta_N) = J_N(T(3, 2^t); zeta_N) exactly in
    Z[zeta_N] for N = 1 .. n_max (for t = 1: zeta_N F(zeta_N)).

    F_t(zeta_N) is F_t(q; N-1) at zeta_N (see kz_at_root_of_unity), and
    so is F_t(q; N_max - 1): each of its terms (q)_n G_n with n >= N has
    the factor 1 - q^N.  So one polynomial serves every N.
    """
    n_max = int_arg(n_max, "N_max", 1)
    p = torus_params(t)
    window = {"t": t, "N_max": n_max}
    results = {}
    first = None
    poly = kz_full_polynomial(p, n_max - 1)
    for big_n in range(1, n_max + 1):
        lhs = cyc_eval(poly, big_n).mul_root_power(2**t - 1)
        rhs = cyc_eval(colored_jones(p, big_n), big_n)
        same = (lhs - rhs).is_zero()
        results[f"N={big_n}"] = "pass" if same else "fail"
        if not same and first is None:
            first = {
                "N": big_n,
                "lhs": list(lhs.coeffs),
                "rhs": list(rhs.coeffs),
            }
    return IdentityReport("root_of_unity_match", window, first is None, first, results)
