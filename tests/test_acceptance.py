"""Acceptance suite: one test per exit criterion.

Every equality is exact big-integer equality (tolerance zero).  Each test
prints a pass/fail line with its runtime; the stated runtime budgets are
enforced when the compiled kernels are active (the pure fallback runs the
same mathematics without the stopwatch).

Prime-power cases with r >= 3 and large t are not desk-reproducible (the
series lengths p^r * m explode); they are covered by the r <= 2 instances
plus the property suites here.
"""

import itertools
import random
import time

from qfish.backend import backend_name
from qfish.fishburn import (
    S_set,
    binom_congruence,
    congruence_j_range,
    dissection,
    divisibility_check,
    straub_order_bound,
    verify_congruence,
    xi_coefficients,
)
from qfish.identities import (
    _series_report,
    verify_difference_equation,
    verify_key_identity,
    verify_rewrite2,
    verify_root_match,
    verify_slater,
    verify_theta_product,
)
from qfish.qseries import mean_value_zero, theta_spec_t
from qfish.series import IntSeries, first_difference
from qfish.torus import admissible_jvectors, colored_jones, torus_params
from test_fishburn import reconstruct, xi_series
from test_series import substitute_one_minus_q

COMPILED = backend_name() == "compiled"


class _Criterion:
    def __init__(self, name: str, budget_s: float):
        self.name = name
        self.budget = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] {self.name}: {elapsed:.2f}s (budget {self.budget:.0f}s)")
        if exc_type is None and COMPILED:
            assert elapsed < self.budget, (
                f"{self.name} exceeded its runtime budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_01_classical_fishburn_values():
    with _Criterion("criterion-01 classical Fishburn values", 1.0):
        assert xi_coefficients(1, 6) == [1, 1, 2, 5, 15, 53]


def test_criterion_02_generalized_values_arbitrate_sign():
    with _Criterion("criterion-02 generalized Fishburn values", 10.0):
        assert xi_coefficients(2, 6) == [1, 3, 11, 50, 280, 1890]
        assert xi_coefficients(3, 6) == [1, 7, 49, 420, 4515, 59367]


def test_criterion_03_s_sets():
    with _Criterion("criterion-03 printed S-sets", 1.0):
        assert S_set(theta_spec_t(2, 0), 5) == {0, 2, 3}
        assert S_set(theta_spec_t(2, 0), 17) == {0, 2, 3, 4, 7, 8, 9, 11, 14}
        assert S_set(theta_spec_t(3, 0), 7) == {0, 2, 3, 4}
        assert S_set(theta_spec_t(3, 0), 13) == {0, 2, 5, 6, 7, 8, 11}


def test_criterion_04_prime_power_congruences():
    with _Criterion("criterion-04 prime-power congruence instances", 180.0):
        cases = [
            (2, 5, 1, 6, (1,)),
            (2, 5, 2, 2, (1,)),
            (2, 17, 1, 2, (1, 2)),
            (3, 7, 1, 3, (1, 2)),
            (3, 13, 1, 2, (1,)),
            (2, 5, 4, 1, (1,)),
        ]
        for t, p, r, m_max, expected_j in cases:
            rep = verify_congruence(t, p, r, m_max)
            assert rep.j_range == expected_j, (t, p, rep.j_range)
            assert rep.passed, (t, p, r, rep.as_dict())


def test_criterion_05_classical_congruences():
    with _Criterion("criterion-05 classical congruences", 10.0):
        expected_j = {5: (1, 2), 7: (1,), 11: (1, 2, 3)}
        for p in (5, 7, 11):
            rep = verify_congruence(1, p, 1, 4)
            assert rep.j_range == expected_j[p]
            assert rep.passed, rep.as_dict()


def test_criterion_06_dissection_divisibility():
    with _Criterion("criterion-06 dissection divisibility", 120.0):
        for n_index in (9, 14, 19, 24, 29):
            rep = divisibility_check(2, 5, n_index)
            assert [e["i"] for e in rep.entries] == [1, 4]
            assert rep.passed, rep.as_dict()
            rep = divisibility_check(1, 5, n_index)
            assert rep.passed, rep.as_dict()
        for n_index in (13, 20):
            rep = divisibility_check(3, 7, n_index)
            assert [e["i"] for e in rep.entries] == [1, 5, 6]
            # Laurent pieces (every t >= 3): divisibility holds up to a
            # monomial unit; its exact scope at t >= 3 is an open question,
            # so a failure must surface loudly, not silently.
            assert rep.passed, (
                "t >= 3 divisibility failed; bears on the documented open "
                f"question: {rep.as_dict()}"
            )


def test_criterion_07_identity_suite():
    with _Criterion("criterion-07 identity suite", 180.0):
        assert verify_difference_equation(2, 14, 40).passed
        assert verify_difference_equation(3, 10, 24).passed
        assert verify_rewrite2(2, 12, 30).passed
        assert verify_rewrite2(3, 8, 20).passed
        assert verify_key_identity(2, 30).passed
        assert verify_key_identity(3, 20).passed
        assert verify_key_identity(4, 20).passed
        assert verify_theta_product(2, 60).passed
        assert verify_theta_product(3, 60).passed
        rep = verify_slater(40, 30)
        assert rep.passed, rep.as_dict()


def test_criterion_08_root_of_unity_match():
    with _Criterion("criterion-08 root-of-unity match", 60.0):
        for t in (1, 2, 3):
            rep = verify_root_match(t, 8)
            assert rep.passed, rep.as_dict()
        assert colored_jones(torus_params(1), 2) == IntSeries.make(-4, [-1, 1, 0, 1])


def test_criterion_09_mean_value_zero():
    with _Criterion("criterion-09 cyclotomic mean value zero", 30.0):
        for t in (2, 3, 4):
            spec = theta_spec_t(t, 0)
            for m in range(1, 13):
                assert mean_value_zero(spec, m), (t, m)


def test_criterion_10_supporting_lemmas():
    with _Criterion("criterion-10 order bound and binomial lemma", 5.0):
        for p in (5, 7):
            for r in (1, 2):
                for n in range(1, 5):
                    assert straub_order_bound(p, r, n), (p, r, n)
        for t, p in ((2, 5), (3, 7)):
            sset = sorted(S_set(theta_spec_t(t, 0), p))
            jr = congruence_j_range(t, p)
            for r, i, j, l, m in itertools.product(
                (1, 2), sset, jr, range(1, 7), (1, 2)
            ):
                assert binom_congruence(i, l, p, r, m, j), (p, r, i, j, l, m)


def test_criterion_11_property_suites():
    with _Criterion("criterion-11 property suites", 60.0):
        # stabilization: guard 4 vs guard 9 at count 40, t = 2 and 3
        for t in (2, 3):
            assert xi_series(t, 44, 40) == xi_series(t, 49, 40), t

        # enumerator vs brute-force box filter, j_cap <= 4, t <= 4
        for t in range(1, 5):
            p = torus_params(t)
            for j_cap in range(5):
                got = sorted(admissible_jvectors(p, j_cap, 50))
                want = []
                if p.m == 1:
                    want = [((), -p.a)]
                else:
                    for jv in itertools.product(range(j_cap + 1), repeat=p.m - 1):
                        tot = sum(j * l for l, j in enumerate(jv, start=1))
                        if (3 * tot) % p.m == 1 % p.m:
                            v = (tot - p.a) // p.m + sum(j * (j - 1) // 2 for j in jv)
                            if v < 50:
                                want.append((jv, v))
                assert got == sorted(want), (t, j_cap)

        # dissection round-trip on random Laurent polynomials
        rng = random.Random(20240817)
        for _ in range(200):
            min_exp = rng.randint(-6, 6)
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(0, 12))]
            s = rng.randint(2, 7)
            poly = IntSeries.make(min_exp, coeffs)
            assert reconstruct(dissection(poly, s)) == poly

        # ring axioms on random small operands
        def rand_series():
            return IntSeries.make(
                rng.randint(-4, 4),
                [rng.randint(-9, 9) for _ in range(rng.randint(0, 7))],
            )

        for _ in range(200):
            a, b, c = rand_series(), rand_series(), rand_series()
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c

        # q -> 1-q is an involution on Z[q]
        for _ in range(100):
            poly = IntSeries.make(
                rng.randint(0, 4),
                [rng.randint(-9, 9) for _ in range(rng.randint(0, 7))],
            )
            order = 2 * (poly.min_exp + len(poly.coeffs) + 3)
            twice = substitute_one_minus_q(
                substitute_one_minus_q(poly, order), order
            )
            assert first_difference(twice, poly) is None

        # checker sensitivity: a flipped coefficient fails at the right spot
        base = IntSeries.make(0, [1, 2, 3], 5)
        bumped = base + IntSeries.monomial(1, 1, 5)
        rep = _series_report("sensitivity", {}, base, bumped)
        assert not rep.passed and rep.first_discrepancy["exponent"] == 1
