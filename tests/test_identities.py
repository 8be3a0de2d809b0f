"""Identity checkers: positive runs on small windows plus sensitivity."""

import pytest

import qfish.torus as torus_mod
from qfish.cyclotomic import CycInt, _reduce
from qfish.identities import (
    IdentityReport,
    _series_report,
    verify_difference_equation,
    verify_key_identity,
    verify_rewrite2,
    verify_root_match,
    verify_slater,
    verify_theta_product,
)
from qfish.qseries import theta_spec_t
from qfish.series import IntSeries
from qfish.torus import b_n_t, b_sums, kz_at_root_of_unity, torus_params


class TestPositive:
    # (2, 16, 40) and (3, 28, 60) reach x-degree 3 * 2^t + 3, the first
    # column the x -> q^2 x step shifts (columns 1 and 2 of H_2, H_3 are 0)
    @pytest.mark.parametrize("t,xb,qo", [
        (2, 14, 40), (3, 10, 24), (4, 20, 40), (5, 12, 24), (2, 16, 40), (3, 28, 60),
    ])
    def test_difference_equation(self, t, xb, qo):
        rep = verify_difference_equation(t, xb, qo)
        assert rep.passed, rep.as_dict()
        assert rep.details["theta_equals_multisum"] == "pass"

    @pytest.mark.parametrize("t,xb,qo", [(2, 12, 30), (3, 8, 20)])
    def test_rewrite2(self, t, xb, qo):
        assert verify_rewrite2(t, xb, qo).passed

    @pytest.mark.parametrize("t,qo", [(2, 30), (3, 20), (5, 6)])
    def test_key_identity(self, t, qo):
        rep = verify_key_identity(t, qo)
        assert rep.passed
        assert rep.details["cutoff_doubling_stable"]

    @pytest.mark.parametrize("t", [2, 3])
    def test_theta_product(self, t):
        assert verify_theta_product(t, 60).passed

    def test_slater(self):
        rep = verify_slater(40, 30)
        assert rep.passed
        assert rep.details["slater_86"] == "pass"
        assert rep.details["generalized_slater_t2"] == "pass"
        assert rep.details["generalized_slater_t3"] == "pass"

    @pytest.mark.parametrize("t", [1, 2])
    def test_root_match(self, t):
        assert verify_root_match(t, 6).passed

    def test_root_match_t4(self):
        rep = verify_root_match(4, 6)
        assert rep.passed
        assert list(rep.details) == [f"N={n}" for n in range(1, 7)]

    def test_root_match_t5(self):
        # T(3, 32), beyond the paper's t <= 4
        rep = verify_root_match(5, 7)
        assert rep.passed
        assert list(rep.details) == [f"N={n}" for n in range(1, 8)]

    @pytest.mark.parametrize("t,n_max", [(4, 12), (3, 20)])
    def test_root_match_at_targets(self, t, n_max):
        rep = verify_root_match(t, n_max)
        assert rep.passed
        assert rep.details == {f"N={n}": "pass" for n in range(1, n_max + 1)}

    def test_report_shape(self):
        d = verify_rewrite2(2, 6, 10).as_dict()
        assert d["identity"] == "m_series_rewrite"
        assert d["pass"] is True
        assert "window" in d


def _strange_sum(t, big_n, flip=None, shift=None):
    """sum_{n=1..M} C_N(n) (n^2 - nM) in Z[zeta_N], M = N P, with
    C_N(n) = chi_t(n) zeta_N^((n^2-a)/b); ``flip`` negates chi at one
    residue mod P and ``shift`` raises the exponent there by one."""
    spec = theta_spec_t(t, 1)
    period = spec.char.period
    big_m = big_n * period
    acc = [0] * big_n
    for n in range(1, big_m + 1):
        c = spec.char(n)
        if c:
            e = spec.exponent(n)
            if n % period == flip:
                c = -c
            if n % period == shift:
                e += 1
            acc[e % big_n] += c * (n * n - n * big_m)
    return CycInt(big_n, _reduce(acc, big_n))


class TestStrangeIdentityAtRoots:
    """Part (a) of the strange identity: F_t(q) "=" -1/2 sum n chi_t(n)
    q^((n^2-a)/b) holds exactly at q = zeta_N, where the B_2 formula for
    L(-1, C_N) gives 4M F_t(zeta_N) = sum_{n=1..M} C_N(n) (n^2 - nM)."""

    @pytest.mark.parametrize("t,n_max", [(1, 8), (2, 8), (3, 8), (4, 4), (5, 8)])
    def test_holds(self, t, n_max):
        p = torus_params(t)
        period = theta_spec_t(t, 1).char.period
        for big_n in range(1, n_max + 1):
            lhs = kz_at_root_of_unity(p, big_n) * (4 * big_n * period)
            assert lhs == _strange_sum(t, big_n), big_n

    def test_n1_is_f_at_one(self):
        # F_1(1) = 1 = 48 / (4 * 12)
        assert _strange_sum(1, 1) == CycInt.integer(1, 48)

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_detects_perturbation(self, t):
        p = torus_params(t)
        spec = theta_spec_t(t, 1)
        r = spec.char.support_residues()[0]
        for big_n in (3, 5):
            lhs = kz_at_root_of_unity(p, big_n) * (4 * big_n * spec.char.period)
            assert lhs != _strange_sum(t, big_n, flip=r)
            assert lhs != _strange_sum(t, big_n, shift=r)


class TestKeyIdentityConstantTerm:
    def test_t2_constant_is_zero(self):
        # both sides vanish at q^0: 5 * 1 - 5 * 1 on the left
        from qfish.qseries import partial_theta, theta_spec_t, torus_product

        lhs = partial_theta(theta_spec_t(2, 1), 2) - torus_product(2, 2).scale(5)
        assert lhs.coeff(0) == 0


class TestSensitivity:
    """A flipped coefficient must fail with the correct first discrepancy."""

    def test_series_comparison_detects_flip(self):
        a = IntSeries.make(0, [1, 2, 3, 4], 6)
        flipped = IntSeries.make(0, [1, 2, 4, 4], 6)
        rep = _series_report("probe", {}, a, flipped)
        assert not rep.passed
        assert rep.first_discrepancy == {"exponent": 2, "lhs": 3, "rhs": 4}

    def test_theta_product_detects_perturbation(self, monkeypatch):
        import qfish.identities as idm
        from qfish.qseries import quintiple_sides as real_sides

        def perturbed(q_power, x_power, order):
            bilateral, product = real_sides(q_power, x_power, order)
            return bilateral, product + IntSeries.monomial(5, 1, order)

        monkeypatch.setattr(idm, "quintiple_sides", perturbed)
        rep = verify_theta_product(2, 30)
        assert not rep.passed
        assert rep.first_discrepancy["exponent"] == 5

    def test_difference_equation_detects_perturbation(self, monkeypatch):
        import qfish.identities as idm
        from qfish.torus import H_multisum as real_h

        def perturbed(p, x_bound, q_order):
            cols = list(real_h(p, x_bound, q_order))
            cols[2] = cols[2] + IntSeries.monomial(3, 1, q_order)
            return tuple(cols)

        monkeypatch.setattr(idm, "H_multisum", perturbed)
        rep = verify_difference_equation(2, 8, 16)
        assert not rep.passed
        assert rep.first_discrepancy["x_exponent"] == 2
        assert rep.first_discrepancy["q_exponent"] == 3
        assert rep.details["theta_form_difference_eq"] == "pass"
        assert rep.details["multisum_form_difference_eq"] == "fail"
        assert rep.details["theta_equals_multisum"] == "fail"

    def test_rewrite2_detects_perturbation(self, monkeypatch):
        import qfish.identities as idm
        from qfish.torus import b_n_t as real_b

        def perturbed(p, n, q_order):
            out = real_b(p, n, q_order)
            if n == 2:
                out = out + IntSeries.monomial(1, 1, q_order)
            return out

        monkeypatch.setattr(idm, "b_n_t", perturbed)
        rep = verify_rewrite2(2, 6, 10)
        assert not rep.passed
        assert rep.first_discrepancy["x_exponent"] == 2
        assert rep.first_discrepancy["q_exponent"] == 1

    def test_root_match_detects_perturbation(self, monkeypatch):
        import qfish.identities as idm
        from qfish.torus import colored_jones as real_cj

        def perturbed(p, big_n):
            out = real_cj(p, big_n)
            if big_n == 3:
                out = out + IntSeries.one()
            return out

        monkeypatch.setattr(idm, "colored_jones", perturbed)
        rep = verify_root_match(2, 4)
        assert not rep.passed
        assert rep.first_discrepancy["N"] == 3

    def test_key_identity_detects_perturbation(self, monkeypatch):
        import qfish.identities as idm
        from qfish.series import divisor_sum_series as real_d

        def perturbed(order):
            return real_d(order) + IntSeries.monomial(3, 1, order)

        monkeypatch.setattr(idm, "divisor_sum_series", perturbed)
        rep = verify_key_identity(2, 16)
        assert not rep.passed

    def test_failing_report_carries_first_discrepancy(self, monkeypatch):
        import qfish.identities as idm
        from qfish.series import divisor_sum_series as real_d

        monkeypatch.setattr(idm, "divisor_sum_series",
                            lambda order: real_d(order) + IntSeries.monomial(3, 1, order))
        out = verify_key_identity(2, 16).as_dict()
        assert not out["pass"]
        assert out["first_discrepancy"] == {"exponent": 3, "lhs": -8, "rhs": -10}

    def test_key_identity_fails_on_unstable_cutoff(self, monkeypatch):
        # a_0 + q^15 and a_37 - q^15 at (2, 16), where the cutoff is 37 and
        # stable 38: the exact sums, and so the identity, do not change, but
        # the sums to the cutoff do, so the doubling check turns the pass
        # into a fail
        p, work = torus_params(2), 16
        stable, real = torus_mod._a_stable(p, work), _real_a(p, work)
        n_cut = b_sums(p, work)[2]
        assert (n_cut, stable) == (37, 38)
        delta = IntSeries.monomial(work - 1, 1, work)

        def moved(p_, n, q_order):
            return real(n) + delta if n == 0 else real(n) - delta if n == n_cut else real(n)

        monkeypatch.setattr(torus_mod, "_a_window", _window_of(moved))
        assert b_sums(p, work)[2:] == (n_cut, False)
        rep = verify_key_identity(2, work)
        assert not rep.passed and rep.first_discrepancy is None
        assert rep.details == {"b_sum_cutoff": n_cut, "cutoff_doubling_stable": False}


def _b_sums_two_pass(p, work, n_stop=None):
    """Oracle: the b-sums as they were, one pass to the cutoff and, with
    n_stop, a second one from n = 0 to n_stop."""
    total_b = IntSeries.zero(work)
    total_w = IntSeries.zero(work)
    run = 0
    n = 0
    hard_cap = max(16 * work * p.m, 64)
    while True:
        if n_stop is not None:
            if n >= n_stop:
                break
        elif run >= 2 * p.m and n > p.h:
            break
        elif n > hard_cap:
            raise ArithmeticError("b_{n,t} sum failed to stabilize")
        bn = b_n_t(p, n, work)
        if bn.is_zero():
            run += 1
        else:
            run = 0
            total_b = total_b + bn
            total_w = total_w + bn.scale(n - p.h)
        n += 1
    return total_b, total_w, n


def _window_of(a_fn):
    """The a-window seam b_sums reads (torus._a_window), taken from the per-n
    function a_fn: a_n and sum_{i<n} a_i for n <= stable + m as dense
    coefficient lists."""
    def seam(p, work):
        count = torus_mod._a_stable(p, work) + p.m + 1
        a = [[a_fn(p, n, work).coeff(e) for e in range(work)] for n in range(count)]
        sums = [list(map(sum, zip([0] * work, *a[:n]))) for n in range(count)]
        return a, sums
    return seam


def _real_a(p, work):
    """a_n_t at (p, work), n -> a_{n,t}, read off the real a-window before a
    test patches its seam (torus._a_window)."""
    stable = torus_mod._a_stable(p, work)
    a = [IntSeries.make(0, cs, work) for cs in torus_mod._a_window(p, work)[0]]
    return lambda n: IntSeries.zero(work) if n < 0 else a[min(n, stable + (n - stable) % p.m)]


class TestBSums:
    @pytest.mark.parametrize("t,qo", [(2, 30), (3, 20), (2, 70), (2, 12), (3, 14), (4, 4)])
    def test_one_pass_matches_two_passes(self, t, qo):
        # the exact sums are the oracle's to one period past stable
        p = torus_params(t)
        work = qo + p.h_d
        stop = torus_mod._a_stable(p, work) + p.m + 1
        tb, tw, _ = _b_sums_two_pass(p, work, n_stop=stop)
        cut_b, cut_w, n_cut = _b_sums_two_pass(p, work)
        doubled = _b_sums_two_pass(p, work, n_stop=2 * n_cut)[:2] == (cut_b, cut_w)
        assert b_sums(p, work) == (tb, tw, n_cut, doubled)

    def test_divergent_period_raises_like_oracle(self, monkeypatch):
        # a_{n,t} + 1 on n = 0 (mod m) keeps a periodic past stable, but with
        # a nonzero b in every period, so no run of 2m vanishing terms comes
        p, work = torus_params(2), 12
        real = _real_a(p, work)

        def bumped(p_, n, q_order):
            a = real(n)
            return a + IntSeries.monomial(0, 1, q_order) if n >= 0 and n % p_.m == 0 else a

        monkeypatch.setattr(torus_mod, "a_n_t", bumped)
        monkeypatch.setattr(torus_mod, "_a_window", _window_of(bumped))
        with pytest.raises(ArithmeticError, match="failed to stabilize"):
            _b_sums_two_pass(p, work)
        with pytest.raises(ArithmeticError, match="failed to stabilize"):
            b_sums(p, work)

    def test_cold_reads_stop_at_the_period(self):
        # a_{n,t} is read for n <= stable + m only
        p, work = torus_params(2), 70
        torus_mod._a_window.cache_clear()
        assert b_sums(p, work)[2] == 145
        assert len(torus_mod._a_window(p, work)[0]) == torus_mod._a_stable(p, work) + p.m + 1

    def test_period_past_stable_checked_after_early_cutoff(self, monkeypatch):
        # a_{n,t} + 1 on n = stable + 1 (mod m), n > stable: the cutoff (37)
        # comes before stable (38), but a nonzero b recurs in every period
        p, work = torus_params(2), 16
        stable, real = torus_mod._a_stable(p, work), _real_a(p, work)

        def bumped(p_, n, q_order):
            a = real(n)
            if n > stable and (n - stable) % p_.m == 1:
                return a + IntSeries.monomial(0, 1, q_order)
            return a

        monkeypatch.setattr(torus_mod, "a_n_t", bumped)
        monkeypatch.setattr(torus_mod, "_a_window", _window_of(bumped))
        assert _b_sums_two_pass(p, work)[2] < stable
        with pytest.raises(ArithmeticError, match="failed to stabilize"):
            b_sums(p, work)

    def test_step_past_doubled_cutoff_is_summed(self, monkeypatch):
        # a_n = 1 for n < 20 and 1 + q from n = 20 on: the cutoff is 5, the
        # sums to 5 and to 10 agree, and only the exact sums see the step
        p, work = torus_params(2), 12
        stable = torus_mod._a_stable(p, work)

        def stepped(p_, n, q_order):
            if n < 0:
                return IntSeries.zero(q_order)
            return IntSeries.make(0, [1, 1 if n >= 20 else 0], q_order)

        monkeypatch.setattr(torus_mod, "a_n_t", stepped)
        monkeypatch.setattr(torus_mod, "_a_window", _window_of(stepped))
        cut_b, cut_w, n_cut = _b_sums_two_pass(p, work)
        assert 2 * n_cut <= 20 < stable
        tb, tw, _ = _b_sums_two_pass(p, work, n_stop=stable + p.m + 1)
        assert (tb, tw) != (cut_b, cut_w)
        assert b_sums(p, work) == (tb, tw, n_cut, True)

    def test_vanishing_a0_starts_the_run(self, monkeypatch):
        # a_n = 0 for n < 6 and 1 from n = 6 on: b_0 = a_0 - a_{-1} = 0
        # already counts toward the run of vanishing terms, so the cutoff is 4
        p, work = torus_params(2), 12
        stable = torus_mod._a_stable(p, work)

        def late(p_, n, q_order):
            return IntSeries.make(0, [1 if n >= 6 else 0], q_order)

        monkeypatch.setattr(torus_mod, "a_n_t", late)
        monkeypatch.setattr(torus_mod, "_a_window", _window_of(late))
        cut_b, cut_w, n_cut = _b_sums_two_pass(p, work)
        assert n_cut == 4
        doubled = _b_sums_two_pass(p, work, n_stop=2 * n_cut)[:2] == (cut_b, cut_w)
        tb, tw, _ = _b_sums_two_pass(p, work, n_stop=stable + p.m + 1)
        assert b_sums(p, work) == (tb, tw, n_cut, doubled)


class TestWindowValidation:
    @pytest.mark.parametrize("check,args", [
        (verify_rewrite2, (2, 12, -1)),
        (verify_rewrite2, (2, 0, 10)),
        (verify_difference_equation, (2, 8, 0)),
        (verify_difference_equation, (2, -1, 8)),
        (verify_slater, (5, 0)),
        (verify_slater, (0, 5)),
        (verify_slater, (0,)),
    ])
    def test_empty_window_raises(self, check, args):
        # an empty window would report a pass with nothing compared
        with pytest.raises(ValueError, match="must be >= 1"):
            check(*args)

    def test_smallest_window_is_checked(self):
        assert verify_rewrite2(2, 1, 1).passed
        assert verify_difference_equation(2, 1, 1).passed


class TestReportInvariant:
    def test_pass_iff_no_discrepancy(self):
        good = _series_report("x", {}, IntSeries.one(4), IntSeries.one(4))
        assert good.passed and good.first_discrepancy is None
        bad = _series_report("x", {}, IntSeries.one(4), IntSeries.zero(4))
        assert (not bad.passed) and bad.first_discrepancy is not None
