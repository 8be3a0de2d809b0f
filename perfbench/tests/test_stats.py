"""The benchmark's own arithmetic.  Run: python3 -m pytest perfbench/tests"""

import math

import pytest

from stats import (
    canonical,
    first_mismatch,
    hd_quantile,
    int64_lane,
    self_times,
    tail_percentile,
    trunc_ops,
)


def _self(spans):
    starts, ends, parents = zip(*spans)
    return self_times(list(starts), list(ends), list(parents))


# -- span self time -------------------------------------------------------------


def test_self_time_leaf_is_duration():
    assert _self([(1.0, 3.5, -1)]) == [2.5]


def test_self_time_nested_subtracts_only_direct_children():
    # root [0, 10] > mid [1, 9] > leaf [2, 5]
    got = _self([(0.0, 10.0, -1), (1.0, 9.0, 0), (2.0, 5.0, 1)])
    assert got == pytest.approx([2.0, 5.0, 3.0])
    assert sum(got) == pytest.approx(10.0)  # self times partition the root


def test_self_time_siblings_are_summed():
    got = _self([(0.0, 10.0, -1), (1.0, 3.0, 0), (4.0, 8.0, 0)])
    assert got == pytest.approx([4.0, 2.0, 4.0])


def test_self_time_overlapping_children_count_their_union_once():
    got = _self([(0.0, 10.0, -1), (1.0, 6.0, 0), (4.0, 8.0, 0), (5.0, 7.0, 0)])
    assert got[0] == pytest.approx(3.0)  # union [1, 8]


def test_self_time_child_clipped_to_parent():
    got = _self([(0.0, 4.0, -1), (3.0, 9.0, 0)])
    assert got[0] == pytest.approx(3.0)


def test_self_time_order_of_records_does_not_matter():
    spans = [(4.0, 8.0, 2), (1.0, 3.0, 2), (0.0, 10.0, -1)]
    assert _self(spans) == pytest.approx([4.0, 2.0, 4.0])


# -- tail percentile --------------------------------------------------------------


@pytest.mark.parametrize("n", [11, 20, 22, 33, 100, 140, 1000])
def test_tail_percentile_keeps_ten_beyond_and_is_highest(n):
    q = tail_percentile(n)
    assert n - math.ceil(q * n / 100) >= 10
    if q < 99:  # the next percentile up would leave fewer than ten beyond
        assert n - math.ceil((q + 1) * n / 100) < 10


def test_tail_percentile_known_values():
    assert tail_percentile(100) == 90
    assert tail_percentile(22) == 54
    assert tail_percentile(1000) == 99


def test_tail_percentile_needs_eleven_samples():
    assert tail_percentile(10) is None
    assert tail_percentile(0) is None


# -- Harrell-Davis quantiles ------------------------------------------------------


def test_hd_quantile_of_equal_samples_is_that_value():
    assert hd_quantile([0.5] * 30, 0.5) == pytest.approx(0.5)
    assert hd_quantile([0.5] * 30, 0.9) == pytest.approx(0.5)


def test_hd_median_of_symmetric_samples_is_their_centre():
    assert hd_quantile([1, 2, 3, 4, 5, 6, 7], 0.5) == pytest.approx(4)
    assert hd_quantile([7, 1, 6, 2, 5, 3, 4], 0.5) == pytest.approx(4)


def test_hd_quantile_single_sample():
    assert hd_quantile([2.5], 0.5) == pytest.approx(2.5)


@pytest.mark.parametrize("n, p, want", [
    # sorted(range(n)) against the exact Beta-CDF weights (scipy.stats.beta)
    (45, 0.5, 22.0),
    (57, 0.82, 46.24),
    (144, 0.93, 133.42),
])
def test_hd_quantile_matches_exact_weights(n, p, want):
    assert hd_quantile(range(n), p) == pytest.approx(want, rel=1e-4)


def test_hd_quantile_moves_smoothly_across_a_gap():
    # 21 fast and 24 slow samples: the nearest-rank median sits on the slow
    # side and jumps the whole gap when two slow samples turn fast, while
    # the Harrell-Davis median moves by a fraction of it.
    before = [0.48] * 21 + [0.66] * 24
    after = [0.48] * 23 + [0.66] * 22
    jump = hd_quantile(after, 0.5) - hd_quantile(before, 0.5)
    assert -0.18 / 2 < jump < 0
    assert sorted(before)[22] - sorted(after)[22] == pytest.approx(0.18)


# -- canonical reports ------------------------------------------------------------


REPORT = {
    "schema": 1,
    "command": "xi",
    "params": {"t": 1, "count": 3, "sign_convention": "included"},
    "results": [{"n": 0, "xi": 1}, {"n": 1, "xi": 1}, {"n": 2, "xi": 2}],
    "pass": True,
    "runtime_ms": 12,
}


def test_canonical_drops_runtime_and_ignores_key_order():
    other = dict(reversed(list(REPORT.items())))
    other["runtime_ms"] = 99999
    assert canonical(other) == canonical(REPORT)
    assert "runtime_ms" not in canonical(REPORT)


def test_canonical_catches_an_altered_value():
    altered = {**REPORT, "results": [dict(r) for r in REPORT["results"]]}
    altered["results"][2]["xi"] = 3
    assert canonical(altered) != canonical(REPORT)
    assert first_mismatch(altered, REPORT) == "$.results[2].xi"


def test_canonical_catches_missing_and_extra_fields():
    fewer = {k: v for k, v in REPORT.items() if k != "pass"}
    assert canonical(fewer) != canonical(REPORT)
    assert first_mismatch(fewer, REPORT) == "$.pass"
    longer = {**REPORT, "results": REPORT["results"] + [{"n": 3, "xi": 5}]}
    assert first_mismatch(longer, REPORT) == "$.results[3]"


def test_canonical_distinguishes_bool_from_int():
    assert canonical({**REPORT, "pass": 1}) != canonical(REPORT)
    assert first_mismatch({**REPORT, "pass": 1}, REPORT) == "$.pass"


def test_canonical_keeps_nested_runtime_fields():
    # only the top-level volatile field is dropped
    a = {"results": [{"runtime_ms": 1}]}
    b = {"results": [{"runtime_ms": 2}]}
    assert canonical(a) != canonical(b)


# -- computed kernel counts ---------------------------------------------------------


def _brute_ops(la, lb, n):
    n = min(n, la + lb - 1) if la and lb else 0
    return sum(1 for i in range(la) for j in range(lb) if i + j < n)


@pytest.mark.parametrize("la", [0, 1, 2, 5, 9])
@pytest.mark.parametrize("lb", [0, 1, 3, 7])
@pytest.mark.parametrize("n", [0, 1, 2, 4, 8, 11, 20])
def test_trunc_ops_matches_brute_force(la, lb, n):
    assert trunc_ops(la, lb, n) == _brute_ops(la, lb, n)


def test_trunc_ops_full_product():
    assert trunc_ops(30, 40, 69) == 1200


def test_int64_lane_bound():
    assert int64_lane(2**30, 2**30, 3, 3)
    assert not int64_lane(2**30, 2**31, 4, 4)  # 2^30 * 2^31 * 4 = 2^63
    assert int64_lane(2**70, 0, 5, 5) is False  # operand does not fit int64
    assert int64_lane(0, 0, 5, 5)
