"""Seeded request lists, stored references and the declared metric names."""

import json
from collections import Counter
from pathlib import Path

import pytest

import workloads
from run import END_TO_END, PER_LAYER
from stats import canonical

HERE = Path(__file__).resolve().parent.parent
NAMES = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_requests(name):
    assert workloads.request_rounds(name, 7, 3) == workloads.request_rounds(name, 7, 3)


@pytest.mark.parametrize("name", NAMES)
def test_every_round_is_the_whole_menu(name):
    menu = Counter(workloads.menu(name))
    for order in workloads.request_rounds(name, 11, 4):
        assert Counter(order) == menu


@pytest.mark.parametrize("name", NAMES)
def test_seeds_change_the_order(name):
    orders = {tuple(workloads.request_rounds(name, seed, 1)[0]) for seed in range(8)}
    assert len(orders) > 1


def test_first_round_does_not_depend_on_round_count():
    assert workloads.request_rounds("session", 3, 1)[0] == workloads.request_rounds("session", 3, 4)[0]


def test_rounds_per_run_depends_on_seconds_only():
    assert workloads.rounds_per_run("session", 1) == 1
    assert workloads.rounds_per_run("session", 4 * workloads.NOMINAL_ROUND_S["session"]) == 4


def test_parse_call():
    assert workloads.parse_call("verify_slater 40 30") == ("verify_slater", (40, 30))


@pytest.mark.parametrize("name", NAMES)
def test_every_instance_has_a_reference_and_alterations_are_caught(name):
    reports = json.loads((HERE / "references" / f"{name}.json").read_text())["reports"]
    assert set(workloads.menu(name)) == set(reports)
    for instance, report in reports.items():
        text = canonical(report)
        assert "runtime_ms" not in text
        altered = json.loads(text)
        _alter(altered)
        assert canonical(altered) != text, instance


def _alter(obj) -> None:
    """Change one leaf of a report in place: the first integer, else append."""
    stack = [obj]
    while stack:
        node = stack.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if isinstance(value, int) and not isinstance(value, bool):
                node[key] = value + 1
                return
            if isinstance(value, (dict, list)):
                stack.append(value)
    if isinstance(obj, dict):
        obj["extra"] = 0
    else:
        obj.append(0)


def test_benchmark_json_declares_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
