"""Workload menus and the seeded request order.

A workload is a fixed menu of instances.  One round sends every instance of
the menu exactly once, in an order drawn from the seed, so the work of a round
(and hence ``run_s``) does not depend on the seed while the sequence does.
The CLI children share nothing, so for them the order only moves noise; in
the ``session`` workload the order decides which call finds its inputs
already cached.

CLI instances are ``python -m qfish`` argument strings (``--format json`` is
appended).  Session instances are ``<function> <int args...>`` calls into the
``qfish`` package made from one long-lived interpreter.
"""

from __future__ import annotations

import random

# Each workload: (kind, why, menu).  The comments give pure-lane wall times
# of one fresh process on a 2-core machine, Python 3.11.  Each CLI menu spans
# about 0.25 s to 1.3 s, so the median and tail fall on compute-bound
# requests, never on interpreter start-up alone.  Instances that differ only
# in a parameter that leaves the work unchanged (the modulus s of a
# dissection) cost the same, so the dissect menu keeps its median and tail
# inside such groups rather than on the gap between them.  One round takes
# about 7 s, so a run holds several rounds.
WORKLOADS = {
    "fishburn": (
        "cli",
        "bigint mul_trunc in the substituted-domain DP and the t = 1 Pascal rows; congruences up to r = 2",
        [
            "congruence --t 3 --p 5 --r 1 --m-max 3",  # 0.23 s
            "xi --t 2 --count 35",  # 0.32 s
            "xi --t 1 --count 45",  # 0.35 s
            "xi --t 3 --count 17",  # 0.37 s
            "congruence --t 1 --p 7 --r 2",  # 0.38 s
            "congruence --t 1 --p 5 --r 2 --m-max 2",  # 0.40 s
            "xi --t 3 --count 19",  # 0.47 s
            "congruence --t 1 --p 11 --r 1 --m-max 5",  # 0.50 s
            "xi --t 2 --count 45",  # 0.51 s
            "congruence --t 2 --p 7 --r 2",  # 0.55 s
            "xi --t 1 --count 55",  # 0.56 s
            "xi --t 3 --count 21",  # 0.62 s
            "xi --t 1 --count 65",  # 0.86 s
            "congruence --t 3 --p 5 --r 2",  # 0.95 s
        ],
    ),
    "dissect": (
        "cli",
        "exact q-domain DP over small coefficients, where the int64 lane and poly_divides sit",
        [
            "dissect --t 2 --s 7 --n 27",  # 0.33 s
            "dissect --t 2 --s 7 --n 30",  # 0.39 s
            "dissect --t 2 --s 2 --n 30",  # 0.41 s
            "dissect --t 3 --s 11 --n 10",  # 0.47 s
            "dissect --t 3 --s 5 --n 10",  # 0.48 s
            "dissect --t 3 --s 2 --n 10",  # 0.48 s
            "dissect --t 3 --s 7 --n 10",  # 0.48 s
            "dissect --t 2 --s 7 --n 34",  # 0.66 s
            "dissect --t 3 --s 2 --n 11",  # 0.68 s
            "dissect --t 3 --s 5 --n 11",  # 0.68 s
            "dissect --t 3 --s 7 --n 11",  # 0.70 s
            "dissect --t 3 --s 3 --n 12",  # 1.06 s
        ],
    ),
    "identities": (
        "cli",
        "per-vector walks and IntSeries/CycInt object overhead; includes the t = 4 root-of-unity match",
        [
            "verify --identity all --t 2",  # 0.28 s
            "verify --identity root --t 4 --deep --n-max 2",  # 0.33 s
            "verify --identity key --t 3 --order 14",  # 0.39 s
            "verify --identity key --t 2 --order 60",  # 0.42 s
            "verify --identity root --t 3",  # 0.48 s
            "verify --identity root --t 1 --n-max 30",  # 0.56 s
            "verify --identity key --t 3 --order 18",  # 0.56 s
            "verify --identity root --t 2 --n-max 20",  # 0.59 s
            "verify --identity key --t 2 --order 70",  # 0.65 s
            "verify --identity root --t 3 --n-max 9",  # 0.74 s
            "verify --identity root --t 4 --deep --n-max 3",  # 1.1 s, the t = 4 match
            "verify --identity all --t 3",  # 1.3 s
        ],
    ),
    "session": (
        "session",
        "one long-lived interpreter whose calls share xi tables, binomials and a_n_t windows",
        [
            "verify_congruence 2 5 1 1",
            "verify_congruence 2 5 1 2",
            "verify_congruence 2 5 1 3",
            "verify_congruence 2 5 1 4",
            "verify_congruence 2 7 1 1",
            "verify_congruence 2 7 1 2",
            "verify_congruence 2 7 1 3",
            "verify_congruence 2 11 1 2",
            "verify_congruence 2 5 2 1",
            "verify_congruence 2 7 2 1",
            "xi_coefficients 2 49",
            "xi_coefficients 3 10",
            "xi_coefficients 3 15",
            "xi_coefficients 3 20",
            "xi_coefficients 3 24",
            "xi_coefficients 3 25",
            "verify_congruence 3 5 1 4",
            "verify_congruence 3 7 1 3",
            "verify_congruence 3 5 2 1",
            "verify_key_identity 3 20",
            "verify_key_identity 3 20",
            "verify_key_identity 3 20",
            "verify_key_identity 2 30",
            "verify_key_identity 2 30",
            "verify_root_match 3 8",
            "verify_root_match 3 8",
            "verify_root_match 4 3",
            "verify_rewrite2 3 8 20",
            "verify_rewrite2 3 8 20",
            "verify_difference_equation 3 10 24",
            "verify_difference_equation 3 10 24",
            "verify_theta_product 3 60",
            "verify_slater 40 30",
            "divisibility_check 3 5 11",
            "divisibility_check 3 7 11",
            "divisibility_check 3 11 11",
        ],
    ),
}

# Pure-lane CPU time of one round at the commit that defined the benchmark.
# A run makes round(seconds / nominal) rounds (at least one), so the amount of
# work per run, and with it the sample count behind every percentile, is fixed
# by --seconds alone and is the same on the parent and on a change.
NOMINAL_ROUND_S = {
    "fishburn": 7.0,
    "dissect": 7.0,
    "identities": 7.0,
    "session": 6.3,
}


def kind(workload: str) -> str:
    return WORKLOADS[workload][0]


def menu(workload: str) -> list:
    return list(WORKLOADS[workload][2])


def rounds_per_run(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def request_rounds(workload: str, seed: int, rounds: int) -> list:
    """``rounds`` seeded permutations of the menu; same seed, same lists."""
    rng = random.Random(f"{workload}/{seed}")
    out = []
    for _ in range(rounds):
        order = menu(workload)
        rng.shuffle(order)
        out.append(order)
    return out


def parse_call(instance: str) -> tuple:
    """'verify_slater 40 30' -> ('verify_slater', (40, 30))."""
    name, *args = instance.split()
    return name, tuple(int(a) for a in args)
