#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Both implementations run in-process on the same operands (dense
small-coefficient products, big-integer products, many short big-integer
products, where the compiled module's per-call handoff to the pure
convolution shows, and many short int64 products added into one list,
by a Python loop or by the kernel's accumulate form).  One layer up, it
times the engines built on the kernel: the inner-sum DP behind exact G_n,
the graded summands of M_t, J_N (also at t = 1), the key identity's
b-sums, cold and warm, the root-of-unity match cold, the key identity
warm, the Slater identities cold, (q)_inf to order 400, the exact partial
sum F_t(q; N) warm and the dissection check on it cold, cold runs of the
graded summands, the key identity at t = 3 and 4 and the exact G_n at
t = 2, xi at the session menu's t = 2 counts, cold, growing and falling
(where the prefix store serves the later ones), cold runs of the
difference equation at (3, 10, 24) and (4, 12, 30), the key identity at
(2, 30) and the DP's factor rows at order 21 for n <= 21, the theta
product at (3, 60) and the difference equation at (3, 10, 24) warm (the
series sums and comparisons; the first call refills the graded summands
that the cold rows emptied, so the best of k is warm), the (1 - x) M_t
rewrite at (2, 12, 30) and (3, 8, 20), cold and warm, last the
dissection check and the root match at t = 2 and N = 60 cold (where a
product (q)_n G_n would leave int64), and the xi_series oracle.  The cold rows empty each lru_cache they name, so the
checkout under test must have them all.  Times are CPU
seconds of this process, best of k.  Running the script against two
checkouts' src/, alternately, gives the engine layer's speedup between
them: benchmarks/pair.py does that and writes the paired BENCH_<n>.json
entry.  End-to-end numbers come
from perfbench/run.py.

Usage: python benchmarks/bench_kernels.py [--quick] [--json FILE] [--src DIR]

--src DIR times the qfish package under DIR (default: this checkout's src/).
--json FILE times the engine layer only and writes its rows (all 5 samples)
to FILE with the backend, the Python version, the git rev of DIR's checkout,
a digest of its src/qfish sources and a digest of this script.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import time

parser = argparse.ArgumentParser()
parser.add_argument("--quick", action="store_true", help="smaller cases only")
parser.add_argument("--json", metavar="FILE",
                    help="time the engine layer only and write its rows to FILE")
parser.add_argument("--src", metavar="DIR",
                    default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"),
                    help="the src/ directory whose qfish is timed")
ARGS = parser.parse_args()  # before the imports below: --src picks the package
SRC = os.path.realpath(ARGS.src)
sys.path.insert(0, SRC)

import qfish  # noqa: E402
from qfish.backend import available_backends, backend_name  # noqa: E402

if os.path.dirname(os.path.realpath(qfish.__file__)) != os.path.join(SRC, "qfish"):
    raise SystemExit(f"qfish was imported from {qfish.__file__}, not from {SRC}")

# pure always; compiled only when the extension is importable, so a pure
# timing is never printed under the compiled heading
LABELS = ["pure"] + (["compiled"] if "compiled" in available_backends() else [])


def samples(fn, *args, repeat=5):
    """CPU seconds of each of ``repeat`` calls."""
    out = []
    for _ in range(repeat):
        t0 = time.process_time()
        fn(*args)
        out.append(time.process_time() - t0)
    return out


def time_call(fn, *args, repeat=5):
    return min(samples(fn, *args, repeat=repeat))


def header(first: str) -> None:
    cols = "".join(f"{label + ' (s)':>14}" for label in LABELS)
    print(f"{first:<28}{cols}" + (f"{'speedup':>9}" if len(LABELS) == 2 else ""))


def row(name: str, timings: dict) -> None:
    cols = "".join(f"{timings[label]:>14.4f}" for label in LABELS)
    speedup = f"{timings['pure'] / timings['compiled']:>8.1f}x" if len(LABELS) == 2 else ""
    print(f"{name:<28}{cols}{speedup}")


def kernel_bench(quick: bool) -> None:
    backends = available_backends()
    if len(LABELS) == 1:
        print("compiled extension not built; pure timings only")
    rng = random.Random(7)
    sizes = [(100, 100), (400, 400)] if quick else [(100, 100), (400, 400), (1000, 1000)]
    cases = []
    for la, lb in sizes:
        a = [rng.randint(-10**5, 10**5) for _ in range(la)]
        b = [rng.randint(-10**5, 10**5) for _ in range(lb)]
        cases.append((f"int64 path {la}x{lb}", a, b))
    big = [rng.randint(-10**40, 10**40) for _ in range(300)]
    cases.append(("bigint path 300x300", big, list(reversed(big))))

    header("kernel case")
    for name, a, b in cases:
        full = len(a) + len(b) - 1
        row(name, {label: time_call(backends[label].mul_trunc, a, b, full, repeat=3)
                   for label in LABELS})

    # the call profile of the xi_series oracle: 2000 products of length 20
    # with 500-bit coefficients
    short = [([rng.getrandbits(500) - 2**499 for _ in range(20)],
              [rng.getrandbits(500) - 2**499 for _ in range(20)]) for _ in range(2000)]

    def short_products(kernel):
        for a, b in short:
            kernel.mul_trunc(a, b, 20)

    row("bigint 20x20 x2000 calls",
        {label: time_call(short_products, backends[label], repeat=3) for label in LABELS})

    # the call profile of the inner-sum DP: 20000 int64 products of length
    # <= 20, each added into one growing list, either by a Python loop over
    # the product (the pool add) or inside the kernel (mul_trunc with out)
    acc_cases = []
    for _ in range(20000):
        a = [rng.randint(-99, 99) for _ in range(rng.randint(1, 10))]
        b = [rng.randint(-99, 99) for _ in range(rng.randint(1, 11))]
        acc_cases.append((a, b, rng.randint(1, len(a) + len(b) - 1), rng.randint(0, 40)))

    def add_loop(kernel):
        out = []
        for a, b, n, off in acc_cases:
            prod = kernel.mul_trunc(a, b, n)
            if len(out) < off + n:
                out.extend([0] * (off + n - len(out)))
            for i, c in enumerate(prod, off):
                if c:
                    out[i] += c

    def in_kernel(kernel):
        out = []
        for a, b, n, off in acc_cases:
            if len(out) < off + n:
                out.extend([0] * (off + n - len(out)))
            kernel.mul_trunc(a, b, n, out, off)

    row("accumulate: add loop",
        {label: time_call(add_loop, backends[label], repeat=3) for label in LABELS})
    row("accumulate: in kernel",
        {label: time_call(in_kernel, backends[label], repeat=3) for label in LABELS})


def engine_cases() -> list:
    """(name, call) for the engine layer, each call past its lru_cache (the
    (x; q)_n factor rows, and the Gaussian-binomial rows where a checkout
    caches them, stay cached, as in a long-lived process) unless the name
    says cold."""
    import qfish.fishburn as fishburn
    import qfish.qseries as qseries
    import qfish.torus as torus
    from qfish.fishburn import divisibility_check, xi_coefficients
    from qfish.identities import (
        verify_difference_equation, verify_key_identity, verify_rewrite2, verify_root_match,
        verify_slater, verify_theta_product,
    )
    from qfish.series import euler_product
    from qfish.torus import (
        _m_graded, colored_jones, kz_full_polynomial, kz_inner_sum, torus_params,
    )

    p1, p2, p3, p4, p5 = (torus_params(t) for t in (1, 2, 3, 4, 5))
    mods = {"torus": torus, "qseries": qseries, "fishburn": fishburn}
    # the factor rows: the Gaussian-binomial rows (a cache in older
    # checkouts only) and the (x; q)_n tables
    rows = ("qseries.binom_row_trunc", "torus._xq_rows")
    a_windows = ("torus._a_window", "torus._m_graded")

    def clear(*names):
        """Empty each named lru_cache.  A name that is not a cache is left
        as it is (one side of a pair may cache what the other does not),
        and a missing name raises AttributeError."""
        for name in names:
            mod, attr = name.split(".")
            obj = getattr(mods[mod], attr)
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()

    def b_sums(p, q_order, cold):
        if cold:  # every a_{n,t} and graded summand rebuilt
            clear(*a_windows)
        return torus.b_sums(p, q_order + p.h_d)

    def root_match_cold(t, n_max):  # as the first call in a process
        clear("torus.kz_inner_sum", *rows)
        return verify_root_match(t, n_max)

    def divisibility_cold(t, s, n_index):  # every exact G_n and row rebuilt
        clear("torus.kz_inner_sum", *rows)
        return divisibility_check(t, s, n_index)

    def slater_cold(q_order, gen_q_order):  # the factor rows rebuilt
        clear(*rows)
        return verify_slater(q_order, gen_q_order)

    def m_graded_cold(p, k_top, q_order):  # the graded summands and their rows rebuilt
        clear("torus._m_graded", *rows)
        return [_m_graded(p, k, q_order) for k in range(k_top + 1)]

    def key_identity_cold(t, q_order):  # as the first call in a process
        clear("torus.kz_inner_sum", *a_windows, *rows)
        return verify_key_identity(t, q_order)

    def difference_equation_cold(t, x_bound, q_order):  # every row and graded summand rebuilt
        clear("torus._m_graded", *rows)
        return verify_difference_equation(t, x_bound, q_order)

    def rewrite_cold(t, x_bound, q_order):  # every a_{n,t}, graded summand and row rebuilt
        clear(*a_windows, *rows)
        return verify_rewrite2(t, x_bound, q_order)

    def factor_rows_cold(q_order, n_top):  # the DP's factors for n <= n_top, rebuilt
        clear(*rows)
        return [torus._q_setup(n, q_order) for n in range(n_top + 1)]

    def inner_sums_cold(p, n_top):  # every exact G_n and row rebuilt
        clear("torus.kz_inner_sum", *rows)
        return [kz_inner_sum(p, n, None) for n in range(n_top + 1)]

    def xi_cold(t, counts):  # every xi table rebuilt
        clear("fishburn._xi_cached")
        return [xi_coefficients(t, c) for c in counts]

    xi_counts = (5, 7, 10, 14, 15, 20, 21, 22, 25, 49)  # the session menu's t = 2 counts

    verify_key_identity(2, 70)  # the warm rows time later calls
    kz_full_polynomial(p2, 34)
    return [
        ("kz_inner_sum t=3 n=16 exact", lambda: kz_inner_sum.__wrapped__(p3, 16, None)),
        ("kz_inner_sum t=4 n=10 exact", lambda: kz_inner_sum.__wrapped__(p4, 10, None)),
        ("kz_inner_sum t=5 n=6 exact", lambda: kz_inner_sum.__wrapped__(p5, 6, None)),
        ("_m_graded t=3 n<=21 L=21", lambda: [_m_graded.__wrapped__(p3, n, 21) for n in range(22)]),
        ("colored_jones t=4 N=8", lambda: colored_jones(p4, 8)),
        ("colored_jones t=1 N<=30", lambda: [colored_jones(p1, n) for n in range(1, 31)]),
        ("colored_jones t=2 N<=40", lambda: [colored_jones(p2, n) for n in range(1, 41)]),
        ("b_sums t=2 q_order=70 cold", lambda: b_sums(p2, 70, True)),
        ("b_sums t=2 q_order=70 warm", lambda: b_sums(p2, 70, False)),
        ("b_sums t=3 q_order=20 cold", lambda: b_sums(p3, 20, True)),
        ("b_sums t=3 q_order=20 warm", lambda: b_sums(p3, 20, False)),
        ("verify_root_match t=4 N<=12 cold", lambda: root_match_cold(4, 12)),
        ("verify_root_match t=5 N<=7 cold", lambda: root_match_cold(5, 7)),
        ("verify_key_identity t=2 q_order=70 warm", lambda: verify_key_identity(2, 70)),
        ("verify_slater 40 30 cold", lambda: slater_cold(40, 30)),
        ("euler_product order=400", lambda: euler_product(400)),
        ("kz_full_polynomial t=2 N=34 warm", lambda: kz_full_polynomial(p2, 34)),
        ("divisibility_check 2 7 34 cold", lambda: divisibility_cold(2, 7, 34)),
        ("_m_graded t=3 k<=21 L=21 cold", lambda: m_graded_cold(p3, 21, 21)),
        ("verify_key_identity t=3 q_order=20 cold", lambda: key_identity_cold(3, 20)),
        ("verify_key_identity t=4 q_order=12 cold", lambda: key_identity_cold(4, 12)),
        ("kz_inner_sum t=2 n<=34 exact cold", lambda: inner_sums_cold(p2, 34)),
        ("xi_coefficients t=2 growing counts cold", lambda: xi_cold(2, xi_counts)),
        ("xi_coefficients t=2 falling counts cold", lambda: xi_cold(2, xi_counts[::-1])),
        ("verify_difference_equation 3 10 24 cold", lambda: difference_equation_cold(3, 10, 24)),
        ("verify_difference_equation 4 12 30 cold", lambda: difference_equation_cold(4, 12, 30)),
        ("verify_key_identity t=2 q_order=30 cold", lambda: key_identity_cold(2, 30)),
        ("factor rows q_order=21 n<=21 cold", lambda: factor_rows_cold(21, 21)),
        ("verify_theta_product t=3 q_order=60 warm", lambda: verify_theta_product(3, 60)),
        ("verify_difference_equation 3 10 24 warm",
         lambda: verify_difference_equation(3, 10, 24)),
        ("verify_rewrite2 2 12 30 cold", lambda: rewrite_cold(2, 12, 30)),
        ("verify_rewrite2 2 12 30 warm", lambda: verify_rewrite2(2, 12, 30)),
        ("verify_rewrite2 3 8 20 cold", lambda: rewrite_cold(3, 8, 20)),
        ("verify_rewrite2 3 8 20 warm", lambda: verify_rewrite2(3, 8, 20)),
        # last: at about 70 ms a call these two are over 5x any other row,
        # and a heavy row biases the rows timed after it in this process
        ("divisibility_check 2 7 60 cold", lambda: divisibility_cold(2, 7, 60)),
        ("verify_root_match t=2 N<=60 cold", lambda: root_match_cold(2, 60)),
    ]


def engine_bench(quick: bool) -> None:
    """The engine layer on the active backend, best of k."""
    from qfish.fishburn import xi_series

    print()
    print(f"{'engine case (' + backend_name() + ')':<42}{'best (s)':>10}")
    for name, fn in engine_cases():
        print(f"{name:<42}{time_call(fn):>10.4f}")
    if not quick:  # a second or more a call
        print(f"{'xi_series t=3 count 60':<42}{time_call(xi_series, 3, 61, 60, repeat=2):>10.4f}")


def provenance() -> dict:
    """Backend, Python version, the git rev of SRC's checkout (None outside
    a git work tree), whether its src/ differs from it, a sha256 over the
    names and contents of the src/qfish sources (*.py, *.c), and one over
    this script, the timing code."""
    root = os.path.dirname(SRC)
    git = ["git", "-C", root]
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)}
    rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, env=env)
    dirty = subprocess.run(git + ["status", "--porcelain", "--", "src"],
                           capture_output=True, text=True, env=env)
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qfish")
    for name in sorted(f for f in os.listdir(pkg) if f.endswith((".py", ".c"))):
        with open(os.path.join(pkg, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    with open(os.path.abspath(__file__), "rb") as fh:
        bench = hashlib.sha256(fh.read())
    ok = rev.returncode == 0
    return {
        "backend": backend_name(),
        "python": platform.python_version(),
        "git_rev": rev.stdout.strip() if ok else None,
        "src_dirty": bool(dirty.stdout.strip()) if ok else None,
        "tree_sha256": h.hexdigest()[:16],
        "bench_sha256": bench.hexdigest()[:16],
    }


def write_json(path: str) -> None:
    rows = {name: samples(fn) for name, fn in engine_cases()}
    with open(path, "w") as fh:
        json.dump({**provenance(), "unit": "cpu_s", "rows": rows}, fh, indent=1)
        fh.write("\n")


def main() -> None:
    if ARGS.json:
        write_json(ARGS.json)
        return
    kernel_bench(ARGS.quick)
    engine_bench(ARGS.quick)


if __name__ == "__main__":
    main()
