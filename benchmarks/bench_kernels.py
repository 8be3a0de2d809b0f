#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Two layers:
  * kernel microbenchmarks run both implementations in-process on the same
    operands (dense small-coefficient products, big-integer products);
  * end-to-end workloads re-run representative engine calls in a fresh
    interpreter per backend (QFISH_PURE=1 selects the fallback), since the
    backend is chosen at import time.

Usage: python benchmarks/bench_kernels.py [--quick]
"""

import argparse
import os
import random
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)

from qfish.backend import available_backends  # noqa: E402

# pure always; compiled only when the extension is importable, so a pure
# timing is never printed under the compiled heading
LABELS = ["pure"] + (["compiled"] if "compiled" in available_backends() else [])


def time_call(fn, *args, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


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
        row(name, {label: time_call(backends[label].mul, a, b, repeat=3) for label in LABELS})


WORKLOADS = {
    "xi t=3 count=40": "qfish.xi_coefficients(3, 40)",
    "dissect t=3 s=7 N=20": "qfish.divisibility_check(3, 7, 20)",
    "dissect t=2 s=5 N=29": "qfish.divisibility_check(2, 5, 29)",
    "key identity t=3 q<=20": "qfish.verify_key_identity(3, 20)",
}


def workload_bench(quick: bool) -> None:
    print()
    header("end-to-end workload")
    items = list(WORKLOADS.items())
    if quick:
        items = items[:2]
    for name, snippet in items:
        timings = {}
        for label in LABELS:
            env = dict(os.environ)
            env.pop("QFISH_PURE", None)
            if label == "pure":
                env["QFISH_PURE"] = "1"
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
            # time inside the interpreter so startup cost is excluded
            code = (
                "import time, qfish\n"
                f"assert qfish.backend_name() == {label!r}\n"
                f"t0 = time.perf_counter(); {snippet}\n"
                "print(time.perf_counter() - t0)"
            )
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, check=True,
                capture_output=True, text=True,
            )
            timings[label] = float(out.stdout.strip())
        row(name, timings)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true", help="smaller cases only")
    args = parser.parse_args()
    kernel_bench(args.quick)
    workload_bench(args.quick)


if __name__ == "__main__":
    main()
