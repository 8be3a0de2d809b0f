#!/usr/bin/env python3
"""Pair the engine and CLI layers of two checkouts: one BENCH_<n>.json entry.

Runs this checkout's ``benchmarks/bench_kernels.py --json`` against the
parent checkout's src/ and against the change's, alternately (parent first
in even rounds, change first in odd ones), for ten rounds, each run a fresh
interpreter.  Both sides are timed by the same script, so they share the
rows and the timing code; the entry records the script's digest once per
side, and the run stops if the sides disagree on it, on the backend or on
the Python version.  Per row and side, each run gives its best of k CPU
times; the entry keeps the best, the median and the quartiles of those
bests over the rounds, the ratio of the medians, and in how many rounds
the change's best beat the parent's.

Usage: python benchmarks/pair.py PARENT CHANGE --out BENCH_<n>.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROUNDS = 10
BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_kernels.py")


def run(root: str, path: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("QFISH_") and not k.startswith("PYTHON")}
    subprocess.run([sys.executable, BENCH, "--src", os.path.join(root, "src"), "--json", path],
                   env=env, check=True)
    with open(path) as fh:
        return json.load(fh)


def side(bests: list) -> dict:
    q1, _, q3 = statistics.quantiles(bests, n=4)
    return {"best_s": min(bests), "median_s": statistics.median(bests), "quartiles_s": [q1, q3]}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--out", required=True, metavar="FILE")
    args = parser.parse_args()
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(ROUNDS):
            for name in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                runs[name].append(run(getattr(args, name), os.path.join(tmp, "run.json")))
    provenance = {}
    for name, rs in runs.items():
        meta = {k: v for k, v in rs[0].items() if k not in ("rows", "unit")}
        if any({k: v for k, v in r.items() if k not in ("rows", "unit")} != meta for r in rs):
            raise SystemExit(f"{name}: provenance changed between rounds")
        provenance[name] = meta
    for key in ("backend", "python", "bench_sha256"):
        if provenance["parent"][key] != provenance["change"][key]:
            raise SystemExit(f"the two sides differ in {key}")
    rows = {}
    for row in runs["parent"][0]["rows"]:
        par = [min(r["rows"][row]) for r in runs["parent"]]
        chg = [min(r["rows"][row]) for r in runs["change"]]
        rows[row] = {
            "parent": side(par),
            "change": side(chg),
            "speedup_median": statistics.median(par) / statistics.median(chg),
            "change_faster_rounds": sum(c < p for p, c in zip(par, chg)),
        }
    entry = {
        "unit": "cpu_s",
        "rounds": ROUNDS,
        **provenance,
        "rows": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(entry, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
