#!/usr/bin/env python3
"""Layered benchmark for qfish.

    python3 perfbench/run.py --workload fishburn --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Builds a private copy of the checkout
(``setup.py build_ext --inplace``), times ``import qfish`` in fresh
interpreters, then drives the workload with one closed-loop client: each CLI
request is a fresh ``python -m qfish ... --format json`` child, the session
workload is one long-lived interpreter answering library calls.  Every reply
is checked against its stored reference.  Times are the CPU time (user +
system) of the process that served the request: on a shared VM the host
takes the vCPU away in bursts (steal time), which wall time counts and CPU
time does not, and qfish computes on one thread, so on an idle machine the
two agree.  Wall times are kept in the ``RECORD`` line.  With ``--trace 1`` the same
requests run once untraced and once through ``child.py``, which records spans
per qfish module, and the per-layer metrics are reported instead.

The last line of stdout is the result object; the line before it, prefixed
``RECORD``, carries provenance and sample counts.  Exit status is 0 only when
every request succeeded and matched its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads
from child import read_spans
from procs import BuildError, Session, build_tree, child_env, run_child
from stats import canonical, first_mismatch, hd_quantile, self_times, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
CHILD = HERE / "child.py"

SETUP_PROBES = 15
STOP_SENDING_S = 150  # no new request after this much of the run
HARD_LIMIT_S = 170  # a request still running then is killed

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "req_p50_s": "s",
    "req_tail_s": "s",
    "peak_rss_mb": "MB",
}

_KERNELS = ("mul", "mul_trunc")
PER_LAYER = {
    **{f"backend.{k}.{m}": u for k in _KERNELS
       for m, u in (("calls", "count"), ("self_s", "s"), ("coef_ops", "count"))},
    "backend.int64_ops_frac": "frac",
    "backend.max_bits": "bits",
    "series.IntSeries.mul.calls": "count",
    "series.IntSeries.mul.self_s": "s",
    "series.poly_divides.calls": "count",
    "series.poly_divides.self_s": "s",
    "series.invert_unit.calls": "count",
    "series.invert_unit.self_s": "s",
    "qseries.q_binomial.calls": "count",
    "qseries.q_binomial.self_s": "s",
    "qseries.pochhammer.calls": "count",
    "qseries.pochhammer.self_s": "s",
    "qseries.partial_theta.self_s": "s",
    "cyclotomic.CycInt.mul.calls": "count",
    "cyclotomic.CycInt.mul.self_s": "s",
    "cyclotomic.cyc_eval.calls": "count",
    "cyclotomic.cyc_eval.self_s": "s",
    "biseries.BiAccumulator.add.calls": "count",
    "biseries.BiAccumulator.add.self_s": "s",
    "torus.jvectors": "count",
    "torus.kz_inner_sum.calls": "count",
    "torus.kz_inner_sum.self_s": "s",
    "torus.kz_full_polynomial.self_s": "s",
    "torus.colored_jones.self_s": "s",
    "torus.kz_at_root_of_unity.self_s": "s",
    "torus.H_multisum.self_s": "s",
    "torus.M_series.self_s": "s",
    "torus.a_n_t.calls": "count",
    "torus.a_n_t.self_s": "s",
    "fishburn.xi_series.calls": "count",
    "fishburn.xi_series.self_s": "s",
    "fishburn.divisibility_check.self_s": "s",
    "fishburn.dissection.self_s": "s",
    "fishburn.verify_congruence.self_s": "s",
    **{f"identities.{v}.self_s": "s" for v in (
        "verify_difference_equation", "verify_rewrite2", "verify_key_identity",
        "verify_theta_product", "verify_slater", "verify_root_match")},
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "cli.process_s": "s",
    "cache.binom_entries": "count",
    "cache.xi_entries": "count",
    "cache.a_n_t_entries": "count",
    "cache.phi_entries": "count",
    "build.build_ext_s": "s",
    "trace.overhead_frac": "frac",
}


class Context:
    """What every round needs: the built copy, its environment, references."""

    def __init__(self, workload: str, build, started: float):
        self.build = build
        self.env = child_env(build.tree)
        self.started = started
        path = HERE / "references" / f"{workload}.json"
        reports = json.loads(path.read_text())["reports"]
        self.refs = {k: canonical(v) for k, v in reports.items()}
        self.incomplete = False
        self.session_backend = None

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def timeout(self) -> float:
        return max(1.0, HARD_LIMIT_S - self.elapsed())

    def verify(self, instance: str, report) -> str | None:
        """None if ``report`` matches the stored reference, else why not."""
        want = self.refs.get(instance)
        if want is None:
            return "no stored reference"
        got = canonical(report)
        if got == want:
            return None
        return "differs from reference at " + str(first_mismatch(json.loads(got), json.loads(want)))


class Round:
    """One pass over a request list: latencies, failures, and (traced) layer totals.

    A request's latency is the CPU time (user + system) of the process that
    served it; ``walls`` holds the wall times of the same requests.
    """

    def __init__(self):
        self.latencies: list = []
        self.walls: list = []
        self.max_rss_kb = 0
        self.failures: list = []
        self.layers = LayerTotals()

    @property
    def run_s(self) -> float:
        return sum(self.latencies)


class LayerTotals:
    """Per-layer sums over the span dumps of one traced round."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.caches = defaultdict(int)
        self.missing: set = set()
        self.import_s = 0.0
        self.process_s = 0.0

    def add(self, path: Path, wall_s=None) -> None:
        header, start, end, names, parents, _ = read_spans(str(path))
        selfs = self_times(start, end, parents)
        labels = header["names"]
        main_s = 0.0
        for i, nid in enumerate(names):
            label = labels[nid]
            self.calls[label] += 1
            self.self_s[label] += selfs[i]
            if label == "cli.main" and parents[i] < 0:
                main_s += end[i] - start[i]
        for key, value in header["counters"].items():
            if key == "backend.max_bits":
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value
        for key, value in header["caches"].items():
            self.caches[key] = max(self.caches[key], value)
        self.missing.update(header["missing"])
        self.import_s += header["import_s"]
        if wall_s is not None:
            self.process_s += wall_s - main_s

    def metrics(self) -> dict:
        out = {}
        for name in PER_LAYER:
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = self.calls[base]
            elif kind == "self_s":
                out[name] = self.self_s[base]
        ops = {k: self.counters[f"backend.{k}.coef_ops"] for k in _KERNELS}
        for k in _KERNELS:
            out[f"backend.{k}.coef_ops"] = ops[k]
        total_ops = sum(ops.values())
        out["backend.int64_ops_frac"] = self.counters["backend.int64_ops"] / total_ops if total_ops else 0.0
        out["backend.max_bits"] = self.counters["backend.max_bits"]
        out["torus.jvectors"] = self.counters["torus.jvectors"]
        out["cli.import_s"] = self.import_s
        out["cli.process_s"] = self.process_s
        for key in ("binom_entries", "xi_entries", "a_n_t_entries", "phi_entries"):
            out[f"cache.{key}"] = self.caches[f"cache.{key}"]
        return out


def cli_round(ctx: Context, order: list, traced: bool) -> Round:
    rnd = Round()
    spans = WORK / "spans.bin"
    for instance in order:
        if ctx.elapsed() > STOP_SENDING_S:
            ctx.incomplete = True
            break
        argv = instance.split() + ["--format", "json"]
        if traced:
            spans.unlink(missing_ok=True)
            cmd = [sys.executable, str(CHILD), "cli", "--spans", str(spans), *argv]
        else:
            cmd = [sys.executable, "-m", "qfish", *argv]
        res = run_child(cmd, ctx.env, ctx.build.tree, WORK, ctx.timeout())
        rnd.latencies.append(res.cpu_s)
        rnd.walls.append(res.wall_s)
        rnd.max_rss_kb = max(rnd.max_rss_kb, res.max_rss_kb)
        if res.timed_out:
            problem = "timed out"
        elif res.code != 0:
            problem = f"exit {res.code}: {res.stderr.decode(errors='replace')[-300:]}"
        else:
            try:
                problem = ctx.verify(instance, json.loads(res.stdout))
            except json.JSONDecodeError:
                problem = "output is not JSON"
        if problem:
            rnd.failures.append((instance, problem))
        if traced and spans.exists():
            rnd.layers.add(spans, res.wall_s)
    return rnd


def session_round(ctx: Context, order: list, traced: bool) -> Round:
    rnd = Round()
    spans = WORK / "spans.bin"
    spans.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), "session"] + (["--spans", str(spans)] if traced else [])
    try:
        session = Session(cmd, ctx.env, ctx.build.tree, WORK, ctx.timeout())
    except (OSError, EOFError, ValueError) as exc:
        rnd.failures.append(("session", f"did not start: {exc}"))
        return rnd
    ctx.session_backend = session.hello["backend"]
    ok = False
    try:
        for instance in order:
            if ctx.elapsed() > STOP_SENDING_S:
                ctx.incomplete = True
                break
            name, args = workloads.parse_call(instance)
            session.timeout = ctx.timeout()
            ts = time.perf_counter()
            reply = session.call(name, args)
            rnd.walls.append(time.perf_counter() - ts)
            rnd.latencies.append(reply["cpu_s"])
            if "error" in reply:
                problem = reply["error"]
            else:
                problem = ctx.verify(instance, reply["result"])
            if problem:
                rnd.failures.append((instance, problem))
        ok = True
    except (OSError, EOFError, ValueError) as exc:  # timeout, dead child, garbled reply
        rnd.failures.append(("session", str(exc)))
    finally:
        code = session.close(timeout=ctx.timeout() if ok else 0)
    if code != 0:
        rnd.failures.append(("session", f"exit {code}: {session.stderr_text[-300:]}"))
    rnd.max_rss_kb = session.max_rss_kb
    if traced and spans.exists():
        rnd.layers.add(spans)
    return rnd


def measure_setup(ctx: Context):
    """Median CPU time of a fresh interpreter importing qfish and printing
    backend_name(), after one untimed warm-up; and the backends reported."""
    cmd = [sys.executable, "-c", "import qfish; print(qfish.backend_name())"]
    times, backends = [], set()
    for i in range(SETUP_PROBES + 1):
        res = run_child(cmd, ctx.env, ctx.build.tree, WORK, ctx.timeout())
        if res.code != 0:
            raise BuildError("import qfish failed: " + res.stderr.decode(errors="replace")[-500:])
        backends.add(res.stdout.decode().strip())
        if i:
            times.append(res.cpu_s)
    return statistics.median(times), sorted(backends)


def git_rev():
    """HEAD of the checkout when it is itself a git work tree, else None."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark for qfish.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    WORK.mkdir(parents=True, exist_ok=True)
    try:
        build = build_tree(ROOT, WORK)
        ctx = Context(args.workload, build, started)
        setup_s, backends = measure_setup(ctx)
    except (BuildError, OSError, ValueError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    run_round = session_round if workloads.kind(args.workload) == "session" else cli_round
    if args.trace:
        order = workloads.request_rounds(args.workload, args.seed, 1)[0]
        rounds = [run_round(ctx, order, traced=False), run_round(ctx, order, traced=True)]
    else:
        orders = workloads.request_rounds(
            args.workload, args.seed, workloads.rounds_per_run(args.workload, args.seconds))
        rounds = [run_round(ctx, order, traced=False) for order in orders]

    latencies = [x for r in rounds for x in r.latencies]
    failures = [f for r in rounds for f in r.failures]
    attempted = max(1, len(latencies))
    failed = len(failures)
    correct = failed == 0 and not ctx.incomplete
    if ctx.session_backend:
        backends = sorted(set(backends) | {ctx.session_backend})

    detail = {}
    if args.trace:
        untraced, traced = rounds
        values = traced.layers.metrics()
        values["build.build_ext_s"] = build.build_s
        values["trace.overhead_frac"] = traced.run_s / untraced.run_s - 1 if untraced.run_s else 0.0
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
        detail["not_found_in_program"] = sorted(traced.layers.missing)
    else:
        samples = latencies or [0.0]  # only when nothing ran, and then correct is false
        tail_q = tail_percentile(len(samples)) or 100
        values = {
            "setup_s": setup_s,
            "run_s": statistics.median([r.run_s for r in rounds]),
            "req_p50_s": hd_quantile(samples, 0.5),
            "req_tail_s": hd_quantile(samples, tail_q / 100),
            "peak_rss_mb": max(r.max_rss_kb for r in rounds) / 1024,
        }
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
        walls = [x for r in rounds for x in r.walls] or [0.0]
        detail = {
            "setup_s": f"CPU, median of {SETUP_PROBES} fresh imports",
            "run_s": f"CPU, median of {len(rounds)} round(s) of {len(rounds[0].latencies)} requests",
            "req_p50_s": f"CPU, Harrell-Davis, n={len(latencies)}",
            "req_tail_s": f"CPU, p{tail_q} Harrell-Davis, n={len(latencies)}",
            "peak_rss_mb": "max over " + ("sessions" if run_round is session_round else "request processes"),
            "wall": {
                "run_s": statistics.median([sum(r.walls) for r in rounds]),
                "req_p50_s": hd_quantile(walls, 0.5),
                "req_tail_s": hd_quantile(walls, tail_q / 100),
            },
        }

    provenance = {
        "backend": backends,
        "extension_built": build.extension,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_rev": git_rev(),
        "tree_sha256": build.digest,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
    }
    lane = ",".join(backends) + (" (extension built)" if build.extension else " (no extension built)")
    print(f"qfish perfbench  workload={args.workload}  seed={args.seed}  lane={lane}")
    for name, m in metrics.items():
        note = detail.get(name, "")
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<6} {note}")
    print(f"  {'failed_frac':<40} {failed / attempted:>14.6g} {'frac':<6} {failed}/{attempted}")
    for instance, problem in failures:
        print(f"  FAILED {instance}: {problem}")
    if ctx.incomplete:
        print(f"  INCOMPLETE: stopped sending after {STOP_SENDING_S} s")
    print("RECORD " + json.dumps({"provenance": provenance, "detail": detail,
                                  "failed_frac": failed / attempted}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
