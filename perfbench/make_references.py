#!/usr/bin/env python3
"""Regenerate the stored reference reports from the checkout's qfish.

    python3 perfbench/make_references.py [workload ...]

Runs every distinct menu instance once (CLI instances as fresh processes,
session instances in one session) and writes references/<workload>.json with
each report in canonical form.  References define correctness for every later
benchmark run, so regenerate them only from a commit whose outputs are known
to be right, and say so in the change that updates them.
"""

from __future__ import annotations

import json
import sys
import time

import workloads
from procs import Session, build_tree, child_env, run_child
from run import CHILD, HERE, ROOT, WORK, git_rev
from stats import canonical

TIMEOUT_S = 900


def cli_reports(instances, env, tree) -> dict:
    out = {}
    for instance in instances:
        res = run_child([sys.executable, "-m", "qfish", *instance.split(), "--format", "json"],
                        env, tree, WORK, TIMEOUT_S)
        if res.code != 0:
            raise SystemExit(f"{instance}: exit {res.code}\n{res.stderr.decode()[-1000:]}")
        out[instance] = json.loads(canonical(json.loads(res.stdout)))
        print(f"{res.wall_s:8.3f} s  {instance}", flush=True)
    return out


def session_reports(instances, env, tree) -> dict:
    out = {}
    session = Session([sys.executable, str(CHILD), "session"], env, tree, WORK, TIMEOUT_S)
    try:
        for instance in instances:
            t0 = time.perf_counter()
            reply = session.call(*workloads.parse_call(instance))
            if "error" in reply:
                raise SystemExit(f"{instance}: {reply['error']}")
            out.setdefault(instance, json.loads(canonical(reply["result"])))
            print(f"{time.perf_counter() - t0:8.3f} s  {instance}", flush=True)
    finally:
        session.close()
    return out


def main() -> int:
    names = sys.argv[1:] or sorted(workloads.WORKLOADS)
    WORK.mkdir(parents=True, exist_ok=True)
    build = build_tree(ROOT, WORK)
    env = child_env(build.tree)
    source = {"git_rev": git_rev(), "tree_sha256": build.digest,
              "extension_built": build.extension}
    for name in names:
        instances = workloads.menu(name)
        t0 = time.perf_counter()
        if workloads.kind(name) == "session":
            reports = session_reports(instances, env, build.tree)
        else:
            reports = cli_reports(list(dict.fromkeys(instances)), env, build.tree)
        print(f"{name}: {len(reports)} references, one round {time.perf_counter() - t0:.1f} s")
        path = HERE / "references" / f"{name}.json"
        path.write_text(json.dumps({"source": source, "reports": reports},
                                   indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
