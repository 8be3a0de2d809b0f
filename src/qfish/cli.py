"""Command-line surface.

Subcommands: xi, congruence, dissect, verify, bfile-check.  Every command
emits a deterministic report; with --format json the shape is
{schema, command, params, results, pass, runtime_ms} (runtime_ms is the
only field that varies between identical runs).  Exit status 0 means every
checked claim passed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from . import identities
from .backend import backend_name
from .fishburn import divisibility_check, is_prime, verify_congruence, xi_coefficients
from .oeis import BFileError, check_bfile

SCHEMA = 1

# (q_order or (x_bound, q_order) or n_max) defaults per identity and t
_WINDOWS = {
    ("diff", 2): (14, 40),
    ("diff", 3): (10, 24),
    ("rewrite2", 2): (12, 30),
    ("rewrite2", 3): (8, 20),
    ("key", 2): 30,
    ("key", 3): 20,
    ("theta", 2): 60,
    ("theta", 3): 60,
    ("slater", 2): (40, 30),
    ("slater", 3): (40, 30),
    ("root", 2): 8,
    ("root", 3): 8,
}
_FALLBACK = {"diff": (8, 16), "rewrite2": (6, 12), "key": 12, "theta": 40,
             "slater": (24, 16), "root": 3}

IDENTITY_NAMES = ("diff", "rewrite2", "key", "theta", "slater", "root")


def _or_default(value, default):
    return default if value is None else value


def _run_identity(name: str, t: int, order, x_bound, n_max):
    default = _WINDOWS.get((name, t), _FALLBACK[name])
    if name == "diff":
        xb, qo = default
        return identities.verify_difference_equation(
            t, _or_default(x_bound, xb), _or_default(order, qo)
        )
    if name == "rewrite2":
        xb, qo = default
        return identities.verify_rewrite2(t, _or_default(x_bound, xb), _or_default(order, qo))
    if name == "key":
        return identities.verify_key_identity(t, _or_default(order, default))
    if name == "theta":
        return identities.verify_theta_product(t, _or_default(order, default))
    if name == "slater":
        qo, gen = default
        qo = _or_default(order, qo)
        return identities.verify_slater(qo, gen_q_order=min(qo, gen))
    if name == "root":
        return identities.verify_root_match(t, _or_default(n_max, default))
    raise ValueError(name)


def _emit(report: dict, fmt: str, row_fields) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(row_fields)
        for row in report["results"]:
            writer.writerow([row.get(f, "") for f in row_fields])
        sys.stdout.write(buf.getvalue())
    else:
        print(f"# qfish {report['command']} ({backend_name()} kernels)")
        for k, v in report["params"].items():
            print(f"#   {k} = {v}")
        for row in report["results"]:
            print("  ".join(f"{f}={row.get(f, '')}" for f in row_fields))
        print(f"pass: {report['pass']}")


def _finish(args, command: str, params: dict, results: list, passed: bool,
            started: float, row_fields) -> int:
    report = {
        "schema": SCHEMA,
        "command": command,
        "params": params,
        "results": results,
        "pass": passed,
        "runtime_ms": int((time.perf_counter() - started) * 1000),
    }
    _emit(report, args.format, row_fields)
    return 0 if passed else 1


def _check_t(parser, args) -> None:
    if args.t < 1:
        parser.error("--t must be >= 1")
    if args.t >= 4 and not args.deep:
        parser.error("t >= 4 workloads are gated behind --deep")
    if args.t > 4:
        parser.error("t > 4 is not supported")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qfish",
        description="Exact computations around the Kontsevich-Zagier series "
        "for torus knots T(3, 2^t) and generalized Fishburn numbers.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default="text")
    common.add_argument("--deep", action="store_true",
                        help="allow the heavy t=4 workloads")
    sub = parser.add_subparsers(dest="command", required=True)

    p_xi = sub.add_parser("xi", parents=[common],
                          help="table of generalized Fishburn numbers")
    p_xi.add_argument("--t", type=int, required=True)
    p_xi.add_argument("--count", type=int, required=True)

    p_cong = sub.add_parser("congruence", parents=[common],
                            help="verify xi_t(p^r m - j) = 0 mod p^r")
    p_cong.add_argument("--t", type=int, required=True)
    p_cong.add_argument("--p", type=int, required=True)
    p_cong.add_argument("--r", type=int, default=1)
    p_cong.add_argument("--m-max", type=int, default=1)
    p_cong.add_argument("--scan-j", action="store_true",
                        help="also record residues for j beyond the claimed range "
                        "(experimental, no expectation attached)")

    p_dis = sub.add_parser("dissect", parents=[common],
                           help="dissection divisibility of a partial sum")
    p_dis.add_argument("--t", type=int, required=True)
    p_dis.add_argument("--s", type=int, required=True)
    p_dis.add_argument("--n", type=int, required=True, help="partial-sum index N")

    p_ver = sub.add_parser("verify", parents=[common], help="identity checks")
    p_ver.add_argument("--identity", required=True,
                       help="one of %s or 'all'" % (", ".join(IDENTITY_NAMES)))
    p_ver.add_argument("--t", type=int, default=2)
    p_ver.add_argument("--order", type=int, default=None)
    p_ver.add_argument("--x-bound", type=int, default=None)
    p_ver.add_argument("--n-max", type=int, default=None)

    p_bf = sub.add_parser("bfile-check", parents=[common],
                          help="cross-check classical Fishburn numbers against "
                          "a local OEIS b-file (A022493)")
    p_bf.add_argument("--path", required=True)
    p_bf.add_argument("--count", type=int, required=True)

    args = parser.parse_args(argv)
    started = time.perf_counter()

    if args.command == "xi":
        _check_t(parser, args)
        if args.count < 1:
            parser.error("--count must be >= 1")
        values = xi_coefficients(args.t, args.count)
        results = [{"n": i, "xi": v} for i, v in enumerate(values)]
        params = {"t": args.t, "count": args.count, "sign_convention": "included"}
        return _finish(args, "xi", params, results, True, started, ("n", "xi"))

    if args.command == "congruence":
        _check_t(parser, args)
        if not is_prime(args.p) or args.p < 5:
            parser.error("--p must be a prime >= 5")
        if args.r < 1 or args.m_max < 1:
            parser.error("--r and --m-max must be >= 1")
        rep = verify_congruence(args.t, args.p, args.r, args.m_max,
                                scan_all_j=args.scan_j)
        d = rep.as_dict()
        results = d.pop("entries")
        results += d.pop("scanned_extra_j", [])
        params = {k: d[k] for k in ("t", "p", "r", "m_max", "j_range", "vacuous")}
        params["sign_convention"] = "included"
        return _finish(args, "congruence", params, results, rep.passed, started,
                       ("m", "j", "index", "xi", "residue"))

    if args.command == "dissect":
        _check_t(parser, args)
        if args.s < 2:
            parser.error("--s must be >= 2")
        if args.n < 0:
            parser.error("--n must be >= 0")
        rep = divisibility_check(args.t, args.s, args.n)
        d = rep.as_dict()
        results = d.pop("entries")
        params = {k: d[k] for k in ("t", "s", "N", "lambda", "s_set")}
        params["sign_convention"] = "included"
        return _finish(args, "dissect", params, results, rep.passed, started,
                       ("i", "divisible", "unit_exp", "quotient_degree"))

    if args.command == "verify":
        _check_t(parser, args)
        if args.identity != "all" and args.identity not in IDENTITY_NAMES:
            parser.error(
                f"unknown identity {args.identity!r}; valid names: "
                + ", ".join(IDENTITY_NAMES) + ", all"
            )
        if args.t == 1 and args.identity not in ("root", "slater"):
            parser.error(f"identity {args.identity!r} needs --t >= 2")
        for flag, value in (("--order", args.order), ("--x-bound", args.x_bound),
                            ("--n-max", args.n_max)):
            if value is not None and value < 1:
                parser.error(f"{flag} must be >= 1")
        names = list(IDENTITY_NAMES) if args.identity == "all" else [args.identity]
        reports = [_run_identity(n, args.t, args.order, args.x_bound, args.n_max)
                   for n in names]
        results = [r.as_dict() for r in reports]
        passed = all(r.passed for r in reports)
        return _finish(args, "verify",
                       {"identity": args.identity, "t": args.t},
                       results, passed, started, ("identity", "pass"))

    if args.command == "bfile-check":
        if args.count < 1:
            parser.error("--count must be >= 1")
        try:
            rep = check_bfile(args.path, args.count)
        except OSError as exc:
            print(f"error: cannot read b-file: {exc}", file=sys.stderr)
            return 1
        except BFileError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        params = {"path": str(args.path), "count": args.count}
        if "first_mismatch" in rep:
            params["first_mismatch"] = rep["first_mismatch"]
        return _finish(args, "bfile-check", params, rep["results"], rep["pass"],
                       started, ("n", "engine", "file", "match"))

    parser.error("no command")
    return 2


if __name__ == "__main__":
    sys.exit(main())
