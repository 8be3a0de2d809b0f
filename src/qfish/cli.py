"""Command-line surface.

Subcommands: xi, congruence, dissect, verify, bfile-check.  Every command
emits a deterministic report; with --format json the shape is
{schema, command, params, results, pass, runtime_ms} (runtime_ms is the
only field that varies between identical runs).  Exit status 0 means every
checked claim passed.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time

from . import identities
from .backend import backend_name
from .fishburn import divisibility_check, is_prime, verify_congruence, xi_coefficients
from .oeis import BFileError, check_bfile

SCHEMA = 1

# name -> (checker, window flags, default window at t = 2, at t = 3, at any
# other t).  A checker takes (t, *window); each flag names the option that
# overrides its window slot, None a slot that keeps its default.  The
# checkers look identities' functions up when called, so a wrapper put on
# that module sees the call.
_IDENTITIES = {
    "diff": (lambda *a: identities.verify_difference_equation(*a),
             ("x_bound", "order"), (14, 40), (10, 24), (8, 16)),
    "rewrite2": (lambda *a: identities.verify_rewrite2(*a),
                 ("x_bound", "order"), (12, 30), (8, 20), (6, 12)),
    "key": (lambda *a: identities.verify_key_identity(*a), ("order",), (30,), (20,), (12,)),
    "theta": (lambda *a: identities.verify_theta_product(*a), ("order",), (60,), (60,), (40,)),
    "slater": (lambda t, qo, gen: identities.verify_slater(qo, gen_q_order=min(qo, gen)),
               ("order", None), (40, 30), (40, 30), (24, 16)),
    "root": (lambda *a: identities.verify_root_match(*a), ("n_max",), (8,), (8,), (3,)),
}


def _run_identity(name: str, t: int, order, x_bound, n_max):
    check, flags, at_2, at_3, other = _IDENTITIES[name]
    given = {"order": order, "x_bound": x_bound, "n_max": n_max}
    window = [d if given.get(f) is None else given[f]
              for f, d in zip(flags, {2: at_2, 3: at_3}.get(t, other))]
    return check(t, *window)


def _emit(report: dict, fmt: str, row_fields) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
    elif fmt == "csv":
        import csv  # only here: the other formats skip its import at start-up

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
            print("  ".join(f"{f}={row[f]}" for f in row_fields if f in row))
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


def _int_where(holds, rule: str):
    """An argparse type: an int for which ``holds`` is true, else the usage
    error ``rule``."""
    def parse(text: str) -> int:
        value = int(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(rule)
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _at_least(low: int, flag: str):
    return _int_where(lambda v: v >= low, f"{flag} must be >= {low}")


def _check_t(parser, args) -> None:
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
    knot = argparse.ArgumentParser(add_help=False, parents=[common])  # the commands with --t
    knot.add_argument("--deep", action="store_true", help="allow the heavy t=4 workloads")
    sub = parser.add_subparsers(dest="command", required=True)

    p_xi = sub.add_parser("xi", parents=[knot],
                          help="table of generalized Fishburn numbers")
    p_xi.add_argument("--t", type=_at_least(1, "--t"), required=True)
    p_xi.add_argument("--count", type=_at_least(1, "--count"), required=True)

    p_cong = sub.add_parser("congruence", parents=[knot],
                            help="verify xi_t(p^r m - j) = 0 mod p^r")
    p_cong.add_argument("--t", type=_at_least(1, "--t"), required=True)
    p_cong.add_argument("--p", required=True, type=_int_where(
        lambda v: v >= 5 and is_prime(v), "--p must be a prime >= 5"))
    p_cong.add_argument("--r", type=_at_least(1, "--r"), default=1)
    p_cong.add_argument("--m-max", type=_at_least(1, "--m-max"), default=1)
    p_cong.add_argument("--scan-j", action="store_true",
                        help="also record residues for j beyond the claimed range "
                        "(experimental, no expectation attached)")

    p_dis = sub.add_parser("dissect", parents=[knot],
                           help="dissection divisibility of a partial sum")
    p_dis.add_argument("--t", type=_at_least(1, "--t"), required=True)
    p_dis.add_argument("--s", type=_at_least(2, "--s"), required=True)
    p_dis.add_argument("--n", type=_at_least(0, "--n"), required=True,
                       help="partial-sum index N")

    p_ver = sub.add_parser("verify", parents=[knot], help="identity checks")
    p_ver.add_argument("--identity", required=True, choices=(*_IDENTITIES, "all"))
    p_ver.add_argument("--t", type=_at_least(1, "--t"), default=2)
    for flag in ("--order", "--x-bound", "--n-max"):
        p_ver.add_argument(flag, type=_at_least(1, flag))

    p_bf = sub.add_parser("bfile-check", parents=[common],
                          help="cross-check classical Fishburn numbers against "
                          "a local OEIS b-file (A022493)")
    p_bf.add_argument("--path", required=True)
    p_bf.add_argument("--count", type=_at_least(1, "--count"), required=True)

    args = parser.parse_args(argv)
    started = time.perf_counter()
    if args.command != "bfile-check":
        _check_t(parser, args)

    if args.command == "xi":
        values = xi_coefficients(args.t, args.count)
        results = [{"n": i, "xi": v} for i, v in enumerate(values)]
        params = {"t": args.t, "count": args.count, "sign_convention": "included"}
        return _finish(args, "xi", params, results, True, started, ("n", "xi"))

    if args.command == "congruence":
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
        rep = divisibility_check(args.t, args.s, args.n)
        d = rep.as_dict()
        results = d.pop("entries")
        params = {k: d[k] for k in ("t", "s", "N", "lambda", "s_set")}
        params["sign_convention"] = "included"
        return _finish(args, "dissect", params, results, rep.passed, started,
                       ("i", "divisible", "unit_exp", "quotient_degree", "divisible_to"))

    if args.command == "verify":
        if args.t == 1 and args.identity not in ("root", "slater"):
            parser.error(f"identity {args.identity!r} needs --t >= 2")
        names = list(_IDENTITIES) if args.identity == "all" else [args.identity]
        reports = [_run_identity(n, args.t, args.order, args.x_bound, args.n_max)
                   for n in names]
        results = [r.as_dict() for r in reports]
        passed = all(r.passed for r in reports)
        return _finish(args, "verify",
                       {"identity": args.identity, "t": args.t},
                       results, passed, started, ("identity", "pass"))

    try:  # bfile-check
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


if __name__ == "__main__":
    sys.exit(main())
