"""Command-line surface.

Subcommands: xi, congruence, dissect, verify, bfile-check.  Every command
emits a deterministic report; with --format json the shape is
{schema, command, params, results, pass, runtime_ms} (runtime_ms is the
only field that varies between identical runs).  Exit status 0 means every
checked claim passed, and a usage error exits 2.

One table, ``_COMMANDS``, holds every flag, and one loop reads them with
argparse's rules and messages: ``--flag value``, ``--flag=value``, a unique
prefix of a flag, and -h/--help.  argparse itself is not imported, since
it and gettext cost more start-up than most requests' compute.
"""

from __future__ import annotations

import io
import sys
import time

from . import identities
from .backend import backend_name
from .fishburn import divisibility_check, is_prime, verify_congruence, xi_coefficients

SCHEMA = 1
_DESCRIPTION = ("Exact computations around the Kontsevich-Zagier series for torus "
                "knots T(3, 2^t) and generalized Fishburn numbers.")

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
_WINDOW_FLAGS = ("order", "x_bound", "n_max")


def _run_identity(name: str, t: int, order, x_bound, n_max):
    check, flags, at_2, at_3, other = _IDENTITIES[name]
    given = {"order": order, "x_bound": x_bound, "n_max": n_max}
    window = [d if given.get(f) is None else given[f]
              for f, d in zip(flags, {2: at_2, 3: at_3}.get(t, other))]
    return check(t, *window)


def _int_where(holds, rule: str):
    """A flag converter: the int that the text spells, if ``holds`` is true
    of it; else ValueError with ``rule``, the message the usage error shows."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"invalid int value: {text!r}") from None
        if not holds(value):
            raise ValueError(rule)
        return value

    return parse


def _at_least(low: int, flag: str):
    return _int_where(lambda v: v >= low, f"{flag} must be >= {low}")


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


_REQUIRED = object()
_HELP = ("-h", "--help")

# A flag is (name, converter, default, help line).  The converter is a
# function of the text, a tuple of the words the flag takes, or None for a
# switch, whose default is False.  A flag whose default is _REQUIRED must be
# given.  A command's flags are listed in the order that its usage line and
# the "required" message show them, which is argparse's order.
_FORMAT = ("--format", ("json", "csv", "text"), "text", None)
_DEEP = ("--deep", None, False, "allow the heavy t=4 workloads")
_T = ("--t", _at_least(1, "--t"), _REQUIRED, None)
_COMMANDS = {
    "xi": ("table of generalized Fishburn numbers", (
        _FORMAT, _DEEP, _T,
        ("--count", _at_least(1, "--count"), _REQUIRED, None),
    )),
    "congruence": ("verify xi_t(p^r m - j) = 0 mod p^r", (
        _FORMAT, _DEEP, _T,
        ("--p", _int_where(lambda v: v >= 5 and is_prime(v), "--p must be a prime >= 5"),
         _REQUIRED, None),
        ("--r", _at_least(1, "--r"), 1, None),
        ("--m-max", _at_least(1, "--m-max"), 1, None),
        ("--scan-j", None, False, "also record residues for j beyond the claimed range "
         "(experimental, no expectation attached)"),
    )),
    "dissect": ("dissection divisibility of a partial sum", (
        _FORMAT, _DEEP, _T,
        ("--s", _at_least(2, "--s"), _REQUIRED, None),
        ("--n", _at_least(0, "--n"), _REQUIRED, "partial-sum index N"),
    )),
    "verify": ("identity checks", (
        _FORMAT, _DEEP,
        ("--identity", (*_IDENTITIES, "all"), _REQUIRED, None),
        ("--t", _at_least(1, "--t"), 2, None),
        *((flag, _at_least(1, flag), None, "window of " + ", ".join(
            name for name, spec in _IDENTITIES.items() if _dest(flag) in spec[1]))
          for flag in ("--order", "--x-bound", "--n-max")),
    )),
    "bfile-check": ("cross-check classical Fishburn numbers against a local OEIS "
                    "b-file (A022493)", (
        _FORMAT,
        ("--path", str, _REQUIRED, None),
        ("--count", _at_least(1, "--count"), _REQUIRED, None),
    )),
}


def _words(words) -> str:
    return ", ".join(map(repr, words))


def _spelled(flag: str, convert) -> str:
    if convert is None:
        return flag
    if isinstance(convert, tuple):
        return f"{flag} {{{','.join(convert)}}}"
    return f"{flag} {_dest(flag).upper()}"


def _usage(command) -> str:
    if command is None:
        return f"usage: qfish [-h] {{{','.join(_COMMANDS)}}} ..."
    parts = [_spelled(flag, convert) if default is _REQUIRED else f"[{_spelled(flag, convert)}]"
             for flag, convert, default, _ in _COMMANDS[command][1]]
    return f"usage: qfish {command} [-h] " + " ".join(parts)


def _help(command) -> str:
    if command is None:
        rows = [(name, line) for name, (line, _) in _COMMANDS.items()]
        head = [_DESCRIPTION, "", "commands (qfish <command> --help lists its flags):"]
    else:
        line, flags = _COMMANDS[command]
        rows = [("-h, --help", "show this help message and exit")]
        rows += [(_spelled(flag, convert), text or "") for flag, convert, _, text in flags]
        head = [line, "", "options:"]
    body = [f"  {name:<22}  {text}".rstrip() for name, text in rows]
    return "\n".join([_usage(command), "", *head, *body])


def _fail(command, message: str):
    """A usage error: the usage line and ``qfish[ <command>]: error:
    <message>`` on stderr, then exit status 2."""
    prog = "qfish" if command is None else f"qfish {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _option(arg: str, names):
    """How argparse reads ``arg`` among the flags ``names``: None for a
    value, (None, None) for an unknown option, else (flag, the text after
    '=' or None).  A prefix of two flags raises ValueError."""
    if arg in names:
        return arg, None
    if len(arg) < 2 or arg[0] != "-" or arg == "--":
        return None
    name, eq, text = arg.partition("=")
    if eq and name in names:
        return name, text
    if arg[1] == "-":
        matches = [flag for flag in names if flag.startswith(name)]
        if len(matches) > 1:
            raise ValueError(f"ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return matches[0], text if eq else None
    head, dot, tail = arg[1:].partition(".")
    if (tail.isdecimal() and (not head or head.isdecimal())) if dot else head.isdecimal():
        return None  # a negative number is a value
    return None if " " in arg else (None, None)


def _switch(command, flag: str, text) -> None:
    if text is not None:
        name = "/".join(_HELP) if flag in _HELP else flag
        _fail(command, f"argument {name}: ignored explicit argument {text!r}")
    if flag in _HELP:
        print(_help(command))
        raise SystemExit(0)


def _parse_command(command: str, argv) -> tuple:
    """The flags of ``command`` read from ``argv``: a dict with one entry
    per flag, keyed as the flag without its dashes and with - as _, and
    the arguments no flag took."""
    flags = {spec[0]: spec for spec in _COMMANDS[command][1]}
    try:
        options = [_option(arg, (*_HELP, *flags)) for arg in argv]
    except ValueError as exc:
        _fail(command, str(exc))
    values = {_dest(flag): default for flag, _, default, _ in flags.values()
              if default is not _REQUIRED}
    extras = []
    i = 0
    while i < len(argv):
        option = options[i]
        i += 1
        if option is None or option[0] is None:
            extras.append(argv[i - 1])
            continue
        flag, text = option
        convert = None if flag in _HELP else flags[flag][1]
        if convert is None:
            _switch(command, flag, text)
            values[_dest(flag)] = True
            continue
        if text is None:
            if i == len(argv) or options[i] is not None:
                _fail(command, f"argument {flag}: expected one argument")
            text = argv[i]
            i += 1
        try:
            if isinstance(convert, tuple):
                if text not in convert:
                    raise ValueError(f"invalid choice: {text!r} (choose from {_words(convert)})")
                values[_dest(flag)] = text
            else:
                values[_dest(flag)] = convert(text)
        except ValueError as exc:
            _fail(command, f"argument {flag}: {exc}")
    missing = [flag for flag in flags if _dest(flag) not in values]  # no default: required
    if missing:
        _fail(command, "the following arguments are required: " + ", ".join(missing))
    return values, extras


def parse_args(argv) -> dict:
    """The request in ``argv`` as a dict: ``command`` and one entry per flag
    of that command.  A usage error exits 2 and --help exits 0, each with
    argparse's wording; arguments no flag takes are reported last, by the
    top level, as ``unrecognized arguments``."""
    extras = []
    for i, arg in enumerate(argv):
        option = _option(arg, _HELP)
        if option is None:
            break
        if option[0] is None:
            extras.append(arg)
        else:
            _switch(None, *option)
    else:
        _fail(None, "the following arguments are required: command")
    command = argv[i]
    if command not in _COMMANDS:
        _fail(None, f"argument command: invalid choice: {command!r} "
              f"(choose from {_words(_COMMANDS)})")
    values, more = _parse_command(command, argv[i + 1:])
    if extras or more:
        _fail(None, "unrecognized arguments: " + " ".join(extras + more))
    return {"command": command, **values}


def _emit(report: dict, fmt: str, row_fields) -> None:
    if fmt == "json":
        import json  # only here: the other formats skip its import at start-up

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


def _finish(args: dict, params: dict, results: list, passed: bool,
            started: float, row_fields) -> int:
    report = {
        "schema": SCHEMA,
        "command": args["command"],
        "params": params,
        "results": results,
        "pass": passed,
        "runtime_ms": int((time.perf_counter() - started) * 1000),
    }
    _emit(report, args["format"], row_fields)
    return 0 if passed else 1


def _check_rules(args: dict) -> None:
    """The rules on two flags at once, reported by the top level."""
    if args["command"] == "bfile-check":
        return
    t = args["t"]
    if t >= 4 and not args["deep"]:
        _fail(None, "t >= 4 workloads are gated behind --deep")
    if t > 4:
        _fail(None, "t > 4 is not supported")
    if args["command"] != "verify":
        return
    name = args["identity"]
    if t == 1 and name not in ("root", "slater"):
        _fail(None, f"identity {name!r} needs --t >= 2")
    if name != "all":
        for flag in _WINDOW_FLAGS:
            if args[flag] is not None and flag not in _IDENTITIES[name][1]:
                _fail(None, f"identity {name!r} does not read --{flag.replace('_', '-')}")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    started = time.perf_counter()
    _check_rules(args)
    command = args["command"]

    if command == "xi":
        t, count = args["t"], args["count"]
        results = [{"n": i, "xi": v} for i, v in enumerate(xi_coefficients(t, count))]
        params = {"t": t, "count": count, "sign_convention": "included"}
        return _finish(args, params, results, True, started, ("n", "xi"))

    if command == "congruence":
        rep = verify_congruence(args["t"], args["p"], args["r"], args["m_max"],
                                scan_all_j=args["scan_j"])
        d = rep.as_dict()
        results = d.pop("entries")
        results += d.pop("scanned_extra_j", [])
        params = {k: d[k] for k in ("t", "p", "r", "m_max", "j_range", "vacuous")}
        params["sign_convention"] = "included"
        return _finish(args, params, results, rep.passed, started,
                       ("m", "j", "index", "xi", "residue"))

    if command == "dissect":
        rep = divisibility_check(args["t"], args["s"], args["n"])
        d = rep.as_dict()
        results = d.pop("entries")
        params = {k: d[k] for k in ("t", "s", "N", "lambda", "s_set")}
        params["sign_convention"] = "included"
        return _finish(args, params, results, rep.passed, started,
                       ("i", "divisible", "unit_exp", "quotient_degree", "divisible_to"))

    if command == "verify":
        name = args["identity"]
        names = list(_IDENTITIES) if name == "all" else [name]
        reports = [_run_identity(n, args["t"], *(args[f] for f in _WINDOW_FLAGS))
                   for n in names]
        return _finish(args, {"identity": name, "t": args["t"]},
                       [r.as_dict() for r in reports], all(r.passed for r in reports),
                       started, ("identity", "pass"))

    from .oeis import BFileError, check_bfile  # only here: no other command reads b-files

    try:
        rep = check_bfile(args["path"], args["count"])
    except OSError as exc:
        print(f"error: cannot read b-file: {exc}", file=sys.stderr)
        return 1
    except BFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    params = {"path": args["path"], "count": args["count"]}
    if "first_mismatch" in rep:
        params["first_mismatch"] = rep["first_mismatch"]
    return _finish(args, params, rep["results"], rep["pass"],
                   started, ("n", "engine", "file", "match"))


if __name__ == "__main__":
    sys.exit(main())
