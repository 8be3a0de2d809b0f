"""The command-line surface: formats, exit codes, determinism, b-files."""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qfish import cli
from qfish.cli import _IDENTITIES, _run_identity, main
from qfish.fishburn import is_prime
from qfish.series import IntSeries

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"


def run_cli(*args, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "qfish", *args],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.stderr}\n{proc.stdout}")
    return proc


def json_out(proc):
    return json.loads(proc.stdout)


class TestXi:
    def test_table_values(self):
        rep = json_out(run_cli("xi", "--t", "2", "--count", "6", "--format", "json", check=True))
        assert rep["schema"] == 1
        assert rep["params"]["sign_convention"] == "included"
        assert [row["xi"] for row in rep["results"]] == [1, 3, 11, 50, 280, 1890]

    def test_classical(self):
        rep = json_out(run_cli("xi", "--t", "1", "--count", "6", "--format", "json", check=True))
        assert [row["xi"] for row in rep["results"]] == [1, 1, 2, 5, 15, 53]

    def test_count_zero_usage_error(self):
        proc = run_cli("xi", "--t", "2", "--count", "0")
        assert proc.returncode == 2
        assert "count" in proc.stderr

    def test_csv_format(self):
        proc = run_cli("xi", "--t", "1", "--count", "3", "--format", "csv", check=True)
        assert proc.stdout.splitlines() == ["n,xi", "0,1", "1,1", "2,2"]

    def test_deep_gate(self):
        proc = run_cli("xi", "--t", "4", "--count", "2")
        assert proc.returncode == 2 and "--deep" in proc.stderr
        proc = run_cli("xi", "--t", "4", "--count", "2", "--deep", "--format", "json")
        assert proc.returncode == 0
        assert json_out(proc)["results"][0]["xi"] == 1


class TestCongruence:
    def test_pass_report(self):
        proc = run_cli(
            "congruence", "--t", "2", "--p", "5", "--r", "2", "--m-max", "2",
            "--format", "json", check=True,
        )
        rep = json_out(proc)
        assert rep["pass"] is True
        assert rep["params"]["j_range"] == [1]
        assert all(row["residue"] == 0 for row in rep["results"])

    def test_t3_p13(self):
        proc = run_cli(
            "congruence", "--t", "3", "--p", "13", "--m-max", "2",
            "--format", "json", check=True,
        )
        assert json_out(proc)["pass"] is True

    def test_p_must_be_prime(self):
        proc = run_cli("congruence", "--t", "2", "--p", "4")
        assert proc.returncode == 2
        assert "prime" in proc.stderr


class TestVerify:
    def test_single_identity(self):
        proc = run_cli(
            "verify", "--identity", "key", "--t", "2", "--order", "16",
            "--format", "json", check=True,
        )
        rep = json_out(proc)
        assert rep["pass"] is True
        assert rep["results"][0]["identity"] == "key_identity"

    def test_unknown_identity_lists_names(self):
        proc = run_cli("verify", "--identity", "nosuch")
        assert proc.returncode == 2
        for name in ("diff", "rewrite2", "key", "theta", "slater", "root"):
            assert name in proc.stderr

    def test_t1_rejected_for_t2_only_identities(self):
        proc = run_cli("verify", "--identity", "diff", "--t", "1")
        assert proc.returncode == 2 and "--t >= 2" in proc.stderr
        proc = run_cli("verify", "--identity", "root", "--t", "1", "--n-max", "3",
                       "--format", "json")
        assert proc.returncode == 0

    def test_deep_t4_root_match(self):
        proc = run_cli("verify", "--identity", "root", "--t", "4", "--deep",
                       "--n-max", "2", "--format", "json", check=True)
        assert json_out(proc)["pass"] is True

    def test_all_aggregated_and_exit_code(self):
        proc = run_cli(
            "verify", "--identity", "all", "--t", "2", "--order", "12",
            "--x-bound", "6", "--n-max", "2", "--format", "json", check=True,
        )
        rep = json_out(proc)
        assert rep["pass"] is True
        assert len(rep["results"]) == 6

    @pytest.mark.parametrize("flag", ["--order", "--x-bound", "--n-max"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_window_below_one_usage_error(self, flag, value):
        proc = run_cli("verify", "--identity", "all", "--t", "2", flag, value)
        assert proc.returncode == 2
        assert f"{flag} must be >= 1" in proc.stderr
        assert "Traceback" not in proc.stderr

    # a window flag that the one identity asked for does not read is refused,
    # rather than dropped for the default window
    @pytest.mark.parametrize("name,flag", [
        (name, flag) for name, spec in _IDENTITIES.items()
        for flag in ("--order", "--x-bound", "--n-max")
        if flag[2:].replace("-", "_") not in spec[1]])
    def test_window_flag_not_read_usage_error(self, name, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--identity", name, "--t", "2", flag, "5"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"qfish: error: identity {name!r} does not read {flag}")

    def test_given_window_is_never_replaced_by_default(self):
        # a zero window reaches the library, which refuses it, instead of
        # silently running the default window
        with pytest.raises(ValueError):
            _run_identity("rewrite2", 2, 0, None, None)
        with pytest.raises(ValueError):
            _run_identity("diff", 2, None, 0, None)
        with pytest.raises(ValueError):
            _run_identity("root", 2, None, None, 0)
        assert _run_identity("root", 2, None, None, 1).window == {"t": 2, "N_max": 1}
        assert _run_identity("root", 2, None, None, None).window["N_max"] == 8

    # the windows run when no window flag is given, per identity and t
    @pytest.mark.parametrize("name,t,window", [
        ("slater", 1, {"q_order": 24, "gen_q_order": 16}),
        ("root", 1, {"t": 1, "N_max": 3}),
        ("diff", 2, {"t": 2, "x_bound": 14, "q_order": 40}),
        ("rewrite2", 2, {"t": 2, "x_bound": 12, "q_order": 30}),
        ("key", 2, {"t": 2, "q_order": 30}),
        ("theta", 2, {"t": 2, "q_order": 60}),
        ("slater", 2, {"q_order": 40, "gen_q_order": 30}),
        ("root", 2, {"t": 2, "N_max": 8}),
        ("diff", 3, {"t": 3, "x_bound": 10, "q_order": 24}),
        ("rewrite2", 3, {"t": 3, "x_bound": 8, "q_order": 20}),
        ("key", 3, {"t": 3, "q_order": 20}),
        ("theta", 3, {"t": 3, "q_order": 60}),
        ("slater", 3, {"q_order": 40, "gen_q_order": 30}),
        ("root", 3, {"t": 3, "N_max": 8}),
        ("diff", 4, {"t": 4, "x_bound": 8, "q_order": 16}),
        ("rewrite2", 4, {"t": 4, "x_bound": 6, "q_order": 12}),
        ("key", 4, {"t": 4, "q_order": 12}),
        ("theta", 4, {"t": 4, "q_order": 40}),
        ("slater", 4, {"q_order": 24, "gen_q_order": 16}),
        ("root", 4, {"t": 4, "N_max": 3}),
    ])
    def test_default_window(self, name, t, window):
        rep = _run_identity(name, t, None, None, None)
        assert rep.window == window and rep.passed

    def test_slater_generating_side_capped_by_order(self):
        assert _run_identity("slater", 2, 20, None, None).window == {
            "q_order": 20, "gen_q_order": 20}


class TestDissect:
    def test_report(self):
        proc = run_cli(
            "dissect", "--t", "2", "--s", "5", "--n", "9", "--format", "json",
            check=True,
        )
        rep = json_out(proc)
        assert rep["pass"] is True
        assert rep["params"]["lambda"] == 2
        assert [row["i"] for row in rep["results"]] == [1, 4]

    @pytest.mark.parametrize("fmt,bad,good", [
        ("csv", "1,False,1,,0", "4,True,0,15,"),
        ("text", "i=1  divisible=False  unit_exp=1  divisible_to=0",
         "i=4  divisible=True  unit_exp=0  quotient_degree=15"),
    ], ids=["csv", "text"])
    def test_failing_entry_keeps_divisible_to(self, monkeypatch, capsys, fmt, bad, good):
        # + q^1 lands on piece 1 as a constant, which 1 - q does not divide
        import qfish.fishburn as fishburn_mod

        real = fishburn_mod.kz_full_polynomial
        monkeypatch.setattr(fishburn_mod, "kz_full_polynomial",
                            lambda p, n: real(p, n) + IntSeries.monomial(1))
        assert main(["dissect", "--t", "2", "--s", "5", "--n", "9", "--format", fmt]) == 1
        lines = capsys.readouterr().out.splitlines()
        if fmt == "csv":
            assert lines[0] == "i,divisible,unit_exp,quotient_degree,divisible_to"
        assert bad in lines and good in lines

    def test_negative_n_usage_error(self):
        proc = run_cli("dissect", "--t", "2", "--s", "5", "--n", "-1")
        assert proc.returncode == 2
        assert "--n must be >= 0" in proc.stderr


class TestBFile:
    def test_known_prefix_passes(self):
        proc = run_cli(
            "bfile-check", "--path", str(DATA / "b022493_sample.txt"),
            "--count", "10", "--format", "json", check=True,
        )
        assert json_out(proc)["pass"] is True

    def test_no_deep_flag(self, capsys):
        # --deep gates the t >= 4 workloads, and bfile-check takes no t
        with pytest.raises(SystemExit) as exc:
            main(["bfile-check", "--help"])
        assert exc.value.code == 0
        assert "--deep" not in capsys.readouterr().out
        proc = run_cli("bfile-check", "--deep", "--path", str(DATA / "b022493_sample.txt"),
                       "--count", "10")
        assert proc.returncode == 2
        assert "unrecognized arguments: --deep" in proc.stderr

    def test_corrupted_entry_fails_at_index(self, tmp_path):
        lines = (DATA / "b022493_sample.txt").read_text().splitlines()
        lines[7] = "5 54"  # flip xi(5)
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        proc = run_cli("bfile-check", "--path", str(bad), "--count", "10",
                       "--format", "json")
        assert proc.returncode == 1
        rep = json_out(proc)
        assert rep["pass"] is False
        assert rep["params"]["first_mismatch"] == 5

    def test_count_beyond_file(self):
        proc = run_cli(
            "bfile-check", "--path", str(DATA / "b022493_sample.txt"), "--count", "40",
        )
        assert proc.returncode == 1
        assert "insufficient" in proc.stderr

    def test_malformed_line_reports_lineno(self, tmp_path):
        bad = tmp_path / "mangled.txt"
        bad.write_text("0 1\n1 one\n")
        proc = run_cli("bfile-check", "--path", str(bad), "--count", "2")
        assert proc.returncode == 1
        assert "line 2" in proc.stderr

    def test_nonascending_indices_rejected(self, tmp_path):
        bad = tmp_path / "order.txt"
        bad.write_text("0 1\n2 2\n1 1\n")
        proc = run_cli("bfile-check", "--path", str(bad), "--count", "2")
        assert proc.returncode == 1
        assert "ascending" in proc.stderr

    def test_missing_file(self):
        proc = run_cli("bfile-check", "--path", "/nonexistent/x.txt", "--count", "2")
        assert proc.returncode == 1
        assert "cannot read" in proc.stderr

    def test_directory_path(self, tmp_path):
        proc = run_cli("bfile-check", "--path", str(tmp_path), "--count", "3")
        assert proc.returncode == 1
        assert "cannot read b-file" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_random_bytes(self, tmp_path):
        data = random.Random(10).randbytes(100)
        with pytest.raises(UnicodeDecodeError):
            data.decode("utf-8")
        bad = tmp_path / "noise.bin"
        bad.write_bytes(data)
        proc = run_cli("bfile-check", "--path", str(bad), "--count", "3")
        assert proc.returncode == 1
        assert "cannot read b-file" in proc.stderr
        assert "Traceback" not in proc.stderr


# A rule on one flag is that flag's converter: the subcommand reports it
# against the flag, with exit status 2 and no traceback.
FLAG_BOUND_ERRORS = [
    (("xi", "--t", "0", "--count", "3"), "xi: error: argument --t: --t must be >= 1"),
    (("congruence", "--t", "0", "--p", "5"),
     "congruence: error: argument --t: --t must be >= 1"),
    (("dissect", "--t", "0", "--s", "5", "--n", "3"),
     "dissect: error: argument --t: --t must be >= 1"),
    (("verify", "--identity", "root", "--t", "0"),
     "verify: error: argument --t: --t must be >= 1"),
    (("congruence", "--t", "2", "--p", "5", "--r", "0"),
     "congruence: error: argument --r: --r must be >= 1"),
    (("congruence", "--t", "2", "--p", "5", "--m-max", "0"),
     "congruence: error: argument --m-max: --m-max must be >= 1"),
    (("congruence", "--t", "2", "--p", "9"),
     "congruence: error: argument --p: --p must be a prime >= 5"),
    (("dissect", "--t", "2", "--s", "1", "--n", "3"),
     "dissect: error: argument --s: --s must be >= 2"),
    (("bfile-check", "--path", "b.txt", "--count", "0"),
     "bfile-check: error: argument --count: --count must be >= 1"),
    (("verify", "--identity", "all", "--t", "x"),
     "verify: error: argument --t: invalid int value: 'x'"),
]


@pytest.mark.parametrize("args,message", FLAG_BOUND_ERRORS, ids=[
    "xi-t", "congruence-t", "dissect-t", "verify-t", "r", "m-max", "p", "s", "bfile-count",
    "t-not-int"])
def test_flag_bound_usage_error(args, message):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert f"qfish {message}" in proc.stderr
    assert "Traceback" not in proc.stderr


# The argparse parser that read the flags before the command table, kept
# verbatim as the oracle of cli.parse_args.
def _oracle_int_where(holds, rule: str):
    """An argparse type: an int for which ``holds`` is true, else the usage
    error ``rule``."""
    def parse(text: str) -> int:
        value = int(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(rule)
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _oracle_at_least(low: int, flag: str):
    return _oracle_int_where(lambda v: v >= low, f"{flag} must be >= {low}")


def oracle_parser():
    _int_where, _at_least = _oracle_int_where, _oracle_at_least
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
    return parser


def _readme_argvs():
    """The qfish lines of the README's CLI block, as CI runs them."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("## CLI")
    fences = [i for i in range(start, len(lines)) if lines[i].startswith("```")]
    return [line.split("#")[0].split()[1:] for line in lines[fences[0] + 1:fences[1]]]


def _menu_argvs():
    """Every CLI request of the perfbench menus, as the harness sends it."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [instance.split() + ["--format", "json"]
            for kind, _, menu in workloads.WORKLOADS.values() if kind == "cli"
            for instance in menu]


DIFFERENTIAL = [
    *_menu_argvs(),
    *_readme_argvs(),
    # the = and unique-prefix forms
    ["xi", "--t=2", "--count=35", "--format=json"],
    ["xi", "--cou", "3", "--t", "2", "--form", "csv"],
    ["congruence", "--t", "2", "--p=5", "--m", "2", "--sc", "--de", "--t", "3"],
    ["congruence", "--t", "1", "--p", "7", "--r=2", "--m-max=3", "--scan-j"],
    ["dissect", "--t", "2", "--s", "5", "--n=9", "--f=text"],
    ["verify", "--iden=key", "--ord", "30"],
    ["verify", "--identity", "root", "--t", "4", "--deep", "--n-m=3"],
    ["verify", "--identity", "all", "--x-b", "6", "--order", "12", "--n-max", "2"],
    ["bfile-check", "--pa=b.txt", "--c", "3"],
    ["bfile-check", "--path", "-", "--count", "3"],
    # the argv of test_flag_bound_usage_error
    *([*args] for args, _ in FLAG_BOUND_ERRORS),
    # more usage errors
    [], ["nosuch"], ["--t", "2", "xi"],
    ["xi", "--t", "2"],
    ["verify", "--t", "2"],
    ["bfile-check", "--count", "3"],
    ["xi", "--t", "2", "--count", "3", "--bogus"],
    ["xi", "--t", "2", "--bogus", "4", "--count", "3"],
    ["--bogus", "xi", "--t", "2", "--count", "3"],
    ["xi", "--t", "2", "--count", "3", "extra"],
    ["xi", "--t", "2", "--count", "3", "-5"],
    ["xi", "--t", "--count", "3"],
    ["xi", "--count", "3", "--t"],
    ["xi", "--t", "-x", "--count", "3"],
    ["dissect", "--t", "2", "--s", "5", "--n", "-1"],
    ["verify", "--identity", "key", "--order=-3"],
    ["verify", "--identity", "nosuch"],
    ["xi", "--t", "2", "--count", "3", "--format", "yaml"],
    ["xi", "--t", "2", "--t", "3", "--count", "3"],
    ["xi", "--t=", "--count", "3"],
    ["xi", "--t", "2", "--count", "3", "--deep=yes"],
    ["xi", "--t", "0", "--count", "0"],
    ["bfile-check", "--deep", "--path", "b.txt", "--count", "10"],
    # help, at the top level and per command
    ["-h"], ["--help"], ["--he", "xi"], ["xi", "-h"], ["verify", "--t", "2", "--he"],
]


def _outcome(parse, argv):
    """(0, the parsed flags) for a valid argv, else (exit status, the last
    line of stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            return 0, parse(argv)
        except SystemExit as exc:
            return exc.code, (err.getvalue().splitlines() or [""])[-1]


@pytest.mark.parametrize("argv", DIFFERENTIAL, ids=" ".join)
def test_parse_matches_argparse_oracle(argv):
    want = _outcome(lambda a: vars(oracle_parser().parse_args(a)), argv)
    assert _outcome(cli.parse_args, argv) == want
    assert want[0] in (0, 2)


@pytest.mark.parametrize("command", ["xi", "congruence", "dissect", "verify", "bfile-check"])
def test_subcommand_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert f"usage: qfish {command}" in capsys.readouterr().out


def test_closed_pipe_exits_without_traceback():
    # the read end is closed before the child starts, so its first write to
    # stdout meets a closed pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qfish", "verify", "--identity", "slater", "--t", "2",
             "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


class TestDeterminism:
    def test_repeat_runs_byte_identical_modulo_runtime(self):
        args = ("congruence", "--t", "2", "--p", "5", "--m-max", "2", "--format", "json")
        a = run_cli(*args, check=True).stdout
        b = run_cli(*args, check=True).stdout
        strip = lambda s: re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', s)
        assert strip(a) == strip(b)

    def test_text_format_mentions_backend(self):
        proc = run_cli("xi", "--t", "1", "--count", "2", check=True)
        assert "kernels" in proc.stdout
