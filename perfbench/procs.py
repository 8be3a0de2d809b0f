"""Building the private copy of qfish and running children with their rusage."""

from __future__ import annotations

import hashlib
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# What the private copy is built from; anything else in the checkout is ignored.
TREE_ITEMS = ("src", "setup.py", "pyproject.toml")
# Never copied, so a stale extension or build directory cannot be measured.
IGNORED = shutil.ignore_patterns("*.so", "*.pyd", "__pycache__", "build", "*.egg-info")


class BuildError(RuntimeError):
    pass


@dataclass
class Build:
    tree: Path
    digest: str  # of the copied sources, before building
    build_s: float
    extension: bool


def child_env(tree: Path) -> dict:
    """The parent environment without QFISH_* or PYTHON* variables, with the
    private copy as the only PYTHONPATH entry."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("QFISH_") and not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(tree / "src")
    return env


def build_tree(root: Path, work: Path) -> Build:
    """Copy the checkout's sources to ``work/tree`` and run
    ``setup.py build_ext --inplace`` there, as setup.py describes."""
    missing = [item for item in TREE_ITEMS if not (root / item).exists()]
    if missing:
        raise BuildError(f"checkout at {root} lacks {', '.join(missing)}")
    tree = work / "tree"
    if tree.exists():
        shutil.rmtree(tree)
    tree.mkdir(parents=True)
    for item in TREE_ITEMS:
        src = root / item
        if src.is_dir():
            shutil.copytree(src, tree / item, ignore=IGNORED)
        else:
            shutil.copy2(src, tree / item)
    digest = tree_digest(tree)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=tree, env=child_env(tree), capture_output=True, text=True, timeout=600,
    )
    build_s = time.perf_counter() - t0
    if proc.returncode != 0:
        log = proc.stdout + proc.stderr
        raise BuildError(f"build_ext failed ({proc.returncode}):\n{log[-2000:]}")
    extension = any((tree / "src" / "qfish").glob("_speedups*.so"))
    return Build(tree, digest, build_s, extension)


def tree_digest(tree: Path) -> str:
    """Short sha256 over the relative paths and contents of every file."""
    h = hashlib.sha256()
    for path in sorted(p for p in tree.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


@dataclass
class ChildResult:
    code: int  # exit status; negative for a signal
    wall_s: float
    cpu_s: float  # user + system time of the child and the children it waited for
    max_rss_kb: int
    stdout: bytes
    stderr: bytes
    timed_out: bool


def _reap(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc``, killing it after ``timeout`` seconds; return
    (rusage, timed_out) and set ``proc.returncode``.

    A pidfd makes the wait and the kill race-free; wait4 returns the child's
    own rusage (peak RSS), which Popen.wait discards.
    """
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], timeout)
        timed_out = not ready
        if timed_out:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage, timed_out


def run_child(argv: list, env: dict, cwd: Path, work: Path, timeout: float) -> ChildResult:
    """Run one child to completion, stdout/stderr spooled to files in ``work``."""
    with open(work / "child.out", "w+b") as out, open(work / "child.err", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        usage, timed_out = _reap(proc, timeout)
        wall = time.perf_counter() - t0
        out.seek(0)
        err.seek(0)
        return ChildResult(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                           usage.ru_maxrss, out.read(), err.read(), timed_out)


class Session:
    """A long-lived ``child.py session`` process driven one request at a time."""

    def __init__(self, argv: list, env: dict, cwd: Path, work: Path, timeout: float):
        self.timeout = timeout
        self.err = open(work / "session.err", "w+b")
        self.proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.err)
        self.buf = b""
        self.max_rss_kb = 0
        try:
            self.hello = json.loads(self._readline())
        except BaseException:
            self.close()
            raise

    def _readline(self) -> bytes:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + self.timeout
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError("session child did not answer in time")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise EOFError("session child exited: " + self.stderr()[-500:])
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line

    def call(self, name: str, args: tuple) -> dict:
        self.proc.stdin.write(json.dumps({"call": name, "args": list(args)}).encode() + b"\n")
        self.proc.stdin.flush()
        return json.loads(self._readline())

    def stderr(self) -> str:
        self.err.seek(0)
        return self.err.read().decode(errors="replace")

    def close(self, timeout=None) -> int:
        """Close stdin, wait for the child (killing it after the timeout)."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        usage, _ = _reap(self.proc, self.timeout if timeout is None else timeout)
        self.max_rss_kb = usage.ru_maxrss
        self.stderr_text = self.stderr()
        self.proc.stdout.close()
        self.err.close()
        return self.proc.returncode
