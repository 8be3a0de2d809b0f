"""OEIS b-file ingestion and cross-checks.

A b-file is plain text: optional '#' comment lines, then data lines
"n value" with n ascending.  Files are always local; nothing here touches
the network.
"""

from __future__ import annotations

from .fishburn import xi_coefficients
from .series import int_arg


class BFileError(ValueError):
    pass


def parse_bfile(path) -> dict:
    """Map index -> value from a b-file; raises BFileError with the line
    number on malformed input and without one on text that is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise BFileError(f"cannot read b-file: {exc}") from None
    entries: dict = {}
    last = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileError(f"line {lineno}: expected 'n value', got {raw!r}")
        try:
            n, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise BFileError(f"line {lineno}: non-integer field in {raw!r}") from None
        if last is not None and n <= last:
            raise BFileError(f"line {lineno}: indices must be ascending")
        last = n
        entries[n] = value
    return entries


def check_bfile(path, count: int) -> dict:
    """Compare the classical Fishburn numbers against a local b-file
    (A022493 convention: offset 0).  Returns a machine-readable report."""
    count = int_arg(count, "count", 1)
    entries = parse_bfile(path)
    missing = [n for n in range(count) if n not in entries]
    if missing:
        raise BFileError(
            f"insufficient data: file lacks indices {missing[:5]}"
            + ("..." if len(missing) > 5 else "")
        )
    ours = xi_coefficients(1, count)
    first_mismatch = None
    checked = []
    for n in range(count):
        ok = ours[n] == entries[n]
        checked.append({"n": n, "engine": ours[n], "file": entries[n], "match": ok})
        if not ok and first_mismatch is None:
            first_mismatch = n
    report = {
        "count": count,
        "pass": first_mismatch is None,
        "results": checked,
    }
    if first_mismatch is not None:
        report["first_mismatch"] = first_mismatch
    return report
