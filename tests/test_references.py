"""Every stored perfbench reply, replayed in process.

perfbench/references/*.json hold the canonical replies of every benchmark
instance (perfbench/README.md).  Here the CLI instances run through
``cli.main`` with ``--format json`` and the session calls through the
package, and each reply must equal its reference byte for byte once the
top-level ``runtime_ms`` is dropped and keys are sorted.  The files are only
read.
"""

import json
from pathlib import Path

import pytest

import qfish
from qfish import cli

REFERENCES = Path(__file__).resolve().parent.parent / "perfbench" / "references"


def _canonical(report) -> str:
    if isinstance(report, dict):
        report = {k: v for k, v in report.items() if k != "runtime_ms"}
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def _cases():
    for path in sorted(REFERENCES.glob("*.json")):
        reports = json.loads(path.read_text())["reports"]
        for instance, want in sorted(reports.items()):
            yield pytest.param(path.stem, instance, want, id=f"{path.stem}: {instance}")


def _session_reply(instance: str):
    name, *args = instance.split()
    result = getattr(qfish, name)(*map(int, args))
    return result.as_dict() if hasattr(result, "as_dict") else list(result)


@pytest.mark.parametrize("workload,instance,want", _cases())
def test_reply_matches_reference(workload, instance, want, capsys):
    if workload == "session":
        got = _session_reply(instance)
    else:
        cli.main([*instance.split(), "--format", "json"])
        got = json.loads(capsys.readouterr().out)
    assert _canonical(got) == _canonical(want)
