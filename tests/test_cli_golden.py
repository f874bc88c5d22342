"""Every CLI case of record_cli_golden.py (each subcommand over inputs/,
every parameter, both job counts of verify bounds, malformed input) must
reproduce the recorded exit code, stdout and stderr byte for byte."""

import json

from record_cli_golden import CASES, GOLDEN, run_cases


def test_cli_output_matches_recorded_digests(monkeypatch):
    monkeypatch.chdir(GOLDEN.parent.parent)
    expected = json.loads(GOLDEN.read_text())
    assert sorted(expected) == sorted(name for name, _ in CASES)
    got = run_cases()
    changed = {name: (expected[name], got[name]) for name in expected
               if got[name] != expected[name]}
    assert not changed, f"[exit, stdout, stderr] digests moved: {changed}"
