"""Smoke test of the benchmark harness on a few cheap operations of each
workload. It checks names, references and counts, never a timing."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric_without_errors(workload, trace, tmp_path):
    proc = bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--smoke", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    record = json.loads(
        (tmp_path / f"result-{workload}-seed1-trace{trace}.json").read_text()
    )
    assert record["extras"]["error_rate"]["value"] == 0
    assert ("jobs2_ops_per_s" in record["extras"]) == (
        workload == "atlas-sweep" and trace == 0
    )
    assert ("cli_cold_start_ms" in record["extras"]) == (
        workload == "point-queries" and trace == 0
    )
    if trace == 0:  # every time metric also as measured, before scaling
        times = {m["name"] for m in declared} - {"peak_rss_mb"}
        assert {f"wall.{name}" for name in times} <= set(record["extras"])
    for key in ("nproc", "python", "git_sha", "loadavg_before", "loadavg_after"):
        assert key in record["meta"]
    if trace == 1:
        replays = result["metrics"]["forcing.validate_chronology.calls"]["value"]
        if workload in ("lattice-queries", "point-queries"):
            assert replays == 0
        else:
            assert replays > 0
        assert (tmp_path / f"spans-{workload}-seed1.bin.gz").is_file()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "0",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


FRESH_CHECK = """
import json, sys
sys.path[:0] = ["bench", "src"]
import run
s = run.setup(sys.argv[1], 1, smoke=True)
seen = {}  # (pass, op index) -> the op's arguments, kept alive
now = [None]

def wrap(func):
    def call(*args, **kwargs):
        seen.setdefault(now[0], args)  # the op's own call, not nested ones
        return func(*args, **kwargs)
    return call

for module, name in {(op.module, op.func) for op in s.ops}:
    mod = getattr(s.fl, module)
    setattr(mod, name, wrap(getattr(mod, name)))
for k in range(2):
    order = iter(s.ran)
    p = run.run_pass(s, between=lambda: now.__setitem__(0, (k, next(order))))
    assert not p.failures, p.failures
types = (s.fl.Graph, s.fl.RelaxedChronology)
inputs = [(i, x) for (k, i), a in seen.items() if k == 0 for x in a if isinstance(x, types)]
shared = [i for i, x in inputs if any(x is y for y in seen[1, i])]
print(json.dumps({"inputs": len(inputs), "shared": shared}))
"""


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_pass_gets_new_input_objects(workload):
    """No graph or schedule object, with whatever a call cached on it,
    survives from one pass into the next."""
    proc = subprocess.run([sys.executable, "-c", FRESH_CHECK, workload],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["inputs"] > 0
    assert report["shared"] == []
