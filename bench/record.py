"""Record the reference results that every benchmark run is checked against.

    python3 bench/record.py

Runs every operation of every workload once, for the fixed inputs and for
each of the ``SLOTS`` seeded input sets, and writes the digest of each
rendered result to ``bench/refs/``. It also records the stdout of the CLI
commands the benchmark runs. Run it only on the commit the references are
meant to describe: a benchmark run never records or regenerates them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run
import workloads as wl


def record_ops(fl, ops, start: int) -> list[str]:
    """Digests of ops[start:], in order; any exception aborts the recording."""
    inputs, digests = wl.PassInputs(fl), []
    for i in range(start, len(ops)):
        op = ops[i]
        result = getattr(getattr(fl, op.module), op.func)(*inputs.args(op))
        inputs.results[i] = result
        digests.append(wl.digest(op.render(result)))
    return digests


def lattice_params(fl) -> dict:
    """Both forcing numbers of every lattice graph; they fix the m range."""
    z = {}
    for slot in range(wl.SLOTS):
        fixed, seeded = wl.lattice_graphs(fl, slot)
        for name, g in fixed + seeded:
            values = {
                r.value: fl.solvers.forcing_number(g, r, cap=wl.CAP).value
                for r in (fl.Rule.STANDARD, fl.Rule.PSD)
            }
            if z.setdefault(name, values) != values:
                raise SystemExit(f"{name}: forcing numbers differ between slots")
    return {"z": z}


def cli_stdout(argv: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "forcelab.cli", *argv],
        cwd=run.ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return proc.stdout


def write(name: str, payload: dict) -> None:
    path = run.REFS / name
    path.write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}: {len(payload.get('ops', []))} ops")


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    fl = run.import_forcelab()
    run.REFS.mkdir(exist_ok=True)
    sha = run.git_sha()
    write("cli.json", {
        "recorded_from": sha,
        "solve_z_grid_3x4": wl.digest(cli_stdout(list(wl.COLD_START_ARGV))),
        "verify_bounds": {
            target: wl.digest(cli_stdout(["verify", "bounds", "--graphs", target]))
            for target in ("all-n:5", "all-n:7")
        },
    })
    for workload, build in wl.BUILDERS.items():
        params = lattice_params(fl) if workload == "lattice-queries" else {}
        fixed, seeded = build(fl, 0, params)
        write(f"{workload}.fixed.json", {
            "recorded_from": sha, "params": params, "ops": record_ops(fl, fixed, 0),
        })
        if not seeded:
            continue
        for slot in range(wl.SLOTS):
            fixed, seeded = build(fl, slot, params)
            write(f"{workload}.slot{slot}.json", {
                "recorded_from": sha, "slot": slot,
                "ops": record_ops(fl, fixed + seeded, len(fixed)),
            })
    return 0


if __name__ == "__main__":
    sys.exit(main())
