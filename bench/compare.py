"""Compare a parent checkout and a change on one workload, in pairs.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR --workload certify-replay --pairs 10

Pair i runs both checkouts' ``bench/run.py`` with seed i, alternating
which side runs first. For each end-to-end metric it prints both sides'
median and quartiles, how many pairs the change won, and a verdict: a
gain needs wins in at least nine tenths of the pairs and a median
difference larger than the spread of the parent's own runs; a regression
is a change median worse than the parent's by more than the metric's
bound in BENCHMARK.json; anything else is reported as unchanged, or as
unresolved when the parent's spread exceeds the bound. The time metrics
are also judged, under the same bounds, on their unscaled wall times
(``wall.<metric>``), so that a slowdown the speed gauge cancels still
shows.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: benchmark failed\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {result['failed']} failed operations, seed {seed}")
    record = json.loads(
        (checkout / "bench" / "out" / f"result-{workload}-seed{seed}-trace0.json").read_text()
    )
    values = {k: m["value"] for k, m in result["metrics"].items()}
    values.update((k, m["value"]) for k, m in record["extras"].items() if k.startswith("wall."))
    return values


def verdict(spec: dict, parent: list[float], change: list[float]) -> tuple[int, str]:
    higher = spec["better"] == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q = statistics.quantiles(parent, n=4)
    spread = q[2] - q[0]
    worse = (p_med - c_med) if higher else (c_med - p_med)
    if wins >= 0.9 * len(parent) and abs(c_med - p_med) > spread and worse < 0:
        return wins, "gain"
    if worse > spec["bound"] * p_med:
        return wins, "regression"
    if spread > spec["bound"] * p_med:
        return wins, "unresolved"
    return wins, "unchanged"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    if args.pairs < 10:
        print("warning: fewer than ten pairs cannot support a claim", file=sys.stderr)
    sides = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            sides[side].append(run(checkout, args.workload, seed, spec["run_seconds"]))
        print(f"pair {i + 1}/{args.pairs} done (seed {seed}, {order[0]} first)", file=sys.stderr)
    report = {}
    metrics = list(spec["end_to_end"])
    metrics += [dict(m, name=f"wall.{m['name']}") for m in spec["end_to_end"]
                if f"wall.{m['name']}" in sides["parent"][0]]
    for metric in metrics:
        name = metric["name"]
        parent = [r[name] for r in sides["parent"]]
        change = [r[name] for r in sides["change"]]
        wins, call = verdict(metric, parent, change)
        report[name] = {
            "unit": metric["unit"], "parent": parent, "change": change,
            "parent_quartiles": statistics.quantiles(parent, n=4),
            "change_quartiles": statistics.quantiles(change, n=4),
            "change_wins": wins, "pairs": args.pairs, "verdict": call,
        }
        pq, cq = report[name]["parent_quartiles"], report[name]["change_quartiles"]
        print(f"{name:<22} parent {pq[1]:>12.4f} [{pq[0]:.4f}, {pq[2]:.4f}]  "
              f"change {cq[1]:>12.4f} [{cq[0]:.4f}, {cq[2]:.4f}] {metric['unit']:<4} "
              f"wins {wins}/{args.pairs}  {call}")
    print(json.dumps({"workload": args.workload, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
