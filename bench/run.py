"""forcelab benchmark: four workloads over the solver, replay and CLI layers.

Run one workload in this process:

    python3 bench/run.py --workload point-queries --seed 3 --seconds 25 --trace 0

or all four, each in a fresh process, with ``--workload all`` (the
default). ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics.
``--smoke`` runs a few cheap operations of each workload once. The last
line of standard output is the JSON result; the full record, with run
metadata, goes to ``bench/out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

import tracer as tracing
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFS = BENCH / "refs"

SETUP_REPEATS = 7
COLD_RUNS = 16
JOBS2_REPEATS = 3
TAIL_BEYOND = 10
MAX_REPORTED_FAILURES = 5


class CannotRun(Exception):
    """The checkout lacks the program or its references: print no result."""


# ---------------------------------------------------------------------------
# Set-up: import, input generation, reference loading


@dataclass
class Setup:
    fl: object
    ops: list
    ran: list  # indices of the ops a pass runs
    expected: list
    cli_refs: dict
    sweep: str | None  # atlas-sweep: the CLI sweep its joined rows must equal
    seconds: float
    import_seconds: float


def _load_json(path: Path) -> dict:
    if not path.is_file():
        raise CannotRun(
            f"no reference results at {path.relative_to(ROOT)}; references are "
            f"recorded once by bench/record.py and never regenerated by a run"
        )
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def import_forcelab():
    for name in [k for k in sys.modules if k.split(".")[0] == "forcelab"]:
        del sys.modules[name]
    fl = importlib.import_module("forcelab")
    importlib.import_module("forcelab.cli")
    if Path(fl.__file__).resolve().parent != ROOT / "src" / "forcelab":
        raise CannotRun(f"imported forcelab from {fl.__file__}, not from src/")
    return fl


def setup(workload: str, slot: int, smoke: bool) -> Setup:
    t0 = perf_counter()
    fl = import_forcelab()
    t1 = perf_counter()
    fixed_refs = _load_json(REFS / f"{workload}.fixed.json")
    cli_refs = _load_json(REFS / "cli.json")
    fixed, seeded = wl.BUILDERS[workload](fl, slot, fixed_refs["params"])
    expected = list(fixed_refs["ops"])
    if seeded:
        expected += _load_json(REFS / f"{workload}.slot{slot}.json")["ops"]
    ops = fixed + seeded
    ran = [i for i, op in enumerate(ops) if op.smoke or not smoke]
    sweep = None
    if workload == "atlas-sweep":
        sweep = "all-n:5" if smoke else "all-n:7"
    t2 = perf_counter()
    return Setup(fl, ops, ran, expected, cli_refs, sweep, t2 - t0, t1 - t0)


# ---------------------------------------------------------------------------
# Timed passes


@dataclass
class Pass:
    times: array  # seconds per op, in the order of Setup.ran
    starts: array  # perf_counter at each op's start
    attempted: int = 0
    failures: list = field(default_factory=list)


def run_pass(s: Setup, tracer=None, between=None) -> Pass:
    """Call every operation once on fresh input objects, timing only the
    call, then check its rendered result against the recorded digest.
    ``between`` runs before each operation, outside the timed call."""
    out = Pass(array("d", bytes(8 * len(s.ran))), array("d", bytes(8 * len(s.ran))))
    inputs, rows = wl.PassInputs(s.fl), []
    needed = {a.index for i in s.ran for a in s.ops[i].args if isinstance(a, wl.Prev)}
    modules = {name: getattr(s.fl, name) for name in ("solvers", "forcing", "bundles", "pips")}
    for j, i in enumerate(s.ran):
        op = s.ops[i]
        out.attempted += 1
        args = inputs.args(op)
        func = getattr(modules[op.module], op.func)
        if tracer is not None:
            tracer.current_op = i
        if between is not None:
            between()
        t0 = out.starts[j] = perf_counter()
        try:
            result = func(*args)
        except Exception:
            out.times[j] = perf_counter() - t0
            out.failures.append((i, traceback.format_exc(limit=3)))
            continue
        out.times[j] = perf_counter() - t0
        if i in needed:
            inputs.results[i] = result
        text = op.render(result)
        if s.sweep:
            rows.append(text)
        if i >= len(s.expected) or wl.digest(text) != s.expected[i]:
            out.failures.append((i, f"{op.module}.{op.func}: output differs from the reference"))
    if len(s.expected) != len(s.ops):
        out.failures.append((-1, f"{len(s.ops)} operations, {len(s.expected)} references"))
    if s.sweep:
        # The rows, joined under the header, must equal the stdout the CLI
        # printed for the same sweep when the references were recorded.
        out.attempted += 1
        text = wl.csv_text([s.fl.solvers.BOUNDS_HEADER]) + "".join(rows)
        if wl.digest(text) != s.cli_refs["verify_bounds"][s.sweep]:
            out.failures.append((-1, "joined sweep CSV differs from the CLI's stdout"))
    return out


# ---------------------------------------------------------------------------
# Whole-program measurements: CLI cold start and the jobs=2 sweep


class ColdStart:
    """Times ``python -m forcelab.cli solve`` processes, one per probe.

    Probes are spread over the measured window, between operations, so
    that one slow moment of a shared machine does not delay all of them."""

    def __init__(self, s: Setup, runs: int, seconds: float):
        argv = list(wl.COLD_START_ARGV)
        g = s.fl.load_graph(str(ROOT / argv[-1]))
        payload = s.fl.solvers.solve_parameter(g, "z").to_json_dict()
        payload["n"] = g.n
        self.in_process = json.dumps(payload, sort_keys=True) + "\n"
        self.reference = s.cli_refs["solve_z_grid_3x4"]
        self.cmd = [sys.executable, "-m", "forcelab.cli", *argv]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), self.env.get("PYTHONPATH")) if p
        )
        self.runs = runs
        self.interval = seconds / runs
        self.due = perf_counter()
        self.times: list[float] = []
        self.failures: list = []

    def probe(self) -> None:
        t0 = perf_counter()
        proc = subprocess.run(
            self.cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=60
        )
        self.times.append(perf_counter() - t0)
        if proc.returncode != 0 or proc.stdout != self.in_process:
            self.failures.append(
                (-1, f"cold CLI run differs: rc={proc.returncode} {proc.stderr[-300:]}")
            )
        elif wl.digest(proc.stdout) != self.reference:
            self.failures.append((-1, "cold CLI stdout differs from the reference"))

    def __call__(self) -> None:
        if len(self.times) < self.runs and perf_counter() >= self.due:
            self.probe()
            self.due += self.interval

    def finish(self) -> None:
        while len(self.times) < self.runs:
            self.probe()


class SpeedGauge:
    """Times a fixed pure-Python loop twice a second, between operations.

    The speed of a shared machine's CPU drifts by 10-30 % over seconds to
    minutes: the same code takes that much more CPU time, not only more
    wall time. An op's wall time is multiplied by REFERENCE over the loop's
    time at that moment, interpolated between samples, which takes most
    of that drift out. The loop touches no forcelab code. It is timed in
    this thread's CPU time, so time the thread spends waiting (for a
    thread that holds the interpreter lock, or for processes that take the
    CPU, the program's own workers included) does not slow the gauge and
    is not scaled away. The unscaled wall times are reported beside the
    scaled ones."""

    LOOP = 100_000
    # A fixed unit, so that scaled times compare between runs: about the
    # loop's CPU time on the 2-core machine the baseline was taken on.
    REFERENCE = 0.006

    def __init__(self, interval: float = 0.5):
        self.interval = interval
        self.due = perf_counter()
        self.stamps: list[float] = []
        self.times: list[float] = []

    def __call__(self) -> None:
        if perf_counter() >= self.due:
            self.sample()

    def sample(self) -> float:
        """Time the loop once now; return REFERENCE over its time."""
        t0, c0 = perf_counter(), thread_time()
        total = 0
        for i in range(self.LOOP):
            total += i * i
        c1, t1 = thread_time(), perf_counter()
        self.stamps.append((t0 + t1) / 2)
        self.times.append(c1 - c0)
        self.due = t1 + self.interval
        return self.REFERENCE / (c1 - c0)

    def scale_at(self, t: float) -> float:
        """REFERENCE over the loop time interpolated at moment ``t``."""
        k = bisect.bisect(self.stamps, t)
        if k == 0:
            g = self.times[0]
        elif k == len(self.stamps):
            g = self.times[-1]
        else:
            a, b = self.stamps[k - 1], self.stamps[k]
            w = (t - a) / (b - a)
            g = self.times[k - 1] * (1 - w) + self.times[k] * w
        return self.REFERENCE / g

    def scaled(self, p: Pass) -> list[float]:
        return [t * self.scale_at(t0 + t / 2) for t0, t in zip(p.starts, p.times)]


def cli_in_process(fl, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = fl.cli.main(argv)
    return rc, buf.getvalue()


def jobs2_sweep(s: Setup, target: str, repeats: int) -> tuple[list[float], int, list]:
    """``verify bounds --jobs 2`` in this process: graphs per second of the
    two-worker sweep, and its stdout checked byte for byte."""
    graphs = len(s.ran)
    rates, failures = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        rc, text = cli_in_process(s.fl, ["verify", "bounds", "--graphs", target, "--jobs", "2"])
        rates.append(graphs / (perf_counter() - t0))
        if rc != 0 or wl.digest(text) != s.cli_refs["verify_bounds"][target]:
            failures.append((-1, "verify bounds --jobs 2 stdout differs from the reference"))
    return rates, repeats, failures


# ---------------------------------------------------------------------------
# Metrics


def latency_summary(passes: list) -> tuple[float, float, float, float, int]:
    """Throughput, median and tail over the per-operation latencies.

    An operation's latency is its median over passes. The sample is the
    fixed operation list, so the tail percentile does not move with the
    number of passes. The tail is the latency with TAIL_BEYOND operations
    above it."""
    per_op = sorted(statistics.median(p[j] for p in passes) for j in range(len(passes[0])))
    n = len(per_op)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return (
        n / sum(per_op),
        statistics.median(per_op) * 1e3,
        per_op[k] * 1e3,
        100.0 * (k + 1) / n,
        n,
    )


def measure_passes(s: Setup, seconds: float, smoke: bool, traced: bool, between=None):
    """Run passes while the next one is expected to end less than half a
    pass after ``seconds``. Traced runs alternate an untraced and a traced
    pass."""
    passes, traced_passes, tr = [], [], None
    if traced:
        tr = tracing.Tracer()
    t_start = perf_counter()
    while True:
        p0 = perf_counter()
        passes.append(run_pass(s, between=between))
        if traced:
            tr.install()
            try:
                traced_passes.append(run_pass(s, tr, between=between))
            finally:
                tr.remove()
        took = perf_counter() - p0
        if smoke or perf_counter() - t_start + took / 2 > seconds:
            return passes, traced_passes, tr


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def run_workload(args) -> int:
    if not (ROOT / "src" / "forcelab" / "__init__.py").is_file() or not (
        ROOT / wl.COLD_START_ARGV[-1]
    ).is_file():
        raise CannotRun(f"no forcelab sources under {ROOT}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    meta = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "loadavg_before": list(os.getloadavg()),
    }
    slot = wl.slot_of(args.seed)
    gauge, cold, s = SpeedGauge(), None, None
    setup_times, setup_scales, import_share = [], [], []
    for _ in range(SETUP_REPEATS):
        s = None  # drop the last inputs first, so peak memory holds one set
        gc.collect()
        setup_scales.append(gauge.sample())
        s = setup(args.workload, slot, args.smoke)
        setup_times.append(s.seconds)
        import_share.append(s.import_seconds / s.seconds)
    if args.trace == 0 and args.workload == "point-queries":
        cold = ColdStart(s, 2 if args.smoke else COLD_RUNS, args.seconds)

    def between():
        gauge()
        if cold is not None:
            cold()

    passes, traced_passes, tr = measure_passes(
        s, args.seconds, args.smoke, args.trace == 1, between=between
    )
    meta["speed_gauge_ms"] = [t * 1e3 for t in gauge.times]
    failures = [f for p in passes + traced_passes for f in p.failures]
    attempted = sum(p.attempted for p in passes + traced_passes)
    extras: dict[str, tuple[float, str, str]] = {}

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace == 0:
        if cold is not None:
            cold.finish()
            attempted += cold.runs
            failures += cold.failures
            extras["cli_cold_start_ms"] = (
                statistics.median(cold.times) * 1e3, "ms",
                f"median of {cold.runs} forcelab solve processes; fastest "
                f"{min(cold.times) * 1e3:.1f} ms",
            )
            meta["cold_start_ms"] = [t * 1e3 for t in cold.times]
        if s.sweep:
            rates, n_j, j_fail = jobs2_sweep(s, s.sweep, 1 if args.smoke else JOBS2_REPEATS)
            attempted += n_j
            failures += j_fail
            extras["jobs2_ops_per_s"] = (
                statistics.median(rates), "1/s",
                f"graphs per second, verify bounds --jobs 2, median of {n_j}",
            )
        ops_per_s, p50, tail, pct, n_ops = latency_summary([gauge.scaled(p) for p in passes])
        wall = latency_summary([p.times for p in passes])
        metrics = {
            "setup_s": (statistics.median(t * k for t, k in zip(setup_times, setup_scales)), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_ms": (p50, "ms"),
            "op_tail_ms": (tail, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        # The same figures as measured, before scaling: a slowdown the
        # gauge would cancel still shows here.
        for name, value, unit in (("setup_s", statistics.median(setup_times), "s"),
                                  ("ops_per_s", wall[0], "1/s"),
                                  ("op_p50_ms", wall[1], "ms"),
                                  ("op_tail_ms", wall[2], "ms")):
            extras[f"wall.{name}"] = (value, unit, f"{name}, wall time not scaled")
        notes = {
            "setup_s": f"median of {SETUP_REPEATS} set-ups at gauge speed; import "
                       f"{statistics.median(import_share):.0%} of it",
            "ops_per_s": f"{n_ops} ops over the sum of their latencies",
            "op_p50_ms": f"median of {n_ops} per-op latencies, each the median "
                         f"of {len(passes)} passes at gauge speed",
            "op_tail_ms": f"p{pct:.2f} of {n_ops} per-op latencies, "
                          f"{n_ops - round(pct * n_ops / 100)} beyond",
        }
    else:
        cli_bytes = 0
        if args.workload == "point-queries":
            # The CLI's own layer is only visible in process: call its entry
            # point under the tracer with the cold-start argument list.
            argv = list(wl.COLD_START_ARGV[:-1]) + [str(ROOT / wl.COLD_START_ARGV[-1])]
            tr.install()
            tr.current_op = -2
            try:
                for _ in range(len(traced_passes)):
                    rc, text = cli_in_process(s.fl, argv)
                    attempted += 1
                    cli_bytes += len(text.encode())
                    if rc != 0 or wl.digest(text) != s.cli_refs["solve_z_grid_3x4"]:
                        failures.append((-1, "in-process CLI stdout differs from the reference"))
            finally:
                tr.remove()
        k = len(traced_passes)
        agg = tr.aggregate()
        ops_per_pass = len(s.ran)
        overhead = statistics.median(
            sum(gauge.scaled(t)) - sum(gauge.scaled(u)) for u, t in zip(passes, traced_passes)
        )
        derived = {
            "forcing.replays_per_op": agg["forcing.validate_chronology.calls"] / k / ops_per_pass,
            "cli.stdout_bytes": cli_bytes / k,
            "trace.overhead_s": overhead,
        }
        for name, unit, _ in tracing.per_layer_specs():
            if name in derived:
                value = derived[name]
            elif name in ("solvers.subsets_per_s", "solvers.witnesses_per_subset"):
                value = agg[name]
            else:
                value = agg[name] / k
            metrics[name] = (value, unit)
        notes = {
            "solvers.subsets_scanned": "computed from call arguments and results",
            "trace.overhead_s": "traced minus untraced op time per pass, at gauge speed",
        }
        args.out.mkdir(parents=True, exist_ok=True)
        spans_path = args.out / f"spans-{args.workload}-seed{args.seed}.bin.gz"
        tr.write(spans_path)
        meta["spans_file"] = str(spans_path)
        meta["traced_passes"] = k
    meta["loadavg_after"] = list(os.getloadavg())

    failed = len(failures)
    error_rate = failed / attempted
    extras["error_rate"] = (error_rate, "ratio", f"{failed} failed of {attempted} attempted")
    for i, detail in failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED op {i}: {detail}", file=sys.stderr)

    print(f"# forcelab bench: workload {args.workload}, seed {args.seed} (input slot {slot}), "
          f"trace {args.trace}{', smoke' if args.smoke else ''}")
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    for name, (value, unit) in list(metrics.items()):
        print(f"{name:<44} {value:>16.6f} {unit:<10} {notes.get(name, '')}")
    for name, (value, unit, note) in extras.items():
        print(f"{name:<44} {value:>16.6f} {unit:<10} {note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    args.out.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, slot=slot,
                  trace=args.trace, smoke=args.smoke, meta=meta,
                  extras={k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in extras.items()},
                  notes=notes)
    out_path = args.out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so set-up and peak memory are its own."""
    status = 0
    for name in wl.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(args.out)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
        if proc.returncode != 0 or not json.loads(last[0]).get("correct"):
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + wl.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, default=BENCH / "out")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except CannotRun as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
