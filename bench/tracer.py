"""Outside-in tracing of forcelab's public functions.

The tracer replaces each listed function with a wrapper in every forcelab
module namespace that holds it, including the names other modules bound
with ``from .x import y``. Each call becomes one span (function, parent
span, operation index, start, end). Spans stay in memory as flat arrays
and are written out once, after the run. Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from math import comb
from time import perf_counter

LAYERS = ("cli", "solvers", "forcing", "slices", "bundles", "pips", "graphs")

FUNCTIONS = (
    ("cli", "main"),
    ("solvers", "forcing_number"),
    ("solvers", "propagation_time_m"),
    ("solvers", "throttling"),
    ("solvers", "bounds_rows_for_graph"),
    ("forcing", "validate_chronology"),
    ("forcing", "propagate"),
    ("forcing", "possible_forces"),
    ("forcing", "activity_spans"),
    ("forcing", "reversal"),
    ("slices", "psd_set_from_slices"),
    ("slices", "power_set_from_slice"),
    ("slices", "time_slice"),
    ("slices", "interval_slice"),
    ("bundles", "relocate_psd_set"),
    ("bundles", "certify_rigid_linkage"),
    ("bundles", "induced_path_bundle"),
    ("pips", "chronology_to_witness"),
    ("pips", "witness_to_chronology"),
    ("pips", "verify_witness"),
    ("graphs", "components"),
    ("graphs", "induced_subgraph"),
)

DERIVED = (
    ("solvers.subsets_scanned", "count", "lower"),
    ("solvers.subsets_per_s", "1/s", "higher"),
    ("solvers.witnesses_per_subset", "ratio", "higher"),
    ("forcing.replays_per_op", "replays/op", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for layer in LAYERS:
        specs.append((f"{layer}.busy_s", "s", "lower"))
        specs.append((f"{layer}.self_s", "s", "lower"))
    for layer, fn in FUNCTIONS:
        specs.append((f"{layer}.{fn}.calls", "count", "lower"))
        specs.append((f"{layer}.{fn}.self_s", "s", "lower"))
    specs.extend(DERIVED)
    return specs


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Subsets a scan visits, computed from the call's arguments and result
# (the solvers keep no counter of their own).
def _scanned_forcing_number(args, kwargs, report):
    n = _arg(args, kwargs, 0, "g").n
    return sum(comb(n, k) for k in range(report.value + 1))


def _scanned_propagation_time_m(args, kwargs, report):
    return comb(_arg(args, kwargs, 0, "g").n, _arg(args, kwargs, 1, "m"))


def _scanned_throttling(args, kwargs, report):
    n = _arg(args, kwargs, 0, "g").n
    return sum(comb(n, k) for k in range(min(report.value, n + 1)))


SCAN_COUNTERS = {
    "forcing_number": _scanned_forcing_number,
    "propagation_time_m": _scanned_propagation_time_m,
    "throttling": _scanned_throttling,
}


class Tracer:
    """Wraps the listed functions while active and records one span per call."""

    def __init__(self):
        self.names = [f"{layer}.{fn}" for layer, fn in FUNCTIONS]
        self.layer_of = [LAYERS.index(layer) for layer, _ in FUNCTIONS]
        self.fn = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_op = -1
        self.subsets = 0
        self.witnesses = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fid: int, orig, counter):
        fn, parent, op, start, end = self.fn, self.parent, self.op, self.start, self.end
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(fn)
            fn.append(fid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.current_op)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if counter is not None:
                tracer.subsets += counter(args, kwargs, result)
                tracer.witnesses += len(result.witnesses)
            return result

        traced.__wrapped__ = orig
        traced.__name__ = orig.__name__
        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "forcelab"]
        for fid, (layer, name) in enumerate(FUNCTIONS):
            orig = getattr(sys.modules[f"forcelab.{layer}"], name)
            wrapper = self._wrap(fid, orig, SCAN_COUNTERS.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        self._patched.append((module, attr, orig))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def aggregate(self) -> dict[str, float]:
        """Calls and self time per function; busy and self time per layer.

        Self time is a span's duration minus its direct wrapped children.
        A layer is busy while any of its spans is open; nested spans of the
        same layer are not counted twice.
        """
        n = len(self.fn)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        anc = [0] * n  # bitmask of layers among a span's ancestors
        nfun = len(FUNCTIONS)
        calls = [0] * nfun
        fself = [0.0] * nfun
        busy = [0.0] * len(LAYERS)
        fn, parent, layer_of = self.fn, self.parent, self.layer_of
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                anc[i] = anc[p] | (1 << layer_of[fn[p]])
        for i in range(n):
            f = fn[i]
            calls[f] += 1
            fself[f] += dur[i] - child[i]
            layer = layer_of[f]
            if not anc[i] >> layer & 1:
                busy[layer] += dur[i]
        out: dict[str, float] = {}
        lself = [0.0] * len(LAYERS)
        for f in range(nfun):
            lself[layer_of[f]] += fself[f]
        for k, layer in enumerate(LAYERS):
            out[f"{layer}.busy_s"] = busy[k]
            out[f"{layer}.self_s"] = lself[k]
        for f, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[f]
            out[f"{name}.self_s"] = fself[f]
        scan_self = sum(
            fself[self.names.index(f"solvers.{name}")] for name in SCAN_COUNTERS
        )
        out["solvers.subsets_scanned"] = self.subsets
        out["solvers.subsets_per_s"] = self.subsets / scan_self if scan_self else 0.0
        out["solvers.witnesses_per_subset"] = (
            self.witnesses / self.subsets if self.subsets else 0.0
        )
        return out

    def write(self, path) -> None:
        """Write the spans as one gzip file: a JSON header line, then the
        raw little-endian columns in the order the header lists them."""
        columns = [("fn", self.fn), ("parent", self.parent), ("op", self.op),
                   ("start", self.start), ("end", self.end)]
        header = {
            "functions": self.names,
            "layers": [LAYERS[k] for k in self.layer_of],
            "spans": len(self.fn),
            "columns": [[name, col.typecode, col.itemsize] for name, col in columns],
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, col in columns:
                fh.write(col.tobytes())
