"""Per-layer tracing of evoalg from outside the package.

``Tracer.install`` wraps the public functions of each layer so that every
call made while an operation is open records a span (name, start, end,
parent span, operation id, outcome).  Field arithmetic is only counted:
timing each scalar add would swamp the operation.  Spans stay in memory
until the run ends; ``dump`` writes them out as TSV and ``derive`` turns
span files back into per-layer call counts and self times.

Several modules import names directly (``from .algebra import
upper_series``), so a function is rebound in every evoalg module that
holds it, not only where it is defined.  Methods are patched on their
class.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

# (span name, defining module, attribute or Class.method)
SPANS = (
    ("fields.sqrt_if_square", "evoalg.fields", "sqrt_if_square"),
    ("linalg.rref", "evoalg.linalg", "rref"),
    ("linalg.kernel", "evoalg.linalg", "kernel"),
    ("linalg.intersect", "evoalg.linalg", "Subspace.intersect"),
    ("linalg.matmul", "evoalg.linalg", "Matrix.__mul__"),
    ("linalg.inverse", "evoalg.linalg", "Matrix.inverse"),
    ("algebra.multiply", "evoalg.algebra", "EvolutionAlgebra.multiply"),
    ("algebra.upper_series", "evoalg.algebra", "upper_series"),
    ("algebra.component_index_sets", "evoalg.algebra",
     "component_index_sets"),
    ("algebra.decomposability_check", "evoalg.algebra",
     "decomposability_check"),
    ("tables.template", "evoalg.tables", "ClassEntry.template"),
    ("tables.orbit_min", "evoalg.tables", "orbit_min"),
    ("classify.classify", "evoalg.classify", "classify"),
    ("classify.witness_isomorphism", "evoalg.classify",
     "witness_isomorphism"),
    ("oracle.verify_hom", "evoalg.oracle", "verify_hom"),
    ("oracle.exhaustive_iso", "evoalg.oracle", "exhaustive_iso"),
    ("oracle.randomized_iso", "evoalg.oracle", "randomized_iso"),
    ("families.scaling_isomorphism", "evoalg.families",
     "scaling_isomorphism"),
    ("cli.parse_algebra_file", "evoalg.cli", "parse_algebra_file"),
)

# (counter name, defining module, Class.method): counted, never timed
COUNTED = (
    ("fields.add", "evoalg.fields", "FieldElement.__add__"),
    ("fields.mul", "evoalg.fields", "FieldElement.__mul__"),
    ("fields.inverse", "evoalg.fields", "FieldElement.inverse"),
)

SEARCHES = ("oracle.exhaustive_iso", "oracle.randomized_iso")
OP_SPAN = "op"

# span outcomes
RETURNED_NONE, RETURNED_VALUE, BUDGET_EXCEEDED, RAISED = 0, 1, 2, 3


def _resolve(modname, attr):
    """(owner object, attribute name, original) for a dotted target."""
    owner = sys.modules[modname]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Records spans and counts for calls made inside open operations."""

    def __init__(self):
        self.names = [OP_SPAN] + [name for name, _, _ in SPANS]
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outcome = array("b")
        self.stack = []
        self.op = -1
        self.cells = {name: [0] for name, _, _ in COUNTED}
        self.counts = dict.fromkeys(self.cells, 0)
        self._snapshot = {}
        self._undo = []

    # -- installation ------------------------------------------------

    def install(self):
        """Patch every target; import evoalg before calling this."""
        from evoalg.errors import BudgetExceeded
        for nid, (_, modname, attr) in enumerate(SPANS, start=1):
            self._patch(modname, attr,
                        lambda fn, nid=nid: self._span(nid, fn,
                                                       BudgetExceeded))
        for name, modname, attr in COUNTED:
            self._patch(modname, attr,
                        lambda fn, cell=self.cells[name]: _counter(fn, cell))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, modname, attr, make_wrapper):
        owner, name, original = _resolve(modname, attr)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._undo.append((owner, name, original))
            setattr(owner, name, wrapper)
            return
        for modkey, module in list(sys.modules.items()):
            if modkey != "evoalg" and not modkey.startswith("evoalg."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, wrapper)

    def _open(self, nid) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op)
        self.span_outcome.append(RAISED)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def _span(self, nid, fn, budget_exc):
        def wrapper(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except budget_exc:
                self.span_outcome[idx] = BUDGET_EXCEEDED
                raise
            finally:
                self._close(idx)
            self.span_outcome[idx] = (RETURNED_NONE if result is None
                                      else RETURNED_VALUE)
            return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- operations --------------------------------------------------

    def begin_op(self, op_id: int):
        self.op = op_id
        self._snapshot = {k: c[0] for k, c in self.cells.items()}
        self._open(0)

    def end_op(self):
        self._close(self.stack[-1])
        for k, c in self.cells.items():
            self.counts[k] += c[0] - self._snapshot[k]
        self.op = -1

    # -- output ------------------------------------------------------

    def dump(self, path):
        """Write counts and spans as TSV: one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for k, v in self.counts.items():
                fh.write(f"#count\t{k}\t{v}\n")
            fh.write("op\tname\tparent\tstart\tend\toutcome\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(f"{self.span_op[i]}\t{names[self.span_name[i]]}\t"
                         f"{self.span_parent[i]}\t{self.span_start[i]!r}\t"
                         f"{self.span_end[i]!r}\t{self.span_outcome[i]}\n")


def _counter(fn, cell):
    def wrapper(*args):
        cell[0] += 1
        return fn(*args)
    wrapper.__wrapped__ = fn
    return wrapper


def derive(paths, iso_ops=frozenset()):
    """Aggregate span files into {"calls": {name: n}, "self_s": {name: s},
    "counts": {name: n}, "budget_exceeded": n, "searches": n,
    "found": n}.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    ``iso_ops`` names the operations whose inputs are isomorphic by
    construction: searches inside them count toward the found ratio.
    """
    calls = defaultdict(int)
    self_s = defaultdict(float)
    counts = defaultdict(int)
    budget_exceeded = searches = found = 0
    for path in paths:
        rows = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                parts = line.rstrip("\n").split("\t")
                if parts[0] == "#count":
                    counts[parts[1]] += int(parts[2])
                elif parts[0] != "op":
                    rows.append(parts)
        child = [0.0] * len(rows)
        durs = []
        for op, name, parent, start, end, outcome in rows:
            dur = float(end) - float(start)
            durs.append(dur)
            if int(parent) >= 0:
                child[int(parent)] += dur
        for i, (op, name, _, _, _, outcome) in enumerate(rows):
            calls[name] += 1
            self_s[name] += durs[i] - child[i]
            outcome = int(outcome)
            if name == "oracle.exhaustive_iso" and outcome == BUDGET_EXCEEDED:
                budget_exceeded += 1
            elif name in SEARCHES and int(op) in iso_ops:
                searches += 1
                found += outcome == RETURNED_VALUE
    return {"calls": dict(calls), "self_s": dict(self_s),
            "counts": dict(counts), "budget_exceeded": budget_exceeded,
            "searches": searches, "found": found}


# ---------------------------------------------------------------------------
# the per-layer metrics: (name, unit, better, should move, on workload)

def _pair(span, moves, where):
    return [(f"{span}.calls", "calls/op", "lower", moves, where),
            (f"{span}.s", "s/op", "lower", moves, where)]


_CORE = "classify_stream, table_census"
LAYER_METRICS = (
    [(f"fields.{op}.calls", "calls/op", "lower",
      "throughput_ops_s, latency_p50_ms", _CORE + "; flat on cli_cold")
     for op in ("add", "mul", "inverse")]
    + _pair("fields.sqrt_if_square", "latency_tail_ms, throughput_ops_s",
            "table_census (GF(1000033)); flat on classify_stream")
    + [m for op in ("rref", "kernel", "intersect", "matmul", "inverse")
       for m in _pair(f"linalg.{op}", "throughput_ops_s",
                      _CORE + "; small on iso_pairs")]
    + [m for op in ("multiply", "upper_series", "component_index_sets",
                    "decomposability_check")
       for m in _pair(f"algebra.{op}", "throughput_ops_s",
                      "classify_stream")]
    + [m for op in ("template", "orbit_min")
       for m in _pair(f"tables.{op}", "latency_p50_ms", "table_census")]
    + [m for op in ("classify", "witness_isomorphism")
       for m in _pair(f"classify.{op}", "latency_p50_ms, error_rate",
                      "iso_pairs; throughput_ops_s on classify_stream")]
    + [m for op in ("verify_hom", "exhaustive_iso", "randomized_iso")
       for m in _pair(f"oracle.{op}",
                      "throughput_ops_s, latency_tail_ms, error_rate",
                      "iso_pairs; flat on cli_cold")]
    + [("oracle.budget_exceeded.count", "count/op", "lower",
        "throughput_ops_s, latency_tail_ms, error_rate", "iso_pairs"),
       ("oracle.witness_found_ratio", "ratio", "higher",
        "error_rate", "iso_pairs")]
    + _pair("families.scaling_isomorphism", "throughput_ops_s", "iso_pairs")
    + [(f"cli.{part}_ms", "ms", "lower", "latency_p50_ms, setup_s",
        "cli_cold; setup_s everywhere")
       for part in ("interp", "import", "dispatch")]
    + _pair("cli.parse_algebra_file", "latency_p50_ms", "cli_cold")
    + [("trace.overhead_ratio", "ratio", "lower",
        "none: the cost of the traced run", "all")]
)


def layer_values(agg, n_ops, overhead_ratio, cli_ms):
    """Every per-layer metric as {name: value}, calls and self time per
    operation.  ``cli_ms`` holds interp/import/dispatch medians in ms, or
    zeros for workloads that start no CLI process."""
    values = {}
    for name, _, _, _, _ in LAYER_METRICS:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            n = agg["counts"].get(base, agg["calls"].get(base, 0))
            values[name] = n / n_ops
        elif kind == "s":
            values[name] = agg["self_s"].get(base, 0.0) / n_ops
    values["oracle.budget_exceeded.count"] = agg["budget_exceeded"] / n_ops
    values["oracle.witness_found_ratio"] = (
        agg["found"] / agg["searches"] if agg["searches"] else 0.0)
    for part in ("interp", "import", "dispatch"):
        values[f"cli.{part}_ms"] = cli_ms.get(part, 0.0)
    values["trace.overhead_ratio"] = overhead_ratio
    return values
