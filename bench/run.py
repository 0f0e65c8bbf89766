"""The evoalg benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it runs the same operations untraced and then traced, and reports the
per-layer metrics.  Human-readable lines come first, then a ``record:``
line with the run record, and last one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("classify_stream", "table_census", "iso_pairs", "cli_cold")
CLI_BASELINE_RUNS = 10
# share of --seconds spent on the untraced pass of a traced run; the
# traced replay of the same operations takes the rest and more
UNTRACED_SHARE = 0.4
# The calibration kernel (bench/calibrate.py) runs untimed every
# CALIBRATE_EVERY_S seconds of the timed loop; reported times are scaled
# by its nominal time over its mean time in the run.
CALIBRATE_EVERY_S = 0.25
# Throughput is the median over this many consecutive chunks of equal
# operation count, so that the rare operation that takes seconds (the
# randomized witness fallback behind some ``iso`` calls) moves the tail
# and not the whole run.
CHUNKS = 24
# set-up probes are spread evenly over the timed loop, so that they see
# the same machine speed as the operations and the calibration
SETUP_SAMPLES = 8
# Each workload fixes ``tail_percentile``, as a rule the highest ladder
# step that keeps TAIL_MIN_BEYOND samples beyond it at a 40 s run, so that
# runs and commits compare the same percentile; short runs step down.
TAIL_LADDER = (50, 75, 90, 99, 99.9)
TAIL_MIN_BEYOND = 10


def chunked_throughput(latencies, count=CHUNKS):
    """Median over ``count`` consecutive chunks of the latencies of
    operations per second of busy time."""
    n = len(latencies)
    bounds = [k * n // count for k in range(count + 1)]
    return statistics.median(
        (hi - lo) / sum(latencies[lo:hi])
        for lo, hi in zip(bounds, bounds[1:]) if hi > lo)


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, the one the
    calibration kernel measures; returns it, or None where affinity
    cannot be set."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def percentile(sorted_samples, p):
    """Nearest-rank percentile and the number of samples ranked above it."""
    n = len(sorted_samples)
    rank = max(1, math.ceil(p / 100 * n))
    return sorted_samples[rank - 1], n - rank


def tail_percentile(samples, highest=TAIL_LADDER[-1]):
    """(p, value, samples beyond) for the highest ladder percentile, up to
    ``highest``, with at least TAIL_MIN_BEYOND samples ranked above it; the
    lowest ladder entry when the run is too short for any."""
    ordered = sorted(samples)
    best = (TAIL_LADDER[0],) + percentile(ordered, TAIL_LADDER[0])
    for p in TAIL_LADDER[1:]:
        value, beyond = percentile(ordered, p)
        if p <= highest and beyond >= TAIL_MIN_BEYOND:
            best = (p, value, beyond)
    return best


# ---------------------------------------------------------------------------
# running operations

def child_env():
    """Environment of every child process: evoalg from this checkout, and
    bytecode caches written and used whatever the caller's setting, so
    fresh processes pay interpreter start and import, not compilation."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class CliProcess:
    """Runs one fresh CLI process per call and returns (exit code, stdout).

    With ``spans_dir`` set each process runs under the tracer
    (bench/cli_child.py) and writes ``op-<n>.tsv`` there, n counting the
    calls of this object."""

    def __init__(self, spans_dir: Path | None = None):
        self.spans_dir = spans_dir
        self.calls = 0
        self.max_rss_kib = 0
        self.env = child_env()

    def __call__(self, argv):
        if self.spans_dir is None:
            cmd = [sys.executable, "-m", "evoalg.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "cli_child.py"),
                   str(self.spans_dir / f"op-{self.calls}.tsv"),
                   str(self.calls), *argv]
        self.calls += 1
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, env=self.env,
                                cwd=ROOT)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kib = max(self.max_rss_kib, usage.ru_maxrss)
        return proc.returncode, out.decode()


def make_workload(name, seed, cli_process=None):
    import workloads
    if name == "cli_cold":
        return workloads.CliCold(seed, str(OUT / f"cli-files-{seed}"),
                                 cli_process or CliProcess())
    return workloads.WORKLOADS[name](seed)


def warmup_ops(workload):
    """The first operation of each kind in the workload's first round."""
    seen, ops = set(), []
    for op in workload.next_round().ops:
        if op.kind not in seen:
            seen.add(op.kind)
            ops.append(op)
    return ops


def run_untimed(ops):
    for op in ops:
        try:
            op.call()
        except Exception:  # warm-up results are not checked
            pass


class Runner:
    """Closed loop, one client: each operation starts after the previous
    one returned.  Tallies latencies, attempts and failures."""

    def __init__(self, tracer=None):
        from workloads import Outcome, is_wrong_answer
        self.Outcome, self.is_wrong_answer = Outcome, is_wrong_answer
        self.tracer = tracer
        # compact arrays, so that peak memory barely grows with run length
        self.latencies = array("d")
        self.wall = 0.0
        self.calibrations = array("d")
        self.rounds = 0
        self.failures = Counter()
        self.wrong = 0
        self.iso_ops = set()

    @property
    def attempted(self):
        return len(self.latencies)

    def run_round(self, rnd):
        tracer, clock = self.tracer, time.perf_counter
        outs = []
        start = clock()
        for op in rnd.ops:
            op_id = len(self.latencies)
            if op.iso_by_construction:
                self.iso_ops.add(op_id)
            if tracer is not None:
                tracer.begin_op(op_id)
            t0 = clock()
            try:
                out = self.Outcome(value=op.call())
            except Exception as exc:  # counted by name, never fatal
                out = self.Outcome(error=exc)
            self.latencies.append(clock() - t0)
            if tracer is not None:
                tracer.end_op()
            outs.append(out)
        self.wall += clock() - start
        self.rounds += 1
        for kind in rnd.check(outs):
            if kind is not None:
                self.failures[kind] += 1
                self.wrong += self.is_wrong_answer(kind)

    def run_for(self, workload, seconds, pause=None):
        """Run rounds until ``seconds`` of timed wall have passed.  Between
        rounds and untimed, the calibration kernel runs every
        CALIBRATE_EVERY_S, and ``pause`` SETUP_SAMPLES times, evenly
        spread."""
        from calibrate import calibrate
        next_pause = next_calibration = 0.0
        while self.wall < seconds:
            if self.wall >= next_calibration:
                self.calibrations.append(calibrate())
                next_calibration += CALIBRATE_EVERY_S
            if pause is not None and self.wall >= next_pause:
                pause()
                next_pause += seconds / SETUP_SAMPLES
            self.run_round(workload.next_round())

    def run_rounds(self, workload, n):
        for _ in range(n):
            self.run_round(workload.next_round())


# ---------------------------------------------------------------------------
# set-up time

def setup_probe(args):
    """Body of one set-up probe process: fresh ``import evoalg`` plus the
    warm-up operations; prints the seconds they took."""
    t0 = time.perf_counter()
    import evoalg  # noqa: F401
    import_s = time.perf_counter() - t0
    ops = warmup_ops(make_workload(args.workload, args.seed))
    t1 = time.perf_counter()
    run_untimed(ops)
    print(repr(import_s + time.perf_counter() - t1))
    return 0


def setup_sample(args) -> float:
    """Seconds one fresh set-up probe process reports."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, check=True, cwd=ROOT,
        env=child_env())
    return float(out.stdout.strip().splitlines()[-1])


def process_wall_ms(code, runs):
    env = child_env()
    walls = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=env,
                       cwd=ROOT)
        walls.append((time.perf_counter() - t0) * 1000)
    return statistics.median(walls)


def bytecode_cache_warm():
    """True when every evoalg module has a compiled cache file."""
    return all(Path(importlib.util.cache_from_source(str(p))).is_file()
               for p in (SRC / "evoalg").glob("*.py"))


# ---------------------------------------------------------------------------
# the two kinds of run

def run_end_to_end(args, record):
    cli_process = CliProcess() if args.workload == "cli_cold" else None
    workload = make_workload(args.workload, args.seed, cli_process)
    run_untimed(warmup_ops(workload))
    if cli_process is not None:
        record["bytecode_cache_warm"] = bytecode_cache_warm()
        cli_process.max_rss_kib = 0
    # set-up is sampled across the timed loop, so that its median spans
    # the machine's speed bursts like the other metrics; the first probe
    # in a checkout writes the bytecode caches and is discarded
    setup_sample(args)
    setup = []
    runner = Runner()
    runner.run_for(workload, args.seconds,
                   pause=lambda: setup.append(setup_sample(args)))
    rss_kib = (cli_process.max_rss_kib if cli_process is not None
               else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    from calibrate import NOMINAL_S
    calibration_s = statistics.fmean(runner.calibrations)
    scale = NOMINAL_S / calibration_s
    lat_ms = sorted(x * 1000 for x in runner.latencies)
    tail_p, tail, tail_beyond = tail_percentile(lat_ms,
                                                workload.tail_percentile)
    measured = {
        "throughput_ops_s": (chunked_throughput(runner.latencies),
                             "ops/s"),
        "latency_p50_ms": (percentile(lat_ms, 50)[0], "ms"),
        "latency_tail_ms": (tail, "ms"),
        "setup_s": (statistics.median(setup), "s"),
    }
    metrics = {name: (value / scale if name == "throughput_ops_s"
                      else value * scale, unit)
               for name, (value, unit) in measured.items()}
    metrics["peak_rss_mb"] = (rss_kib / 1024, "MiB")
    error_rate = sum(runner.failures.values()) / runner.attempted
    notes = {
        "throughput_ops_s": f"median of {CHUNKS} chunks, "
                            f"n={runner.attempted}",
        "latency_p50_ms": f"n={runner.attempted}",
        "latency_tail_ms": f"p{tail_p}, {tail_beyond} samples beyond, "
                           f"n={runner.attempted}",
        "setup_s": f"median of {len(setup)} fresh processes",
        "peak_rss_mb": ("largest CLI child" if cli_process is not None
                        else "benchmark process"),
    }
    for name, (value, unit) in measured.items():
        notes[name] += f"; {value:.6f} {unit} unscaled"
    record.update({
        "rounds": runner.rounds, "timed_wall_s": runner.wall,
        "tail_percentile": tail_p, "tail_samples_beyond": tail_beyond,
        "setup_samples_s": setup, "error_rate": error_rate,
        "calibration_mean_s": calibration_s, "time_scale": scale,
        "calibration_samples_s": list(runner.calibrations),
        "unscaled": {name: value for name, (value, _) in measured.items()},
        "latencies_ms": [x * 1000 for x in runner.latencies],
    })
    lines = [f"  time scale {scale:.4f}: {NOMINAL_S * 1000:g} ms nominal / "
             f"{calibration_s * 1000:.4f} ms mean of "
             f"{len(runner.calibrations)} calibration runs"]
    lines += [f"  {name:<18} {value:>14.6f} {unit:<6} {notes[name]}"
              for name, (value, unit) in metrics.items()]
    lines.append(f"  {'error_rate':<18} {error_rate:>14.6f} {'ratio':<6} "
                 f"failed {sum(runner.failures.values())} of "
                 f"{runner.attempted}: {dict(runner.failures)}")
    return runner, metrics, lines


def run_traced(args, record):
    from tracer import LAYER_METRICS, Tracer, derive, layer_values
    cli = args.workload == "cli_cold"
    untraced = make_workload(args.workload, args.seed)
    run_untimed(warmup_ops(untraced))
    base = Runner()
    base.run_for(untraced, args.seconds * UNTRACED_SHARE)

    spans_dir = OUT / f"spans-{args.workload}-{args.seed}"
    spans_dir.mkdir(parents=True, exist_ok=True)
    cli_process = CliProcess(spans_dir) if cli else None
    traced_wl = make_workload(args.workload, args.seed, cli_process)
    run_untimed(warmup_ops(traced_wl))
    for stale in spans_dir.glob("*.tsv"):
        stale.unlink()
    tracer = None
    if cli:
        cli_process.calls = 0  # span files are numbered by operation
    else:
        tracer = Tracer()
        tracer.install()
    runner = Runner(tracer)
    try:
        runner.run_rounds(traced_wl, base.rounds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        tracer.dump(spans_dir / "spans.tsv")
    agg = derive(sorted(spans_dir.glob("*.tsv")), runner.iso_ops)

    cli_ms = {}
    if cli:
        interp = process_wall_ms("pass", CLI_BASELINE_RUNS)
        imported = process_wall_ms("import evoalg", CLI_BASELINE_RUNS)
        cli_ms = {"interp": interp, "import": imported - interp,
                  "dispatch": statistics.median(base.latencies) * 1000
                  - imported}
    values = layer_values(agg, runner.attempted, runner.wall / base.wall,
                          cli_ms)
    metrics = {name: (values[name], unit)
               for name, unit, _, _, _ in LAYER_METRICS}
    record.update({
        "rounds": runner.rounds, "untraced_wall_s": base.wall,
        "traced_wall_s": runner.wall, "spans": str(spans_dir),
        "oracle_searches": agg["searches"],
        "oracle_witnesses_found": agg["found"],
    })
    lines = [f"  {name:<36} {value:>14.6f} {unit:<8} moves {moves} "
             f"on {where}"
             for (name, unit, _, moves, where) in LAYER_METRICS
             for value in [values[name]]]
    return runner, metrics, lines


# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "evoalg" / "__init__.py").is_file():
        print(f"error: no evoalg sources under {SRC}; run the benchmark "
              "from the root of a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "load_shape": "closed loop, one client, one thread",
        "pinned_cpu": pin_to_one_cpu(),
    }
    run = run_traced if args.trace else run_end_to_end
    runner, metrics, lines = run(args, record)
    record.update({"attempted": runner.attempted,
                   "failures": dict(runner.failures),
                   "wrong_answers": runner.wrong})
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"ops={runner.attempted} rounds={runner.rounds}")
    print("\n".join(lines))
    summary = {k: v for k, v in record.items()
               if k not in ("latencies_ms", "calibration_samples_s")}
    print("record: " + json.dumps(summary))
    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": sum(runner.failures.values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
