"""Self-tests of the benchmark.

Run from the root of the repository:

    python3 -m pytest bench -q        (or: python3 -m unittest discover bench)
"""

import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402
from evoalg import linalg  # noqa: E402
from evoalg.fields import GF, QI  # noqa: E402
from evoalg.oracle import verify_hom  # noqa: E402


class GeneratorTests(unittest.TestCase):
    def test_generators_are_deterministic_for_a_seed(self):
        def draw(seed):
            rng = random.Random(seed)
            E = W.random_nilpotent(5, rng)
            G, m = W.monomial_relabel(E, rng)
            entries = W.census_entries()
            params = [W.sample_params(e, f, rng) for e, f in entries]
            return E, G, m, params

        self.assertEqual(draw(3), draw(3))
        self.assertNotEqual(draw(3)[0], draw(4)[0])

    def test_workload_rounds_repeat_for_a_seed(self):
        def labels(seed):
            wl, out = W.ClassifyStream(seed), []
            for _ in range(4):
                for op in wl.next_round().ops:
                    try:
                        out.append(op.call().serialize())
                    except W.EvoalgError as exc:
                        out.append(type(exc).__name__)
            return out

        self.assertEqual(labels(5), labels(5))

    def test_cli_inputs_are_deterministic_for_a_seed(self):
        with tempfile.TemporaryDirectory() as a, \
                tempfile.TemporaryDirectory() as b:
            inv_a = W.cli_inputs(2, a)
            inv_b = W.cli_inputs(2, b)
            strip = [[x.replace(a, "") for x in argv] for argv in inv_a]
            self.assertEqual(strip,
                             [[x.replace(b, "") for x in argv]
                              for argv in inv_b])
            for name in sorted(p.name for p in Path(a).iterdir()):
                self.assertEqual((Path(a) / name).read_text(),
                                 (Path(b) / name).read_text())

    def test_monomial_relabelling_is_a_natural_basis_change(self):
        rng = random.Random(0)
        for field in (GF(13), QI(), GF(W.LARGE_PRIME)):
            for entry in W.tables.canonical_table(5, field)[:8]:
                T = entry.template(W.sample_params(entry, field, rng), field)
                E, m = W.monomial_relabel(T, rng)
                self.assertTrue(verify_hom(T, E, m))
        for _ in range(20):
            E = W.random_nilpotent(5, rng)
            G, m = W.monomial_relabel(E, rng)
            self.assertTrue(verify_hom(E, G, m))


class CheckTests(unittest.TestCase):
    def test_wrong_expected_label_is_counted_as_failure(self):
        field = GF(13)
        chain, star = (W.tables.find_entry(4, (1, 1, 1, 1), 1),
                       W.tables.find_entry(4, (1, 3), 1))
        E = chain.template((), field)
        good = W.Round([W.Op("classify", lambda: W.classify_mod.classify(E))],
                       W._per_op([W._label_check(chain, ())]))
        bad = W.Round([W.Op("classify", lambda: W.classify_mod.classify(E))],
                      W._per_op([W._label_check(star, ())]))
        runner = run.Runner()
        runner.run_round(good)
        self.assertEqual((runner.attempted, sum(runner.failures.values())),
                         (1, 0))
        runner.run_round(bad)
        self.assertEqual(runner.failures, {"label_mismatch": 1})
        self.assertEqual(runner.wrong, 1)

    def test_documented_error_is_a_failure_but_not_a_wrong_answer(self):
        def boom():
            raise W.classify_mod.SqrtUnavailable("no root")

        runner = run.Runner()
        runner.run_round(W.Round([W.Op("iso", boom, True)],
                                 W._per_op([lambda out: W.failure_name(out)])))
        self.assertEqual(runner.failures, {"SqrtUnavailable": 1})
        self.assertEqual(runner.wrong, 0)
        self.assertTrue(W.is_wrong_answer("TypeError"))

    def test_unequal_pair_labels_fail_both_operations(self):
        field = GF(13)
        A = W.tables.find_entry(3, (1, 2), 1).template((), field)
        B = W.tables.find_entry(3, (1, 1, 1), 1).template((), field)
        runner = run.Runner()
        runner.run_round(W.Round(
            [W.Op("classify", lambda: W.classify_mod.classify(A)),
             W.Op("classify", lambda: W.classify_mod.classify(B))],
            W._classify_pair_check))
        self.assertEqual(runner.failures, {"label_mismatch": 2})


class MetricTests(unittest.TestCase):
    def test_tail_names_a_percentile_with_ten_samples_beyond(self):
        rng = random.Random(1)
        for n in (20, 99, 100, 101, 999, 1000, 5000, 10000, 123456):
            samples = [rng.expovariate(1.0) for _ in range(n)]
            p, value, beyond = run.tail_percentile(samples)
            self.assertGreaterEqual(beyond, run.TAIL_MIN_BEYOND, n)
            ordered = sorted(samples)
            self.assertEqual(sum(x > value for x in ordered), beyond)
            self.assertEqual(ordered[n - beyond - 1], value)
            higher = [q for q in run.TAIL_LADDER if q > p]
            for q in higher:
                self.assertLess(run.percentile(ordered, q)[1],
                                run.TAIL_MIN_BEYOND)
            capped = run.tail_percentile(samples, 75)
            self.assertLessEqual(capped[0], 75)
            self.assertGreaterEqual(capped[2], run.TAIL_MIN_BEYOND)

    def test_throughput_is_not_set_by_one_slow_operation(self):
        latencies = [0.01] * 240
        self.assertAlmostEqual(run.chunked_throughput(latencies), 100.0)
        latencies[17] = 5.0
        self.assertAlmostEqual(run.chunked_throughput(latencies), 100.0)
        self.assertAlmostEqual(run.chunked_throughput([0.5] * 3), 2.0)

    def test_calibration_kernel_uses_no_package_code(self):
        # a change to evoalg must not be able to move the time scale
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, calibrate; t = calibrate.calibrate(); "
             "assert t > 0; "
             "assert not any(m.startswith('evoalg') for m in sys.modules)"],
            cwd=BENCH, capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(spec["paths"], ["bench"])
        self.assertLessEqual({w["name"] for w in spec["workloads"]},
                             set(run.WORKLOAD_NAMES))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["per_layer"]],
                         [m[:3] for m in tracer.LAYER_METRICS])
        names = [m["name"] for m in spec["end_to_end"]]
        self.assertIn("setup_s", names)


class TracerTests(unittest.TestCase):
    def test_spans_counts_and_self_time(self):
        field = GF(13)
        entry = W.tables.find_entry(4, (1, 1, 1, 1), 1)
        E = entry.template((), field)
        t = tracer.Tracer()
        t.install()
        try:
            # rebound in importing modules, restored afterwards
            self.assertIsNot(W.classify_mod.upper_series,
                             W.classify_mod.upper_series.__wrapped__)
            W.classify_mod.classify(E)  # outside an operation: no spans
            t.begin_op(0)
            W.classify_mod.classify(E)
            t.end_op()
        finally:
            t.uninstall()
        self.assertIs(W.classify_mod.upper_series,
                      sys.modules["evoalg.algebra"].upper_series)
        self.assertFalse(hasattr(linalg.Matrix.__mul__, "__wrapped__"))
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "spans.tsv"
            t.dump(path)
            agg = tracer.derive([path])
        self.assertEqual(agg["calls"]["op"], 1)
        self.assertEqual(agg["calls"]["classify.classify"], 1)
        self.assertGreater(agg["counts"]["fields.mul"], 0)
        total = t.span_end[0] - t.span_start[0]
        self.assertAlmostEqual(sum(agg["self_s"].values()), total, places=9)


class ContractTests(unittest.TestCase):
    def test_fails_without_printing_a_result_outside_a_checkout(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copytree(BENCH, Path(d) / "bench",
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", d)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload",
                 "classify_stream", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=d, capture_output=True, text=True,
                timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
