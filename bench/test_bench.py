"""Self-test of the benchmark at a tiny size.

Run from the root of a checkout with ``python3 bench/test_bench.py`` (or
``python3 -m pytest bench/test_bench.py``).  It checks that every metric is
emitted with its unit, that no check fails at a correct commit, and that a
planted wrong result (one dropped row) is caught and counted.
"""

from __future__ import annotations

import contextlib
import io
import sys
import unittest
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from minicypher import cli, oracle  # noqa: E402
from minicypher.tables import Table  # noqa: E402

TINY = workloads.Size(nodes=40, out_degree=2, chain=6)
SEED = 1  # not the default seed: the pinned digests are for full-size graphs
SECONDS = 0.2


def tiny(fn):
    """Run ``fn`` with the query workloads scaled down to TINY, quietly."""
    def wrapper(*args):
        with mock.patch.object(workloads.Lookup, "size", TINY), \
                mock.patch.object(workloads.Bulk, "size", TINY), \
                mock.patch.object(workloads.Differential, "warm_up_cases", 5), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return fn(*args)
    return wrapper


def drop_last_row_tsv(t: Table) -> str:
    text = REAL_RENDER_TSV(t)
    lines = text.splitlines(keepends=True)
    return "".join(lines[:-1]) if len(lines) > 1 else text


def drop_one_row(t: Table) -> Table:
    out = Table(t.fields)
    dropped = False
    for record, count in t.rows():
        if not dropped:
            dropped = True
            count -= 1
        if count:
            out.add(record, count)
    return out


REAL_RENDER_TSV = cli.render_tsv
REAL_ORACLE_OUTPUT = oracle.oracle_output


class BenchmarkSelfTest(unittest.TestCase):
    @tiny
    def test_every_metric_is_emitted_with_its_unit_and_nothing_fails(self):
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=name, trace=trace):
                    result = run.run_workload(name, SEED, SECONDS, trace)
                    expected = run.units("per_layer" if trace else "end_to_end")
                    self.assertEqual(set(result["metrics"]), set(expected))
                    for metric, entry in result["metrics"].items():
                        self.assertEqual(entry["unit"], expected[metric])
                        self.assertIsInstance(entry["value"], float)
                    self.assertEqual(result["failed"], 0)
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)

    @tiny
    def test_a_dropped_row_is_caught_and_counted(self):
        plants = {
            "lookup": (cli, "render_tsv", drop_last_row_tsv),
            "bulk": (cli, "render_tsv", drop_last_row_tsv),
            "differential": (oracle, "oracle_output",
                             lambda *args: drop_one_row(REAL_ORACLE_OUTPUT(*args))),
        }
        for name, (module, attr, planted) in plants.items():
            with self.subTest(workload=name), mock.patch.object(module, attr, planted):
                result = run.run_workload(name, SEED, SECONDS, False)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLessEqual(result["failed"], result["attempted"])

    def test_the_tracer_computes_exactly_the_per_layer_metrics(self):
        metrics = tracing.Tracer().metrics(1, 1.0)
        self.assertEqual(list(metrics), list(run.units("per_layer")))

    def test_the_clock_scales_by_the_probe_around_the_work(self):
        probe_times = iter([2, 2, 4])
        with mock.patch.object(calibrate, "probe_seconds",
                               lambda duration: next(probe_times) * calibrate.REFERENCE_S):
            clock = calibrate.Clock()
            self.assertEqual(clock.scale(0.1), 0.5)  # probe at half speed before and after
            self.assertAlmostEqual(clock.scale(0.1), 1 / 3)  # half speed, then quarter
        self.assertEqual(clock.slowdowns, [2, 3])
        self.assertEqual(clock.median_slowdown(), 2.5)

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(1000), 90)
        for n in (30, 50, 99):
            q = run.tail_percentile(n)
            self.assertGreaterEqual(n * (100 - q) / 100, 10)


if __name__ == "__main__":
    unittest.main()
