"""Self-tests for the benchmark's metric math.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
import metrics  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        self.assertEqual(metrics.percentile([5, 1, 3], 50), 3)
        self.assertEqual(metrics.percentile([5, 1, 3], 90), 5)
        self.assertEqual(metrics.percentile([7], 90), 7)
        self.assertEqual(metrics.percentile([], 90), 0.0)

    def test_samples_beyond(self):
        xs = list(range(1, 101))
        self.assertEqual(metrics.percentile(xs, 90), 90)
        self.assertEqual(metrics.samples_beyond(xs, 90), 10)
        self.assertEqual(metrics.samples_beyond(xs, 95), 5)

    def test_p90_has_ten_samples_beyond_from_100_samples(self):
        self.assertEqual(metrics.samples_beyond(list(range(1, 100)), 90), 9)
        self.assertEqual(metrics.samples_beyond(list(range(1, 101)), 90), 10)
        self.assertEqual(metrics.samples_beyond(list(range(1, 1001)), 99), 10)
        self.assertEqual(metrics.samples_beyond([1.0, 2.0, 3.0], 90), 0)

    def test_ties_do_not_count_as_beyond(self):
        self.assertEqual(metrics.samples_beyond([1.0] * 50, 50), 0)


class Spread(unittest.TestCase):
    def test_quartile_spread_matches_statistics_quantiles(self):
        xs = [1, 2, 3, 4, 5, 6, 7, 8, 9]
        q1, _, q3 = statistics.quantiles(xs, n=4)
        self.assertEqual((q1, q3), (2.5, 7.5))
        self.assertAlmostEqual(metrics.quartile_spread(xs), 1.0)

    def test_constant_samples_have_no_spread(self):
        self.assertEqual(metrics.quartile_spread([2.0] * 10), 0.0)

    def test_spread_is_scale_free(self):
        xs = [9.1, 9.3, 9.8, 9.4, 10.2, 9.0, 9.6, 9.5, 9.2, 9.9]
        scaled = [100 * x for x in xs]
        self.assertAlmostEqual(metrics.quartile_spread(xs), metrics.quartile_spread(scaled))


class Ratios(unittest.TestCase):
    def test_zero_base(self):
        self.assertEqual(metrics.ratio(0, 0), 0.0)
        self.assertEqual(metrics.ratio(3, 0), 0.0)
        self.assertEqual(metrics.ratio(3, 4), 0.75)

    def test_hit_rate_without_lookups(self):
        m = metrics.traced_layers({"wall_s": 1.0, "cell_hits": 0, "cell_lookups": 0})
        self.assertEqual(m["cache.cell_hit_rate"], 0.0)
        self.assertEqual(m["cache.opt_hit_rate"], 0.0)

    def test_decision_ratio(self):
        # The 2-day tournament trace: ~1.2% decision epochs per span.
        self.assertAlmostEqual(metrics.decision_ratio(149_229, 12_237_040), 0.012195, places=6)
        self.assertEqual(metrics.decision_ratio(5, 0), 0.0)

    def test_pool_utilization(self):
        # 4 s of cell time in a 2.5 s phase on 2 workers: 80% busy.
        self.assertAlmostEqual(metrics.pool_utilization(4.0, 2500.0, 2), 0.8)
        self.assertEqual(metrics.pool_utilization(0.0, 0.0, 2), 0.0)


class Layers(unittest.TestCase):
    RECORD = {
        "wall_s": 1.0, "generate_ms": 10.0, "infra_ms": 1.0, "key_ms": 2.0,
        "cache_open_ms": 0.5, "load_us": [100.0, 300.0], "store_us": [200.0],
        "solve_ms": [400.0, 100.0], "verify_ms": [5.0, 5.0],
        "opt_states": [120, 66], "opt_boundaries": [1000, 1000],
        "event_cell_ms": [10.0, 30.0], "per_second_cell_ms": [60.0, 100.0],
        "cells_wall_ms": 300.0, "event_segments": 4000, "event_epochs": 40,
        "journal_ms": 0.1, "append_us": [2.0, 4.0], "append_bytes": 800,
        "render_us": [10.0, 30.0], "artifact_io_ms": 0.2, "aggregate_ms": 0.1,
        "cell_hits": 1, "cell_lookups": 4, "opt_hits": 0, "opt_lookups": 2,
    }

    def test_layer_metrics(self):
        m = metrics.traced_layers(self.RECORD)
        self.assertEqual(m["opt.solve_ms"], 500.0)
        self.assertEqual(m["opt.solve_ms_max"], 400.0)
        self.assertAlmostEqual(m["opt.ns_per_state_boundary"], 500e6 / (186 * 1000))
        self.assertEqual(m["engine.event_cell_ms_p50"], 20.0)
        self.assertEqual(m["engine.per_second_cell_ms_max"], 100.0)
        self.assertAlmostEqual(m["engine.cells_cpu_s"], 0.2)
        self.assertAlmostEqual(m["engine.event_speedup"], 4.0)
        self.assertAlmostEqual(m["engine.ns_per_segment"], 40e6 / 4000)
        self.assertAlmostEqual(m["engine.decision_ratio"], 0.01)
        self.assertEqual(m["cache.cell_hit_rate"], 0.25)
        self.assertEqual(m["journal.bytes_per_cell"], 400.0)
        self.assertEqual(m["artifact.render_us_per_cell"], 20.0)

    def test_shares_add_up_to_one(self):
        m = metrics.traced_layers(self.RECORD)
        shares = [v for k, v in m.items() if k.startswith("share.")]
        self.assertAlmostEqual(sum(shares), 1.0)
        self.assertAlmostEqual(m["share.engine"], 0.3)
        self.assertAlmostEqual(m["share.opt"], 0.51)

    def test_absent_layers_read_zero(self):
        m = metrics.traced_layers({"wall_s": 2.0, "bml_ms": 50.0, "event_segments": 1000})
        self.assertEqual(m["opt.solves"], 0)
        self.assertEqual(m["engine.event_cell_ms_p50"], 0.0)
        # fig5 has no grid cells: the BML scenario is the event-driven engine.
        self.assertAlmostEqual(m["engine.ns_per_segment"], 50e6 / 1000)

    def test_tracing_overhead(self):
        measured = {"wall_s": [2.0, 2.0, 2.2], "threads": 2, "phase_cells_ms": [150.0],
                    "traced": [dict(self.RECORD, wall_s=2.1)]}
        m = metrics.per_layer(measured, {"attempted": 10, "failed": 1, "max_rel_err": 0.0})
        self.assertAlmostEqual(m["tracing.overhead_frac"], 0.05)
        self.assertAlmostEqual(m["check.error_rate"], 0.1)
        self.assertAlmostEqual(m["pool.utilization"], 0.2 / (0.15 * 2))


class Manifest(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        manifest = BENCH.parent / "BENCHMARK.json"
        if not manifest.exists():
            self.skipTest("no BENCHMARK.json next to the benchmark")
        spec = json.loads(manifest.read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], metrics.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], metrics.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
