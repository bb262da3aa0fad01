"""Tests of the benchmark itself: oracles, the tail rule, self time, metric names.

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import numpy as np  # noqa: E402
from derivlab import (algebra, cli, derivation, get_algebra, identity_map,  # noqa: E402
                      regular_bimodule)

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class OracleTable(unittest.TestCase):
    def test_closed_forms(self):
        table = {
            ("matrix:2", "regular"): (3, 3), ("matrix:3", "dual"): (8, 8),
            ("upper-triangular:3", "regular"): (5, 5),
            ("upper-triangular:3", "dual"): (3, 3),
            ("upper-triangular:4", "dual"): (6, 6),
            ("zero-product:6", "regular"): (36, 0), ("zero-product:4", "dual"): (16, 0),
            ("dual-numbers", "regular"): (1, 0), ("dual-numbers", "dual"): (1, 0),
        }
        for (fixture, module), dims in table.items():
            self.assertEqual(workloads.verdict_dims(fixture, module), dims, fixture)

    def test_closed_forms_match_the_program_on_small_fixtures(self):
        for fixture in ("matrix:2", "upper-triangular:2", "upper-triangular:3",
                        "zero-product:4", "dual-numbers"):
            alg = get_algebra(fixture)
            sid = identity_map(alg)
            for module, verdict in (("regular", derivation.is_contractible),
                                    ("dual", derivation.is_amenable)):
                report = verdict(alg, regular_bimodule(alg), sid, sid)
                self.assertEqual((report.derivation_dim, report.inner_dim),
                                 workloads.verdict_dims(fixture, module), fixture)

    def test_expected_exit_codes(self):
        def exit_for(**config):
            config.setdefault("seed", 0)
            return workloads.expected_exit(
                workloads.Job("j", "run", config, fixture=config["fixture"]))

        self.assertEqual(exit_for(fixture="matrix:3", pipeline="contractibility"), 0)
        self.assertEqual(exit_for(fixture="zero-product:4", pipeline="amenability"), 2)
        self.assertEqual(exit_for(fixture="dual-numbers", pipeline="contractibility"), 2)
        self.assertEqual(exit_for(fixture="dual-numbers", pipeline="roundtrip"), 2)
        self.assertEqual(exit_for(fixture="zero-product:4", pipeline="roundtrip"), 2)
        self.assertEqual(exit_for(fixture="upper-triangular:3", pipeline="roundtrip"), 0)
        clamped = {"mode": "clamped", "control": workloads.CLAMP_CONTROL}
        self.assertEqual(exit_for(fixture="matrix:2", pipeline="hypotheses",
                                  perturbation={**clamped, "region_radius": 64.0}), 2)
        self.assertEqual(exit_for(fixture="matrix:2", pipeline="hypotheses",
                                  perturbation={**clamped, "region_radius": 1.0}), 0)

    def test_wrong_outcomes_fail_the_check(self):
        job = workloads.job_list("verdicts", 0)[0]
        self.assertEqual(job.label, "contractibility matrix:2 id")
        record = cli.run(cli.ExperimentConfig(**job.config))
        workloads.check(job, record)
        record.exit_code = 2
        with self.assertRaises(workloads.OracleError):
            workloads.check(job, record)
        record.exit_code = 0
        record.outputs["contractibility"]["inner_dim"] -= 1
        with self.assertRaises(workloads.OracleError):
            workloads.check(job, record)

    def test_job_lists_are_seeded(self):
        for workload in workloads.WORKLOADS:
            jobs = workloads.job_list(workload, 5)
            self.assertEqual(jobs, workloads.job_list(workload, 5))
            self.assertNotEqual(jobs, workloads.job_list(workload, 6))
            self.assertEqual(len({job.label for job in jobs}), len(jobs))


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        for count, want in ((20, 50.0), (24, 50.0), (25, 60.0), (39, 60.0), (40, 75.0), (99, 75.0),
                            (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0),
                            (10000, 99.9)):
            values = [float(v) for v in range(count)]
            pct, value = run.tail_percentile(values)
            self.assertEqual(pct, want, count)
            self.assertGreaterEqual(sum(v > value for v in values), run.TAIL_BEYOND, count)

    def test_percentile_is_chosen_from_the_basis(self):
        values = [float(v) for v in range(150)]
        pct, value = run.tail_percentile(values, basis=60)
        self.assertEqual((pct, value), (75.0, 112.0))
        self.assertGreaterEqual(sum(v > value for v in values), run.TAIL_BEYOND)

    def test_too_few_samples_fall_back_to_the_median(self):
        self.assertEqual(run.tail_percentile([3.0, 1.0, 2.0]), (50.0, 2.0))


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # job [0, 10] > run [1, 7] > svd [2, 5]; job > report [8, 9]
        spans = [["job", 0.0, 10.0, -1, 0, True], ["cli.run", 1.0, 7.0, 0, 0, True],
                 ["derivation.svd", 2.0, 5.0, 1, 0, True], ["cli.report", 8.0, 9.0, 0, 0, True]]
        self.assertEqual(tracer.self_times(spans), [3.0, 3.0, 3.0, 1.0])
        summary = tracer.summarize(spans)
        self.assertEqual(summary["self"]["cli.run"], 3.0)
        self.assertEqual(summary["busy"]["cli.run"], 6.0)
        self.assertAlmostEqual(summary["coverage_min"], 0.7)

    def test_same_name_nesting_is_busy_once(self):
        spans = [["derivation.verdict", 0.0, 4.0, -1, 0, True],
                 ["derivation.verdict", 1.0, 3.0, 0, 0, False]]
        summary = tracer.summarize(spans)
        self.assertEqual(summary["busy"]["derivation.verdict"], 4.0)
        self.assertEqual(summary["self"]["derivation.verdict"], 4.0)
        self.assertEqual(summary["calls"]["derivation.verdict"], 2)

    def test_wrappers_trace_a_job_and_are_removed(self):
        bindings = {name: vars(module).get("is_amenable")
                    for name, module in sys.modules.items() if name.startswith("derivlab")}
        svd, init = np.linalg.svd, algebra.FiniteAlgebra.__init__
        job = next(j for j in workloads.job_list("verdicts", 0)
                   if j.label == "amenability zero-product:4 id")
        t = tracer.Tracer()
        with tracer.instrumented(t):
            self.assertIsNot(np.linalg.svd, svd)
            self.assertIsNot(cli.is_amenable, bindings["derivlab.cli"])
            with t.job():
                workloads.execute(job, {})
        self.assertEqual(bindings, {name: vars(module).get("is_amenable")
                                    for name, module in sys.modules.items()
                                    if name.startswith("derivlab")})
        self.assertIs(np.linalg.svd, svd)
        self.assertIs(algebra.FiniteAlgebra.__init__, init)
        self.assertNotIn("__init__", vars(algebra.AlgebraElement))
        summary = tracer.summarize(t.spans)
        # is_amenable calls is_contractible; Der is a 64 x 16 system, Inner 16 x 4
        self.assertEqual(summary["calls"]["derivation.verdict"], 2)
        self.assertEqual(summary["calls"]["derivation.svd"], 2)
        self.assertEqual(t.counts["derivation.svd.in_elems"], 64 * 16 + 16 * 4)
        self.assertGreater(summary["coverage_min"], 0.9)


class MetricNames(unittest.TestCase):
    def test_end_to_end_metrics_match_the_benchmark_file(self):
        one = run.Pass()
        one.wall, one.cpu, one.job_times = 1.0, 1.5, [0.1, 0.2]
        metrics = run.end_to_end_metrics([0.3, 0.4], [one], 100.0)
        declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, declared)

    def test_per_layer_metrics_match_the_benchmark_file(self):
        one = run.Pass()
        one.wall, one.job_times = 1.0, [1.0]
        summary = tracer.summarize([])
        metrics = run.per_layer_metrics(summary, tracer.Counter(), [one], [one], 0)
        declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, declared)

    def test_workloads_match_the_benchmark_file(self):
        # sampling runs by hand only: see README.md
        self.assertEqual(tuple(w["name"] for w in BENCHMARK["workloads"]),
                         ("verdicts", "extraction"))
        self.assertEqual(run.WORKLOADS, workloads.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
