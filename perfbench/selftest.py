"""Self-test of the benchmark harness on a tiny grid.

    python3 perfbench/selftest.py

Run from the repository root.  It covers the workload generators, the
correctness checker (including corrupted outputs it must reject), the
span self-time arithmetic and the per-layer and tracing-overhead sums.
The CLI runs here take two RK4 steps each, so the whole test takes seconds.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import threading
import time
import types
import unittest
from pathlib import Path

import numpy as np

import check
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))
from wgqed.scenario import build_scenario, parse_scenario_text  # noqa: E402

TINY = {"t_end": 2 * workloads.DT}
SHIPPED = {
    "one_emitter": "one_emitter_chirality_sweep.cfg",
    "two_emitter": "two_emitter_chirality_sweep.cfg",
    "three_emitter": "three_emitter_chirality_sweep.cfg",
    "three_emitter_lossy": "three_emitter_lossy_sweep.cfg",
    "three_emitter_detuned": "three_emitter_detuned_sweep.cfg",
    "three_emitter_sweep": "three_emitter_chirality_sweep.cfg",
    "two_emitter_dense": "two_emitter_chirality_sweep.cfg",
    "three_emitter_lossy_dense": "three_emitter_lossy_sweep.cfg",
}


def scenario_of(workload, shape, seed, **grid):
    return build_scenario(parse_scenario_text(workloads.scenario_text(workload, shape, seed, **grid)))


def physics(sc):
    em = sc.chain.emitters
    return ([e.gamma_r for e in em], [e.gamma_spont for e in em], [e.delta for e in em],
            sc.chain.d_ratio, sc.chain.k0d, sc.pulse, sc.sweep_ratios)


class TempDir(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class WorkloadTest(unittest.TestCase):
    def test_cost_keys_are_fixed_and_physics_follow_the_seed(self):
        for name, shapes in workloads.WORKLOADS.items():
            for shape in shapes:
                base = scenario_of(name, shape, workloads.DEFAULT_SEED)
                for seed in (1, 2, 17):
                    sc = scenario_of(name, shape, seed)
                    self.assertEqual((sc.n_emitters, sc.n_photons), (shape.n_emitters, shape.n_photons))
                    self.assertEqual((sc.integrator.dt, sc.integrator.t_end, sc.integrator.record_stride),
                                     (workloads.DT, workloads.T_END, shape.stride))
                    self.assertEqual(len(sc.sweep_ratios or [1]), shape.n_ratios)
                    self.assertNotEqual(physics(sc), physics(base), f"{name}/{shape.stem}/{seed}")
                    self.assertEqual(shape.lossy, any(e.gamma_spont > 0 for e in sc.chain.emitters))
                    self.assertEqual(physics(sc), physics(scenario_of(name, shape, seed)))

    def test_default_seed_uses_the_shipped_physics(self):
        for name, shapes in workloads.WORKLOADS.items():
            for shape in shapes:
                shipped_path = run.ROOT / "scenarios" / SHIPPED[shape.stem]
                shipped = build_scenario(parse_scenario_text(shipped_path.read_text()))
                ours = scenario_of(name, shape, workloads.DEFAULT_SEED)
                if shape.command == "run":
                    shipped = shipped.with_ratio(1.0)  # `wgqed run` keeps gamma_r = gamma_l = 1
                self.assertEqual(physics(ours), physics(shipped), f"{name}/{shape.stem}")

    def test_populations_partition_the_basis(self):
        for n in (1, 2, 3):
            states = [s for label in workloads.excitation_classes(n) for s in label.split("+")]
            self.assertEqual(len(states), 2 ** n)
            self.assertEqual(len(set(states)), 2 ** n)

    def test_state_lengths(self):
        lengths = {s.stem: s.state_len for shapes in workloads.WORKLOADS.values() for s in shapes}
        self.assertEqual([lengths[k] for k in ("one_emitter", "two_emitter", "three_emitter")],
                         [40, 160, 640])
        self.assertEqual([lengths["two_emitter_dense"], lengths["three_emitter_lossy_dense"]], [48, 192])


class TinyGridTest(TempDir):
    def test_every_workload_passes_checks_and_repeats_byte_for_byte(self):
        for name in workloads.WORKLOADS:
            invs = workloads.write_workload(name, 5, self.dir / name, **TINY)
            runner = run.Runner(self.dir / name, time.monotonic() + 120)
            untraced = runner.run_pass("full", invs)
            traced = runner.run_pass("full", invs, traced=True)
            for op in untraced + traced:
                self.assertEqual(op.failures, [], name)
            self.assertEqual([op.hashes for op in untraced], [op.hashes for op in traced])
            metrics, absent = run.per_layer(untraced, traced)
            self.assertEqual(absent, [])
            self.assertEqual(metrics["integrator.steps"][0], sum(inv.steps for inv in invs))
            self.assertEqual(metrics["hierarchy.state_len.max"][0],
                             max(inv.shape.state_len for inv in invs))
            self.assertEqual(metrics["hierarchy.derivative_calls"][0], 4 * metrics["integrator.steps"][0])

    def test_a_changed_output_fails_the_determinism_check(self):
        invs = workloads.write_workload("record-dense", 5, self.dir, **TINY)
        runner = run.Runner(self.dir, time.monotonic() + 120)
        runner.run_pass("full", invs)
        key = ("full", invs[0].outputs()[0][0])
        runner.expected_hashes[key] = "0" * 64
        fails = runner.run_pass("full", invs)[0].failures
        self.assertTrue(any("not deterministic" in f for f in fails), fails)


class CheckerTest(TempDir):
    def setUp(self):
        super().setUp()
        invs = workloads.write_workload("run-shipped", 5, self.dir, **TINY)
        runner = run.Runner(self.dir, time.monotonic() + 120, keep_outputs=True)
        ops = runner.run_pass("full", invs[1:4])
        self.assertEqual([op.failures for op in ops], [[]] * 3)
        self.out = {inv.scenario.stem: op.out_dir for inv, op in zip(invs[1:4], ops)}

    def files(self, stem):
        return self.out[stem] / f"{stem}.csv", self.out[stem] / f"{stem}_summary.json"

    def corrupt(self, stem, column, edit):
        csv_path, json_path = self.files(stem)
        lines = csv_path.read_text().splitlines()
        col = lines[0].split(",").index(column)
        cells = lines[-1].split(",")
        cells[col] = edit(float(cells[col]))
        lines[-1] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        return check.check_run(csv_path, json_path)

    def test_good_outputs_pass(self):
        for stem in ("two_emitter", "three_emitter", "three_emitter_lossy"):
            self.assertEqual(check.check_run(*self.files(stem)), [])

    def test_out_of_range_population_is_rejected(self):
        self.assertTrue(self.corrupt("two_emitter", "P_ee", lambda v: "1.5"))

    def test_non_finite_value_is_rejected(self):
        self.assertTrue(self.corrupt("three_emitter", "fill", lambda v: "nan"))

    def test_lossless_trace_drift_is_rejected(self):
        fails = self.corrupt("three_emitter", "P_ggg", lambda v: repr(v - 1e-6))
        self.assertTrue(any("trace" in f for f in fails), fails)

    def test_rising_lossy_trace_is_rejected(self):
        fails = self.corrupt("three_emitter_lossy", "P_ggg", lambda v: repr(v + 1e-6))
        self.assertTrue(any("trace rises" in f for f in fails), fails)

    def test_wrong_pulse_intensity_is_rejected(self):
        fails = self.corrupt("two_emitter", "pulse_intensity", lambda v: repr(v * 1.001))
        self.assertTrue(any("pulse_intensity" in f for f in fails), fails)

    def test_missing_population_class_is_rejected(self):
        csv_path, json_path = self.files("two_emitter")
        lines = [",".join(line.split(",")[:1] + line.split(",")[2:])
                 for line in csv_path.read_text().splitlines()]
        csv_path.write_text("\n".join(lines) + "\n")
        self.assertTrue(any("partition" in f for f in check.check_run(csv_path, json_path)))

    def test_reference_mismatch_is_rejected(self):
        _, json_path = self.files("two_emitter")
        peaks = json.loads(json_path.read_text())["peaks"]
        self.assertEqual(check.check_reference(json_path, peaks, 0.0), [])
        peaks["concurrence"] = dict(peaks["concurrence"], value=peaks["concurrence"]["value"] + 1e-3)
        self.assertTrue(check.check_reference(json_path, peaks, 0.0))


class ReferenceTest(TempDir):
    PEAKS = {"concurrence": {"value": 2.5e-8, "time": 1.91},  # roundoff
             "P_ee": {"value": 0.0, "time": 0.0},             # all zeros
             "P_eg+ge": {"value": 0.42, "time": 6.2}}

    def check(self, peaks):
        path = self.dir / "x_summary.json"
        path.write_text(json.dumps({"peaks": peaks}))
        return check.check_reference(path, self.PEAKS, 0.01 + 1e-9)

    def test_noise_level_peaks_may_move_in_time(self):
        peaks = json.loads(json.dumps(self.PEAKS))
        peaks["concurrence"] = {"value": 3.1e-8, "time": 0.4}
        peaks["P_ee"] = {"value": 1e-17, "time": 7.3}
        peaks["P_eg+ge"]["time"] = 6.21
        self.assertEqual(self.check(peaks), [])

    def test_a_real_peak_that_moves_in_time_is_rejected(self):
        peaks = json.loads(json.dumps(self.PEAKS))
        peaks["P_eg+ge"]["time"] = 6.3
        self.assertTrue(any("P_eg+ge" in f for f in self.check(peaks)))

    def test_a_noise_level_value_is_still_compared(self):
        peaks = json.loads(json.dumps(self.PEAKS))
        peaks["P_ee"]["value"] = 1e-6
        self.assertTrue(any("P_ee" in f for f in self.check(peaks)))


class SweepAggregateTest(TempDir):
    def setUp(self):
        super().setUp()
        self.inv, = workloads.write_workload("sweep-3e", 5, self.dir, **TINY)
        runner = run.Runner(self.dir, time.monotonic() + 120, keep_outputs=True)
        op = runner.run_op("full", self.inv)
        self.assertEqual(op.failures, [])
        self.agg_csv, self.agg_json = (op.out_dir / n for n in self.inv.aggregates())
        self.summaries = [op.out_dir / j for _, j in self.inv.outputs()]

    def check(self):
        return check.check_aggregate(self.agg_csv, self.agg_json, self.inv.ratios, self.summaries)

    def test_good_aggregate_passes(self):
        self.assertEqual(self.check(), [])

    def test_ratios_paired_with_the_wrong_peaks_are_rejected(self):
        agg = json.loads(self.agg_json.read_text())
        keys = [f"{r:g}" for r in self.inv.ratios]
        by_ratio = agg["peaks_by_ratio"]
        by_ratio[keys[0]], by_ratio[keys[1]] = by_ratio[keys[1]], by_ratio[keys[0]]
        self.agg_json.write_text(json.dumps(agg))
        self.assertTrue(any("differ from its summary" in f for f in self.check()))

    def test_a_changed_aggregate_csv_cell_is_rejected(self):
        lines = self.agg_csv.read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = repr(float(cells[1]) + 1e-3)
        lines[2] = ",".join(cells)
        self.agg_csv.write_text("\n".join(lines) + "\n")
        self.assertTrue(any("_max of ratio" in f for f in self.check()))

    def test_misordered_aggregate_rows_are_rejected(self):
        lines = self.agg_csv.read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        self.agg_csv.write_text("\n".join(lines) + "\n")
        self.assertTrue(any("rows hold ratios" in f for f in self.check()))


class SpanArithmeticTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        # root 0 [0, 10]; children 1 [1, 4] and 2 [2, 5] overlap (two threads),
        # 3 [7, 8]; grandchild 4 [1.5, 2.5] under span 1.
        ids = np.array([4, 1, 2, 3, 0])
        parents = np.array([1, 0, 0, 0, -1])
        starts = np.array([1.5, 1.0, 2.0, 7.0, 0.0])
        ends = np.array([2.5, 4.0, 5.0, 8.0, 10.0])
        own = dict(zip(ids.tolist(), tracing.self_times(ids, parents, starts, ends).tolist()))
        self.assertEqual(own, {0: 10.0 - 5.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0})

    def test_covered_length(self):
        self.assertEqual(tracing.covered_length(np.array([3.0, 0.0, 1.0]), np.array([4.0, 2.0, 1.5])), 3.0)
        self.assertEqual(tracing.covered_length(np.array([]), np.array([])), 0.0)

    def test_threads_parent_to_the_outermost_span(self):
        tracer = tracing.Tracer()
        leaf = tracer.wrap(lambda: time.sleep(0.01), "leaf")

        def fan_out():
            workers = [threading.Thread(target=leaf) for _ in range(3)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=10)
            self.assertFalse(any(w.is_alive() for w in workers))

        tracer.wrap(fan_out, "root")()
        ids, names, parents, starts, ends = tracer.arrays()
        root = ids[names == tracer.names.index("root")][0]
        self.assertTrue(np.all(parents[names == tracer.names.index("leaf")] == root))
        summary = tracer.summary()
        self.assertEqual(summary["leaf"]["count"], 3)
        # parallel children cover less than the sum of their durations
        self.assertGreater(summary["root"]["self_s"],
                           summary["root"]["total_s"] - summary["leaf"]["total_s"])

    def test_missing_attributes_are_absent_not_fatal(self):
        fake = types.ModuleType("fakewg")
        fake_cli = types.ModuleType("fakewg.cli")
        fake_cli.run = lambda: None
        sys.modules.update({"fakewg": fake, "fakewg.cli": fake_cli})
        try:
            report = tracing.install(tracing.Tracer(), package="fakewg")
        finally:
            del sys.modules["fakewg"], sys.modules["fakewg.cli"]
        self.assertNotIn("cli.run", report["absent"])
        self.assertIn("cli.sweep", report["absent"])
        self.assertIn("integrator.HierarchyPropagator", report["absent"])

    def test_per_layer_sums_and_tracing_overhead(self):
        def span(count, total, own):
            return {"count": count, "total_s": total, "self_s": own}

        report = {
            "absent": [],
            "integrations": [{"state_len": 640, "records": 1201, "steps": 12000, "seconds": 3.0}] * 2,
            "spans": {"cli.sweep": span(1, 5.0, 0.5), "cli.simulate_scenario": span(2, 8.0, 0.0),
                      "hierarchy.derivative": span(96000, 4.8, 4.8),
                      "integrator.integrate": span(2, 6.0, 1.0)},
        }
        traced = [run.Op(7.5, 9.0, 100.0, [], {}, 1000, Path("."), report)]
        untraced = [run.Op(7.0, 9.0, 100.0, [], {}, 1000, Path("."))]
        metrics, absent = run.per_layer(untraced, traced)
        value = {k: v[0] for k, v in metrics.items()}
        self.assertEqual(absent, [])
        self.assertAlmostEqual(value["trace.overhead_s"], 0.5)
        self.assertAlmostEqual(value["cli.sweep_overlap"], 8.0 / 5.0)
        self.assertAlmostEqual(value["cli.sweep_ratio_span_s"], 4.0)
        self.assertAlmostEqual(value["integrator.us_per_step.max"], 250.0)
        self.assertAlmostEqual(value["hierarchy.derivative_us_per_call"], 50.0)
        self.assertAlmostEqual(value["integrator.snapshot_mb"], 2 * 1201 * 640 * 16 / 1e6)
        self.assertEqual(value["integrator.steps"], 24000)
        self.assertEqual(value["entanglement.fill_calls"], 0)

        report["absent"] = ["integrator.HierarchyPropagator"]
        metrics, absent = run.per_layer(untraced, traced)
        self.assertEqual(absent, ["integrator.HierarchyPropagator"])
        self.assertNotIn("hierarchy.compile_s", metrics)
        self.assertNotIn("hierarchy.derivative_calls", metrics)
        self.assertIn("integrator.steps", metrics)


if __name__ == "__main__":
    unittest.main()
