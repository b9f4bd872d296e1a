"""Benchmark of the wgqed CLI: timed end-to-end runs, or one traced round.

    python3 perfbench/run.py --workload run-shipped --seed 0 --seconds 35 --trace 0

Run from the repository root.  Every operation is one CLI invocation,
`wgqed.cli.main` in a fresh interpreter with `src` on the path and one
BLAS/OpenMP thread, started only after the previous one has ended (a
closed loop with one client).  Each written output is checked for
correctness and, across repeated runs of the same inputs, for
byte-identical content.

--trace 0 prints the end-to-end metrics.  Set-up time comes from nine
rounds of the invocations with t_end cut to one step.  Then the full
invocations run in turn, for at least one round and for as long as
--seconds allows.  Each timing is the sum over invocations of the median
of that invocation's samples.
--trace 1 prints the per-layer metrics of one traced round of the
invocations, next to one untraced round that gives the tracing overhead.

Lines before the last describe provenance, scenario shapes and each metric
with its sample count; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when every
operation passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference_peaks.json"

CLI_CODE = "import sys; from wgqed.cli import main; sys.exit(main())"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_ROUNDS = 9
DEADLINE_S = 170.0     # a run ends within 180 s
MIB = 1024.0           # ru_maxrss is in KiB on Linux


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Op:
    """One CLI invocation as measured and checked."""

    wall_s: float
    cpu_s: float
    rss_mib: float
    failures: list
    hashes: dict
    bytes_written: int
    out_dir: Path
    report: dict = None


def spawn(cmd: list, stderr_path: Path, timeout: float):
    """Run cmd to completion; returns (exit code, wall s, user+sys CPU s, max RSS MiB)."""
    start = time.perf_counter()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(max(timeout, 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child running
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / MIB


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Runs one workload's invocations and checks what they write."""

    def __init__(self, work: Path, deadline: float, reference: dict = None,
                 keep_outputs: bool = False):
        self.work = work
        self.deadline = deadline
        self.reference = reference or {}
        self.keep_outputs = keep_outputs
        self.expected_hashes = {}   # (variant, file name) -> digest of its first run
        self.op_count = 0

    def run_pass(self, variant: str, invocations: list, traced: bool = False) -> list:
        return [self.run_op(variant, inv, traced) for inv in invocations]

    def run_op(self, variant: str, inv, traced: bool = False) -> Op:
        """One CLI invocation writing to op<k>/; `variant` names inputs that must repeat."""
        self.op_count += 1
        op_dir = self.work / f"op{self.op_count}"
        out = op_dir / "out"
        out.mkdir(parents=True)
        report_path = op_dir / "trace.json"
        args = [inv.shape.command, str(inv.scenario), "--out-dir", str(out), "--quiet"]
        if traced:
            cmd = [sys.executable, str(HERE / "tracing.py"), str(report_path)] + args
        else:
            cmd = [sys.executable, "-c", CLI_CODE] + args
        stderr_path = op_dir / "stderr.txt"
        code, wall, cpu, rss = spawn(cmd, stderr_path, self.deadline - time.monotonic())

        failures = []
        if code != 0:
            tail = stderr_path.read_text(encoding="utf-8", errors="replace").strip()[-300:]
            failures.append(f"{inv.scenario.stem}: exit code {code}: {tail}")
        hashes = {}
        names = [n for pair in inv.outputs() for n in pair] + inv.aggregates()
        for name in names:
            if not (out / name).is_file():
                failures.append(f"{inv.scenario.stem}: missing output {name}")
            else:
                hashes[name] = sha256(out / name)
        if not failures:
            failures += self._check(variant, inv, out)
            for name, digest in hashes.items():
                first = self.expected_hashes.setdefault((variant, name), digest)
                if digest != first:
                    failures.append(f"{name}: differs from its first run (not deterministic)")
        report = None
        if traced and not failures:
            try:
                report = json.loads(report_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                failures.append(f"{inv.scenario.stem}: no trace report ({exc})")
        written = sum((out / n).stat().st_size for n in hashes)
        if not self.keep_outputs:
            shutil.rmtree(op_dir, ignore_errors=True)
        return Op(wall, cpu, rss, failures, hashes, written, out, report)

    def _check(self, variant: str, inv, out: Path) -> list:
        failures = []
        for csv_name, json_name in inv.outputs():
            failures += check.check_run(out / csv_name, out / json_name)
            reference = self.reference.get(json_name) if variant == "full" else None
            if reference is not None:
                time_tol = inv.shape.stride * workloads.DT + 1e-9
                failures += check.check_reference(out / json_name, reference, time_tol)
        if inv.aggregates():
            summaries = [out / json_name for _, json_name in inv.outputs()]
            failures += check.check_aggregate(*(out / n for n in inv.aggregates()), inv.ratios,
                                              summaries)
        return failures


def provenance(workload: str, seed: int) -> dict:
    info = {"workload": workload, "seed": seed, "nproc": len(os.sched_getaffinity(0)),
            "child_thread_env": THREAD_ENV, "git_sha": None, "git_dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                               text=True, timeout=30)
        if sha.returncode == 0:
            info["git_sha"] = sha.stdout.strip()
            info["git_dirty"] = bool(dirty.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass  # not a git checkout: the SHA stays unknown
    probe = (
        "import json, sys, numpy\n"
        "try:\n"
        "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']['name']\n"
        "except Exception:\n"
        "    blas = 'unknown'\n"
        "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,"
        " 'blas': blas}))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True,
                         text=True, timeout=60)
    info.update(json.loads(out.stdout) if out.returncode == 0 else {"python": sys.version.split()[0]})
    return info


def sample(runner: Runner, variant: str, invocations: list, rounds: int, seconds: float,
           started: float) -> list:
    """Invocations in turn: `rounds` full rounds, then more while the next one is
    expected to end within `seconds`.  Returns each invocation's list of ops."""
    samples = [[] for _ in invocations]
    begin = time.monotonic()
    k = 0
    while True:
        i = k % len(invocations)
        samples[i].append(runner.run_op(variant, invocations[i]))
        k += 1
        upcoming = samples[k % len(invocations)] or samples[i]
        guess = statistics.median(op.wall_s for op in upcoming)
        now = time.monotonic()
        if k >= rounds * len(invocations) and (
            now - begin + guess > seconds or now - started + guess > DEADLINE_S
        ):
            return samples


def median_sum(samples: list, attr: str) -> float:
    """Sum over invocations of each one's median."""
    return sum(statistics.median(getattr(op, attr) for op in ops) for ops in samples)


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float, started: float):
    setup_invs = workloads.write_workload(workload, seed, runner.work / "setup",
                                          t_end=workloads.DT)
    full_invs = workloads.write_workload(workload, seed, runner.work / "full")
    setup = sample(runner, "setup", setup_invs, SETUP_ROUNDS, 0.0, started)
    timed = sample(runner, "full", full_invs, 1, seconds, started)
    wall = median_sum(timed, "wall_s")
    n = min(len(ops) for ops in timed)
    metrics = {
        "wall_s": (wall, "s", n),
        "setup_s": (median_sum(setup, "wall_s"), "s", SETUP_ROUNDS),
        "cpu_s": (median_sum(timed, "cpu_s"), "s", n),
        "peak_rss_mb": (max(statistics.median(op.rss_mib for op in ops) for ops in timed), "MiB", n),
        "steps_per_s": (sum(inv.steps for inv in full_invs) / wall, "1/s", n),
    }
    return metrics, [op for ops in setup + timed for op in ops]


def _span(spans: dict, name: str, key: str):
    return sum(s.get(name, {}).get(key, 0) for s in spans)


def per_layer(untraced: list, traced: list) -> tuple:
    """Per-layer metrics of a traced round, and the names of wrapped attributes
    this version of wgqed lacks; a metric that needs an absent one is left out."""
    reports = [op.report for op in traced]
    spans = [r["spans"] for r in reports]
    absent = sorted({a for r in reports for a in r["absent"]})
    integrations = [i for r in reports for i in r["integrations"]]
    metrics = {}

    def put(name, needs, value, unit, n=len(reports)):
        if any(a in absent for a in needs):
            return
        metrics[name] = (value, unit, n)

    derivative_calls = _span(spans, "hierarchy.derivative", "count")
    derivative_s = _span(spans, "hierarchy.derivative", "total_s")
    compile_needs = ["integrator.HierarchyPropagator"]
    put("scenario.load_s", ["cli.load_scenario"], _span(spans, "scenario.load", "total_s"), "s")
    put("hierarchy.compile_s", compile_needs, _span(spans, "hierarchy.compile", "total_s"), "s")
    derivative_needs = compile_needs + ["HierarchyPropagator.derivative"]
    put("hierarchy.derivative_calls", derivative_needs, derivative_calls, "count")
    put("hierarchy.derivative_s", derivative_needs, derivative_s, "s")
    put("hierarchy.derivative_us_per_call", derivative_needs,
        1e6 * derivative_s / max(derivative_calls, 1), "us", derivative_calls)
    put("pulse.amplitude_calls", ["integrator.amplitude"],
        _span(spans, "pulse.amplitude", "count"), "count")
    put("pulse.amplitude_s", ["integrator.amplitude"], _span(spans, "pulse.amplitude", "total_s"), "s")

    shape_needs = ["cli.integrate", "integrate result layout"]
    put("integrator.steps", shape_needs, sum(i["steps"] for i in integrations), "count")
    put("integrator.integrate_s", ["cli.integrate"],
        _span(spans, "integrator.integrate", "total_s"), "s")
    put("integrator.self_s", ["cli.integrate"], _span(spans, "integrator.integrate", "self_s"), "s")
    lengths = sorted({i["state_len"] for i in integrations})
    if lengths:
        for rank, length in (("min", lengths[0]), ("mid", lengths[len(lengths) // 2]),
                             ("max", lengths[-1])):
            group = [i for i in integrations if i["state_len"] == length]
            put(f"hierarchy.state_len.{rank}", shape_needs, length, "count", len(group))
            put(f"integrator.us_per_step.{rank}", shape_needs,
                1e6 * sum(i["seconds"] for i in group) / sum(i["steps"] for i in group), "us",
                len(group))
    per_op_mb = [
        sum(i["records"] * i["state_len"] * 16 for i in r["integrations"]) / 1e6 for r in reports
    ]
    put("integrator.snapshot_mb", shape_needs, max(per_op_mb), "MB-computed")
    put("observables.records", shape_needs, sum(i["records"] for i in integrations), "count")
    put("observables.build_self_s", ["cli.build_trajectory"],
        _span(spans, "observables.build_trajectory", "self_s"), "s")
    for short, span, attr in (("concurrence", "entanglement.concurrence", "wootters_concurrence"),
                              ("fill", "entanglement.fill", "concurrence_fill")):
        needs = [f"observables.{attr}"]
        put(f"entanglement.{short}_calls", needs, _span(spans, span, "count"), "count")
        put(f"entanglement.{short}_s", needs, _span(spans, span, "total_s"), "s")
    put("cli.self_s", ["cli.run", "cli.sweep"],
        _span(spans, "cli.run", "self_s") + _span(spans, "cli.sweep", "self_s"), "s")
    put("cli.bytes_written", [], sum(op.bytes_written for op in traced), "B")
    sweeps = _span(spans, "cli.sweep", "count")
    ratio_total = _span(spans, "cli.simulate_scenario", "total_s") if sweeps else 0.0
    ratio_count = _span(spans, "cli.simulate_scenario", "count") if sweeps else 0
    sweep_total = _span(spans, "cli.sweep", "total_s")
    sweep_needs = ["cli.sweep", "cli.simulate_scenario"]
    put("cli.sweep_ratio_span_s", sweep_needs, ratio_total / max(ratio_count, 1), "s", ratio_count)
    put("cli.sweep_overlap", sweep_needs, ratio_total / sweep_total if sweeps else 0.0, "ratio",
        sweeps)
    overhead = sum(op.wall_s for op in traced) - sum(op.wall_s for op in untraced)
    put("trace.overhead_s", [], overhead, "s", 1)
    return metrics, absent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help=f"workload seed; {workloads.DEFAULT_SEED} uses the shipped physics")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="time budget of the full invocations (one round runs at least)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "wgqed" / "cli.py").is_file():
        print(f"error: no wgqed sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    reference = {}
    if args.seed == workloads.DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(args.workload, {})

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        runner = Runner(work, started + DEADLINE_S, reference)
        info = provenance(args.workload, args.seed)
        if args.trace:
            invs = workloads.write_workload(args.workload, args.seed, work / "full")
            untraced = runner.run_pass("full", invs)
            traced = runner.run_pass("full", invs, traced=True)
            ops = untraced + traced
            metrics, absent = ({}, []) if any(op.failures for op in traced) else per_layer(
                untraced, traced)
        else:
            metrics, ops = end_to_end(runner, args.workload, args.seed, args.seconds, started)
            absent = []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for op in ops for f in op.failures]
    failed = sum(1 for op in ops if op.failures)
    print("provenance " + json.dumps(info, sort_keys=True))
    for shape in workloads.WORKLOADS[args.workload]:
        print(f"shape {shape.stem}: wgqed {shape.command}, {shape.n_emitters} emitters, "
              f"n_ph {shape.n_photons}, state_len {shape.state_len}, "
              f"{round(workloads.T_END / workloads.DT)} steps x {shape.n_ratios} ratios, "
              f"stride {shape.stride}")
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (n = {n})")
    for name in absent:
        print(f"absent {name}: not in this version of wgqed; dependent metrics omitted")
    for message in failures:
        print(f"FAIL {message}")
    print(f"operations attempted {len(ops)}, failed {failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
