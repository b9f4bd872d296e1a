"""The sweep's forked workers: same bytes as plain runs and as a serial
sweep, ratio order in the output, blow-ups reported in sweep order, no
process left behind, and errors that cross the process boundary."""

import os
import pickle
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from wgqed import cli
from wgqed.cli import OutputError, main, simulate_scenario
from wgqed.hierarchy import HierarchyPropagator
from wgqed.integrator import IntegrationBlowUpError
from wgqed.scenario import ScenarioError, load_scenario
from test_scenario_cli import SRC_DIR, TINY, write

# ratio 1000 exceeds the integrator's step range at t = 0; ratios up to 2 do not
COARSE = """
n_emitters = 1
integrator.dt = 0.1
integrator.t_end = 2.0
"""


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_shares(monkeypatch):
    """Deal every sweep into two shares, one of them forked, on any host."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)


def in_workers(replacement, original):
    """original(...) in this process, replacement(original, ...) in forked workers."""
    parent = os.getpid()

    def call(*args, **kwargs):
        if os.getpid() == parent:
            return original(*args, **kwargs)
        return replacement(original, *args, **kwargs)
    return call


def everywhere(replacement, original):
    """replacement(original, ...) in every process."""
    return lambda *args, **kwargs: replacement(original, *args, **kwargs)


def cli_subprocess(cwd: Path, args: list, pin_cpu: bool = False):
    """Run the CLI in a fresh interpreter in cwd, optionally pinned to one CPU."""
    pin = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); " if pin_cpu else ""
    code = f"import os, sys; {pin}from wgqed.cli import main; sys.exit(main())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------- equivalence


def test_per_ratio_files_equal_plain_runs(tmp_path, two_shares):
    """Each ratio of a 3-ratio sweep writes the bytes a plain run of that
    ratio's resolved scenario writes, CSV and summary JSON alike."""
    cfg = write(tmp_path, TINY + "sweep.ratios = 1, 3, 5\n", "chiral.cfg")
    assert main(["sweep", str(cfg), "--out-dir", str(tmp_path / "sweep"), "--quiet"]) == 0
    sc = load_scenario(cfg)
    for ratio in (1, 3, 5):
        resolved = sc.with_ratio(ratio).resolved()
        plain = write(tmp_path, "".join(f"{k} = {v}\n" for k, v in resolved.items()),
                      f"plain{ratio}.cfg")
        assert main(["run", str(plain), "--out-dir", str(tmp_path / "run"), "--quiet"]) == 0
        for suffix in (".csv", "_summary.json"):
            swept = (tmp_path / "sweep" / f"chiral_ratio{ratio}{suffix}").read_bytes()
            assert swept == (tmp_path / "run" / f"plain{ratio}{suffix}").read_bytes()
    assert_no_child_left()


def test_one_share_sweep_drops_each_state_trajectory_before_the_next_ratio(tmp_path, monkeypatch):
    """A share holds one ratio's recorded states at a time: when the next
    ratio starts to integrate, the previous ratio's are gone, both the
    memory its chunks of records were handed on in and the last record
    integrate returned."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    held, alive_at_start = [], []

    def integrate(chain, pulse, n_ph, icfg, sink):
        alive_at_start.append([ref() is not None for ref in held])

        def kept(part):
            held.append(weakref.ref(part.blocks.base))  # a chunk's rows of the run's record memory
            sink(part)

        states = original(chain, pulse, n_ph, icfg, kept)
        held.append(weakref.ref(states))
        return states

    original = cli.integrate
    monkeypatch.setattr(cli, "integrate", integrate)
    cfg = write(tmp_path, TINY + "sweep.ratios = 1, 2, 3\n", "chiral.cfg")
    assert main(["sweep", str(cfg), "--out-dir", str(tmp_path / "out"), "--quiet"]) == 0
    assert alive_at_start == [[], [False] * 2, [False] * 4]
    assert (tmp_path / "out" / "chiral_ratio3.csv").is_file()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_sweep_pinned_to_one_cpu_writes_the_same_bytes_and_stdout(tmp_path):
    """A sweep whose process may use one CPU runs serially; it writes what
    the default sweep writes and prints the same lines, and a second default
    sweep repeats both."""
    cfg = write(tmp_path, TINY + "sweep.ratios = 5, 1, 2, 4, 3\n", "chiral.cfg")
    results = {}
    for name, pin in (("default", False), ("again", False), ("pinned", True)):
        cwd = tmp_path / name
        cwd.mkdir()
        proc = cli_subprocess(cwd, ["sweep", str(cfg), "--out-dir", "out"], pin_cpu=pin)
        assert proc.returncode == 0, proc.stderr
        results[name] = (proc.stdout, tree_bytes(cwd / "out"))
    assert len(results["default"][1]) == 12
    assert results["again"] == results["default"]
    assert results["pinned"] == results["default"]


def test_progress_lines_follow_ratio_order(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    cfg = write(tmp_path, TINY + "sweep.ratios = 3, 1, 0.5, 2\n", "chiral.cfg")
    assert main(["sweep", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:4]] == [
        "ratio 3", "ratio 1", "ratio 0.5", "ratio 2"]
    assert all(line.startswith("wrote ") for line in lines[4:]) and len(lines) == 6
    rows = (tmp_path / "out" / "chiral_sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["3", "1", "0.5", "2"]
    assert_no_child_left()


# ------------------------------------------------------------------- failures


@pytest.mark.parametrize(
    "ratios, bad",
    [
        ("1, 1000, 2", 1000),     # in the forked worker's share
        ("1, 2, 1000", 1000),     # in this process's share
        ("1, 1000, 2000", 1000),  # both shares blow up: the first in sweep order
        ("2000, 1000, 1", 2000),
    ],
)
def test_blow_up_reports_the_first_failing_ratio(tmp_path, capsys, two_shares, ratios, bad):
    cfg = write(tmp_path, COARSE + f"sweep.ratios = {ratios}\n", "coarse.cfg")
    with pytest.raises(IntegrationBlowUpError) as expected:
        simulate_scenario(load_scenario(cfg).with_ratio(bad))
    out = tmp_path / "out"
    assert main(["sweep", str(cfg), "--out-dir", str(out), "--quiet"]) == 3
    assert capsys.readouterr().err == f"error: {expected.value}\n"
    assert not (out / "coarse_sweep.csv").exists()
    assert not (out / "coarse_sweep_summary.json").exists()
    before = ratios.split(", ")[: ratios.split(", ").index(str(bad))]
    for tag in before:  # every ratio ahead of the failing one was written
        assert (out / f"coarse_ratio{tag}.csv").is_file()
    assert not (out / f"coarse_ratio{bad}.csv").exists()
    assert_no_child_left()


# record 3 lies in a run's only chunk; on the finer grid record 150 lies in its second
BAD_RECORDS = pytest.mark.parametrize("text, record, at", [
    (TINY, 3, "0.3"),
    (TINY.replace("integrator.dt = 0.01", "integrator.dt = 1e-3"), 150, "1.5"),
], ids=["first-chunk", "later-chunk"])


def inject_non_positive_record(monkeypatch, patch, record):
    """Through the reader the measures take their arguments from, make the
    run's record `record` indefinite: the populations (read through the
    diagonal, first in each chunk) [1.2, -0.2, 0, 0], min eig -0.2, and the
    ge population a single entry 0."""
    read = [0]  # the run's records read so far, this chunk's included

    def non_positive_entries(original, self, y, m, n, a, b):
        entries = original(self, y, m, n, a, b).copy()
        read[0] += len(y) if np.ndim(a) else 0
        k = record - (read[0] - len(y))
        if 0 <= k < len(y):
            entries[k] = [1.2, -0.2, 0.0, 0.0] if np.ndim(a) else 0.0
        return entries

    monkeypatch.setattr(HierarchyPropagator, "entry",
                        patch(non_positive_entries, HierarchyPropagator.entry))


@BAD_RECORDS
def test_failed_physical_block_check_exits_3_with_the_time(tmp_path, capsys, monkeypatch,
                                                          text, record, at):
    """A physical block that fails the positivity check of the concurrence
    ends a run with exit code 3 and the time of the bad record, and leaves
    no output, also when the rows of a chunk before it are already written."""
    inject_non_positive_record(monkeypatch, everywhere, record)
    cfg = write(tmp_path, text, "pair.cfg")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out"), "--quiet"]) == 3
    assert capsys.readouterr().err == (
        "error: integration blew up (state not positive semidefinite (min eig -2.000e-01)) "
        f"at t = {at}\n"
    )
    assert list((tmp_path / "out").iterdir()) == []


@BAD_RECORDS
def test_failed_physical_block_check_in_a_worker_exits_3(tmp_path, capsys, monkeypatch,
                                                         two_shares, text, record, at):
    inject_non_positive_record(monkeypatch, in_workers, record)
    cfg = write(tmp_path, text + "sweep.ratios = 1, 2\n", "pair.cfg")
    out = tmp_path / "out"
    assert main(["sweep", str(cfg), "--out-dir", str(out), "--quiet"]) == 3
    assert f"min eig -2.000e-01)) at t = {at}\n" in capsys.readouterr().err
    assert sorted(path.name for path in out.iterdir()) == ["pair_ratio1.csv",
                                                           "pair_ratio1_summary.json"]
    assert_no_child_left()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_failure_leaves_no_earlier_output_behind(tmp_path, capsys, two_shares, command):
    """A run, or a sweep whose two ratios both blow up, into the directory of
    a good earlier run or sweep exits 3 and leaves none of the earlier files:
    no summary beside a CSV that is gone, and no earlier sweep's aggregates."""
    cfg = write(tmp_path, TINY + "sweep.ratios = 1, 2\n", "pair.cfg")
    out = tmp_path / "out"
    assert main([command, str(cfg), "--out-dir", str(out), "--quiet"]) == 0
    assert len(list(out.iterdir())) == {"run": 2, "sweep": 6}[command]
    assert main([command, str(cfg), "--out-dir", str(out), "--dt", "1.0", "--quiet"]) == 3
    assert "integration blew up" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert_no_child_left()


def raise_before_the_write(monkeypatch):
    def boom(original, *args, **kwargs):
        raise ValueError("worker failed on purpose")

    monkeypatch.setattr(cli, "_simulate_and_write", in_workers(boom, cli._simulate_and_write))
    return "ValueError: worker failed on purpose"


def die_half_way_through_a_record(monkeypatch):
    def half(original, outcome, pipe):  # as a worker killed while it writes
        record = pickle.dumps(outcome)
        pipe.write(record[:len(record) // 2])
        pipe.flush()
        os._exit(1)

    monkeypatch.setattr(pickle, "dump", in_workers(half, pickle.dump))
    return ""


@pytest.mark.parametrize("death", [raise_before_the_write, die_half_way_through_a_record])
def test_worker_that_dies_without_a_result_is_reported(tmp_path, monkeypatch, capfd, two_shares,
                                                       death):
    """A worker that ends without its result, whether it raised or was killed
    half way through writing it, is reported by the ratio it was running."""
    trace = death(monkeypatch)
    cfg = write(tmp_path, TINY + "sweep.ratios = 1, 2\n", "pair.cfg")
    with pytest.raises(RuntimeError, match="worker running ratio 2 exited without its result"):
        main(["sweep", str(cfg), "--out-dir", str(tmp_path / "out"), "--quiet"])
    assert trace in capfd.readouterr().err
    assert_no_child_left()


@pytest.mark.parametrize("blocked, reported, missing", [
    (["pair.csv"], "pair.csv", ["pair_summary.json"]),  # a plain run
    (["pair_ratio1.csv"], "pair_ratio1.csv", ["pair_ratio3.csv"]),  # this process's share
    (["pair_ratio2.csv"], "pair_ratio2.csv", ["pair_ratio4.csv"]),  # the worker's share
    (["pair_ratio3.csv", "pair_ratio2.csv"], "pair_ratio2.csv", []),  # the first in ratio order
    (["pair_sweep.csv"], "pair_sweep.csv", ["pair_sweep_summary.json"]),
    (["pair_summary.json"], "pair_summary.json", ["pair.csv"]),
    (["pair_ratio2_summary.json"], "pair_ratio2_summary.json",
     ["pair_ratio2.csv", "pair_ratio4.csv"]),
    (["pair_sweep_summary.json"], "pair_sweep_summary.json", ["pair_ratio1.csv"]),
], ids=["run", "this-share", "worker-share", "first-in-ratio-order", "aggregate",
        "run-summary", "ratio-summary", "aggregate-summary"])
def test_output_file_that_cannot_be_written_exits_2(tmp_path, capsys, two_shares,
                                                    blocked, reported, missing):
    """A directory named like an output file, which blocks root as well,
    exits 2 with one error line naming the file.  A share stops at its
    failed ratio (ratios 1 and 3 run here, 2 and 4 in the worker), and a
    failed sweep writes no aggregate.  A summary's place is found blocked
    as its run starts, and an aggregate's as the sweep starts, so no CSV
    is written ahead of them."""
    cfg = write(tmp_path, TINY + "sweep.ratios = 1, 2, 3, 4\n", "pair.cfg")
    out = tmp_path / "out"
    for name in blocked:
        (out / name).mkdir(parents=True)
    command = "run" if reported in ("pair.csv", "pair_summary.json") else "sweep"
    assert main([command, str(cfg), "--out-dir", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out / reported}: Is a directory\n"
    for name in missing + ["pair_sweep.csv"] * (command == "sweep"):
        assert not (out / name).is_file(), name
    assert_no_child_left()


def test_error_in_this_process_kills_the_workers(tmp_path, monkeypatch, two_shares):
    """An exception out of this process's share kills the forked worker at
    once rather than waiting for it (its ratio would take a minute), and
    removes the CSV the worker had begun for that ratio."""
    out = tmp_path / "out"

    def fail(sc, sink):  # once the worker has begun its ratio's CSV
        for _ in range(1000):
            if (out / "pair_ratio2.csv").exists():
                break
            time.sleep(0.01)
        raise KeyError("failed on purpose")

    def stall(original, sc, sink):
        time.sleep(60.0)

    monkeypatch.setattr(cli, "simulate_scenario", in_workers(stall, fail))
    cfg = write(tmp_path, TINY + "sweep.ratios = 1, 2\n", "pair.cfg")
    start = time.monotonic()
    with pytest.raises(KeyError, match="failed on purpose"):
        main(["sweep", str(cfg), "--out-dir", str(out), "--quiet"])
    assert time.monotonic() - start < 30.0
    assert list(out.iterdir()) == []
    assert_no_child_left()


# -------------------------------------------------------- process boundaries


def test_errors_survive_a_pickle_round_trip():
    for exc, attr in ((IntegrationBlowUpError(1.5, "x"), "time"),
                      (IntegrationBlowUpError(0.25), "time"),
                      (ScenarioError("k", "m"), "key"),
                      (OutputError("cannot write x: Is a directory"), "args")):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert getattr(back, attr) == getattr(exc, attr)


def test_importing_the_cli_loads_neither_a_process_pool_nor_scipy():
    """A forked worker needs neither multiprocessing nor concurrent.futures;
    either would add tens of milliseconds to every run's start.  numpy is
    the only runtime dependency, so no module of the package imports scipy,
    even where it is installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    code = ("import sys, wgqed.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'scipy') "
            "or m.startswith('concurrent.futures')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
