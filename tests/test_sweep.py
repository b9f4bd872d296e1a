"""The sweep's forked workers: same bytes as plain runs and as a serial
sweep, ratio order in the output, blow-ups reported in sweep order, no
process left behind, and errors that cross the process boundary."""

import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from wgqed import cli
from wgqed.cli import main, simulate_scenario
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


def non_positive_diagonal(original, self, y, n):
    """The recorded populations with record 3 made [1.2, -0.2, 0, 0]."""
    populations = original(self, y, n).copy()
    populations[3] = [1.2, -0.2, 0.0, 0.0]
    return populations


def zero_entry(original, self, y, *where):
    """A recorded entry with record 3 made 0."""
    entry = original(self, y, *where).copy()
    entry[3] = 0.0
    return entry


def inject_non_positive_record(monkeypatch, patch):
    """Through the readers the measures take their arguments from, make
    record 3 indefinite: min eig -0.2, the ge population."""
    for name, bad in (("diagonal", non_positive_diagonal), ("entry", zero_entry)):
        monkeypatch.setattr(HierarchyPropagator, name, patch(bad, getattr(HierarchyPropagator, name)))


def test_failed_physical_block_check_exits_3_with_the_time(tmp_path, capsys, monkeypatch):
    """A physical block that fails the positivity check of the concurrence
    ends a run with exit code 3 and the time of the bad record."""
    inject_non_positive_record(monkeypatch, everywhere)
    cfg = write(tmp_path, TINY, "pair.cfg")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out"), "--quiet"]) == 3
    assert capsys.readouterr().err == (
        "error: integration blew up (state not positive semidefinite (min eig -2.000e-01)) "
        "at t = 0.3\n"
    )
    assert not (tmp_path / "out" / "pair.csv").exists()


def test_failed_physical_block_check_in_a_worker_exits_3(tmp_path, capsys, monkeypatch,
                                                         two_shares):
    inject_non_positive_record(monkeypatch, in_workers)
    cfg = write(tmp_path, TINY + "sweep.ratios = 1, 2\n", "pair.cfg")
    out = tmp_path / "out"
    assert main(["sweep", str(cfg), "--out-dir", str(out), "--quiet"]) == 3
    assert "min eig -2.000e-01)) at t = 0.3\n" in capsys.readouterr().err
    assert (out / "pair_ratio1.csv").is_file()
    assert not (out / "pair_ratio2.csv").exists() and not (out / "pair_sweep.csv").exists()
    assert_no_child_left()


def test_worker_that_dies_without_a_result_is_reported(tmp_path, monkeypatch, capfd, two_shares):
    def boom(original, *args, **kwargs):
        raise ValueError("worker failed on purpose")

    monkeypatch.setattr(cli, "_write_run", in_workers(boom, cli._write_run))
    cfg = write(tmp_path, TINY + "sweep.ratios = 1, 2\n", "pair.cfg")
    with pytest.raises(RuntimeError, match="worker running ratio 2 exited without its result"):
        main(["sweep", str(cfg), "--out-dir", str(tmp_path / "out"), "--quiet"])
    assert "ValueError: worker failed on purpose" in capfd.readouterr().err
    assert_no_child_left()


def test_error_in_this_process_kills_the_workers(tmp_path, monkeypatch, two_shares):
    """An exception out of this process's share kills the forked worker at
    once rather than waiting for it (its ratio would take a minute)."""
    def fail(sc):
        raise KeyError("failed on purpose")

    def stall(original, sc):
        time.sleep(60.0)

    monkeypatch.setattr(cli, "simulate_scenario", in_workers(stall, fail))
    cfg = write(tmp_path, TINY + "sweep.ratios = 1, 2\n", "pair.cfg")
    start = time.monotonic()
    with pytest.raises(KeyError, match="failed on purpose"):
        main(["sweep", str(cfg), "--out-dir", str(tmp_path / "out"), "--quiet"])
    assert time.monotonic() - start < 30.0
    assert_no_child_left()


# -------------------------------------------------------- process boundaries


def test_errors_survive_a_pickle_round_trip():
    for exc, attr in ((IntegrationBlowUpError(1.5, "x"), "time"),
                      (IntegrationBlowUpError(0.25), "time"),
                      (ScenarioError("k", "m"), "key")):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert getattr(back, attr) == getattr(exc, attr)


def test_importing_the_cli_loads_no_process_pool():
    """A forked worker needs neither multiprocessing nor concurrent.futures;
    either would add tens of milliseconds to every run's start."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    code = ("import sys, wgqed.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
