"""Command-line front end: single runs and chirality sweeps.

`wgqed run <scenario>` integrates one scenario and writes
  <stem>.csv           time series (header `t`, one column per series,
                       12-significant-digit values)
  <stem>_summary.json  per-series peaks plus the fully resolved config

`wgqed sweep <scenario>` repeats the run for every Gamma_r/Gamma_l ratio
in `sweep.ratios` (Gamma_l held at Gamma, Gamma_r = ratio * Gamma_l) and
additionally writes an aggregate CSV of per-ratio peak values.  The ratios
run in parallel, in forked workers, on every CPU the process may use;
`taskset -c 0 wgqed sweep ...` runs them one after another.

A run is written as it is integrated: each chunk of records the integrator
hands on becomes that chunk's ordered map {column name: series},
build_trajectory's, whose CSV rows are written and whose values are folded
into the running peaks before the next chunk is stepped.  The summary JSON
is written last.  So a process holds one chunk of records at a time,
however long the run.  A run that fails leaves neither its CSV nor an
earlier run's summary, and a sweep that fails no earlier sweep's aggregates.

Exit codes: 0 success; 2 scenario file unreadable (the message names the
path) or invalid (the message names the offending key), an output
directory that cannot be created (the message names it; a sweep stops
before it forks) or an output file that cannot be written (the message
names it; a sweep reports it as it reports a blow-up, in ratio order, but
stops before it forks if an aggregate file cannot be); 3 integration
blow-up (message reports the time).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pickle
import sys
from pathlib import Path
from typing import NoReturn

import numpy as np

from .integrator import IntegrationBlowUpError, integrate
from .observables import build_trajectory, peak
from .scenario import Scenario, ScenarioError, ScenarioFileError, load_scenario, ratio_tag

__all__ = ["OutputError", "simulate_scenario", "run", "sweep", "main"]


class OutputError(Exception):
    """The output directory cannot be created, or an output file cannot be
    written; the message names it."""


def simulate_scenario(sc: Scenario, sink=None):
    """Integrate a scenario and read its series, {column name: series}.  Each
    chunk of records goes to sink(times, series) as the integration reaches
    it; without a sink, returns (series, recorded state trajectory) of the
    whole run."""
    def read(states):
        return build_trajectory(states, sc.populations, want_concurrence=sc.want_concurrence,
                                want_fill=sc.want_fill, pulse=sc.pulse if sc.want_pulse else None)

    if sink is None:
        states = integrate(sc.chain, sc.pulse, sc.n_photons, sc.integrator)
        return read(states), states
    integrate(sc.chain, sc.pulse, sc.n_photons, sc.integrator,
              lambda part: sink(part.times, read(part)))


def _make_out_dir(out_dir) -> Path:
    """The output directory, created with its parents if it is missing."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, a path under a file, no permission
        reason = exc.strerror or exc
        raise OutputError(f"cannot create output directory {out}: {reason}") from None
    return out


def _unwritable(path: Path, exc: OSError) -> OutputError:
    return OutputError(f"cannot write {path}: {exc.strerror or exc}")


@contextlib.contextmanager
def _output(path: Path):
    """path opened for writing text.  OutputError names it if it cannot be
    written, and an error of any kind while it is open removes it."""
    try:
        out = path.open("w", encoding="utf-8")
    except OSError as exc:  # a directory in the way, no permission
        raise _unwritable(path, exc) from None
    try:
        with out:
            yield out
    except BaseException as exc:
        path.unlink(missing_ok=True)
        if isinstance(exc, OSError):  # a full disk
            raise _unwritable(path, exc) from None
        raise


def _remove_earlier(path: Path) -> None:
    """Remove what an earlier run left at path; OutputError names a path
    that cannot be removed, so it could not be written either."""
    try:
        path.unlink(missing_ok=True)
    except OSError as exc:  # a directory in the way, no permission
        raise _unwritable(path, exc) from None


def _csv_rows(columns: list):
    """The columns as CSV rows of 12-significant-digit values, made one row
    at a time from the columns' float64 buffers, so no more than the current
    row is held."""
    row = ",".join(["%.12g"] * len(columns)) + "\n"
    for values in zip(*(memoryview(np.ascontiguousarray(c, dtype=float)) for c in columns)):
        yield row % values


def _write_csv(path: Path, header: list, columns: list) -> None:
    with _output(path) as out:
        out.write(",".join(header) + "\n")
        out.writelines(_csv_rows(columns))


def _write_json(path: Path, payload: dict) -> None:
    with _output(path) as out:
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit(quiet: bool, text: str) -> None:
    if not quiet:
        print(text)


def _simulate_and_write(out: Path, tag: str, sc: Scenario):
    """Integrate a scenario, writing each chunk's rows of <tag>.csv and
    folding its values into the running peaks as it comes, then
    <tag>_summary.json; returns (paths, peaks)."""
    csv_path, json_path = out / f"{tag}.csv", out / f"{tag}_summary.json"
    _remove_earlier(json_path)  # so a run that fails leaves no summary beside no CSV
    peaks, n_records = {}, 0
    with _output(csv_path) as csv:

        def write_chunk(times, series):
            nonlocal n_records
            if not n_records:
                csv.write(",".join(["t", *series]) + "\n")
            csv.writelines(_csv_rows([times, *series.values()]))
            for name, values in series.items():
                peaks[name] = peak(times, values, peaks.get(name))
            n_records += len(times)

        simulate_scenario(sc, write_chunk)
    _write_json(
        json_path,
        {
            "scenario": sc.resolved(),
            "peaks": peaks,
            "series": list(peaks),
            "n_time_points": n_records,
        },
    )
    return [csv_path, json_path], peaks


def run(scenario_path, out_dir=".", dt=None, quiet=False) -> list:
    """Single run; returns the written file paths."""
    sc = load_scenario(scenario_path, dt_override=dt)
    out = _make_out_dir(out_dir)
    written, peaks = _simulate_and_write(out, Path(scenario_path).stem, sc)
    for name, entry in peaks.items():
        _emit(quiet, f"{name}: max {entry['value']:.6g} at t = {entry['time']:g}")
    for path in written:
        _emit(quiet, f"wrote {path}")
    return written


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where os.fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_share(sc: Scenario, out: Path, stem: str, ratios: list, send) -> None:
    """Run and write each ratio in turn, passing `send` its (paths, peaks); a
    blow-up or an unwritable output is passed as its exception and ends the share."""
    for ratio in ratios:
        try:
            outcome = _simulate_and_write(out, f"{stem}_ratio{ratio_tag(ratio)}",
                                          sc.with_ratio(ratio))
        except (IntegrationBlowUpError, OutputError) as exc:
            send(exc)
            return
        send(outcome)


def _serve_share(fd: int, sc: Scenario, out: Path, stem: str, ratios: list) -> NoReturn:
    """Body of a forked worker: run a share, pickling each outcome into the
    pipe `fd` as it comes.  Exits the process; never returns to the caller."""
    code = 1
    try:
        with os.fdopen(fd, "wb") as pipe:

            def send(outcome):
                pickle.dump(outcome, pipe)
                pipe.flush()

            _run_share(sc, out, stem, ratios, send)
        code = 0
    except BaseException:  # a forked worker reports and exits; it must not unwind into the caller
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(code)


def _receive(pipe, outcomes: list) -> None:
    """Append to `outcomes` every outcome a worker pickled into `pipe`, up to
    its end or a record cut short."""
    while True:
        try:
            outcomes.append(pickle.load(pipe))
        except (EOFError, pickle.UnpicklingError):  # "pickle data was truncated"
            return


def sweep(scenario_path, out_dir=".", dt=None, quiet=False) -> list:
    """One run per Gamma_r/Gamma_l ratio plus an aggregate peak CSV.

    The ratios are dealt round-robin into one share per usable CPU.  This
    process runs the first share and a forked worker each other one; the
    progress lines, the aggregates and a blow-up or an unwritable output
    follow ratio order."""
    sc = load_scenario(scenario_path, dt_override=dt)
    if not sc.sweep_ratios:
        raise ScenarioError("sweep.ratios", "required for the sweep command")
    out = _make_out_dir(out_dir)
    stem = Path(scenario_path).stem
    agg_csv, agg_json = out / f"{stem}_sweep.csv", out / f"{stem}_sweep_summary.json"
    for path in (agg_csv, agg_json):  # a sweep that fails leaves no earlier sweep's aggregates
        _remove_earlier(path)

    ratios = list(sc.sweep_ratios)
    k = min(len(ratios), _usable_cpus())
    shares = [ratios[j::k] for j in range(k)]
    sys.stdout.flush()  # a forked worker must not write out a copy of pending output
    sys.stderr.flush()
    pids, pipes = [], []
    received = [[] for _ in shares]  # each share's outcomes, as they arrive
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            pipes.append(os.fdopen(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _serve_share(w, sc, out, stem, share)
                pids.append(pid)
            finally:
                os.close(w)
        _run_share(sc, out, stem, shares[0], received[0].append)
        for pipe, outcomes in zip(pipes, received[1:]):
            _receive(pipe, outcomes)
    except BaseException:
        import signal  # imported here only: a run loads no module it does not use

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for share, pipe, outcomes in zip(shares[1:], pipes, received[1:]):
            _receive(pipe, outcomes)
            stopped = outcomes and isinstance(outcomes[-1], Exception)  # a failure ends a share
            if len(outcomes) < len(share) and not stopped:  # killed mid-ratio: its CSV is cut short
                tag = ratio_tag(share[len(outcomes)])
                (out / f"{stem}_ratio{tag}.csv").unlink(missing_ok=True)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)

    written = []
    agg_rows = []
    peaks_by_ratio = {}
    for i, ratio in enumerate(ratios):
        tag = ratio_tag(ratio)
        share = received[i % k]  # ratio i is outcome i // k of share i % k
        if i // k >= len(share):
            raise RuntimeError(f"the sweep worker running ratio {tag} exited without its result")
        outcome = share[i // k]
        if isinstance(outcome, Exception):  # a blow-up or an unwritable output
            raise outcome
        paths, peaks = outcome
        written += paths
        peaks_by_ratio[tag] = peaks
        # the drive shape is ratio-independent; the other series are the same for every ratio
        names = [n for n in peaks if n != "pulse_intensity"]
        agg_rows.append(
            [ratio] + [v for n in names for v in (peaks[n]["value"], peaks[n]["time"])]
        )
        _emit(quiet, f"ratio {tag}: " + "; ".join(
            f"{n} max {peaks[n]['value']:.6g} at {peaks[n]['time']:g}" for n in names
        ))

    header = ["ratio"] + [col for n in names for col in (f"{n}_max", f"{n}_t")]
    _write_csv(agg_csv, header, list(zip(*agg_rows)))
    _write_json(
        agg_json,
        {
            "scenario": sc.resolved(),
            "ratios": ratios,
            "peaks_by_ratio": peaks_by_ratio,
        },
    )
    written += [agg_csv, agg_json]
    _emit(quiet, f"wrote {agg_csv}")
    _emit(quiet, f"wrote {agg_json}")
    return written


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgqed",
        description="Emitter-chain waveguide dynamics from scenario files",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "integrate one scenario"),
        ("sweep", "run every Gamma_r/Gamma_l ratio in sweep.ratios"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="path to a scenario file")
        p.add_argument("--out-dir", default=".", help="directory for CSV/JSON output")
        p.add_argument("--dt", type=float, default=None, help="override integrator.dt")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = run if args.command == "run" else sweep
    try:
        command(args.scenario, out_dir=args.out_dir, dt=args.dt, quiet=args.quiet)
    except (ScenarioError, ScenarioFileError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrationBlowUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
