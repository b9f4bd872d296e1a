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

Exit codes: 0 success; 2 scenario parse/validation failure (the message
names the offending key); 3 integration blow-up (message reports the
time).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pickle
import sys
from pathlib import Path
from typing import NoReturn

import numpy as np

from .integrator import IntegrationBlowUpError, integrate
from .observables import Trajectory, build_trajectory, peak
from .scenario import Scenario, ScenarioError, load_scenario, ratio_tag

__all__ = ["simulate_scenario", "run", "sweep", "main"]


def simulate_scenario(sc: Scenario):
    """Integrate a scenario; returns (named-series trajectory, raw state trajectory)."""
    states = integrate(sc.chain, sc.pulse, sc.n_photons, sc.integrator)
    traj = build_trajectory(
        states,
        sc.populations,
        want_concurrence=sc.want_concurrence,
        want_fill=sc.want_fill,
        pulse=sc.pulse if sc.want_pulse else None,
    )
    return traj, states


def _write_csv(path: Path, header: list, columns: list) -> None:
    """Write the columns as rows of 12-significant-digit values, one row at a time."""
    row = ",".join(["%.12g"] * len(columns)) + "\n"
    with path.open("w", encoding="utf-8") as out:
        out.write(",".join(header) + "\n")
        out.writelines(row % v for v in zip(*(np.asarray(c).tolist() for c in columns)))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _emit(quiet: bool, text: str) -> None:
    if not quiet:
        print(text)


def _write_run(out: Path, tag: str, sc: Scenario, traj: Trajectory):
    """Write one run's <tag>.csv and <tag>_summary.json; returns (paths, peaks)."""
    series = traj.series_map()
    peaks = {name: dataclasses.asdict(peak(traj, name)) for name in series}
    csv_path = out / f"{tag}.csv"
    json_path = out / f"{tag}_summary.json"
    _write_csv(csv_path, ["t", *series], [traj.times, *series.values()])
    _write_json(
        json_path,
        {
            "scenario": sc.resolved(),
            "peaks": peaks,
            "series": list(series),
            "n_time_points": int(len(traj.times)),
        },
    )
    return [csv_path, json_path], peaks


def run(scenario_path, out_dir=".", dt=None, quiet=False) -> list:
    """Single run; returns the written file paths."""
    sc = load_scenario(scenario_path, dt_override=dt)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    traj, _states = simulate_scenario(sc)
    written, peaks = _write_run(out, Path(scenario_path).stem, sc, traj)
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
    blow-up is passed as its IntegrationBlowUpError and ends the share."""
    for ratio in ratios:
        sc_ratio = sc.with_ratio(ratio)
        try:
            traj, _states = simulate_scenario(sc_ratio)
        except IntegrationBlowUpError as exc:
            send(exc)
            return
        send(_write_run(out, f"{stem}_ratio{ratio_tag(ratio)}", sc_ratio, traj))


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


def _receive(pipe) -> list:
    """Every outcome a worker pickled into `pipe`, read to its end."""
    outcomes = []
    while True:
        try:
            outcomes.append(pickle.load(pipe))
        except EOFError:
            return outcomes


def sweep(scenario_path, out_dir=".", dt=None, quiet=False) -> list:
    """One run per Gamma_r/Gamma_l ratio plus an aggregate peak CSV.

    The ratios are dealt round-robin into one share per usable CPU.  This
    process runs the first share and a forked worker each other one; the
    progress lines, the aggregates and a blow-up follow ratio order."""
    sc = load_scenario(scenario_path, dt_override=dt)
    if not sc.sweep_ratios:
        raise ScenarioError("sweep.ratios", "required for the sweep command")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(scenario_path).stem

    ratios = list(sc.sweep_ratios)
    k = min(len(ratios), _usable_cpus())
    shares = [ratios[j::k] for j in range(k)]
    sys.stdout.flush()  # a forked worker must not write out a copy of pending output
    sys.stderr.flush()
    pids, pipes = [], []
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
        received = [[]]
        _run_share(sc, out, stem, shares[0], received[0].append)
        received += [_receive(pipe) for pipe in pipes]
    except BaseException:
        import signal  # imported here only: a run loads no module it does not use

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
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
        if isinstance(outcome, IntegrationBlowUpError):
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
    agg_csv = out / f"{stem}_sweep.csv"
    _write_csv(agg_csv, header, list(zip(*agg_rows)))
    agg_json = out / f"{stem}_sweep_summary.json"
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
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: scenario file not found: {exc.filename}", file=sys.stderr)
        return 2
    except IntegrationBlowUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
