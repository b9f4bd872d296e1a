"""Command-line front end: single runs and chirality sweeps.

`wgqed run <scenario>` integrates one scenario and writes
  <stem>.csv           time series (header `t`, one column per series,
                       12-significant-digit values)
  <stem>_summary.json  per-series peaks plus the fully resolved config

`wgqed sweep <scenario>` repeats the run for every Gamma_r/Gamma_l ratio
in `sweep.ratios` (Gamma_l held at Gamma, Gamma_r = ratio * Gamma_l) and
additionally writes an aggregate CSV of per-ratio peak values.

Exit codes: 0 success; 2 scenario parse/validation failure (the message
names the offending key); 3 integration blow-up (message reports the
time).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

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


def sweep(scenario_path, out_dir=".", dt=None, quiet=False) -> list:
    """One run per Gamma_r/Gamma_l ratio plus an aggregate peak CSV."""
    sc = load_scenario(scenario_path, dt_override=dt)
    if not sc.sweep_ratios:
        raise ScenarioError("sweep.ratios", "required for the sweep command")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(scenario_path).stem

    ratios = list(sc.sweep_ratios)
    written = []
    agg_rows = []
    peaks_by_ratio = {}
    for ratio in ratios:
        tag = ratio_tag(ratio)
        sc_ratio = sc.with_ratio(ratio)
        traj, _states = simulate_scenario(sc_ratio)
        paths, peaks = _write_run(out, f"{stem}_ratio{tag}", sc_ratio, traj)
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
