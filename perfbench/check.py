"""Correctness checks on the files one CLI run writes.

Each check returns a list of failure messages; an empty list means the
output passed.  The checks read only the written CSV and summary JSON, so
they hold for any implementation of the CLI contract.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path

UNIT_TOL = 1e-8        # slack on [0, 1] for populations, concurrence and fill
TRACE_TOL = 1e-9       # lossless trace drift, and rise allowed per record when lossy
PULSE_RTOL = 1e-10     # CSV values carry 12 significant digits
ZERO_ATOL = 1e-15      # absolute slack where a CSV value is near zero
PEAK_RTOL = 1e-9       # summary peak against the CSV column maximum
REF_ATOL = 1e-7        # summary peak against the recorded reference
REF_NOISE = 1e-6       # a reference peak at or below this is roundoff; its time is not compared
AGG_RTOL = 1e-10       # aggregate CSV cell (12 significant digits) against the run's peak


def read_csv(path: Path):
    """Header and float columns of a CSV the CLI wrote."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    columns = {name: [] for name in header}
    for row in rows[1:]:
        if len(row) != len(header):
            raise ValueError(f"row of {len(row)} fields under a header of {len(header)}")
        for name, cell in zip(header, row):
            columns[name].append(float(cell))
    return header, columns


def pulse_intensity(mu: float, t_bar: float, t: float) -> float:
    """Closed-form |g(t)|^2 of the normalized Gaussian mode."""
    return mu / math.sqrt(2.0 * math.pi) * math.exp(-(mu ** 2) * (t - t_bar) ** 2 / 2.0)


def _covers_basis(labels: list, n_emitters: int) -> bool:
    states = [s for label in labels for s in label.split("+")]
    every = {"".join(s) for s in itertools.product("ge", repeat=n_emitters)}
    return len(states) == len(every) and set(states) == every


def check_run(csv_path: Path, json_path: Path) -> list:
    """Check one run's time series and its summary against physical invariants."""
    try:
        header, cols = read_csv(csv_path)
        summary = json.loads(json_path.read_text(encoding="utf-8"))
        scenario = summary["scenario"]
        peaks = summary["peaks"]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{csv_path.name}: unreadable output ({exc})"]
    name = csv_path.name
    fails = []
    times = cols.get("t", [])
    if not times or summary.get("n_time_points") != len(times):
        fails.append(f"{name}: {len(times)} rows, summary says {summary.get('n_time_points')}")
    for col, values in cols.items():
        if not all(math.isfinite(v) for v in values):
            fails.append(f"{name}: non-finite value in {col}")
    if fails:
        return fails

    pops = [c for c in header if c.startswith("P_")]
    for col in pops + [c for c in ("concurrence", "fill") if c in cols]:
        lo, hi = min(cols[col]), max(cols[col])
        if lo < -UNIT_TOL or hi > 1.0 + UNIT_TOL:
            fails.append(f"{name}: {col} leaves [0, 1] (range {lo:.3g}..{hi:.3g})")

    n_emitters = int(scenario["n_emitters"])
    if not _covers_basis([c[2:] for c in pops], n_emitters):
        fails.append(f"{name}: populations {pops} do not partition the basis")
    else:
        trace = [sum(vals) for vals in zip(*(cols[c] for c in pops))]
        lossy = any(float(scenario[f"emitter.{j}.gamma_spont"]) > 0 for j in range(1, n_emitters + 1))
        if lossy:
            rises = max((b - a for a, b in zip(trace, trace[1:])), default=0.0)
            if rises > TRACE_TOL or max(trace) > 1.0 + TRACE_TOL:
                fails.append(f"{name}: lossy trace rises (by {rises:.3g}, max {max(trace):.12g})")
        else:
            drift = max(abs(x - 1.0) for x in trace)
            if drift > TRACE_TOL:
                fails.append(f"{name}: lossless trace drifts from 1 by {drift:.3g}")

    if "pulse_intensity" in cols:
        mu, t_bar = float(scenario["pulse.mu"]), float(scenario["pulse.t_bar"])
        worst = max(
            abs(v - pulse_intensity(mu, t_bar, t)) - PULSE_RTOL * pulse_intensity(mu, t_bar, t)
            for t, v in zip(times, cols["pulse_intensity"])
        )
        if worst > ZERO_ATOL:
            fails.append(f"{name}: pulse_intensity misses |g(t)|^2 by {worst:.3g}")
    else:
        fails.append(f"{name}: no pulse_intensity column")

    for col, values in cols.items():
        if col == "t":
            continue
        entry = peaks.get(col)
        top = max(values)
        if entry is None or not math.isfinite(entry["value"]) or not math.isfinite(entry["time"]):
            fails.append(f"{name}: summary has no finite peak for {col}")
        elif abs(entry["value"] - top) > PEAK_RTOL * max(1.0, abs(top)):
            fails.append(f"{name}: summary peak of {col} is {entry['value']!r}, CSV max {top!r}")
    return fails


def check_aggregate(csv_path: Path, json_path: Path, ratios: tuple, summaries: list) -> list:
    """The sweep's aggregate files must repeat each ratio's summary peaks, in ratio order.

    `summaries` holds the per-ratio summary JSON paths, in the order of `ratios`.
    """
    name = csv_path.name
    try:
        header, cols = read_csv(csv_path)
        aggregate = json.loads(json_path.read_text(encoding="utf-8"))
        by_ratio = aggregate["peaks_by_ratio"]
        listed = [float(r) for r in aggregate["ratios"]]
        peaks = [json.loads(p.read_text(encoding="utf-8"))["peaks"] for p in summaries]
    except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return [f"{name}: unreadable output ({exc})"]
    fails = []
    if listed != list(ratios):
        fails.append(f"{json_path.name}: ratios {listed}, expected {list(ratios)}")
    keys = [f"{r:g}" for r in ratios]
    if set(by_ratio) != set(keys):  # written with sorted keys, so compared as a set
        fails.append(f"{json_path.name}: peaks_by_ratio keys {sorted(by_ratio)}, expected {keys}")
    for key, own in zip(keys, peaks):
        if by_ratio.get(key) != own:
            fails.append(f"{json_path.name}: peaks of ratio {key} differ from its summary")

    series = [c[:-4] for c in header[1:] if c.endswith("_max")]
    if header[:1] != ["ratio"] or not series or header[1:] != [
            col for s in series for col in (f"{s}_max", f"{s}_t")]:
        return fails + [f"{name}: header {header} is not ratio, then <series>_max, <series>_t"]
    if cols["ratio"] != list(ratios):
        return fails + [f"{name}: rows hold ratios {cols['ratio']}, expected {list(ratios)}"]
    for row, (key, own) in enumerate(zip(keys, peaks)):
        for s in series:
            entry = own.get(s)
            if entry is None:
                fails.append(f"{name}: ratio {key} has no peak of {s}")
                continue
            for col, want in ((f"{s}_max", entry["value"]), (f"{s}_t", entry["time"])):
                got = cols[col][row]
                if not abs(got - want) <= AGG_RTOL * abs(want) + ZERO_ATOL:
                    fails.append(f"{name}: {col} of ratio {key} is {got!r}, its summary says {want!r}")
    return fails


def check_reference(json_path: Path, reference: dict, time_tol: float) -> list:
    """Summary peaks must match the reference peaks recorded for the default seed.

    Values are compared on every series.  Times are compared only where the
    reference peak stands above REF_NOISE: the argmax of a series that is
    zero, or roundoff, moves with any change of floating-point order.
    """
    try:
        peaks = json.loads(json_path.read_text(encoding="utf-8"))["peaks"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{json_path.name}: unreadable summary ({exc})"]
    fails = []
    if set(peaks) != set(reference):
        fails.append(f"{json_path.name}: series {sorted(peaks)} differ from the reference")
    for col in sorted(set(peaks) & set(reference)):
        got, want = peaks[col], reference[col]
        moved = want["value"] > REF_NOISE and abs(got["time"] - want["time"]) > time_tol
        if abs(got["value"] - want["value"]) > REF_ATOL or moved:
            fails.append(
                f"{json_path.name}: peak of {col} is {got['value']:.9g} at t={got['time']:g}, "
                f"reference {want['value']:.9g} at t={want['time']:g}"
            )
    return fails
