"""Scenario parsing/validation and the command-line front end."""

import importlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wgqed import cli
from wgqed.cli import main
from wgqed.scenario import (
    Scenario,
    ScenarioError,
    build_scenario,
    load_scenario,
    parse_scenario_text,
)
from conftest import scenario_path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

TINY = """
n_emitters = 2
pulse.mu = 1.46
pulse.t_bar = 1.0
integrator.dt = 0.01
integrator.t_end = 2.0
integrator.stride = 10
"""


def write(tmp_path: Path, text: str, name="case.cfg") -> Path:
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# ------------------------------------------------------------------- parsing


def test_parser_ignores_comments_and_blanks():
    kv = parse_scenario_text("# header\n\n a = 1 # trailing\nb= 2\n")
    assert kv == {"a": "1", "b": "2"}


def test_parser_rejects_malformed_lines():
    with pytest.raises(ScenarioError):
        parse_scenario_text("just words\n")
    with pytest.raises(ScenarioError):
        parse_scenario_text("= 3\n")
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario_text("a = 1\na = 2\n")
    assert excinfo.value.key == "a"


# ---------------------------------------------------------------- validation


def test_required_and_unknown_keys():
    with pytest.raises(ScenarioError) as excinfo:
        build_scenario({})
    assert excinfo.value.key == "n_emitters"
    with pytest.raises(ScenarioError) as excinfo:
        build_scenario({"n_emitters": "1", "bogus.key": "1"})
    assert excinfo.value.key == "bogus.key"


def test_value_range_checks():
    cases = [
        ({"n_emitters": "4"}, "n_emitters"),
        ({"n_emitters": "1", "n_photons": "0"}, "n_photons"),
        ({"n_emitters": "1", "pulse.mu": "-1"}, "pulse.mu"),
        ({"n_emitters": "1", "pulse.mu": "abc"}, "pulse.mu"),
        ({"n_emitters": "1", "integrator.dt": "0"}, "integrator.dt"),
        ({"n_emitters": "1", "integrator.stride": "0"}, "integrator.stride"),
        ({"n_emitters": "1", "emitter.gamma_r": "-2"}, "emitter.gamma_r"),
        ({"n_emitters": "2", "emitter.2.gamma_r": "-1"}, "emitter.2.gamma_r"),
        ({"n_emitters": "3", "emitter.gamma_spont": "-0.5"}, "emitter.gamma_spont"),
        ({"n_emitters": "2", "emitter.delta": "1", "emitter.2.gamma_l": "-3"}, "emitter.2.gamma_l"),
        ({"n_emitters": "1", "sweep.ratios": " , "}, "sweep.ratios"),
        ({"n_emitters": "1", "sweep.ratios": "1, -2"}, "sweep.ratios"),
        ({"n_emitters": "1", "sweep.ratios": "1, 2, 1.0000001"}, "sweep.ratios"),
        ({"n_emitters": "1", "output.populations": "ee"}, "output.populations"),
        ({"n_emitters": "1", "output.concurrence": "true"}, "output.concurrence"),
        ({"n_emitters": "2", "output.fill": "true"}, "output.fill"),
        ({"n_emitters": "2", "emitter.5.gamma_r": "1"}, "emitter.5.gamma_r"),
        ({"n_emitters": "1", "integrator.t_end": "inf"}, "integrator.t_end"),
        ({"n_emitters": "1", "pulse.t_bar": "nan"}, "pulse.t_bar"),
        ({"n_emitters": "1", "pulse.mu": "inf"}, "pulse.mu"),
        ({"n_emitters": "1", "emitter.delta": "-inf"}, "emitter.delta"),
        ({"n_emitters": "1", "output.populations": "e+e"}, "output.populations"),
        ({"n_emitters": "1", "output.populations": "e, e"}, "output.populations"),
    ]
    for kv, key in cases:
        with pytest.raises(ScenarioError) as excinfo:
            build_scenario(kv)
        assert excinfo.value.key == key, kv


def test_emitter_index_has_one_spelling():
    """An emitter index is written as str(j): "01" or "+2" would let two keys
    set one field, and one would silently override the other."""
    base = {"n_emitters": "2", "emitter.1.delta": "0.1"}
    assert build_scenario(base).chain.emitters[0].delta == 0.1
    for key in ("emitter.01.delta", "emitter.+2.delta", "emitter. 1.delta", "emitter.1_0.delta",
                "emitter.0.delta", "emitter.3.delta", "emitter.x.delta"):
        with pytest.raises(ScenarioError) as excinfo:
            build_scenario({**base, key: "0.2"})
        assert excinfo.value.key == key
        assert "one of 1, 2" in str(excinfo.value)


def test_comma_lists_refuse_an_empty_item():
    """An empty item in a comma list is a typo, not a shorter list: "1,,2"
    must not load as two ratios, nor "eg+ge,,ee" as two labels."""
    base = {"n_emitters": "2"}
    assert build_scenario({**base, "sweep.ratios": " 1 , 2 "}).sweep_ratios == (1.0, 2.0)
    assert build_scenario({**base, "output.populations": "eg+ge, ee"}).populations == ("eg+ge", "ee")
    for key, value in (("sweep.ratios", "1,,2"), ("sweep.ratios", "1,2,"), ("sweep.ratios", ",1"),
                       ("sweep.ratios", "1, ,2"), ("output.populations", "eg+ge,,ee"),
                       ("output.populations", "ee,")):
        with pytest.raises(ScenarioError, match="empty item") as excinfo:
            build_scenario({**base, key: value})
        assert excinfo.value.key == key, value


def test_drive_phase_key_is_only_accepted_at_the_derived_value():
    """The drive phase follows from chain.d_ratio; a k0d key may restate it
    bit for bit, as resolved() writes it, and is refused otherwise under
    the key that was written, with the derived value in the message."""
    spaced = {"n_emitters": "3", "chain.d_ratio": "0.3"}
    derived = build_scenario(spaced).chain.k0d
    restated = {f"emitter.{j}.k0d": repr(phase) for j, phase in enumerate(derived, start=1)}
    assert build_scenario({**spaced, **restated}) == build_scenario(spaced)
    assert build_scenario({"n_emitters": "2", "emitter.k0d": "0"}).chain.k0d == (0.0, 0.0)
    for extra, key, phase in (
        ({"emitter.2.k0d": "0"}, "emitter.2.k0d", derived[1]),
        ({"emitter.3.k0d": repr(derived[2] + 1e-15)}, "emitter.3.k0d", derived[2]),
        ({"emitter.k0d": "0"}, "emitter.k0d", derived[1]),
        ({"emitter.k0d": "0", "emitter.2.k0d": repr(derived[1])}, "emitter.k0d", derived[2]),
        ({"emitter.4.k0d": "0"}, "emitter.4.k0d", None),
    ):
        with pytest.raises(ScenarioError) as excinfo:
            build_scenario({**spaced, **extra})
        assert excinfo.value.key == key, extra
        assert phase is None or repr(phase) in str(excinfo.value), extra


def test_defaults_per_register_size():
    one = build_scenario({"n_emitters": "1"})
    assert one.populations == ("e",)
    assert not one.want_concurrence and not one.want_fill and one.want_pulse
    two = build_scenario({"n_emitters": "2"})
    assert two.populations == ("eg+ge", "ee")
    assert two.want_concurrence and not two.want_fill
    three = build_scenario({"n_emitters": "3"})
    assert three.populations == ("egg+geg+gge", "eeg+ege+gee", "eee")
    assert three.want_fill and not three.want_concurrence
    assert three.n_photons == 3
    assert three.pulse.mu == 1.46 and three.pulse.t_bar == 5.0
    assert three.integrator.dt == 1e-3 and three.integrator.t_end == 12.0


def test_per_emitter_overrides():
    sc = build_scenario(
        {
            "n_emitters": "2",
            "emitter.gamma_r": "2.0",
            "emitter.2.gamma_r": "3.5",
            "emitter.2.delta": "0.25",
        }
    )
    assert sc.chain.emitters[0].gamma_r == 2.0
    assert sc.chain.emitters[1].gamma_r == 3.5
    assert sc.chain.emitters[0].delta == 0.0
    assert sc.chain.emitters[1].delta == 0.25


def test_with_ratio_rescales_every_emitter_and_clears_sweep():
    sc = build_scenario(
        {"n_emitters": "2", "emitter.gamma_l": "0.5", "sweep.ratios": "1, 4"}
    )
    chiral = sc.with_ratio(4.0)
    assert chiral.sweep_ratios is None
    for em in chiral.chain.emitters:
        assert em.gamma_r == pytest.approx(4.0 * 0.5)
        assert em.gamma_l == 0.5


def test_with_dt_validates():
    sc = build_scenario({"n_emitters": "1"})
    assert sc.with_dt(0.5).integrator.dt == 0.5
    for bad in (0.0, float("inf"), float("nan")):
        with pytest.raises(ScenarioError):
            sc.with_dt(bad)


def test_resolved_configuration_round_trips():
    sc = build_scenario(
        {
            "n_emitters": "2",
            "emitter.gamma_r": "2.5",
            "emitter.2.delta": "0.5",
            "emitter.gamma_spont": "0.75",
            "chain.d_ratio": "0.2",
            "sweep.ratios": "1, 3, 5",
            "output.populations": "ee",
            "output.concurrence": "false",
        }
    )
    assert build_scenario(sc.resolved()) == sc


def test_checked_in_scenarios_parse():
    for stem in (
        "one_emitter_chirality_sweep",
        "two_emitter_chirality_sweep",
        "three_emitter_chirality_sweep",
        "three_emitter_detuned_sweep",
        "three_emitter_lossy_sweep",
    ):
        sc = load_scenario(scenario_path(stem))
        assert isinstance(sc, Scenario)
        assert sc.sweep_ratios
        assert sc.integrator.dt == 1e-3
        for em in sc.chain.emitters:
            assert em.gamma_l == 1.0  # rates are in units of gamma_l


def test_load_scenario_dt_override(tmp_path):
    path = write(tmp_path, TINY)
    assert load_scenario(path).integrator.dt == 0.01
    assert load_scenario(path, dt_override=0.5).integrator.dt == 0.5


# ----------------------------------------------------------------------- CLI


def test_cli_run_writes_csv_and_summary(tmp_path, capsys):
    path = write(tmp_path, TINY)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    csv_path = tmp_path / "out" / "case.csv"
    json_path = tmp_path / "out" / "case_summary.json"
    assert csv_path.exists() and json_path.exists()

    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["t", "P_eg+ge", "P_ee", "concurrence", "pulse_intensity"]
    # 1 header + initial snapshot + floor(t_end / (dt * stride)) rows
    assert len(lines) == 1 + 1 + 20
    first = lines[1].split(",")
    assert float(first[0]) == 0.0

    summary = json.loads(json_path.read_text())
    assert summary["n_time_points"] == 21
    assert summary["series"] == header[1:]
    for name in header[1:]:
        assert {"value", "time"} <= set(summary["peaks"][name])
    # the summary echoes a configuration that rebuilds the exact scenario
    assert build_scenario(summary["scenario"]) == load_scenario(path)

    out = capsys.readouterr().out
    assert "wrote" in out


def test_cli_quiet_suppresses_output(tmp_path, capsys):
    path = write(tmp_path, TINY)
    assert main(["run", str(path), "--out-dir", str(tmp_path), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_cli_runs_are_byte_identical(tmp_path):
    path = write(tmp_path, TINY)
    main(["run", str(path), "--out-dir", str(tmp_path / "a"), "--quiet"])
    main(["run", str(path), "--out-dir", str(tmp_path / "b"), "--quiet"])
    assert (tmp_path / "a" / "case.csv").read_bytes() == (tmp_path / "b" / "case.csv").read_bytes()


def test_cli_dt_override_changes_grid(tmp_path):
    path = write(tmp_path, TINY)
    main(["run", str(path), "--out-dir", str(tmp_path), "--dt", "0.02", "--quiet"])
    lines = (tmp_path / "case.csv").read_text().splitlines()
    assert len(lines) == 1 + 1 + 10


def test_cli_decoupled_emitters_stay_in_the_ground_state(tmp_path):
    text = """
n_emitters = 1
emitter.gamma_r = 0
emitter.gamma_l = 0
output.populations = g, e
output.pulse = false
integrator.dt = 0.01
integrator.t_end = 2.0
integrator.stride = 10
"""
    path = write(tmp_path, text, name="decoupled.cfg")
    assert main(["run", str(path), "--out-dir", str(tmp_path), "--quiet"]) == 0
    rows = (tmp_path / "decoupled.csv").read_text().splitlines()[1:]
    for row in rows:
        _, p_g, p_e = row.split(",")
        assert float(p_g) == 1.0
        assert float(p_e) == 0.0


def test_cli_missing_file_and_bad_scenario_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.cfg"), "--quiet"]) == 2
    assert "not found" in capsys.readouterr().err

    bad = write(tmp_path, "n_emitters = 1\nbogus = 1\n", name="bad.cfg")
    assert main(["run", str(bad), "--quiet"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_cli_non_finite_number_exits_2(tmp_path, capsys):
    path = write(tmp_path, "n_emitters = 1\nintegrator.t_end = inf\n", name="endless.cfg")
    assert main(["run", str(path), "--out-dir", str(tmp_path), "--quiet"]) == 2
    assert "integrator.t_end" in capsys.readouterr().err
    tiny = str(write(tmp_path, TINY))
    assert main(["run", tiny, "--out-dir", str(tmp_path), "--dt", "inf", "--quiet"]) == 2
    assert "integrator.dt" in capsys.readouterr().err


def test_cli_out_of_range_value_names_its_own_key(tmp_path, capsys):
    """The pulse and integrator configs reject these values themselves; each
    error still names the key that set the value."""
    for key in ("pulse.mu", "integrator.dt", "integrator.t_end", "integrator.stride"):
        path = write(tmp_path, f"n_emitters = 1\n{key} = 0\n", name="zero.cfg")
        assert main(["run", str(path), "--out-dir", str(tmp_path), "--quiet"]) == 2, key
        err = capsys.readouterr().err
        assert key in err, (key, err)
        assert all(other not in err for other in (
            "pulse.mu", "integrator.dt", "integrator.t_end", "integrator.stride"
        ) if other != key), (key, err)


def test_step_count_limit_exits_2(tmp_path, capsys):
    """t_end / dt above MAX_STEPS is refused before any step is taken, under
    the key that set it.  load_scenario and with_dt are checked first, so an
    implementation without the limit fails here instead of running forever."""
    path = write(tmp_path, "n_emitters = 1\nintegrator.t_end = 1e300\n", name="endless.cfg")
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(path)
    assert excinfo.value.key == "integrator.t_end"
    tiny = write(tmp_path, TINY)
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(tiny).with_dt(1e-9)
    assert excinfo.value.key == "integrator.dt"

    assert main(["run", str(path), "--out-dir", str(tmp_path), "--quiet"]) == 2
    assert "integrator.t_end" in capsys.readouterr().err
    assert main(["run", str(tiny), "--out-dir", str(tmp_path), "--dt", "1e-9", "--quiet"]) == 2
    assert "integrator.dt" in capsys.readouterr().err


def test_horizon_shorter_than_a_step_exits_2(tmp_path, capsys):
    """t_end < dt leaves a grid with no step, which would write a lone t = 0
    row and exit 0; it is refused when the scenario is read, under
    integrator.t_end, and nothing is written."""
    path = write(tmp_path, "n_emitters = 1\nintegrator.t_end = 0.0005\n", name="instant.cfg")
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(path)
    assert excinfo.value.key == "integrator.t_end"
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out), "--quiet"]) == 2
    assert "integrator.t_end" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_dt_override_longer_than_the_horizon_exits_2(tmp_path, capsys):
    """The same refusal, when the step comes from --dt, names integrator.dt."""
    tiny = write(tmp_path, TINY)  # t_end = 2.0
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(tiny).with_dt(5.0)
    assert excinfo.value.key == "integrator.dt"
    out = tmp_path / "out"
    assert main(["run", str(tiny), "--out-dir", str(out), "--dt", "5", "--quiet"]) == 2
    assert "integrator.dt" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_cli_sweep_without_ratios_exits_2(tmp_path, capsys):
    path = write(tmp_path, TINY)
    assert main(["sweep", str(path), "--quiet"]) == 2
    assert "sweep.ratios" in capsys.readouterr().err


def test_sweep_ratio_that_overflows_gamma_r_exits_2_and_writes_nothing(tmp_path, capsys):
    """A ratio whose ratio * gamma_l overflows to inf for some emitter is
    refused while the scenario is built: exit 2 naming the key and the
    ratio, and no output directory.  Where gamma_l = 0 on every emitter the
    same ratio gives gamma_r = 0 and is accepted."""
    text = ("n_emitters = 2\nemitter.1.gamma_l = 10\nemitter.2.gamma_l = 0\n"
            "integrator.dt = 0.01\nintegrator.t_end = 0.1\nsweep.ratios = 1, 1e308\n")
    out = tmp_path / "out"
    assert main(["sweep", str(write(tmp_path, text)), "--out-dir", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "sweep.ratios" in err and "1e+308" in err
    assert not out.exists()
    kv = parse_scenario_text(text.replace("emitter.1.gamma_l = 10", "emitter.1.gamma_l = 0"))
    assert build_scenario(kv).with_ratio(1e308).chain.emitters[0].gamma_r == 0.0
    with pytest.raises(ScenarioError, match="sweep.ratios"):
        build_scenario(parse_scenario_text(text.replace("1, 1e308", "2e307")))


def test_cli_unstable_step_exits_3(tmp_path, capsys):
    text = """
n_emitters = 1
emitter.gamma_r = 1e12
integrator.dt = 1.0
integrator.t_end = 12.0
integrator.stride = 1
"""
    path = write(tmp_path, text, name="unstable.cfg")
    assert main(["run", str(path), "--out-dir", str(tmp_path), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "blew up" in err and "t =" in err


def test_cli_sweep_writes_per_ratio_and_aggregate(tmp_path):
    text = TINY + "sweep.ratios = 1, 2\n"
    path = write(tmp_path, text, name="pair.cfg")
    assert main(["sweep", str(path), "--out-dir", str(tmp_path / "out"), "--quiet"]) == 0
    out = tmp_path / "out"
    for tag in ("pair_ratio1", "pair_ratio2"):
        assert (out / f"{tag}.csv").exists()
        assert (out / f"{tag}_summary.json").exists()

    agg = (out / "pair_sweep.csv").read_text().splitlines()
    header = agg[0].split(",")
    assert header[0] == "ratio"
    assert "concurrence_max" in header and "concurrence_t" in header
    assert "pulse_intensity_max" not in header  # drive shape is ratio-independent
    assert [row.split(",")[0] for row in agg[1:]] == ["1", "2"]

    sweep_summary = json.loads((out / "pair_sweep_summary.json").read_text())
    assert set(sweep_summary["peaks_by_ratio"]) == {"1", "2"}


def test_cli_single_ratio_sweep_equals_plain_run(tmp_path):
    sweep_cfg = write(tmp_path, TINY + "sweep.ratios = 1\n", name="single.cfg")
    run_cfg = write(tmp_path, TINY, name="plain.cfg")
    main(["sweep", str(sweep_cfg), "--out-dir", str(tmp_path / "s"), "--quiet"])
    main(["run", str(run_cfg), "--out-dir", str(tmp_path / "r"), "--quiet"])
    sweep_csv = (tmp_path / "s" / "single_ratio1.csv").read_bytes()
    run_csv = (tmp_path / "r" / "plain.csv").read_bytes()
    assert sweep_csv == run_csv


def test_cli_full_run_single_emitter_peak(tmp_path):
    """End-to-end through the CLI on the shipped one-emitter scenario: the
    summary JSON must report the reference excitation peak."""
    assert (
        main(
            [
                "run",
                str(scenario_path("one_emitter_chirality_sweep")),
                "--out-dir",
                str(tmp_path),
                "--quiet",
            ]
        )
        == 0
    )
    summary = json.loads((tmp_path / "one_emitter_chirality_sweep_summary.json").read_text())
    pe = summary["peaks"]["P_e"]
    assert abs(pe["value"] - 0.52) <= 0.01
    assert abs(pe["time"] - 5.25) <= 0.10


def test_csv_values_are_finite_and_formatted(tmp_path):
    path = write(tmp_path, TINY)
    main(["run", str(path), "--out-dir", str(tmp_path), "--quiet"])
    rows = (tmp_path / "case.csv").read_text().splitlines()[1:]
    table = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert np.all(np.isfinite(table))
    assert np.all(np.diff(table[:, 0]) > 0)  # strictly increasing time column
    for row in rows:
        for field in row.split(","):
            assert len(field.replace("-", "").replace(".", "").replace("e", "")) <= 17


def test_csv_writer_matches_per_value_formatting(tmp_path):
    """The row-at-a-time writer gives the same bytes as formatting every
    value on its own with format(x, ".12g"), on the values where the two
    could part: signed zeros, the ends of the float range, infinities, NaN
    and ties in the 13th significant digit."""
    special = [0.0, -0.0, 1.0, 1e-300, 5e-324, 2.2250738585072014e-308 / 3, np.inf, -np.inf,
               np.nan, 100000000000.5, 100000000001.5, 1234567890.125, -1234567890.375,
               0.1234567890125, 12345678901.25, 2.0 / 3.0, -1e300, 12.0]
    rng = np.random.default_rng(5)
    scattered = rng.normal(size=len(special)) * 10.0 ** rng.integers(-20, 20, len(special))
    columns = [np.array(special), scattered, np.array(special[::-1]), np.arange(len(special))]
    header = ["t", "a", "b", "c"]
    cli._write_csv(tmp_path / "table.csv", header, columns)
    lines = [",".join(header)] + [
        ",".join(format(col[i], ".12g") for col in columns) for i in range(len(special))
    ]
    assert (tmp_path / "table.csv").read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_module_entry_point_runs_without_runtime_warning():
    """`python -m wgqed.cli` must not find wgqed.cli already imported by the
    package, which would print a RuntimeWarning before the help text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "wgqed.cli", "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: wgqed" in proc.stdout


def test_traced_benchmark_pass_finds_every_wrapped_name(tmp_path):
    """The benchmark's traced pass wraps module attributes by name and drops
    every metric whose name has gone, so a rename would pass unnoticed:
    run its tracing script on one-step 3- and 2-emitter runs and require
    that it finds every name, reads the integration's shape, and counts
    one call of the entanglement measure each run requests (a name kept
    only as a dead import would count none)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    for stem, state_len, span in (
        ("three_emitter_chirality_sweep", 196, "entanglement.fill"),
        ("two_emitter_chirality_sweep", 52, "entanglement.concurrence"),
    ):
        text = scenario_path(stem).read_text(encoding="utf-8")
        path = write(tmp_path, text.replace("integrator.t_end = 12.0", "integrator.t_end = 1e-3"))
        report = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, str(SRC_DIR.parent / "perfbench" / "tracing.py"), str(report),
             "run", str(path), "--out-dir", str(tmp_path), "--quiet"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        traced = json.loads(report.read_text())
        assert traced["absent"] == []
        assert [(i["state_len"], i["steps"]) for i in traced["integrations"]] == [(state_len, 1)]
        assert traced["spans"][span]["count"] == 1


def test_benchmark_scenario_files_restate_the_derived_drive_phase(monkeypatch):
    """Every benchmark scenario file writes emitter.<j>.k0d; build_scenario
    refuses any value but the derived phase, so a change to the phase
    expression that moves it by one bit fails here, not in the benchmark."""
    monkeypatch.syspath_prepend(str(SRC_DIR.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    spaced = 0
    for name, shapes in workloads.WORKLOADS.items():
        for shape, seed in itertools.product(shapes, (0, 1, 2, 17)):
            kv = parse_scenario_text(workloads.scenario_text(name, shape, seed))
            written = tuple(float(kv[f"emitter.{j}.k0d"]) for j in range(1, shape.n_emitters + 1))
            assert build_scenario(kv).chain.k0d == written, (name, shape.stem, seed)
            spaced += any(written)
    assert spaced >= 8  # seeds other than 0 draw d_ratio > 0
