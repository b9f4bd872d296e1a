"""Named series extraction, peaks, and trajectory assembly."""

import numpy as np
import pytest

from wgqed.entanglement import concurrence_fill, wootters_concurrence
from wgqed.observables import (
    PeakSummary,
    Trajectory,
    build_trajectory,
    peak,
    population,
    population_indices,
)
from wgqed.pulse import GaussianPulse, amplitude
from wgqed.qubit_algebra import EmitterRegister, basis_index


def test_population_sums_named_diagonals():
    reg = EmitterRegister(2)
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert population(rho, reg, "gg") == pytest.approx(0.4)
    assert population(rho, reg, "ge") == pytest.approx(0.3)
    assert population(rho, reg, "eg+ge") == pytest.approx(0.5)
    assert population(rho, reg, " eg + ge ") == pytest.approx(0.5)
    assert population(rho, reg, "ee") == pytest.approx(0.1)


def test_population_rejects_malformed_labels():
    reg = EmitterRegister(2)
    rho = np.eye(4, dtype=complex) / 4
    for bad in ("", "eg+", "+ge", "e", "exg"):
        with pytest.raises(ValueError):
            population(rho, reg, bad)


def test_population_refuses_a_label_that_repeats_a_state():
    """A label such as "eg+eg" would count rho_{eg,eg} twice; the library
    call refuses it as the scenario check does, with the same message."""
    reg = EmitterRegister(2)
    rho = np.eye(4, dtype=complex) / 4
    assert population_indices(reg, " eg + ge ") == [2, 1]
    for bad in ("eg+eg", "ee+gg+ee", " eg + eg "):
        with pytest.raises(ValueError, match="repeats a basis state"):
            population(rho, reg, bad)


def test_peak_reports_first_global_maximum():
    traj = Trajectory(
        times=np.array([0.0, 1.0, 2.0, 3.0]),
        populations={"e": np.array([0.1, 0.7, 0.7, 0.2])},
    )
    p = peak(traj, "P_e")
    assert p == PeakSummary(0.7, 1.0)


def test_peak_unknown_and_empty_series():
    traj = Trajectory(times=np.array([]), populations={"e": np.array([])})
    with pytest.raises(KeyError):
        peak(traj, "nonsense")
    with pytest.raises(ValueError):
        peak(traj, "P_e")


def test_series_map_names_and_order():
    traj = Trajectory(
        times=np.arange(3.0),
        populations={"eg+ge": np.zeros(3), "ee": np.ones(3)},
        concurrence=np.zeros(3),
        pulse_intensity=np.ones(3),
    )
    assert list(traj.series_map()) == ["P_eg+ge", "P_ee", "concurrence", "pulse_intensity"]


def test_build_trajectory_matches_direct_computation(scenario_run):
    traj, states = scenario_run("two_emitter_chirality_sweep", 5.0)
    reg = states.register
    phys = states.physical()

    for label in ("eg+ge", "ee"):
        direct = np.array([population(rho, reg, label) for rho in phys])
        assert np.allclose(traj.populations[label], direct, atol=1e-14)

    direct_c = np.array([wootters_concurrence(rho) for rho in phys])
    assert np.allclose(traj.concurrence, direct_c, atol=1e-12)

    pulse = GaussianPulse(mu=1.46, t_bar=5.0)
    assert np.allclose(traj.pulse_intensity, amplitude(pulse, states.times) ** 2, atol=1e-14)


def test_entanglement_series_match_per_record_loop(scenario_run):
    """A whole recorded series goes through each measure in one call; the
    per-matrix loop is the reference, and a stack of the wrong size raises."""
    _, states2 = scenario_run("two_emitter_chirality_sweep", 1.0)
    phys2 = states2.physical()
    loop = np.array([wootters_concurrence(rho) for rho in phys2])
    assert np.array_equal(wootters_concurrence(phys2), loop)

    _, states3 = scenario_run("three_emitter_chirality_sweep", 1.0)
    phys3 = states3.physical()
    loop = np.array([concurrence_fill(rho) for rho in phys3])
    assert np.array_equal(concurrence_fill(phys3), loop)

    with pytest.raises(ValueError):
        wootters_concurrence(phys3)
    with pytest.raises(ValueError):
        concurrence_fill(phys2)


def test_build_trajectory_without_optional_series(scenario_run):
    _, states = scenario_run("one_emitter_chirality_sweep", 1.0)
    traj = build_trajectory(states, population_labels=("e",))
    assert traj.concurrence is None
    assert traj.fill is None
    assert traj.pulse_intensity is None
    assert set(traj.series_map()) == {"P_e"}
