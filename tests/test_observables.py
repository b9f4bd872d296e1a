"""Named series extraction, peaks, and trajectory assembly."""

import dataclasses
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from oracles import random_chain
from wgqed.entanglement import concurrence_fill, read_state, wootters_concurrence
from wgqed.integrator import IntegrationBlowUpError, IntegratorConfig, StateTrajectory, integrate
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

from wgqed.scenario import load_scenario

from conftest import concurrence_of, fill_of, scenario_path


def test_population_sums_named_diagonals():
    reg = EmitterRegister(2)
    pops = np.array([0.4, 0.3, 0.2, 0.1])  # the diagonal of a density matrix
    assert population(pops, reg, "gg") == pytest.approx(0.4)
    assert population(pops, reg, "ge") == pytest.approx(0.3)
    assert population(pops, reg, "eg+ge") == pytest.approx(0.5)
    assert population(pops, reg, " eg + ge ") == pytest.approx(0.5)
    assert population(pops, reg, "ee") == pytest.approx(0.1)


def test_population_rejects_malformed_labels():
    reg = EmitterRegister(2)
    pops = np.full(4, 0.25)
    for bad in ("", "eg+", "+ge", "e", "exg"):
        with pytest.raises(ValueError):
            population(pops, reg, bad)


def test_population_refuses_a_label_that_repeats_a_state():
    """A label such as "eg+eg" would count rho_{eg,eg} twice; the library
    call refuses it as the scenario check does, with the same message."""
    reg = EmitterRegister(2)
    pops = np.full(4, 0.25)
    assert population_indices(reg, " eg + ge ") == [2, 1]
    for bad in ("eg+eg", "ee+gg+ee", " eg + eg "):
        with pytest.raises(ValueError, match="repeats a basis state"):
            population(pops, reg, bad)


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
        direct = np.array([population(read_state(rho, reg)[0], reg, label) for rho in phys])
        assert np.allclose(traj.populations[label], direct, atol=1e-14)

    direct_c = np.array([concurrence_of(rho) for rho in phys])
    assert np.allclose(traj.concurrence, direct_c, atol=1e-12)

    pulse = GaussianPulse(mu=1.46, t_bar=5.0)
    assert np.allclose(traj.pulse_intensity, amplitude(pulse, states.times) ** 2, atol=1e-14)


def test_entanglement_series_match_per_record_loop(scenario_run):
    """A whole recorded series goes through each measure in one call; the
    per-matrix loop is the reference, and a stack of the wrong size raises."""
    _, states2 = scenario_run("two_emitter_chirality_sweep", 1.0)
    phys2 = states2.physical()
    loop = np.array([concurrence_of(rho) for rho in phys2])
    assert np.array_equal(concurrence_of(phys2), loop)

    _, states3 = scenario_run("three_emitter_chirality_sweep", 1.0)
    phys3 = states3.physical()
    loop = np.array([fill_of(rho) for rho in phys3])
    assert np.array_equal(fill_of(phys3), loop)

    with pytest.raises(ValueError):
        concurrence_of(phys3)
    with pytest.raises(ValueError):
        fill_of(phys2)


def test_build_trajectory_without_optional_series(scenario_run):
    _, states = scenario_run("one_emitter_chirality_sweep", 1.0)
    traj = build_trajectory(states, population_labels=("e",))
    assert traj.concurrence is None
    assert traj.fill is None
    assert traj.pulse_intensity is None
    assert set(traj.series_map()) == {"P_e"}


def every_label(n: int) -> tuple:
    """Each basis state alone, then one label per excitation number."""
    states = ["".join(s) for s in itertools.product("ge", repeat=n)]
    classes = ["+".join(s for s in states if s.count("e") == k) for k in range(n + 1)]
    return tuple(states + classes)


def assert_matches_the_matrix_path(states: StateTrajectory) -> Trajectory:
    """build_trajectory, which reads the coordinates, against read_state on
    the scattered physical blocks and the same closed forms."""
    reg = states.register
    labels = every_label(reg.n_emitters)
    pair, triple = reg.n_emitters == 2, reg.n_emitters == 3
    traj = build_trajectory(states, labels, want_concurrence=pair, want_fill=triple)
    populations, coherence = read_state(states.physical(), reg)
    for label in labels:
        assert np.array_equal(traj.populations[label], population(populations, reg, label)), label
    if pair:
        assert np.abs(traj.concurrence - wootters_concurrence(populations, coherence)).max() <= 1e-15
    if triple:
        assert np.abs(traj.fill - concurrence_fill(populations)).max() <= 1e-15
    return traj


@pytest.mark.parametrize("stem", ["two_emitter_chirality_sweep", "three_emitter_chirality_sweep",
                                  "three_emitter_detuned_sweep", "three_emitter_lossy_sweep"])
def test_series_from_coordinates_equal_the_matrix_path_on_shipped_runs(scenario_run, stem):
    for ratio in (1.0, 5.0):
        traj = assert_matches_the_matrix_path(scenario_run(stem, ratio)[1])
    entanglement = traj.fill if traj.concurrence is None else traj.concurrence
    assert entanglement.max() > 0.1  # ratio 5: not a series of zeros


@pytest.mark.parametrize("n, n_ph", [(2, 1), (2, 3), (3, 1), (3, 2)])
def test_series_from_coordinates_equal_the_matrix_path_on_random_chains(n, n_ph):
    """Chiral, detuned, lossy and spaced chains (random_chain draws all four)."""
    for seed in range(3):
        cfg = random_chain(np.random.default_rng(800 + 10 * n + seed), n)
        states = integrate(cfg, GaussianPulse(mu=1.46, t_bar=3.0), n_ph,
                           IntegratorConfig(dt=2e-3, t_end=6.0, record_stride=5))
        assert_matches_the_matrix_path(states)


@pytest.mark.parametrize("stem, measure", [("two_emitter_chirality_sweep", "want_concurrence"),
                                           ("three_emitter_chirality_sweep", "want_fill")])
def test_a_record_outside_the_trace_range_stops_the_series(scenario_run, stem, measure):
    """The trace check is the fill's only check on the coordinates: a record
    with trace 3 or 0 is reported at its time, by either measure."""
    _, states = scenario_run(stem, 5.0)
    for record, scale, reason in ((7, 3.0, r"state trace (3\.0|2\.99+6) is not in \(0, 1\]"),
                                  (9, 0.0, r"state trace 0\.0 is not in \(0, 1\]")):
        blocks = states.blocks.copy()
        blocks[record] *= scale
        with pytest.raises(IntegrationBlowUpError) as excinfo:
            build_trajectory(dataclasses.replace(states, blocks=blocks), **{measure: True})
        assert re.fullmatch(reason, excinfo.value.reason), excinfo.value.reason
        assert excinfo.value.time == states.times[record]


def test_record_dense_series_build_no_density_matrix_stack():
    """On the 12 001-record three-emitter shape at one photon, assembling
    every series peaks below one real (n_rec, d, d) array: nothing scatters
    the records into density matrices."""
    sc = load_scenario(scenario_path("three_emitter_lossy_sweep")).with_ratio(5.0)
    states = integrate(sc.chain, sc.pulse, 1, IntegratorConfig(dt=1e-3, t_end=12.0, record_stride=1))
    n_rec, dim = len(states.times), states.register.dim
    assert n_rec == 12_001
    build_trajectory(states, sc.populations, want_fill=True, pulse=sc.pulse)  # warm
    tracemalloc.start()
    try:
        build_trajectory(states, sc.populations, want_fill=True, pulse=sc.pulse)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_rec * dim * dim * 8, peak
