"""Named series extraction, peaks, and trajectory assembly."""

import dataclasses
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from oracles import random_chain
from wgqed.entanglement import PAIR_COHERENCE, concurrence_fill, read_state, wootters_concurrence
from wgqed.integrator import IntegrationBlowUpError, IntegratorConfig, StateTrajectory, integrate
from wgqed.observables import build_trajectory, peak, population, population_indices
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
    for bad in ("", "eg+", "+ge", "eg++ge", "eg+ +ge"):
        with pytest.raises(ValueError, match=re.escape(f"label {bad!r} has an empty term")):
            population(pops, reg, bad)
    for bad in ("e", "exg"):
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
    p = peak(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.1, 0.7, 0.7, 0.2]))
    assert p == {"value": 0.7, "time": 1.0}


def test_peak_of_an_empty_series():
    with pytest.raises(ValueError):
        peak(np.array([]), np.array([]))


@pytest.mark.parametrize("values, want", [
    ([0.1, 0.3, 0.2, 0.5, 0.9, 0.4, 0.6], (0.9, 2.0)),  # the maximum in a later chunk
    ([0.1, 0.2, 0.7, 0.7, 0.7, 0.3, 0.1], (0.7, 1.0)),  # a tie across a chunk edge
    ([0.9, 0.1, 0.2, 0.9, 0.3, 0.9, 0.2], (0.9, 0.0)),  # the maximum at record 0, tied later
], ids=["later-chunk", "tie-across-edge", "record-0"])
def test_running_peak_equals_the_peak_of_the_whole_series(values, want):
    """Folding the chunks' values into the running peak, a run's chunks being
    read in order, gives peak() of the concatenated series, the first hit on
    ties, for every way of cutting seven records into chunks."""
    times, values = np.arange(len(values)) * 0.5, np.array(values)
    whole = peak(times, values)
    assert (whole["value"], whole["time"]) == want
    for cuts in itertools.chain.from_iterable(
            itertools.combinations(range(1, len(values)), k) for k in range(len(values))):
        edges = [0, *cuts, len(values)]
        running = None
        for a, b in zip(edges, edges[1:]):
            running = peak(times[a:b], values[a:b], running)
        assert running == whole, cuts


def test_series_names_and_order_on_a_two_emitter_run(scenario_run):
    """The map's keys are the output columns, in order: the populations in
    label order, then concurrence, fill and pulse_intensity as requested."""
    _, states = scenario_run("two_emitter_chirality_sweep", 5.0)
    pulse = GaussianPulse(mu=1.46, t_bar=5.0)
    series = build_trajectory(states, ("ee", "eg+ge"), want_concurrence=True, pulse=pulse)
    assert list(series) == ["P_ee", "P_eg+ge", "concurrence", "pulse_intensity"]
    assert all(len(values) == len(states.times) for values in series.values())


def test_build_trajectory_matches_direct_computation(scenario_run):
    series, states = scenario_run("two_emitter_chirality_sweep", 5.0)
    reg = states.register
    phys = states.physical()

    for label in ("eg+ge", "ee"):
        direct = np.array([population(read_state(rho, reg)[0], reg, label) for rho in phys])
        assert np.allclose(series[f"P_{label}"], direct, atol=1e-14)

    direct_c = np.array([concurrence_of(rho) for rho in phys])
    assert np.allclose(series["concurrence"], direct_c, atol=1e-12)

    pulse = GaussianPulse(mu=1.46, t_bar=5.0)
    assert np.allclose(series["pulse_intensity"], amplitude(pulse, states.times) ** 2, atol=1e-14)


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
    series = build_trajectory(states, population_labels=("e",))
    assert set(series) == {"P_e"}


def every_label(n: int) -> tuple:
    """Each basis state alone, then one label per excitation number."""
    states = ["".join(s) for s in itertools.product("ge", repeat=n)]
    classes = ["+".join(s for s in states if s.count("e") == k) for k in range(n + 1)]
    return tuple(states + classes)


def assert_matches_the_matrix_path(states: StateTrajectory) -> dict:
    """build_trajectory, which reads the coordinates, against read_state on
    the scattered physical blocks and the same closed forms."""
    reg = states.register
    labels = every_label(reg.n_emitters)
    pair, triple = reg.n_emitters == 2, reg.n_emitters == 3
    series = build_trajectory(states, labels, want_concurrence=pair, want_fill=triple)
    populations, coherence = read_state(states.physical(), reg)
    for label in labels:
        assert np.array_equal(series[f"P_{label}"], population(populations, reg, label)), label
    if pair:
        expected = wootters_concurrence(populations, coherence)
        assert np.abs(series["concurrence"] - expected).max() <= 1e-15
    if triple:
        assert np.abs(series["fill"] - concurrence_fill(populations)).max() <= 1e-15
    return series


@pytest.mark.parametrize("stem", ["two_emitter_chirality_sweep", "three_emitter_chirality_sweep",
                                  "three_emitter_detuned_sweep", "three_emitter_lossy_sweep"])
def test_series_from_coordinates_equal_the_matrix_path_on_shipped_runs(scenario_run, stem):
    for ratio in (1.0, 5.0):
        series = assert_matches_the_matrix_path(scenario_run(stem, ratio)[1])
    entanglement = series.get("concurrence", series.get("fill"))
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


@pytest.mark.parametrize("block", [None, 8, 4, 2], ids=["chunk", "8", "4", "2"])
@pytest.mark.parametrize("coherence_at, scaled_at, reported, reason", [
    (7, 9, 7, r"state not positive semidefinite \(min eig -.*\)"),
    (9, 7, 7, r"state trace (3\.0|2\.99+6) is not in \(0, 1\]"),
    (7, 7, 7, r"state trace (3\.0|2\.99+6) is not in \(0, 1\]"),  # a tie names the trace
], ids=["positivity-first", "trace-first", "tie"])
def test_blow_up_names_the_earliest_bad_record_over_every_check(
        block, coherence_at, scaled_at, reported, reason):
    """One record fails only the concurrence's positivity check (rho_{eg,ge}'s
    real coordinate raised by 0.4), another only its trace check (the state
    times 3).  The earlier is named, whichever check it fails and whichever
    chunk each falls in: the records are read as a run reads them, chunk by
    chunk in order, in one chunk of 101 records or in chunks of 8, 4 and 2."""
    sc = load_scenario(scenario_path("two_emitter_chirality_sweep")).with_ratio(5.0)
    states = integrate(sc.chain, sc.pulse, sc.n_photons,
                       IntegratorConfig(dt=0.01, t_end=1.0, record_stride=1))
    prop, n = states.propagator, states.n_ph
    real_part = np.flatnonzero(prop.entry(np.eye(prop.size), n, n, *PAIR_COHERENCE) == 1.0)
    assert len(real_part) == 1
    blocks = states.blocks.copy()
    blocks[coherence_at, real_part] += 0.4
    blocks[scaled_at] *= 3.0
    size = block or len(states.times)
    with pytest.raises(IntegrationBlowUpError) as excinfo:
        for start in range(0, len(states.times), size):
            rows = slice(start, start + size)
            build_trajectory(dataclasses.replace(states, times=states.times[rows],
                                                 blocks=blocks[rows]), want_concurrence=True)
    assert re.fullmatch(reason, excinfo.value.reason), excinfo.value.reason
    assert excinfo.value.time == states.times[reported]


def test_record_dense_series_build_no_density_matrix_stack():
    """On the 12 001-record three-emitter shape at one photon, read chunk by
    chunk as a run reads it, each chunk's series build peaks below 40 floats
    per record of the chunk, its five series included, far below one real
    (records, d, d) array: nothing scatters the records into density
    matrices."""
    sc = load_scenario(scenario_path("three_emitter_lossy_sweep")).with_ratio(5.0)
    icfg = IntegratorConfig(dt=1e-3, t_end=12.0, record_stride=1)
    dim, peaks = EmitterRegister(3).dim, []

    def build(part):
        series = build_trajectory(part, sc.populations, want_fill=True, pulse=sc.pulse)  # warm
        tracemalloc.start()
        try:
            build_trajectory(part, sc.populations, want_fill=True, pulse=sc.pulse)
            peaks.append((len(part.times), tracemalloc.get_traced_memory()[1], len(series)))
        finally:
            tracemalloc.stop()

    integrate(sc.chain, sc.pulse, 1, icfg, build)
    assert sum(n for n, _, _ in peaks) == 12_001 and len(peaks) == 12
    for n, peak, n_series in peaks:
        assert n_series == 5
        assert peak < n * 8 * 40 < n * dim * dim * 8, (n, peak)
