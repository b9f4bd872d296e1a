"""Level-cascade integration against the RK4 oracle and the level-by-level
reference: accuracy, order, recording grid, the stacked wavefront, limits
and failure modes.  The RK4 oracle's own tests come first."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import SCENARIO_DIR, gather, scenario_path
from oracles import (
    _OneLevelStep,
    full_hierarchy_run,
    level_by_level_integrate,
    random_chain,
    rk4_solve,
)
from wgqed import integrator
from wgqed.hierarchy import HierarchyPropagator, block_order
from wgqed.integrator import (
    MAX_STEPS,
    IntegrationBlowUpError,
    IntegratorConfig,
    StateTrajectory,
    integrate,
)
from wgqed.liouvillian import ChainConfig, EmitterParams
from wgqed.pulse import GaussianPulse, amplitude
from wgqed.qubit_algebra import EmitterRegister
from wgqed.scenario import load_scenario

SHIPPED = sorted(path.stem for path in SCENARIO_DIR.glob("*.cfg"))


def test_config_validation():
    for kwargs in (
        {"dt": 0.0},
        {"dt": -1e-3},
        {"t_end": 0.0},
        {"record_stride": 0},
        {"dt": 1e-3, "t_end": 1e-3 * (MAX_STEPS + 1)},
        {"dt": 1e-300, "t_end": 1e300},
        {"t_end": float("inf")},
        {"t_end": float("nan")},
        {"dt": float("inf")},  # would otherwise give a zero-step, one-record run
        {"dt": float("nan")},
    ):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)
    # a horizon shorter than one step: no step on the grid, reported under t_end
    with pytest.raises(ValueError, match="^t_end"):
        IntegratorConfig(dt=1e-3, t_end=5e-4)
    assert IntegratorConfig(dt=1e-3, t_end=1e-3).n_steps == 1
    assert IntegratorConfig(dt=1e-3, t_end=1e-3 * MAX_STEPS).n_steps == MAX_STEPS


def test_exponential_decay_is_reproduced():
    f = lambda t, y: -y
    y0 = np.array([1.0 + 0.0j])
    times, snaps = rk4_solve(f, y0, IntegratorConfig(dt=1e-3, t_end=1.0, record_stride=1000))
    assert times[-1] == pytest.approx(1.0)
    assert abs(snaps[-1][0] - np.exp(-1.0)) < 1e-12


def test_fourth_order_convergence_on_scalar_problem():
    # damped complex oscillation y' = (-1 + i/2) y with y(t) = exp(lam t)
    lam = -1.0 + 0.5j
    f = lambda t, y: lam * y
    y0 = np.array([1.0 + 0.0j])
    errors = []
    for dt in (0.1, 0.05, 0.025):
        _, snaps = rk4_solve(f, y0, IntegratorConfig(dt=dt, t_end=2.0, record_stride=10**9))
        errors.append(abs(snaps[-1][0] - np.exp(lam * 2.0)))
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for p in orders:
        assert 3.7 < p < 4.3, f"measured order {orders}"


def test_recording_grid_and_final_snapshot():
    f = lambda t, y: 0.0 * y
    y0 = np.array([1.0 + 0.0j])
    times, snaps = rk4_solve(f, y0, IntegratorConfig(dt=1e-3, t_end=12.0, record_stride=10))
    assert len(times) == 1201
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(12.0)
    assert np.allclose(np.diff(times), 0.01)
    assert snaps.shape == (1201, 1)
    # a horizon that is not a multiple of dt is never overshot
    times2, _ = rk4_solve(f, y0, IntegratorConfig(dt=0.3, t_end=1.0, record_stride=1))
    assert times2[-1] <= 1.0 + 1e-12
    assert times2[-1] == pytest.approx(0.9)


def test_integration_is_deterministic():
    f = lambda t, y: -(1.0 + 0.3j) * y + np.exp(-t)
    y0 = np.array([0.2 + 0.1j, -0.4 + 0.0j])
    t1, s1 = rk4_solve(f, y0, IntegratorConfig(dt=2e-3, t_end=3.0, record_stride=5))
    t2, s2 = rk4_solve(f, y0, IntegratorConfig(dt=2e-3, t_end=3.0, record_stride=5))
    assert np.array_equal(t1, t2)
    assert np.array_equal(s1, s2)


def test_blow_up_is_reported_with_time():
    f = lambda t, y: 1e200 * y * np.abs(y)  # super-linear growth overflows fast
    y0 = np.array([1e200 + 0.0j])
    with pytest.raises(IntegrationBlowUpError) as excinfo:
        rk4_solve(f, y0, IntegratorConfig(dt=0.1, t_end=1.0, record_stride=1))
    assert 0.0 < excinfo.value.time <= 1.0
    assert "blew up" in str(excinfo.value)


def test_initial_vector_is_not_mutated():
    f = lambda t, y: -y
    y0 = np.array([1.0 + 0.0j])
    rk4_solve(f, y0, IntegratorConfig(dt=0.1, t_end=1.0, record_stride=1))
    assert y0[0] == 1.0 + 0.0j


def test_integrate_returns_consistent_trajectory():
    cfg = ChainConfig((EmitterParams(),))
    pulse = GaussianPulse(mu=1.46, t_bar=5.0)
    icfg = IntegratorConfig(dt=5e-3, t_end=2.0, record_stride=40)
    states = integrate(cfg, pulse, 2, icfg)
    assert isinstance(states, StateTrajectory)
    assert states.n_ph == 2
    assert states.register == EmitterRegister(1)
    # one real state vector per record: 2 real diagonal entries in each of the
    # 3 diagonal blocks, the real and imaginary part of the 1 entry in each of
    # the 2 carried blocks with n - m = 1, none where n - m = 2
    assert states.blocks.shape == (len(states.times), 10)
    # block() scatters each block back out; physical() is the top diagonal block
    assert states.block(1, 2).shape == (len(states.times), 2, 2)
    assert np.array_equal(states.physical(), states.block(2, 2))
    assert np.allclose(np.einsum("tii->t", states.physical()), 1.0)
    # the sub-diagonal blocks are the adjoints of the super-diagonal ones
    for m, n in ((0, 1), (0, 2), (1, 2)):
        assert np.allclose(states.block(n, m), states.block(m, n).conj().transpose(0, 2, 1))

def test_cascade_runs_in_float64():
    """The levels and the snapshots are real: a complex array slipping back
    in would double the work, and with real arrays a dropped imaginary part
    raises ComplexWarning, an error in this suite."""
    cfg = random_chain(np.random.default_rng(9), 3)  # complex couplings, detuning, loss
    for level in HierarchyPropagator(cfg, 3).levels():
        assert level.a.dtype == np.float64 and level.b.dtype == np.float64
    pulse = GaussianPulse(mu=1.46, t_bar=1.0)
    states = integrate(cfg, pulse, 3, IntegratorConfig(dt=1e-2, t_end=2.0, record_stride=10))
    assert states.blocks.dtype == np.float64


def test_diagonal_blocks_are_exactly_hermitian(scenario_run):
    """Every diagonal block of every record of the shipped 3-emitter run is
    its own conjugate transpose bit for bit, with an exactly real trace."""
    _, states = scenario_run("three_emitter_chirality_sweep", 5.0)
    for m in range(states.n_ph + 1):
        blk = states.block(m, m)
        assert np.array_equal(blk, blk.conj().swapaxes(-1, -2)), m
        assert not np.any(np.einsum("tii->t", blk).imag), m


def test_free_decay_of_excited_emitter_matches_exponential():
    """With no drive overlap (pulse centered far away) an initially excited
    emitter just decays at gamma_r + gamma_l."""
    cfg = ChainConfig((EmitterParams(gamma_r=1.0, gamma_l=1.0),))
    pulse = GaussianPulse(mu=1.46, t_bar=1e6)
    prop = HierarchyPropagator(cfg, 1)
    excited = np.diag([0.0, 1.0])  # excited projector in both diagonal blocks
    y0 = gather(prop, {(m, n): excited if m == n else 0 * excited for m, n in block_order(1)})
    icfg = IntegratorConfig(dt=1e-3, t_end=1.0, record_stride=100)
    times, snaps = rk4_solve(lambda t, y: prop.derivative(amplitude(pulse, t), y), y0, icfg)
    states = StateTrajectory(times, snaps, prop)
    pe = states.physical()[:, 1, 1].real
    assert np.allclose(pe, np.exp(-2.0 * states.times), atol=1e-10)


# ------------------------------------------------------------ level cascade


def _oracle_run(sc, icfg):
    """Physical-block series of the RK4 oracle on the scenario's hierarchy."""
    prop = HierarchyPropagator(sc.chain, sc.n_photons)
    f = lambda t, y: prop.derivative(amplitude(sc.pulse, t), y)
    times, snaps = rk4_solve(f, prop.ground(), icfg)
    return times, StateTrajectory(times, snaps, prop).physical()


@pytest.mark.parametrize("stem", SHIPPED)
@pytest.mark.parametrize("ratio", [1.0, 5.0])
def test_cascade_tracks_rk4_oracle_on_shipped_scenarios(stem, ratio):
    """Against RK4 at dt/4, the cascade at dt deviates no more than RK4 at dt.
    The pulse is moved to t_bar = 2 on a [0, 4] grid with dt = 0.01, so the
    run is short and the truncation error stands well clear of roundoff."""
    sc = load_scenario(scenario_path(stem)).with_ratio(ratio)
    sc = dataclasses.replace(sc, pulse=dataclasses.replace(sc.pulse, t_bar=2.0))
    icfg = IntegratorConfig(dt=0.01, t_end=4.0, record_stride=3)
    states = integrate(sc.chain, sc.pulse, sc.n_photons, icfg)
    times, coarse = _oracle_run(sc, icfg)
    _, fine = _oracle_run(sc, dataclasses.replace(icfg, dt=icfg.dt / 4, record_stride=12))
    assert np.array_equal(states.times, times)
    cascade_dev = np.abs(states.physical() - fine).max()
    rk4_dev = np.abs(coarse - fine).max()
    assert rk4_dev > 1e-10  # the comparison is about truncation, not roundoff
    assert cascade_dev <= rk4_dev, (cascade_dev, rk4_dev)


@pytest.mark.parametrize("stem", SHIPPED)
@pytest.mark.parametrize("ratio", [1.0, 5.0])
def test_cascade_matches_full_hierarchy_oracle_on_shipped_scenarios(stem, ratio):
    """The carried blocks, and the adjoints read off from them, against the
    full complex-linear hierarchy of the reference build in oracles.py
    (every block driven by both neighbours, no fold), run by RK4 at dt/4:
    over every block, the cascade at dt deviates no more than that reference
    run by RK4 at dt.  Same short grid as the oracle test above."""
    sc = load_scenario(scenario_path(stem)).with_ratio(ratio)
    sc = dataclasses.replace(sc, pulse=dataclasses.replace(sc.pulse, t_bar=2.0))
    icfg = IntegratorConfig(dt=0.01, t_end=4.0, record_stride=3)
    states = integrate(sc.chain, sc.pulse, sc.n_photons, icfg)
    times, coarse = full_hierarchy_run(sc.chain, sc.pulse, sc.n_photons, icfg)
    _, fine = full_hierarchy_run(
        sc.chain, sc.pulse, sc.n_photons, dataclasses.replace(icfg, dt=icfg.dt / 4, record_stride=12)
    )
    assert np.array_equal(states.times, times)
    assert sorted(fine) == block_order(sc.n_photons)
    cascade_dev = max(np.abs(states.block(*mn) - fine[mn]).max() for mn in fine)
    rk4_dev = max(np.abs(coarse[mn] - fine[mn]).max() for mn in fine)
    assert rk4_dev > 1e-10  # the comparison is about truncation, not roundoff
    assert cascade_dev <= rk4_dev, (cascade_dev, rk4_dev)


def test_cascade_is_fourth_order():
    cfg = ChainConfig((EmitterParams(gamma_r=3.0, gamma_l=1.0), EmitterParams(gamma_r=3.0, gamma_l=1.0)))
    pulse = GaussianPulse(mu=1.46, t_bar=2.0)
    final = {}
    for dt in (0.04, 0.02, 0.01, 0.0025):
        icfg = IntegratorConfig(dt=dt, t_end=4.0, record_stride=10**9)
        final[dt] = integrate(cfg, pulse, 3, icfg).blocks[-1]
    errors = [np.abs(final[dt] - final[0.0025]).max() for dt in (0.04, 0.02, 0.01)]
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for p in orders:
        assert 3.6 < p < 4.4, f"measured order {orders}"


def test_records_do_not_depend_on_the_stride():
    """Chunks and blocks are cut independently of the record grid: every
    record of a strided run equals the same step of a run recording every
    step, across several chunks and a final partial block."""
    cfg = ChainConfig((EmitterParams(gamma_r=2.0, gamma_l=0.5),))
    pulse = GaussianPulse(mu=1.46, t_bar=1.5)
    every = integrate(cfg, pulse, 3, IntegratorConfig(dt=1e-3, t_end=3.001, record_stride=1))
    strided = integrate(cfg, pulse, 3, IntegratorConfig(dt=1e-3, t_end=3.001, record_stride=7))
    steps = np.append(np.arange(0, 3001, 7), 3001)
    assert len(every.times) == 3002
    assert np.array_equal(strided.times, every.times[steps])
    assert np.array_equal(strided.blocks, every.blocks[steps])


def test_step_outside_range_is_refused_at_t0():
    cfg = ChainConfig((EmitterParams(gamma_r=1e12),))
    pulse = GaussianPulse(mu=1.46, t_bar=5.0)
    with pytest.raises(IntegrationBlowUpError) as excinfo:
        integrate(cfg, pulse, 1, IntegratorConfig(dt=1.0, t_end=12.0, record_stride=1))
    assert excinfo.value.time == 0.0
    assert "outside the integrator's range" in str(excinfo.value)


def test_non_finite_record_is_reported_with_its_time():
    """A pulse so narrow and tall that g^6 overflows at its centre t = 0.5
    drives the top level to inf at that step; the first record after it,
    t = 0.6, is named."""
    cfg = ChainConfig((EmitterParams(),))
    pulse = GaussianPulse(mu=1e150, t_bar=0.5)
    with pytest.raises(IntegrationBlowUpError) as excinfo:
        integrate(cfg, pulse, 3, IntegratorConfig(dt=1e-3, t_end=2.0, record_stride=150))
    assert excinfo.value.time == pytest.approx(0.6)
    assert "non-finite" in str(excinfo.value)


# ----------------------------------------------------------- stacked wavefront


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("n_ph", [1, 3])
@pytest.mark.parametrize("grid", [
    {"dt": 1e-2, "t_end": 4.0, "record_stride": 16},   # two chunks, the second one partial
    {"dt": 1e-2, "t_end": 0.5, "record_stride": 7},    # shorter than one chunk
    {"dt": 1e-2, "t_end": 0.01, "record_stride": 1},   # a single step
    {"dt": 1e-3, "t_end": 1.3, "record_stride": 37},   # 1300 steps; 37 does not divide a chunk
])
def test_wavefront_matches_level_by_level_reference(n, n_ph, grid):
    """The stacked wavefront against the level-by-level design kept in
    oracles.py: every level stepped on its own, the vacuum level included,
    chunk by chunk.  The arithmetic differs only in rounding (zero padding,
    the forcing derivative's operator product), so every coordinate of
    every record agrees to 1e-13."""
    cfg = random_chain(np.random.default_rng(600 + 10 * n + n_ph), n)
    pulse = GaussianPulse(mu=1.46, t_bar=2.0)
    icfg = IntegratorConfig(**grid)
    states = integrate(cfg, pulse, n_ph, icfg)
    ref = level_by_level_integrate(cfg, pulse, n_ph, icfg)
    assert np.array_equal(states.times, ref.times)
    assert np.abs(states.blocks - ref.blocks).max() <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("n_ph", [1, 2, 3])
def test_stacked_operators_vanish_outside_each_level(n, n_ph):
    """Every stacked step operator is exactly zero on the padded rows and
    columns of its level, and a step keeps the padded coordinates of w
    exactly 0, so no level leaks into the padding or reads from it."""
    levels = HierarchyPropagator(random_chain(np.random.default_rng(700 + n), n), n_ph).levels()
    c = 2 * integrator._BLOCK
    step = integrator._StackedStep(levels, 1e-2, c)
    p, size = step.p, [len(level.rows) for level in levels]

    def inside(k):  # mask of the first k coordinates of each p-wide group
        return np.arange(p) < k

    for l in range(1, len(levels)):
        own, below = inside(size[l]), inside(size[l - 1])
        masks = {
            "from_start": np.outer(np.tile(below, 2), own),  # [y, f] below -> own, on rows
            "from_end": np.outer(np.tile(below, 2), own),
            "b": np.outer(own, below),  # on the columns of [y; f] below
            "e_fill": np.outer(own, np.tile(own, integrator._BLOCK)),
        }
        ops = [(name, getattr(step, name)[l - 1], mask) for name, mask in masks.items()]
        ops += [("scan", power, np.outer(own, own)) for power in step.scan[:, l - 1]]
        for name, op, mask in ops:
            assert np.any(op[mask]), (name, l)
            assert not np.any(op[~mask]), (name, l)

    rng = np.random.default_rng(n)
    w = np.zeros((len(levels), 2 * p, c + 1))
    for l, k in enumerate(size):
        w[l, :k], w[l, p:p + k] = rng.normal(size=(2, k, c + 1))
    drive = rng.normal(size=(len(levels) - 1, c + 1))
    step.run(w, 1, len(levels) - 1, drive, drive[::-1])
    for l, k in enumerate(size):
        assert not np.any(w[l, k:p]) and not np.any(w[l, p + k:]), l


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("n_ph", [1, 2, 3])
def test_one_call_forces_each_level_with_the_level_below_before_the_call(n, n_ph):
    """One run over every level against the unfolded step written out per
    level: the forcing f = g B_l y and its rate f' = g' B_l y + g B_l (A_{l-1} y
    + f_{l-1}) from the level below, then the Hermite quadrature on [f, f']
    (oracles._OneLevelStep).  The same call overwrites level l - 1 while it
    steps level l, so level l must see what w held before the call.  Chunks
    of 1, 3 and 5 blocks run the block-start scan with no doubling step and
    with block counts that are not powers of two."""
    rng = np.random.default_rng(900 + 10 * n + n_ph)
    levels = HierarchyPropagator(random_chain(rng, n), n_ph).levels()
    h, p, top = 1e-2, max(len(level.rows) for level in levels), len(levels) - 1
    for blocks in (1, 3, 5):
        c = blocks * integrator._BLOCK
        step = integrator._StackedStep(levels, h, c)
        w = np.zeros((top + 1, 2 * p, c + 1))
        for l, level in enumerate(levels):
            k = len(level.rows)
            w[l, :k], w[l, p:p + k] = rng.normal(size=(2, k, c + 1))
        g, dg = rng.normal(size=(2, top, c + 1, 1))
        before = w.copy()
        step.run(w, 1, top, g[..., 0], dg[..., 0])
        for l in range(1, top + 1):
            below, level = levels[l - 1], levels[l]
            j, k = len(below.rows), len(level.rows)
            y, f_below = before[l - 1, :j].T, before[l - 1, p:p + j].T
            drive = y @ level.b.T
            f = g[l - 1] * drive
            df = dg[l - 1] * drive + g[l - 1] * ((y @ below.a.T + f_below) @ level.b.T)
            ref = _OneLevelStep(level.a, h).run(before[l, :k, -1], f, df)
            assert np.abs(w[l, :k].T - ref).max() <= 1e-13 * np.abs(ref).max(), (blocks, l)
            assert np.abs(w[l, p:p + k].T - f).max() <= 1e-13 * np.abs(f).max(), (blocks, l)


def test_stepper_work_buffers_stay_within_the_row_layout_footprint():
    """The stepper's own buffers hold no more floats than those of the
    row-layout stepper it replaced: n (c + 1) 2 p for u and n (c / B + 1) p
    for the block starts, n levels of p padded coordinates.  The operators,
    the scan's powers among them, are not counted.  At 3 emitters a run
    also allocates less than one level's [y; f] chunk, numpy's fixed ufunc
    buffer included: u, the forcing's row-layout copy and the fill product
    share those buffers and the memory of w."""
    c, b = integrator._CHUNK, integrator._BLOCK
    operators = {"from_start", "from_end", "b", "e_fill", "scan"}
    for n in (1, 2, 3):
        levels = HierarchyPropagator(random_chain(np.random.default_rng(40 + n), n), 3).levels()
        step = integrator._StackedStep(levels, 1e-2, c)
        p, top = step.p, len(levels) - 1
        buffers = [a for name, a in vars(step).items()
                   if isinstance(a, np.ndarray) and name not in operators]
        assert sum(a.size for a in buffers) <= top * (c + 1) * 2 * p + top * (c // b + 1) * p, n

    w = np.random.default_rng(n).normal(size=(top + 1, 2 * p, c + 1))  # the 3-emitter step
    drive = np.ones((top, c + 1))
    step.run(w, 1, top, drive, drive)  # warm: first-call allocations are not the run's
    tracemalloc.start()
    try:
        step.run(w, 1, top, drive, drive)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < w[0].nbytes, peak


def test_integrate_steps_all_levels_in_one_call_per_wavefront_iteration(monkeypatch):
    """One stacked call per wavefront iteration, n_chunks + 2 n_ph - 1 in
    all on the shipped 3-emitter grid, where one call per level and chunk
    would take (2 n_ph + 1) n_chunks = 329.  Every level but the vacuum
    level steps every chunk exactly once; level 0 never steps."""
    calls = []
    run = integrator._StackedStep.run

    def counted(self, w, lo, hi, g, dg):
        calls.append((lo, hi))
        return run(self, w, lo, hi, g, dg)

    monkeypatch.setattr(integrator._StackedStep, "run", counted)
    sc = load_scenario(scenario_path("three_emitter_chirality_sweep"))
    integrate(sc.chain, sc.pulse, sc.n_photons, sc.integrator)
    n_chunks = -(-sc.integrator.n_steps // integrator._CHUNK)
    assert len(calls) <= n_chunks + 2 * sc.n_photons - 1
    stepped = [l for lo, hi in calls for l in range(lo, hi + 1)]
    assert sorted(stepped) == sorted(list(range(1, 2 * sc.n_photons + 1)) * n_chunks)


@pytest.mark.parametrize("spike", [False, True])
def test_blow_up_under_the_wavefront_names_the_first_bad_record(monkeypatch, spike):
    """The lower levels run up to 2 n_ph - 1 chunks ahead of the top one.
    With g NaN from t = 1.3 on, the reported time must still be the first
    record at or after 1.3, as in chunk-by-chunk order.  With a one-step
    spike g = 1e55 at t = 1.3 only the top level overflows (it scales as
    g^6), and g is NaN on every level from t = 2; the lower levels reach
    t = 2 first, but the spike's record must be the one named."""
    amplitude = integrator.amplitude

    def bad(pulse, t):
        g = amplitude(pulse, t)
        if spike:
            return np.where(t >= 2.0, np.nan, np.where((t >= 1.3) & (t < 1.3005), 1e55, g))
        return np.where(t >= 1.3, np.nan, g)

    monkeypatch.setattr(integrator, "amplitude", bad)
    cfg = ChainConfig(tuple(EmitterParams(gamma_r=3.0, gamma_l=1.0) for _ in range(3)))
    icfg = IntegratorConfig(dt=1e-3, t_end=4.0, record_stride=100)
    with pytest.raises(IntegrationBlowUpError) as excinfo:
        integrate(cfg, GaussianPulse(mu=1.46, t_bar=1.0), 3, icfg)
    records = np.arange(0, icfg.n_steps + 1, icfg.record_stride) * icfg.dt
    assert excinfo.value.time == records[records >= 1.3][0]
    assert excinfo.value.time == pytest.approx(1.3)
