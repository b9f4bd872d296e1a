"""Level-cascade integration against the RK4 oracle: accuracy, order,
recording grid, limits and failure modes.  The RK4 oracle's own tests come
first."""

import dataclasses

import numpy as np
import pytest

from conftest import SCENARIO_DIR, gather, scenario_path
from oracles import full_hierarchy_run, rk4_solve
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
    # one sector vector per record: 2 entries in each of the 3 diagonal blocks,
    # 1 in each of the 2 carried blocks with n - m = 1, none where n - m = 2
    assert states.blocks.shape == (len(states.times), 8)
    # block() scatters each block back out; physical() is the top diagonal block
    assert states.block(1, 2).shape == (len(states.times), 2, 2)
    assert np.array_equal(states.physical(), states.block(2, 2))
    assert np.allclose(np.einsum("tii->t", states.physical()), 1.0)
    # the sub-diagonal blocks are the adjoints of the super-diagonal ones
    for m, n in ((0, 1), (0, 2), (1, 2)):
        assert np.allclose(states.block(n, m), states.block(m, n).conj().transpose(0, 2, 1))

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
