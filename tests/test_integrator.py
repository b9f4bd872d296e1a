"""Fixed-step RK4: accuracy order, recording grid, failure modes."""

import numpy as np
import pytest

from conftest import gather
from wgqed.hierarchy import HierarchyPropagator, block_order
from wgqed.integrator import (
    IntegrationBlowUpError,
    IntegratorConfig,
    StateTrajectory,
    integrate,
    rk4_solve,
)
from wgqed.liouvillian import ChainConfig, EmitterParams
from wgqed.pulse import GaussianPulse, amplitude
from wgqed.qubit_algebra import EmitterRegister


def test_config_validation():
    for kwargs in (
        {"dt": 0.0},
        {"dt": -1e-3},
        {"t_end": 0.0},
        {"record_stride": 0},
    ):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)


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
    # 1 in each of the 4 blocks with |m - n| = 1, none where |m - n| = 2
    assert states.blocks.shape == (len(states.times), 10)
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
