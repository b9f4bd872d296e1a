"""Level-cascade integration against the RK4 oracle and the level-by-level
reference: accuracy, order, recording grid, the per-level steps and their
chunk order, limits and failure modes.  The RK4 oracle's own tests come
first."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import SCENARIO_DIR, budget_mask, gather, scenario_path
from oracles import (
    _OneLevelStep,
    coherent_drive_run,
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
from wgqed.pulse import GaussianPulse, amplitude, amplitude_rate
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


def test_config_refuses_a_record_stride_that_is_not_an_integer():
    """A fractional stride would reach integrate as a float index; it is
    refused under its own name, as is an integral float and a bool, which
    resolved() would write as a stride the scenario parser refuses.  A
    numpy integer is an integer."""
    for bad in (2.5, 10.0, "10", True):
        with pytest.raises(ValueError, match="^record_stride"):
            IntegratorConfig(record_stride=bad)
    assert IntegratorConfig(record_stride=np.int64(10)).record_stride == 10


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
    # one real state vector per record: the real diagonal |g><g| of rho_{0,0}
    # (|e><e| is outside its budget), 2 real diagonal entries in each of the 2
    # other diagonal blocks, the real and imaginary part of the 1 entry in each
    # of the 2 carried blocks with n - m = 1, none where n - m = 2
    assert states.blocks.shape == (len(states.times), 9)
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
    for level in HierarchyPropagator(cfg, 3).levels:
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
    emitter just decays at gamma_r + gamma_l.  The excited projector is put
    in the physical block rho_{1,1} alone: rho_{0,0} holds no excitation."""
    cfg = ChainConfig((EmitterParams(gamma_r=1.0, gamma_l=1.0),))
    pulse = GaussianPulse(mu=1.46, t_bar=1e6)
    prop = HierarchyPropagator(cfg, 1)
    excited = np.diag([0.0, 1.0])
    y0 = gather(prop, {(m, n): excited if m == n == 1 else 0 * excited for m, n in block_order(1)})
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


BUDGET_CASES = [(stem, ratio) for stem in SHIPPED for ratio in (1.0, 5.0)] + [
    (seed, n, n_ph) for seed in (0, 1) for n, n_ph in ((2, 1), (3, 1), (3, 2))]


@pytest.mark.parametrize("case", BUDGET_CASES, ids=lambda case: "-".join(map(str, case)))
def test_full_graded_run_leaves_every_dropped_entry_at_zero(case):
    """The budget, checked on the full graded hierarchy of the reference
    build in oracles.py (every block, every entry of its excitation sector):
    run by RK4 from the all-ground start, every entry <a|rho_{m,n}|b> with
    exc(a) > m stays exactly 0 at every record, on the shipped chains and on
    random chiral, detuned, lossy, spaced chains with N > n_ph, while the
    physical block moves."""
    if len(case) == 2:
        sc = load_scenario(scenario_path(case[0])).with_ratio(case[1])
        cfg, pulse, n_ph = sc.chain, sc.pulse, sc.n_photons
    else:
        seed, n, n_ph = case
        cfg, pulse = random_chain(np.random.default_rng(900 + seed), n), GaussianPulse()
        assert cfg.d_ratio > 0 and n > n_ph
        for em in cfg.emitters:
            assert em.delta != 0 and em.gamma_spont > 0 and em.gamma_r != em.gamma_l
    icfg = IntegratorConfig(dt=0.01, t_end=8.0, record_stride=10)
    _, blocks = full_hierarchy_run(cfg, pulse, n_ph, icfg)
    for (m, k), series in blocks.items():
        assert not np.any(series[:, ~budget_mask(cfg.n_emitters, m, k)]), (m, k)
    assert np.abs(blocks[(n_ph, n_ph)][:, 0, 0] - 1.0).max() > 0.1


def coherent_tail(alpha: complex, n_ph: int, n: int, terms: int = 60) -> float:
    """T(alpha) = e^{-|alpha|^2} sum |alpha|^(m+n) / sqrt(m! n!) over the blocks
    rho_{m,n} an n_ph-photon hierarchy of n emitters leaves out and that can
    be nonzero: max(m, n) > n_ph and |m - n| <= n."""
    a = abs(alpha)
    return math.exp(-a * a) * sum(
        a ** (m + k) / math.sqrt(math.factorial(m) * math.factorial(k))
        for m in range(terms) for k in range(terms) if max(m, k) > n_ph and abs(m - k) <= n
    )


def test_carried_blocks_sum_to_the_coherent_drive_solution():
    """A coherent pulse alpha g(t) drives the emitters as the classical field
    alpha g(t) (oracles.coherent_drive_run), and its state is
    e^{-|alpha|^2} sum_{m,n} alpha^m conj(alpha)^n / sqrt(m! n!) rho_{m,n}.
    The sum is formed here from every carried block, the blocks below the
    diagonal as adjoints of the carried ones.  Blocks with |m - n| > N vanish
    (the excitation grading) and every ||rho_{m,n}||_1 <= 1, so the blocks
    past n_ph move an entry by at most coherent_tail.  The bound adds the
    oracle's step error, the change of its run from 2 dt to dt (RK4's error at
    dt is about a fifteenth of that).  Complex alphas weigh the blocks off the
    diagonal with phases.  At |alpha| = 0.4 the first blocks weigh most; at
    0.02 the tail is 60 times below the weight of rho_{2,2}."""
    n, n_ph = 3, 3
    cfg = ChainConfig((EmitterParams(gamma_r=5.0, gamma_l=1.0, delta=0.5),) * n, d_ratio=0.1)
    pulse = GaussianPulse()
    icfg = IntegratorConfig(dt=1e-3, t_end=12.0, record_stride=10)
    alphas = [0.4 * np.exp(1j * np.pi / 3), 0.02 * np.exp(-1j * np.pi / 4)]
    states = integrate(cfg, pulse, n_ph, icfg)
    times, oracle = coherent_drive_run(cfg, pulse, alphas, icfg)
    _, coarse = coherent_drive_run(cfg, pulse, alphas,
                                   dataclasses.replace(icfg, dt=2 * icfg.dt, record_stride=5))
    assert np.array_equal(states.times, times)
    for i, alpha in enumerate(alphas):
        c = [np.exp(-abs(alpha) ** 2 / 2) * alpha ** m / math.sqrt(math.factorial(m))
             for m in range(n_ph + 1)]
        rho = sum(abs(c[m]) ** 2 * states.block(m, m) for m in range(n_ph + 1))
        for m in range(n_ph + 1):
            for k in range(m + 1, n_ph + 1):
                term = c[m] * np.conj(c[k]) * states.block(m, k)
                rho = rho + term + term.conj().swapaxes(-1, -2)
        deviation = np.abs(rho - oracle[:, i]).max()
        step_error = np.abs(oracle[:, i] - coarse[:, i]).max()
        assert deviation <= coherent_tail(alpha, n_ph, n) + step_error, (alpha, deviation)


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


def test_records_do_not_depend_on_the_stride(monkeypatch):
    """Chunks and blocks are cut independently of the record grid: every
    record of a strided run equals the same step of a run recording every
    step, across several chunks and a final partial block.  Cut into chunks
    of two blocks instead, the records agree to 1e-13, on one emitter and on
    a lossy, detuned, spaced 3-emitter chain: each level's state is carried
    across the chunk boundaries."""
    pulse = GaussianPulse(mu=1.46, t_bar=1.5)
    steps = np.append(np.arange(0, 3001, 7), 3001)
    chains = [ChainConfig((EmitterParams(gamma_r=2.0, gamma_l=0.5),)),
              random_chain(np.random.default_rng(11), 3)]
    every = [integrate(cfg, pulse, 3, IntegratorConfig(dt=1e-3, t_end=3.001, record_stride=1))
             for cfg in chains]
    strided = integrate(chains[0], pulse, 3, IntegratorConfig(dt=1e-3, t_end=3.001, record_stride=7))
    assert len(every[0].times) == 3002
    assert np.array_equal(strided.times, every[0].times[steps])
    assert np.array_equal(strided.blocks, every[0].blocks[steps])

    monkeypatch.setattr(integrator, "_CHUNK", 2 * integrator._BLOCK)
    for cfg, whole in zip(chains, every):
        cut = integrate(cfg, pulse, 3, IntegratorConfig(dt=1e-3, t_end=3.001, record_stride=1))
        assert np.array_equal(cut.times, whole.times)
        assert np.abs(cut.blocks - whole.blocks).max() <= 1e-13, cfg.n_emitters


def test_step_outside_range_is_refused_at_t0():
    """Refused before any step, naming the first level over the limit: on one
    emitter with gamma_r = 5 and gamma_l = 1 at three photons, ||A_l||_1 is 3
    on levels 1, 3 and 5 and 12 on levels 2, 4 and 6, so dt = 0.1 is refused
    on level 2."""
    pulse = GaussianPulse(mu=1.46, t_bar=5.0)
    for cfg, n_ph, dt, named in (
        (ChainConfig((EmitterParams(gamma_r=1e12),)), 1, 1.0, "on level 1,"),
        (ChainConfig((EmitterParams(gamma_r=5.0, gamma_l=1.0),)), 3, 0.1,
         "||dt A|| = 1.2 on level 2, limit 1"),
    ):
        with pytest.raises(IntegrationBlowUpError) as excinfo:
            integrate(cfg, pulse, n_ph, IntegratorConfig(dt=dt, t_end=12.0, record_stride=1))
        assert excinfo.value.time == 0.0
        assert "outside the integrator's range" in str(excinfo.value)
        assert named in str(excinfo.value)


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


# ---------------------------------------------------------- per-level steps


CHUNK = integrator._CHUNK


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("n_ph", [1, 3])
@pytest.mark.parametrize("grid", [
    {"dt": 2.56 / CHUNK, "t_end": 4.0, "record_stride": 16},     # 1.56 chunks, the second partial
    {"dt": 2.56 / CHUNK, "t_end": 0.5, "record_stride": 7},      # shorter than one chunk
    {"dt": 2.56 / CHUNK, "t_end": 2.56 / CHUNK, "record_stride": 1},  # a single step
    {"dt": 0.256 / CHUNK, "t_end": 1.3, "record_stride": 37},   # 5.08 chunks; 37 does not divide one
])
def test_cascade_matches_level_by_level_reference(n, n_ph, grid):
    """integrate against the level-by-level design kept in oracles.py, which
    also steps the vacuum level, carries the block starts one by one, forms
    [f, f'] unfolded and cuts the grid into chunks of 256 steps.  The
    arithmetic differs only in rounding, so every coordinate of every record
    agrees to 1e-13."""
    cfg = random_chain(np.random.default_rng(600 + 10 * n + n_ph), n)
    pulse = GaussianPulse(mu=1.46, t_bar=2.0)
    icfg = IntegratorConfig(**grid)
    states = integrate(cfg, pulse, n_ph, icfg)
    ref = level_by_level_integrate(cfg, pulse, n_ph, icfg)
    assert np.array_equal(states.times, ref.times)
    assert np.abs(states.blocks - ref.blocks).max() <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("n_ph", [1, 2, 3])
@pytest.mark.parametrize("blocks", [1, 3, 5])
def test_level_step_matches_the_unfolded_forcing_and_quadrature(n, n_ph, blocks):
    """One run of each level's step against the unfolded step written out per
    level: the forcing f = g B_l y and its rate f' = g' B_l y + g B_l (A_{l-1} y
    + f_{l-1}) from the level below, then the Hermite quadrature on [f, f']
    (oracles._OneLevelStep).  The step reads u = [g y, g f_{l-1} + g' y], formed
    here from the level below, and leaves it as it was; of the level's own chunk
    it reads only the start y_l = own[0, 0]: the rest is NaN.  f_l itself is
    formed by integrate, not by the step, and
    test_cascade_matches_level_by_level_reference checks it at 1e-13 through
    the levels above.  Chunks of 1, 3 and 5 blocks run the block-start scan
    with no doubling step and with block counts that are not powers of two."""
    rng = np.random.default_rng(900 + 100 * blocks + 10 * n + n_ph)
    levels = HierarchyPropagator(random_chain(rng, n), n_ph).levels
    h, c = 1e-2, blocks * integrator._BLOCK
    for l in range(1, len(levels)):
        y, f_below = rng.normal(size=(2, c + 1, len(levels[l - 1].a)))
        own = np.full((2, c + 1, len(levels[l].a)), np.nan)
        own[0, 0] = start = rng.normal(size=len(levels[l].a))
        g, dg = rng.normal(size=(2, c + 1, 1))
        u = np.stack([g * y, g * f_below + dg * y])
        before = u.copy()
        integrator._LevelStep(levels, l, h, c).run(u, own)
        assert np.array_equal(u, before), l
        a_below, b = levels[l - 1].a, levels[l].b
        drive = y @ b.T
        f = g * drive
        df = dg * drive + g * ((y @ a_below.T + f_below) @ b.T)
        ref = _OneLevelStep(levels[l].a, h).run(start, f, df)
        assert np.abs(own[0] - ref).max() <= 1e-13 * np.abs(ref).max(), l


def test_warm_level_step_allocates_less_than_two_chunks():
    """A level's [y; f] chunk and the u it reads live in memory that integrate
    allocates once.  So one warm run of each 3-emitter level's step allocates
    less than two chunks of (c + 1) p floats, p the largest level's size,
    numpy's fixed ufunc buffer and the block starts included: a step that
    allocated its own y and f would take two such chunks on the largest level."""
    c = integrator._CHUNK
    levels = HierarchyPropagator(random_chain(np.random.default_rng(43), 3), 3).levels
    p = max(len(level.a) for level in levels)
    rng = np.random.default_rng(3)
    for l in range(1, len(levels)):
        step = integrator._LevelStep(levels, l, 1e-2, c)
        u = rng.normal(size=(2, c + 1, len(levels[l - 1].a)))
        own = rng.normal(size=(2, c + 1, len(levels[l].a)))
        step.run(u, own)  # warm: first-call allocations are not the run's
        tracemalloc.start()
        try:
            step.run(u, own)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (c + 1) * p * 8, (l, peak)


def test_integrate_holds_less_than_a_chunk_beyond_its_arrays(monkeypatch):
    """integrate forms each level's forcing in place, in the two level
    buffers, with the spent forcing of the level below as scratch.  So on the
    shipped 3-emitter scenario at ratio 5, its warm traced peak less the
    snapshot, the level steps' fold, e_fill and scan, the compile's read
    tables and the two level buffers is below one (c + 1) p chunk of floats,
    p the largest level's size.  A third chunk-sized work array, or a
    g' y temporary per level, would not fit."""
    steps, init = [], integrator._LevelStep.__init__

    def kept(self, *args):
        init(self, *args)
        steps.append(self)

    monkeypatch.setattr(integrator._LevelStep, "__init__", kept)
    sc = load_scenario(scenario_path("three_emitter_chirality_sweep")).with_ratio(5.0)
    integrate(sc.chain, sc.pulse, sc.n_photons, sc.integrator)  # warm
    steps.clear()
    tracemalloc.start()
    try:
        states = integrate(sc.chain, sc.pulse, sc.n_photons, sc.integrator)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    prop, c = states.propagator, integrator._CHUNK
    p = max(len(level.a) for level in prop.levels)
    held = (states.blocks.nbytes + 2 * 2 * (c + 1) * p * 8
            + sum(table.nbytes for _, table in prop.slots.values())
            + sum(step.fold.nbytes + step.e_fill.nbytes + step.scan.nbytes for step in steps))
    assert len(steps) == 2 * sc.n_photons
    assert peak - held < (c + 1) * p * 8, (peak, held)


def test_integrate_steps_every_level_once_per_chunk_in_level_order(monkeypatch):
    """On the shipped 3-emitter grid, chunk by chunk, levels 1..2 n_ph each
    step once, in level order.  Level 1 reads u = [g, g'] on that chunk's
    grid, bit for bit: the vacuum level is 1 and unforced, and never steps.
    Every level above reads the buffer the level below has just written, as
    its u = [g y, g f + g' y], f = (g y_{l-2}) B^T formed from the u that level
    read, bit for bit."""
    sc = load_scenario(scenario_path("three_emitter_chirality_sweep"))
    c, top, dt = integrator._CHUNK, 2 * sc.n_photons, sc.integrator.dt
    calls, owns, below = [], [None], {}
    init, run = integrator._LevelStep.__init__, integrator._LevelStep.run

    def labelled(self, levels, l, h, c):
        init(self, levels, l, h, c)
        self.level = l

    def counted(self, u, own):
        t = (len(calls) // top * c + np.arange(c + 1)) * dt  # the chunk's grid
        g, dg = amplitude(sc.pulse, t)[:, None], amplitude_rate(sc.pulse, t)[:, None]
        if self.level == 1:
            want = np.stack([g, dg])
        else:  # from level l - 1's chunk and the u it read
            y, f = below["y"], below["u"][0] @ below["bt"]
            want = np.stack([g * y, g * f + dg * y])
        calls.append((self.level, u is owns[-1], np.array_equal(u, want)))
        owns.append(own)
        below["u"], below["bt"] = u.copy(), self.bt
        run(self, u, own)
        below["y"] = own[0].copy()

    monkeypatch.setattr(integrator._LevelStep, "__init__", labelled)
    monkeypatch.setattr(integrator._LevelStep, "run", counted)
    integrate(sc.chain, sc.pulse, sc.n_photons, sc.integrator)
    n_chunks = -(-sc.integrator.n_steps // c)
    assert n_chunks > 1
    assert [l for l, _, _ in calls] == list(range(1, top + 1)) * n_chunks
    for i, (l, fed, formed) in enumerate(calls):
        assert fed == (l > 1) and formed, i


@pytest.mark.parametrize("spike", [False, True])
def test_blow_up_names_the_first_bad_record(monkeypatch, spike):
    """A chunk's records are checked once its top level has stepped it.
    With g NaN from t = 1.3 on, the reported time must be the first record
    at or after 1.3.  With a one-step spike g = 1e55 at t = 1.3 only the top
    level overflows (it scales as g^6), and g is NaN on every level from
    t = 2, in the same chunk; the spike's record must be the one named."""
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
