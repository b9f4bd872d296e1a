"""Hierarchy of photon-indexed blocks: sector layout, all-ground start, and
the compiled propagator checked against the longhand transcription."""

import numpy as np
import pytest

from conftest import gather, oracle_deviation, random_sector_state, sector_mask
from oracles import handwritten_three_photon_rhs, random_chain
from wgqed.hierarchy import HierarchyPropagator, block_order
from wgqed.integrator import IntegratorConfig, integrate
from wgqed.liouvillian import ChainConfig, EmitterParams
from wgqed.pulse import GaussianPulse

PULSE = GaussianPulse(mu=1.46, t_bar=5.0)


# ------------------------------------------------------------- block plumbing


def test_block_order_is_lexicographic_over_all_blocks():
    assert block_order(1) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert block_order(2) == [
        (0, 0), (0, 1), (0, 2),
        (1, 0), (1, 1), (1, 2),
        (2, 0), (2, 1), (2, 2),
    ]
    assert len(block_order(3)) == 16


@pytest.mark.parametrize("n_ph", [1, 2, 3])
def test_initial_state_is_all_ground(n_ph):
    prop = HierarchyPropagator(ChainConfig((EmitterParams(), EmitterParams())), n_ph)
    y = prop.ground()
    assert y.shape == (prop.size,)
    ground = np.zeros((4, 4))
    ground[0, 0] = 1.0
    for m, n in block_order(n_ph):
        assert np.array_equal(prop.block(y, m, n), ground if m == n else np.zeros((4, 4)))


def test_initial_state_rejects_unsupported_photon_numbers():
    cfg = ChainConfig((EmitterParams(),))
    for bad in (0, 4, -1):
        with pytest.raises(ValueError):
            HierarchyPropagator(cfg, bad)


@pytest.mark.parametrize(
    "n,n_ph,size", [(1, 3, 14), (2, 3, 52), (3, 3, 196), (2, 1, 20), (3, 1, 70)]
)
def test_sector_sizes(n, n_ph, size):
    cfg = ChainConfig((EmitterParams(),) * n)
    assert HierarchyPropagator(cfg, n_ph).size == size


def test_flatten_order_matches_block_order():
    rng = np.random.default_rng(5)
    cfg = random_chain(rng, 2)
    prop = HierarchyPropagator(cfg, 2)
    blocks = random_sector_state(rng, 2)
    flat = gather(prop, blocks)
    start = 0
    for m, n in block_order(2):
        mask = sector_mask(2, m - n)
        stop = start + int(mask.sum())
        assert np.array_equal(flat[start:stop], blocks[(m, n)][mask])
        assert np.array_equal(prop.block(flat, m, n), blocks[(m, n)])
        start = stop
    assert start == len(flat) == prop.size


# ------------------------------------------- literal ten-block transcription


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generic_rule_matches_handwritten_three_photon_system(n):
    """The compiled three-photon derivative must reproduce the ten equations
    of motion spelled out longhand in the oracle module, block by block, and
    their adjoints for the six blocks below the diagonal."""
    rng = np.random.default_rng(100 + n)
    cfg = random_chain(rng, n)
    blocks = random_sector_state(rng, n)
    assert oracle_deviation(cfg, 3, blocks, 4.3, PULSE) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_keeps_sector_projected_hierarchies_in_their_sector(n):
    """Independent check of the grading the sector layout relies on: the
    longhand equations map a sector-projected hierarchy to exactly zero
    outside every block's sector."""
    rng = np.random.default_rng(300 + n)
    cfg = random_chain(rng, n)
    out = handwritten_three_photon_rhs(cfg, random_sector_state(rng, n), 4.3, PULSE)
    for (m, k), blk in out.items():
        assert not np.any(blk[~sector_mask(n, m - k)]), (m, k)


# ------------------------------------------------------ compiled propagator


@pytest.mark.parametrize("n,n_ph", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)])
def test_compiled_derivative_matches_reference(n, n_ph):
    """The equation of rho_{m,n} does not depend on n_ph, so smaller photon
    numbers are checked exactly on the oracle's sub-triangle m, n <= n_ph."""
    rng = np.random.default_rng(200 + 10 * n + n_ph)
    cfg = random_chain(rng, n)
    blocks = random_sector_state(rng, n)
    for t in (0.0, 3.7, 5.0, 11.2):
        assert oracle_deviation(cfg, n_ph, blocks, t, PULSE) <= 1e-12


# ----------------------------------------------------- structural invariants


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("n_ph", [1, 2, 3])
def test_operators_form_a_level_cascade(n, n_ph):
    """A keeps the level l = m + n of every entry, and B only raises it by
    one.  Checked on the compiled matrices, read off through derivative(),
    with levels labelled from slots; then the levels() split must put every
    entry back where it came from."""
    cfg = random_chain(np.random.default_rng(400 + 10 * n + n_ph), n)
    prop = HierarchyPropagator(cfg, n_ph)
    eye = np.eye(prop.size)
    a = prop.derivative(0.0, eye)
    b = prop.derivative(1.0, eye) - a
    level = np.empty(prop.size, dtype=int)
    for (m, k), (rows, _) in prop.slots.items():
        level[rows] = m + k
    rise = level[:, None] - level[None, :]
    assert np.any(a) and np.any(b)
    assert not np.any(a[rise != 0])
    assert not np.any(b[rise != 1])

    levels = prop.levels()
    assert len(levels) == 2 * n_ph + 1
    a_back, b_back = np.zeros_like(a), np.zeros_like(b)
    below = np.empty(0, dtype=int)
    for l, lv in enumerate(levels):
        assert np.array_equal(lv.rows, np.flatnonzero(level == l))
        a_back[np.ix_(lv.rows, lv.rows)] = lv.a
        b_back[np.ix_(lv.rows, below)] = lv.b
        below = lv.rows
    assert np.array_equal(a_back, a)
    assert np.array_equal(b_back, b)



def test_levels_refuse_couplings_outside_the_cascade():
    """levels() is the integrator's only view of A and B, so an entry it
    would drop must stop it: one coupling inside level 1 planted in B, and
    one from level 1 into level 0 planted in A."""
    cfg = ChainConfig((EmitterParams(), EmitterParams()))
    first = HierarchyPropagator(cfg, 1).levels()[1]
    for name, row, col in (("_b", first.rows[0], first.rows[1]), ("_a", 0, first.rows[0])):
        prop = HierarchyPropagator(cfg, 1)
        getattr(prop, name)[row, col] = 1.0
        with pytest.raises(RuntimeError, match="outside the cascade"):
            prop.levels()


def test_vacuum_block_never_moves():
    """The lowest block sees no drive, and the all-ground projector is a
    steady state of the dissipator, so it must stay pinned."""
    cfg = ChainConfig((EmitterParams(), EmitterParams()))
    icfg = IntegratorConfig(dt=5e-3, t_end=8.0, record_stride=100)
    states = integrate(cfg, PULSE, 3, icfg)
    ground = np.zeros((4, 4))
    ground[0, 0] = 1.0
    assert np.abs(states.block(0, 0) - ground).max() < 1e-12
