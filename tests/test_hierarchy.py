"""Hierarchy of photon-indexed blocks: sector layout, all-ground start, and
the compiled propagator checked against the longhand transcription."""

import numpy as np
import pytest

from conftest import gather, oracle_deviation, random_sector_state, sector_mask
from oracles import (
    column_by_column_operators,
    full_slots,
    handwritten_three_photon_rhs,
    random_chain,
)
from wgqed import hierarchy
from wgqed.hierarchy import HierarchyPropagator, block_order, fold
from wgqed.integrator import IntegratorConfig, integrate
from wgqed.liouvillian import ChainConfig, EmitterParams, apply_total
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
    "n,n_ph,carried", [(1, 3, 11), (2, 3, 38), (3, 3, 138), (2, 1, 16), (3, 1, 55)]
)
def test_carried_sector_sizes(n, n_ph, carried):
    cfg = ChainConfig((EmitterParams(),) * n)
    assert HierarchyPropagator(cfg, n_ph).size == carried


@pytest.mark.parametrize(
    "n,n_ph,size", [(1, 3, 14), (2, 3, 52), (3, 3, 196), (2, 1, 20), (3, 1, 70)]
)
def test_sector_sizes(n, n_ph, size):
    """The full reference layout spans all (n_ph+1)^2 blocks; the carried
    layout keeps the diagonal blocks and one of each adjoint pair."""
    cfg = ChainConfig((EmitterParams(),) * n)
    slots = full_slots(cfg, n_ph)
    assert sum(idx.size for _, idx in slots.values()) == size
    diagonal = sum(slots[(m, m)][1].size for m in range(n_ph + 1))
    assert 2 * HierarchyPropagator(cfg, n_ph).size == size + diagonal


def test_flatten_order_matches_block_order():
    rng = np.random.default_rng(5)
    cfg = random_chain(rng, 2)
    prop = HierarchyPropagator(cfg, 2)
    blocks = random_sector_state(rng, 2)
    flat = gather(prop, blocks)
    start = 0
    for m, n in block_order(2):
        assert np.array_equal(prop.block(flat, m, n), blocks[(m, n)])
        if m > n:
            assert (m, n) not in prop.slots  # read off as the adjoint of (n, m)
            continue
        mask = sector_mask(2, m - n)
        stop = start + int(mask.sum())
        assert np.array_equal(flat[start:stop], blocks[(m, n)][mask])
        start = stop
    assert start == len(flat) == prop.size


def test_blocks_below_the_diagonal_are_adjoints():
    cfg = random_chain(np.random.default_rng(6), 3)
    prop = HierarchyPropagator(cfg, 3)
    rng = np.random.default_rng(7)
    y = rng.normal(size=(4, prop.size)) + 1j * rng.normal(size=(4, prop.size))
    for m, n in block_order(3):
        if m > n:
            assert np.array_equal(
                prop.block(y, m, n), prop.block(y, n, m).conj().swapaxes(-1, -2)
            )


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


@pytest.mark.parametrize(
    "n,n_ph", [(n, n_ph) for n in (1, 2, 3) for n_ph in (1, 2, 3)] + [(4, 1)]
)
def test_compiled_operators_equal_column_by_column_reference(n, n_ph):
    """Compiling on the whole basis stack is the same arithmetic as applying
    the maps to one basis operator at a time, so A and B must agree bit for
    bit with the full reference build cut down to the carried blocks.  The
    cut drops the drive of rho_{n,n} from rho_{n,n-1}, which is not carried;
    the fold pairs must put it back as the conjugate of the transposed
    entry, so fold(B y) equals the reference's B y on the full state."""
    cfg = random_chain(np.random.default_rng(500 + 10 * n + n_ph), n)
    prop = HierarchyPropagator(cfg, n_ph)
    slots, a_ref, b_ref = column_by_column_operators(cfg, n_ph)
    carried = np.concatenate([np.arange(slots[mn][0].start, slots[mn][0].stop) for mn in prop.slots])
    assert np.array_equal(prop._a, a_ref[np.ix_(carried, carried)])
    assert np.array_equal(prop._b, b_ref[np.ix_(carried, carried)])

    rng = np.random.default_rng(n)
    y = rng.normal(size=prop.size) + 1j * rng.normal(size=prop.size)
    full = np.zeros(len(a_ref), dtype=complex)
    for mn, (rows, idx) in slots.items():
        full[rows] = prop.block(y, *mn).ravel()[idx]
    assert np.allclose(fold(prop._b @ y, prop._pairs), (b_ref @ full)[carried],
                       rtol=0, atol=1e-13)


def test_compile_applies_the_dissipator_once(monkeypatch):
    """The dissipator's superoperator comes from one apply_total call on the
    basis stack, not one call per basis operator."""
    calls = []

    def counted(cfg, rho):
        calls.append(rho.shape)
        return apply_total(cfg, rho)

    monkeypatch.setattr(hierarchy, "apply_total", counted)
    cfg = random_chain(np.random.default_rng(7), 3)
    HierarchyPropagator(cfg, 3)
    assert calls == [(64, 8, 8)]


# ----------------------------------------------------- structural invariants


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("n_ph", [1, 2, 3])
def test_operators_form_a_level_cascade(n, n_ph):
    """A keeps the level l = m + n of every entry, and B only raises it by
    one.  Checked on the compiled matrices, with levels labelled from slots;
    then the levels() split must put every entry and every fold pair back
    where it came from."""
    cfg = random_chain(np.random.default_rng(400 + 10 * n + n_ph), n)
    prop = HierarchyPropagator(cfg, n_ph)
    a, b = prop._a, prop._b
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
    pairs_back = []
    below = np.empty(0, dtype=int)
    for l, lv in enumerate(levels):
        assert np.array_equal(lv.rows, np.flatnonzero(level == l))
        a_back[np.ix_(lv.rows, lv.rows)] = lv.a
        b_back[np.ix_(lv.rows, below)] = lv.b
        pairs_back += zip(lv.rows[lv.pairs[0]], lv.rows[lv.pairs[1]])
        below = lv.rows
    assert np.array_equal(a_back, a)
    assert np.array_equal(b_back, b)
    assert sorted(pairs_back) == sorted(zip(*prop._pairs))
    # a fold pair stays inside one diagonal block, so levels never mix
    assert all(level[i] == level[j] and level[i] % 2 == 0 for i, j in pairs_back)



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
