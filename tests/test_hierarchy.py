"""Hierarchy of photon-indexed blocks: sector layout, all-ground start, and
the compiled propagator checked against the longhand transcription."""

import numpy as np
import pytest

from conftest import gather, oracle_deviation, random_sector_state, sector_mask
from oracles import (
    column_by_column_operators,
    full_slots,
    handwritten_three_photon_rhs,
    level_by_level_integrate,
    random_chain,
)
from wgqed import hierarchy, integrator
from wgqed.hierarchy import HierarchyPropagator, block_order
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
    """The carried blocks m <= n hold `carried` complex sector entries.  Each
    takes two real coordinates in an off-diagonal block; in a Hermitian
    diagonal block each entry takes one (its real diagonal, or the real or
    the imaginary part of an entry above the diagonal)."""
    cfg = ChainConfig((EmitterParams(),) * n)
    prop = HierarchyPropagator(cfg, n_ph)
    sector = {mn: idx.size for mn, (_, idx) in full_slots(cfg, n_ph).items()}
    assert sorted(prop.slots) == [(m, k) for m, k in block_order(n_ph) if m <= k]
    assert sum(sector[mn] for mn in prop.slots) == carried
    for (m, k), (rows, _, _) in prop.slots.items():
        assert rows.stop - rows.start == (1 if m == k else 2) * sector[(m, k)]
    diagonal = sum(sector[(m, m)] for m in range(n_ph + 1))
    assert prop.size == 2 * carried - diagonal


@pytest.mark.parametrize(
    "n,n_ph,size", [(1, 3, 14), (2, 3, 52), (3, 3, 196), (2, 1, 20), (3, 1, 70)]
)
def test_sector_sizes(n, n_ph, size):
    """The full reference layout spans all (n_ph+1)^2 blocks.  The real
    coordinates of the carried blocks are exactly as many: every block
    rho_{m,n} with m < n stands for itself and its adjoint rho_{n,m}, and
    a Hermitian diagonal block has as many real degrees of freedom as
    complex entries."""
    cfg = ChainConfig((EmitterParams(),) * n)
    slots = full_slots(cfg, n_ph)
    assert sum(idx.size for _, idx in slots.values()) == size
    assert HierarchyPropagator(cfg, n_ph).size == size


def test_flatten_order_matches_block_order():
    rng = np.random.default_rng(5)
    cfg = random_chain(rng, 2)
    prop = HierarchyPropagator(cfg, 2)
    blocks = random_sector_state(rng, 2)
    flat = gather(prop, blocks)
    assert flat.dtype == np.float64
    start = 0
    for m, n in block_order(2):
        assert np.array_equal(prop.block(flat, m, n), blocks[(m, n)])
        if m > n:
            assert (m, n) not in prop.slots  # read off as the adjoint of (n, m)
            continue
        # row-major: the real parts, then the imaginary parts, of the sector
        # entries; of a diagonal block only those on and above the diagonal,
        # and only the imaginary parts above it
        re = im = sector_mask(2, m - n)
        if m == n:
            re, im = np.triu(re), np.triu(im, 1)
        coords = np.concatenate([blocks[(m, n)][re].real, blocks[(m, n)][im].imag])
        stop = start + coords.size
        assert np.array_equal(flat[start:stop], coords)
        start = stop
    assert start == len(flat) == prop.size


def test_blocks_below_the_diagonal_are_adjoints():
    """Exactly, on any real vector; a diagonal block is its own adjoint."""
    cfg = random_chain(np.random.default_rng(6), 3)
    prop = HierarchyPropagator(cfg, 3)
    rng = np.random.default_rng(7)
    y = rng.normal(size=(4, prop.size))
    for m, n in block_order(3):
        if m >= n:
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
    """The full reference build, mapped to the real coordinates, must give
    A and B bit for bit.  The map: column j of S is the full reference
    vector of the blocks that coordinate j stands for (read through block,
    so every block below the diagonal is the adjoint of its partner and
    the drive of rho_{n,n} from the uncarried rho_{n,n-1} is included);
    P reads back the real parts of the re entries and the imaginary parts
    of the im entries of each carried block.  Every entry of the reference
    product Re(P A S) is a sum of at most two nonzero terms, so the order
    of summation cannot change it."""
    cfg = random_chain(np.random.default_rng(500 + 10 * n + n_ph), n)
    prop = HierarchyPropagator(cfg, n_ph)
    slots, a_ref, b_ref = column_by_column_operators(cfg, n_ph)
    unit = np.eye(prop.size)
    s_map = np.zeros((len(a_ref), prop.size), dtype=complex)
    for mn, (rows, idx) in slots.items():
        s_map[rows] = prop.block(unit, *mn).reshape(prop.size, -1)[:, idx].T

    def read_back(images):
        out = np.empty((prop.size,) + images.shape[1:])
        for mn, (rows, re, im) in prop.slots.items():
            full_rows, idx = slots[mn]
            part = images[full_rows]
            out[rows] = np.concatenate([part[np.searchsorted(idx, re)].real,
                                        part[np.searchsorted(idx, im)].imag])
        return out

    assert np.array_equal(prop._a, read_back(a_ref @ s_map))
    assert np.array_equal(prop._b, read_back(b_ref @ s_map))

    x = np.random.default_rng(n).normal(size=prop.size)
    full = s_map @ x
    assert np.allclose(prop.derivative(0.7, x), read_back(a_ref @ full + 0.7 * (b_ref @ full)),
                       rtol=0, atol=1e-13)


def test_compile_applies_the_dissipator_once(monkeypatch):
    """apply_total runs once per excitation sector n - m = 0..n_ph, on the
    stack of the operators that sector's coordinates stand for: 20 + 30 +
    12 + 2 = 64 = dim^2 operators in all at 3 emitters, not one call per
    block or per operator."""
    calls = []

    def counted(cfg, rho):
        calls.append(rho.shape)
        return apply_total(cfg, rho)

    monkeypatch.setattr(hierarchy, "apply_total", counted)
    cfg = random_chain(np.random.default_rng(7), 3)
    HierarchyPropagator(cfg, 3)
    assert calls == [(20, 8, 8), (30, 8, 8), (12, 8, 8), (2, 8, 8)]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("n_ph", [1, 2, 3])
def test_blocks_of_one_sector_share_their_coordinates_and_operators(n, n_ph):
    """Every carried block rho_{m,n} of one sector n - m has the same re and
    im and, bit for bit, the same A-block.  Each B-block is sqrt(m) (from
    rho_{m-1,n}) or sqrt(n) (from rho_{m,n-1}) times one block per pair of
    source and target sectors; for m = n the source rho_{n,n-1} is the
    adjoint of rho_{n-1,n}, a sector of its own."""
    cfg = random_chain(np.random.default_rng(600 + 10 * n + n_ph), n)
    prop = HierarchyPropagator(cfg, n_ph)
    first = {}  # sector -> (re, im, A-block) of its first block
    drives = {}  # (term, source sector) -> the B-block over its scale, first seen
    for (m, k), (rows, re, im) in prop.slots.items():
        a_block = prop._a[rows, rows]
        sector_re, sector_im, sector_a = first.setdefault(k - m, (re, im, a_block))
        assert np.array_equal(re, sector_re) and np.array_equal(im, sector_im)
        assert np.array_equal(a_block, sector_a), (m, k)
        sources = []
        if m >= 1:
            sources.append(("up", np.sqrt(m), m - 1, k))
        if k >= 1:
            sources.append(("dn", np.sqrt(k), m, k - 1))
        for term, scale, p, q in sources:
            b_block = prop._b[rows, prop.slots[(min(p, q), max(p, q))][0]]
            assert b_block.size == 0 or np.any(b_block), (m, k, term)
            base = drives.setdefault((term, p - q), b_block / scale)
            np.testing.assert_allclose(b_block, scale * base, rtol=1e-15, atol=0)


# ----------------------------------------------------- structural invariants


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("n_ph", [1, 2, 3])
def test_operators_form_a_level_cascade(n, n_ph):
    """A keeps the level l = m + n of every entry, and B only raises it by
    one.  Checked on the compiled matrices, with levels labelled from slots;
    then the levels() split must put every entry back where it came from."""
    cfg = random_chain(np.random.default_rng(400 + 10 * n + n_ph), n)
    prop = HierarchyPropagator(cfg, n_ph)
    a, b = prop._a, prop._b
    level = np.empty(prop.size, dtype=int)
    for (m, k), (rows, _, _) in prop.slots.items():
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
    steady state of the dissipator, so it must stay pinned.  integrate
    holds level 0 at its start, so only the level-by-level reference,
    which steps it, can show it moving."""
    cfg = ChainConfig((EmitterParams(), EmitterParams()))
    icfg = IntegratorConfig(dt=5e-3, t_end=8.0, record_stride=100)
    states = integrate(cfg, PULSE, 3, icfg)
    ground = np.zeros((4, 4))
    ground[0, 0] = 1.0
    assert np.abs(states.block(0, 0) - ground).max() < 1e-12
    stepped = level_by_level_integrate(cfg, PULSE, 3, icfg)  # steps level 0 under A_0
    assert np.abs(stepped.block(0, 0) - ground).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_vacuum_level_is_at_rest_on_random_chains(n):
    """integrate holds level 0 instead of stepping it, which is exact only
    while A_0 maps the all-ground coordinates to exactly zero.  Checked bit
    for bit on detuned, lossy, chiral chains with d_ratio != 0."""
    rng = np.random.default_rng(800 + n)
    for _ in range(4):
        cfg = random_chain(rng, n)
        assert cfg.d_ratio > 0
        for em in cfg.emitters:
            assert em.delta != 0 and em.gamma_spont > 0 and em.gamma_r != em.gamma_l
        for n_ph in (1, 2, 3):
            prop = HierarchyPropagator(cfg, n_ph)
            vacuum = prop.levels()[0]
            assert not np.any(vacuum.a @ prop.ground()[vacuum.rows])


def test_integrate_refuses_a_vacuum_level_that_moves(monkeypatch):
    """Holding level 0 would silently drop its motion, so one entry of A_0
    planted on the ground coordinate must stop integrate."""

    class Planted(HierarchyPropagator):
        def __init__(self, cfg, n_ph):
            super().__init__(cfg, n_ph)
            rows = self.slots[(0, 0)][0]
            self._a[rows.start + 1, rows.start] = 1.0

    monkeypatch.setattr(integrator, "HierarchyPropagator", Planted)
    cfg = ChainConfig((EmitterParams(), EmitterParams()))
    with pytest.raises(RuntimeError, match="cannot be held"):
        integrate(cfg, PULSE, 1, IntegratorConfig(dt=1e-2, t_end=1.0))
