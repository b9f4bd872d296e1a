"""Hierarchy of photon-indexed blocks: sector layout, all-ground start, and
the compiled propagator checked against the longhand transcription."""

import numpy as np
import pytest

from conftest import (
    budget_mask,
    carried_entries,
    dense_operators,
    gather,
    oracle_deviation,
    random_sector_state,
    scenario_path,
    sector_mask,
)
from oracles import (
    column_by_column_operators,
    full_slots,
    handwritten_three_photon_rhs,
    level_by_level_integrate,
    random_chain,
)
from wgqed import hierarchy, liouvillian
from wgqed.hierarchy import HierarchyPropagator, block_order
from wgqed.integrator import IntegratorConfig, integrate
from wgqed.liouvillian import ChainConfig, EmitterParams, apply_total, coupling_matrix
from wgqed.pulse import GaussianPulse
from wgqed.scenario import load_scenario

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
    """The carried blocks m <= n hold `carried` complex entries in their
    excitation sectors, of which each keeps those in its budget (exc(a) <= m,
    counted here from the basis labels).  Each takes two real coordinates in
    an off-diagonal block; in a Hermitian diagonal block each entry takes one
    (its real diagonal, or the real or the imaginary part of an entry above
    the diagonal)."""
    cfg = ChainConfig((EmitterParams(),) * n)
    prop = HierarchyPropagator(cfg, n_ph)
    sector = {mn: idx.size for mn, (_, idx) in full_slots(cfg, n_ph).items()}
    budget = {(m, k): budget_mask(n, m, k).sum() for m, k in block_order(n_ph)}
    assert sorted(prop.slots) == [(m, k) for m, k in block_order(n_ph) if m <= k]
    assert sum(sector[mn] for mn in prop.slots) == carried
    for (m, k), (rows, _) in prop.slots.items():
        assert rows.stop - rows.start == (1 if m == k else 2) * budget[(m, k)]
    diagonal = sum(budget[(m, m)] for m in range(n_ph + 1))
    assert prop.size == 2 * sum(budget[mn] for mn in prop.slots) - diagonal


BUDGET_SIZES = {(1, 3): 13, (2, 3): 42, (3, 3): 130, (2, 1): 10, (3, 1): 17}


@pytest.mark.parametrize(
    "n,n_ph,size", [(1, 3, 14), (2, 3, 52), (3, 3, 196), (2, 1, 20), (3, 1, 70)]
)
def test_sector_sizes(n, n_ph, size):
    """The full reference layout spans the excitation sectors of all
    (n_ph+1)^2 blocks, `size` complex entries.  The carried blocks' real
    coordinates are as many as that layout's entries in budget: every block
    rho_{m,n} with m < n stands for itself and its adjoint rho_{n,m}, and a
    Hermitian diagonal block has as many real degrees of freedom as complex
    entries.  The budget drops each entry whose ket has more than m
    excitations, down to BUDGET_SIZES."""
    cfg = ChainConfig((EmitterParams(),) * n)
    slots = full_slots(cfg, n_ph)
    assert sum(idx.size for _, idx in slots.values()) == size
    in_budget = sum(budget_mask(n, *mn).ravel()[idx].sum() for mn, (_, idx) in slots.items())
    assert HierarchyPropagator(cfg, n_ph).size == in_budget == BUDGET_SIZES[(n, n_ph)]


def test_flatten_order_matches_block_order():
    """The carried blocks are laid out level by level, m + n, and within a
    level in block_order."""
    rng = np.random.default_rng(5)
    cfg = random_chain(rng, 2)
    prop = HierarchyPropagator(cfg, 2)
    blocks = random_sector_state(rng, 2)
    flat = gather(prop, blocks)
    assert flat.dtype == np.float64
    start = 0
    for m, n in sorted(block_order(2), key=sum):
        assert np.array_equal(prop.block(flat, m, n), blocks[(m, n)])
        if m > n:
            assert (m, n) not in prop.slots  # read off as the adjoint of (n, m)
            continue
        # row-major: the real parts, then the imaginary parts, of the entries
        # in sector and budget; of a diagonal block only those on and above the diagonal,
        # and only the imaginary parts above it
        re = im = budget_mask(2, m, n)
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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_entry_and_diagonal_read_the_block_without_building_it(n):
    """entry(y, m, n, a, b) and block(y, m, n) give back, bit for bit, the
    dense blocks gather packed into y, for every block, m > n and entries
    that are not carried included (at N = 3 > n_ph = 2 some diagonal
    entries too), one entry at a time and all of them, or the whole
    diagonal, in one gather."""
    rng = np.random.default_rng(30 + n)
    prop = HierarchyPropagator(random_chain(rng, n), 2)
    states = [random_sector_state(rng, n) for _ in range(3)]
    y = np.stack([gather(prop, blocks) for blocks in states])
    a, b = np.divmod(np.arange(prop.dim**2).reshape(prop.dim, prop.dim), prop.dim)
    for m, k in block_order(2):
        blk = np.stack([blocks[(m, k)] for blocks in states])
        assert np.array_equal(prop.block(y, m, k), blk), (m, k)
        for i in range(prop.dim):
            for j in range(prop.dim):
                got = prop.entry(y, m, k, i, j)
                assert got.shape == (3,) and np.array_equal(got, blk[:, i, j]), (m, k, i, j)
        assert np.array_equal(prop.entry(y, m, k, a, b), blk)
        diagonal = prop.entry(y, m, k, *np.diag_indices(prop.dim))
        assert np.array_equal(diagonal, np.diagonal(blk, axis1=-2, axis2=-1))
    assert n < 3 or not np.all(budget_mask(n, 2, 2).diagonal())


def test_entry_refuses_an_index_outside_the_register():
    """A basis index outside [0, dim), or a block index outside 0..n_ph, is
    a caller's slip, not an entry that is not carried: on the shipped
    2-emitter chain it raises IndexError for a scalar, an array, a list or
    a tuple index, on either side and for m > n.  List and tuple indices in
    range read like arrays."""
    sc = load_scenario(scenario_path("two_emitter_chirality_sweep"))
    prop = HierarchyPropagator(sc.chain, sc.n_photons)
    y = prop.ground()
    for m, k, a, b in ((3, 3, 9, 0), (3, 3, -1, 0), (3, 3, 0, 4), (1, 2, 2, -1), (3, 0, 4, 0),
                       (3, 3, np.arange(5), np.arange(5)), (3, 3, [0, 4], [0, 0]),
                       (2, 3, (0, 1), (0, -1)), (4, 4, 0, 0), (0, 4, 0, 0), (4, 0, 0, 0),
                       (-1, 3, 0, 0)):
        with pytest.raises(IndexError, match="outside 0..3"):
            prop.entry(y, m, k, a, b)
    assert prop.entry(y, 3, 3, 3, 0) == 0 and prop.entry(y, 3, 3, 0, 0) == 1
    assert np.array_equal(prop.entry(y, 3, 3, [0, 3], (0, 3)), [1, 0])


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
    out = handwritten_three_photon_rhs(cfg, random_sector_state(rng, n, budget=False), 4.3, PULSE)
    for (m, k), blk in out.items():
        assert not np.any(blk[~sector_mask(n, m - k)]), (m, k)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_keeps_in_budget_hierarchies_in_their_budget(n):
    """Independent check of the budget the layout relies on: the longhand
    equations map a hierarchy inside every block's budget (exc(a) <= m in
    rho_{m,k}) to exactly zero outside it, and not to zero inside it."""
    rng = np.random.default_rng(350 + n)
    cfg = random_chain(rng, n)
    out = handwritten_three_photon_rhs(cfg, random_sector_state(rng, n), 4.3, PULSE)
    for (m, k), blk in out.items():
        assert not np.any(blk[~budget_mask(n, m, k)]), (m, k)
    assert np.any(out[(3, 3)])


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
    of the im entries of each carried block (carried_entries).  Every entry
    of the reference product Re(P A S) is a sum of at most two nonzero
    terms, so the order of summation cannot change it.  A and B are assembled from the levels,
    so a coupling the cascade would drop shows as a mismatch."""
    cfg = random_chain(np.random.default_rng(500 + 10 * n + n_ph), n)
    prop = HierarchyPropagator(cfg, n_ph)
    slots, a_ref, b_ref = column_by_column_operators(cfg, n_ph)
    unit = np.eye(prop.size)
    s_map = np.zeros((len(a_ref), prop.size), dtype=complex)
    for mn, (rows, idx) in slots.items():
        s_map[rows] = prop.block(unit, *mn).reshape(prop.size, -1)[:, idx].T

    def read_back(images):
        out = np.empty((prop.size,) + images.shape[1:])
        for mn, (rows, _) in prop.slots.items():
            full_rows, idx = slots[mn]
            re, im = carried_entries(n, *mn)
            part = images[full_rows]
            out[rows] = np.concatenate([part[np.searchsorted(idx, re)].real,
                                        part[np.searchsorted(idx, im)].imag])
        return out

    a, b = dense_operators(prop)
    assert np.array_equal(a, read_back(a_ref @ s_map))
    assert np.array_equal(b, read_back(b_ref @ s_map))

    x = np.random.default_rng(n).normal(size=prop.size)
    full = s_map @ x
    assert np.allclose(prop.derivative(0.7, x), read_back(a_ref @ full + 0.7 * (b_ref @ full)),
                       rtol=0, atol=1e-13)


def test_compile_applies_the_dissipator_once(monkeypatch):
    """apply_total runs once per carried block, in layout order, on the
    stack of the operators that block's coordinates stand for: 130
    operators in all at 3 emitters and three photons, once each, not one
    call per operator."""
    calls = []

    def counted(cfg, rho):
        calls.append(rho.shape)
        return apply_total(cfg, rho)

    monkeypatch.setattr(hierarchy, "apply_total", counted)
    cfg = random_chain(np.random.default_rng(7), 3)
    prop = HierarchyPropagator(cfg, 3)
    assert calls == [(rows.stop - rows.start, 8, 8) for rows, _ in prop.slots.values()]
    assert sum(k for k, _, _ in calls) == prop.size == 130


def test_compile_builds_the_chain_operators_once(monkeypatch):
    """apply_total builds H and the jump feeds from the coupling matrix once
    per chain, not once per call: the four per-sector calls of a compile
    read D once, and a second compile of the same chain not at all."""
    calls = []

    def counted(cfg):
        calls.append(cfg)
        return coupling_matrix(cfg)

    monkeypatch.setattr(liouvillian, "coupling_matrix", counted)
    cfg = random_chain(np.random.default_rng(7), 3)
    first = HierarchyPropagator(cfg, 3)
    again = HierarchyPropagator(cfg, 3)
    assert calls == [cfg]
    for x, y in zip(dense_operators(first), dense_operators(again)):
        assert np.array_equal(x, y)


def _within(prop, small, big):
    """Positions of the coordinates of the carried block small among those
    of big, after checking that small's entries re and im lie inside big's."""
    re, im = carried_entries(prop.register.n_emitters, *small)
    big_re, big_im = carried_entries(prop.register.n_emitters, *big)
    assert np.isin(re, big_re).all() and np.isin(im, big_im).all(), (small, big)
    return np.concatenate([np.searchsorted(big_re, re), big_re.size + np.searchsorted(big_im, im)])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("n_ph", [1, 2, 3])
def test_blocks_of_one_sector_nest_and_restrict_its_operators(n, n_ph):
    """Along a sector n - m the carried entries nest: those of rho_{m,n} lie
    inside those of rho_{m+1,n+1}.  Each block's A-block is, bit for bit,
    the restriction of the A-block of its sector's top block
    rho_{n_ph-(n-m),n_ph} to its coordinates.  Each B-block that is not
    empty is nonzero, and sqrt(m) (from rho_{m-1,n}) or sqrt(n) (from
    rho_{m,n-1}) times the restriction of the top block's B-block over its
    own scale; for m = n the source rho_{n,n-1} is the adjoint of
    rho_{n-1,n}."""
    cfg = random_chain(np.random.default_rng(600 + 10 * n + n_ph), n)
    prop = HierarchyPropagator(cfg, n_ph)
    a, b = dense_operators(prop)

    def sources(m, k):  # drive term -> (scale, carried source block)
        return {"up": (np.sqrt(m), (m - 1, k)), "dn": (np.sqrt(k), (min(m, k - 1), max(m, k - 1)))}

    for (m, k), (rows, _) in prop.slots.items():
        if m >= 1:
            _within(prop, (m - 1, k - 1), (m, k))
        top = (n_ph - (k - m), n_ph)
        top_rows, pos = prop.slots[top][0], _within(prop, (m, k), top)
        assert np.array_equal(a[rows, rows], a[top_rows, top_rows][np.ix_(pos, pos)]), (m, k)
        for term in ["up"] * (m >= 1) + ["dn"] * (k >= 1):
            (scale, src), (top_scale, top_src) = sources(m, k)[term], sources(*top)[term]
            b_block = b[rows, prop.slots[src][0]]
            assert b_block.size == 0 or np.any(b_block), (m, k, src)
            top_block = b[top_rows, prop.slots[top_src][0]][np.ix_(pos, _within(prop, src, top_src))]
            np.testing.assert_allclose(b_block, scale / top_scale * top_block, rtol=1e-15, atol=0)


# ----------------------------------------------------- structural invariants


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("n_ph", [1, 2, 3])
def test_levels_tile_the_state_vector_in_block_order(n, n_ph):
    """The levels' rows are contiguous slices that tile [0, size) in order,
    and level l holds the carried blocks with m + k = l one after another,
    in block_order; its a and b span its own rows and the level below's."""
    prop = HierarchyPropagator(random_chain(np.random.default_rng(450 + 10 * n + n_ph), n), n_ph)
    assert len(prop.levels) == 2 * n_ph + 1
    start = below = 0
    for l, level in enumerate(prop.levels):
        rows = level.rows
        assert isinstance(rows, slice) and rows.step is None and rows.start == start, l
        for m, k in [(m, k) for m, k in block_order(n_ph) if m <= k and m + k == l]:
            assert prop.slots[(m, k)][0].start == start, (m, k)
            start = prop.slots[(m, k)][0].stop
        assert rows.stop == start, l
        width = rows.stop - rows.start
        assert level.a.shape == (width, width) and level.b.shape == (width, below), l
        below = width
    assert start == prop.size


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("n_ph", [1, 2, 3])
def test_operators_form_a_level_cascade(n, n_ph):
    """A keeps the level l = m + n of every entry, and B only raises it by
    one.  Checked on the operators assembled from the levels, with each
    coordinate's level labelled from slots, so a block compiled into the
    wrong level would show.  Every level above the vacuum has a nonzero a
    and a nonzero drive b from the level below; the vacuum level is the one
    coordinate of |g><g|, and its a is exactly 0."""
    cfg = random_chain(np.random.default_rng(400 + 10 * n + n_ph), n)
    prop = HierarchyPropagator(cfg, n_ph)
    a, b = dense_operators(prop)
    level = np.empty(prop.size, dtype=int)
    for (m, k), (rows, _) in prop.slots.items():
        level[rows] = m + k
    rise = level[:, None] - level[None, :]
    assert not np.any(a[rise != 0])
    assert not np.any(b[rise != 1])
    assert prop.levels[0].a.shape == (1, 1) and not np.any(prop.levels[0].a)
    for l, lv in enumerate(prop.levels[1:], 1):
        assert np.any(lv.a) and np.any(lv.b), l


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
    while A_0 maps the all-ground coordinates to exactly zero.  Level 0 is
    that one coordinate, and A_0 is exactly 0.  Checked bit for bit on
    detuned, lossy, chiral chains with d_ratio != 0."""
    rng = np.random.default_rng(800 + n)
    for _ in range(4):
        cfg = random_chain(rng, n)
        assert cfg.d_ratio > 0
        for em in cfg.emitters:
            assert em.delta != 0 and em.gamma_spont > 0 and em.gamma_r != em.gamma_l
        for n_ph in (1, 2, 3):
            prop = HierarchyPropagator(cfg, n_ph)
            vacuum = prop.levels[0]
            assert vacuum.a.shape == (1, 1) and prop.ground()[vacuum.rows] == 1.0
            assert not np.any(vacuum.a)

