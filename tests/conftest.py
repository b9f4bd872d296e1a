"""Shared fixtures and helpers.

The checked-in scenarios are integrated once per session.  The regression
runs use each scenario's own grid (dt = 1e-3 over t in [0, 12], snapshot
every 10 steps).  Every (scenario, ratio) pair is integrated exactly once
and the result is shared by all test modules.

concurrence_of and fill_of measure density matrices the way a library
caller does: through the checked reader read_state, then the closed form.

The sector helpers build dicts of dense blocks rho_{m,k}, as the longhand
oracle in oracles.py takes them, and gather them into the compiled
propagator's real state vector, which carries of each block only the
entries in its grading (sector_mask) and budget (budget_mask), laid out as
carried_entries says.
dense_operators assembles the compiled A and B of y' = A y + g(t) B y from
the propagator's levels.
"""

from __future__ import annotations

import functools
import itertools
from pathlib import Path

import numpy as np
import pytest

from oracles import handwritten_three_photon_rhs, random_blocks
from wgqed.cli import simulate_scenario
from wgqed.entanglement import concurrence_fill, read_state, wootters_concurrence
from wgqed.hierarchy import HierarchyPropagator, block_order
from wgqed.pulse import amplitude
from wgqed.qubit_algebra import EmitterRegister, basis_index
from wgqed.scenario import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def scenario_path(stem: str) -> Path:
    return SCENARIO_DIR / f"{stem}.cfg"


def concurrence_of(rho: np.ndarray):
    """Concurrence of a pair density matrix, or of each of a (..., 4, 4) stack."""
    return wootters_concurrence(*read_state(rho, EmitterRegister(2)))


def fill_of(rho: np.ndarray):
    """Concurrence fill of a three-emitter density matrix, or of each of a
    (..., 8, 8) stack."""
    return concurrence_fill(read_state(rho, EmitterRegister(3))[0])


@functools.lru_cache(maxsize=None)
def _cached_run(stem: str, ratio):
    sc = load_scenario(scenario_path(stem))
    if ratio is not None:
        sc = sc.with_ratio(ratio)
    return simulate_scenario(sc)


@pytest.fixture(scope="session")
def scenario_run():
    """scenario_run(stem, ratio=None) -> ({column name: series}, StateTrajectory)."""
    return _cached_run


def excitations(n: int) -> np.ndarray:
    """exc(a) of each basis state a of n emitters, counted from the basis labels."""
    reg = EmitterRegister(n)
    exc = np.zeros(reg.dim, dtype=int)
    for label in itertools.product("ge", repeat=n):
        exc[basis_index(reg, "".join(label))] = label.count("e")
    return exc


def sector_mask(n: int, grade: int) -> np.ndarray:
    """Entries (a, b) of an n-emitter block with exc(a) - exc(b) = grade."""
    exc = excitations(n)
    return np.subtract.outer(exc, exc) == grade


def budget_mask(n: int, m: int, k: int) -> np.ndarray:
    """Entries (a, b) of an n-emitter block rho_{m,k} that the photons can
    reach: in its sector, exc(a) - exc(b) = m - k, with exc(a) <= m."""
    return sector_mask(n, m - k) & (excitations(n) <= m)[:, None]


def random_sector_state(rng, n: int, budget: bool = True) -> dict:
    """Random three-photon hierarchy {(m, k): block} projected onto the
    excitation sectors and, unless budget is False, onto each block's
    budget, with hermitian diagonal blocks and rho_{k,m} = rho_{m,k}^dag."""
    triangle = [(m, k) for m in range(4) for k in range(m, 4)]
    blocks = {}
    for (m, k), blk in random_blocks(rng, n, triangle).items():
        blk = np.where(budget_mask(n, m, k) if budget else sector_mask(n, m - k), blk, 0.0)
        if m == k:
            blk = 0.5 * (blk + blk.conj().T)
        blocks[(m, k)], blocks[(k, m)] = blk, blk.conj().T
    return blocks


def carried_entries(n: int, m: int, k: int) -> tuple:
    """Row-major indices (re, im) of the entries of an n-emitter block
    rho_{m,k}, m <= k, whose real and whose imaginary parts the state vector
    carries: those in its budget, of a Hermitian diagonal block only those on
    and above the diagonal, and only those above it for the imaginary parts."""
    re = im = budget_mask(n, m, k)
    if m == k:
        re, im = np.triu(re), np.triu(im, 1)
    return np.flatnonzero(re), np.flatnonzero(im)


def gather(prop: HierarchyPropagator, blocks: dict) -> np.ndarray:
    """Real state vector of the dense blocks rho_{m,k}, m, k <= prop.n_ph,
    laid out by the rows of prop.slots: per carried block, the real parts of
    its entries re, then the imaginary parts of its entries im, as
    carried_entries gives them.  Fails if a block does not come back whole
    from the vector (an entry outside its sector or its budget, or a
    diagonal block that is not Hermitian), which the vector would silently
    drop."""
    x = np.zeros(prop.size)
    for mn, (rows, _) in prop.slots.items():
        flat = np.asarray(blocks[mn], dtype=complex).ravel()
        re, im = carried_entries(prop.register.n_emitters, *mn)
        x[rows] = np.concatenate([flat[re].real, flat[im].imag])
        assert np.array_equal(prop.block(x, *mn).ravel(), flat), f"block {mn} does not round-trip"
    return x


def dense_operators(prop: HierarchyPropagator) -> tuple:
    """The (size, size) real A and B of y' = A y + g(t) B y: each level's a
    on its own rows and columns, its b on its rows and the columns of the
    level below, zero everywhere else."""
    a, b = np.zeros((2, prop.size, prop.size))
    below = slice(0, 0)
    for level in prop.levels:
        a[level.rows, level.rows] = level.a
        b[level.rows, below] = level.b
        below = level.rows
    return a, b


def oracle_deviation(cfg, n_ph: int, blocks: dict, t: float, pulse) -> float:
    """Largest entry-wise deviation of HierarchyPropagator.derivative from the
    handwritten oracle over every block rho_{m,k}, m, k <= n_ph.  Blocks with
    m > k are compared with the adjoint of the oracle's (k, m) block."""
    prop = HierarchyPropagator(cfg, n_ph)
    deriv = prop.derivative(amplitude(pulse, t), gather(prop, blocks))
    expected = handwritten_three_photon_rhs(cfg, blocks, t, pulse)
    return max(
        np.abs(
            prop.block(deriv, m, k)
            - (expected[(m, k)] if m <= k else expected[(k, m)].conj().T)
        ).max()
        for m, k in block_order(n_ph)
    )
