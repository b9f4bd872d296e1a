"""Shared fixtures and helpers.

The checked-in scenarios are integrated once per session.  The regression
runs use each scenario's own grid (dt = 1e-3 over t in [0, 12], snapshot
every 10 steps).  Every (scenario, ratio) pair is integrated exactly once
and the result is shared by all test modules.

The sector helpers build dicts of dense blocks rho_{m,k}, as the longhand
oracle in oracles.py takes them, and gather them into the compiled
propagator's sector vector.
"""

from __future__ import annotations

import functools
import itertools
from pathlib import Path

import numpy as np
import pytest

from oracles import handwritten_three_photon_rhs, random_blocks
from wgqed.cli import simulate_scenario
from wgqed.hierarchy import HierarchyPropagator, block_order
from wgqed.pulse import amplitude
from wgqed.qubit_algebra import EmitterRegister, basis_index
from wgqed.scenario import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def scenario_path(stem: str) -> Path:
    return SCENARIO_DIR / f"{stem}.cfg"


@functools.lru_cache(maxsize=None)
def _cached_run(stem: str, ratio):
    sc = load_scenario(scenario_path(stem))
    if ratio is not None:
        sc = sc.with_ratio(ratio)
    return simulate_scenario(sc)


@pytest.fixture(scope="session")
def scenario_run():
    """scenario_run(stem, ratio=None) -> (Trajectory, StateTrajectory)."""
    return _cached_run


def sector_mask(n: int, grade: int) -> np.ndarray:
    """Entries (a, b) of an n-emitter block with exc(a) - exc(b) = grade,
    counting excitations from the basis labels."""
    reg = EmitterRegister(n)
    exc = np.zeros(reg.dim, dtype=int)
    for label in itertools.product("ge", repeat=n):
        exc[basis_index(reg, "".join(label))] = label.count("e")
    return np.subtract.outer(exc, exc) == grade


def random_sector_state(rng, n: int) -> dict:
    """Random three-photon hierarchy {(m, k): block} projected onto the
    excitation sectors, with hermitian diagonal blocks and
    rho_{k,m} = rho_{m,k}^dag."""
    triangle = [(m, k) for m in range(4) for k in range(m, 4)]
    blocks = {}
    for (m, k), blk in random_blocks(rng, n, triangle).items():
        blk = np.where(sector_mask(n, m - k), blk, 0.0)
        if m == k:
            blk = 0.5 * (blk + blk.conj().T)
        blocks[(m, k)], blocks[(k, m)] = blk, blk.conj().T
    return blocks


def gather(prop: HierarchyPropagator, blocks: dict) -> np.ndarray:
    """Sector vector of the dense blocks rho_{m,k}, m, k <= prop.n_ph, laid
    out by prop.slots.  Fails if a block has an entry outside its sector,
    which the vector would silently drop."""
    y = np.zeros(prop.size, dtype=complex)
    for mn, (rows, idx) in prop.slots.items():
        flat = np.asarray(blocks[mn], dtype=complex).ravel()
        assert not np.any(np.delete(flat, idx)), f"block {mn} has entries outside its sector"
        y[rows] = flat[idx]
    return y


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
