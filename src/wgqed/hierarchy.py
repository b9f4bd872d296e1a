"""Fock-state master-equation hierarchy for an n_ph-photon Gaussian input.

The system state is a family of operator blocks rho_{m,n}, 0 <= m, n <= n_ph,
each a dim x dim complex matrix.  Only the diagonal blocks are physical
density matrices; the off-diagonal ones are bookkeeping operators obeying
rho_{n,m} = rho_{m,n}^dag.  Only the blocks with m <= n are carried, and
rho_{n,m} is read off as the adjoint of rho_{m,n}, so that identity holds
by construction.  The physical (field-traced) state of the emitters is
rho_{n_ph,n_ph}.

Every block evolves under one generic rule,

    d/dt rho_{m,n} = L[rho_{m,n}] + sqrt(m) g(t) [rho_{m-1,n}, L_in^dag]
                                  + sqrt(n) g*(t) [L_in, rho_{m,n-1}],

    L_in = sum_i sqrt(Gamma_ir) e^{-i k0 d_i} s_i,

with the m=0 (resp. n=0) term absent.  Only right-moving photons drive the
couplings (the left input is vacuum), hence the lone sqrt(Gamma_ir).

L keeps exc(a) - exc(b) of a basis operator |a><b| (exc counts excited
emitters), and each drive term shifts it by one along with m - n.  Starting
from the all-ground state, the entries of rho_{m,n} with
exc(a) - exc(b) != m - n therefore stay zero (Baragiola et al., PRA 86,
013811, 2012).  The integrated state vector keeps only the remaining
entries of each carried block, its excitation sector.

L acts within each block, and each drive term raises m + n by one.  Grouped
by level l = m + n, the system is therefore a cascade: level l obeys a
time-invariant linear ODE forced by level l - 1 alone (`levels`).

The one drive term that reads a block that is not carried is the
sqrt(n) g* [L_in, rho_{n,n-1}] of a diagonal block rho_{n,n}.  It is the
adjoint of the carried term sqrt(n) g [rho_{n-1,n}, L_in^dag], since g is
real, so the diagonal block's forcing F from the carried blocks becomes
F + F^dag (`fold`).  The equations are therefore real-linear, not
complex-linear, in the carried state.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .liouvillian import ChainConfig, apply_total
from .qubit_algebra import commutator, lowering_op

__all__ = ["block_order", "fold", "Level", "HierarchyPropagator"]

MAX_PHOTONS = 3


def block_order(n_ph: int):
    """All blocks (m, n), 0 <= m, n <= n_ph, in (m, n)-lexicographic order."""
    return [(m, n) for m in range(n_ph + 1) for n in range(n_ph + 1)]


def fold(v: np.ndarray, pairs) -> np.ndarray:
    """Turn the forcing F of every diagonal block into F + F^dag, in place
    along the last axis of v: v[..., dst] += conj(v[..., src]), where
    pairs = (dst, src) pairs each diagonal-block entry (a, b) with its
    transposed entry (b, a).  Returns v."""
    dst, src = pairs
    v[..., dst] += v[..., src].conj()
    return v


class Level(NamedTuple):
    """One rung of the cascade y_l' = a y_l + fold(g(t) b y_{l-1}, pairs)."""

    rows: np.ndarray  # indices of the level's entries in the sector vector
    a: np.ndarray     # A restricted to the level, (n_l, n_l)
    b: np.ndarray     # B from level l - 1 into level l, (n_l, n_{l-1}); n_{-1} = 0
    pairs: tuple      # fold pairs (dst, src) of the level's diagonal block, level-local


class HierarchyPropagator:
    """Compiled right-hand side y' = A y + fold(g(t) B y) over the sector
    vector y.

    y holds, block by block in block_order, the excitation-sector entries
    of each carried rho_{m,n} (m <= n) in row-major order; `slots` says
    where.  A (dissipator) and B (drive couplings from the carried blocks)
    are cut out of superoperator matrices, each from one call of apply_total
    or a drive commutator on the stack of all dim^2 basis operators, so
    those stay the single definition of the physics.
    """

    def __init__(self, cfg: ChainConfig, n_ph: int):
        if not 1 <= n_ph <= MAX_PHOTONS:
            raise ValueError(f"photon number {n_ph} unsupported (must be 1..{MAX_PHOTONS})")
        reg = cfg.register
        dim = reg.dim
        d2 = dim * dim

        exc = np.array([bin(a).count("1") for a in range(dim)])
        grading = np.subtract.outer(exc, exc).ravel()  # exc(a) - exc(b) of |a><b|
        slots = {}  # (m, n) -> (slice of y, row-major indices into the block)
        size = 0
        for m, n in block_order(n_ph):
            if m <= n:  # rho_{n,m} is the adjoint of rho_{m,n}
                idx = np.flatnonzero(grading == m - n)
                slots[(m, n)] = (slice(size, size + idx.size), idx)
                size += idx.size

        l_in = sum(  # the input operator L_in
            math.sqrt(em.gamma_r) * np.exp(-1j * k0d) * lowering_op(reg, j)
            for j, (em, k0d) in enumerate(zip(cfg.emitters, cfg.k0d), start=1)
        )
        basis = np.eye(d2, dtype=complex).reshape(d2, dim, dim)  # every |a><b|
        # The raveled image of basis operator col is column col of each superoperator.
        liou = apply_total(cfg, basis).reshape(d2, d2).T
        # c_up multiplies sqrt(m) g(t), c_dn multiplies sqrt(n) g*(t)
        c_up = commutator(basis, l_in.conj().T).reshape(d2, d2).T
        c_dn = commutator(l_in, basis).reshape(d2, d2).T

        a_mat = np.zeros((size, size), dtype=complex)
        b_mat = np.zeros((size, size), dtype=complex)
        for (m, n), (rows, idx) in slots.items():
            a_mat[rows, rows] = liou[np.ix_(idx, idx)]
            if m >= 1:
                cols, src = slots[(m - 1, n)]
                b_mat[rows, cols] = math.sqrt(m) * c_up[np.ix_(idx, src)]
            if m < n:  # for m = n, rho_{n,n-1} is not carried: fold adds its term
                cols, src = slots[(m, n - 1)]
                b_mat[rows, cols] = math.sqrt(n) * c_dn[np.ix_(idx, src)]

        self.n_ph = n_ph
        self.register = reg
        self.dim = dim
        self.size = size
        self.slots = slots
        self._a = a_mat
        self._b = b_mat
        # each diagonal-block entry (a, b) and its transposed entry (b, a), in y
        dst, src = [], []
        for m in range(n_ph + 1):
            rows, idx = slots[(m, m)]
            a_idx, b_idx = np.divmod(idx, dim)
            dst.append(np.arange(rows.start, rows.stop))
            src.append(rows.start + np.searchsorted(idx, b_idx * dim + a_idx))
        self._pairs = (np.concatenate(dst), np.concatenate(src))

    def ground(self) -> np.ndarray:
        """Sector vector of the all-ground start: every diagonal block is the
        all-ground projector (its first sector entry), every other entry is 0."""
        y = np.zeros(self.size, dtype=complex)
        for m in range(self.n_ph + 1):
            y[self.slots[(m, m)][0].start] = 1.0
        return y

    def block(self, y: np.ndarray, m: int, n: int) -> np.ndarray:
        """Block rho_{m,n} of a sector vector y (..., size), as (..., dim, dim);
        for m > n the adjoint of rho_{n,m}."""
        if m > n:
            return self.block(y, n, m).conj().swapaxes(-1, -2)
        rows, idx = self.slots[(m, n)]
        lead = y.shape[:-1]
        out = np.zeros(lead + (self.dim * self.dim,), dtype=complex)
        out[..., idx] = y[..., rows]
        return out.reshape(lead + (self.dim, self.dim))

    def levels(self) -> list:
        """The cascade as one Level per l = m + n, 0 <= l <= 2 n_ph.

        Raises RuntimeError if A couples two levels or B couples anything
        but level l - 1 to level l, since the cascade would then drop terms.
        """
        level = np.empty(self.size, dtype=int)
        for (m, n), (rows, _) in self.slots.items():
            level[rows] = m + n
        step = np.subtract.outer(level, level)  # level of the row minus level of the column
        if np.any(self._a[step != 0]) or np.any(self._b[step != 1]):
            raise RuntimeError("hierarchy operator couples levels outside the cascade")
        dst, src = self._pairs
        local = np.empty(self.size, dtype=int)  # position of each entry within its level
        out = []
        below = np.empty(0, dtype=int)
        for l in range(2 * self.n_ph + 1):
            rows = np.flatnonzero(level == l)
            local[rows] = np.arange(rows.size)
            mine = level[dst] == l
            pairs = (local[dst[mine]], local[src[mine]])
            out.append(Level(rows, self._a[np.ix_(rows, rows)], self._b[np.ix_(rows, below)], pairs))
            below = rows
        return out

    def derivative(self, g: float, y: np.ndarray) -> np.ndarray:
        """d/dt of the sector vector y (size,) given the real drive amplitude g."""
        return self._a @ y + fold(g * (self._b @ y), self._pairs)
