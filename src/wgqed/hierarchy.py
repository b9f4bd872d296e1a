"""Fock-state master-equation hierarchy for an n_ph-photon Gaussian input.

The system state is a family of operator blocks rho_{m,n}, 0 <= m, n <= n_ph,
each a dim x dim complex matrix.  Only the diagonal blocks are physical
density matrices; the off-diagonal ones are bookkeeping operators obeying
rho_{m,n}^dag = rho_{n,m}.  All (n_ph+1)^2 blocks are carried, so the
equations of motion are complex-linear in the state and no adjoint is ever
taken.  The physical (field-traced) state of the emitters is rho_{n_ph,n_ph}.

Every block evolves under one generic rule,

    d/dt rho_{m,n} = L[rho_{m,n}]
        + sum_i sqrt(Gamma_ir) ( sqrt(m) e^{+i k0 d_i} g(t)  [rho_{m-1,n}, sd_i]
                               + sqrt(n) e^{-i k0 d_i} g*(t) [s_i, rho_{m,n-1}] ),

with the m=0 (resp. n=0) term absent.  Only right-moving photons drive the
couplings (the left input is vacuum), hence the lone sqrt(Gamma_ir).

L keeps exc(a) - exc(b) of a basis operator |a><b| (exc counts excited
emitters), and each drive term shifts it by one along with m - n.  Starting
from the all-ground state, the entries of rho_{m,n} with
exc(a) - exc(b) != m - n therefore stay zero (Baragiola et al., PRA 86,
013811, 2012).  The integrated state vector keeps only the remaining
entries of each block, its excitation sector.
"""

from __future__ import annotations

import math

import numpy as np

from .liouvillian import ChainConfig, apply_total
from .qubit_algebra import commutator, lowering_op

__all__ = ["block_order", "HierarchyPropagator"]

MAX_PHOTONS = 3


def block_order(n_ph: int):
    """All blocks (m, n), 0 <= m, n <= n_ph, in (m, n)-lexicographic order."""
    return [(m, n) for m in range(n_ph + 1) for n in range(n_ph + 1)]


class HierarchyPropagator:
    """Compiled right-hand side y' = (A + g(t) B) y over the sector vector y.

    y holds, block by block in block_order, the excitation-sector entries of
    each rho_{m,n} in row-major order; `slots` says where.  A (dissipator)
    and B (drive couplings) are cut out of superoperator matrices built in
    one pass over the dim^2 basis operators through apply_total and the two
    drive commutators, so those stay the single definition of the physics.
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
            idx = np.flatnonzero(grading == m - n)
            slots[(m, n)] = (slice(size, size + idx.size), idx)
            size += idx.size

        sigmas = [lowering_op(reg, j) for j in range(1, cfg.n_emitters + 1)]
        weights = [
            math.sqrt(em.gamma_r) * np.exp(1j * k0d) for em, k0d in zip(cfg.emitters, cfg.k0d)
        ]
        liou, c_up, c_dn = (np.empty((d2, d2), dtype=complex) for _ in range(3))
        basis = np.zeros((dim, dim), dtype=complex)
        for col in range(d2):
            basis.flat[col] = 1.0
            liou[:, col] = apply_total(cfg, basis).ravel()
            # c_up multiplies sqrt(m) g(t), c_dn multiplies sqrt(n) g*(t)
            c_up[:, col] = sum(
                w * commutator(basis, s.conj().T) for w, s in zip(weights, sigmas)
            ).ravel()
            c_dn[:, col] = sum(
                w.conjugate() * commutator(s, basis) for w, s in zip(weights, sigmas)
            ).ravel()
            basis.flat[col] = 0.0

        a_mat = np.zeros((size, size), dtype=complex)
        b_mat = np.zeros((size, size), dtype=complex)
        for (m, n), (rows, idx) in slots.items():
            a_mat[rows, rows] = liou[np.ix_(idx, idx)]
            if m >= 1:
                cols, src = slots[(m - 1, n)]
                b_mat[rows, cols] = math.sqrt(m) * c_up[np.ix_(idx, src)]
            if n >= 1:
                cols, src = slots[(m, n - 1)]
                b_mat[rows, cols] = math.sqrt(n) * c_dn[np.ix_(idx, src)]

        self.n_ph = n_ph
        self.register = reg
        self.dim = dim
        self.size = size
        self.slots = slots
        self._a = a_mat
        self._b = b_mat

    def ground(self) -> np.ndarray:
        """Sector vector of the all-ground start: every diagonal block is the
        all-ground projector (its first sector entry), every other entry is 0."""
        y = np.zeros(self.size, dtype=complex)
        for m in range(self.n_ph + 1):
            y[self.slots[(m, m)][0].start] = 1.0
        return y

    def block(self, y: np.ndarray, m: int, n: int) -> np.ndarray:
        """Block rho_{m,n} of a sector vector y (..., size), as (..., dim, dim)."""
        rows, idx = self.slots[(m, n)]
        lead = y.shape[:-1]
        out = np.zeros(lead + (self.dim * self.dim,), dtype=complex)
        out[..., idx] = y[..., rows]
        return out.reshape(lead + (self.dim, self.dim))

    def derivative(self, g: float, y: np.ndarray) -> np.ndarray:
        """d/dt of the sector vector given the drive amplitude g."""
        return self._a @ y + g * (self._b @ y)
