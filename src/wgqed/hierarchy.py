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

    L_in = sum_i sqrt(Gamma_ir) e^{-2 pi i d_ratio (i - 1)} s_i,

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
real, so the equations are real-linear, not complex-linear, in the carried
blocks.  They are therefore compiled and integrated in real coordinates:
the real and imaginary parts of every carried entry, where a diagonal block
rho_{n,n}, being Hermitian, keeps only its real diagonal and its entries
above the diagonal.  A diagonal block read back is Hermitian by
construction, and its trace exactly real.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

import numpy as np

from .liouvillian import ChainConfig, apply_total
from .qubit_algebra import commutator, excitation_count, lowering_op

__all__ = ["block_order", "Level", "HierarchyPropagator"]

MAX_PHOTONS = 3


def block_order(n_ph: int):
    """All blocks (m, n), 0 <= m, n <= n_ph, in (m, n)-lexicographic order."""
    return [(m, n) for m in range(n_ph + 1) for n in range(n_ph + 1)]


class Level(NamedTuple):
    """One rung of the cascade y_l' = a y_l + g(t) b y_{l-1}."""

    rows: np.ndarray  # indices of the level's coordinates in the state vector
    a: np.ndarray     # A restricted to the level, (n_l, n_l)
    b: np.ndarray     # B from level l - 1 into level l, (n_l, n_{l-1}); n_{-1} = 0


class HierarchyPropagator:
    """Compiled right-hand side y' = A y + g(t) B y over the real state
    vector y.

    y holds, block by block in block_order, the coordinates of each carried
    rho_{m,n} (m <= n); slots[(m, n)] = (rows, re, im) says where: y[rows]
    is the real parts of the block's row-major entries re, then the
    imaginary parts of its entries im.  For m < n both are the block's
    excitation sector; for the Hermitian rho_{n,n}, re is the sector's
    entries on and above the diagonal and im those above it.  `block` reads
    a block back.

    A (dissipator) and B (drive couplings) are real matrices.  Column j is
    the derivative, read back into coordinates, of the blocks coordinate j
    stands for (through `block`, so rho_{n,n-1} is the adjoint of
    rho_{n-1,n}).  apply_total and the two drive commutators, the single
    definition of the physics, map those operators themselves, and the
    target block's re and im read each image back, the inverse of `block`.
    Blocks of one sector n - m share their coordinates, so each map runs
    once per sector, on the stack of that sector's operators.
    """

    def __init__(self, cfg: ChainConfig, n_ph: int):
        if not 1 <= n_ph <= MAX_PHOTONS:
            raise ValueError(f"photon number {n_ph} unsupported (must be 1..{MAX_PHOTONS})")
        reg = cfg.register
        dim = reg.dim

        exc = excitation_count(reg)
        grading = np.subtract.outer(exc, exc).ravel()  # exc(a) - exc(b) of |a><b|
        slots = {}  # (m, n) -> (slice of y, re, im), as in the class docstring
        size = 0
        for m, n in block_order(n_ph):
            if m > n:  # rho_{n,m} is the adjoint of rho_{m,n}
                continue
            idx = np.flatnonzero(grading == m - n)
            re = im = idx
            if m == n:  # Hermitian: the diagonal is real, the lower triangle the adjoint
                row, col = np.divmod(idx, dim)
                re, im = idx[row <= col], idx[row < col]
            slots[(m, n)] = (slice(size, size + re.size + im.size), re, im)
            size += re.size + im.size
        self.n_ph = n_ph
        self.register = reg
        self.dim = dim
        self.size = size
        self.slots = slots

        l_in = sum(  # the input operator L_in
            math.sqrt(em.gamma_r) * np.exp(-1j * k0d) * lowering_op(reg, j)
            for j, (em, k0d) in enumerate(zip(cfg.emitters, cfg.k0d), start=1)
        )
        liou = partial(apply_total, cfg)  # each map takes a (..., dim, dim) stack
        up = partial(commutator, b=l_in.conj().T)  # times sqrt(m) g(t)
        dn = partial(commutator, l_in)  # times sqrt(n) g*(t)
        images = {}  # (map, sector m - n of the source) -> image of each source coordinate

        a_mat = np.zeros((size, size))
        b_mat = np.zeros((size, size))
        for (m, n), (rows, re, im) in slots.items():
            terms = [(a_mat, 1.0, liou, m, n)]
            if m >= 1:
                terms.append((b_mat, math.sqrt(m), up, m - 1, n))
            if n >= 1:  # for m = n, rho_{n,n-1} is read as the adjoint of rho_{n-1,n}
                terms.append((b_mat, math.sqrt(n), dn, m, n - 1))
            for mat, scale, op, p, q in terms:
                cols = slots[(min(p, q), max(p, q))][0]
                if (op, p - q) not in images:  # every block of one sector has the same coordinates
                    unit = np.eye(cols.stop - cols.start, size, cols.start)
                    images[(op, p - q)] = op(self.block(unit, p, q)).reshape(-1, dim * dim)
                image = images[(op, p - q)]  # read back with the target's re and im
                mat[rows, cols] += scale * np.concatenate([image[:, re].real, image[:, im].imag], 1).T
        self._a = a_mat
        self._b = b_mat

    def ground(self) -> np.ndarray:
        """State vector of the all-ground start: every diagonal block is the
        all-ground projector (its first coordinate), every other entry is 0."""
        y = np.zeros(self.size)
        for m in range(self.n_ph + 1):
            y[self.slots[(m, m)][0].start] = 1.0
        return y

    def block(self, y: np.ndarray, m: int, n: int) -> np.ndarray:
        """Block rho_{m,n} of a state vector y (..., size), as complex
        (..., dim, dim); for m > n the adjoint of rho_{n,m}."""
        if m > n:
            return self.block(y, n, m).conj().swapaxes(-1, -2)
        rows, re, im = self.slots[(m, n)]
        part = y[..., rows]
        lead = y.shape[:-1]
        out = np.zeros(lead + (self.dim * self.dim,), dtype=complex)
        out.real[..., re] = part[..., :re.size]
        out.imag[..., im] = part[..., re.size:]
        if m == n:  # below the diagonal: the conjugates of the entries above it
            row, col = np.divmod(im, self.dim)
            out[..., col * self.dim + row] = out[..., im].conj()
        return out.reshape(lead + (self.dim, self.dim))

    def levels(self) -> list:
        """The cascade as one Level per l = m + n, 0 <= l <= 2 n_ph.

        Raises RuntimeError if A couples two levels or B couples anything
        but level l - 1 to level l, since the cascade would then drop terms.
        """
        level = np.empty(self.size, dtype=int)
        for (m, n), (rows, _, _) in self.slots.items():
            level[rows] = m + n
        step = np.subtract.outer(level, level)  # level of the row minus level of the column
        if np.any(self._a[step != 0]) or np.any(self._b[step != 1]):
            raise RuntimeError("hierarchy operator couples levels outside the cascade")
        out = []
        below = np.empty(0, dtype=int)
        for l in range(2 * self.n_ph + 1):
            rows = np.flatnonzero(level == l)
            out.append(Level(rows, self._a[np.ix_(rows, rows)], self._b[np.ix_(rows, below)]))
            below = rows
        return out

    def derivative(self, g: float, y: np.ndarray) -> np.ndarray:
        """d/dt of the state vector y (size,) given the real drive amplitude g."""
        return self._a @ y + g * (self._b @ y)
