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

with the m=0 (resp. n=0) term absent.  L_in is the right-moving channel
(`ChainConfig.input_operator`); the left-moving input is vacuum.

L keeps exc(a) - exc(b) of a basis operator |a><b| (exc counts excited
emitters), and each drive term shifts it by one along with m - n.  L's
jumps lower exc(a), its no-jump part keeps it, and the one drive term that
raises it, [rho_{m-1,n}, L_in^dag], also raises m.  Starting from the
all-ground state, the entries of rho_{m,n} with exc(a) - exc(b) != m - n
(the grading) or exc(a) > m (the budget) therefore stay zero (Baragiola et
al., PRA 86, 013811, 2012).  The integrated state vector keeps only the
remaining entries of each carried block.

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
above the diagonal.  One complex table per carried block says which entries
each coordinate stands for; reading a diagonal block through it puts the
conjugate of each entry above the diagonal at its mirror below, so the
block is Hermitian by construction, and its trace exactly real.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

import numpy as np

from .liouvillian import ChainConfig, apply_total
from .qubit_algebra import commutator, excitation_count

__all__ = ["block_order", "Level", "HierarchyPropagator"]

MAX_PHOTONS = 3


def block_order(n_ph: int):
    """All blocks (m, n), 0 <= m, n <= n_ph, in (m, n)-lexicographic order."""
    return [(m, n) for m in range(n_ph + 1) for n in range(n_ph + 1)]


class Level(NamedTuple):
    """One rung of the cascade y_l' = a y_l + g(t) b y_{l-1}."""

    rows: slice       # the level's coordinates in the state vector
    a: np.ndarray     # A on the level, (n_l, n_l)
    b: np.ndarray     # B from level l - 1 into level l, (n_l, n_{l-1}); n_{-1} = 0


class HierarchyPropagator:
    """Compiled right-hand side y' = A y + g(t) B y over the real state
    vector y.

    y holds the coordinates of each carried rho_{m,n} (m <= n) level by
    level, l = m + n, and in block_order within a level: the real parts of
    the block's row-major entries in its grading and budget, then their
    imaginary parts, where the Hermitian rho_{n,n} keeps the real parts of
    those on and above the diagonal and the imaginary parts of those above
    it.  slots[(m, n)] = (rows, table) is the one record of that layout:
    y[rows] are the block's k coordinates, and column j of the complex
    (dim^2, k) table holds the entries coordinate j stands for, 1 or 1j at
    its entry and, in rho_{n,n}, the conjugate at the mirrored entry below
    the diagonal.  `entry` and `block` read through it.

    A (dissipator) and B (drive couplings) are real and held only as the
    cascade `levels`, levels[l] = Level(rows, a, b) with y[rows] level l.
    Column j is the derivative of the blocks coordinate j stands for:
    apply_total and the two drive commutators with L_in, the single
    definition of the physics, map a source block's table as a stack of
    operators (its adjoint for rho_{n,n-1}), and each image is read back
    through the target's table, at the entries on or above the diagonal.
    """

    def __init__(self, cfg: ChainConfig, n_ph: int):
        if not 1 <= n_ph <= MAX_PHOTONS:
            raise ValueError(f"photon number {n_ph} unsupported (must be 1..{MAX_PHOTONS})")
        reg = cfg.register
        dim = reg.dim

        exc = excitation_count(reg)
        grading = np.subtract.outer(exc, exc).ravel()  # exc(a) - exc(b) of |a><b|
        ket = np.repeat(exc, dim)  # exc(a) of |a><b|
        mirror = np.arange(dim * dim).reshape(dim, dim).T.ravel()  # |b><a| of |a><b|
        lower = mirror < np.arange(dim * dim)
        slots = {}  # (m, n) -> (slice of y, table), as in the class docstring
        starts = [0] * (2 * n_ph + 2)  # level l is y[starts[l]:starts[l + 1]]
        size = 0
        # the carried m <= n (rho_{n,m} is the adjoint of rho_{m,n}) by level m + n, then by m
        for m, n in sorted(((m, n) for m, n in block_order(n_ph) if m <= n), key=sum):
            below = lower & (m == n)  # Hermitian: the lower triangle is the adjoint
            re = np.flatnonzero((grading == m - n) & (ket <= m) & ~below)
            im = re[(m < n) | (re != mirror[re])]  # and the diagonal is real
            k = re.size + im.size
            table = np.zeros((dim * dim, k), dtype=complex)
            table[np.r_[re, im], np.arange(k)] = np.repeat([1, 1j], [re.size, im.size])
            table[below] = table[mirror[below]].conj()
            slots[(m, n)] = (slice(size, size + k), table)
            size += k
            starts[m + n + 1] = size
        self.n_ph, self.register, self.dim, self.size, self.slots = n_ph, reg, dim, size, slots
        self.levels = [
            Level(slice(lo, hi), np.zeros((hi - lo, hi - lo)), np.zeros((hi - lo, lo - below)))
            for below, lo, hi in zip([0] + starts[:-2], starts[:-1], starts[1:])
        ]

        def within(rows, l):  # rows of y as rows of level l
            return slice(rows.start - starts[l], rows.stop - starts[l])

        l_in = cfg.input_operator
        liou = partial(apply_total, cfg)  # each map takes a (..., dim, dim) stack
        up = partial(commutator, b=l_in.conj().T)  # times sqrt(m) g(t)
        dn = partial(commutator, l_in)  # times sqrt(n) g*(t)
        for (m, n), (rows, table) in slots.items():
            level = self.levels[m + n]
            at = (table != 0).argmax(0)  # each coordinate's entry on or above the diagonal
            terms = [(level.a, 1.0, liou, m, n)]
            if m >= 1:
                terms.append((level.b, math.sqrt(m), up, m - 1, n))
            if n >= 1:  # for m = n, rho_{n,n-1} is read as the adjoint of rho_{n-1,n}
                terms.append((level.b, math.sqrt(n), dn, m, n - 1))
            for mat, scale, op, p, q in terms:
                cols, source = slots[(min(p, q), max(p, q))]
                stack = (source if p <= q else source[mirror].conj()).T.reshape(-1, dim, dim)
                image = op(stack).reshape(-1, dim * dim)[:, at] * table[at, range(at.size)].conj()
                mat[within(rows, m + n), within(cols, p + q)] += scale * image.real.T

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
        return self.entry(y, m, n, *np.indices((self.dim, self.dim)))

    def entry(self, y: np.ndarray, m: int, n: int, a, b) -> np.ndarray:
        """Entries <a|rho_{m,n}|b> of a state vector y (..., size) at the
        integers or integer arrays or lists a and b, complex (..., *their
        broadcast shape).  An entry that is not carried reads 0; an m or n
        outside 0..n_ph, or an a or b outside [0, dim), raises IndexError."""
        if not (0 <= m <= self.n_ph and 0 <= n <= self.n_ph):
            raise IndexError(f"block index outside 0..{self.n_ph}: m = {m}, n = {n}")
        a, b = np.asarray(a), np.asarray(b)
        if np.any((a < 0) | (a >= self.dim) | (b < 0) | (b >= self.dim)):
            raise IndexError(f"basis index outside 0..{self.dim - 1}: a = {a}, b = {b}")
        if m > n:  # stored as the adjoint's entry
            return self.entry(y, n, m, b, a).conj()
        rows, table = self.slots[(m, n)]
        at, x = a * self.dim + b, y[..., rows]
        cols = np.ascontiguousarray(table[at.ravel()].T).view(np.float64)  # re, im side by side
        return (x @ cols).view(complex).reshape(x.shape[:-1] + at.shape)  # x read in place

    def derivative(self, g: float, y: np.ndarray) -> np.ndarray:
        """d/dt of the state vector y (size,) given the real drive amplitude g,
        level by level."""
        below = [slice(0, 0)] + [level.rows for level in self.levels]
        return np.concatenate([level.a @ y[level.rows] + g * (level.b @ y[rows])
                               for level, rows in zip(self.levels, below)])
