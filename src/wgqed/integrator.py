"""Exact level-cascade integration of the hierarchy ODE system.

The hierarchy state is a single real vector (the real coordinates of the
graded, in-budget entries of every carried block rho_{m,n}, m <= n, laid
out by HierarchyPropagator level by level).  Its equation y' = A y + g(t) B y
is compiled as its levels l = m + n (HierarchyPropagator.levels), each a
contiguous slice y_l of the vector: level l obeys
y_l' = A_l y_l + f_l(t), forced by f_l = g B_l y_{l-1} from the level
below, in float64 throughout.  Over one step h,

    y_l(t + h) = E y_l(t) + int_0^h e^{(h - s) A_l} f_l(t + s) ds,   E = e^{h A_l},

and the integral is taken over the Hermite cubic through f_l and f_l' at
both ends.  Both are known exactly on the grid from the level below,
f_l' = g' B_l y_{l-1} + g B_l (A_{l-1} y_{l-1} + f_{l-1}), with g' in
closed form, which makes the step fourth-order accurate (Hochbruck &
Ostermann, Acta Numerica 19, 209, 2010).  The quadrature is linear in
[f_l, f_l'], so it is folded onto u = [g y_{l-1}, g f_{l-1} + g' y_{l-1}]:
step k's forcing is q_k = u_k M_s + u_{k+1} M_e, M_s = [B^T h P_0 + (B A)^T
h^2 P_1 ; B^T h^2 P_1] from the weights P_0, P_1 of f, f' at the step's
start (M_e from the end weights Q_0, Q_1), and f_l = (g y_{l-1}) B^T.

Level 0, the vacuum block rho_{0,0}, is the one coordinate of |g><g|: it
is unforced and A_0 is exactly 0, so it stays exactly 1 and is never
stepped, and with f_0 = 0 level 1's u is [g, g'] itself.  Every other
level has its own step (_LevelStep), its E and quadrature weights from one
Taylor series of its A_l, valid while ||h A_l||_1 <= MAX_STEP_NORM.  The
grid is walked in chunks of c = _CHUNK steps; within a chunk levels 1,
..., 2 n_ph step in order, each reading the u formed in place, in the
memory of the level below, from what that level has just made of the same
chunk (the top level forms none), and every product runs over the chunk's
c steps at once.  Within a chunk the recurrence y_{k+1} = E y_k + q_k runs
in blocks of B = _BLOCK steps: one loop builds the in-block partial sums
r_b of every block at once, a doubling scan carries the block starts
x_{b+1} = E^B x_b + r_b in ceil(log2(c / B)) steps (Blelloch, "Prefix sums
and their applications", 1990), and one product with the powers of E fills
in the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hierarchy import HierarchyPropagator
from .liouvillian import ChainConfig
from .pulse import GaussianPulse, amplitude, amplitude_rate

__all__ = [
    "MAX_STEPS",
    "MAX_STEP_NORM",
    "IntegratorConfig",
    "IntegrationBlowUpError",
    "integrate",
    "StateTrajectory",
]

MAX_STEPS = 2_000_000  # largest t_end / dt accepted: 166x the shipped 12 000-step grid
MAX_STEP_NORM = 1.0    # largest ||h A_l||_1 the Taylor weights are summed for
_TAYLOR_TERMS = 20     # 1/20! < 1e-18: the series is converged below roundoff
_CHUNK = 1024          # steps per chunk: 256 costs more in per-level calls, 2048 in level buffers;
                       # also the records per block that the series and the CSV rows are read in
_BLOCK = 16            # steps per block within a chunk

# phi_k(z) = sum_i z^i / (i + k)!, and int_0^h e^{(h-s)A} s^j ds = h^(j+1) j! phi_(j+1): the
# coefficients of (h A)^i in E and in the Hermite cubic's weights of f(0), f'(0), f(h), f'(h)
# over h, h^2, h, h^2, as sums of _PHI[k, i] = 1 / (i + k)!
_PHI = np.array([[1.0 / math.factorial(i + k) for i in range(_TAYLOR_TERMS)] for k in range(5)])
_SERIES = np.array([[1, 0, 0, 0, 0], [0, 1, 0, -6, 12], [0, 0, 1, -4, 6],
                    [0, 0, 0, 6, -12], [0, 0, 0, -2, 6]]) @ _PHI


@dataclass(frozen=True)
class IntegratorConfig:
    """Step, horizon and record stride.  An invalid value raises ValueError
    whose message starts with the field's name (t_end for the step limit
    and for a horizon shorter than one step)."""

    dt: float = 1e-3
    t_end: float = 12.0
    record_stride: int = 10

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if not 0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be finite and > 0, got {self.t_end}")
        stride = self.record_stride  # a bool is an int, but not a stride
        if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
            raise ValueError(f"record_stride must be an integer >= 1, got {self.record_stride!r}")
        if not self.t_end / self.dt <= MAX_STEPS:
            raise ValueError(
                f"t_end / dt = {self.t_end / self.dt:.6g} steps exceeds the limit of {MAX_STEPS}"
            )
        if self.n_steps < 1:
            raise ValueError(f"t_end = {self.t_end:g} is shorter than one step dt = {self.dt:g}")

    @property
    def n_steps(self) -> int:
        """Steps on the grid k * dt, 0 <= k * dt <= t_end."""
        ratio = self.t_end / self.dt
        nearest = round(ratio)
        if abs(ratio - nearest) < 1e-9 and nearest > 0:
            return int(nearest)  # grid lands on t_end exactly
        return int(np.floor(ratio))  # never step past t_end


class IntegrationBlowUpError(RuntimeError):
    """The integration cannot go on; carries the time it stopped at."""

    def __init__(self, time: float, reason: str = "non-finite state"):
        self.time = time
        self.reason = reason
        super().__init__(f"integration blew up ({reason}) at t = {time:g}")

    def __reduce__(self):  # rebuild from the arguments, not from the formatted message
        return type(self), (self.time, self.reason)


class _LevelStep:
    """Exact chunk steps of y_l' = A_l y_l + f_l(t), f_l Hermite-interpolated, for one
    level l >= 1, forced from level l - 1.

    A chunk is held in row form, a step's state being a row and operators acting
    from the right: [y; f] of shape (2, c + 1, p).  The step reads the forcing
    u = [g y, g f + g' y] of the level below, (2, c + 1, p_{l-1}), which integrate
    forms, and writes q = u_s^T M_s^T + u_e^T M_e^T (fold holds the four halves of
    M_s^T and M_e^T) as c rows into the memory of y; f_l = (g y_{l-1}) B_l^T (bt) is
    left to integrate.  With e_fill = [E^T, ..., (E^B)^T] and the block-end partial
    sums r_k, the block starts x_{k+1} = F x_k + r_k, F = E^B, come from a doubling
    scan: v_0 = F x_0 + r_0 and v_k = r_k, then v_k += F^d v_{k-d} for k >= d,
    d = 1, 2, 4, ... < c / B (scan holds (F^d)^T), leaves v_k = x_{k+1}.  The fill
    product goes into the memory of f, which the step leaves spent."""

    def __init__(self, levels: list, l: int, h: float, c: int):
        below, level, p = levels[l - 1], levels[l], len(levels[l].a)
        norm = h * np.abs(level.a).sum(axis=0).max()  # ||h A_l||_1
        if norm > MAX_STEP_NORM:
            raise IntegrationBlowUpError(0.0, (
                f"step dt = {h:g} is outside the integrator's range: ||dt A|| = {norm:.3g} "
                f"on level {l}, limit {MAX_STEP_NORM:g}"))
        z = h * level.a
        powers = [np.eye(p)]
        for _ in range(1, _TAYLOR_TERMS):
            powers.append(powers[-1] @ z)
        e, p0, p1, q0, q1 = np.tensordot(_SERIES, powers, 1).swapaxes(1, 2)  # rows are states
        self.bt, bat = level.b.T, (level.b @ below.a).T
        w0, w1 = h * np.stack([p0, q0]), h * h * np.stack([p1, q1])  # of f, f' at t and t + h
        # M_s^T, M_e^T: those weights pulled back onto u = [g y, g f + g' y] of the level below
        fold = np.stack([self.bt @ w0 + bat @ w1, self.bt @ w1], axis=1)  # (start/end, half)
        self.fold = fold.reshape(4, -1, p)
        fill = self.e_fill = np.empty((p, _BLOCK * p))  # [E, E^2, ..., E^B], transposed
        fill[:, :p] = e
        for j in range(p, _BLOCK * p, p):
            np.matmul(fill[:, j - p:j], e, out=fill[:, j:j + p])
        nb = c // _BLOCK  # (F^d)^T for the scan's steps d = 1, 2, 4, ... < nb; F^T also folds in x_0
        scan = self.scan = np.empty((max(1, (nb - 1).bit_length()), p, p))
        scan[0] = fill[:, -p:]
        for j in range(1, len(scan)):
            np.matmul(scan[j - 1], scan[j - 1], out=scan[j])

    def run(self, u: np.ndarray, own: np.ndarray) -> None:
        """Step one chunk in place.  own = [y_l; f_l], (2, c + 1, p), starts from
        y_l = own[0, 0], the rest being scratch; u, the forcing of the level below
        on the same chunk, is only read."""
        y, f = own
        c, p = len(y) - 1, y.shape[1]
        q = np.matmul(u[0, :-1], self.fold[0], out=y[1:])
        for part, m in zip((u[1, :-1], u[0, 1:], u[1, 1:]), self.fold[1:]):
            q += np.matmul(part, m, out=f[1:])
        q = q.reshape(-1, _BLOCK, p)
        for j in range(1, _BLOCK):  # in-block partial sums of every block, started from 0
            q[:, j] += q[:, j - 1] @ self.e_fill[:, :p]
        starts = np.empty((len(q) + 1, p))
        starts[0], starts[1:] = y[0], q[:, -1]  # block starts: v_0 = F x_0 + r_0, v_k = r_k
        starts[1] += starts[0] @ self.scan[0]
        for j in range((len(q) - 1).bit_length()):  # v_k += F^d v_{k-d}, d = 2^j
            d = 1 << j
            starts[1 + d:] += starts[1:-d] @ self.scan[j]
        fill = np.matmul(starts[:-1], self.e_fill, out=f[1:].reshape(len(q), -1))  # f is spent
        y[1:] += fill.reshape(c, p)
        y[::_BLOCK] = starts  # the block starts, as carried


@dataclass
class StateTrajectory:
    """Recorded hierarchy snapshots.

    blocks[i] is the real state vector at times[i], shape (n_rec,
    propagator.size), float64: the coordinates of the graded, in-budget
    entries of every carried block rho_{m,n}, m <= n, laid out by the
    propagator that produced them.  block(m, n) rebuilds one complex block,
    for m > n as the adjoint of block (n, m); a diagonal block comes out
    exactly Hermitian.
    """

    times: np.ndarray          # (n_rec,)
    blocks: np.ndarray         # (n_rec, propagator.size)
    propagator: HierarchyPropagator

    @property
    def n_ph(self) -> int:
        return self.propagator.n_ph

    @property
    def register(self):
        return self.propagator.register

    def block(self, m: int, n: int) -> np.ndarray:
        """Series of block rho_{m,n}, shape (n_rec, dim, dim)."""
        return self.propagator.block(self.blocks, m, n)

    def physical(self) -> np.ndarray:
        """Series of physical density matrices rho_{n_ph,n_ph}, shape (n_rec, dim, dim)."""
        return self.block(self.n_ph, self.n_ph)


def integrate(
    chain: ChainConfig,
    pulse: GaussianPulse,
    n_ph: int,
    icfg: IntegratorConfig,
) -> StateTrajectory:
    """Propagate the all-ground hierarchy under an n_ph-photon drive on the
    grid k * dt, recording step 0, every record_stride-th step and the last.

    Raises IntegrationBlowUpError at t = 0 when dt is outside the range of
    the level steps, and at the first record whose state is not finite.
    """
    prop = HierarchyPropagator(chain, n_ph)
    h, n_steps, levels, ground = icfg.dt, icfg.n_steps, prop.levels, prop.ground()
    c = min(_CHUNK, -(-n_steps // _BLOCK) * _BLOCK)  # the last chunk runs past t_end
    n_chunks = -(-n_steps // c)
    steps = [_LevelStep(levels, l, h, c) for l in range(1, len(levels))]
    recorded = np.append(np.arange(0, n_steps, icfg.record_stride), n_steps)  # step numbers
    bounds = np.searchsorted(recorded, np.arange(n_chunks + 1) * c, side="right")  # per chunk
    snaps = np.tile(ground, (len(recorded), 1))  # level 0 stays at the start
    p = max(len(level.a) for level in levels)
    # [y_l; f_l] on the current chunk: level l in memory[l % 2], so level l - 1's u is intact
    memory = np.empty((2, 2 * (c + 1) * p))
    carried = [ground[level.rows] for level in levels]  # each level's state at the chunk start

    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_chunks):
            t = np.arange(i * c, (i + 1) * c + 1) * h  # the chunk's grid, both ends
            u = np.stack([amplitude(pulse, t), amplitude_rate(pulse, t)])[..., None]  # level 1's u
            g, dg = u
            rec = slice(bounds[i], bounds[i + 1])
            for l, step in enumerate(steps, 1):
                own = memory[l % 2, :2 * (c + 1) * len(levels[l].a)].reshape(2, c + 1, -1)
                own[0, 0] = carried[l]
                step.run(u, own)
                y, f = own
                carried[l] = y[-1].copy()  # y is scaled next, and level l + 2 overwrites it
                snaps[rec, levels[l].rows] = y[recorded[rec] - i * c]
                if l < len(steps):  # level l + 1's u = [g y, g f + g' y]; u's buffer is spent
                    np.matmul(u[0], step.bt, out=f)  # f_l = g B_l y_{l-1}
                    f *= g
                    f += np.multiply(y, dg, out=memory[1 - l % 2, :y.size].reshape(y.shape))
                    y *= g
                u = own
            finite = np.isfinite(snaps[rec]).all(axis=1)
            if not finite.all():
                raise IntegrationBlowUpError(float(recorded[rec][np.argmin(finite)] * h))
    return StateTrajectory(recorded * h, snaps, prop)
