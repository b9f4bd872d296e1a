"""Exact level-cascade integration of the hierarchy ODE system.

The hierarchy state is a single real vector (the real coordinates of the
excitation-sector entries of every carried block rho_{m,n}, m <= n, laid
out by HierarchyPropagator).  Its equation y' = A y + g(t) B y splits into
levels l = m + n (HierarchyPropagator.levels): level l obeys
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

Level 0, the vacuum block rho_{0,0}, is unforced and A_0 maps the
all-ground start to zero, so it is held, never stepped, and forces level 1
as a constant.  The other levels are zero-padded to the largest and
stacked; E and the quadrature weights come from one Taylor series over the
stack, valid while ||h A_l||_1 <= MAX_STEP_NORM.  The grid is walked in
chunks of _CHUNK steps as a wavefront: at iteration i level l steps chunk
i + 1 - l, forced by what level l - 1 made of it at iteration i - 1, so one
call steps every active level, n_chunks + 2 n_ph - 1 calls in all.  A
level's chunk is stored as [y_l; f_l], (2 p, c + 1), with the grid as the
contiguous axis: u is formed in rows of c + 1 reals and every product runs
over the chunk's c steps at once.  Within a chunk the recurrence
y_{k+1} = E y_k + q_k runs in blocks of B = _BLOCK steps: one loop builds
the in-block partial sums r_b of every block at once, a doubling scan
carries the block starts x_{b+1} = E^B x_b + r_b in ceil(log2(c / B))
steps (Blelloch, "Prefix sums and their applications", 1990), and one
product with the powers of E fills in the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
_CHUNK = 256           # steps per chunk: the stacked work arrays stay below a megabyte
_BLOCK = 16            # steps per block within a chunk, sqrt(_CHUNK)


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
        if self.record_stride < 1:
            raise ValueError(f"record_stride must be >= 1, got {self.record_stride}")
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


class _StackedStep:
    """Exact chunk steps of y_l' = A_l y_l + f_l(t), f_l Hermite-interpolated, for
    levels l >= 1 in one call: zero-padded to p coordinates and stacked, operator
    l - 1 for level l.  Padded rows and columns of every operator are exactly 0,
    so padded coordinates stay 0.

    A chunk is stored with the grid as the contiguous axis, w[l] = [y_l; f_l] of
    shape (2 p, c + 1), so u = [g y, g f + g' y] of the level below is formed in
    rows of c + 1 and f_l = B_l (g y_{l-1}) is one (p, p) @ (p, c + 1) product
    (b).  The forcing q_k = M_s u_k + M_e u_{k+1} and the recurrence run in row
    form, a step's state being a row and operators acting from the right:
    q = u_s^T M_s^T + u_e^T M_e^T (from_start, from_end) is written as c rows of
    p into the memory of y_l, and e_fill = [E^T, ..., (E^B)^T].  With the
    block-end partial sums r_k, the block starts x_{k+1} = F x_k + r_k, F = E^B,
    come from a doubling scan: v_0 = F x_0 + r_0 and v_k = r_k, then
    v_k += F^d v_{k-d} for k >= d, d = 1, 2, 4, ... < c / B (scan holds
    (F^d)^T), leaves v_k = x_{k+1}.  The fill product goes into _work, where
    u is spent, and is copied back into the columns of y_l."""

    def __init__(self, levels: list, h: float, c: int):
        n, p = len(levels) - 1, max(len(level.rows) for level in levels)
        a, b, eye = np.zeros((3, n + 1, p, p))
        for l, level in enumerate(levels):
            k, j = level.b.shape
            a[l, :k, :k], b[l, :k, :j], eye[l, range(k), range(k)] = level.a, level.b, 1.0
        norm = h * np.abs(a).sum(axis=1).max(axis=1)  # ||h A_l||_1 per level
        if norm.max() > MAX_STEP_NORM:
            l = int(np.argmax(norm > MAX_STEP_NORM))
            raise IntegrationBlowUpError(0.0, (
                f"step dt = {h:g} is outside the integrator's range: ||dt A|| = {norm[l]:.3g} "
                f"on level {l}, limit {MAX_STEP_NORM:g}"))
        # phi_k(z) = sum_i z^i / (i + k)!, and int_0^h e^{(h-s)A} s^j ds = h^(j+1) j! phi_(j+1)
        inv = np.array([1.0 / math.factorial(i) for i in range(_TAYLOR_TERMS + 4)])
        k = _TAYLOR_TERMS
        coef = np.array([
            inv[:k],                                           # E
            # the Hermite cubic's integral: weights of f(0), f'(0), f(h), f'(h) over h, h^2, h, h^2
            inv[1:k + 1] - 6 * inv[3:k + 3] + 12 * inv[4:k + 4],
            inv[2:k + 2] - 4 * inv[3:k + 3] + 6 * inv[4:k + 4],
            6 * inv[3:k + 3] - 12 * inv[4:k + 4],
            -2 * inv[3:k + 3] + 6 * inv[4:k + 4],
        ])
        z = h * a[1:]
        powers = np.empty((k, n, p, p))
        powers[0] = eye[1:]
        for i in range(1, k):
            powers[i] = powers[i - 1] @ z
        # one (5, k) by (k, p^2) product per level: no level's sums depend on the stack
        series = (coef @ powers.reshape(k, n, p * p).swapaxes(0, 1)).reshape(n, 5, p, p)
        del powers  # the largest set-up array: free it before the work buffers
        e, p0, p1, q0, q1 = series.swapaxes(0, 1).swapaxes(-1, -2)
        bt, bat = b[1:].swapaxes(-1, -2), (b[1:] @ a[:-1]).swapaxes(-1, -2)
        w0, w1 = h * np.stack([p0, q0]), h * h * np.stack([p1, q1])  # of f, f' at t and t + h
        # M_s^T, M_e^T: those weights pulled back onto u = [g y, g f + g' y] of the level below
        self.from_start, self.from_end = np.concatenate([bt @ w0 + bat @ w1, bt @ w1], axis=2)
        self.b = b[1:]
        fill = self.e_fill = np.empty((n, p, _BLOCK * p))  # [E, E^2, ..., E^B]
        fill[..., :p] = e
        for j in range(p, _BLOCK * p, p):
            np.matmul(e, fill[..., j - p:j], out=fill[..., j:j + p])
        nb = c // _BLOCK  # (F^d)^T for the scan's steps d = 1, 2, 4, ... < nb; F^T also folds in x_0
        scan = self.scan = np.empty((max(1, (nb - 1).bit_length()), n, p, p))
        scan[0] = fill[..., -p:]
        for j in range(1, len(scan)):
            np.matmul(scan[j - 1], scan[j - 1], out=scan[j])
        self.p, self.c = p, c
        self._work = np.empty(n * (c + 1) * 2 * p)
        self._starts = np.empty((n, nb + 1, p))

    def run(self, w: np.ndarray, lo: int, hi: int, g: np.ndarray, dg: np.ndarray) -> None:
        """Step levels lo..hi of w by one chunk each, in place.  w[l] is [y_l; f_l]
        on level l's last chunk, (2 p, c + 1): level l starts from w[l, :p, -1] and
        is forced by w[l - 1].  g and dg, (hi - lo + 1, c + 1), are the drive and
        its rate on each level's chunk."""
        s, p, c, n = slice(lo - 1, hi), self.p, self.c, hi - lo + 1
        starts, work = self._starts[:n], self._work[:n * (c + 1) * 2 * p]
        starts[:, 0] = w[lo:hi + 1, :p, -1]
        u, below, g, dg = work.reshape(n, 2 * p, c + 1), w[lo - 1:hi], g[:, None], dg[:, None]
        np.multiply(below[:, :p], dg, out=u[:, p:])
        np.multiply(below[:, p:], g, out=u[:, :p])
        u[:, p:] += u[:, :p]
        np.multiply(below[:, :p], g, out=u[:, :p])  # u = [g y, g f + g' y] below; w is read
        own = w[lo:hi + 1]
        rows = own.reshape(n, 2, -1)[..., :c * p].reshape(n, 2, c, p)  # y_l's, f_l's memory
        u_t = u.swapaxes(1, 2)
        q = np.matmul(u_t[:, :-1], self.from_start[s], out=rows[:, 0])
        q += np.matmul(u_t[:, 1:], self.from_end[s], out=rows[:, 1])
        np.matmul(self.b[s], u[:, :p], out=own[:, p:])  # f_l = g B_l y_{l-1}
        q = q.reshape(n, -1, _BLOCK, p)
        for j in range(1, _BLOCK):  # in-block partial sums of every block, started from 0
            q[:, :, j] += q[:, :, j - 1] @ self.e_fill[s, :, :p]
        starts[:, 1:] = q[:, :, -1]  # block starts: v_0 = F x_0 + r_0, v_k = r_k
        starts[:, 1] += (starts[:, 0, None] @ self.scan[0, s])[:, 0]
        for j in range((c // _BLOCK - 1).bit_length()):  # v_k += F^d v_{k-d}, d = 2^j
            d = 1 << j
            starts[:, 1 + d:] += starts[:, 1:-d] @ self.scan[j, s]
        fill = work[:n * c * p].reshape(n, -1, _BLOCK * p)  # u is spent
        np.matmul(starts[:, :-1], self.e_fill[s], out=fill)
        fill += q.reshape(fill.shape)
        own[:, :p, 1:] = fill.reshape(n, c, p).swapaxes(1, 2)
        own[:, :p, ::_BLOCK] = starts.swapaxes(1, 2)  # the block starts, as carried


@dataclass
class StateTrajectory:
    """Recorded hierarchy snapshots.

    blocks[i] is the real state vector at times[i], shape (n_rec,
    propagator.size), float64: the coordinates of the excitation-sector
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
    the level steps, and at the first record whose state is not finite;
    RuntimeError if A_0 would move the held vacuum level off the start.
    """
    prop = HierarchyPropagator(chain, n_ph)
    h = icfg.dt
    levels = prop.levels()
    ground = prop.ground()
    if np.any(levels[0].a @ ground[levels[0].rows]):
        raise RuntimeError("level 0 moves off the all-ground state, so it cannot be held")

    n_steps, top = icfg.n_steps, 2 * n_ph
    c = min(_CHUNK, -(-n_steps // _BLOCK) * _BLOCK)  # the last chunk runs past t_end
    n_chunks = -(-n_steps // c)
    stepper = _StackedStep(levels, h, c)
    recorded = np.append(np.arange(0, n_steps, icfg.record_stride), n_steps)  # step numbers
    times = recorded * h
    bounds = np.searchsorted(recorded, np.arange(n_chunks + 1) * c, side="right")  # per chunk
    snaps = np.tile(ground, (len(recorded), 1))  # level 0 is held at the start
    w = np.zeros((len(levels), 2 * stepper.p, c + 1))  # [y_l; f_l] on level l's last chunk
    for level, wl in zip(levels, w):
        wl[:len(level.rows)] = ground[level.rows, None]

    with np.errstate(over="ignore", invalid="ignore"):
        t = np.arange(n_chunks * c + 1) * h
        g = sliding_window_view(amplitude(pulse, t), c + 1)[::c]  # (n_chunks, c + 1)
        dg = sliding_window_view(amplitude_rate(pulse, t), c + 1)[::c]
        for i in range(n_chunks + top - 1):  # level l steps chunk i + 1 - l
            lo, hi = max(1, i + 2 - n_chunks), min(top, i + 1)
            chunks = i + 1 - np.arange(lo, hi + 1)
            stepper.run(w, lo, hi, g[chunks], dg[chunks])
            for l, j in zip(range(lo, hi + 1), chunks):
                rec = slice(bounds[j], bounds[j + 1])
                snaps[rec, levels[l].rows] = w[l, :len(levels[l].rows), recorded[rec] - j * c]
            if hi == top:  # chunk i + 1 - top is now done on every level
                rec = slice(bounds[i + 1 - top], bounds[i + 2 - top])
                finite = np.isfinite(snaps[rec]).all(axis=1)
                if not finite.all():
                    raise IntegrationBlowUpError(float(times[rec.start + np.argmin(finite)]))
    return StateTrajectory(times, snaps, prop)
