"""Exact level-cascade integration of the hierarchy ODE system.

The hierarchy state is a single real vector (the real coordinates of the
excitation-sector entries of every carried block rho_{m,n}, m <= n, laid
out by HierarchyPropagator).  Its equation y' = A y + g(t) B y splits into
levels l = m + n (HierarchyPropagator.levels): level l obeys
y_l' = A_l y_l + f_l(t), forced by f_l = g B_l y_{l-1} from the level
below, so the levels are solved in order, in float64 throughout.  Over one
step h,

    y_l(t + h) = E y_l(t) + int_0^h e^{(h - s) A_l} f_l(t + s) ds,   E = e^{h A_l},

and the integral is taken over the Hermite cubic through f_l and f_l' at
both ends.  Both are known exactly on the grid from the level below,
f_l' = g' B_l y_{l-1} + g B_l (A_{l-1} y_{l-1} + f_{l-1}), with g' in
closed form, which makes the step fourth-order accurate (Hochbruck &
Ostermann, Acta Numerica 19, 209, 2010).  E and the quadrature weights
come from one Taylor series per level, valid while ||h A_l||_1 <= MAX_STEP_NORM.

The grid is walked in chunks of _CHUNK steps, all levels per chunk, so no
array spans the whole grid except the recorded snapshots.  Within a chunk
the recurrence y_{k+1} = E y_k + q_k runs in blocks of _BLOCK steps: one
loop builds the in-block partial sums of every block at once, one loop
carries the block starts, and one product with the powers of E fills in
the grid.
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
_CHUNK = 256           # steps per chunk: the work arrays stay below a megabyte per level
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
        super().__init__(f"integration blew up ({reason}) at t = {time:g}")


class _LevelStep:
    """Exact steps of y' = A y + f(t) on one level, with f Hermite-interpolated;
    A, f and y are real."""

    def __init__(self, a: np.ndarray, h: float):
        n = len(a)
        z = h * a
        powers = np.empty((_TAYLOR_TERMS, n, n))
        powers[0] = np.eye(n)
        for i in range(1, _TAYLOR_TERMS):
            powers[i] = powers[i - 1] @ z
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
        e, p0, p1, q0, q1 = np.tensordot(coef, powers, 1)
        # row-vector form: states are rows, so every matrix acts from the right
        self.from_start = np.concatenate([h * p0.T, h * h * p1.T])  # on [f, f'] at t
        self.from_end = np.concatenate([h * q0.T, h * h * q1.T])    # on [f, f'] at t + h
        e_pow = np.empty((_BLOCK + 1, n, n))
        e_pow[0] = np.eye(n)
        for j in range(1, _BLOCK + 1):
            e_pow[j] = e_pow[j - 1] @ e
        self.e_t = e.T
        self.e_block_t = e_pow[_BLOCK].T.copy()
        self.e_fill_t = np.concatenate(list(e_pow[:_BLOCK].transpose(0, 2, 1)), axis=1)  # (n, B n)

    def run(self, y0: np.ndarray, f: np.ndarray, df: np.ndarray) -> np.ndarray:
        """States on the grid points of f, f' (c + 1 rows), starting from y0."""
        c, n = len(f) - 1, len(y0)
        forcing = np.concatenate([f, df], axis=1)
        n_blocks = -(-c // _BLOCK)
        q = np.zeros((n_blocks * _BLOCK, n))
        q[:c] = forcing[:-1] @ self.from_start + forcing[1:] @ self.from_end
        q = q.reshape(n_blocks, _BLOCK, n)
        partial = np.zeros((n_blocks, _BLOCK + 1, n))  # blocks started from 0
        for j in range(_BLOCK):
            partial[:, j + 1] = partial[:, j] @ self.e_t + q[:, j]
        starts = np.empty((n_blocks + 1, n))
        starts[0] = y0
        for b in range(n_blocks):
            starts[b + 1] = starts[b] @ self.e_block_t + partial[b, _BLOCK]
        grid = (starts[:-1] @ self.e_fill_t).reshape(n_blocks, _BLOCK, n) + partial[:, :_BLOCK]
        return np.concatenate([grid.reshape(-1, n), starts[-1:]])[: c + 1]


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
    the level steps, and at the first record whose state is not finite.
    """
    prop = HierarchyPropagator(chain, n_ph)
    h = icfg.dt
    levels = prop.levels()
    for l, level in enumerate(levels):
        norm = h * np.abs(level.a).sum(axis=0).max()
        if norm > MAX_STEP_NORM:
            raise IntegrationBlowUpError(0.0, (
                f"step dt = {h:g} is outside the integrator's range: ||dt A|| = {norm:.3g} "
                f"on level {l}, limit {MAX_STEP_NORM:g}"
            ))
    steppers = [_LevelStep(level.a, h) for level in levels]

    n_steps = icfg.n_steps
    recorded = np.append(np.arange(0, n_steps, icfg.record_stride), n_steps)  # step numbers
    times = recorded * h
    snaps = np.empty((len(recorded), prop.size))
    snaps[0] = prop.ground()
    y = [snaps[0, level.rows] for level in levels]

    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, n_steps, _CHUNK):
            k1 = min(k0 + _CHUNK, n_steps)
            t = np.arange(k0, k1 + 1) * h
            g = amplitude(pulse, t)[:, None]
            dg = amplitude_rate(pulse, t)[:, None]
            lo, hi = np.searchsorted(recorded, [k0, k1], side="right")
            # level -1: nothing, so level 0 is unforced
            below = below_f = np.zeros((len(t), 0))
            below_a = np.zeros((0, 0))
            for l, (level, stepper) in enumerate(zip(levels, steppers)):
                drive = below @ level.b.T
                f = g * drive
                df = dg * drive + g * ((below @ below_a.T + below_f) @ level.b.T)
                ys = stepper.run(y[l], f, df)
                y[l] = ys[-1]
                snaps[lo:hi, level.rows] = ys[recorded[lo:hi] - k0]
                below, below_f, below_a = ys, f, level.a
            finite = np.isfinite(snaps[lo:hi]).all(axis=1)
            if not finite.all():
                raise IntegrationBlowUpError(float(times[lo + np.argmin(finite)]))
    return StateTrajectory(times, snaps, prop)
