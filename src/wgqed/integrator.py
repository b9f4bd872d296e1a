"""Fixed-step classical RK4 integration of the hierarchy ODE system.

The hierarchy state is a single complex vector (the excitation-sector
entries of every block, laid out by HierarchyPropagator; a complex128 entry
is its real and imaginary part side by side in memory).  RK4 stages are linear
combinations, so integrating the complex vector directly is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hierarchy import HierarchyPropagator
from .liouvillian import ChainConfig
from .pulse import GaussianPulse, amplitude

__all__ = [
    "IntegratorConfig",
    "IntegrationBlowUpError",
    "rk4_solve",
    "integrate",
    "StateTrajectory",
]


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 1e-3
    t_end: float = 12.0
    record_stride: int = 10

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not self.t_end > 0:
            raise ValueError(f"t_end must be > 0, got {self.t_end}")
        if self.record_stride < 1:
            raise ValueError(f"record_stride must be >= 1, got {self.record_stride}")


class IntegrationBlowUpError(RuntimeError):
    """Non-finite values appeared in the state; carries the time of blow-up."""

    def __init__(self, time: float):
        self.time = time
        super().__init__(f"integration blew up (non-finite state) at t = {time:g}")


def _step_count(dt: float, t_end: float) -> int:
    ratio = t_end / dt
    nearest = round(ratio)
    if abs(ratio - nearest) < 1e-9 and nearest > 0:
        return int(nearest)  # grid lands on t_end exactly
    return int(np.floor(ratio))  # never step past t_end


def rk4_solve(f, y0: np.ndarray, icfg: IntegratorConfig):
    """Integrate dy/dt = f(t, y) from t = 0; returns (times, snapshots).

    Snapshots are taken at step 0, every record_stride-th step, and the
    final step.  Raises IntegrationBlowUpError when a recorded state stops
    being finite.
    """
    dt = icfg.dt
    n_steps = _step_count(dt, icfg.t_end)
    stride = icfg.record_stride

    y = np.array(y0, dtype=complex, copy=True)
    times = [0.0]
    snaps = [y.copy()]
    half = dt / 2.0
    sixth = dt / 6.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            t = k * dt
            k1 = f(t, y)
            k2 = f(t + half, y + half * k1)
            k3 = f(t + half, y + half * k2)
            k4 = f(t + dt, y + dt * k3)
            y += sixth * (k1 + 2.0 * (k2 + k3) + k4)
            if (k + 1) % stride == 0 or k + 1 == n_steps:
                t_now = (k + 1) * dt
                if not np.all(np.isfinite(y.view(np.float64))):
                    raise IntegrationBlowUpError(t_now)
                times.append(t_now)
                snaps.append(y.copy())
    return np.array(times), np.array(snaps)


@dataclass
class StateTrajectory:
    """Recorded hierarchy snapshots.

    blocks[i] is the sector vector at times[i], shape (n_rec, propagator.size):
    the excitation-sector entries of every block rho_{m,n}, laid out by the
    propagator that produced them.  block(m, n) scatters one block back out.
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
    fixed RK4 grid, recording snapshots."""
    prop = HierarchyPropagator(chain, n_ph)

    def f(t, y):
        return prop.derivative(amplitude(pulse, t), y)

    times, snaps = rk4_solve(f, prop.ground(), icfg)
    return StateTrajectory(times, snaps, prop)
