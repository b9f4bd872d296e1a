"""Gaussian temporal mode of the driving photon wavepacket.

All photons of the input occupy one and the same real-valued mode

    g(t) = sqrt(mu) (2 pi)^(-1/4) exp(-mu^2 (t - t_bar)^2 / 4),

normalized so that the integral of |g(t)|^2 over the real line is 1.
Times are in units of 1/Gamma, mu in units of Gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GaussianPulse", "amplitude"]


@dataclass(frozen=True)
class GaussianPulse:
    mu: float
    t_bar: float

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError(f"pulse width mu must be > 0, got {self.mu}")


def amplitude(pulse: GaussianPulse, t):
    """Mode amplitude g(t); real, so it equals its own conjugate."""
    s = np.asarray(t, dtype=float) - pulse.t_bar
    val = np.sqrt(pulse.mu) / (2.0 * np.pi) ** 0.25 * np.exp(-(pulse.mu ** 2) * s * s / 4.0)
    if np.isscalar(t) or getattr(t, "ndim", 0) == 0:
        return float(val)
    return val
