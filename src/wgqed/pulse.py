"""Gaussian temporal mode of the driving photon wavepacket.

All photons of the input occupy one and the same real-valued mode

    g(t) = sqrt(mu) (2 pi)^(-1/4) exp(-mu^2 (t - t_bar)^2 / 4),

normalized so that the integral of |g(t)|^2 over the real line is 1.
Times are in units of 1/Gamma, mu in units of Gamma.  The defaults,
mu = 1.46 and t_bar = 5.0, are the scenario keys' `pulse.mu` and
`pulse.t_bar`; a refused value raises ValueError whose message starts
with the field's name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["GaussianPulse", "amplitude", "amplitude_rate"]


@dataclass(frozen=True)
class GaussianPulse:
    mu: float = 1.46
    t_bar: float = 5.0

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be finite and > 0, got {self.mu}")
        if not math.isfinite(self.t_bar):
            raise ValueError(f"t_bar must be finite, got {self.t_bar}")


def amplitude(pulse: GaussianPulse, t):
    """Mode amplitude g(t); real, so it equals its own conjugate.  A float for
    a scalar t (0-d arrays included), an array for a list, tuple or array."""
    s = np.asarray(t, dtype=float) - pulse.t_bar
    val = np.sqrt(pulse.mu) / (2.0 * np.pi) ** 0.25 * np.exp(-(pulse.mu ** 2) * s * s / 4.0)
    return float(val) if np.ndim(t) == 0 else val


def amplitude_rate(pulse: GaussianPulse, t):
    """Time derivative g'(t) = -(mu^2 / 2) (t - t_bar) g(t), in closed form;
    returned as amplitude returns g."""
    s = np.asarray(t, dtype=float) - pulse.t_bar
    rate = -0.5 * pulse.mu ** 2 * s * amplitude(pulse, t)
    return float(rate) if np.ndim(t) == 0 else rate
