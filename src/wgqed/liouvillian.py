"""Time-independent dissipator for the emitter chain.

Every waveguide coupling of the chain sits in one n x n complex matrix D
(`coupling_matrix`), the cascaded coupling of Gardiner (PRL 70, 2269,
1993) run in both directions:

    D_ii = (Gamma_ir + Gamma_il) / 2,
    D_ij = K_ij e^{i phi_ij}                      (i != j),
    K_ij = sqrt(Gamma_ir Gamma_jr) for i > j (right-movers feed forward),
           sqrt(Gamma_il Gamma_jl) for i < j (left-movers feed backward),
    phi_ij = 2 pi d_ratio |i - j|.

The total Liouvillian is the collective master equation of Pichler et al.
(PRA 91, 042116, 2015) built from D alone:

    L[X] = -i (H X - X H^dag) + sum_ij J_ij s_j X sd_i,     J = D + D^dag,
    H = sum_i (Delta_i - i gamma_i / 2) sd_i s_i - i sum_ij D_ij sd_i s_j.

The spontaneous (non-waveguide) rate gamma is the excited-population
decay rate; it sits inside H with no recycling term, so it leaks total
population.  The waveguide part of H loses exactly the trace that the
jump term with J = D + D^dag feeds back, so with gamma = 0 the map is
trace-annihilating on any input; J is hermitian, so the map preserves
hermiticity.

The propagation phase phi_ij is the one a photon picks up travelling the
distance |i - j| L between the pair, so it enters with the same sign for
both directions; the collective decay rates of a symmetric pair then show
the standing-wave pattern (Gamma_r + Gamma_l)(1 +/- cos phi).  A
direction-signed phase exp(i phi (i - j)) would instead be a gauge
transform of d_ratio = 0 and lose that interference.

All rates are in units of Gamma (== Gamma_l of the reference emitter),
times in 1/Gamma.  apply_total also takes a (..., dim, dim) stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qubit_algebra import EmitterRegister, lowering_op

__all__ = [
    "EmitterParams",
    "ChainConfig",
    "coupling_matrix",
    "apply_total",
]


@dataclass(frozen=True)
class EmitterParams:
    """Physical parameters of a single emitter (rates in Gamma, detuning = w_eg - w_p)."""

    gamma_r: float = 1.0
    gamma_l: float = 1.0
    gamma_spont: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        for name in ("gamma_r", "gamma_l", "gamma_spont"):
            v = getattr(self, name)
            if v < 0 or not math.isfinite(v):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")


@dataclass(frozen=True)
class ChainConfig:
    """Per-emitter parameters plus chain-level geometry.

    d_ratio is the inter-emitter spacing over the resonant wavelength;
    k0d holds the per-emitter driving phases k0*d_j in radians (all zero
    by default — emitters co-located on the drive).
    """

    emitters: tuple
    d_ratio: float = 0.0
    k0d: tuple = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not self.emitters:
            raise ValueError("chain needs at least one emitter")
        object.__setattr__(self, "emitters", tuple(self.emitters))
        if self.k0d is None:
            object.__setattr__(self, "k0d", (0.0,) * len(self.emitters))
        else:
            object.__setattr__(self, "k0d", tuple(float(p) for p in self.k0d))
        if len(self.k0d) != len(self.emitters):
            raise ValueError(
                f"k0d has {len(self.k0d)} entries for {len(self.emitters)} emitters"
            )
        if not all(math.isfinite(p) for p in self.k0d) or not math.isfinite(self.d_ratio):
            raise ValueError("phases must be finite")

    @property
    def n_emitters(self) -> int:
        return len(self.emitters)

    @property
    def register(self) -> EmitterRegister:
        return EmitterRegister(self.n_emitters)


def coupling_matrix(cfg: ChainConfig) -> np.ndarray:
    """The chain's n x n waveguide coupling matrix D (module docstring)."""
    g_r = np.array([em.gamma_r for em in cfg.emitters])
    g_l = np.array([em.gamma_l for em in cfg.emitters])
    sep = np.subtract.outer(np.arange(cfg.n_emitters), np.arange(cfg.n_emitters))  # i - j
    k = np.where(sep > 0, np.sqrt(np.outer(g_r, g_r)), np.sqrt(np.outer(g_l, g_l)))
    d = k * np.exp(2j * np.pi * cfg.d_ratio * np.abs(sep))
    np.fill_diagonal(d, 0.5 * (g_r + g_l))
    return d


def apply_total(cfg: ChainConfig, rho: np.ndarray) -> np.ndarray:
    """L[rho] of one operator, or of each matrix of a (..., dim, dim) stack."""
    reg = cfg.register
    if rho.shape[-2:] != (reg.dim, reg.dim):
        raise ValueError(f"operator has shape {rho.shape}, chain dimension is {reg.dim}")
    s = np.stack([lowering_op(reg, j) for j in range(1, cfg.n_emitters + 1)])
    sd = s.conj().swapaxes(-1, -2)
    d = coupling_matrix(cfg)
    local = np.diag([em.delta - 0.5j * em.gamma_spont for em in cfg.emitters])
    h = np.einsum("ij,iab,jbc->ac", local - 1j * d, sd, s)
    feed = np.tensordot(d + d.conj().T, s, axes=1)  # sum_j J_ij s_j, one per i
    jumps = np.sum(feed @ rho[..., None, :, :] @ sd, axis=-3)
    return -1j * (h @ rho - rho @ h.conj().T) + jumps
