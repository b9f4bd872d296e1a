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
from dataclasses import dataclass
from functools import cached_property

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

    d_ratio is the inter-emitter spacing over the resonant wavelength.  It
    sets both the propagation phases of `coupling_matrix` and the drive
    phases `k0d`, so the two cannot disagree.
    """

    emitters: tuple
    d_ratio: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "emitters", tuple(self.emitters))
        if not self.emitters:
            raise ValueError("chain needs at least one emitter")
        if not math.isfinite(self.d_ratio):
            raise ValueError(f"d_ratio must be finite, got {self.d_ratio}")

    @property
    def k0d(self) -> tuple:
        """Drive phase 2 pi d_ratio (j - 1) of emitter j, in radians: what the
        right-moving pulse picks up on its way from emitter 1."""
        return tuple(2.0 * math.pi * self.d_ratio * (j - 1) for j in range(1, self.n_emitters + 1))

    @property
    def n_emitters(self) -> int:
        return len(self.emitters)

    @property
    def register(self) -> EmitterRegister:
        return EmitterRegister(self.n_emitters)

    @cached_property
    def _operators(self) -> tuple:
        """(H, H^dag, the jump feeds sum_j J_ij s_j, the raising operators sd_i,
        L_in) of the chain, built on first use and kept with it."""
        s = np.stack([lowering_op(self.register, j) for j in range(1, self.n_emitters + 1)])
        sd = s.conj().swapaxes(-1, -2)
        d = coupling_matrix(self)
        local = np.diag([em.delta - 0.5j * em.gamma_spont for em in self.emitters])
        h = np.einsum("ij,iab,jbc->ac", local - 1j * d, sd, s)
        feed = np.tensordot(d + d.conj().T, s, axes=1)  # one per i
        l_in = sum(math.sqrt(em.gamma_r) * np.exp(-1j * k0d) * s_j
                   for em, k0d, s_j in zip(self.emitters, self.k0d, s))
        return h, h.conj().T, feed, sd, l_in

    @property
    def input_operator(self) -> np.ndarray:
        """L_in = sum_j sqrt(Gamma_jr) e^{-i k0d_j} s_j, the right-moving input's coupling."""
        return self._operators[-1]


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
    h, h_adj, feed, sd, _ = cfg._operators
    jumps = np.sum(feed @ rho[..., None, :, :] @ sd, axis=-3)
    return -1j * (h @ rho - rho @ h_adj) + jumps
