"""Time-independent dissipator for the emitter chain.

Every waveguide coupling of the chain comes from its two output channels,
the rows r and l of `ChainConfig.channels`: r_j = sqrt(Gamma_jr) e^{-i k0d_j}
couples emitter j to the right-moving mode, l_j = sqrt(Gamma_jl) e^{+i k0d_j}
to the left-moving one, and k0d_j = 2 pi d_ratio (j - 1).  In the cascaded
coupling of Gardiner (PRL 70, 2269, 1993) run in both directions,
right-movers feed forward and left-movers feed backward, so the n x n
coupling matrix D (`coupling_matrix`) is

    D_ii = (Gamma_ir + Gamma_il) / 2,
    D_ij = conj(r_i) r_j  (i > j),        D_ij = conj(l_i) l_j  (i < j).

The total Liouvillian is the collective master equation of Pichler et al.
(PRA 91, 042116, 2015), with J = sum_c conj(c) c^T = D + D^dag:

    L[X] = -i (H X - X H^dag) + sum_ij J_ij s_j X sd_i,
    H = sum_i (Delta_i - i gamma_i / 2) sd_i s_i - i sum_ij D_ij sd_i s_j.

So the jumps are sum_c L_c X L_c^dag with L_c = sum_j c_j s_j, and the drive
couples through the right-moving one, L_in (`ChainConfig.input_operator`).

The spontaneous (non-waveguide) rate gamma is the excited-population
decay rate; it sits inside H with no recycling term, so it leaks total
population.  The waveguide part of H loses exactly the trace that the
jump term with J = D + D^dag feeds back, so with gamma = 0 the map is
trace-annihilating on any input; J is hermitian, so the map preserves
hermiticity.

The rows carry opposite phases, so D_ij = |D_ij| e^{i phi |i - j|} with
phi = 2 pi d_ratio, the phase a photon picks up over the distance |i - j| L
either way; a symmetric pair's collective decay rates show the standing-wave
pattern (Gamma_r + Gamma_l)(1 +/- cos phi).  Rows of one phase sign would
give D_ij = |D_ij| e^{i phi (i - j)}, a gauge transform of d_ratio = 0.

All rates are in units of Gamma (== Gamma_l of the reference emitter),
times in 1/Gamma.  apply_total also takes a (..., dim, dim) stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qubit_algebra import EmitterRegister, lowering_op

__all__ = ["EmitterParams", "ChainConfig", "coupling_matrix", "apply_total"]


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
    sets the drive phases `k0d` and through them `channels`, which every
    coupling of the chain is built from.  The arrays it caches are read-only.
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
    def channels(self) -> np.ndarray:
        """(2, n) couplings r_j and l_j to the right- and left-moving modes (module docstring)."""
        rates = [[em.gamma_r for em in self.emitters], [em.gamma_l for em in self.emitters]]
        channels = np.sqrt(rates) * np.exp(np.outer([-1j, 1j], self.k0d))
        channels.setflags(write=False)
        return channels

    @cached_property
    def _operators(self) -> tuple:
        """(H, H^dag, the jump feeds sum_j J_ij s_j, the raising sd_i, L_in), cached read-only."""
        s = np.stack([lowering_op(self.register, j) for j in range(1, self.n_emitters + 1)])
        sd = s.conj().swapaxes(-1, -2)
        local = np.diag([em.delta - 0.5j * em.gamma_spont for em in self.emitters])
        h = np.sum(sd @ np.tensordot(local - 1j * coupling_matrix(self), s, axes=1), axis=0)
        feed = np.tensordot(self.channels.conj().T @ self.channels, s, axes=1)  # one per i
        operators = h, h.conj().T, feed, sd, np.tensordot(self.channels[0], s, axes=1)
        for op in operators:
            op.setflags(write=False)
        return operators

    @property
    def input_operator(self) -> np.ndarray:
        """L_in = sum_j channels[0, j] s_j, the right-moving input's coupling."""
        return self._operators[-1]


def coupling_matrix(cfg: ChainConfig) -> np.ndarray:
    """The chain's n x n waveguide coupling matrix D (module docstring)."""
    r, l = cfg.channels
    d = np.tril(np.outer(r.conj(), r), -1) + np.triu(np.outer(l.conj(), l), 1)
    np.fill_diagonal(d, [0.5 * (em.gamma_r + em.gamma_l) for em in cfg.emitters])
    return d


def apply_total(cfg: ChainConfig, rho: np.ndarray) -> np.ndarray:
    """L[rho] of one operator, or of each matrix of a (..., dim, dim) stack."""
    reg = cfg.register
    if rho.shape[-2:] != (reg.dim, reg.dim):
        raise ValueError(f"operator has shape {rho.shape}, chain dimension is {reg.dim}")
    h, h_adj, feed, sd, _ = cfg._operators
    jumps = np.sum(feed @ rho[..., None, :, :] @ sd, axis=-3)
    return -1j * (h @ rho - rho @ h_adj) + jumps
