"""Time-independent dissipator for the emitter chain.

The total Liouvillian splits into three parts,

    L[X] = L_cs[X] + L_pd[X] + L_cd[X]:

* closed-system part: L_cs[X] = -i (H_eff X - X H_eff^dag) with the
  non-hermitian effective Hamiltonian H_eff = sum_j (Delta_j - i gamma_j / 2)
  sigma_j^dag sigma_j.  The spontaneous (non-waveguide) rate gamma is the
  excited-population decay rate; it sits inside H_eff with no recycling
  term, so it leaks total population.

* pure decay into the waveguide:
  L_pd[X] = -sum_i G_i (sd_i s_i X - 2 s_i X sd_i + X sd_i s_i),
  with 2 G_i = Gamma_ir + Gamma_il.

* cooperative (cascaded) decay between distinct emitters:
  L_cd[X] = -sum_{i != j} K_ij [ e^{+i phi_ij} (sd_i s_j X - s_j X sd_i)
                               + e^{-i phi_ij} (X sd_j s_i - s_i X sd_j) ],
  K_ij = sqrt(Gamma_ir Gamma_jr) for i > j (right-movers feed forward)
       + sqrt(Gamma_il Gamma_jl) for i < j (left-movers feed backward),
  phi_ij = 2 pi D |i - j|.

The propagation phase phi_ij is the one a photon picks up travelling the
distance |i - j| L between the pair, so it enters with the same sign for
both directions; the collective decay rates of a symmetric pair then show
the standing-wave pattern (Gamma_r + Gamma_l)(1 +/- cos phi).  A
direction-signed phase exp(i phi (i - j)) would instead be a gauge
transform of D = 0 and lose that interference.

The two brackets of L_cd are mutual adjoints on hermitian input, so the
total map preserves hermiticity; each bracket is traceless by cyclicity,
so with gamma = 0 the map is trace-annihilating on any input.

All rates are in units of Gamma (== Gamma_l of the reference emitter),
times in 1/Gamma.  Each apply_* map also takes a (..., dim, dim) stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qubit_algebra import EmitterRegister, lowering_op

__all__ = [
    "EmitterParams",
    "ChainConfig",
    "apply_closed",
    "apply_pure_decay",
    "apply_cooperative",
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

    d_ratio is the inter-emitter spacing over the resonant wavelength
    (dimensionless D); k0d holds the per-emitter driving phases k0*d_j in
    radians (all zero by default — emitters co-located on the drive).
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


def _lowering_ops(cfg: ChainConfig):
    reg = cfg.register
    return [lowering_op(reg, j) for j in range(1, cfg.n_emitters + 1)]


def _check_dim(cfg: ChainConfig, rho: np.ndarray):
    dim = cfg.register.dim
    if rho.shape[-2:] != (dim, dim):
        raise ValueError(f"operator has shape {rho.shape}, chain dimension is {dim}")


def apply_closed(cfg: ChainConfig, rho: np.ndarray) -> np.ndarray:
    """-i (H_eff rho - rho H_eff^dag); reduces to -i[H, rho] when all gamma_spont = 0."""
    _check_dim(cfg, rho)
    sigmas = _lowering_ops(cfg)
    dim = cfg.register.dim
    h_eff = np.zeros((dim, dim), dtype=complex)
    for em, s in zip(cfg.emitters, sigmas):
        h_eff += (em.delta - 0.5j * em.gamma_spont) * (s.conj().T @ s)
    return -1j * (h_eff @ rho - rho @ h_eff.conj().T)


def apply_pure_decay(cfg: ChainConfig, rho: np.ndarray) -> np.ndarray:
    _check_dim(cfg, rho)
    out = np.zeros_like(rho, dtype=complex)
    for em, s in zip(cfg.emitters, _lowering_ops(cfg)):
        g_irl = 0.5 * (em.gamma_r + em.gamma_l)
        if g_irl == 0.0:
            continue
        num = s.conj().T @ s
        out -= g_irl * (num @ rho - 2.0 * (s @ rho @ s.conj().T) + rho @ num)
    return out


def apply_cooperative(cfg: ChainConfig, rho: np.ndarray) -> np.ndarray:
    """Waveguide-mediated decay between distinct emitters; zero for a single emitter."""
    _check_dim(cfg, rho)
    n = cfg.n_emitters
    out = np.zeros_like(rho, dtype=complex)
    if n == 1:
        return out
    sigmas = _lowering_ops(cfg)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            ei, ej = cfg.emitters[i - 1], cfg.emitters[j - 1]
            if i > j:
                k_ij = math.sqrt(ei.gamma_r * ej.gamma_r)
            else:
                k_ij = math.sqrt(ei.gamma_l * ej.gamma_l)
            if k_ij == 0.0:
                continue
            phase = np.exp(2j * np.pi * cfg.d_ratio * abs(i - j))
            si, sj = sigmas[i - 1], sigmas[j - 1]
            fwd = si.conj().T @ sj @ rho - sj @ rho @ si.conj().T
            bwd = rho @ sj.conj().T @ si - si @ rho @ sj.conj().T
            out -= k_ij * (phase * fwd + phase.conj() * bwd)
    return out


def apply_total(cfg: ChainConfig, rho: np.ndarray) -> np.ndarray:
    return apply_closed(cfg, rho) + apply_pure_decay(cfg, rho) + apply_cooperative(cfg, rho)
