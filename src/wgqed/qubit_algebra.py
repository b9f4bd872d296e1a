"""Operator algebra for a register of N two-level emitters.

Basis convention: a computational basis index b in [0, 2**N) encodes the
state of emitter j (1-based) in bit (N - j), i.e. emitter 1 is the MOST
significant bit.  Bit value 0 is the ground state |g>, 1 the excited
state |e>.  Basis strings such as "egg" are therefore read left to right
as emitter 1, 2, 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EmitterRegister",
    "basis_index",
    "lowering_op",
    "partial_trace",
    "commutator",
]


@dataclass(frozen=True)
class EmitterRegister:
    """A chain of n_emitters two-level systems (dim = 2**n_emitters)."""

    n_emitters: int

    def __post_init__(self):
        if self.n_emitters < 1:
            raise ValueError(f"n_emitters must be >= 1, got {self.n_emitters}")

    @property
    def dim(self) -> int:
        return 2 ** self.n_emitters


def basis_index(register: EmitterRegister, label: str) -> int:
    """Index of the basis state named by a string over {g, e}, e.g. "egg"."""
    if len(label) != register.n_emitters:
        raise ValueError(
            f"label {label!r} has {len(label)} sites, register has {register.n_emitters}"
        )
    idx = 0
    for ch in label:
        if ch == "g":
            idx = idx << 1
        elif ch == "e":
            idx = (idx << 1) | 1
        else:
            raise ValueError(f"label {label!r} contains {ch!r}; only 'g'/'e' allowed")
    return idx


def lowering_op(register: EmitterRegister, j: int) -> np.ndarray:
    """Lowering operator |g_j><e_j| on emitter j (1-based), identity elsewhere."""
    if not 1 <= j <= register.n_emitters:
        raise IndexError(f"emitter index {j} out of range 1..{register.n_emitters}")
    sigma = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e| in (|g>,|e>)
    eye2 = np.eye(2, dtype=complex)
    op = np.array([[1.0 + 0.0j]])
    for site in range(1, register.n_emitters + 1):
        op = np.kron(op, sigma if site == j else eye2)
    return op


def partial_trace(rho: np.ndarray, register: EmitterRegister, keep) -> np.ndarray:
    """Reduced operator on the emitters in `keep` (1-based indices).

    Trace-preserving; the kept subsystems appear in ascending emitter
    order in the output.  Leading axes of a (..., dim, dim) stack are
    carried through, so a recorded series reduces in one call.
    """
    n = register.n_emitters
    dim = register.dim
    if rho.shape[-2:] != (dim, dim):
        raise ValueError(f"rho has shape {rho.shape}, expected (..., {dim}, {dim})")
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if not all(1 <= j <= n for j in keep):
        raise ValueError(f"keep={keep} contains indices outside 1..{n}")

    # Reshape to one axis per ket/bra site and trace the complement pairwise.
    lead = rho.shape[:-2]
    work = rho.reshape(lead + (2,) * (2 * n))
    traced = 0
    for j in range(1, n + 1):
        if j in keep:
            continue
        ket_ax = len(lead) + (j - 1) - traced
        bra_ax = ket_ax + (n - traced)
        work = np.trace(work, axis1=ket_ax, axis2=bra_ax)
        traced += 1
    d_out = 2 ** len(keep)
    return work.reshape(lead + (d_out, d_out))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b]; either side may be a (..., d, d) stack, broadcast against the other."""
    if a.shape[-2:] != b.shape[-2:]:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return a @ b - b @ a
