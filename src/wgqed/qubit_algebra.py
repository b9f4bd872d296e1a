"""Operator algebra for a register of N two-level emitters.

Basis convention, stated once in EmitterRegister.places: a basis index b in
[0, 2**N) sums the place values 2**(N - j) of the excited emitters j
(1-based), so emitter 1 is the MOST significant bit; bit 0 is the ground
state |g>, 1 the excited state |e>.  Basis strings such as "egg" read left
to right as emitter 1, 2, 3.  Every basis index and label derives from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EmitterRegister", "basis_index", "excited", "excitation_count", "excitation_classes",
           "lowering_op", "commutator"]


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

    @property
    def places(self) -> np.ndarray:
        """(n_emitters,) place value 2**(N - j) of emitter j's bit in a basis index."""
        return 2 ** np.arange(self.n_emitters - 1, -1, -1)


def basis_index(register: EmitterRegister, label: str) -> int:
    """Index of the basis state named by a string over {g, e}, e.g. "egg"."""
    if len(label) != register.n_emitters:
        raise ValueError(f"label {label!r} has {len(label)} sites, "
                         f"register has {register.n_emitters}")
    for ch in label:
        if ch not in ("g", "e"):
            raise ValueError(f"label {label!r} contains {ch!r}; only 'g'/'e' allowed")
    return int(sum(p for ch, p in zip(label, register.places) if ch == "e"))


def excited(register: EmitterRegister) -> np.ndarray:
    """(dim, n_emitters) 0/1 table: [b, j - 1] is 1 iff emitter j is excited in basis state b."""
    return np.arange(register.dim)[:, None] // register.places % 2


def excitation_count(register: EmitterRegister) -> np.ndarray:
    """exc(b), the number of excited emitters of each basis state b, as (dim,)."""
    return excited(register).sum(axis=1)


def excitation_classes(register: EmitterRegister) -> tuple:
    """Population labels of the states with 1..N excited emitters, each '+'-joined
    by descending basis index: ("egg+geg+gge", "eeg+ege+gee", "eee") for N = 3."""
    labels = ["".join("ge"[bit] for bit in row) for row in excited(register)][::-1]
    return tuple("+".join(lb for lb in labels if lb.count("e") == k)
                 for k in range(1, register.n_emitters + 1))


def lowering_op(register: EmitterRegister, j: int) -> np.ndarray:
    """Lowering operator |g_j><e_j| on emitter j (1-based), identity elsewhere:
    <b - 2**(N - j)|s_j|b> = 1 for every basis state b in which emitter j is excited."""
    if not 1 <= j <= register.n_emitters:
        raise IndexError(f"emitter index {j} out of range 1..{register.n_emitters}")
    b = np.flatnonzero(excited(register)[:, j - 1])
    op = np.zeros((register.dim, register.dim), dtype=complex)
    op[b - register.places[j - 1], b] = 1.0
    return op


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b]; either side may be a (..., d, d) stack, broadcast against the other."""
    if a.shape[-2:] != b.shape[-2:]:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return a @ b - b @ a
