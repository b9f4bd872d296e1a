"""Two-qubit concurrence and the three-qubit concurrence fill, in closed
form on excitation-graded states.

Every physical block the hierarchy records is excitation-graded:
<a|rho|b> = 0 unless exc(a) = exc(b), where exc counts the excited
emitters of a basis state (Baragiola et al., PRA 86, 013811, 2012).  On
such states both measures are exact closed forms in a few entries of the
state, with no eigensolver and no partial trace:

- a graded pair state holds only rho_gg, the {eg, ge} 2x2 block and
  rho_ee, an X state, so its Wootters concurrence is
  C = 2 max(0, |rho_{eg,ge}| - sqrt(rho_gg rho_ee))
  (Yu & Eberly, Quantum Inf. Comput. 7, 459, 2007);
- every single-emitter reduced state of a graded three-qubit state is
  diagonal, so the squared one-to-other concurrence is
  C^2_{i(jk)} = 2 (1 - Tr rho_i^2) = 4 p_i (1 - p_i), where p_i is the
  excitation probability of emitter i.

concurrence_fill treats the three C^2_{i(jk)} as triangle sides and
returns the normalized Heron area

    F = [ (16/3) Q (Q - a)(Q - b)(Q - c) ]^(1/4),   Q = (a + b + c)/2,

which is 8/9 on the W state and 0 on product states.

So each measure takes what it measures, not a density matrix: the
concurrence the pair's four populations and rho_{eg,ge}, the fill the
eight populations.  Both check that the trace is in (0, 1], and the
concurrence that the graded pair's exact spectrum is non-negative.  A
trace below one (the non-recycled spontaneous-loss model) is renormalized
to the conditional no-loss state.

Recorded hierarchy states are Hermitian and graded by construction, and
observables.build_trajectory reads these quantities straight from their
coordinates.  A density matrix from anywhere else goes through read_state,
which refuses a state that is not Hermitian or has a nonzero entry outside
the grading, where the closed forms would be wrong.
"""

from __future__ import annotations

import numpy as np

from .qubit_algebra import EmitterRegister, excitation_count, excited

__all__ = ["PAIR_COHERENCE", "StateCheckError", "read_state", "wootters_concurrence",
           "concurrence_fill"]

PAIR_COHERENCE = (2, 1)  # basis indices (eg, ge) of the pair coherence rho_{eg,ge}

_TRACE_TOL = 1e-6
_HERM_TOL = 1e-6
_PSD_TOL = -1e-8

_EXCITED = [np.flatnonzero(bit) for bit in excited(EmitterRegister(3)).T]  # emitter i excited


class StateCheckError(ValueError):
    """A state failed a check; `reason` says which, `record` is the flat index
    of the first bad state of a stack (None for a single state)."""

    def __init__(self, reason: str, record: int = None):
        self.reason = reason
        self.record = record
        super().__init__(reason if record is None else f"{reason} at record {record}")


def _first_bad(bad: np.ndarray, values: np.ndarray, message: str) -> None:
    """Raise StateCheckError naming the value of the first record where `bad`
    holds and, for a stack, its flat record index."""
    if np.any(bad):
        i = int(np.argmax(bad))
        raise StateCheckError(message.format(np.ravel(values)[i]), i if np.ndim(bad) else None)


def _trace(populations: np.ndarray, dim: int) -> np.ndarray:
    """Trace of each diagonal of a (..., dim) stack, checked to be in (0, 1]."""
    if populations.shape[-1:] != (dim,):
        raise ValueError(f"populations have shape {populations.shape}, expected (..., {dim})")
    tr = populations
    while tr.shape[-1] > 1:  # a pairwise sum, (p_0 + p_1) + (p_2 + p_3) for a pair
        tr = tr[..., ::2] + tr[..., 1::2]
    tr = tr[..., 0]
    _first_bad(~((0.0 < tr) & (tr <= 1.0 + _TRACE_TOL)), tr, "state trace {} is not in (0, 1]")
    return tr


def read_state(rho: np.ndarray, register: EmitterRegister) -> tuple:
    """Check an excitation-graded density matrix of the register, or a
    (..., dim, dim) stack of them, and read off what the measures take:
    (populations, coherence), the real diagonal (..., dim) and, for a pair,
    rho_{eg,ge} (...), else None.

    Refuses, naming the first bad record, a state that is not Hermitian,
    has a trace outside (0, 1] or has a nonzero entry outside the grading.
    """
    dim = register.dim
    if rho.shape[-2:] != (dim, dim):
        raise ValueError(f"state has shape {rho.shape}, expected (..., {dim}, {dim})")
    defect = np.conjugate(np.swapaxes(rho, -1, -2))  # the ufunc copies even a real input
    np.subtract(rho, defect, out=defect)
    herm_defect = np.abs(defect, out=defect).real.max(axis=(-2, -1))
    del defect  # a copy of the whole stack: free it before the grading check takes |rho|
    _first_bad(herm_defect > _HERM_TOL, herm_defect, "state not hermitian (defect {:.3e})")
    populations = np.diagonal(rho, axis1=-2, axis2=-1).real
    _trace(populations, dim)  # a bad trace is reported ahead of a grading defect
    exc = excitation_count(register)
    outside = np.abs(rho).max(axis=(-2, -1), where=np.not_equal.outer(exc, exc), initial=0.0)
    _first_bad(outside > 0.0, outside, "state not excitation-graded (entry {:.3e} outside the grading)")
    return populations, (rho[(..., *PAIR_COHERENCE)] if register.n_emitters == 2 else None)


def wootters_concurrence(populations: np.ndarray, coherence: np.ndarray):
    """Concurrence of an excitation-graded pair state, in [0, 1], from its
    populations (..., 4) in basis order gg, ge, eg, ee and its coherence
    rho_{eg,ge} (...); a stack gives the (...) array of concurrences."""
    tr = _trace(populations, 4)
    gg, ge, eg, ee = np.moveaxis(populations, -1, 0)
    coherence = np.abs(coherence)
    # the exact spectrum of a graded pair: gg, ee and the {ge, eg} block's two eigenvalues
    min_eig = np.minimum(np.minimum(gg, ee), 0.5 * (ge + eg) - np.hypot(0.5 * (ge - eg), coherence))
    _first_bad(min_eig < _PSD_TOL * np.maximum(tr, _TRACE_TOL), min_eig,
               "state not positive semidefinite (min eig {:.3e})")
    # a population inside the positivity tolerance may be a roundoff below zero
    return np.maximum(0.0, 2.0 * (coherence - np.sqrt(np.maximum(0.0, gg * ee))) / tr)


def concurrence_fill(populations: np.ndarray):
    """Genuine tripartite entanglement of an excitation-graded three-qubit
    state, in [0, 1], from its populations (..., 8) in basis order; a stack
    gives the (...) array of values.

    The triangle inequality among the squared one-to-other concurrences is
    guaranteed for pure states only; a sufficiently mixed state can push one
    side past the sum of the other two (strongly chirally damped chains do
    this at late times).  The Heron factors are clamped at zero, so such
    states — like exactly degenerate triangles — report zero fill.
    """
    tr = _trace(populations, 8)
    p = np.stack([populations[..., idx].sum(axis=-1) / tr for idx in _EXCITED], axis=-1)
    sides = np.clip(4.0 * p * (1.0 - p), 0.0, 1.0)
    q = 0.5 * sides.sum(axis=-1)
    factors = np.clip(q[..., None] - sides, 0.0, None)
    area4 = (16.0 / 3.0) * q * np.prod(factors, axis=-1)
    # two correctly rounded square roots, not pow: the same bits alone or in a stack
    return np.sqrt(np.sqrt(np.maximum(0.0, area4)))
