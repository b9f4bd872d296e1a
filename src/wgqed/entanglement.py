"""Two-qubit concurrence and the three-qubit concurrence fill, in closed
form on excitation-graded states.

Every physical block the hierarchy records is excitation-graded:
<a|rho|b> = 0 unless exc(a) = exc(b), where exc counts the excited
emitters of a basis state (Baragiola et al., PRA 86, 013811, 2012).  On
such states both measures are exact closed forms, with no eigensolver and
no partial trace:

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

Both measures refuse a state with a nonzero entry outside the grading,
on which the closed forms would be wrong.  Inputs with trace below one
(produced by the non-recycled spontaneous-loss model) are renormalized to
the conditional no-loss state before either measure is evaluated.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StateCheckError", "wootters_concurrence", "concurrence_fill"]

_TRACE_TOL = 1e-6
_HERM_TOL = 1e-6
_PSD_TOL = -1e-8

# basis indices with emitter i = 1, 2, 3 excited (emitter 1 is the most significant bit)
_EXCITED = [[a for a in range(8) if a >> (3 - i) & 1] for i in (1, 2, 3)]


class StateCheckError(ValueError):
    """A state failed a check; `reason` says which, `record` is the flat index
    of the first bad matrix of a stack (None for a single matrix)."""

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


def _validate_state(rho: np.ndarray, dim: int) -> np.ndarray:
    """Sanity-check an excitation-graded density matrix, or a (..., dim,
    dim) stack of them, and return the trace of each.

    Loss models (spontaneous emission without a recycling term) legitimately
    shrink the trace below one, so any trace in (0, 1] is accepted and the
    caller renormalizes to the conditional state.
    """
    if rho.shape[-2:] != (dim, dim):
        raise ValueError(f"state has shape {rho.shape}, expected (..., {dim}, {dim})")
    defect = np.conjugate(np.swapaxes(rho, -1, -2))  # the ufunc copies even a real input
    np.subtract(rho, defect, out=defect)
    herm_defect = np.abs(defect, out=defect).real.max(axis=(-2, -1))
    del defect  # a copy of the whole stack: free it before the grading check takes |rho|
    _first_bad(herm_defect > _HERM_TOL, herm_defect, "state not hermitian (defect {:.3e})")
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    _first_bad(~((0.0 < tr) & (tr <= 1.0 + _TRACE_TOL)), tr, "state trace {} is not in (0, 1]")
    exc = np.array([bin(a).count("1") for a in range(dim)])
    outside = np.abs(rho).max(axis=(-2, -1), where=np.not_equal.outer(exc, exc), initial=0.0)
    _first_bad(outside > 0.0, outside, "state not excitation-graded (entry {:.3e} outside the grading)")
    return tr


def wootters_concurrence(rho: np.ndarray):
    """Concurrence of an excitation-graded two-qubit density matrix, in
    [0, 1]; a (..., 4, 4) stack gives the (...) array of concurrences."""
    tr = _validate_state(rho, 4)
    gg, ge, eg, ee = (rho[..., k, k].real for k in range(4))
    coherence = np.abs(rho[..., 2, 1])  # |rho_{eg,ge}|
    # the exact spectrum of a graded pair: gg, ee and the {ge, eg} block's two eigenvalues
    min_eig = np.minimum(np.minimum(gg, ee), 0.5 * (ge + eg) - np.hypot(0.5 * (ge - eg), coherence))
    _first_bad(min_eig < _PSD_TOL * np.maximum(tr, _TRACE_TOL), min_eig,
               "state not positive semidefinite (min eig {:.3e})")
    # a population inside the positivity tolerance may be a roundoff below zero
    return np.maximum(0.0, 2.0 * (coherence - np.sqrt(np.maximum(0.0, gg * ee))) / tr)


def concurrence_fill(rho3: np.ndarray):
    """Genuine tripartite entanglement of an excitation-graded three-qubit
    state, in [0, 1]; a (..., 8, 8) stack gives the (...) array of values.

    The triangle inequality among the squared one-to-other concurrences is
    guaranteed for pure states only; a sufficiently mixed state can push one
    side past the sum of the other two (strongly chirally damped chains do
    this at late times).  The Heron factors are clamped at zero, so such
    states — like exactly degenerate triangles — report zero fill.
    """
    tr = _validate_state(rho3, 8)
    diag = np.diagonal(rho3, axis1=-2, axis2=-1).real
    p = np.stack([diag[..., idx].sum(axis=-1) / tr for idx in _EXCITED], axis=-1)
    sides = np.clip(4.0 * p * (1.0 - p), 0.0, 1.0)
    q = 0.5 * sides.sum(axis=-1)
    factors = np.clip(q[..., None] - sides, 0.0, None)
    area4 = (16.0 / 3.0) * q * np.prod(factors, axis=-1)
    # two correctly rounded square roots, not pow: the same bits alone or in a stack
    return np.sqrt(np.sqrt(np.maximum(0.0, area4)))
