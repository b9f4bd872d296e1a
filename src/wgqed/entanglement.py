"""Two-qubit concurrence and the three-qubit concurrence-fill measure.

wootters_concurrence implements the standard mixed-state construction:
eigenvalues of rho (sy x sy) rho* (sy x sy), square-rooted in descending
order lam1 >= ... >= lam4, C = max(0, l1 - l2 - l3 - l4).

concurrence_fill treats the three squared one-to-other concurrences
C^2_{i(jk)} = 2 (1 - Tr rho_i^2) as triangle sides and returns the
normalized Heron area

    F = [ (16/3) Q (Q - a)(Q - b)(Q - c) ]^(1/4),   Q = (a + b + c)/2,

which is 1 on the GHZ state, 8/9 on the W state and 0 on product states.

Inputs with trace below one (produced by the non-recycled spontaneous-loss
model) are renormalized to the conditional no-loss state before either
measure is evaluated.
"""

from __future__ import annotations

import numpy as np

from .qubit_algebra import EmitterRegister, partial_trace

__all__ = ["wootters_concurrence", "one_to_other_c2", "concurrence_fill"]

# sigma_y (x) sigma_y in the computational basis; real, so it conjugates freely
_SPIN_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ],
    dtype=complex,
)

_TRACE_TOL = 1e-6
_HERM_TOL = 1e-6
_PSD_TOL = -1e-8


def _first_bad(bad: np.ndarray, values: np.ndarray, message: str) -> None:
    """Raise ValueError naming the value of the first record where `bad`
    holds and, for a stack, its flat record index."""
    if np.any(bad):
        i = np.argmax(bad)
        where = f" at record {i}" if np.ndim(bad) else ""
        raise ValueError(message.format(np.ravel(values)[i]) + where)


def _validate_state(rho: np.ndarray, dim: int, check_psd: bool) -> np.ndarray:
    """Sanity-check a density matrix, or a (..., dim, dim) stack of them, and
    return the trace of each.

    Loss models (spontaneous emission without a recycling term) legitimately
    shrink the trace below one, so any trace in (0, 1] is accepted and the
    caller renormalizes to the conditional state.
    """
    if rho.shape[-2:] != (dim, dim):
        raise ValueError(f"state has shape {rho.shape}, expected (..., {dim}, {dim})")
    defect = np.conjugate(np.swapaxes(rho, -1, -2))  # the ufunc copies even a real input
    np.subtract(rho, defect, out=defect)
    herm_defect = np.abs(defect, out=defect).real.max(axis=(-2, -1))
    _first_bad(herm_defect > _HERM_TOL, herm_defect, "state not hermitian (defect {:.3e})")
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    _first_bad(~((0.0 < tr) & (tr <= 1.0 + _TRACE_TOL)), tr, "state trace {} is not in (0, 1]")
    if check_psd:
        min_eig = np.linalg.eigvalsh(0.5 * (rho + np.swapaxes(rho, -1, -2).conj())).min(axis=-1)
        _first_bad(min_eig < _PSD_TOL * np.maximum(tr, _TRACE_TOL), min_eig,
                   "state not positive semidefinite (min eig {:.3e})")
    return tr


def wootters_concurrence(rho: np.ndarray):
    """Concurrence of a two-qubit density matrix, in [0, 1]; a (..., 4, 4)
    stack gives the (...) array of concurrences."""
    tr = _validate_state(rho, 4, check_psd=True)
    rho = rho / tr[..., None, None]
    flipped = rho @ _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    lams = np.linalg.eigvals(flipped).real
    lams[lams < 0.0] = 0.0  # roundoff only; spectrum is nonnegative in exact arithmetic
    roots = np.sort(np.sqrt(lams), axis=-1)[..., ::-1]
    return np.maximum(0.0, roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3])


def _c2_of_valid(rho3: np.ndarray, tr: np.ndarray, i: int) -> np.ndarray:
    """2 (1 - Tr rho_i^2) of validated three-qubit states with traces `tr`."""
    rho_i = partial_trace(rho3, EmitterRegister(3), {i}) / tr[..., None, None]
    purity = np.trace(rho_i @ rho_i, axis1=-2, axis2=-1).real
    return 2.0 * (1.0 - purity)


def one_to_other_c2(rho3: np.ndarray, i: int):
    """Squared concurrence across the bipartition {qubit i} vs {other two},
    from the purity of the reduced single-qubit state: 2 (1 - Tr rho_i^2).
    A (..., 8, 8) stack gives the (...) array of values."""
    if i not in (1, 2, 3):
        raise ValueError(f"qubit index must be 1, 2 or 3, got {i}")
    return _c2_of_valid(rho3, _validate_state(rho3, 8, check_psd=False), i)


def concurrence_fill(rho3: np.ndarray):
    """Genuine tripartite entanglement of a three-qubit state, in [0, 1]; a
    (..., 8, 8) stack gives the (...) array of values.

    The triangle inequality among the squared one-to-other concurrences is
    guaranteed for pure states only; a sufficiently mixed state can push one
    side past the sum of the other two (strongly chirally damped chains do
    this at late times).  The Heron factors are clamped at zero, so such
    states — like exactly degenerate triangles — report zero fill.
    """
    tr = _validate_state(rho3, 8, check_psd=False)
    sides = np.stack([_c2_of_valid(rho3, tr, i) for i in (1, 2, 3)], axis=-1)
    sides = np.clip(sides, 0.0, 1.0)
    q = 0.5 * sides.sum(axis=-1)
    factors = np.clip(q[..., None] - sides, 0.0, None)
    area4 = (16.0 / 3.0) * q * np.prod(factors, axis=-1)
    # two correctly rounded square roots, not pow: the same bits alone or in a stack
    return np.sqrt(np.sqrt(np.maximum(0.0, area4)))
