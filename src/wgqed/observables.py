"""Named time series extracted from trajectories, and their peaks.

Population labels are '+'-separated computational basis strings over
{g, e}, e.g. "egg+geg+gge" for the symmetrized single-excitation
probability of three emitters; the corresponding series is named with a
"P_" prefix ("P_egg+geg+gge").
"""

from __future__ import annotations

import numpy as np

from .entanglement import PAIR_COHERENCE, StateCheckError, concurrence_fill, wootters_concurrence
from .integrator import IntegrationBlowUpError, StateTrajectory
from .pulse import GaussianPulse, amplitude
from .qubit_algebra import EmitterRegister, basis_index

__all__ = ["population_indices", "population", "peak", "build_trajectory"]


def population_indices(register: EmitterRegister, label_spec: str) -> list:
    """Basis indices of the states a population label names, in order.

    Raises ValueError if a token is not a basis state of the register or
    the label names one state twice."""
    idxs = [basis_index(register, tok.strip()) for tok in label_spec.split("+")]
    if len(set(idxs)) < len(idxs):
        raise ValueError(f"label {label_spec!r} repeats a basis state")
    return idxs


def population(populations: np.ndarray, register: EmitterRegister, label_spec: str):
    """Sum of the named entries of a density matrix's diagonal (..., d), the
    populations; a stack gives the (...) array of sums."""
    return populations[..., population_indices(register, label_spec)].sum(axis=-1)


def peak(times: np.ndarray, series: np.ndarray) -> dict:
    """Global maximum of a series and its grid time (first hit on ties), as
    the summary JSON writes it: {"value": ..., "time": ...}."""
    if len(series) == 0:
        raise ValueError("series is empty")
    i = int(np.argmax(series))
    return {"value": float(series[i]), "time": float(times[i])}


def build_trajectory(states: StateTrajectory, population_labels=(), want_concurrence: bool = False,
                     want_fill: bool = False, pulse: GaussianPulse = None) -> dict:
    """The requested named series of recorded hierarchy states, as the ordered
    map {column name: series}: P_<label> for each population label, then
    "concurrence", "fill" and "pulse_intensity" as requested.

    Every series is read from the physical block's diagonal and, for the
    concurrence, its pair coherence, taken straight from the recorded
    coordinates.  A state check of a measure that fails is reported as an
    IntegrationBlowUpError at the time of the first bad record."""
    prop, y, n = states.propagator, states.blocks, states.n_ph
    populations = prop.entry(y, n, n, *np.diag_indices(prop.dim)).real
    series = {f"P_{lb}": population(populations, states.register, lb) for lb in population_labels}
    try:
        if want_concurrence:
            series["concurrence"] = wootters_concurrence(populations,
                                                         prop.entry(y, n, n, *PAIR_COHERENCE))
        if want_fill:
            series["fill"] = concurrence_fill(populations)
    except StateCheckError as exc:
        raise IntegrationBlowUpError(float(states.times[exc.record]), exc.reason) from exc
    if pulse is not None:
        series["pulse_intensity"] = np.square(amplitude(pulse, states.times))
    return series
