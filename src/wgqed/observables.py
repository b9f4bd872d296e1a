"""Named time series extracted from trajectories, and peak summaries.

Population labels are '+'-separated computational basis strings over
{g, e}, e.g. "egg+geg+gge" for the symmetrized single-excitation
probability of three emitters; the corresponding series is named with a
"P_" prefix ("P_egg+geg+gge").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .entanglement import StateCheckError, concurrence_fill, wootters_concurrence
from .integrator import IntegrationBlowUpError, StateTrajectory
from .pulse import GaussianPulse, amplitude
from .qubit_algebra import EmitterRegister, basis_index

__all__ = [
    "PeakSummary",
    "Trajectory",
    "population_indices",
    "population",
    "peak",
    "build_trajectory",
]


@dataclass(frozen=True)
class PeakSummary:
    value: float
    time: float


@dataclass
class Trajectory:
    times: np.ndarray
    populations: dict = field(default_factory=dict)      # label -> series
    concurrence: np.ndarray = None
    fill: np.ndarray = None
    pulse_intensity: np.ndarray = None

    def series_map(self) -> dict:
        """All named series in output-column order."""
        out = {f"P_{label}": series for label, series in self.populations.items()}
        if self.concurrence is not None:
            out["concurrence"] = self.concurrence
        if self.fill is not None:
            out["fill"] = self.fill
        if self.pulse_intensity is not None:
            out["pulse_intensity"] = self.pulse_intensity
        return out


def population_indices(register: EmitterRegister, label_spec: str) -> list:
    """Basis indices of the states a population label names, in order.

    Raises ValueError if a token is not a basis state of the register or
    the label names one state twice."""
    idxs = [basis_index(register, tok.strip()) for tok in label_spec.split("+")]
    if len(set(idxs)) < len(idxs):
        raise ValueError(f"label {label_spec!r} repeats a basis state")
    return idxs


def population(rho: np.ndarray, register: EmitterRegister, label_spec: str):
    """Sum of the named diagonal elements of a density matrix; a (..., d, d)
    stack gives the (...) array of sums."""
    idxs = population_indices(register, label_spec)
    return rho[..., idxs, idxs].real.sum(axis=-1)


def peak(trajectory: Trajectory, series_name: str) -> PeakSummary:
    """Global maximum of a named series and its grid time (first hit on ties)."""
    series = trajectory.series_map().get(series_name)
    if series is None:
        raise KeyError(f"unknown series {series_name!r}")
    if len(series) == 0:
        raise ValueError(f"series {series_name!r} is empty")
    i = int(np.argmax(series))
    return PeakSummary(float(series[i]), float(trajectory.times[i]))


def build_trajectory(
    states: StateTrajectory,
    population_labels=(),
    want_concurrence: bool = False,
    want_fill: bool = False,
    pulse: GaussianPulse = None,
) -> Trajectory:
    """Assemble the requested named series from recorded hierarchy states.

    A physical block that fails a state check of a measure is reported as an
    IntegrationBlowUpError at the time of the first bad record."""
    phys = states.physical()
    try:
        concurrence = wootters_concurrence(phys) if want_concurrence else None
        fill = concurrence_fill(phys) if want_fill else None
    except StateCheckError as exc:
        raise IntegrationBlowUpError(float(states.times[exc.record]), exc.reason) from exc
    return Trajectory(
        times=states.times,
        populations={lb: population(phys, states.register, lb) for lb in population_labels},
        concurrence=concurrence,
        fill=fill,
        pulse_intensity=None if pulse is None else np.square(amplitude(pulse, states.times)),
    )
