"""Driven-dissipative dynamics of emitter chains coupled to a 1-D waveguide,
driven by few-photon Fock-state Gaussian wavepackets."""

from .qubit_algebra import EmitterRegister, lowering_op, partial_trace, adjoint, commutator
from .pulse import GaussianPulse, amplitude
from .liouvillian import (
    ChainConfig,
    EmitterParams,
    apply_closed,
    apply_cooperative,
    apply_pure_decay,
    apply_total,
)
from .integrator import IntegratorConfig, IntegrationBlowUpError, StateTrajectory, integrate
from .entanglement import concurrence_fill, one_to_other_c2, wootters_concurrence
from .observables import PeakSummary, Trajectory, build_trajectory, peak, population
from .scenario import Scenario, ScenarioError, build_scenario, load_scenario

__version__ = "0.1.0"
