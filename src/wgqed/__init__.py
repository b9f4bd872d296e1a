"""Driven-dissipative dynamics of emitter chains coupled to a 1-D waveguide,
driven by few-photon Fock-state Gaussian wavepackets."""

from .qubit_algebra import EmitterRegister, lowering_op, commutator
from .pulse import GaussianPulse, amplitude, amplitude_rate
from .liouvillian import ChainConfig, EmitterParams, apply_total, coupling_matrix
from .integrator import IntegratorConfig, IntegrationBlowUpError, StateTrajectory, integrate
from .entanglement import concurrence_fill, read_state, wootters_concurrence
from .observables import build_trajectory, peak, population
from .scenario import Scenario, ScenarioError, build_scenario, load_scenario

__version__ = "0.1.0"
