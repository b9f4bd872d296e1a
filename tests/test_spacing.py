"""The drive phase follows from the emitter spacing alone.

Chains at d_ratio > 0, built through build_scenario with no k0d key, must
keep every diagonal block a density matrix, and in a lossless chain the
photons the pulse delivers must balance those the emitters hold and emit
into the two waveguide directions.
"""

import functools

import numpy as np
import pytest

from wgqed.integrator import integrate
from wgqed.pulse import amplitude
from wgqed.qubit_algebra import lowering_op
from wgqed.scenario import build_scenario


@functools.lru_cache(maxsize=None)
def spaced_run(n: int, d_ratio: float, ratio: float):
    """(scenario, StateTrajectory) of the default three-photon pulse on a
    lossless, resonant n-emitter chain with gamma_r = ratio."""
    sc = build_scenario({
        "n_emitters": str(n),
        "chain.d_ratio": repr(d_ratio),
        "emitter.gamma_r": repr(float(ratio)),
    })
    return sc, integrate(sc.chain, sc.pulse, sc.n_photons, sc.integrator)


@pytest.mark.parametrize("ratio", [1, 5])
@pytest.mark.parametrize("d_ratio", [0.1, 0.3, 0.5])
@pytest.mark.parametrize("n", [2, 3])
def test_diagonal_blocks_stay_positive_at_nonzero_spacing(n, d_ratio, ratio):
    sc, states = spaced_run(n, d_ratio, ratio)
    for k in range(sc.n_photons + 1):
        worst = np.linalg.eigvalsh(states.block(k, k)).min()
        assert worst >= -1e-12, (k, worst)


def trace_with(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Tr[op rho] for each matrix of the stack rho."""
    return np.einsum("ab,tba->t", op, rho)


@pytest.mark.parametrize("ratio", [1, 5])
@pytest.mark.parametrize("d_ratio", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("n", [2, 3])
def test_photon_number_balance(n, d_ratio, ratio):
    """n_bar(t) - n_bar(0) = int (-2 sqrt(n) g Re Tr[L_R^dag rho_{n-1,n}]
    - Tr[(L_R^dag L_R + L_L^dag L_L) rho_{n,n}]) dt for an n-photon pulse,
    n_bar = Tr[N rho_{n,n}], N the number of excited emitters.

    L_R and L_L are the right- and left-going output channels: emitter j
    sits at 2 pi d_ratio (j - 1) of phase from emitter 1, which a
    right-mover picks up and a left-mover sheds.  The drive term is the
    hierarchy's drive with L_in = L_R; the emission term is the number
    lost to the two channels.  The integral is Simpson's rule on the
    recorded grid."""
    sc, states = spaced_run(n, d_ratio, ratio)
    reg, n_ph = states.register, states.n_ph
    sigmas = [lowering_op(reg, j) for j in range(1, n + 1)]
    phases = np.exp(-2j * np.pi * d_ratio * np.arange(n))
    l_r = sum(np.sqrt(em.gamma_r) * p * s for em, p, s in zip(sc.chain.emitters, phases, sigmas))
    l_l = sum(np.sqrt(em.gamma_l) * p.conjugate() * s
              for em, p, s in zip(sc.chain.emitters, phases, sigmas))
    number = sum(s.conj().T @ s for s in sigmas)

    rho, coherence = states.block(n_ph, n_ph), states.block(n_ph - 1, n_ph)
    n_bar = trace_with(number, rho).real
    g = amplitude(sc.pulse, states.times)
    rate = (-2.0 * np.sqrt(n_ph) * g * trace_with(l_r.conj().T, coherence).real
            - trace_with(l_r.conj().T @ l_r + l_l.conj().T @ l_l, rho).real)

    h = sc.integrator.dt * sc.integrator.record_stride
    assert len(states.times) % 2 == 1
    assert np.allclose(np.diff(states.times), h, rtol=0.0, atol=1e-12)
    panels = h / 3.0 * (rate[:-2:2] + 4.0 * rate[1:-1:2] + rate[2::2])
    delivered = np.concatenate([[0.0], np.cumsum(panels)])
    residual = np.abs(n_bar[::2] - n_bar[0] - delivered).max()
    assert residual <= 1e-8, residual
    assert n_bar.max() > 0.1  # the pulse excites the chain
