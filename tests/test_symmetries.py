"""The model's exact symmetries, checked to roundoff on random chains.

Each relation maps a chain, pulse and grid onto another whose records
follow from the first run's with no reference and no oracle, so each costs
two runs at any N.  The chains are random chiral, detuned, lossy and spaced
ones (oracles.random_chain) at n_ph = 3 on a short grid:

- conjugation: (Delta_j, d_ratio) -> (-Delta_j, 1 - d_ratio) maps every
  carried block rho_{m,n} to its complex conjugate (either flip alone
  moves the blocks by up to 0.15 at N >= 2);
- periodicity: d_ratio -> d_ratio + 1 changes nothing;
- units: every rate, Delta and mu times 2 and t_bar, t_end and dt times 1/2
  leave the records as they are, which pins the pulse's sqrt(mu)
  normalisation and that every rate enters in units of Gamma;
- permutation: at d_ratio 0 with one Gamma_r = Gamma_l shared by every
  emitter, permuting the emitters' Delta_j and gamma_j permutes the
  populations.

The bound is a roundoff bound: these are exact identities of the model,
so the only difference is the rounding of differently ordered or
differently written arithmetic.  Measured on six chains per (N, relation):
at most 2.2e-15 on the blocks and 7.7e-15 on the permuted populations.
"""

from dataclasses import replace

import numpy as np
import pytest

from oracles import random_chain
from wgqed.integrator import IntegratorConfig, integrate
from wgqed.pulse import GaussianPulse
from wgqed.qubit_algebra import EmitterRegister, basis_index, excited

N_PH = 3
PULSE = GaussianPulse()
GRID = IntegratorConfig(dt=1e-3, t_end=8.0, record_stride=20)
ROUNDOFF = 1e-14


def _carried(states) -> np.ndarray:
    """Every carried block rho_{m,n}, m <= n, of every record, stacked."""
    return np.stack([states.block(m, n) for m in range(N_PH + 1) for n in range(m, N_PH + 1)])


def _with_emitters(chain, **changes):
    """The chain with each EmitterParams field in `changes` set from its per-emitter list."""
    emitters = tuple(replace(em, **{name: values[j] for name, values in changes.items()})
                     for j, em in enumerate(chain.emitters))
    return replace(chain, emitters=emitters)


def _deviation(n: int, relation: str, seed: int) -> float:
    """Largest difference between a random chain's records mapped by the
    relation and the records of the chain the relation maps it to."""
    rng = np.random.default_rng([23, n, seed])
    chain = random_chain(rng, n)
    pulse, grid = PULSE, GRID
    if relation == "permutation":  # one shared Gamma_r = Gamma_l, no spacing
        rate = rng.uniform(0.5, 2.0)
        chain = replace(_with_emitters(chain, gamma_r=[rate] * n, gamma_l=[rate] * n), d_ratio=0.0)
    base = integrate(chain, pulse, N_PH, grid)

    if relation == "conjugation":
        flipped = _with_emitters(chain, delta=[-em.delta for em in chain.emitters])
        image = integrate(replace(flipped, d_ratio=1.0 - chain.d_ratio), pulse, N_PH, grid)
        return np.abs(_carried(image) - _carried(base).conj()).max()
    if relation == "periodicity":
        image = integrate(replace(chain, d_ratio=chain.d_ratio + 1.0), pulse, N_PH, grid)
        return np.abs(image.blocks - base.blocks).max()
    if relation == "units":
        scaled = _with_emitters(chain, **{name: [2.0 * getattr(em, name) for em in chain.emitters]
                                          for name in ("gamma_r", "gamma_l", "gamma_spont", "delta")})
        image = integrate(scaled, GaussianPulse(mu=2.0 * pulse.mu, t_bar=0.5 * pulse.t_bar), N_PH,
                          IntegratorConfig(dt=0.5 * grid.dt, t_end=0.5 * grid.t_end,
                                           record_stride=grid.record_stride))
        assert np.array_equal(image.times, 0.5 * base.times)
        return np.abs(image.blocks - base.blocks).max()
    reg = EmitterRegister(n)
    perm = np.roll(np.arange(n), 1)  # emitter j of the image is emitter perm[j] of the chain
    image = integrate(_with_emitters(chain, **{
        name: [getattr(chain.emitters[k], name) for k in perm] for name in ("delta", "gamma_spont")
    }), pulse, N_PH, grid)
    # the image's state L' is the chain's state L with L[perm[j]] = L'[j]
    labels = ["".join("ge"[bit] for bit in bits) for bits in excited(reg)]
    source = [basis_index(reg, "".join(label[k] for k in np.argsort(perm))) for label in labels]
    diag = np.arange(reg.dim)
    pops, image_pops = base.physical()[:, diag, diag].real, image.physical()[:, diag, diag].real
    if n > 1:
        assert np.abs(image_pops - pops).max() > 1e-3  # the emitters differ: the permutation shows
    return np.abs(image_pops - pops[:, source]).max()


@pytest.mark.parametrize("relation", ["conjugation", "periodicity", "units", "permutation"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_model_symmetries_hold_to_roundoff(n, relation):
    for seed in range(2):
        assert _deviation(n, relation, seed) <= ROUNDOFF, seed
