"""The dissipator against independent brute-force transcriptions of its parts."""

from dataclasses import replace

import numpy as np
import pytest

from wgqed.liouvillian import ChainConfig, EmitterParams, apply_total, coupling_matrix
from wgqed.qubit_algebra import EmitterRegister, basis_index, lowering_op


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def random_chain(rng, n):
    emitters = tuple(
        EmitterParams(
            gamma_r=rng.uniform(0.0, 5.0),
            gamma_l=rng.uniform(0.0, 2.0),
            gamma_spont=rng.uniform(0.0, 1.0),
            delta=rng.uniform(-1.0, 1.0),
        )
        for _ in range(n)
    )
    return ChainConfig(emitters, d_ratio=rng.uniform(0.0, 0.5))


# ---------------------------------------------------------------- validation


def test_emitter_params_reject_negative_rates():
    for field in ("gamma_r", "gamma_l", "gamma_spont"):
        with pytest.raises(ValueError):
            EmitterParams(**{field: -0.1})
    with pytest.raises(ValueError):
        EmitterParams(delta=float("nan"))


def test_chain_config_validation():
    for empty in ((), (e for e in []), iter(())):
        with pytest.raises(ValueError, match="chain needs at least one emitter"):
            ChainConfig(empty)
    with pytest.raises(ValueError):
        ChainConfig((EmitterParams(),), d_ratio=float("nan"))
    with pytest.raises(TypeError):  # the drive phase is not a setting
        ChainConfig((EmitterParams(),), k0d=(0.0,))
    cfg = ChainConfig((EmitterParams(),) * 3, d_ratio=0.3)
    assert cfg.k0d == (0.0, 2 * np.pi * 0.3, 4 * np.pi * 0.3)
    cfg = ChainConfig(EmitterParams() for _ in range(2))
    assert cfg.emitters == (EmitterParams(), EmitterParams())
    assert cfg.n_emitters == 2
    assert cfg.register.dim == 4


def test_operator_dimension_is_checked():
    cfg = ChainConfig((EmitterParams(),))
    with pytest.raises(ValueError):
        apply_total(cfg, np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        apply_total(cfg, np.zeros((3, 4, 4), dtype=complex))


# ------------------------------------------------- brute-force transcriptions


def closed_reference(cfg, rho):
    """-i (H_eff rho - rho H_eff^dag), H_eff = sum_j (delta_j - i gamma_j / 2) sd_j s_j."""
    reg = cfg.register
    h_eff = np.zeros((reg.dim, reg.dim), dtype=complex)
    for j, em in enumerate(cfg.emitters, start=1):
        s = lowering_op(reg, j)
        h_eff += (em.delta - 0.5j * em.gamma_spont) * (s.conj().T @ s)
    return -1j * (h_eff @ rho - rho @ h_eff.conj().T)


def pure_decay_reference(cfg, rho):
    """Each emitter's own decay into the waveguide at rate gamma_r + gamma_l."""
    reg = cfg.register
    out = np.zeros_like(rho)
    for j, em in enumerate(cfg.emitters, start=1):
        s = lowering_op(reg, j)
        num = s.conj().T @ s
        rate = 0.5 * (em.gamma_r + em.gamma_l)
        out -= rate * (num @ rho - 2.0 * (s @ rho @ s.conj().T) + rho @ num)
    return out


def cooperative_reference(cfg, rho):
    """Waveguide-mediated decay between distinct emitters, pair by pair."""
    reg = cfg.register
    n = cfg.n_emitters
    out = np.zeros_like(rho)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            ei, ej = cfg.emitters[i - 1], cfg.emitters[j - 1]
            if i > j:
                k_ij = np.sqrt(ei.gamma_r * ej.gamma_r)
            else:
                k_ij = np.sqrt(ei.gamma_l * ej.gamma_l)
            si, sj = lowering_op(reg, i), lowering_op(reg, j)
            ph = np.exp(2j * np.pi * cfg.d_ratio * abs(i - j))
            fwd = si.conj().T @ sj @ rho - sj @ rho @ si.conj().T
            bwd = rho @ sj.conj().T @ si - si @ rho @ sj.conj().T
            out -= k_ij * (ph * fwd + np.conj(ph) * bwd)
    return out


def waveguide_only(cfg, coupled=None):
    """cfg without detuning or spontaneous loss; with `coupled` (0-based),
    every other emitter is also cut off from the waveguide."""
    emitters = tuple(
        replace(em, delta=0.0, gamma_spont=0.0)
        if coupled in (None, j)
        else EmitterParams(gamma_r=0.0, gamma_l=0.0)
        for j, em in enumerate(cfg.emitters)
    )
    return replace(cfg, emitters=emitters)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coupling_matrix_matches_longhand_entries(n):
    rng = np.random.default_rng(70 + n)
    cfg = random_chain(rng, n)
    d = coupling_matrix(cfg)
    assert d.shape == (n, n)
    for i, ei in enumerate(cfg.emitters):
        for j, ej in enumerate(cfg.emitters):
            if i == j:
                expected = 0.5 * (ei.gamma_r + ei.gamma_l)
            elif i > j:
                expected = np.sqrt(ei.gamma_r * ej.gamma_r) * np.exp(
                    2j * np.pi * cfg.d_ratio * (i - j)
                )
            else:
                expected = np.sqrt(ei.gamma_l * ej.gamma_l) * np.exp(
                    2j * np.pi * cfg.d_ratio * (j - i)
                )
            assert d[i, j] == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_part_matches_brute_force(n):
    # with no waveguide coupling only the closed part is left
    rng = np.random.default_rng(10 + n)
    cfg = random_chain(rng, n)
    cfg = replace(
        cfg, emitters=tuple(replace(em, gamma_r=0.0, gamma_l=0.0) for em in cfg.emitters)
    )
    rho = random_hermitian(rng, cfg.register.dim)
    assert np.allclose(apply_total(cfg, rho), closed_reference(cfg, rho), atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pure_decay_matches_brute_force(n):
    # one waveguide-coupled emitter at a time has no partner to decay with
    rng = np.random.default_rng(20 + n)
    cfg = random_chain(rng, n)
    rho = random_hermitian(rng, cfg.register.dim)
    for j in range(n):
        single = waveguide_only(cfg, coupled=j)
        expected = pure_decay_reference(single, rho)
        assert np.allclose(apply_total(single, rho), expected, atol=1e-14)


def test_cooperative_part_is_zero_for_one_emitter():
    # D has no off-diagonal entry, so only the emitter's own decay is left
    cfg = ChainConfig((EmitterParams(gamma_r=3.0),))
    rho = random_hermitian(np.random.default_rng(0), 2)
    assert coupling_matrix(cfg).shape == (1, 1)
    assert np.allclose(apply_total(cfg, rho), pure_decay_reference(cfg, rho), atol=1e-14)


@pytest.mark.parametrize("n", [2, 3])
def test_cooperative_part_matches_brute_force(n):
    # what the chain adds over its emitters coupled one at a time
    rng = np.random.default_rng(30 + n)
    cfg = waveguide_only(random_chain(rng, n))
    rho = random_hermitian(rng, cfg.register.dim)
    alone = sum(apply_total(waveguide_only(cfg, coupled=j), rho) for j in range(n))
    cooperative = apply_total(cfg, rho) - alone
    assert np.allclose(cooperative, cooperative_reference(cfg, rho), atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("apply", [apply_total])
def test_maps_act_on_stacks_matrix_by_matrix(apply, n):
    """A (k, d, d) stack maps to the stack of per-matrix images, bit for bit."""
    rng = np.random.default_rng(60 + n)
    cfg = random_chain(rng, n)
    dim = cfg.register.dim
    stack = rng.normal(size=(5, dim, dim)) + 1j * rng.normal(size=(5, dim, dim))
    out = apply(cfg, stack)
    assert out.shape == stack.shape
    assert np.array_equal(out, np.array([apply(cfg, rho) for rho in stack]))


def test_total_is_sum_of_parts():
    for n in (1, 2, 3):
        rng = np.random.default_rng(40 + n)
        cfg = random_chain(rng, n)
        rho = random_hermitian(rng, cfg.register.dim)
        parts = (
            closed_reference(cfg, rho)
            + pure_decay_reference(cfg, rho)
            + cooperative_reference(cfg, rho)
        )
        assert np.allclose(apply_total(cfg, rho), parts, atol=1e-14)


# --------------------------------------------------------- structural checks


@pytest.mark.parametrize("n", [1, 2, 3])
def test_total_preserves_hermiticity(n):
    rng = np.random.default_rng(50 + n)
    cfg = random_chain(rng, n)
    rho = random_hermitian(rng, 2**n)
    out = apply_total(cfg, rho)
    assert np.allclose(out, out.conj().T, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_total_is_traceless_without_spontaneous_loss(n):
    rng = np.random.default_rng(60 + n)
    emitters = tuple(
        EmitterParams(
            gamma_r=rng.uniform(0.0, 5.0),
            gamma_l=rng.uniform(0.0, 2.0),
            delta=rng.uniform(-1.0, 1.0),
        )
        for _ in range(n)
    )
    cfg = ChainConfig(emitters, d_ratio=rng.uniform(0.0, 0.5))
    rho = random_hermitian(rng, 2**n)
    assert abs(np.trace(apply_total(cfg, rho))) < 1e-12


def test_spontaneous_loss_drains_excited_population():
    gamma = 0.75
    cfg = ChainConfig((EmitterParams(gamma_r=0.0, gamma_l=0.0, gamma_spont=gamma),))
    rho = np.diag([0.0, 1.0]).astype(complex)
    out = apply_total(cfg, rho)
    # gamma is the population decay rate and nothing is recycled to ground
    assert out[1, 1].real == pytest.approx(-gamma)
    assert out[0, 0].real == pytest.approx(0.0)


def test_single_emitter_population_decays_at_total_waveguide_rate():
    cfg = ChainConfig((EmitterParams(gamma_r=2.0, gamma_l=0.5),))
    rho = np.diag([0.0, 1.0]).astype(complex)
    out = apply_total(cfg, rho)
    assert out[1, 1].real == pytest.approx(-2.5)
    assert out[0, 0].real == pytest.approx(2.5)


def test_colocated_symmetric_pair_has_antisymmetric_dark_state():
    cfg = ChainConfig((EmitterParams(), EmitterParams()), d_ratio=0.0)
    reg = EmitterRegister(2)
    psi = np.zeros(4, dtype=complex)
    psi[basis_index(reg, "eg")] = 1 / np.sqrt(2)
    psi[basis_index(reg, "ge")] = -1 / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    assert np.abs(apply_total(cfg, rho)).max() < 1e-14

    # ... while the symmetric partner superradiates at twice the single rate
    psi[basis_index(reg, "ge")] *= -1
    rho = np.outer(psi, psi.conj())
    out = apply_total(cfg, rho)
    bright_rate = -(
        out[basis_index(reg, "eg"), basis_index(reg, "eg")]
        + out[basis_index(reg, "ge"), basis_index(reg, "ge")]
    ).real
    assert bright_rate == pytest.approx(2.0 * (1.0 + 1.0))


def test_separated_pair_rates_follow_standing_wave_pattern():
    # at spacing D wavelengths the symmetric/antisymmetric single-excitation
    # states of a symmetric pair decay at (Gamma_r + Gamma_l)(1 +/- cos 2*pi*D)
    for d_ratio in (0.0, 0.1, 0.25, 0.4):
        cfg = ChainConfig((EmitterParams(), EmitterParams()), d_ratio=d_ratio)
        reg = EmitterRegister(2)
        for sign in (1.0, -1.0):
            psi = np.zeros(4, dtype=complex)
            psi[basis_index(reg, "eg")] = 1 / np.sqrt(2)
            psi[basis_index(reg, "ge")] = sign / np.sqrt(2)
            rho = np.outer(psi, psi.conj())
            rate = -np.real(psi.conj() @ apply_total(cfg, rho) @ psi)
            assert rate == pytest.approx(
                2.0 * (1.0 + sign * np.cos(2 * np.pi * d_ratio)), abs=1e-12
            )


def test_fully_chiral_coupling_is_strictly_cascaded():
    # with gamma_l = 0 the upstream emitter never feels the downstream one:
    # an excitation on emitter 2 leaves emitter 1's reduced state untouched
    cfg = ChainConfig(
        (EmitterParams(gamma_r=1.0, gamma_l=0.0), EmitterParams(gamma_r=1.0, gamma_l=0.0))
    )
    reg = EmitterRegister(2)
    rho = np.zeros((4, 4), dtype=complex)
    rho[basis_index(reg, "ge"), basis_index(reg, "ge")] = 1.0
    # only the (i=2, j=1) forward channel exists and it annihilates this
    # state, so no cooperative term is left
    expected = closed_reference(cfg, rho) + pure_decay_reference(cfg, rho)
    assert np.abs(apply_total(cfg, rho) - expected).max() < 1e-14


# ------------------------------------------------------------ output channels


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_couplings_are_the_output_channels(n):
    """Every coupling of a chiral, detuned, lossy, spaced chain follows from
    its channels r_j = sqrt(Gamma_jr) e^{-i k0d_j} and l_j = sqrt(Gamma_jl)
    e^{+i k0d_j}: D's strict triangles are their Gram matrices, J = D + D^dag
    is the sum of both, L_in is the right-moving one, and the jumps of
    apply_total are sum_c L_c X L_c^dag with L_c = sum_j c_j s_j."""
    rng = np.random.default_rng(80 + n)
    cfg = random_chain(rng, n)
    k0d = 2 * np.pi * cfg.d_ratio * np.arange(n)
    r = np.sqrt([em.gamma_r for em in cfg.emitters]) * np.exp(-1j * k0d)
    l = np.sqrt([em.gamma_l for em in cfg.emitters]) * np.exp(1j * k0d)
    assert cfg.channels.shape == (2, n)
    assert np.allclose(cfg.channels, [r, l], rtol=0.0, atol=1e-15)

    d = coupling_matrix(cfg)
    gram = [np.outer(c.conj(), c) for c in cfg.channels]
    assert np.allclose(np.tril(d, -1), np.tril(gram[0], -1), rtol=0.0, atol=1e-14)
    assert np.allclose(np.triu(d, 1), np.triu(gram[1], 1), rtol=0.0, atol=1e-14)
    assert np.abs(d + d.conj().T - sum(gram)).max() <= 1e-14

    s = [lowering_op(cfg.register, j) for j in range(1, n + 1)]
    l_r, l_l = (sum(c_j * s_j for c_j, s_j in zip(c, s)) for c in cfg.channels)
    assert np.allclose(cfg.input_operator, l_r, rtol=0.0, atol=1e-15)

    h = sum((em.delta - 0.5j * em.gamma_spont) * s_j.conj().T @ s_j
            for em, s_j in zip(cfg.emitters, s))
    h = h - 1j * sum(d[i, j] * s[i].conj().T @ s[j] for i in range(n) for j in range(n))
    for _ in range(3):
        x = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        expected = -1j * (h @ x - x @ h.conj().T) + sum(c @ x @ c.conj().T for c in (l_r, l_l))
        assert np.abs(apply_total(cfg, x) - expected).max() <= 1e-14 * np.abs(expected).max()


def test_cached_arrays_are_read_only():
    """A frozen chain's physics cannot be changed through the arrays it caches:
    each refuses a write, and the chain still builds what a fresh equal one does."""
    cfg = random_chain(np.random.default_rng(9), 3)
    for array in (cfg.channels, cfg.input_operator, *cfg._operators):
        with pytest.raises(ValueError, match="read-only"):
            array[...] *= 2
    fresh = ChainConfig(cfg.emitters, cfg.d_ratio)
    assert fresh == cfg
    assert np.array_equal(fresh.input_operator, cfg.input_operator)
    for mine, theirs in zip(cfg._operators, fresh._operators):
        assert np.array_equal(mine, theirs)
