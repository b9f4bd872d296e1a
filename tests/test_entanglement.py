"""Concurrence and concurrence fill against closed-form fixtures.

Production evaluates closed forms that hold on excitation-graded states
only (<a|rho|b> = 0 unless exc(a) = exc(b)).  Graded fixtures (W, the
{eg, ge} Bell states, product states, random graded states) run against
production, through the checked reader read_state (conftest's
concurrence_of and fill_of).  The rest (GHZ, |gg> + |ee>, random and
rotated states) run against the general eigensolver and partial-trace
forms in oracles.py, and production must refuse them.
"""

import dataclasses

import numpy as np
import pytest

from oracles import (
    closed_form_spin_flip_spectrum,
    one_to_other_c2,
    purity_fill,
    random_graded_density,
    spin_flip_concurrence,
    spin_flip_spectrum_by_eigensolver,
    structured_pair_state,
)
from wgqed.cli import simulate_scenario
from wgqed.entanglement import concurrence_fill
from wgqed.integrator import IntegratorConfig
from wgqed.qubit_algebra import EmitterRegister, basis_index, excited
from wgqed.scenario import load_scenario

from conftest import concurrence_of, fill_of, scenario_path


def ket2(a_gg=0.0, a_ge=0.0, a_eg=0.0, a_ee=0.0):
    reg = EmitterRegister(2)
    psi = np.zeros(4, dtype=complex)
    psi[basis_index(reg, "gg")] = a_gg
    psi[basis_index(reg, "ge")] = a_ge
    psi[basis_index(reg, "eg")] = a_eg
    psi[basis_index(reg, "ee")] = a_ee
    return psi / np.linalg.norm(psi)


def dm(psi):
    return np.outer(psi, psi.conj())


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def three_qubit_ket(amplitudes):
    reg = EmitterRegister(3)
    psi = np.zeros(8, dtype=complex)
    for label, amp in amplitudes.items():
        psi[basis_index(reg, label)] = amp
    return psi / np.linalg.norm(psi)


def assert_refused(measure, rho):
    """Production refuses a state that is not excitation-graded."""
    with pytest.raises(ValueError, match="not excitation-graded"):
        measure(rho)


GHZ = dm(three_qubit_ket({"ggg": 1.0, "eee": 1.0}))
W = dm(three_qubit_ket({"egg": 1.0, "geg": 1.0, "gge": 1.0}))
PRODUCT3 = dm(three_qubit_ket({"geg": 1.0}))


# ------------------------------------------------------------- concurrence


def test_bell_states_are_maximally_entangled():
    for psi in (ket2(a_ge=1, a_eg=1), ket2(a_ge=1, a_eg=-1)):
        assert concurrence_of(dm(psi)) == pytest.approx(1.0, abs=1e-12)
    for psi in (ket2(a_gg=1, a_ee=1), ket2(a_gg=1, a_ee=-1)):
        assert spin_flip_concurrence(dm(psi)) == pytest.approx(1.0, abs=1e-12)
        assert_refused(concurrence_of, dm(psi))


def test_product_states_are_unentangled():
    assert concurrence_of(dm(ket2(a_gg=1))) == pytest.approx(0.0, abs=1e-12)
    assert concurrence_of(dm(ket2(a_eg=1))) == pytest.approx(0.0, abs=1e-12)
    plus_plus = dm((np.kron([1, 1], [1, 1]) / 2.0).astype(complex))
    assert spin_flip_concurrence(plus_plus) == pytest.approx(0.0, abs=1e-9)
    assert_refused(concurrence_of, plus_plus)


def test_pure_superposition_concurrence_is_twice_amplitude_product():
    # for the oracle, square roots of the near-zero spin-flip eigenvalues
    # amplify eigensolver noise from ~1e-15 to ~1e-8, so its tolerance sits
    # above that floor; the closed form has no such floor
    for a in (0.1, 0.3, 0.5, 0.9):
        b = np.sqrt(1 - a**2)
        assert concurrence_of(dm(ket2(a_ge=a, a_eg=b))) == pytest.approx(2 * a * b, abs=1e-15)
        rho = dm(ket2(a_gg=a, a_ee=b))
        assert spin_flip_concurrence(rho) == pytest.approx(2 * a * b, abs=1e-7)
        assert_refused(concurrence_of, rho)


def test_werner_state_threshold():
    for bell, measure in (
        (dm(ket2(a_ge=1, a_eg=1)), concurrence_of),
        (dm(ket2(a_gg=1, a_ee=1)), spin_flip_concurrence),
    ):
        for p in (0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0):
            rho = p * bell + (1 - p) * np.eye(4) / 4
            expected = max(0.0, (3 * p - 1) / 2)
            assert measure(rho) == pytest.approx(expected, abs=1e-12)
    assert_refused(concurrence_of, 0.5 * dm(ket2(a_gg=1, a_ee=1)) + 0.5 * np.eye(4) / 4)


def test_concurrence_is_invariant_under_local_unitaries():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho = random_density(rng, 4)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        c0 = spin_flip_concurrence(rho)
        c1 = spin_flip_concurrence(u @ rho @ u.conj().T)
        assert c1 == pytest.approx(c0, abs=1e-10)
        assert_refused(concurrence_of, rho)
        # local phase rotations are the local unitaries that keep a state graded
        graded = random_graded_density(rng, 2)
        phases = np.kron(np.exp(1j * rng.uniform(0, 2 * np.pi, 2)), np.exp(1j * rng.uniform(0, 2 * np.pi, 2)))
        rotated = phases[:, None] * graded * phases.conj()[None, :]
        assert concurrence_of(rotated) == pytest.approx(concurrence_of(graded), abs=1e-15)


def test_concurrence_stays_in_unit_interval():
    rng = np.random.default_rng(12)
    for _ in range(50):
        rho = random_density(rng, 4)
        assert 0.0 <= spin_flip_concurrence(rho) <= 1.0 + 1e-12
        assert_refused(concurrence_of, rho)
        assert 0.0 <= concurrence_of(random_graded_density(rng, 2)) <= 1.0


def test_subnormalized_states_are_renormalized():
    """Loss-model outputs carry trace < 1; measures report the conditional
    (no-loss) state, never a spuriously inflated or deflated value."""
    assert concurrence_of(0.4 * dm(ket2(a_ge=1, a_eg=1))) == pytest.approx(1.0, abs=1e-12)
    assert fill_of(0.4 * W) == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert spin_flip_concurrence(0.4 * dm(ket2(a_gg=1, a_ee=1))) == pytest.approx(1.0, abs=1e-12)
    assert purity_fill(0.4 * GHZ) == pytest.approx(1.0, abs=1e-9)


def random_graded_stack(n):
    return np.stack([random_graded_density(np.random.default_rng(k), n) for k in range(5)])


def test_state_validation_rejects_garbage():
    herm_breaker = np.eye(4, dtype=complex) / 4
    herm_breaker[0, 1] = 0.5
    indefinite = np.diag([0.8, 0.4, -0.2, 0.0]).astype(complex)
    oracle_good = np.stack([random_density(np.random.default_rng(k), 4) for k in range(5)])
    for measure, good in (
        (concurrence_of, random_graded_stack(2)),
        (spin_flip_concurrence, oracle_good),
    ):
        with pytest.raises(ValueError):
            measure(np.eye(2, dtype=complex))  # wrong dimension
        with pytest.raises(ValueError):
            measure(herm_breaker)
        with pytest.raises(ValueError):
            measure(3.0 * np.eye(4, dtype=complex))  # trace 12
        with pytest.raises(ValueError):
            measure(np.zeros((4, 4), dtype=complex))  # trace 0
        with pytest.raises(ValueError):
            measure(indefinite)

        # in a stack, one bad record among good ones is caught and named
        for bad, match in (
            (herm_breaker, r"hermitian .* at record 3$"),
            (3.0 * np.eye(4, dtype=complex), r"trace 12\.0 .* at record 3$"),
            (indefinite, r"min eig -2\.000e-01\) at record 3$"),
        ):
            stack = good.copy()
            stack[3] = bad
            with pytest.raises(ValueError, match=match):
                measure(stack)
        with pytest.raises(ValueError):
            measure(good.reshape(4, 5, 4))  # wrong dimension


def test_production_names_the_first_ungraded_record():
    stack = random_graded_stack(2)
    stack[3, 0, 3] = stack[3, 3, 0] = 0.25  # a gg-ee coherence
    with pytest.raises(ValueError, match=r"entry 2\.500e-01 outside the grading\) at record 3$"):
        concurrence_of(stack)
    with pytest.raises(ValueError, match=r"trace 2\.0 .* at record 2$"):
        fill_of(np.stack([GHZ, W, 2.0 * PRODUCT3]))
    with pytest.raises(ValueError, match=r"outside the grading\) at record 0$"):
        fill_of(np.stack([GHZ, W, PRODUCT3]))


def test_real_inputs_are_measured_and_left_unchanged():
    """Real float64 density matrices, alone or stacked, give the same values
    as their complex casts, and the caller's arrays are not written to."""
    werner = 0.7 * dm(ket2(a_ge=1.0, a_eg=1.0)).real + 0.3 * np.eye(4) / 4
    pairs = np.stack([np.eye(4) / 4, np.diag([0.5, 0.2, 0.2, 0.1]), werner])
    triples = np.stack([np.eye(8) / 8, W.real, PRODUCT3.real, np.diag(np.arange(1.0, 9.0)) / 36])
    oracle_triples = np.stack([np.eye(8) / 8, GHZ.real, W.real, np.diag(np.arange(1.0, 9.0)) / 36])
    for measure, stack in (
        (concurrence_of, pairs),
        (fill_of, triples),
        (spin_flip_concurrence, pairs),
        (purity_fill, oracle_triples),
    ):
        for real in (stack, stack[2]):
            before = real.copy()
            assert real.dtype == np.float64
            assert np.array_equal(measure(real), measure(real.astype(complex)))
            assert np.array_equal(real, before)


# ------------------------------------------- closed-form eigenvalue oracle


def test_closed_form_spin_flip_spectrum_on_structured_states():
    """For the X-shaped family the driven pair visits, the spin-flip spectrum
    has the closed form {0, 4 rho6^2, (rho4 +/- sqrt(rho1 rho16))^2}; the
    numerical eigensolver must agree to 1e-10, and the assembled concurrence
    to 1e-7 (square-rooting near-zero eigenvalues amplifies solver noise).
    The r4 = 0 slice is graded, and production must match the closed
    spectrum's concurrence to roundoff."""
    rng = np.random.default_rng(2024)
    for _ in range(100):
        rho, (r1, r4, r6, r16) = structured_pair_state(rng)
        lam_closed = closed_form_spin_flip_spectrum(r1, r4, r6, r16)
        lam_num = spin_flip_spectrum_by_eigensolver(rho)
        assert np.allclose(lam_num, lam_closed, atol=1e-10)

        roots = np.sqrt(np.clip(lam_closed, 0.0, None))[::-1]
        c_closed = max(0.0, roots[0] - roots[1] - roots[2] - roots[3])
        assert spin_flip_concurrence(rho) == pytest.approx(c_closed, abs=1e-7)
        assert_refused(concurrence_of, rho)

        graded = rho.copy()
        graded[0, 3] = graded[3, 0] = 0.0
        roots = np.sqrt(closed_form_spin_flip_spectrum(r1, 0.0, r6, r16))[::-1]
        c_closed = max(0.0, roots[0] - roots[1] - roots[2] - roots[3])
        assert concurrence_of(graded) == pytest.approx(c_closed, abs=1e-15)


# --------------------------------------- closed forms against the oracles


@pytest.mark.parametrize("n", [2, 3])
def test_closed_forms_match_oracles_on_random_graded_states(n):
    """On random graded states, traces below one included, the closed forms
    agree with the eigensolver concurrence (to its ~sqrt(eps) floor on the
    near-zero spin-flip roots) and with the partial-trace fill (roundoff)."""
    rng = np.random.default_rng(60 + n)
    states = np.stack([
        random_graded_density(rng, n, trace=tr)
        for tr in np.concatenate([np.ones(40), rng.uniform(0.05, 1.0, 160)])
    ])
    if n == 2:
        production, oracle, tol = concurrence_of(states), spin_flip_concurrence(states), 1.5e-8
    else:
        production, oracle, tol = fill_of(states), purity_fill(states), 1e-13
    assert np.abs(production - oracle).max() <= tol
    assert np.count_nonzero(oracle > 0.05) >= 20  # not a suite of zeros


def test_symmetric_populations_give_fill_of_one_population():
    """p_1 = p_2 = p_3 = p gives an equilateral triangle of side 4p(1 - p),
    so F = 4p(1 - p)."""
    rng = np.random.default_rng(70)
    one = [basis_index(EmitterRegister(3), s) for s in ("egg", "geg", "gge")]
    two = [basis_index(EmitterRegister(3), s) for s in ("eeg", "ege", "gee")]
    for _ in range(20):
        w0, w1, w2, w3 = rng.dirichlet(np.ones(4))
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0], rho[7, 7] = w0, w3
        rho[one, one], rho[two, two] = w1 / 3, w2 / 3
        tr = rng.uniform(0.1, 1.0)
        p = w1 / 3 + 2 * w2 / 3 + w3
        assert fill_of(tr * rho) == pytest.approx(4 * p * (1 - p), abs=1e-14)


def _closed_form_in_long_double(phys):
    rho = phys.astype(np.clongdouble)
    tr = np.einsum("tii->t", rho).real
    excess = np.abs(rho[:, 2, 1]) - np.sqrt(rho[:, 0, 0].real * rho[:, 3, 3].real)
    return np.maximum(0.0, 2.0 * excess / tr)


@pytest.mark.parametrize("n_ph, stride, ratio", [(3, 10, 1.0), (3, 10, 5.0), (1, 1, 5.0)])
def test_shipped_concurrence_matches_long_double_closed_form(n_ph, stride, ratio):
    """On the shipped two-emitter chain (and its record-dense one-photon
    shape), the concurrence equals the closed form evaluated in long double
    from the same states to 1e-15, and the eigensolver oracle to sqrt(eps).

    That second bound covers the eigensolver's own error, not the closed
    form's: the spin-flip eigenvalues rho_gg rho_ee are exactly 0 at one
    photon and tiny otherwise, roundoff of order eps in them becomes order
    sqrt(eps) ~ 1.5e-8 after the square root (measured: 8.9e-9 at
    C = 0.711 for one photon, ratio 5)."""
    sc = load_scenario(scenario_path("two_emitter_chirality_sweep")).with_ratio(ratio)
    sc = dataclasses.replace(
        sc, n_photons=n_ph, integrator=IntegratorConfig(dt=1e-3, t_end=12.0, record_stride=stride)
    )
    series, states = simulate_scenario(sc)
    concurrence, phys = series["concurrence"], states.physical()
    assert np.abs(concurrence - _closed_form_in_long_double(phys)).max() <= 1e-15
    assert np.abs(concurrence - spin_flip_concurrence(phys)).max() <= np.sqrt(np.finfo(float).eps)
    if ratio > 1.0:  # the symmetric pair stays below 3e-8 (gate 3)
        assert concurrence.max() > 0.1


@pytest.mark.parametrize("stem", ["three_emitter_chirality_sweep", "three_emitter_lossy_sweep"])
def test_shipped_fill_matches_partial_trace_fill(scenario_run, stem):
    """The closed-form fill of the shipped 3-emitter runs (the lossy one with
    a trace below one) equals the partial-trace oracle to roundoff."""
    for ratio in (1.0, 5.0):
        series, states = scenario_run(stem, ratio)
        assert np.abs(series["fill"] - purity_fill(states.physical())).max() <= 1e-13


@pytest.mark.parametrize("stem", ["three_emitter_chirality_sweep", "three_emitter_detuned_sweep",
                                  "three_emitter_lossy_sweep"])
def test_fill_is_within_two_ulps_of_its_long_double_value(scenario_run, stem):
    """The fill of the shipped 3-emitter populations at ratios 1-5 is within
    2 ulps of Heron's product evaluated in long double (Kahan's ordering)
    from the same float64 sides.  Near-flat triangles of the sides occur on
    these runs, where the plain (16/3) Q (Q - a)(Q - b)(Q - c) loses up to
    thousands of ulps.

    The populations are rounded to multiples of 2^-40, with the ground
    population making the trace exactly 1: every sum of them is then exact
    in any order, so the sides below are bit for bit the ones production
    forms."""
    reg = EmitterRegister(3)
    for ratio in (1.0, 2.0, 3.0, 4.0, 5.0):
        _, states = scenario_run(stem, ratio)
        diagonal = states.propagator.entry(states.blocks, states.n_ph, states.n_ph, *np.diag_indices(8))
        populations = np.round(diagonal.real * 2.0**40)
        populations /= 2.0**40
        populations[:, 0] = 1.0 - populations[:, 1:].sum(axis=-1)
        p = populations @ excited(reg)
        sides = np.clip(4.0 * p * (1.0 - p), 0.0, 1.0).astype(np.longdouble)
        c, b, a = np.moveaxis(np.sort(sides, axis=-1), -1, 0)
        area4 = (a + (b + c)) * np.maximum(0.0, c - (a - b)) * (c + (a - b)) * (a + (b - c)) / 3
        expected = np.sqrt(np.sqrt(area4))
        fill = concurrence_fill(populations)
        ulps = np.abs(fill - expected) / np.spacing(expected.astype(float))
        assert np.all((ulps <= 2.0) | (fill == expected)), (ratio, float(ulps.max()))


# --------------------------------------------------------- one-to-other c^2


def test_one_to_other_c2_fixtures():
    for i in (1, 2, 3):
        assert one_to_other_c2(GHZ, i) == pytest.approx(1.0, abs=1e-12)
        assert one_to_other_c2(W, i) == pytest.approx(8.0 / 9.0, abs=1e-12)
        assert one_to_other_c2(PRODUCT3, i) == pytest.approx(0.0, abs=1e-12)


def test_one_to_other_c2_validates_index():
    for bad in (0, 4, -1):
        with pytest.raises(ValueError):
            one_to_other_c2(GHZ, bad)


def test_one_to_other_c2_range_on_random_states():
    rng = np.random.default_rng(13)
    for _ in range(30):
        rho = random_density(rng, 8)
        for i in (1, 2, 3):
            c2 = one_to_other_c2(rho, i)
            assert -1e-12 <= c2 <= 1.0 + 1e-12


# ---------------------------------------------------------- concurrence fill


def test_fill_canonical_fixtures():
    assert purity_fill(GHZ) == pytest.approx(1.0, abs=1e-9)
    assert_refused(fill_of, GHZ)
    assert fill_of(W) == pytest.approx(8.0 / 9.0, abs=1e-9)
    assert fill_of(PRODUCT3) == pytest.approx(0.0, abs=1e-9)


def test_fill_vanishes_when_only_two_parties_entangle():
    ground3 = np.diag([1.0, 0.0]).astype(complex)
    rho = np.kron(dm(ket2(a_gg=1, a_ee=1)), ground3)
    assert purity_fill(rho) == pytest.approx(0.0, abs=1e-12)
    assert_refused(fill_of, rho)
    assert fill_of(np.kron(dm(ket2(a_ge=1, a_eg=1)), ground3)) == pytest.approx(0.0, abs=1e-12)


def _permuted(rho, perm):
    """rho with the emitters relabelled by permuting the basis-string positions."""
    reg = EmitterRegister(3)
    lut = np.empty(8, dtype=int)
    for idx in range(8):
        label = format(idx, "03b").replace("0", "g").replace("1", "e")
        lut[idx] = basis_index(reg, "".join(label[p - 1] for p in perm))
    return rho[np.ix_(lut, lut)]


def test_fill_is_permutation_invariant():
    rng = np.random.default_rng(14)
    for _ in range(10):
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        assert_refused(fill_of, rho)
        graded = random_graded_density(rng, 3)
        for measure, state in ((purity_fill, rho), (fill_of, graded)):
            base = measure(state)
            for perm in ((2, 1, 3), (3, 2, 1), (2, 3, 1)):
                assert measure(_permuted(state, perm)) == pytest.approx(base, abs=1e-12)


def test_fill_stays_in_unit_interval():
    rng = np.random.default_rng(15)
    for _ in range(50):
        rho = random_density(rng, 8)
        assert 0.0 <= purity_fill(rho) <= 1.0 + 1e-12
        assert_refused(fill_of, rho)
        assert 0.0 <= fill_of(random_graded_density(rng, 3)) <= 1.0


def test_fill_clamps_mixed_state_triangle_violations_to_zero():
    """The triangle inequality among the squared one-to-other concurrences
    holds for pure states; mixed states can break it.  This classical
    mixture has sides (1, 3/4, 0) and must report zero fill rather than
    raise or go complex."""
    mix = 0.5 * np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2) + 0.5 * np.kron(
        np.diag([0.0, 1.0]), np.diag([1.0, 0.0])
    )
    rho = np.kron(mix, np.diag([1.0, 0.0])).astype(complex)
    sides = [one_to_other_c2(rho, i) for i in (1, 2, 3)]
    assert sides[0] > sides[1] + sides[2]  # genuinely violated
    assert fill_of(rho) == 0.0
    assert purity_fill(rho) == 0.0


def test_fill_counts_mixedness_on_a_separable_mixture():
    """The fill's sides are pure-state one-to-other concurrences, so on a
    mixed state it counts mixedness as entanglement: the separable classical
    mixture of egg, geg and gge reads the W state's 8/9."""
    mix = sum(dm(three_qubit_ket({label: 1.0})) for label in ("egg", "geg", "gge")) / 3
    assert np.allclose(np.diagonal(mix), np.diagonal(W), rtol=0, atol=1e-15)  # W without coherences
    assert fill_of(mix) == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert fill_of(mix) == pytest.approx(fill_of(W), abs=1e-15)
