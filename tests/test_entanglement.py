"""Concurrence and concurrence fill against closed-form fixtures."""

import numpy as np
import pytest

from oracles import (
    closed_form_spin_flip_spectrum,
    spin_flip_spectrum_by_eigensolver,
    structured_pair_state,
)
from wgqed.entanglement import concurrence_fill, one_to_other_c2, wootters_concurrence
from wgqed.qubit_algebra import EmitterRegister, basis_index


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


GHZ = None  # built in module scope below for reuse


def three_qubit_ket(amplitudes):
    reg = EmitterRegister(3)
    psi = np.zeros(8, dtype=complex)
    for label, amp in amplitudes.items():
        psi[basis_index(reg, label)] = amp
    return psi / np.linalg.norm(psi)


GHZ = dm(three_qubit_ket({"ggg": 1.0, "eee": 1.0}))
W = dm(three_qubit_ket({"egg": 1.0, "geg": 1.0, "gge": 1.0}))
PRODUCT3 = dm(three_qubit_ket({"geg": 1.0}))


# ------------------------------------------------------------- concurrence


def test_bell_states_are_maximally_entangled():
    bells = [
        ket2(a_gg=1, a_ee=1),
        ket2(a_gg=1, a_ee=-1),
        ket2(a_ge=1, a_eg=1),
        ket2(a_ge=1, a_eg=-1),
    ]
    for psi in bells:
        assert wootters_concurrence(dm(psi)) == pytest.approx(1.0, abs=1e-12)


def test_product_states_are_unentangled():
    assert wootters_concurrence(dm(ket2(a_gg=1))) == pytest.approx(0.0, abs=1e-12)
    plus_plus = np.kron([1, 1], [1, 1]) / 2.0
    assert wootters_concurrence(dm(plus_plus.astype(complex))) == pytest.approx(0.0, abs=1e-9)


def test_pure_superposition_concurrence_is_twice_amplitude_product():
    # square roots of the near-zero spin-flip eigenvalues amplify eigensolver
    # noise from ~1e-15 to ~1e-8, so the tolerance sits above that floor
    for a in (0.1, 0.3, 0.5, 0.9):
        b = np.sqrt(1 - a**2)
        rho = dm(ket2(a_gg=a, a_ee=b))
        assert wootters_concurrence(rho) == pytest.approx(2 * a * b, abs=1e-7)


def test_werner_state_threshold():
    bell = dm(ket2(a_gg=1, a_ee=1))
    for p in (0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0):
        rho = p * bell + (1 - p) * np.eye(4) / 4
        expected = max(0.0, (3 * p - 1) / 2)
        assert wootters_concurrence(rho) == pytest.approx(expected, abs=1e-12)


def test_concurrence_is_invariant_under_local_unitaries():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho = random_density(rng, 4)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        c0 = wootters_concurrence(rho)
        c1 = wootters_concurrence(u @ rho @ u.conj().T)
        assert c1 == pytest.approx(c0, abs=1e-10)


def test_concurrence_stays_in_unit_interval():
    rng = np.random.default_rng(12)
    for _ in range(50):
        c = wootters_concurrence(random_density(rng, 4))
        assert 0.0 <= c <= 1.0 + 1e-12


def test_subnormalized_states_are_renormalized():
    """Loss-model outputs carry trace < 1; measures report the conditional
    (no-loss) state, never a spuriously inflated or deflated value."""
    bell = dm(ket2(a_gg=1, a_ee=1))
    assert wootters_concurrence(0.4 * bell) == pytest.approx(1.0, abs=1e-12)
    assert concurrence_fill(0.4 * GHZ) == pytest.approx(1.0, abs=1e-9)


def test_state_validation_rejects_garbage():
    with pytest.raises(ValueError):
        wootters_concurrence(np.eye(2, dtype=complex))  # wrong dimension
    herm_breaker = np.eye(4, dtype=complex) / 4
    herm_breaker[0, 1] = 0.5
    with pytest.raises(ValueError):
        wootters_concurrence(herm_breaker)
    with pytest.raises(ValueError):
        wootters_concurrence(3.0 * np.eye(4, dtype=complex))  # trace 12
    with pytest.raises(ValueError):
        wootters_concurrence(np.zeros((4, 4), dtype=complex))  # trace 0
    indefinite = np.diag([0.8, 0.4, -0.2, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        wootters_concurrence(indefinite)

    # in a stack, one bad record among good ones is caught and named
    good = np.stack([random_density(np.random.default_rng(k), 4) for k in range(5)])
    for bad, match in (
        (herm_breaker, r"hermitian .* at record 3$"),
        (3.0 * np.eye(4, dtype=complex), r"trace 12\.0 .* at record 3$"),
        (indefinite, r"min eig -2\.000e-01\) at record 3$"),
    ):
        stack = good.copy()
        stack[3] = bad
        with pytest.raises(ValueError, match=match):
            wootters_concurrence(stack)
    stack = np.stack([GHZ, W, 2.0 * PRODUCT3])
    with pytest.raises(ValueError, match=r"trace 2\.0 .* at record 2$"):
        concurrence_fill(stack)
    with pytest.raises(ValueError):
        wootters_concurrence(good.reshape(4, 5, 4))  # wrong dimension


def test_real_inputs_are_measured_and_left_unchanged():
    """Real float64 density matrices, alone or stacked, give the same values
    as their complex casts, and the caller's arrays are not written to."""
    werner = 0.7 * dm(ket2(a_ge=1.0, a_eg=1.0)).real + 0.3 * np.eye(4) / 4
    pairs = np.stack([np.eye(4) / 4, np.diag([0.5, 0.2, 0.2, 0.1]), werner])
    triples = np.stack([np.eye(8) / 8, GHZ.real, W.real, np.diag(np.arange(1.0, 9.0)) / 36])
    for measure, stack in ((wootters_concurrence, pairs), (concurrence_fill, triples)):
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
    to 1e-7 (square-rooting near-zero eigenvalues amplifies solver noise)."""
    rng = np.random.default_rng(2024)
    for _ in range(100):
        rho, (r1, r4, r6, r16) = structured_pair_state(rng)
        lam_closed = closed_form_spin_flip_spectrum(r1, r4, r6, r16)
        lam_num = spin_flip_spectrum_by_eigensolver(rho)
        assert np.allclose(lam_num, lam_closed, atol=1e-10)

        roots = np.sqrt(np.clip(lam_closed, 0.0, None))[::-1]
        c_closed = max(0.0, roots[0] - roots[1] - roots[2] - roots[3])
        assert wootters_concurrence(rho) == pytest.approx(c_closed, abs=1e-7)


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
    assert concurrence_fill(GHZ) == pytest.approx(1.0, abs=1e-9)
    assert concurrence_fill(W) == pytest.approx(8.0 / 9.0, abs=1e-9)
    assert concurrence_fill(PRODUCT3) == pytest.approx(0.0, abs=1e-9)


def test_fill_vanishes_when_only_two_parties_entangle():
    bell12 = dm(ket2(a_gg=1, a_ee=1))
    rho = np.kron(bell12, np.diag([1.0, 0.0]).astype(complex))
    assert concurrence_fill(rho) == pytest.approx(0.0, abs=1e-12)


def test_fill_is_permutation_invariant():
    rng = np.random.default_rng(14)
    reg = EmitterRegister(3)
    for _ in range(10):
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        base = concurrence_fill(rho)
        for perm in ((2, 1, 3), (3, 2, 1), (2, 3, 1)):
            # relabel emitters by permuting the basis-string positions
            lut = np.empty(8, dtype=int)
            for idx in range(8):
                label = format(idx, "03b").replace("0", "g").replace("1", "e")
                relabeled = "".join(label[p - 1] for p in perm)
                lut[idx] = basis_index(reg, relabeled)
            permuted = rho[np.ix_(lut, lut)]
            assert concurrence_fill(permuted) == pytest.approx(base, abs=1e-12)


def test_fill_stays_in_unit_interval():
    rng = np.random.default_rng(15)
    for _ in range(50):
        f = concurrence_fill(random_density(rng, 8))
        assert 0.0 <= f <= 1.0 + 1e-12


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
    assert concurrence_fill(rho) == 0.0
