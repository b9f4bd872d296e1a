"""Register indexing, ladder operators, and the partial trace of the test
oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import partial_trace
from wgqed.qubit_algebra import EmitterRegister, basis_index, commutator, lowering_op

SIGMA = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def test_register_dim():
    for n in (1, 2, 3):
        assert EmitterRegister(n).dim == 2**n


def test_register_rejects_nonpositive_size():
    for bad in (0, -1):
        with pytest.raises(ValueError):
            EmitterRegister(bad)


def test_basis_index_bit_convention():
    # g -> 0, e -> 1, emitter 1 is the most significant bit
    r3 = EmitterRegister(3)
    assert basis_index(r3, "ggg") == 0
    assert basis_index(r3, "gge") == 1
    assert basis_index(r3, "geg") == 2
    assert basis_index(r3, "egg") == 4
    assert basis_index(r3, "eee") == 7
    r1 = EmitterRegister(1)
    assert basis_index(r1, "g") == 0
    assert basis_index(r1, "e") == 1


def test_basis_index_rejects_malformed_labels():
    r2 = EmitterRegister(2)
    for bad in ("g", "geg", "gx", "", "EG"):
        with pytest.raises(ValueError):
            basis_index(r2, bad)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lowering_op_matches_kronecker_product(n):
    reg = EmitterRegister(n)
    for j in range(1, n + 1):
        factors = [SIGMA if site == j else np.eye(2) for site in range(1, n + 1)]
        expected = factors[0]
        for f in factors[1:]:
            expected = np.kron(expected, f)
        assert np.array_equal(lowering_op(reg, j), expected)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lowering_op_algebra(n):
    reg = EmitterRegister(n)
    eye = np.eye(reg.dim)
    ops = [lowering_op(reg, j) for j in range(1, n + 1)]
    for s in ops:
        assert np.allclose(s @ s, 0.0)  # two-level emitter: no double lowering
        assert np.allclose(s.conj().T @ s + s @ s.conj().T, eye)
    for a in range(n):
        for b in range(a + 1, n):
            assert np.allclose(commutator(ops[a], ops[b]), 0.0)
            assert np.allclose(commutator(ops[a], ops[b].conj().T), 0.0)


def test_lowering_op_flips_single_site():
    reg = EmitterRegister(3)
    s2 = lowering_op(reg, 2)
    src = basis_index(reg, "geg")
    dst = basis_index(reg, "ggg")
    col = np.zeros(reg.dim)
    col[src] = 1.0
    out = s2 @ col
    expected = np.zeros(reg.dim)
    expected[dst] = 1.0
    assert np.array_equal(out, expected)
    # a site already in g is annihilated
    assert np.allclose(s2 @ np.eye(reg.dim)[:, basis_index(reg, "ggg")], 0.0)


def test_lowering_op_index_bounds():
    reg = EmitterRegister(2)
    for bad in (0, 3, -1):
        with pytest.raises(IndexError):
            lowering_op(reg, bad)


def test_commutator_definition_and_shape_check():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.allclose(commutator(a, b), a @ b - b @ a)
    assert np.allclose(commutator(a, b), -commutator(b, a))
    with pytest.raises(ValueError):
        commutator(a, np.eye(2))
    stack = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    assert np.array_equal(commutator(stack, b), np.array([commutator(x, b) for x in stack]))
    assert np.array_equal(commutator(b, stack), np.array([commutator(b, x) for x in stack]))
    with pytest.raises(ValueError):
        commutator(stack, np.eye(2))


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    data=st.data(),
)
def test_partial_trace_preserves_trace_and_hermiticity(n, seed, data):
    reg = EmitterRegister(n)
    keep = data.draw(
        st.sets(st.integers(min_value=1, max_value=n), min_size=1, max_size=n)
    )
    rng = np.random.default_rng(seed)
    rho = random_density(rng, reg.dim)
    reduced = partial_trace(rho, reg, keep)
    assert reduced.shape == (2 ** len(keep),) * 2
    assert np.trace(reduced) == pytest.approx(1.0)
    assert np.allclose(reduced, reduced.conj().T)
    eigs = np.linalg.eigvalsh(reduced)
    assert eigs.min() >= -1e-12

    # a (2, 3, dim, dim) stack reduces record by record
    stack = np.stack([random_density(rng, reg.dim) for _ in range(6)]).reshape(
        2, 3, reg.dim, reg.dim
    )
    reduced_stack = partial_trace(stack, reg, keep)
    assert reduced_stack.shape == (2, 3) + reduced.shape
    for idx in np.ndindex(2, 3):
        assert np.array_equal(reduced_stack[idx], partial_trace(stack[idx], reg, keep))


def test_partial_trace_keep_all_is_identity():
    rng = np.random.default_rng(3)
    reg = EmitterRegister(3)
    rho = random_density(rng, reg.dim)
    assert np.allclose(partial_trace(rho, reg, {1, 2, 3}), rho)


def test_partial_trace_factorizes_product_states():
    rng = np.random.default_rng(4)
    a = random_density(rng, 2)
    b = random_density(rng, 2)
    c = random_density(rng, 2)
    rho = np.kron(np.kron(a, b), c)
    reg = EmitterRegister(3)
    assert np.allclose(partial_trace(rho, reg, {1}), a)
    assert np.allclose(partial_trace(rho, reg, {2}), b)
    assert np.allclose(partial_trace(rho, reg, {3}), c)
    assert np.allclose(partial_trace(rho, reg, {1, 3}), np.kron(a, c))
    assert np.allclose(partial_trace(rho, reg, {2, 3}), np.kron(b, c))


def test_partial_trace_of_bell_pair_is_maximally_mixed():
    reg = EmitterRegister(2)
    psi = np.zeros(4, dtype=complex)
    psi[basis_index(reg, "gg")] = 1 / np.sqrt(2)
    psi[basis_index(reg, "ee")] = 1 / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    for keep in ({1}, {2}):
        assert np.allclose(partial_trace(rho, reg, keep), np.eye(2) / 2)


def test_partial_trace_rejects_bad_keep_sets():
    reg = EmitterRegister(2)
    rho = np.eye(4, dtype=complex) / 4
    for bad in (set(), {0}, {3}, {1, 2, 3}):
        with pytest.raises((ValueError, IndexError)):
            partial_trace(rho, reg, bad)
