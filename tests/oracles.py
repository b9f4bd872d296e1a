"""Independent closed-form oracles shared by the unit and regression suites.

Everything here is deliberately written longhand — explicit prefactors,
phases, commutators and block indices — so it can disagree with the
production code if the production code is wrong.
"""

import math

import numpy as np

from wgqed.integrator import IntegrationBlowUpError, IntegratorConfig
from wgqed.liouvillian import ChainConfig, EmitterParams, apply_total
from wgqed.pulse import GaussianPulse, amplitude
from wgqed.qubit_algebra import EmitterRegister, commutator, lowering_op


def rk4_solve(f, y0: np.ndarray, icfg: IntegratorConfig):
    """Integrate dy/dt = f(t, y) from t = 0 by classical fixed-step RK4;
    returns (times, snapshots).

    Snapshots are taken at step 0, every record_stride-th step, and the
    final step.  Raises IntegrationBlowUpError when a recorded state stops
    being finite.
    """
    dt = icfg.dt
    n_steps = icfg.n_steps
    stride = icfg.record_stride

    y = np.array(y0, dtype=np.result_type(y0, 1.0))  # a copy; real stays real
    times = [0.0]
    snaps = [y.copy()]
    half = dt / 2.0
    sixth = dt / 6.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            t = k * dt
            k1 = f(t, y)
            k2 = f(t + half, y + half * k1)
            k3 = f(t + half, y + half * k2)
            k4 = f(t + dt, y + dt * k3)
            y += sixth * (k1 + 2.0 * (k2 + k3) + k4)
            if (k + 1) % stride == 0 or k + 1 == n_steps:
                t_now = (k + 1) * dt
                if not np.all(np.isfinite(y.view(np.float64))):
                    raise IntegrationBlowUpError(t_now)
                times.append(t_now)
                snaps.append(y.copy())
    return np.array(times), np.array(snaps)


def full_slots(cfg: ChainConfig, n_ph: int) -> dict:
    """Sector layout of the full hierarchy: every block rho_{m,n},
    0 <= m, n <= n_ph, in (m, n)-lexicographic order, adjoints included.
    (m, n) -> (slice of the vector, row-major indices into the block)."""
    dim = cfg.register.dim
    exc = np.array([bin(a).count("1") for a in range(dim)])
    grading = np.subtract.outer(exc, exc).ravel()
    slots, size = {}, 0
    for m in range(n_ph + 1):
        for n in range(n_ph + 1):
            idx = np.flatnonzero(grading == m - n)
            slots[(m, n)] = (slice(size, size + idx.size), idx)
            size += idx.size
    return slots


def column_by_column_operators(cfg: ChainConfig, n_ph: int):
    """Reference compile of the full, complex-linear hierarchy
    y' = (A + g(t) B) y over all (n_ph+1)^2 blocks; returns
    (slots, A, B) with slots from full_slots.

    The superoperator matrices are built one basis operator |a><b| at a
    time: apply_total and the two drive commutators act on a single dim x
    dim matrix, and the raveled image is one column.  Every block is
    driven by both of its neighbours, rho_{m-1,n} and rho_{m,n-1}, so no
    adjoint is ever taken.
    """
    slots = full_slots(cfg, n_ph)
    dim = cfg.register.dim
    d2 = dim * dim
    sigmas = [lowering_op(cfg.register, j) for j in range(1, cfg.n_emitters + 1)]
    weights = [
        math.sqrt(em.gamma_r) * np.exp(1j * k0d) for em, k0d in zip(cfg.emitters, cfg.k0d)
    ]
    liou, c_up, c_dn = (np.empty((d2, d2), dtype=complex) for _ in range(3))
    basis = np.zeros((dim, dim), dtype=complex)
    for col in range(d2):
        basis.flat[col] = 1.0
        liou[:, col] = apply_total(cfg, basis).ravel()
        # c_up multiplies sqrt(m) g(t), c_dn multiplies sqrt(n) g*(t)
        c_up[:, col] = sum(
            w * commutator(basis, s.conj().T) for w, s in zip(weights, sigmas)
        ).ravel()
        c_dn[:, col] = sum(
            w.conjugate() * commutator(s, basis) for w, s in zip(weights, sigmas)
        ).ravel()
        basis.flat[col] = 0.0

    size = sum(idx.size for _, idx in slots.values())
    a_mat = np.zeros((size, size), dtype=complex)
    b_mat = np.zeros((size, size), dtype=complex)
    for (m, n), (rows, idx) in slots.items():
        a_mat[rows, rows] = liou[np.ix_(idx, idx)]
        if m >= 1:
            cols, src = slots[(m - 1, n)]
            b_mat[rows, cols] = math.sqrt(m) * c_up[np.ix_(idx, src)]
        if n >= 1:
            cols, src = slots[(m, n - 1)]
            b_mat[rows, cols] = math.sqrt(n) * c_dn[np.ix_(idx, src)]
    return slots, a_mat, b_mat


def full_hierarchy_run(cfg: ChainConfig, pulse: GaussianPulse, n_ph: int,
                       icfg: IntegratorConfig) -> tuple:
    """RK4 run of the full reference hierarchy from the all-ground start;
    returns (times, {(m, n): block series (n_rec, dim, dim)}) for every
    block, adjoints included."""
    slots, a_mat, b_mat = column_by_column_operators(cfg, n_ph)
    dim = cfg.register.dim
    y0 = np.zeros(a_mat.shape[0], dtype=complex)
    for m in range(n_ph + 1):
        y0[slots[(m, m)][0].start] = 1.0  # the all-ground projector
    f = lambda t, y: a_mat @ y + amplitude(pulse, t) * (b_mat @ y)
    times, snaps = rk4_solve(f, y0, icfg)
    blocks = {}
    for mn, (rows, idx) in slots.items():
        out = np.zeros((len(times), dim * dim), dtype=complex)
        out[:, idx] = snaps[:, rows]
        blocks[mn] = out.reshape(len(times), dim, dim)
    return times, blocks


def random_chain(rng, n):
    emitters = tuple(
        EmitterParams(
            gamma_r=rng.uniform(0.1, 4.0),
            gamma_l=rng.uniform(0.0, 2.0),
            gamma_spont=rng.uniform(0.0, 0.8),
            delta=rng.uniform(-1.0, 1.0),
        )
        for _ in range(n)
    )
    k0d = tuple(rng.uniform(-np.pi, np.pi, size=n))
    return ChainConfig(emitters, d_ratio=rng.uniform(0.0, 0.5), k0d=k0d)


def random_blocks(rng, n, pairs):
    dim = 2**n
    return {
        mn: rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for mn in pairs
    }


def handwritten_three_photon_rhs(cfg: ChainConfig, blocks: dict, t: float,
                                 pulse: GaussianPulse) -> dict:
    """Time derivative of all ten blocks of the three-photon system, spelled
    out one stored block at a time.

    Sources below the stored triangle are materialized as adjoints of their
    mirror blocks; everything else is written exactly as it acts: prefactor
    sqrt(m) or sqrt(n), drive phase (conjugated on the lowering side), and
    the commutator with the raising or lowering operator.
    """
    n = cfg.n_emitters
    reg = EmitterRegister(n)
    g = amplitude(pulse, t)
    sig = [lowering_op(reg, j) for j in range(1, n + 1)]
    w = [math.sqrt(em.gamma_r) for em in cfg.emitters]
    ph = [np.exp(1j * k) for k in cfg.k0d]
    r = blocks
    s2, s3 = math.sqrt(2.0), math.sqrt(3.0)

    def L(x):
        return apply_total(cfg, x)

    return {
        (3, 3): L(r[(3, 3)]) + sum(
            w[i] * (
                s3 * ph[i] * g * commutator(r[(2, 3)], sig[i].conj().T)
                + s3 * ph[i].conjugate() * g * commutator(sig[i], r[(2, 3)].conj().T)
            )
            for i in range(n)
        ),
        (2, 3): L(r[(2, 3)]) + sum(
            w[i] * (
                s2 * ph[i] * g * commutator(r[(1, 3)], sig[i].conj().T)
                + s3 * ph[i].conjugate() * g * commutator(sig[i], r[(2, 2)])
            )
            for i in range(n)
        ),
        (1, 3): L(r[(1, 3)]) + sum(
            w[i] * (
                1.0 * ph[i] * g * commutator(r[(0, 3)], sig[i].conj().T)
                + s3 * ph[i].conjugate() * g * commutator(sig[i], r[(1, 2)])
            )
            for i in range(n)
        ),
        (0, 3): L(r[(0, 3)]) + sum(
            w[i] * s3 * ph[i].conjugate() * g * commutator(sig[i], r[(0, 2)])
            for i in range(n)
        ),
        (2, 2): L(r[(2, 2)]) + sum(
            w[i] * (
                s2 * ph[i] * g * commutator(r[(1, 2)], sig[i].conj().T)
                + s2 * ph[i].conjugate() * g * commutator(sig[i], r[(1, 2)].conj().T)
            )
            for i in range(n)
        ),
        (1, 2): L(r[(1, 2)]) + sum(
            w[i] * (
                1.0 * ph[i] * g * commutator(r[(0, 2)], sig[i].conj().T)
                + s2 * ph[i].conjugate() * g * commutator(sig[i], r[(1, 1)])
            )
            for i in range(n)
        ),
        (0, 2): L(r[(0, 2)]) + sum(
            w[i] * s2 * ph[i].conjugate() * g * commutator(sig[i], r[(0, 1)])
            for i in range(n)
        ),
        (1, 1): L(r[(1, 1)]) + sum(
            w[i] * (
                1.0 * ph[i] * g * commutator(r[(0, 1)], sig[i].conj().T)
                + 1.0 * ph[i].conjugate() * g * commutator(sig[i], r[(0, 1)].conj().T)
            )
            for i in range(n)
        ),
        (0, 1): L(r[(0, 1)]) + sum(
            w[i] * ph[i].conjugate() * g * commutator(sig[i], r[(0, 0)])
            for i in range(n)
        ),
        (0, 0): L(r[(0, 0)]),
    }


def structured_pair_state(rng):
    """Random member of the X-shaped family the driven emitter pair visits:
    equal single-excitation populations and coherence, plus a real
    ground/doubly-excited coherence bounded by positivity.

    Returns (rho, (rho1, rho4, rho6, rho16)) in the basis gg, ge, eg, ee.
    """
    r1, r6, r16 = rng.uniform(0.05, 1.0, size=3)
    norm = r1 + 2 * r6 + r16
    r1, r6, r16 = r1 / norm, r6 / norm, r16 / norm
    r4 = rng.uniform(-1.0, 1.0) * np.sqrt(r1 * r16)
    rho = np.array(
        [
            [r1, 0, 0, r4],
            [0, r6, r6, 0],
            [0, r6, r6, 0],
            [r4, 0, 0, r16],
        ],
        dtype=complex,
    )
    return rho, (r1, r4, r6, r16)


def closed_form_spin_flip_spectrum(r1, r4, r6, r16):
    """Spin-flip spectrum of the structured pair state, in closed form:
    {0, 4 rho6^2, (rho4 +/- sqrt(rho1 rho16))^2}, ascending."""
    return np.sort(
        [
            0.0,
            4.0 * r6**2,
            (r4 + np.sqrt(r1 * r16)) ** 2,
            (r4 - np.sqrt(r1 * r16)) ** 2,
        ]
    )


def spin_flip_spectrum_by_eigensolver(rho):
    sy = np.array([[0, -1j], [1j, 0]])
    flip = np.kron(sy, sy)
    return np.sort(np.linalg.eigvals(rho @ flip @ rho.conj() @ flip).real)
