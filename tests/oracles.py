"""Independent closed-form oracles shared by the unit and regression suites.

Everything here is deliberately written longhand — explicit prefactors,
phases, commutators and block indices — so it can disagree with the
production code if the production code is wrong.
"""

import math

import numpy as np

from wgqed.hierarchy import HierarchyPropagator
from wgqed.integrator import IntegrationBlowUpError, IntegratorConfig, StateTrajectory
from wgqed.liouvillian import ChainConfig, EmitterParams, apply_total
from wgqed.pulse import GaussianPulse, amplitude, amplitude_rate
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
    # conjugate L_in weights: the right-moving pulse reaches emitter j + 1
    # with the phase 2 pi d_ratio j
    weights = [
        math.sqrt(em.gamma_r) * np.exp(2j * math.pi * cfg.d_ratio * j)
        for j, em in enumerate(cfg.emitters)
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


def coherent_drive_run(cfg: ChainConfig, pulse: GaussianPulse, alphas, icfg: IntegratorConfig):
    """RK4 run of the emitters alone under coherent pulses alpha g(t), one per
    alpha, from the all-ground state; returns (times, snapshots (n_rec,
    len(alphas), dim, dim)).

    A coherent pulse is the classical drive beta(t) = alpha g(t):

        rho' = L[rho] + beta [rho, L_in^dag] + beta* [L_in, rho].

    No photon block enters; L_in is built here from the lowering operators.
    """
    dim = cfg.register.dim
    # the right-moving pulse reaches emitter j + 1 with the phase 2 pi d_ratio j
    l_in = sum(
        math.sqrt(em.gamma_r) * np.exp(-2j * math.pi * cfg.d_ratio * j) * lowering_op(cfg.register, j + 1)
        for j, em in enumerate(cfg.emitters)
    )
    alphas = np.asarray(alphas, dtype=complex).reshape(-1, 1, 1)

    def f(t, y):
        rho = y.reshape(-1, dim, dim)
        beta = alphas * amplitude(pulse, t)
        drive = beta * commutator(rho, l_in.conj().T) + beta.conj() * commutator(l_in, rho)
        return (apply_total(cfg, rho) + drive).ravel()

    y0 = np.zeros((len(alphas), dim, dim), dtype=complex)
    y0[:, 0, 0] = 1.0  # basis state 0 is all ground
    times, snaps = rk4_solve(f, y0.ravel(), icfg)
    return times, snaps.reshape(len(times), len(alphas), dim, dim)


_TAYLOR_TERMS = 20
_CHUNK = 256
_BLOCK = 16


class _OneLevelStep:
    """Exact steps of y' = A y + f(t) on one level, with f Hermite-interpolated;
    A, f and y are real."""

    def __init__(self, a: np.ndarray, h: float):
        n = len(a)
        z = h * a
        powers = np.empty((_TAYLOR_TERMS, n, n))
        powers[0] = np.eye(n)
        for i in range(1, _TAYLOR_TERMS):
            powers[i] = powers[i - 1] @ z
        # phi_k(z) = sum_i z^i / (i + k)!, and int_0^h e^{(h-s)A} s^j ds = h^(j+1) j! phi_(j+1)
        inv = np.array([1.0 / math.factorial(i) for i in range(_TAYLOR_TERMS + 4)])
        k = _TAYLOR_TERMS
        coef = np.array([
            inv[:k],                                           # E
            # the Hermite cubic's integral: weights of f(0), f'(0), f(h), f'(h) over h, h^2, h, h^2
            inv[1:k + 1] - 6 * inv[3:k + 3] + 12 * inv[4:k + 4],
            inv[2:k + 2] - 4 * inv[3:k + 3] + 6 * inv[4:k + 4],
            6 * inv[3:k + 3] - 12 * inv[4:k + 4],
            -2 * inv[3:k + 3] + 6 * inv[4:k + 4],
        ])
        e, p0, p1, q0, q1 = np.tensordot(coef, powers, 1)
        # row-vector form: states are rows, so every matrix acts from the right
        self.from_start = np.concatenate([h * p0.T, h * h * p1.T])  # on [f, f'] at t
        self.from_end = np.concatenate([h * q0.T, h * h * q1.T])    # on [f, f'] at t + h
        e_pow = np.empty((_BLOCK + 1, n, n))
        e_pow[0] = np.eye(n)
        for j in range(1, _BLOCK + 1):
            e_pow[j] = e_pow[j - 1] @ e
        self.e_t = e.T
        self.e_block_t = e_pow[_BLOCK].T.copy()
        self.e_fill_t = np.concatenate(list(e_pow[:_BLOCK].transpose(0, 2, 1)), axis=1)  # (n, B n)

    def run(self, y0: np.ndarray, f: np.ndarray, df: np.ndarray) -> np.ndarray:
        """States on the grid points of f, f' (c + 1 rows), starting from y0."""
        c, n = len(f) - 1, len(y0)
        forcing = np.concatenate([f, df], axis=1)
        n_blocks = -(-c // _BLOCK)
        q = np.zeros((n_blocks * _BLOCK, n))
        q[:c] = forcing[:-1] @ self.from_start + forcing[1:] @ self.from_end
        q = q.reshape(n_blocks, _BLOCK, n)
        partial = np.zeros((n_blocks, _BLOCK + 1, n))  # blocks started from 0
        for j in range(_BLOCK):
            partial[:, j + 1] = partial[:, j] @ self.e_t + q[:, j]
        starts = np.empty((n_blocks + 1, n))
        starts[0] = y0
        for b in range(n_blocks):
            starts[b + 1] = starts[b] @ self.e_block_t + partial[b, _BLOCK]
        grid = (starts[:-1] @ self.e_fill_t).reshape(n_blocks, _BLOCK, n) + partial[:, :_BLOCK]
        return np.concatenate([grid.reshape(-1, n), starts[-1:]])[: c + 1]


def level_by_level_integrate(cfg: ChainConfig, pulse: GaussianPulse, n_ph: int,
                             icfg: IntegratorConfig) -> StateTrajectory:
    """Reference cascade run: the same exact level steps as
    integrator.integrate, chunk by chunk and level by level, with one Taylor
    series per level.  It differs in how each step is taken: every level is
    stepped, the vacuum level included; the block starts are carried one
    after the other, with no scan; the forcing [f, f'] is formed unfolded;
    and the chunks are 256 steps long.  Records as integrate does."""
    prop = HierarchyPropagator(cfg, n_ph)
    h = icfg.dt
    levels = prop.levels
    steppers = [_OneLevelStep(level.a, h) for level in levels]
    n_steps = icfg.n_steps
    recorded = np.append(np.arange(0, n_steps, icfg.record_stride), n_steps)  # step numbers
    snaps = np.empty((len(recorded), prop.size))
    snaps[0] = prop.ground()
    y = [snaps[0, level.rows] for level in levels]
    for k0 in range(0, n_steps, _CHUNK):
        k1 = min(k0 + _CHUNK, n_steps)
        t = np.arange(k0, k1 + 1) * h
        g = amplitude(pulse, t)[:, None]
        dg = amplitude_rate(pulse, t)[:, None]
        lo, hi = np.searchsorted(recorded, [k0, k1], side="right")
        # level -1: nothing, so level 0 is unforced
        below = below_f = np.zeros((len(t), 0))
        below_a = np.zeros((0, 0))
        for l, (level, stepper) in enumerate(zip(levels, steppers)):
            drive = below @ level.b.T
            f = g * drive
            df = dg * drive + g * ((below @ below_a.T + below_f) @ level.b.T)
            ys = stepper.run(y[l], f, df)
            y[l] = ys[-1]
            snaps[lo:hi, level.rows] = ys[recorded[lo:hi] - k0]
            below, below_f, below_a = ys, f, level.a
    return StateTrajectory(recorded * h, snaps, prop)


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
    return ChainConfig(emitters, d_ratio=rng.uniform(0.0, 0.5))


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
    ph = [np.exp(2j * math.pi * cfg.d_ratio * j) for j in range(n)]  # from emitter 1 to j + 1
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


# The general two- and three-qubit measures, for states of any structure.
# Production evaluates closed forms that hold on excitation-graded states
# only; these are the cross-check, and the reference on states (GHZ,
# |gg> + |ee>, random) that are not graded.

# sigma_y (x) sigma_y in the computational basis; real, so it conjugates freely
_SPIN_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ],
    dtype=complex,
)

_TRACE_TOL = 1e-6
_HERM_TOL = 1e-6
_PSD_TOL = -1e-8


def partial_trace(rho: np.ndarray, register: EmitterRegister, keep) -> np.ndarray:
    """Reduced operator on the emitters in `keep` (1-based indices).

    Trace-preserving; the kept subsystems appear in ascending emitter
    order in the output.  Leading axes of a (..., dim, dim) stack are
    carried through, so a recorded series reduces in one call.
    """
    n = register.n_emitters
    dim = register.dim
    if rho.shape[-2:] != (dim, dim):
        raise ValueError(f"rho has shape {rho.shape}, expected (..., {dim}, {dim})")
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if not all(1 <= j <= n for j in keep):
        raise ValueError(f"keep={keep} contains indices outside 1..{n}")

    # Reshape to one axis per ket/bra site and trace the complement pairwise.
    lead = rho.shape[:-2]
    work = rho.reshape(lead + (2,) * (2 * n))
    traced = 0
    for j in range(1, n + 1):
        if j in keep:
            continue
        ket_ax = len(lead) + (j - 1) - traced
        bra_ax = ket_ax + (n - traced)
        work = np.trace(work, axis1=ket_ax, axis2=bra_ax)
        traced += 1
    d_out = 2 ** len(keep)
    return work.reshape(lead + (d_out, d_out))


def _first_bad(bad: np.ndarray, values: np.ndarray, message: str) -> None:
    """Raise ValueError naming the value of the first record where `bad`
    holds and, for a stack, its flat record index."""
    if np.any(bad):
        i = np.argmax(bad)
        where = f" at record {i}" if np.ndim(bad) else ""
        raise ValueError(message.format(np.ravel(values)[i]) + where)


def _validate_state(rho: np.ndarray, dim: int, check_psd: bool) -> np.ndarray:
    """Sanity-check a density matrix, or a (..., dim, dim) stack of them, and
    return the trace of each.

    Loss models (spontaneous emission without a recycling term) legitimately
    shrink the trace below one, so any trace in (0, 1] is accepted and the
    caller renormalizes to the conditional state.
    """
    if rho.shape[-2:] != (dim, dim):
        raise ValueError(f"state has shape {rho.shape}, expected (..., {dim}, {dim})")
    defect = np.conjugate(np.swapaxes(rho, -1, -2))  # the ufunc copies even a real input
    np.subtract(rho, defect, out=defect)
    herm_defect = np.abs(defect, out=defect).real.max(axis=(-2, -1))
    _first_bad(herm_defect > _HERM_TOL, herm_defect, "state not hermitian (defect {:.3e})")
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    _first_bad(~((0.0 < tr) & (tr <= 1.0 + _TRACE_TOL)), tr, "state trace {} is not in (0, 1]")
    if check_psd:
        min_eig = np.linalg.eigvalsh(0.5 * (rho + np.swapaxes(rho, -1, -2).conj())).min(axis=-1)
        _first_bad(min_eig < _PSD_TOL * np.maximum(tr, _TRACE_TOL), min_eig,
                   "state not positive semidefinite (min eig {:.3e})")
    return tr


def spin_flip_concurrence(rho: np.ndarray):
    """Wootters concurrence of any two-qubit density matrix, in [0, 1]: the
    square roots l1 >= ... >= l4 of the eigenvalues of
    rho (sy x sy) rho* (sy x sy) give C = max(0, l1 - l2 - l3 - l4).  A
    (..., 4, 4) stack gives the (...) array of concurrences."""
    tr = _validate_state(rho, 4, check_psd=True)
    rho = rho / tr[..., None, None]
    flipped = rho @ _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    lams = np.linalg.eigvals(flipped).real
    lams[lams < 0.0] = 0.0  # roundoff only; spectrum is nonnegative in exact arithmetic
    roots = np.sort(np.sqrt(lams), axis=-1)[..., ::-1]
    return np.maximum(0.0, roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3])


def _c2_of_valid(rho3: np.ndarray, tr: np.ndarray, i: int) -> np.ndarray:
    """2 (1 - Tr rho_i^2) of validated three-qubit states with traces `tr`."""
    rho_i = partial_trace(rho3, EmitterRegister(3), {i}) / tr[..., None, None]
    purity = np.trace(rho_i @ rho_i, axis1=-2, axis2=-1).real
    return 2.0 * (1.0 - purity)


def one_to_other_c2(rho3: np.ndarray, i: int):
    """Squared concurrence across the bipartition {qubit i} vs {other two},
    from the purity of the reduced single-qubit state: 2 (1 - Tr rho_i^2).
    A (..., 8, 8) stack gives the (...) array of values."""
    if i not in (1, 2, 3):
        raise ValueError(f"qubit index must be 1, 2 or 3, got {i}")
    return _c2_of_valid(rho3, _validate_state(rho3, 8, check_psd=False), i)


def purity_fill(rho3: np.ndarray):
    """Concurrence fill of any three-qubit state, in [0, 1]: the normalized
    Heron area of the triangle with sides one_to_other_c2(rho3, i), with
    the Heron factors clamped at zero.  A (..., 8, 8) stack gives the (...)
    array of values."""
    tr = _validate_state(rho3, 8, check_psd=False)
    sides = np.stack([_c2_of_valid(rho3, tr, i) for i in (1, 2, 3)], axis=-1)
    sides = np.clip(sides, 0.0, 1.0)
    q = 0.5 * sides.sum(axis=-1)
    factors = np.clip(q[..., None] - sides, 0.0, None)
    area4 = (16.0 / 3.0) * q * np.prod(factors, axis=-1)
    # two correctly rounded square roots, not pow: the same bits alone or in a stack
    return np.sqrt(np.sqrt(np.maximum(0.0, area4)))


def random_graded_density(rng, n: int, trace: float = 1.0) -> np.ndarray:
    """Random excitation-graded n-emitter density matrix of the given trace:
    one random positive block per excitation number, zero between them."""
    dim = 2**n
    exc = np.array([bin(a).count("1") for a in range(dim)])
    rho = np.zeros((dim, dim), dtype=complex)
    for k in range(n + 1):
        idx = np.flatnonzero(exc == k)
        g = rng.normal(size=(idx.size, idx.size)) + 1j * rng.normal(size=(idx.size, idx.size))
        rho[np.ix_(idx, idx)] = rng.uniform(0.05, 1.0) * (g @ g.conj().T)
    return trace * rho / np.trace(rho).real
