"""End-to-end regression gates, one test per gate.

Every gate runs the shipped scenarios on their own grid (dt = 1e-3 over
t in [0, 12] with a snapshot every 10 steps) and checks the measured
peaks against fixed reference values.  Each sub-check prints a PASS/FAIL
line with the measured numbers, and a gate fails if any of its sub-checks
fail, listing all of them at once.
"""

import dataclasses

import numpy as np

from oracles import (
    closed_form_spin_flip_spectrum,
    purity_fill,
    random_chain,
    rk4_solve,
    spin_flip_spectrum_by_eigensolver,
    structured_pair_state,
)
from wgqed.cli import simulate_scenario
from wgqed.integrator import IntegratorConfig, integrate
from wgqed.observables import peak
from wgqed.pulse import GaussianPulse
from wgqed.qubit_algebra import EmitterRegister, basis_index
from wgqed.scenario import load_scenario

from conftest import fill_of, oracle_deviation, random_sector_state, scenario_path

ONE = "one_emitter_chirality_sweep"
TWO = "two_emitter_chirality_sweep"
THREE = "three_emitter_chirality_sweep"
DETUNED = "three_emitter_detuned_sweep"
LOSSY = "three_emitter_lossy_sweep"


def check(failures, name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    if not ok:
        failures.append(f"{name}: {detail}")


def finish(failures):
    assert not failures, "failed sub-checks:\n  " + "\n  ".join(failures)


def peak_of(scenario_run, stem, ratio, series):
    values, states = scenario_run(stem, ratio)
    return peak(states.times, values[series])


# ----------------------------------------------------------------- gate 1


def test_single_emitter_peak_excitation(scenario_run):
    """Peak excited-state probability of one emitter hit by the three-photon
    pulse: symmetric coupling and 5x right-biased coupling."""
    failures = []
    targets = [
        (1.0, "symmetric", 0.52, 5.25),
        (5.0, "chiral 5:1", 0.37, 4.85),
    ]
    for ratio, tag, v_ref, t_ref in targets:
        p = peak_of(scenario_run, ONE, ratio, "P_e")
        check(
            failures,
            f"{tag} peak P_e",
            abs(p["value"] - v_ref) <= 0.01 and abs(p["time"] - t_ref) <= 0.10,
            f"measured {p['value']:.4f} at t={p['time']:.3f}, "
            f"want {v_ref} +/- 0.01 at {t_ref} +/- 0.10",
        )
    finish(failures)


# ----------------------------------------------------------------- gate 2


def test_multi_emitter_peak_excitation_table(scenario_run):
    """Reference peak table for one, two and three emitters, symmetric and
    5x right-biased: every (value, time) pair within 0.02 / 0.15."""
    table = [
        (ONE, 1.0, "P_e", 0.52, 5.25),
        (TWO, 1.0, "P_eg+ge", 0.35, 5.47),
        (TWO, 1.0, "P_ee", 0.23, 5.44),
        (THREE, 1.0, "P_egg+geg+gge", 0.30, 5.31),
        (THREE, 1.0, "P_eeg+ege+gee", 0.13, 5.44),
        (THREE, 1.0, "P_eee", 0.05, 5.50),
        (ONE, 5.0, "P_e", 0.37, 4.85),
        (TWO, 5.0, "P_eg+ge", 0.61, 6.57),
        (TWO, 5.0, "P_ee", 0.08, 5.22),
        (THREE, 5.0, "P_egg+geg+gge", 0.51, 5.71),
        (THREE, 5.0, "P_eeg+ege+gee", 0.32, 5.20),
        (THREE, 5.0, "P_eee", 0.003, 5.41),
    ]
    failures = []
    for stem, ratio, series, v_ref, t_ref in table:
        p = peak_of(scenario_run, stem, ratio, series)
        tag = f"{stem.split('_')[0]} emitter(s), ratio {ratio:g}, {series}"
        check(
            failures,
            tag,
            abs(p["value"] - v_ref) <= 0.02 and abs(p["time"] - t_ref) <= 0.15,
            f"measured {p['value']:.4f} at t={p['time']:.3f}, "
            f"want {v_ref} +/- 0.02 at {t_ref} +/- 0.15",
        )
    finish(failures)


# ----------------------------------------------------------------- gate 3


def _prominent_local_maxima(times, series):
    """Indices of strict local maxima at least half as high as the global peak."""
    idx = [
        i
        for i in range(1, len(series) - 1)
        if series[i] > series[i - 1] and series[i] >= series[i + 1]
    ]
    top = series.max()
    return [i for i in idx if series[i] >= 0.5 * top]


def test_emitter_pair_concurrence(scenario_run):
    """Pairwise entanglement of two emitters: two-peak symmetric profile with
    a dip, and a 4x-6x higher single chiral peak."""
    failures = []
    series_sym, states_sym = scenario_run(TWO, 1.0)
    series_chi, _ = scenario_run(TWO, 5.0)
    c_sym = series_sym["concurrence"]
    c_chi = series_chi["concurrence"]
    times = states_sym.times

    sym_max = float(c_sym.max())
    check(
        failures,
        "symmetric peak concurrence",
        0.09 <= sym_max <= 0.13,
        f"measured {sym_max:.4f}, want within [0.09, 0.13]",
    )

    peaks = _prominent_local_maxima(times, c_sym)
    peak_times = [float(times[i]) for i in peaks]
    two_peaks = (
        len(peaks) >= 2
        and any(abs(t - 4.70) <= 0.25 for t in peak_times)
        and any(abs(t - 6.65) <= 0.25 for t in peak_times)
    )
    check(
        failures,
        "symmetric two-peak structure",
        two_peaks,
        f"prominent local maxima at t={['%.2f' % t for t in peak_times]}, want peaks near 4.70 and 6.65",
    )

    if len(peaks) >= 2:
        lo, hi = peaks[0], peaks[-1]
        dip_t = float(times[lo + int(np.argmin(c_sym[lo : hi + 1]))])
        check(
            failures,
            "symmetric inter-peak dip",
            abs(dip_t - 6.0) <= 0.25,
            f"dip at t={dip_t:.2f}, want near 6.0",
        )
    else:
        check(failures, "symmetric inter-peak dip", False, "no two-peak structure to dip between")

    chi_max = float(c_chi.max())
    ratio = chi_max / sym_max if sym_max > 0 else float("inf")
    check(
        failures,
        "chiral over symmetric peak ratio",
        4.0 <= ratio <= 6.0,
        f"chiral peak {chi_max:.4f}, symmetric peak {sym_max:.4f}, ratio {ratio:.3g}, want 4x-6x",
    )
    finish(failures)


# ----------------------------------------------------------------- gate 4


def test_three_emitter_fill_and_chirality_gain(scenario_run):
    """Peak concurrence fill of the symmetric chain, and the gain available
    from scanning the right/left coupling ratio up to 5."""
    failures = []
    fills = {}
    for ratio in (1.0, 2.0, 3.0, 4.0, 5.0):
        fills[ratio] = peak_of(scenario_run, THREE, ratio, "fill")

    sym = fills[1.0]["value"]
    check(
        failures,
        "symmetric peak fill",
        abs(sym - 0.70) <= 0.05,
        f"measured {sym:.4f} at t={fills[1.0]['time']:.2f}, want 0.70 +/- 0.05",
    )

    best_ratio, best = max(
        ((r, p["value"]) for r, p in fills.items() if r > 1.0), key=lambda kv: kv[1]
    )
    gain = best / sym
    detail = ", ".join(f"ratio {r:g}: {p['value']:.4f}" for r, p in sorted(fills.items()))
    check(
        failures,
        "chirality gain of peak fill",
        gain >= 1.30,
        f"{detail}; best ratio {best_ratio:g} gives {gain:.3f}x the symmetric peak, want >= 1.30x",
    )
    finish(failures)


# ----------------------------------------------------------------- gate 5


def test_spontaneous_loss_reduces_fill(scenario_run):
    """Loss out of the waveguide at three quarters of the waveguide rate:
    the peak fill drops by 15% +/- 5% for the symmetric chain and by
    about 10% +/- 5% at coupling ratio 5."""
    failures = []
    for ratio, lo, hi, tag in ((1.0, 0.10, 0.20, "symmetric"), (5.0, 0.05, 0.15, "ratio 5")):
        clean = peak_of(scenario_run, THREE, ratio, "fill")["value"]
        lossy = peak_of(scenario_run, LOSSY, ratio, "fill")["value"]
        red = 1.0 - lossy / clean
        check(
            failures,
            f"{tag} fill reduction",
            lo <= red <= hi,
            f"loss-free {clean:.4f}, lossy {lossy:.4f}, reduction {100 * red:.1f}%, "
            f"want within [{100 * lo:.0f}%, {100 * hi:.0f}%]",
        )
    finish(failures)


# ----------------------------------------------------------------- gate 6


LOSS_FREE_RUNS = (
    [(ONE, r) for r in (1.0, 5.0)]
    + [(TWO, r) for r in (1.0, 5.0)]
    + [(THREE, r) for r in (1.0, 2.0, 3.0, 4.0, 5.0)]
    + [(DETUNED, r) for r in (1.0, 2.0, 3.0, 4.0, 5.0)]
)


def test_loss_free_runs_conserve_trace_hermiticity_positivity(scenario_run):
    """Without spontaneous loss, each diagonal block keeps unit trace at
    every recorded time of every shipped loss-free run.  Each diagonal
    block stays positive: the physical block, and every rho_{k,k} with
    k < n_ph, the emitter state under a k-photon pulse.  (Hermiticity holds
    by construction: a diagonal block is carried as its upper triangle.)"""
    failures = []
    worst_tr, worst_tr_at = 0.0, ""
    worst_low, worst_low_at = np.inf, ""
    worst_eig, worst_eig_at = np.inf, ""
    for stem, ratio in LOSS_FREE_RUNS:
        _, states = scenario_run(stem, ratio)
        tag = f"{stem}@{ratio:g}"
        for m in range(states.n_ph + 1):
            blk = states.block(m, m)
            tr_err = np.abs(np.einsum("tii->t", blk) - 1.0).max()
            if tr_err > worst_tr:
                worst_tr, worst_tr_at = tr_err, f"{tag} block ({m},{m})"
            if m < states.n_ph:
                low = np.linalg.eigvalsh(blk).min()
                if low < worst_low:
                    worst_low, worst_low_at = low, f"{tag} block ({m},{m})"
        min_eig = min(np.linalg.eigvalsh(rho).min() for rho in states.physical())
        if min_eig < worst_eig:
            worst_eig, worst_eig_at = min_eig, tag

    check(
        failures,
        "diagonal-block trace",
        worst_tr <= 1e-6,
        f"worst |trace - 1| = {worst_tr:.3e} ({worst_tr_at}), want <= 1e-6",
    )
    check(
        failures,
        "fewer-photon diagonal-block positivity",
        worst_low >= -1e-6,
        f"worst eigenvalue = {worst_low:.3e} ({worst_low_at}), want >= -1e-6",
    )
    check(
        failures,
        "physical-block positivity",
        worst_eig >= -1e-6,
        f"worst eigenvalue = {worst_eig:.3e} ({worst_eig_at}), want >= -1e-6",
    )
    finish(failures)


def test_lossy_trace_never_rises():
    """With spontaneous loss, the trace of every diagonal block rho_{k,k}
    (k = 0 to n_ph, the emitter state under a k-photon pulse) never rises
    from one record to the next, on the shipped lossy run at ratios 1 and 5.
    The 1e-14 allowance covers roundoff in a sum of 8 populations of order 1,
    a few eps; it is not fitted to the run.  The states come straight from
    integrate, so no check of the observables stands in for this one."""
    for ratio in (1.0, 5.0):
        sc = load_scenario(scenario_path(LOSSY)).with_ratio(ratio)
        states = integrate(sc.chain, sc.pulse, sc.n_photons, sc.integrator)
        for k in range(states.n_ph + 1):
            diagonal = np.diag_indices(states.register.dim)
            trace = states.propagator.entry(states.blocks, k, k, *diagonal).real.sum(axis=-1)
            assert np.diff(trace).max() <= 1e-14, (ratio, k, np.diff(trace).max())
        assert trace[-1] < 0.9  # the loss shows in the physical block


# ----------------------------------------------------------------- gate 7


def test_closed_form_oracles():
    """Independent closed forms: spin-flip spectrum of the structured pair
    family vs the eigensolver (1e-10), the handwritten ten-block equations
    vs the compiled propagator (1e-12), and the canonical fill fixtures (1e-9;
    the ungraded GHZ state through the partial-trace oracle)."""
    failures = []

    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(100):
        rho, (r1, r4, r6, r16) = structured_pair_state(rng)
        lam = closed_form_spin_flip_spectrum(r1, r4, r6, r16)
        worst = max(worst, np.abs(spin_flip_spectrum_by_eigensolver(rho) - lam).max())
    check(
        failures,
        "structured-state spin-flip spectrum",
        worst <= 1e-10,
        f"worst |closed form - eigensolver| = {worst:.3e} over 100 draws, want <= 1e-10",
    )

    pulse = GaussianPulse(mu=1.46, t_bar=5.0)
    worst = 0.0
    for n in (1, 2, 3):
        rng = np.random.default_rng(8000 + n)
        cfg = random_chain(rng, n)
        state = random_sector_state(rng, n)
        worst = max(worst, oracle_deviation(cfg, 3, state, 4.3, pulse))
    check(
        failures,
        "handwritten ten-block equations",
        worst <= 1e-12,
        f"worst block deviation = {worst:.3e} over 1-3 emitters, want <= 1e-12",
    )

    reg = EmitterRegister(3)
    fixtures = []
    ghz = np.zeros(8, dtype=complex)
    ghz[basis_index(reg, "ggg")] = ghz[basis_index(reg, "eee")] = 1 / np.sqrt(2)
    fixtures.append(("GHZ", ghz, 1.0, purity_fill))
    w = np.zeros(8, dtype=complex)
    for lbl in ("egg", "geg", "gge"):
        w[basis_index(reg, lbl)] = 1 / np.sqrt(3)
    fixtures.append(("W", w, 8.0 / 9.0, fill_of))
    prod = np.zeros(8, dtype=complex)
    prod[basis_index(reg, "geg")] = 1.0
    fixtures.append(("product", prod, 0.0, fill_of))
    for name, psi, ref, measure in fixtures:
        got = measure(np.outer(psi, psi.conj()))
        check(
            failures,
            f"{name} fill fixture",
            abs(got - ref) <= 1e-9,
            f"measured {got!r}, want {ref} +/- 1e-9",
        )
    finish(failures)


# ----------------------------------------------------------------- gate 8


def test_integrator_order_and_self_convergence(scenario_run):
    """Fourth-order convergence of the RK4 oracle on a scalar problem with a
    known solution, and dt-halving agreement of every population series of a
    symmetric three-emitter run and a chiral two-emitter run."""
    failures = []

    # scalar test problem dx/dt = -x, x(0) = 1
    errors = []
    for dt in (0.1, 0.05, 0.025):
        _, snaps = rk4_solve(
            lambda t, y: -y,
            np.array([1.0 + 0.0j]),
            IntegratorConfig(dt=dt, t_end=2.0, record_stride=10**9),
        )
        errors.append(abs(snaps[-1][0] - np.exp(-2.0)))
    orders = [float(np.log2(errors[i] / errors[i + 1])) for i in range(2)]
    check(
        failures,
        "scalar-problem convergence order",
        all(3.7 < p < 4.3 for p in orders),
        f"measured orders {['%.2f' % p for p in orders]}, want approximately 4",
    )

    for stem, ratio in ((THREE, 1.0), (TWO, 5.0)):
        series, _ = scenario_run(stem, ratio)
        sc = load_scenario(scenario_path(stem)).with_ratio(ratio)
        sc = dataclasses.replace(
            sc, integrator=IntegratorConfig(dt=5e-4, t_end=12.0, record_stride=20)
        )
        series_half, _ = simulate_scenario(sc)
        worst = 0.0
        for name in [n for n in series if n.startswith("P_")]:
            worst = max(worst, float(np.abs(series[name] - series_half[name]).max()))
        check(
            failures,
            f"dt-halving self-convergence ({stem}@{ratio:g})",
            worst < 1e-5,
            f"worst population drift {worst:.3e} between dt=1e-3 and dt=5e-4, want < 1e-5",
        )
    finish(failures)


# ------------------------------------------------- detuned-sweep regression


def test_detuned_sweep_tracks_resonant_pattern(scenario_run):
    """Detuning every emitter by half a linewidth preserves the shape of the
    peak-fill-vs-ratio curve to within 0.05 at every ratio."""
    failures = []
    for ratio in (1.0, 2.0, 3.0, 4.0, 5.0):
        res = peak_of(scenario_run, THREE, ratio, "fill")["value"]
        det = peak_of(scenario_run, DETUNED, ratio, "fill")["value"]
        check(
            failures,
            f"ratio {ratio:g}",
            abs(det - res) <= 0.05,
            f"on-resonance {res:.4f}, detuned {det:.4f}, |diff| = {abs(det - res):.4f}, want <= 0.05",
        )
    finish(failures)
