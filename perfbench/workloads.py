"""Seeded scenario files for the three benchmark workloads.

Each workload fixes the keys that set its cost: emitter count, photon
number, dt, t_end, stride and the number of sweep ratios.  The seed draws
only physics parameters (gamma_r/gamma_l ratio, delta, gamma_spont,
chain.d_ratio).  DEFAULT_SEED reproduces the physics of the shipped
scenario files verbatim.

The drive phase of emitter j is derived from the spacing,
k0d_j = 2 pi d_ratio (j - 1), the phase the right-moving pulse picks up
on its way from emitter 1.  The CLI accepts k0d independently of
d_ratio, but an inconsistent pair is not a physical drive: at d_ratio =
0.3 or 0.5 with k0d = 0 the emitter state loses positivity.

Every generated file requests one population per excitation-number class,
so the populations of a run sum to the trace of the emitter state.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
DT = 1e-3
T_END = 12.0
PULSE_MU = 1.46
PULSE_T_BAR = 5.0


@dataclass(frozen=True)
class Shape:
    """One scenario file of a workload and the CLI command that runs it."""

    stem: str
    command: str             # "run" or "sweep"
    n_emitters: int
    n_photons: int
    stride: int
    gamma_spont: float = 0.0  # shipped value; 0 marks a lossless shape
    delta: float = 0.0        # shipped value; 0 marks a resonant shape
    n_ratios: int = 1         # sweep ratios; a run has one ratio

    @property
    def lossy(self) -> bool:
        return self.gamma_spont > 0.0

    @property
    def state_len(self) -> int:
        """Entries of the stored hierarchy: (n+1)(n+2)/2 blocks of 4^N."""
        n = self.n_photons
        return (n + 1) * (n + 2) // 2 * 4 ** self.n_emitters


WORKLOADS = {
    # The shipped scenario shapes, one `wgqed run` each (state lengths
    # 40, 160, 640): small states are bound by per-step Python overhead,
    # the 640-entry state by the hierarchy matmul.
    "run-shipped": (
        Shape("one_emitter", "run", 1, 3, 10),
        Shape("two_emitter", "run", 2, 3, 10),
        Shape("three_emitter", "run", 3, 3, 10),
        Shape("three_emitter_lossy", "run", 3, 3, 10, gamma_spont=0.75),
        Shape("three_emitter_detuned", "run", 3, 3, 10, delta=0.5),
    ),
    # The only workload that goes through the sweep's thread pool and holds
    # five trajectories in memory at once.
    "sweep-3e": (
        Shape("three_emitter_sweep", "sweep", 3, 3, 10, n_ratios=5),
    ),
    # One photon and a record every step (12 001 records, state lengths 48
    # and 192): observables, entanglement and CSV writing dominate.
    "record-dense": (
        Shape("two_emitter_dense", "run", 2, 1, 1),
        Shape("three_emitter_lossy_dense", "run", 3, 1, 1, gamma_spont=0.75),
    ),
}


def excitation_classes(n_emitters: int) -> list:
    """Population labels, one per excitation number, e.g. ['gg', 'eg+ge', 'ee']."""
    states = sorted("".join(s) for s in itertools.product("eg", repeat=n_emitters))
    return [
        "+".join(s for s in states if s.count("e") == k) for k in range(n_emitters + 1)
    ]


def _physics(workload: str, shape: Shape, seed: int) -> dict:
    if seed == DEFAULT_SEED:
        ratios = [float(r) for r in range(1, shape.n_ratios + 1)]
        if shape.command == "run":
            ratios = [1.0]
        return {"ratios": ratios, "d_ratio": 0.0, "gamma_spont": shape.gamma_spont,
                "delta": shape.delta}
    rng = random.Random(f"{workload}/{shape.stem}/{seed}")
    ratios = sorted({round(rng.uniform(0.5, 6.0), 3) for _ in range(shape.n_ratios)})
    while len(ratios) < shape.n_ratios:  # a repeated draw would merge two output files
        ratios = sorted(set(ratios) | {round(rng.uniform(0.5, 6.0), 3)})
    return {
        "ratios": ratios,
        "d_ratio": round(rng.uniform(0.0, 0.5), 4),
        "gamma_spont": round(rng.uniform(0.25, 1.25), 4) if shape.lossy else 0.0,
        "delta": round(rng.uniform(0.1, 1.0), 4) if shape.delta else 0.0,
    }


def scenario_text(workload: str, shape: Shape, seed: int, t_end: float = T_END) -> str:
    phys = _physics(workload, shape, seed)
    lines = [
        f"# benchmark workload {workload}, seed {seed}",
        f"n_emitters = {shape.n_emitters}",
        f"n_photons = {shape.n_photons}",
        f"pulse.mu = {PULSE_MU!r}",
        f"pulse.t_bar = {PULSE_T_BAR!r}",
        f"chain.d_ratio = {phys['d_ratio']!r}",
        "emitter.gamma_l = 1.0",
        f"emitter.gamma_spont = {phys['gamma_spont']!r}",
        f"emitter.delta = {phys['delta']!r}",
    ]
    lines += [f"emitter.{j}.k0d = {2.0 * math.pi * phys['d_ratio'] * (j - 1)!r}"
              for j in range(1, shape.n_emitters + 1)]
    if shape.command == "sweep":
        lines.append("sweep.ratios = " + ", ".join(repr(r) for r in phys["ratios"]))
    else:
        lines.append(f"emitter.gamma_r = {phys['ratios'][0]!r}")
    lines += [
        "output.populations = " + ", ".join(excitation_classes(shape.n_emitters)),
        f"output.concurrence = {'true' if shape.n_emitters == 2 else 'false'}",
        f"output.fill = {'true' if shape.n_emitters == 3 else 'false'}",
        "output.pulse = true",
        f"integrator.dt = {DT!r}",
        f"integrator.t_end = {t_end!r}",
        f"integrator.stride = {shape.stride}",
    ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its shape, its scenario file and what it must write."""

    shape: Shape
    scenario: Path
    ratios: tuple
    steps: int               # RK4 steps over all ratios

    def outputs(self) -> list:
        """(csv, summary json) names of every per-run output, in ratio order."""
        stem = self.scenario.stem
        if self.shape.command == "run":
            return [(f"{stem}.csv", f"{stem}_summary.json")]
        return [(f"{stem}_ratio{r:g}.csv", f"{stem}_ratio{r:g}_summary.json") for r in self.ratios]

    def aggregates(self) -> list:
        stem = self.scenario.stem
        return [f"{stem}_sweep.csv", f"{stem}_sweep_summary.json"] if self.shape.command == "sweep" else []


def write_workload(workload: str, seed: int, directory: Path, t_end: float = T_END) -> list:
    """Write the workload's scenario files; returns its invocations in run order."""
    directory.mkdir(parents=True, exist_ok=True)
    steps = round(t_end / DT)
    invocations = []
    for shape in WORKLOADS[workload]:
        path = directory / f"{shape.stem}.cfg"
        path.write_text(scenario_text(workload, shape, seed, t_end), encoding="utf-8")
        ratios = tuple(_physics(workload, shape, seed)["ratios"])
        invocations.append(Invocation(shape, path, ratios, steps * len(ratios)))
    return invocations
