"""Flat key-value scenario files and their validation.

Format: one `key = value` pair per line, `#` starts a comment, blank
lines ignored.  Dotted keys group sections, e.g.

    n_emitters = 2
    pulse.mu = 1.46
    emitter.gamma_r = 1.0      # applies to every emitter
    emitter.2.gamma_r = 5.0    # per-emitter override (1-based index)
    output.populations = eg+ge, ee
    sweep.ratios = 1, 2, 3, 4, 5

All rates are in units of Gamma (== Gamma_l), times in 1/Gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .hierarchy import MAX_PHOTONS
from .liouvillian import ChainConfig, EmitterParams
from .integrator import IntegratorConfig
from .observables import population_indices
from .pulse import GaussianPulse
from .qubit_algebra import EmitterRegister

__all__ = ["ScenarioError", "ScenarioFileError", "Scenario", "ratio_tag", "parse_scenario_text",
           "build_scenario", "load_scenario"]

_EMITTER_FIELDS = ("gamma_r", "gamma_l", "gamma_spont", "delta", "k0d")

# IntegratorConfig field -> the scenario key that sets it
_INTEGRATOR_KEYS = {"dt": "integrator.dt", "t_end": "integrator.t_end",
                    "record_stride": "integrator.stride"}

_DEFAULT_POPULATIONS = {
    1: ("e",),
    2: ("eg+ge", "ee"),
    3: ("egg+geg+gge", "eeg+ege+gee", "eee"),
}

_EMITTER_DEFAULTS = {"gamma_r": 1.0, "gamma_l": 1.0, "gamma_spont": 0.0, "delta": 0.0}


class ScenarioError(ValueError):
    """Invalid scenario input; `key` names the offending entry."""

    def __init__(self, key: str, message: str):
        self.key = key
        self.message = message
        super().__init__(f"scenario key {key!r}: {message}")

    def __reduce__(self):  # rebuild from the arguments, not from the formatted message
        return type(self), (self.key, self.message)


class ScenarioFileError(Exception):
    """The scenario file cannot be read as UTF-8 text; the message names it."""


def parse_scenario_text(text: str) -> dict:
    """Raw key -> value-string map from scenario-file text."""
    kv = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(line, f"line {lineno} is not a 'key = value' pair")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ScenarioError(raw.strip(), f"line {lineno} has an empty key")
        if key in kv:
            raise ScenarioError(key, f"duplicated on line {lineno}")
        kv[key] = value
    return kv


def _as_float(key, value):
    try:
        x = float(value)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise ScenarioError(key, f"expected a finite number, got {value!r}")
    return x


def _as_int(key, value):
    try:
        return int(value)
    except ValueError:
        raise ScenarioError(key, f"expected an integer, got {value!r}") from None


def _as_bool(key, value):
    low = value.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ScenarioError(key, f"expected true/false, got {value!r}")


def _as_list(key, value):
    """The comma-separated items of a value; an empty value is an empty list."""
    if not value.strip():
        return []
    items = [item.strip() for item in value.split(",")]
    if "" in items:
        raise ScenarioError(key, f"empty item in the list {value!r}")
    return items


def ratio_tag(ratio: float) -> str:
    """Name of a sweep ratio in per-ratio file names and summary keys."""
    return f"{ratio:g}"


@dataclass(frozen=True)
class Scenario:
    n_emitters: int
    n_photons: int
    pulse: GaussianPulse
    chain: ChainConfig
    integrator: IntegratorConfig
    populations: tuple
    want_concurrence: bool
    want_fill: bool
    want_pulse: bool
    sweep_ratios: tuple = None

    def with_dt(self, dt: float) -> "Scenario":
        try:
            icfg = replace(self.integrator, dt=dt)
        except ValueError as exc:  # not finite and > 0, or past the step-count limit
            raise ScenarioError("integrator.dt", str(exc)) from None
        return replace(self, integrator=icfg)

    def with_ratio(self, ratio: float) -> "Scenario":
        """Chirality-sweep variant: every emitter gets gamma_r = ratio * gamma_l."""
        emitters = tuple(
            replace(em, gamma_r=ratio * em.gamma_l) for em in self.chain.emitters
        )
        return replace(self, chain=replace(self.chain, emitters=emitters), sweep_ratios=None)

    def resolved(self) -> dict:
        """Full effective configuration as a flat scenario-compatible map."""
        out = {
            "n_emitters": str(self.n_emitters),
            "n_photons": str(self.n_photons),
            "pulse.mu": repr(self.pulse.mu),
            "pulse.t_bar": repr(self.pulse.t_bar),
            "chain.d_ratio": repr(self.chain.d_ratio),
            "integrator.dt": repr(self.integrator.dt),
            "integrator.t_end": repr(self.integrator.t_end),
            "integrator.stride": str(self.integrator.record_stride),
            "output.populations": ", ".join(self.populations),
            "output.concurrence": "true" if self.want_concurrence else "false",
            "output.fill": "true" if self.want_fill else "false",
            "output.pulse": "true" if self.want_pulse else "false",
        }
        for j, (em, phase) in enumerate(zip(self.chain.emitters, self.chain.k0d), start=1):
            out[f"emitter.{j}.gamma_r"] = repr(em.gamma_r)
            out[f"emitter.{j}.gamma_l"] = repr(em.gamma_l)
            out[f"emitter.{j}.gamma_spont"] = repr(em.gamma_spont)
            out[f"emitter.{j}.delta"] = repr(em.delta)
            out[f"emitter.{j}.k0d"] = repr(phase)
        if self.sweep_ratios is not None:
            out["sweep.ratios"] = ", ".join(repr(r) for r in self.sweep_ratios)
        return out


def build_scenario(kv: dict) -> Scenario:
    """Validate a raw key-value map and resolve it into a Scenario."""
    kv = dict(kv)

    def take(key, default=None):
        return kv.pop(key) if key in kv else default

    if "n_emitters" not in kv:
        raise ScenarioError("n_emitters", "required key is missing")
    n_emitters = _as_int("n_emitters", take("n_emitters"))
    if not 1 <= n_emitters <= 3:
        raise ScenarioError("n_emitters", f"must be 1..3, got {n_emitters}")
    register = EmitterRegister(n_emitters)

    n_photons = _as_int("n_photons", take("n_photons", "3"))
    if not 1 <= n_photons <= MAX_PHOTONS:
        raise ScenarioError("n_photons", f"must be 1..{MAX_PHOTONS}, got {n_photons}")

    mu = _as_float("pulse.mu", take("pulse.mu", "1.46"))
    t_bar = _as_float("pulse.t_bar", take("pulse.t_bar", "5.0"))
    try:
        pulse = GaussianPulse(mu=mu, t_bar=t_bar)
    except ValueError as exc:  # mu not > 0; t_bar parsed finite, which is all it needs
        raise ScenarioError("pulse.mu", str(exc)) from None

    d_ratio = _as_float("chain.d_ratio", take("chain.d_ratio", "0.0"))

    # emitter values, each kept with the key that set it: chain-wide keys
    # first, then per-emitter overrides
    per = [{name: (f"emitter.{name}", v) for name, v in _EMITTER_DEFAULTS.items()}
           for _ in range(n_emitters)]
    indices = [str(j) for j in range(1, n_emitters + 1)]
    for key in sorted((k for k in kv if k.startswith("emitter.")), key=lambda k: k.count(".")):
        parts = key.split(".")
        if len(parts) > 3 or parts[-1] not in _EMITTER_FIELDS:
            continue  # left for the unknown-key check
        targets = per
        if len(parts) == 3:
            if parts[1] not in indices:  # one spelling per emitter: no "01" or "+2" beside "1", "2"
                raise ScenarioError(key, f"emitter index must be one of {', '.join(indices)}")
            targets = [per[indices.index(parts[1])]]
        value = _as_float(key, kv.pop(key))
        for p in targets:
            p[parts[-1]] = (key, value)
    written_phases = [p.pop("k0d", None) for p in per]
    emitters = []
    for p in per:
        try:
            emitters.append(EmitterParams(**{name: v for name, (_, v) in p.items()}))
        except ValueError as exc:  # the message starts with the field
            raise ScenarioError(p[str(exc).split()[0]][0], str(exc)) from None
    chain = ChainConfig(tuple(emitters), d_ratio=d_ratio)
    # A k0d key is only accepted at the phase the spacing already fixes.
    for j, (written, phase) in enumerate(zip(written_phases, chain.k0d), start=1):
        if written is not None and written[1] != phase:
            raise ScenarioError(written[0], f"the drive phase of emitter {j} follows from "
                                f"chain.d_ratio: 2 pi d_ratio (j - 1) = {phase!r}, got {written[1]!r}")

    dt = _as_float("integrator.dt", take("integrator.dt", "1e-3"))
    t_end = _as_float("integrator.t_end", take("integrator.t_end", "12.0"))
    stride = _as_int("integrator.stride", take("integrator.stride", "10"))
    try:
        icfg = IntegratorConfig(dt=dt, t_end=t_end, record_stride=stride)
    except ValueError as exc:  # the message starts with the field; the step limit names t_end
        raise ScenarioError(_INTEGRATOR_KEYS[str(exc).split()[0]], str(exc)) from None

    pops_raw = take("output.populations")
    if pops_raw is None:
        populations = _DEFAULT_POPULATIONS[n_emitters]
    else:
        populations = tuple(_as_list("output.populations", pops_raw))
    if len(set(populations)) < len(populations):
        raise ScenarioError("output.populations", f"labels repeat: {populations}")
    for label in populations:
        try:
            population_indices(register, label)
        except ValueError as exc:
            raise ScenarioError("output.populations", str(exc)) from None

    want_concurrence = _as_bool(
        "output.concurrence", take("output.concurrence", "true" if n_emitters == 2 else "false")
    )
    want_fill = _as_bool(
        "output.fill", take("output.fill", "true" if n_emitters == 3 else "false")
    )
    want_pulse = _as_bool("output.pulse", take("output.pulse", "true"))
    if want_concurrence and n_emitters != 2:
        raise ScenarioError("output.concurrence", f"needs n_emitters = 2, have {n_emitters}")
    if want_fill and n_emitters != 3:
        raise ScenarioError("output.fill", f"needs n_emitters = 3, have {n_emitters}")

    sweep_ratios = None
    ratios_raw = take("sweep.ratios")
    if ratios_raw is not None:
        items = _as_list("sweep.ratios", ratios_raw)
        if not items:
            raise ScenarioError("sweep.ratios", "ratio list is empty")
        # + 0.0 turns -0 into 0, so that "0, -0" share the tag "0" and are refused below
        sweep_ratios = tuple(_as_float("sweep.ratios", item) + 0.0 for item in items)
        if any(r < 0 for r in sweep_ratios):
            raise ScenarioError("sweep.ratios", "ratios must be >= 0")
        tags = [ratio_tag(r) for r in sweep_ratios]
        if len(set(tags)) < len(tags):
            raise ScenarioError("sweep.ratios", f"ratios share an output file tag: {tags}")

    if kv:
        unknown = sorted(kv)[0]
        raise ScenarioError(unknown, "unknown key")

    sc = Scenario(
        n_emitters=n_emitters,
        n_photons=n_photons,
        pulse=pulse,
        chain=chain,
        integrator=icfg,
        populations=populations,
        want_concurrence=want_concurrence,
        want_fill=want_fill,
        want_pulse=want_pulse,
        sweep_ratios=sweep_ratios,
    )
    for ratio in sweep_ratios or ():
        try:
            sc.with_ratio(ratio)
        except ValueError as exc:  # ratio * gamma_l overflows to inf
            raise ScenarioError("sweep.ratios", f"ratio {ratio!r}: {exc}") from None
    return sc


def load_scenario(path, dt_override: float = None) -> Scenario:
    """The scenario in the file at `path`; ScenarioFileError if the file
    cannot be read as UTF-8 text, ScenarioError if it is not a valid scenario."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ScenarioFileError(f"cannot read scenario file {path}: not found") from None
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, not UTF-8
        reason = getattr(exc, "strerror", None) or exc
        raise ScenarioFileError(f"cannot read scenario file {path}: {reason}") from None
    sc = build_scenario(parse_scenario_text(text))
    if dt_override is not None:
        sc = sc.with_dt(dt_override)
    return sc
