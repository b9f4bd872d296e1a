"""Flat key-value scenario files and their validation.

Format: one `key = value` pair per line, `#` starts a comment, blank
lines ignored.  Dotted keys group sections, e.g.

    n_emitters = 2
    pulse.mu = 1.46
    emitter.gamma_r = 1.0      # applies to every emitter
    emitter.2.gamma_r = 5.0    # per-emitter override (1-based index)
    output.populations = eg+ge, ee
    sweep.ratios = 1, 2, 3, 4, 5

A section's keys and defaults are its config dataclass's fields: pulse.*
GaussianPulse, chain.* ChainConfig, emitter.* EmitterParams, integrator.*
IntegratorConfig.  All rates are in units of Gamma (== Gamma_l), times in 1/Gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .hierarchy import MAX_PHOTONS
from .liouvillian import ChainConfig, EmitterParams
from .integrator import IntegratorConfig
from .observables import population_indices
from .pulse import GaussianPulse
from .qubit_algebra import excitation_classes

__all__ = ["ScenarioError", "ScenarioFileError", "Scenario", "ratio_tag", "parse_scenario_text",
           "build_scenario", "load_scenario"]

# Each config dataclass is its section's schema: field -> the scenario key that
# sets it.  A key is parsed as its field's default is typed; unset, it keeps it.
_PULSE_KEYS = {"mu": "pulse.mu", "t_bar": "pulse.t_bar"}
_CHAIN_KEYS = {"d_ratio": "chain.d_ratio"}
_INTEGRATOR_KEYS = {"dt": "integrator.dt", "t_end": "integrator.t_end",
                    "record_stride": "integrator.stride"}
# emitter.<field> or emitter.<j>.<field>; k0d, a float drive phase, is the chain's
_EMITTER_FIELDS = tuple(f.name for f in fields(EmitterParams)) + ("k0d",)


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


def _read(kv: dict, cls, keys: dict) -> dict:
    """Pop the keys of `keys` that kv sets: {field: value parsed as its default is typed}."""
    parse = {name: _as_int if type(getattr(cls, name, None)) is int else _as_float for name in keys}
    return {name: parse[name](key, kv.pop(key)) for name, key in keys.items() if key in kv}


def _build(cls, keys: dict, values: dict):
    """cls(**values); a refusal is reported under the key of the field its message starts with."""
    try:
        return cls(**values)
    except ValueError as exc:  # every config's message starts with the field it refuses
        raise ScenarioError(keys[str(exc).split()[0]], str(exc)) from None


def ratio_tag(ratio: float) -> str:
    """Name of a sweep ratio in per-ratio file names and summary keys."""
    return f"{ratio:g}"


@dataclass(frozen=True)
class Scenario:
    n_photons: int
    pulse: GaussianPulse
    chain: ChainConfig
    integrator: IntegratorConfig
    populations: tuple
    want_concurrence: bool
    want_fill: bool
    want_pulse: bool
    sweep_ratios: tuple = None

    @property
    def n_emitters(self) -> int:
        return self.chain.n_emitters

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
        out = {"n_emitters": str(self.n_emitters), "n_photons": str(self.n_photons)}
        for section, keys in ((self.pulse, _PULSE_KEYS), (self.chain, _CHAIN_KEYS),
                              (self.integrator, _INTEGRATOR_KEYS)):
            out.update({key: str(getattr(section, name)) for name, key in keys.items()})
        out.update({
            "output.populations": ", ".join(self.populations),
            "output.concurrence": "true" if self.want_concurrence else "false",
            "output.fill": "true" if self.want_fill else "false",
            "output.pulse": "true" if self.want_pulse else "false",
        })
        for j, (em, phase) in enumerate(zip(self.chain.emitters, self.chain.k0d), start=1):
            out.update({f"emitter.{j}.{name}": str(getattr(em, name, phase))  # phase for k0d
                        for name in _EMITTER_FIELDS})
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

    n_photons = _as_int("n_photons", take("n_photons", "3"))
    if not 1 <= n_photons <= MAX_PHOTONS:
        raise ScenarioError("n_photons", f"must be 1..{MAX_PHOTONS}, got {n_photons}")

    pulse = _build(GaussianPulse, _PULSE_KEYS, _read(kv, GaussianPulse, _PULSE_KEYS))
    chain_values = _read(kv, ChainConfig, _CHAIN_KEYS)

    # each emitter's values and the keys that set them: chain-wide keys
    # first, then per-emitter overrides
    keys = [{name: f"emitter.{name}" for name in _EMITTER_FIELDS} for _ in range(n_emitters)]
    values = [{} for _ in range(n_emitters)]
    indices = [str(j) for j in range(1, n_emitters + 1)]
    for key in sorted((k for k in kv if k.startswith("emitter.")), key=lambda k: k.count(".")):
        _, *index, name = key.split(".")
        if len(index) > 1 or name not in _EMITTER_FIELDS:
            continue  # left for the unknown-key check
        targets = range(n_emitters)
        if index:
            if index[0] not in indices:  # one spelling per emitter: no "01" or "+2" beside "1", "2"
                raise ScenarioError(key, f"emitter index must be one of {', '.join(indices)}")
            targets = [indices.index(index[0])]
        value = _read(kv, EmitterParams, {name: key})[name]
        for j in targets:
            keys[j][name], values[j][name] = key, value
    written_phases = [v.pop("k0d", None) for v in values]
    emitters = tuple(_build(EmitterParams, k, v) for k, v in zip(keys, values))
    chain = ChainConfig(emitters, **chain_values)
    # A k0d key is only accepted at the phase the spacing already fixes.
    for j, (k, written, phase) in enumerate(zip(keys, written_phases, chain.k0d), start=1):
        if written is not None and written != phase:
            raise ScenarioError(k["k0d"], f"the drive phase of emitter {j} follows from "
                                f"chain.d_ratio: 2 pi d_ratio (j - 1) = {phase!r}, got {written!r}")

    icfg = _build(IntegratorConfig, _INTEGRATOR_KEYS, _read(kv, IntegratorConfig, _INTEGRATOR_KEYS))

    pops_raw = take("output.populations")
    populations = (excitation_classes(chain.register) if pops_raw is None
                   else tuple(_as_list("output.populations", pops_raw)))
    if len(set(populations)) < len(populations):
        raise ScenarioError("output.populations", f"labels repeat: {populations}")
    for label in populations:
        try:
            population_indices(chain.register, label)
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
    """The scenario in the file at `path`, UTF-8 with or without a byte-order mark;
    ScenarioFileError if it cannot be read so, ScenarioError if it is not valid."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
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
