"""Scenario files: flat dotted-key configs with strict validation.

Format: one ``key = value`` assignment per line; blank lines and lines
starting with ``#`` are ignored.  Values are parsed as JSON where
possible (numbers, booleans, lists) and fall back to bare strings, so
``potential.kind = harmonic`` needs no quotes.  Unknown keys and
duplicate keys are rejected, and nothing is computed until the whole
scenario validates.

See ``SCHEMA`` for the full key list and defaults.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import ConfigError, DomainError
from .evolvers import EvolverConfig
from .grids import (
    DensityGrid,
    GridSpec,
    PhaseSpaceDistribution,
    boundary_fraction,
    make_cat_density,
    make_gaussian_phase_space,
    xp_to_Qq,
)
from .potentials import (
    Constant,
    Harmonic,
    Linear,
    PiecewiseLinear,
    Polynomial,
    Potential,
    Quartic,
    linearize,
    step_schedule,
)
from .stochastic import NoiseSpec

_SIGMA_DEFAULT = 1.0 / math.sqrt(2.0)  # sigma_x * sigma_p = 1/2: pure Gaussian

# key -> (type tag, default); required-ness depends on the potential/state kind
SCHEMA = {
    "grid.n": ("int", 128),
    "grid.L": ("float", 10.0),
    "potential.kind": ("str", None),
    "potential.params.c": ("float", None),
    "potential.params.a": ("float", None),
    "potential.params.b": ("float", None),
    "potential.params.omega": ("float", None),
    "potential.params.lam": ("float", None),
    "potential.params.a_schedule": ("list", None),
    "potential.coeffs": ("list", None),
    "potential.breakpoints": ("list", None),
    "potential.values": ("list", None),
    "potential.delta": ("float_or_list", None),
    "state.kind": ("str", "gaussian"),
    "state.x0": ("float", 0.0),
    "state.p0": ("float", 0.0),
    "state.sigma_x": ("float", _SIGMA_DEFAULT),
    "state.sigma_p": ("float", _SIGMA_DEFAULT),
    "state.separation": ("float", 4.0),
    "evolve.engine": ("str", "vonneumann"),
    "evolve.dt": ("float", 1e-3),
    "evolve.t_final": ("float", 1.0),
    "evolve.record_every": ("int", 0),  # 0 = choose about 32 records
    "evolve.tail_threshold": ("float", 1e-10),
    "noise.nu0": ("float", 1.0),
    "noise.seed": ("int", 12345),
    "ensemble.realizations": ("int", 1000),
    "probes": ("list", None),
    "output.dir": ("str", None),
}

_NUMERIC = ("float", "float_or_list", "list")  # type tags whose values are numbers
_AS_IS = {"str": str, "list": list}  # type tags kept as parsed
_ENGINES = ("classical", "qq", "vonneumann")
_POLYNOMIALS = {  # potential.kind -> (constructor, the key it takes)
    "harmonic": (Harmonic, "potential.params.omega"),
    "quartic": (Quartic, "potential.params.lam"),
    "polynomial": (lambda coeffs: Polynomial(tuple(coeffs)), "potential.coeffs"),
}
_STATE_KEYS = {  # state.kind -> the keys its constructor takes, besides the grid
    "gaussian": ("state.x0", "state.p0", "state.sigma_x", "state.sigma_p"),
    "cat": ("state.separation", "state.sigma_x", "state.p0"),
}
_STATE_KINDS = tuple(_STATE_KEYS)


def parse_scenario_text(text: str) -> dict:
    """Parse the flat key-value format; strict about duplicates and keys."""
    mapping: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in mapping:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            value = json.loads(value_text)
        except json.JSONDecodeError:
            value = value_text
        mapping[key] = _coerce(key, value)
        if SCHEMA[key][0] in _NUMERIC and not _finite(mapping[key]):
            raise ConfigError(
                f"line {lineno}: {key!r} must hold finite numbers only, got {value!r}"
            )
    return mapping


def _finite(value) -> bool:
    """True for a finite number or a nested list of finite numbers."""
    if isinstance(value, list):
        return all(_finite(item) for item in value)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    # not math.isfinite, which raises OverflowError on an int past the float range
    return number and abs(value) <= sys.float_info.max


def _coerce(key: str, value):
    tag = SCHEMA[key][0]
    try:
        if tag in _AS_IS:
            if not isinstance(value, _AS_IS[tag]):
                raise ValueError
            return value
        if tag == "float_or_list" and isinstance(value, list):
            return value
        if isinstance(value, bool):
            raise ValueError
        if tag == "int":
            if int(value) != float(value):
                raise ValueError
            return int(value)
        return float(value)  # "float" and "float_or_list"
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"key {key!r}: expected {tag}, got {value!r}")


@dataclass(frozen=True)
class Scenario:
    """Validated scenario; ``settings`` holds defaults merged with the file."""

    settings: dict

    def __getitem__(self, key: str):
        return self.settings[key]

    # -- derived builders ---------------------------------------------------

    def build_grid(self) -> GridSpec:
        return GridSpec(self["grid.n"], self["grid.L"])

    def build_potential(self) -> Potential:
        kind = self["potential.kind"]
        if kind is None:
            raise ConfigError("potential.kind is required")
        base = self._base_potential(kind)
        delta = self["potential.delta"]
        if delta is not None and kind != "piecewise_linear":
            with self._bad_keys("potential", "potential.delta", "grid.L"):
                return linearize(base, delta, (-self["grid.L"], self["grid.L"]))
        return base

    def _base_potential(self, kind: str) -> Potential:
        def need(key: str):
            value = self[key]
            if value is None:
                raise ConfigError(f"{key} is required for potential.kind={kind!r}")
            return value

        if kind == "constant":
            return Constant(self["potential.params.c"] or 0.0)
        if kind == "linear":
            a = self["potential.params.a"]
            b = self["potential.params.b"]
            if self["potential.params.a_schedule"] is not None:
                with self._bad_keys("potential", "potential.params.a_schedule"):
                    a = step_schedule(self["potential.params.a_schedule"])
            if a is None:
                raise ConfigError(
                    "potential.params.a is required for potential.kind='linear'"
                )
            return Linear(a, 0.0 if b is None else b)
        if kind in _POLYNOMIALS:
            build, key = _POLYNOMIALS[kind]
            value = need(key)
            with self._bad_keys("potential", key):
                v = build(value)
                # Harmonic squares omega, which can leave the float range
                if not all(map(math.isfinite, v.coeffs)):
                    raise DomainError(f"coefficients {v.coeffs} are not all finite")
                return v
        if kind == "piecewise_linear":
            keys = ("potential.breakpoints", "potential.values")
            breakpoints, values = (need(key) for key in keys)
            with self._bad_keys("potential", *keys):
                return PiecewiseLinear(breakpoints, values)
        raise ConfigError(f"unknown potential.kind {kind!r}")

    @contextmanager
    def _bad_keys(self, what: str, *keys):
        """Re-raise a constructor's error as a bad value of ``keys`` for ``what``."""
        try:
            yield
        except (ConfigError, DomainError) as exc:
            named = ", ".join(f"{key} = {self[key]}" for key in keys)
            raise ConfigError(f"no valid {what} from {named}: {exc}") from exc

    def build_initial_xp(self) -> PhaseSpaceDistribution:
        if self["state.kind"] != "gaussian":
            raise ConfigError("phase-space initial states must be gaussian")
        keys = _STATE_KEYS["gaussian"]
        grid = self.build_grid()
        with self._bad_keys("initial state", *keys, "grid.n", "grid.L"):
            return make_gaussian_phase_space(*(self[key] for key in keys), grid)

    def build_initial_density(self) -> DensityGrid:
        """The (Q, q) initial state; its tail must be within ``evolve.tail_threshold``.

        The rule: no state an engine returns, ``f0`` included, exceeds the
        threshold. The stepped engines read only stepped states, so an
        ``f0`` over it is rejected here, as a bad value of its keys.
        """
        if self["state.kind"] == "gaussian":
            f0 = xp_to_Qq(self.build_initial_xp())
        else:
            keys = _STATE_KEYS["cat"]  # make_cat_density's order: separation, sigma, momentum
            with self._bad_keys("initial state", *keys, "grid.n", "grid.L"):
                f0 = make_cat_density(self.build_grid(), *(self[key] for key in keys))
        keys = (*_STATE_KEYS[self["state.kind"]], "grid.n", "grid.L", "evolve.tail_threshold")
        with self._bad_keys("initial state", *keys):
            tail = boundary_fraction(f0.values)
            if tail > self["evolve.tail_threshold"]:
                raise DomainError(f"(Q, q) boundary tail {tail:.3e} over the threshold")
        return f0

    def build_evolver_config(self) -> EvolverConfig:
        dt = self["evolve.dt"]
        t_final = self["evolve.t_final"]
        if not math.isfinite(t_final / dt):
            raise ConfigError("evolve.t_final / evolve.dt is past the float range")
        n_steps = int(round(t_final / dt))
        if n_steps < 1 or abs(n_steps * dt - t_final) > 1e-9 * max(t_final, 1.0):
            raise ConfigError("evolve.t_final must be a positive multiple of evolve.dt")
        record_every = self["evolve.record_every"]
        if record_every == 0:
            record_every = max(1, n_steps // 32)
        return EvolverConfig(
            dt=dt,
            n_steps=n_steps,
            record_every=record_every,
            tail_threshold=self["evolve.tail_threshold"],
        )

    def build_noise_spec(self) -> NoiseSpec:
        return NoiseSpec(nu=self["noise.nu0"], seed=self["noise.seed"])

    @property
    def content_hash(self) -> str:
        canon = "\n".join(
            f"{k} = {json.dumps(self.settings[k], sort_keys=True)}"
            for k in sorted(self.settings)
        )
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _validate(mapping: dict) -> dict:
    settings = {key: default for key, (_, default) in SCHEMA.items()}
    settings.update(mapping)

    if settings["state.kind"] not in _STATE_KINDS:
        raise ConfigError(f"state.kind must be one of {_STATE_KINDS}")
    if settings["evolve.engine"] not in _ENGINES:
        raise ConfigError(f"evolve.engine must be one of {_ENGINES}")
    # EvolverConfig checks dt too, but build_evolver_config divides by it first
    if settings["evolve.dt"] <= 0:
        raise ConfigError("evolve.dt must be positive")
    if settings["noise.nu0"] < 0:
        raise ConfigError("noise.nu0 must be >= 0")
    if settings["ensemble.realizations"] < 2:
        raise ConfigError("ensemble.realizations must be >= 2")
    probes = settings["probes"]
    if probes is not None:
        n = settings["grid.n"]
        for pair in probes:
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(i, int) and 0 <= i < n for i in pair)
            ):
                raise ConfigError(f"probes entries must be [i, j] index pairs, got {pair!r}")

    scenario = Scenario(settings)
    # construct everything up front so invalid scenarios fail before compute
    scenario.build_grid()
    if settings["potential.kind"] is not None:
        scenario.build_potential()
    scenario.build_evolver_config()
    scenario.build_noise_spec()
    return settings


def load_scenario(path) -> Scenario:
    """Read and fully validate a scenario file."""
    with open(path) as fh:
        mapping = parse_scenario_text(fh.read())
    return Scenario(_validate(mapping))


def scenario_from_text(text: str) -> Scenario:
    return Scenario(_validate(parse_scenario_text(text)))
