"""Poisson sprinkling and the emptiness probability of spacetime regions.

Regions are a spatial ball of radius dr times a unit-duration interval
(default) or a cube of side dr times the interval, with unit sprinkling
density unless configured otherwise.  Only emptiness statistics are
computed; no order relations between sprinkled elements are built.

The bare estimate exp(-dr^3) drops the geometric constant of the ball
volume; the exact law for a Poisson process is exp(-rho V4).  Both are
always reported side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

_GEOMETRIES = ("ball_times_interval", "box")


@dataclass(frozen=True)
class SprinkleRegion:
    """Sprinkling region in Planck units."""

    dr: float
    duration: float = 1.0
    geometry: str = "ball_times_interval"
    rho: float = 1.0

    def __post_init__(self):
        if not self.dr > 0:
            raise DomainError("dr must be positive")
        if not self.duration > 0:
            raise DomainError("duration must be positive")
        if not self.rho > 0:
            raise DomainError("rho must be positive")
        if self.geometry not in _GEOMETRIES:
            raise ConfigError(f"unknown geometry {self.geometry!r}")

    @property
    def volume4(self) -> float:
        if self.geometry == "ball_times_interval":
            return (4.0 / 3.0) * np.pi * self.dr**3 * self.duration
        return self.dr**3 * self.duration


@dataclass(frozen=True)
class VoidEstimate:
    analytic_bare: float
    analytic_exact: float
    empirical: float
    stderr: float
    n_trials: int

    def __post_init__(self):
        for name in ("analytic_bare", "analytic_exact", "empirical"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"{name} must be a probability, got {value}")
        if self.stderr < 0:
            raise DomainError("stderr cannot be negative")


def _trial_stream(seed: int, trial: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(trial)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def void_probability_mc(
    region: SprinkleRegion, n_trials: int, seed: int
) -> VoidEstimate:
    """Empirical emptiness fraction with binomial standard error."""
    if n_trials < 100:
        raise DomainError("need at least 100 trials")
    mean_count = region.rho * region.volume4
    empty = 0
    for trial in range(n_trials):
        rng = _trial_stream(seed, trial)
        if int(rng.poisson(mean_count)) == 0:
            empty += 1
    empirical = empty / n_trials
    stderr = float(np.sqrt(empirical * (1.0 - empirical) / n_trials))
    bare_value = float(np.exp(-(region.dr**3)))
    exact_value = float(np.exp(-mean_count))
    return VoidEstimate(bare_value, exact_value, empirical, stderr, n_trials)
