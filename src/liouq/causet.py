"""Poisson sprinkling and the emptiness probability of spacetime regions.

Regions are a spatial ball of radius dr times a unit-duration interval
(default) or a cube of side dr times the interval, with unit sprinkling
density unless configured otherwise.  Only emptiness statistics are
computed; no order relations between sprinkled elements are built.

The bare estimate exp(-dr^3) drops the geometric constant of the ball
volume; the exact law for a Poisson process is exp(-rho V4).  Both are
always reported side by side.

Trial ``t`` of a Monte Carlo estimate draws its element count from
stream ``(seed, t)`` (:mod:`liouq.streams`).  For a mean count
lambda < 10 numpy's Poisson sampler multiplies uniforms until the
product drops to exp(-lambda), so the count is 0 exactly when the first
uniform is <= exp(-lambda).  That uniform is word 0 of the stream's
first Philox4x64-10 block, counter (1, 0, 0, 0), shifted right by 11
and scaled by 2^-53; it is computed here for a whole block of trials at
once, which gives every trial the emptiness its own generator gives.
The word itself is compared with the largest word whose uniform is
<= exp(-lambda), and the rounds run in place in buffers made once per
call, so the blocks allocate no memory.
From lambda = 10 on numpy switches to a rejection sampler (PTRS) that
consumes a variable number of draws, and each trial runs its own
generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .streams import check_seed, stream

_GEOMETRIES = ("ball_times_interval", "box")
_BLOCK = 8192  # trials per vectorized block: bounds the uint64 buffers
_PTRS_LAM = 10.0  # numpy's Poisson sampler leaves multiplication here
# numpy's Poisson sampler refuses a larger mean ("lam value too large")
_POISSON_LAM_MAX = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # round multipliers
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # key increments
_U64 = 2**64 - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


@dataclass(frozen=True)
class SprinkleRegion:
    """Sprinkling region in Planck units."""

    dr: float
    duration: float = 1.0
    geometry: str = "ball_times_interval"
    rho: float = 1.0

    def __post_init__(self):
        if not self.dr > 0:
            raise ConfigError("dr must be positive")
        if not self.duration > 0:
            raise ConfigError("duration must be positive")
        if not self.rho > 0:
            raise ConfigError("rho must be positive")
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


def _mulhi(m: int, x, hi, t, u, v):
    """``hi`` = high words of the 128-bit products ``m * x``, through 32-bit halves.

    ``t``, ``u`` and ``v`` are scratch rows; ``x`` is left as it is.  No
    partial sum reaches 2**64.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    np.right_shift(x, _SHIFT32, out=hi)  # x_hi
    np.bitwise_and(x, _LOW32, out=t)  # x_lo
    np.multiply(t, m_lo, out=u)
    np.right_shift(u, _SHIFT32, out=u)
    np.multiply(hi, m_lo, out=v)
    np.add(u, v, out=u)  # x_hi m_lo + carry of x_lo m_lo
    np.multiply(t, m_hi, out=t)
    np.bitwise_and(u, _LOW32, out=v)
    np.add(t, v, out=t)  # x_lo m_hi + low half of u
    np.multiply(hi, m_hi, out=hi)
    np.right_shift(u, _SHIFT32, out=u)
    np.add(hi, u, out=hi)
    np.right_shift(t, _SHIFT32, out=t)
    np.add(hi, t, out=hi)


def _philox_word0(seed: int, trials: np.ndarray, work=None) -> np.ndarray:
    """Word 0 of Philox4x64-10 at counter (1, 0, 0, 0), key ``(seed, trial)``.

    This is the first ``random_raw()`` of ``Philox(key=[seed, trial])``.
    Every round runs in place in the rows of ``work``, a ``(9, trials.size)``
    uint64 array (made here if not given); the result is one of its rows.
    """
    if work is None:
        work = np.empty((9, trials.size), dtype=np.uint64)
    c0, c1, c2, c3, h0, h1, t, u, v = work
    c0.fill(1)
    c1.fill(0)
    c2.fill(0)
    c3.fill(0)
    for rnd in range(10):
        # the key is bumped by the Weyl increments between rounds
        k0 = np.uint64((seed + rnd * _PHILOX_W[0]) & _U64)
        k1 = np.uint64((rnd * _PHILOX_W[1]) & _U64)  # plus the trial
        _mulhi(_PHILOX_M[0], c0, h0, t, u, v)
        _mulhi(_PHILOX_M[1], c2, h1, t, u, v)
        np.multiply(c0, np.uint64(_PHILOX_M[0]), out=c0)  # low words
        np.multiply(c2, np.uint64(_PHILOX_M[1]), out=c2)
        np.bitwise_xor(h1, c1, out=h1)
        np.bitwise_xor(h1, k0, out=h1)
        np.add(trials, k1, out=t)
        np.bitwise_xor(h0, c3, out=h0)
        np.bitwise_xor(h0, t, out=h0)
        # (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0); the old c1, c3 rows are free
        c0, c1, c2, c3, h0, h1 = h1, c2, h0, c0, c3, c1
    return c0


def _last_empty_word(mean_count: float) -> np.uint64:
    """Largest raw word whose uniform ``(word >> 11) * 2**-53`` is <= exp(-mean_count).

    That uniform is ``k * 2**-53`` with ``k = word >> 11``, exact in a
    double, so it is <= p exactly when ``k <= floor(p * 2**53)``, that
    is when ``word < (floor(p * 2**53) + 1) * 2**11``.  p is libm's exp,
    the one numpy's C sampler calls (``np.exp`` may not be).
    """
    p = math.exp(-mean_count)
    return np.uint64(min(((math.floor(p * 2.0**53) + 1) << 11) - 1, _U64))


def _empty_trials(
    seed: int, trials: np.ndarray, mean_count: float, work=None
) -> np.ndarray:
    """Whether stream ``(seed, t)`` draws a Poisson count of 0, per trial ``t``.

    ``work`` is the round buffer of :func:`_philox_word0`.
    """
    if mean_count >= _PTRS_LAM:
        return np.array(
            [int(stream(seed, int(t)).poisson(mean_count)) == 0 for t in trials],
            dtype=bool,
        )
    return _philox_word0(seed, trials, work) <= _last_empty_word(mean_count)


def void_probability_mc(
    region: SprinkleRegion, n_trials: int, seed: int
) -> VoidEstimate:
    """Empirical emptiness fraction with binomial standard error.

    Trial ``t`` is empty when stream ``(seed, t)`` draws a Poisson count
    of 0 with mean rho V4; below a mean of 10 that is decided for blocks
    of trials at once from each stream's first uniform (see the module
    docstring), from 10 on by each trial's own generator.  Either way
    every trial's outcome is the one its generator's ``poisson`` gives.
    Fewer than 100 trials raise ``ConfigError``; a mean above the
    sampler's limit raises ``DomainError``.
    """
    if n_trials < 100:
        raise ConfigError("need at least 100 trials")
    seed = check_seed(seed)
    mean_count = region.rho * region.volume4
    if not mean_count <= _POISSON_LAM_MAX:
        raise DomainError(
            f"mean count lambda = rho V4 = {mean_count:.3e} exceeds the "
            f"Poisson sampler's limit {_POISSON_LAM_MAX:.3e}"
        )
    # one set of buffers for every block, so the blocks allocate nothing
    offsets = np.arange(_BLOCK, dtype=np.uint64)
    trials = np.empty(_BLOCK, dtype=np.uint64)
    work = np.empty((9, _BLOCK), dtype=np.uint64)
    empty = 0
    for start in range(0, n_trials, _BLOCK):
        n = min(_BLOCK, n_trials - start)
        np.add(offsets[:n], np.uint64(start), out=trials[:n])
        flags = _empty_trials(seed, trials[:n], mean_count, work[:, :n])
        empty += int(np.count_nonzero(flags))
    empirical = empty / n_trials
    stderr = float(np.sqrt(empirical * (1.0 - empirical) / n_trials))
    bare_value = float(np.exp(-(region.dr**3)))
    exact_value = float(np.exp(-mean_count))
    return VoidEstimate(bare_value, exact_value, empirical, stderr, n_trials)
