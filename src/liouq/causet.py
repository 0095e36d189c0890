"""Poisson sprinkling and the emptiness probability of spacetime regions.

Regions are a spatial ball of radius dr times a unit-duration interval
(default) or a cube of side dr times the interval, with unit sprinkling
density unless configured otherwise.  Only emptiness statistics are
computed; no order relations between sprinkled elements are built.

The bare estimate exp(-dr^3) drops the geometric constant of the ball
volume; the exact law for a Poisson process is exp(-rho V4).  Both are
always reported side by side.

Trial ``t`` of a Monte Carlo estimate is empty when the first uniform
of stream ``(seed, t)`` (:mod:`liouq.streams`) is <= exp(-lambda), with
lambda = rho V4 the mean count: an exact Bernoulli draw of the void law,
by one rule at every lambda.  Below lambda = 10 numpy's Poisson sampler
multiplies uniforms until the product drops to exp(-lambda), so there
the rule marks exactly the trials whose generator's ``poisson(lambda)``
is 0.  That uniform is word 0 of the stream's first Philox4x64-10
block, counter (1, 0, 0, 0), shifted right by 11 and scaled by 2^-53;
it is computed here for a whole block of trials at once, which gives
every trial the uniform its own generator gives.
Only the arithmetic that differs between trials and reaches word 0 runs
on arrays: round 0 and the seed lane of round 1 are the same for every
trial and are Python integers, and rounds 7 to 9 form only the words
that word 0 reads.  Every operation kept is the one the full rounds do,
so each word is numpy's, bit for bit.
The word itself is compared with the largest word whose uniform is
<= exp(-lambda), and the rounds run in place in buffers made once per
call, so the blocks allocate no memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .streams import check_seed

_GEOMETRIES = ("ball_times_interval", "box")
_BLOCK = 8192  # trials per vectorized block: bounds the uint64 buffers
_ALIGN = 64  # bytes: where the block buffers start (a cache line)
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
        if not 0 < self.dr < math.inf:
            raise ConfigError("dr must be positive and finite")
        if not 0 < self.duration < math.inf:
            raise ConfigError("duration must be positive and finite")
        if not 0 < self.rho < math.inf:
            raise ConfigError("rho must be positive and finite")
        if self.geometry not in _GEOMETRIES:
            raise ConfigError(f"unknown geometry {self.geometry!r}")
        try:
            mean_count = self.rho * self.volume4
        except OverflowError:  # dr**3 beyond a double
            mean_count = math.inf
        if not mean_count < math.inf:
            raise ConfigError("the mean count rho V4 must be finite")

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
    A round maps the counter ``(c0, c1, c2, c3)`` under the key
    ``(k0, k1)`` to ``(hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1,
    lo(M0 c0))``, and the key then gains the Weyl increments.  Only the
    rounds' arithmetic that differs between trials and reaches word 0 is
    done on arrays:

    * round 0 takes the counter to ``(seed, 0, trial, M0)``, with no
      arithmetic per trial;
    * in round 1 only lane c2 (the trial) needs the vector high product;
      the products of lane c0 (the seed) are Python integers;
    * round 9 returns word 0 alone, which reads only round 8's words 1
      and 2, so round 8 forms just those two and round 7 skips its
      word 1, which only round 8's word 0 would read.

    Each skipped operation's result is never read, and every other one is
    the same integer operation as in the full rounds, so the words are
    bit for bit numpy's.  The rounds run in place in the rows of
    ``work``, a ``(9, trials.size)`` uint64 array (made here if not
    given); every row is written before it is read, and the result is one
    of its rows.
    """
    if work is None:
        work = np.empty((9, trials.size), dtype=np.uint64)
    c0, c1, c2, c3, h0, h1, t, u, v = work
    m0, m1 = _PHILOX_M
    # the round keys: each key word plus its Weyl increment once per round
    k0 = [np.uint64((seed + rnd * _PHILOX_W[0]) & _U64) for rnd in range(10)]
    k1 = [np.uint64((rnd * _PHILOX_W[1]) & _U64) for rnd in range(10)]  # + trial
    # round 0 gives (seed, 0, trial, M0); round 1's lane-c0 products are integers
    hi0, lo0 = divmod(m0 * seed, 2**64)
    _mulhi(m1, trials, h1, t, u, v)
    np.bitwise_xor(h1, k0[1], out=c0)  # c1 is 0
    np.multiply(trials, np.uint64(m1), out=c1)
    np.add(trials, k1[1], out=c2)
    np.bitwise_xor(c2, np.uint64(hi0 ^ m0), out=c2)
    c3.fill(lo0)
    for rnd in range(2, 8):
        _mulhi(m0, c0, h0, t, u, v)
        _mulhi(m1, c2, h1, t, u, v)
        np.multiply(c0, np.uint64(m0), out=c0)  # low words
        if rnd < 7:  # round 8 does not read round 7's word 1
            np.multiply(c2, np.uint64(m1), out=c2)
        np.bitwise_xor(h1, c1, out=h1)
        np.bitwise_xor(h1, k0[rnd], out=h1)
        np.add(trials, k1[rnd], out=t)
        np.bitwise_xor(h0, c3, out=h0)
        np.bitwise_xor(h0, t, out=h0)
        # (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0); the old c1, c3 rows are free
        c0, c1, c2, c3, h0, h1 = h1, c2, h0, c0, c3, c1
    # round 8: only its words 1 and 2
    _mulhi(m0, c0, h0, t, u, v)
    np.multiply(c2, np.uint64(m1), out=c1)
    np.bitwise_xor(h0, c3, out=h0)
    np.add(trials, k1[8], out=t)
    np.bitwise_xor(h0, t, out=h0)
    # round 9: word 0 alone
    _mulhi(m1, h0, h1, t, u, v)
    np.bitwise_xor(h1, c1, out=h1)
    np.bitwise_xor(h1, k0[9], out=h1)
    return h1


def _aligned_uint64(shape) -> np.ndarray:
    """An uninitialised uint64 array whose data starts on an ``_ALIGN`` boundary.

    numpy's buffers are only 16-byte aligned, so where a plain
    ``np.empty`` starts within a cache line depends on the heap's state,
    and with it the speed of the Philox rounds: buffers 16 bytes off a
    32-byte boundary ran them about 9 % slower on a 2-core Intel Xeon
    (AVX-512) host.  Starting every buffer on a cache line makes that
    speed the same in every process.
    """
    n = math.prod(shape)
    raw = np.empty(n + _ALIGN // 8, dtype=np.uint64)
    skip = (-raw.ctypes.data % _ALIGN) // 8
    return raw[skip : skip + n].reshape(shape)


def _last_empty_word(mean_count: float) -> np.uint64:
    """Largest raw word whose uniform ``(word >> 11) * 2**-53`` is <= exp(-mean_count).

    That uniform is ``k * 2**-53`` with ``k = word >> 11``, exact in a
    double, so it is <= p exactly when ``k <= floor(p * 2**53)``, that
    is when ``word < (floor(p * 2**53) + 1) * 2**11``.  p is libm's exp,
    the one numpy's C sampler calls (``np.exp`` may not be).
    """
    p = math.exp(-mean_count)
    return np.uint64(min(((math.floor(p * 2.0**53) + 1) << 11) - 1, _U64))


def void_probability_mc(
    region: SprinkleRegion, n_trials: int, seed: int
) -> VoidEstimate:
    """Empirical emptiness fraction with binomial standard error.

    Trial ``t`` is empty when the first uniform of stream ``(seed, t)``
    is <= exp(-rho V4), decided for blocks of trials at once from each
    stream's Philox word 0 (see the module docstring).  Below a mean
    count of 10 these are exactly the trials whose generator's
    ``poisson`` gives 0.  Fewer than 100 trials raise ``ConfigError``.
    """
    if n_trials < 100:
        raise ConfigError("need at least 100 trials")
    seed = check_seed(seed)
    mean_count = region.rho * region.volume4
    last_empty = _last_empty_word(mean_count)
    # one set of buffers for every block, so the blocks allocate nothing;
    # _BLOCK words are whole cache lines, so every row starts on one
    buffers = _aligned_uint64((11, _BLOCK))
    work, trials, offsets = buffers[:9], buffers[9], buffers[10]
    offsets[:] = np.arange(_BLOCK, dtype=np.uint64)
    empty = 0
    for start in range(0, n_trials, _BLOCK):
        n = min(_BLOCK, n_trials - start)
        np.add(offsets[:n], np.uint64(start), out=trials[:n])
        words = _philox_word0(seed, trials[:n], work[:, :n])
        empty += int(np.count_nonzero(words <= last_empty))
    empirical = empty / n_trials
    stderr = float(np.sqrt(empirical * (1.0 - empirical) / n_trials))
    bare_value = float(np.exp(-(region.dr**3)))
    exact_value = float(np.exp(-mean_count))
    return VoidEstimate(bare_value, exact_value, empirical, stderr, n_trials)
