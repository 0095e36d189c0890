"""Sprinkling regions and emptiness probabilities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouq import SprinkleRegion, VoidEstimate, void_probability_mc
from liouq.causet import (
    _ALIGN,
    _BLOCK,
    _PHILOX_W,
    _aligned_uint64,
    _last_empty_word,
    _philox_word0,
)
from liouq.errors import ConfigError, DomainError
from liouq.streams import stream


def laws(dr, rho=1.0):
    """Bare and exact laws as a Monte Carlo estimate reports them."""
    est = void_probability_mc(SprinkleRegion(dr, rho=rho), 100, seed=0)
    return est.analytic_bare, est.analytic_exact


def test_analytic_values():
    bare, exact = laws(1.0)
    assert bare == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert bare == pytest.approx(0.36788, abs=5e-6)
    assert exact == pytest.approx(np.exp(-(4.0 * np.pi / 3.0)), rel=1e-12)
    bare2, _ = laws(2.0)
    assert bare2 == pytest.approx(np.exp(-8.0), rel=1e-12)
    assert bare2 == pytest.approx(3.3546e-4, rel=1e-4)


def test_small_region_limit():
    bare, exact = laws(1e-6)
    assert bare == pytest.approx(1.0, abs=1e-12)
    assert exact == pytest.approx(1.0, abs=1e-12)


def test_exponents_differ_by_geometric_constant():
    for dr in (0.3, 1.0, 2.5):
        bare, exact = laws(dr)
        assert -np.log(exact) / -np.log(bare) == pytest.approx(
            4.0 * np.pi / 3.0, rel=1e-12
        )


@given(st.floats(0.1, 3.0), st.floats(0.1, 3.0))
@settings(max_examples=50, deadline=None)
def test_analytic_monotone_in_radius_and_density(dr, rho):
    p1 = laws(dr, rho=rho)[1]
    p2 = laws(dr * 1.1, rho=rho)[1]
    p3 = laws(dr, rho=rho * 1.1)[1]
    assert p2 < p1
    assert p3 < p1


def test_region_validation():
    with pytest.raises(ConfigError):
        SprinkleRegion(0.0)
    with pytest.raises(ConfigError):
        SprinkleRegion(1.0, rho=0.0)
    with pytest.raises(ConfigError):
        SprinkleRegion(1.0, duration=-1.0)
    with pytest.raises(ConfigError):
        SprinkleRegion(1.0, geometry="cylinder")
    inf = float("inf")
    for bad in ({"dr": inf}, {"dr": 1.0, "duration": inf}, {"dr": 1.0, "rho": inf}):
        with pytest.raises(ConfigError, match="finite"):
            SprinkleRegion(**bad)
    # finite parameters whose mean count is not: dr**3 overflows, rho V4 is inf
    for bad in ({"dr": 1e200}, {"dr": 0.5, "rho": 1e300, "duration": 1e300}):
        with pytest.raises(ConfigError, match="rho V4 must be finite"):
            SprinkleRegion(**bad)


def test_ball_volume():
    region = SprinkleRegion(2.0, duration=3.0)
    assert region.volume4 == pytest.approx((4.0 / 3.0) * np.pi * 8.0 * 3.0)
    box = SprinkleRegion(2.0, duration=3.0, geometry="box")
    assert box.volume4 == pytest.approx(24.0)


def test_mc_emptiness_matches_exact_law():
    region = SprinkleRegion(0.5)
    est = void_probability_mc(region, 20_000, seed=12)
    assert abs(est.empirical - est.analytic_exact) <= 3.0 * est.stderr
    assert est.analytic_exact == pytest.approx(
        np.exp(-(4.0 * np.pi / 3.0) * 0.125), rel=1e-12
    )
    # the exact law follows the region's geometry, density and duration
    box = SprinkleRegion(0.5, duration=2.0, geometry="box", rho=3.0)
    est = void_probability_mc(box, 100, seed=12)
    assert est.analytic_exact == pytest.approx(np.exp(-3.0 * 0.125 * 2.0), rel=1e-12)


def test_mc_large_radius_never_empty():
    est = void_probability_mc(SprinkleRegion(3.0), 10_000, seed=4)
    assert est.empirical == 0.0


def test_mc_requires_enough_trials():
    with pytest.raises(ConfigError):
        void_probability_mc(SprinkleRegion(1.0), 50, seed=0)


def test_estimate_validation():
    with pytest.raises(DomainError):
        VoidEstimate(1.2, 0.5, 0.5, 0.01, 100)
    with pytest.raises(DomainError):
        VoidEstimate(0.5, 0.5, 0.5, -0.01, 100)


# The one-pass sampler against each trial's own generator.  Warnings are
# errors here, so no uint64 overflow warning can leak from the Philox rounds.
strict = pytest.mark.filterwarnings("error")


def oracle_empty(seed, trials, mean_count):
    """Per-trial emptiness from a fresh numpy generator per trial."""
    return np.array([
        np.random.Generator(
            np.random.Philox(key=np.array([seed, t], dtype=np.uint64))
        ).poisson(mean_count) == 0
        for t in trials
    ])


def oracle_first_uniform(seed, trials, mean_count):
    """Per-trial emptiness: the first uniform of the trial's own stream is <= exp(-lambda)."""
    p = math.exp(-mean_count)
    return np.array([stream(seed, t).random() <= p for t in trials])


def region_with_mean(mean_count, geometry):
    region = SprinkleRegion(0.5, geometry=geometry)
    return SprinkleRegion(0.5, geometry=geometry, rho=mean_count / region.volume4)


@strict
@pytest.mark.parametrize("seed, trial", [(7, 3), (0, 0), (12, 2**40), (2**64 - 1, 5),
                                         (2**63 + 7, 2**64 - 1)])
def test_philox_word0_matches_numpy(seed, trial):
    word = _philox_word0(seed, np.array([trial], dtype=np.uint64))[0]
    raw = np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)).random_raw()
    assert int(word) == int(raw)


def numpy_word0(seed, trials):
    return np.array([
        np.random.Philox(key=np.array([seed, t], dtype=np.uint64)).random_raw()
        for t in trials
    ], dtype=np.uint64)


# seeds whose key word 0 wraps past 2**64 in round 1, is 0 in round 1, is 0
# in round 9; blocks of trials that start at 0 and straddle the wrap of
# trial + k1 in round 1 and in round 8 (the last round that adds it)
WRAP_SEEDS = [2**64 - 1, (2**64 - _PHILOX_W[0]) % 2**64, -9 * _PHILOX_W[0] % 2**64]
WRAP_STARTS = [0] + [-r * _PHILOX_W[1] % 2**64 - _BLOCK // 2 for r in (1, 8)]


@strict
@pytest.mark.parametrize("seed", WRAP_SEEDS)
@pytest.mark.parametrize("start", WRAP_STARTS)
def test_philox_word0_matches_numpy_over_a_block(seed, start):
    trials = np.arange(_BLOCK, dtype=np.uint64) + np.uint64(start)
    want = numpy_word0(seed, trials)
    np.testing.assert_array_equal(_philox_word0(seed, trials), want)


@strict
def test_philox_word0_writes_every_work_row_before_reading_it():
    trials = np.arange(1000, dtype=np.uint64) + np.uint64(2**64 - 1000)
    want = _philox_word0(5, trials)
    for fill in range(3):
        garbage = np.random.default_rng(fill).integers(
            0, 2**64, (9, trials.size), dtype=np.uint64, endpoint=False
        )
        np.testing.assert_array_equal(_philox_word0(5, trials, garbage), want)
    assert trials[0] == 2**64 - 1000  # the trials are left as they are


# seed 339's trial 1349 has the first uniform 6.7e-7 < exp(-14.1), so at
# that seed every mean count up to 14.1 has an empty trial among the first 1500
@strict
@pytest.mark.parametrize("seed", [0, 12, 339, 2**64 - 1])
@pytest.mark.parametrize("geometry", ["ball_times_interval", "box"])
@pytest.mark.parametrize("mean_count", [0.52, 9.999999, 10.0, 14.1, 1.1e20])
def test_empty_trials_match_per_trial_generator(seed, geometry, mean_count):
    region = region_with_mean(mean_count, geometry)
    lam = region.rho * region.volume4
    n = 1500
    want = oracle_first_uniform(seed, range(n), lam)
    if lam < 10:  # numpy's Poisson sampler multiplies uniforms here
        np.testing.assert_array_equal(oracle_empty(seed, range(n), lam), want)
    if seed == 339 and lam < 15:
        assert want[1349]
    words = _philox_word0(seed, np.arange(n, dtype=np.uint64))
    np.testing.assert_array_equal(words <= _last_empty_word(lam), want)
    est = void_probability_mc(region, n, seed)
    assert est.empirical == int(want.sum()) / n


@pytest.mark.parametrize("shape", [(11, _BLOCK), (9, 1000), (3,)])
def test_aligned_buffers_start_every_row_on_a_cache_line(shape):
    for _ in range(8):  # numpy's own buffers start at varying offsets
        buf = _aligned_uint64(shape)
        assert buf.shape == shape and buf.dtype == np.uint64
        assert buf.ctypes.data % _ALIGN == 0
        if shape == (11, _BLOCK):
            assert buf.strides[0] % _ALIGN == 0


@strict
def test_blocks_cover_a_ragged_trial_count():
    n = _BLOCK + 123
    region = region_with_mean(0.52, "box")
    est = void_probability_mc(region, n, seed=12)
    want = oracle_empty(12, range(n), region.rho * region.volume4)
    assert est.n_trials == n
    assert est.empirical == int(want.sum()) / n


@strict
def test_first_uniform_equal_to_threshold_is_empty():
    # numpy returns 0 when the first uniform equals exp(-lambda) exactly.
    # The trial's word has its 11 dropped bits all set, so it is the
    # largest word with that uniform: the last one that counts as empty.
    words = _philox_word0(3, np.arange(2**16, dtype=np.uint64))
    for trial in np.flatnonzero(words & np.uint64(0x7FF) == 0x7FF):
        u = float(int(words[trial]) >> 11) * 2.0**-53
        lam = -math.log(u)
        for _ in range(8):
            if math.exp(-lam) == u:
                break
            lam = math.nextafter(lam, math.inf if math.exp(-lam) > u else -math.inf)
        if math.exp(-lam) == u and 0 < lam < 10:
            break
    else:
        pytest.fail("no trial found whose first uniform is an exact exp(-lambda)")
    assert oracle_empty(3, [trial], lam)[0]
    assert words[trial] <= _last_empty_word(lam)
    above = math.nextafter(lam, math.inf)
    assert not oracle_empty(3, [trial], above)[0]
    assert not words[trial] <= _last_empty_word(above)
