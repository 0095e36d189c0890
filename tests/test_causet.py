"""Sprinkling statistics and emptiness probabilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouq import (
    SprinkleRegion,
    VoidEstimate,
    sprinkle,
    void_probability_analytic,
    void_probability_mc,
)
from liouq.errors import ConfigError, DomainError


def test_analytic_values():
    bare, exact = void_probability_analytic(1.0)
    assert bare == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert bare == pytest.approx(0.36788, abs=5e-6)
    assert exact == pytest.approx(np.exp(-(4.0 * np.pi / 3.0)), rel=1e-12)
    bare2, _ = void_probability_analytic(2.0)
    assert bare2 == pytest.approx(np.exp(-8.0), rel=1e-12)
    assert bare2 == pytest.approx(3.3546e-4, rel=1e-4)


def test_small_region_limit():
    bare, exact = void_probability_analytic(1e-6)
    assert bare == pytest.approx(1.0, abs=1e-12)
    assert exact == pytest.approx(1.0, abs=1e-12)


def test_exponents_differ_by_geometric_constant():
    for dr in (0.3, 1.0, 2.5):
        bare, exact = void_probability_analytic(dr)
        assert -np.log(exact) / -np.log(bare) == pytest.approx(
            4.0 * np.pi / 3.0, rel=1e-12
        )


@given(st.floats(0.1, 3.0), st.floats(0.1, 3.0))
@settings(max_examples=50, deadline=None)
def test_analytic_monotone_in_radius_and_density(dr, rho):
    p1 = void_probability_analytic(dr, rho=rho)[1]
    p2 = void_probability_analytic(dr * 1.1, rho=rho)[1]
    p3 = void_probability_analytic(dr, rho=rho * 1.1)[1]
    assert p2 < p1
    assert p3 < p1


def test_region_validation():
    with pytest.raises(DomainError):
        SprinkleRegion(0.0)
    with pytest.raises(DomainError):
        SprinkleRegion(1.0, rho=0.0)
    with pytest.raises(DomainError):
        SprinkleRegion(1.0, duration=-1.0)
    with pytest.raises(ConfigError):
        SprinkleRegion(1.0, geometry="cylinder")


def test_ball_volume():
    region = SprinkleRegion(2.0, duration=3.0)
    assert region.volume4 == pytest.approx((4.0 / 3.0) * np.pi * 8.0 * 3.0)
    box = SprinkleRegion(2.0, duration=3.0, geometry="box")
    assert box.volume4 == pytest.approx(24.0)


def test_sprinkle_poisson_count_statistics():
    # box with 4-volume 10 at unit density: counts are Poisson(10)
    region = SprinkleRegion(10.0 ** (1.0 / 3.0), geometry="box")
    trials = 10_000
    counts = np.array([sprinkle(region, 5, t).shape[0] for t in range(trials)])
    assert abs(counts.mean() - 10.0) <= 4.0 * np.sqrt(10.0 / trials)
    assert abs(counts.var() - 10.0) <= 0.5


def test_sprinkle_positions_inside_region():
    region = SprinkleRegion(1.5, duration=2.0)
    pts = sprinkle(region, 9, 4)
    radii = np.linalg.norm(pts[:, :3], axis=1)
    assert np.all(radii <= 1.5)
    assert np.all((pts[:, 3] >= 0) & (pts[:, 3] <= 2.0))


def test_sprinkle_tiny_volume_mostly_empty():
    region = SprinkleRegion(1e-3)
    counts = [sprinkle(region, 2, t).shape[0] for t in range(200)]
    assert max(counts) == 0


def test_sprinkle_determinism():
    region = SprinkleRegion(1.0)
    a = sprinkle(region, 31, 7)
    b = sprinkle(region, 31, 7)
    assert np.array_equal(a, b)
    c = sprinkle(region, 31, 8)
    assert a.shape != c.shape or not np.array_equal(a, c)


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
    with pytest.raises(DomainError):
        void_probability_mc(SprinkleRegion(1.0), 50, seed=0)


def test_estimate_validation():
    with pytest.raises(DomainError):
        VoidEstimate(1.2, 0.5, 0.5, 0.01, 100)
    with pytest.raises(DomainError):
        VoidEstimate(0.5, 0.5, 0.5, -0.01, 100)
