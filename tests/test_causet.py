"""Sprinkling regions and emptiness probabilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouq import SprinkleRegion, VoidEstimate, void_probability_mc
from liouq.errors import ConfigError, DomainError


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
