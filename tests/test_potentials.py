"""Potential kinds, the coupling field, and segment identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouq import (
    Constant,
    GridSpec,
    Harmonic,
    Linear,
    PiecewiseLinear,
    Polynomial,
    Quartic,
    linearize,
    midpoint_term,
    segment_sum,
    step_schedule,
    superoperator_field,
)
from liouq.errors import ConfigError, DomainError

HARMONIC_ORDER = [Constant(2.0), Linear(0.7, -1.0), Harmonic(1.3), Polynomial((1.0, 2.0, 0.5))]
ANHARMONIC = [Quartic(1.0), Polynomial((0.0, 0.0, 0.0, 1.0))]


@pytest.mark.parametrize("v", HARMONIC_ORDER)
def test_field_vanishes_exactly_for_harmonic_order(v):
    field = superoperator_field(v, GridSpec(128, 10.0))
    assert np.abs(field).max() == 0.0


@pytest.mark.parametrize("v", ANHARMONIC)
def test_field_nonzero_for_anharmonic(v):
    field = superoperator_field(v, GridSpec(128, 10.0))
    assert np.abs(field).max() > 0.0


def test_field_quartic_hand_value():
    # scalar evaluation of the definition at (Q, q) = (1, 0), v = x^4:
    # 1 * 4 * 0.5^3 - 1 + 0 = -0.5
    v = Quartic(1.0)
    oracle = (1.0 - 0.0) * 4.0 * 0.5**3 - 1.0**4 + 0.0**4
    assert oracle == -0.5
    grid = GridSpec(40, 10.0)  # x lattice contains 0 and 1 exactly
    field = superoperator_field(v, grid)
    x = grid.x
    a = int(np.argmin(np.abs(x - 1.0)))
    b = int(np.argmin(np.abs(x)))
    assert x[a] == 1.0 and x[b] == 0.0
    assert field[a, b] == pytest.approx(-0.5, abs=1e-14)
    assert field[b, a] == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("v", HARMONIC_ORDER + ANHARMONIC)
def test_field_antisymmetry_exact(v):
    field = superoperator_field(v, GridSpec(64, 9.0))
    assert np.abs(field + field.T).max() == 0.0
    assert np.abs(np.diag(field)).max() == 0.0


def test_midpoint_term_quartic_hand_value():
    v = Quartic(1.0)
    assert midpoint_term(v, 0.0, 2.0) == pytest.approx(2.0 * 4.0, abs=1e-14)
    exact = v.value(2.0) - v.value(0.0)
    assert exact == 16.0  # the midpoint rule underestimates here


def test_midpoint_term_harmonic_equals_difference():
    v = Harmonic(1.0)
    got = midpoint_term(v, -1.0, 3.0)
    assert got == pytest.approx(4.0, abs=1e-14)
    assert got == pytest.approx(v.value(3.0) - v.value(-1.0), abs=1e-12)


def test_midpoint_term_zero_interval():
    assert midpoint_term(Quartic(2.0), 1.3, 1.3) == 0.0


@given(
    q=st.floats(-5.0, 5.0),
    Q=st.floats(-5.0, 5.0),
    kind=st.sampled_from(["constant", "linear", "harmonic"]),
)
@settings(max_examples=200, deadline=None)
def test_midpoint_equals_difference_for_harmonic_order(q, Q, kind):
    v = {"constant": Constant(1.5), "linear": Linear(2.0, 0.3), "harmonic": Harmonic(0.8)}[kind]
    assert midpoint_term(v, q, Q) == pytest.approx(
        float(v.value(Q) - v.value(q)), abs=1e-12
    )


def test_midpoint_mismatch_equals_field_value():
    # midpoint term minus the exact difference is the coupling field
    v = Quartic(0.7)
    grid = GridSpec(16, 4.0)
    field = superoperator_field(v, grid)
    x = grid.x
    for a, b in [(2, 9), (5, 13), (0, 15)]:
        algebra = midpoint_term(v, x[b], x[a]) - float(v.value(x[a]) - v.value(x[b]))
        assert algebra == pytest.approx(field[a, b], abs=1e-10)


def test_segment_sum_absolute_value_potential():
    # |x| with integer breakpoints: (-1)+(+1)+(+1) = 1 = v(2) - v(-1)
    bp = np.arange(-3.0, 4.0)
    v = PiecewiseLinear(bp, np.abs(bp))
    assert segment_sum(v, -1.0, 2.0) == pytest.approx(1.0, abs=1e-14)
    assert segment_sum(v, 2.0, -1.0) == pytest.approx(-1.0, abs=1e-14)
    assert segment_sum(v, 1.5, 1.5) == 0.0


def test_segment_sum_outside_range_rejected():
    v = PiecewiseLinear([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
    with pytest.raises(DomainError):
        segment_sum(v, -2.0, 0.5)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_segment_sum_matches_value_difference(seed):
    rng = np.random.default_rng(seed)
    bp = np.sort(rng.uniform(-10.0, 10.0, size=20))
    bp = np.unique(bp)
    if bp.size < 2:
        return
    v = PiecewiseLinear(bp, rng.uniform(-1.0, 1.0, size=bp.size))
    q, Q = rng.uniform(bp[0], bp[-1], size=2)
    got = segment_sum(v, q, Q)
    want = float(v.value(Q) - v.value(q))
    assert got == pytest.approx(want, abs=1e-12)
    assert segment_sum(v, Q, q) == -got


def test_piecewise_linear_validation():
    with pytest.raises(ConfigError):
        PiecewiseLinear([0.0, 0.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(ConfigError):
        PiecewiseLinear([0.0, 1.0], [0.0, 1.0, 2.0])


def test_breakpoint_derivative_uses_left_slope():
    v = PiecewiseLinear([-1.0, 0.0, 1.0], [1.0, 0.0, 2.0])
    assert float(v.derivative(0.0)) == -1.0
    assert float(v.derivative(0.5)) == 2.0


def test_linearize_harmonic_interpolation_bound():
    # standard linear-interpolation error: max|v''|/8 * delta^2
    omega = 1.0
    V = Harmonic(omega)
    grid = GridSpec(64, 2.0)
    delta = grid.spacing / 4.0
    pl = linearize(V, delta, (-2.0, 2.0))
    err = np.abs(pl.value(grid.x) - V.value(grid.x)).max()
    assert err <= omega**2 / 8.0 * delta**2 + 1e-12


def test_linearize_linear_is_exact():
    V = Linear(1.3, -0.4)
    pl = linearize(V, 0.37, (-2.0, 2.0))
    x = np.linspace(-2.0, 2.0, 101)
    assert np.abs(pl.value(x) - V.value(x)).max() <= 1e-13


def test_linearize_quartic_breakpoints():
    pl = linearize(Quartic(1.0), 0.5, (-2.0, 2.0))
    assert np.allclose(pl.breakpoints, np.arange(-2.0, 2.5, 0.5))
    assert np.allclose(pl.values, pl.breakpoints**4)
    assert np.allclose(pl.linearity_lengths, 0.5)


def test_linearize_delta_list_must_cover_range():
    with pytest.raises(DomainError):
        linearize(Harmonic(1.0), [0.5, 0.5], (-2.0, 2.0))
    pl = linearize(Harmonic(1.0), [1.0, 1.0, 1.0, 1.0], (-2.0, 2.0))
    assert pl.breakpoints[-1] == pytest.approx(2.0)


def test_step_schedule_lookup():
    sched = step_schedule([[0.0, 1.0], [1.0, 2.0], [2.5, 0.0]])
    assert sched(0.0) == 1.0
    assert sched(0.99) == 1.0
    assert sched(1.0) == 2.0
    assert sched(3.0) == 0.0
    v = Linear(sched, 0.0)
    assert v.time_dependent
    assert float(v.derivative(0.0, t=1.5)) == 2.0
