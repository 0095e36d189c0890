"""Grid containers, transforms, state invariants, serialization."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liouq as lq
from liouq import (
    DensityGrid,
    GridSpec,
    PhaseSpaceDistribution,
    Qq_to_xp,
    XYGrid,
    load_state,
    make_cat_density,
    make_gaussian_phase_space,
    qq_to_xy,
    xp_to_Qq,
    xp_to_xy,
    xy_to_Qq,
    xy_to_xp,
)
from liouq.errors import ConfigError, DomainError
from liouq.grids import boundary_frame, hermiticity_defect

SIGMA = 1.0 / np.sqrt(2.0)


@pytest.mark.parametrize("L", [0.5, 1.0, 3.7, 6.0, 10.0, 23.3])
def test_y_wavenumbers_are_half_the_x_ones(L):
    for n in range(8, 257, 2):
        grid = GridSpec(n, L)
        k = grid.wavenumbers
        assert np.array_equal(k, 2.0 * np.pi * np.fft.fftfreq(n, grid.spacing))
        assert np.array_equal(0.5 * k, 2.0 * np.pi * np.fft.fftfreq(n, grid.y_spacing))


def test_grid_spec_coupling():
    grid = GridSpec(64, 8.0)
    assert grid.spacing == pytest.approx(0.25)
    assert grid.y_spacing == 2 * grid.spacing
    # momentum grid is the Fourier dual of the y grid
    assert grid.momentum_spacing * grid.y_spacing == pytest.approx(
        2 * np.pi / grid.n_points, rel=1e-15
    )
    assert grid.x[grid.n_points // 2] == 0.0
    assert grid.p[grid.n_points // 2] == 0.0


@pytest.mark.parametrize("n, L", [(7, 1.0), (6, 1.0), (0, 1.0), (16, 0.0), (16, -2.0)])
def test_grid_spec_rejects_bad_parameters(n, L):
    with pytest.raises(ConfigError):
        GridSpec(n, L)


def test_gaussian_is_normalized(grid64):
    f = make_gaussian_phase_space(0.0, 0.0, SIGMA, SIGMA, grid64)
    assert f.mass() == pytest.approx(1.0, abs=1e-9)


def test_gaussian_peak_location(grid64):
    f = make_gaussian_phase_space(1.0, 0.0, SIGMA, SIGMA, grid64)
    i, j = np.unravel_index(np.argmax(f.values), f.values.shape)
    assert abs(grid64.x[i] - 1.0) <= grid64.spacing / 2
    assert abs(grid64.p[j]) <= grid64.momentum_spacing / 2


def test_gaussian_rejects_wide_support(grid64):
    with pytest.raises(DomainError):
        make_gaussian_phase_space(7.5, 0.0, 1.0, SIGMA, grid64)
    with pytest.raises(DomainError):
        make_gaussian_phase_space(0.0, 0.0, -1.0, SIGMA, grid64)


# margin / sigma near 1e161, whose square a float cannot hold
@pytest.mark.parametrize(
    "build, fits",
    [
        (lambda g: make_gaussian_phase_space(0, 0, 0.7, 1e-160, g), True),
        (lambda g: make_gaussian_phase_space(0.1, 0, 1e-160, 0.7, g), False),
        (lambda g: make_cat_density(g, 4.0, 1e-160), True),
        (lambda g: make_cat_density(g, 4.0, 1e-170), False),  # sigma^2 is 0
    ],
    ids=["gaussian_on_p_0", "gaussian_between_x_points", "cat_on_x_2",
         "cat_sigma_sq_0"],
)
def test_narrow_states_neither_overflow_nor_warn(grid64, build, fits):
    # a packet narrower than a cell is a state where it sits on a lattice
    # point, else a DomainError; pytest turns any warning into an error
    if fits:
        assert np.isfinite(build(grid64).values).all()
    else:
        with pytest.raises(DomainError, match="narrower than a cell"):
            build(grid64)


def test_pure_state_roundtrip_stays_positive(grid64):
    # sigma_x * sigma_p = 1/2: the analytic density is positive everywhere,
    # so the reconstructed grid may only dip to rounding level
    f = make_gaussian_phase_space(0.0, 0.0, SIGMA, SIGMA, grid64)
    assert f.values.min() >= 0.0
    back = Qq_to_xp(xp_to_Qq(f))
    assert back.values.min() >= -1e-9


def test_xp_to_xy_direct_sum_oracle(gaussian64):
    # brute-force evaluation of the transform at a few points
    grid = gaussian64.grid
    fxy = xp_to_xy(gaussian64)
    rng = np.random.default_rng(1)
    for _ in range(3):
        i = int(rng.integers(0, grid.n_points))
        k = int(rng.integers(0, grid.n_points))
        direct = grid.momentum_spacing * np.sum(
            np.exp(1j * grid.p * grid.y[k]) * gaussian64.values[i, :]
        )
        assert fxy.values[i, k] == pytest.approx(direct, abs=1e-12)


def test_xy_of_p_independent_density_concentrates_at_zero(grid64):
    vals = np.outer(np.exp(-grid64.x**2), np.ones(grid64.n_points))
    vals /= vals.sum() * grid64.spacing * grid64.momentum_spacing
    f = PhaseSpaceDistribution(grid64, vals)
    fxy = xp_to_xy(f)
    zero_col = grid64.n_points // 2
    off = np.delete(np.abs(fxy.values), zero_col, axis=1)
    assert np.abs(fxy.values[:, zero_col]).max() > 0
    assert off.max() <= 1e-12 * np.abs(fxy.values).max()


def test_real_input_gives_conjugate_symmetry(gaussian64):
    fxy = xp_to_xy(gaussian64).values
    n = gaussian64.grid.n_points
    # y -> -y maps index k to n - k for k >= 1
    flipped = fxy[:, 1:][:, ::-1]
    assert np.abs(flipped - fxy[:, 1:].conj()).max() <= 1e-12


def test_real_input_gives_hermitian_density(gaussian64):
    fqq = xp_to_Qq(gaussian64).values
    assert np.abs(fqq - fqq.conj().T).max() <= 1e-12


def test_point_mass_lands_on_diagonal(grid64):
    n = grid64.n_points
    vals = np.zeros((n, n), dtype=complex)
    i0 = n // 2 + 5  # x = a, y = 0
    vals[i0, n // 2] = 1.0
    fqq = xy_to_Qq(XYGrid(grid64, vals))
    a = np.unravel_index(np.argmax(np.abs(fqq.values)), fqq.values.shape)
    assert a == (i0, i0)
    assert abs(grid64.x[a[0]] - grid64.x[i0]) == 0.0


@given(
    cx=st.floats(-1.0, 1.0),
    cp=st.floats(-1.0, 1.0),
    sx=st.floats(0.6, 0.9),
    sp=st.floats(0.7, 1.0),
)
@settings(max_examples=25, deadline=None)
def test_transform_chain_roundtrips(cx, cp, sx, sp):
    grid = GridSpec(128, 10.0)
    f = make_gaussian_phase_space(cx, cp, sx, sp, grid)
    fxy = xp_to_xy(f)
    assert np.abs(xy_to_xp(fxy).values - f.values).max() <= 1e-12
    fqq = xy_to_Qq(fxy)
    assert np.abs(qq_to_xy(fqq).values - fxy.values).max() <= 1e-12
    assert np.abs(Qq_to_xp(xp_to_Qq(f)).values - f.values).max() <= 1e-12


def test_momentum_roundtrip_is_exact_for_arbitrary_input(grid32):
    # the momentum transform pair inverts any finite field, not just states
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((32, 32))
    f = PhaseSpaceDistribution(grid32, vals)
    back = xy_to_xp(xp_to_xy(f))
    assert np.abs(back.values - vals).max() <= 1e-12 * np.abs(vals).max()


def test_parseval(gaussian64):
    grid = gaussian64.grid
    fxy = xp_to_xy(gaussian64)
    lhs = grid.spacing * grid.y_spacing * np.sum(np.abs(fxy.values) ** 2)
    rhs = (
        2.0
        * np.pi
        * grid.spacing
        * grid.momentum_spacing
        * np.sum(np.abs(gaussian64.values) ** 2)
    )
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_trace_equals_total_mass(gaussian64):
    fqq = xp_to_Qq(gaussian64)
    assert fqq.trace().real == pytest.approx(gaussian64.mass(), abs=1e-9)
    assert abs(fqq.trace().imag) <= 1e-12


def _invariants(f: DensityGrid):
    """Trace, Hermiticity defect and reconstructed-density minimum of ``f``."""
    return f.trace(), hermiticity_defect(f.values), float(Qq_to_xp(f).values.min())


def test_diagnostics_normalized_state(gaussian64):
    trace, defect, min_density = _invariants(xp_to_Qq(gaussian64))
    assert trace.real == pytest.approx(1.0, abs=1e-9)
    assert defect <= 1e-12
    assert min_density >= -1e-9


def test_diagnostics_invariant_under_swap_conjugate(gaussian64):
    fqq = xp_to_Qq(gaussian64)
    swapped = DensityGrid(fqq.grid, fqq.values.conj().T, fqq.time)
    t1, h1, m1 = _invariants(fqq)
    t2, h2, m2 = _invariants(swapped)
    assert t1 == pytest.approx(t2, abs=1e-12)
    assert h1 == pytest.approx(h2, abs=1e-15)
    assert m1 == pytest.approx(m2, abs=1e-12)


def test_diagnostics_detects_constructed_defect(gaussian64):
    fqq = xp_to_Qq(gaussian64)
    eps = 1e-3
    vals = fqq.values.copy()
    vals[3, 9] += 1j * eps  # no mirror update
    _, defect, _ = _invariants(DensityGrid(fqq.grid, vals))
    assert defect >= eps


def test_cat_state_negativity_is_reported(grid64):
    cat = make_cat_density(grid64, 4.0, 0.7)
    trace, _, min_density = _invariants(cat)
    assert trace.real == pytest.approx(1.0, abs=1e-12)
    # the interference ridge goes negative beyond rounding; never clipped
    assert min_density < -1e-12 * max(np.abs(Qq_to_xp(cat).values).max(), 1.0)


@pytest.mark.parametrize(
    "edge", [(0, 17), (-1, 17), (17, 0), (17, -1)], ids=["top", "bottom", "left", "right"]
)
def test_boundary_frame_propagates_nan_on_every_edge(grid32, edge):
    vals = np.ones((grid32.n_points, grid32.n_points), dtype=complex)
    vals[edge] = np.nan
    assert np.isnan(boundary_frame(vals))


def test_boundary_frame_is_the_largest_edge_magnitude():
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    edges = [vals[0, :], vals[-1, :], vals[:, 0], vals[:, -1]]
    assert boundary_frame(vals) == max(float(np.abs(e).max()) for e in edges)


@pytest.mark.parametrize(
    "kind, dtype",
    [
        (PhaseSpaceDistribution, np.float64),
        (XYGrid, np.complex128),
        (DensityGrid, np.complex128),
    ],
    ids=lambda p: getattr(p, "__name__", None),
)
def test_state_types_share_one_storage_rule(grid32, kind, dtype):
    n = grid32.n_points
    state = kind(grid32, np.arange(n * n).reshape(n, n))  # integers are cast
    assert state.values.dtype == dtype
    assert state.time == 0.0
    assert repr(state).startswith(f"{kind.__name__}(grid=")
    with pytest.raises(ValueError):
        state.values[0, 0] = 1.0
    # a contiguous array of the state's dtype is stored, not copied
    given = np.zeros((n, n), dtype=dtype)
    assert kind(grid32, given).values is given
    assert not given.flags.writeable
    with pytest.raises(ConfigError, match="does not match grid"):
        kind(grid32, np.zeros((n, n - 2)))
    for bad in (np.nan, np.inf):
        vals = np.zeros((n, n))
        vals[1, 2] = bad
        with pytest.raises(DomainError, match="finite"):
            kind(grid32, vals)


@pytest.mark.parametrize("maker", ["xp", "xy", "qq"])
def test_serialization_roundtrip(tmp_path, gaussian64, maker):
    state = {
        "xp": gaussian64,
        "xy": xp_to_xy(gaussian64),
        "qq": xp_to_Qq(gaussian64),
    }[maker]
    path = tmp_path / f"{maker}.csv"
    lq.save_state(state, path)
    loaded = load_state(path)
    assert type(loaded) is type(state)
    assert loaded.grid == state.grid
    assert loaded.time == state.time
    assert np.abs(np.asarray(loaded.values) - np.asarray(state.values)).max() <= 1e-15
    axes = {"xp": "x,p", "xy": "x,y", "qq": "Q,q"}[maker]
    assert f" axes={axes} " in path.read_text().splitlines()[0]
    assert loaded.axes == state.axes == axes


def _body(edit):
    return lambda lines: lines[:1] + edit(lines[1:])


def _header(old, new):
    return lambda lines: [lines[0].replace(old, new)] + lines[1:]


@pytest.mark.parametrize(
    "edit",
    [
        _body(lambda rows: rows[:9]),
        _body(lambda rows: rows + ["0,0,5.0,0.0"]),
        _body(lambda rows: rows[:-1] + [rows[0]]),
        _body(lambda rows: rows[:-1] + ["9,7,1.0,0.0"]),
        _body(lambda rows: rows[:-1] + ["-1,7,1.0,0.0"]),
        _body(lambda rows: rows[:-1] + ["7,7,1.0"]),
        _body(lambda rows: rows[:-1] + ["7,seven,1.0,0.0"]),
        _header("L=4.0", "L=abc"),
        _header("L=4.0", "L=inf"),
        _header("time=0.0", "time=later"),
        _header("time=0.0", "time=nan"),
        lambda lines: [lines[0].replace("axes=Q,q", "axes=x,p")] + lines[1:-1] + ["7,7,1.0,1.5"],
        lambda lines: ["garbage"] + lines[1:],
        _header("axes=Q,q", "axes=a,b"),
    ],
    ids=["truncated", "padded", "cell_twice", "row_9", "row_minus_1", "three_fields",
         "not_a_number", "L_not_a_number", "L_infinite", "time_not_a_number",
         "time_nan", "xp_imaginary", "header_garbage", "axes_unknown"],
)
def test_load_state_rejects_a_malformed_body(tmp_path, edit):
    # the body must be exactly n^2 rows i,j,re,im on distinct cells of the
    # grid, with im zero in an x,p file, and the header must name known axes
    # and finite numbers for L and time
    path = tmp_path / "state.csv"
    lq.save_state(DensityGrid(GridSpec(8, 4.0), np.eye(8)), path)
    lines = path.read_text().splitlines()
    assert load_state(path).trace() == 8.0
    assert edit(lines) != lines
    path.write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(ConfigError):
        load_state(path)


def _joined_writer(state, path):
    """The whole-file writer save_state replaced: every row, then one join."""
    grid = state.grid
    vals = np.asarray(state.values, dtype=complex)
    n = grid.n_points
    lines = [
        f"# grid n={n} L={float(grid.half_width)!r} axes={state.axes} "
        f"time={float(state.time)!r}"
    ]
    re_part = vals.real.tolist()
    im_part = vals.imag.tolist()
    for i in range(n):
        for j in range(n):
            lines.append(f"{i},{j},{re_part[i][j]!r},{im_part[i][j]!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# -0.0, the least subnormal, a value repr writes with an exponent, one it
# writes in full, and a 17-digit mantissa
EDGE_VALUES = [-0.0, 5e-324, 1e-5, 1e16, 0.30000000000000004]


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("kind", [PhaseSpaceDistribution, XYGrid, DensityGrid],
                         ids=lambda k: k.__name__)
def test_save_state_matches_the_joined_writer_byte_for_byte(tmp_path, n, kind):
    rng = np.random.default_rng(n)
    vals = rng.standard_normal((n, n))
    if kind.dtype is complex:
        vals = vals + 1j * rng.standard_normal((n, n))
        vals.imag[1, :5] = EDGE_VALUES
    vals[0, :5] = EDGE_VALUES
    state = kind(GridSpec(n, 3.7), vals, 0.1 + 0.2)
    lq.save_state(state, tmp_path / "streamed.csv")
    _joined_writer(state, tmp_path / "joined.csv")
    streamed = (tmp_path / "streamed.csv").read_bytes()
    assert streamed == (tmp_path / "joined.csv").read_bytes()
    assert b"0,0,-0.0," in streamed and b",5e-324," in streamed
    assert np.array_equal(load_state(tmp_path / "streamed.csv").values, state.values)


@pytest.mark.parametrize("kind", [PhaseSpaceDistribution, DensityGrid],
                         ids=lambda k: k.__name__)
def test_save_state_holds_one_row_of_text(tmp_path, kind):
    # the joined writer's traced peak at n=256 is 17.4 MB for a (Q, q) state
    # and 14.9 MB for an (x, p) one
    n = 256
    rng = np.random.default_rng(0)
    state = kind(GridSpec(n, 8.0), rng.standard_normal((n, n)))
    tracemalloc.start()
    try:
        lq.save_state(state, tmp_path / "state.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.25e6


def test_serialization_header_format(tmp_path, gaussian64):
    path = tmp_path / "state.csv"
    lq.save_state(xp_to_Qq(gaussian64), path)
    header = path.read_text().splitlines()[0]
    assert header.startswith("# grid n=64 L=8.0 axes=Q,q time=")


def test_state_values_are_immutable(gaussian64):
    with pytest.raises((ValueError, RuntimeError)):
        gaussian64.values[0, 0] = 1.0
