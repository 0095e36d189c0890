"""Grids, state containers and the exact transform chain between representations.

A single ensemble state appears in three representations:

``(x, p)``
    real phase-space density on an ``n x n`` lattice,
``(x, y)``
    complex mixed representation, discrete Fourier transform of the
    momentum axis,
``(Q, q)``
    complex density-matrix elements with both axes on the spatial
    lattice, reached from ``(x, y)`` through the shear ``Q = x + y/2``,
    ``q = x - y/2``.

Grid coupling
-------------
The y grid is chosen with ``dy = 2 dx`` so that ``x ± y/2`` lands on
spatial lattice points and the shear needs no interpolation.  Fourier
duality then pins the momentum spacing to ``dp = 2π / (n dy)``, so the
momentum half-width is ``n π / (4 L)`` rather than ``L`` itself.

Density-grid cells whose coordinates sit between ``(x, y)`` lattice
points (odd index parity) are filled from the half-cell spectrally
shifted field, which is exact for the trigonometric interpolant of the
stored samples.  Reading the grid back uses only directly remapped
cells, so round trips are exact for states whose support stays away
from the periodic boundary (evolution engines monitor this through a
tail threshold).

Units: hbar = 1, unit mass.  The momentum transform carries no
prefactor on the forward direction, ``f(x,y) = Σ_p dp e^{ipy} f(x,p)``,
which makes the trace of the density grid equal the total phase-space
probability; the ``1/(2π)`` sits in the inverse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConfigError, DomainError

TAIL_LIMIT = 1e-12  # allowed relative boundary tail for freshly built states
# margin / sigma at which a Gaussian tail exp(-r^2 / 2) reaches TAIL_LIMIT;
# margins are compared unsquared, so that no huge ratio overflows
_TAIL_SIGMAS = float(np.sqrt(-2.0 * np.log(TAIL_LIMIT)))


@dataclass(frozen=True)
class GridSpec:
    """Square computational lattice: ``n_points`` per axis on ``[-L, L)``."""

    n_points: int
    half_width: float

    def __post_init__(self):
        if self.n_points < 8 or self.n_points % 2 != 0:
            raise ConfigError("n_points must be an even integer >= 8")
        if not self.half_width > 0:
            raise ConfigError("half_width must be positive")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.n_points

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.n_points) - self.n_points // 2) * self.spacing

    @property
    def wavenumbers(self) -> np.ndarray:
        """2π fftfreq(n, dx) in FFT order; the y lattice's are exactly half."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, self.spacing)

    @property
    def y_spacing(self) -> float:
        return 2.0 * self.spacing

    @property
    def y(self) -> np.ndarray:
        return (np.arange(self.n_points) - self.n_points // 2) * self.y_spacing

    @property
    def momentum_spacing(self) -> float:
        # Fourier dual of the y grid: dp * dy = 2 pi / n.
        return 2.0 * np.pi / (self.n_points * self.y_spacing)

    @property
    def p(self) -> np.ndarray:
        n = self.n_points
        return (np.arange(n) - n // 2) * self.momentum_spacing

    @property
    def momentum_half_width(self) -> float:
        return 0.5 * self.n_points * self.momentum_spacing


def _check_shape(grid: GridSpec, values: np.ndarray) -> None:
    if values.shape != (grid.n_points, grid.n_points):
        raise ConfigError(
            f"values shape {values.shape} does not match grid "
            f"({grid.n_points} x {grid.n_points})"
        )
    if not np.all(np.isfinite(values)):
        raise DomainError("state values must be finite")


@dataclass(frozen=True)
class _State:
    """One representation of a state: finite ``n x n`` values, read-only.

    A subclass names its value ``dtype`` and its ``axes`` label, the
    label :func:`save_state` writes and :func:`load_state` reads.  The
    stored array is the one given whenever it is already contiguous and
    of that dtype, and it is made read-only, so a caller that goes on
    writing to its array must pass a copy.
    """

    grid: GridSpec
    values: np.ndarray
    time: float = 0.0

    dtype: ClassVar[type]
    axes: ClassVar[str]

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=self.dtype)
        _check_shape(self.grid, vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


class PhaseSpaceDistribution(_State):
    """Real density f(x, p) on the phase-space lattice; axes (x, p)."""

    dtype = float
    axes = "x,p"

    def mass(self) -> float:
        """Total probability, sum f dx dp."""
        return float(
            self.values.sum() * self.grid.spacing * self.grid.momentum_spacing
        )


class XYGrid(_State):
    """Complex mixed representation f(x, y); axes (x, y) with dy = 2 dx."""

    dtype = complex
    axes = "x,y"


class DensityGrid(_State):
    """Complex density-matrix elements f(Q, q); both axes on the x lattice."""

    dtype = complex
    axes = "Q,q"

    def trace(self) -> complex:
        return complex(np.trace(self.values) * self.grid.spacing)


# ---------------------------------------------------------------------------
# state constructors


def make_gaussian_phase_space(
    center_x: float,
    center_p: float,
    sigma_x: float,
    sigma_p: float,
    grid: GridSpec,
) -> PhaseSpaceDistribution:
    """Normalized Gaussian ensemble.

    With ``sigma_x * sigma_p = 1/2`` the density-grid image is a pure
    Gaussian state, so the reconstructed density stays non-negative.
    Raises :class:`DomainError` when the analytic tails at the domain
    boundary exceed ``1e-12`` of the peak.
    """
    if sigma_x <= 0 or sigma_p <= 0:
        raise DomainError("sigma_x and sigma_p must be positive")
    margin_x = grid.half_width - abs(center_x)
    margin_p = grid.momentum_half_width - abs(center_p)
    if margin_x <= 0 or margin_p <= 0:
        raise DomainError("gaussian center outside the grid")
    ratio = min(margin_x / sigma_x, margin_p / sigma_p)
    if ratio < _TAIL_SIGMAS:
        raise DomainError(
            f"gaussian tail {np.exp(-0.5 * ratio**2):.2e} at the boundary exceeds "
            f"{TAIL_LIMIT:.0e}; enlarge the grid or shrink the state"
        )
    with np.errstate(over="ignore"):  # far from a narrow packet it is 0
        gx = np.exp(-0.5 * ((grid.x - center_x) / sigma_x) ** 2)
        gp = np.exp(-0.5 * ((grid.p - center_p) / sigma_p) ** 2)
    vals = np.outer(gx, gp)
    mass = vals.sum() * grid.spacing * grid.momentum_spacing
    if not mass > 0:
        raise DomainError("gaussian narrower than a cell misses every lattice point")
    vals /= mass
    return PhaseSpaceDistribution(grid, vals, 0.0)


def make_cat_density(
    grid: GridSpec,
    separation: float,
    sigma: float,
    momentum: float = 0.0,
) -> DensityGrid:
    """Projector onto a superposition of two Gaussian packets at ±d/2.

    The cross terms carry the spatial coherence probed by decoherence
    studies; the state is normalized to unit trace on the lattice.
    """
    if sigma <= 0:
        raise DomainError("sigma must be positive")
    if separation < 0:
        raise DomainError("separation must be non-negative")
    margin = grid.half_width - separation / 2.0
    if not margin / sigma >= _TAIL_SIGMAS:
        raise DomainError("cat-state packets too close to the boundary")
    x = grid.x
    # far from a narrow packet it is 0; one whose sigma^2 underflows is NaN
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        psi = np.exp(-((x - separation / 2.0) ** 2) / (4.0 * sigma**2)) + np.exp(
            -((x + separation / 2.0) ** 2) / (4.0 * sigma**2)
        )
    psi = psi.astype(complex) * np.exp(1j * momentum * x)
    norm2 = float((np.abs(psi) ** 2).sum() * grid.spacing)
    if not norm2 > 0:
        raise DomainError("cat-state packets narrower than a cell miss the lattice")
    vals = np.outer(psi, psi.conj()) / norm2
    return DensityGrid(grid, vals, 0.0)


# ---------------------------------------------------------------------------
# centered discrete Fourier transforms (momentum <-> y)
#
# The lattices are centered, p_j = (j - n/2) dp and y_k = (k - n/2) dy with
# dp dy = 2 pi / n, so the kernel is exp(±2iπ (j - n/2)(k - n/2) / n).  The
# centering phases reduce to sign flips for even n.


def _centered_dft(values: np.ndarray, axis: int, inverse: bool) -> np.ndarray:
    """out[k] = Σ_j exp(±2iπ (j - n/2)(k - n/2)/n) values[j] along ``axis``.

    The sign is + for ``inverse`` (synthesis, momentum to y) and - for
    analysis (y to momentum); neither carries a 1/n.
    """
    n = values.shape[axis]
    signs = np.where(np.arange(n) % 2, -1.0, 1.0)
    shape = [1] * values.ndim
    shape[axis] = n
    s = signs.reshape(shape)
    parity = -1.0 if (n // 2) % 2 else 1.0
    if inverse:
        return parity * n * s * np.fft.ifft(s * values, axis=axis)
    return parity * s * np.fft.fft(s * values, axis=axis)


def xp_to_xy(f: PhaseSpaceDistribution) -> XYGrid:
    """Transform the momentum axis: f(x, y) = Σ_p dp e^{ipy} f(x, p)."""
    vals = f.grid.momentum_spacing * _centered_dft(
        f.values.astype(complex), axis=1, inverse=True
    )
    return XYGrid(f.grid, vals, f.time)


def xy_to_xp(f: XYGrid) -> PhaseSpaceDistribution:
    """Inverse momentum transform; valid for conjugate-symmetric input.

    f(x, p) = (1/2π) Σ_y dy e^{-ipy} f(x, y).  The imaginary residue of a
    lawful (Hermitian-symmetric) input is at rounding level and dropped.
    """
    grid = f.grid
    vals = _centered_dft(f.values, axis=1, inverse=False) / (
        grid.n_points * grid.momentum_spacing
    )
    return PhaseSpaceDistribution(grid, vals.real, f.time)


def _half_cell_shift(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Sample the trig interpolant of f(x, y) at (x + dx/2, y + dy/2)."""
    kx = grid.wavenumbers
    ky = 0.5 * kx
    phase = np.exp(
        1j * (kx[:, None] * (grid.spacing / 2.0) + ky[None, :] * grid.spacing)
    )
    return np.fft.ifft2(np.fft.fft2(values) * phase)


def _shear_index_maps(n: int):
    a, b = np.indices((n, n))
    s = a + b
    d = a - b
    odd = (s % 2).astype(bool)
    i_even = s // 2
    j_even = d // 2 + n // 2
    i_odd = (s - 1) // 2
    j_odd = n // 2 + (d - 1) // 2
    return odd, i_even, j_even, i_odd, j_odd


def xy_to_Qq(f: XYGrid) -> DensityGrid:
    """Shear to density-matrix coordinates Q = x + y/2, q = x - y/2.

    Even-parity cells (Q + q on an even lattice multiple) are an exact
    index remap of the stored samples; odd-parity cells take the exact
    spectral half-cell shift of the same trigonometric interpolant.
    """
    grid = f.grid
    shifted = _half_cell_shift(f.values, grid)
    odd, i_even, j_even, i_odd, j_odd = _shear_index_maps(grid.n_points)
    vals = np.where(odd, shifted[i_odd, j_odd], f.values[i_even, j_even])
    return DensityGrid(grid, vals, f.time)


def qq_to_xy(f: DensityGrid) -> XYGrid:
    """Inverse shear: read f(x, y) back from directly remapped cells.

    Cells whose shear image falls outside the principal square
    (equivalently |x ± y/2| beyond the half-width) read zero; the
    square holds one sheet of the doubly covered torus and valid states
    vanish on the other.
    """
    grid = f.grid
    n = grid.n_points
    i, j = np.indices((n, n))
    a = i + j - n // 2
    b = i - j + n // 2
    inside = (a >= 0) & (a < n) & (b >= 0) & (b < n)
    vals = np.where(inside, f.values[a % n, b % n], 0.0 + 0.0j)
    return XYGrid(grid, vals, f.time)


def xp_to_Qq(f: PhaseSpaceDistribution) -> DensityGrid:
    return xy_to_Qq(xp_to_xy(f))


def Qq_to_xp(f: DensityGrid) -> PhaseSpaceDistribution:
    return xy_to_xp(qq_to_xy(f))


# ---------------------------------------------------------------------------
# diagnostics


def boundary_frame(values: np.ndarray) -> float:
    """Largest magnitude on the boundary frame: first and last row and column.

    One reduction over all four edges, so a NaN on any edge gives NaN.
    """
    edges = np.concatenate((values[0], values[-1], values[:, 0], values[:, -1]))
    return float(np.abs(edges).max())


def boundary_fraction(values: np.ndarray) -> float:
    """Largest boundary-frame magnitude relative to the global peak."""
    peak = float(np.abs(values).max())
    if peak == 0.0:
        return 0.0
    return boundary_frame(values) / peak


def hermiticity_defect(values: np.ndarray) -> float:
    """Largest elementwise |values - values^H|."""
    return float(np.abs(values - values.conj().T).max())


# ---------------------------------------------------------------------------
# serialization: text CSV, exact round trip via shortest-repr floats

_HEADER_RE = re.compile(
    r"^# grid n=(\d+) L=([^ ]+) axes=([A-Za-z]+,[A-Za-z]+) time=(.+)$"
)


def save_state(state, path) -> None:
    """Write a state as CSV: header line, then ``i,j,re,im`` rows.

    Each grid row is formatted and written on its own, so the text held
    at once is one row's, not the file's; a real state writes 0.0 for im.
    """
    grid = state.grid
    with open(path, "w") as fh:
        fh.write(
            f"# grid n={grid.n_points} L={float(grid.half_width)!r} "
            f"axes={state.axes} time={float(state.time)!r}\n"
        )
        for i, row in enumerate(state.values):
            cells = enumerate(zip(row.real.tolist(), row.imag.tolist()))
            fh.write("".join(f"{i},{j},{re!r},{im!r}\n" for j, (re, im) in cells))


def load_state(path):
    """Read a state written by :func:`save_state`.

    The header's ``L`` and ``time`` must be finite numbers and the body
    must hold one ``i,j,re,im`` row per grid cell, with ``im`` zero for a
    real (x, p) state, else ``ConfigError``.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        match = _HEADER_RE.match(header)
        if match is None:
            raise ConfigError(f"unrecognized state header: {header!r}")
        n = int(match.group(1))
        try:
            half_width, time = float(match.group(2)), float(match.group(4))
        except ValueError:
            half_width = time = np.nan
        if not np.isfinite([half_width, time]).all():
            raise ConfigError(f"header L and time must be finite numbers: {header!r}")
        kinds = {kind.axes: kind for kind in _State.__subclasses__()}
        kind = kinds.get(match.group(3))
        if kind is None:
            raise ConfigError(f"unknown axes {match.group(3)!r}")
        vals = np.zeros((n, n), dtype=complex)
        seen = np.zeros((n, n), dtype=bool)
        for line in filter(str.strip, fh):
            try:
                i_s, j_s, re_s, im_s = line.split(",")
                i, j, value = int(i_s), int(j_s), complex(float(re_s), float(im_s))
            except ValueError:
                raise ConfigError(f"not an i,j,re,im row: {line.strip()!r}") from None
            if not (0 <= i < n and 0 <= j < n) or seen[i, j]:
                raise ConfigError(f"cell ({i}, {j}) is off the grid or repeated")
            seen[i, j] = True
            vals[i, j] = value
    if not seen.all():
        raise ConfigError(f"state file holds {seen.sum()} of {n * n} cells")
    if kind.dtype is float:
        if vals.imag.any():
            raise ConfigError(f"axes {kind.axes} hold real values, but an im is nonzero")
        vals = vals.real
    return kind(GridSpec(n, half_width), vals, time)
