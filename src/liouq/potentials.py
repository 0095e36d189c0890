"""Potential models and the coupling field between bra and ket coordinates.

Every polynomial potential is a ``Polynomial``: ``Constant``,
``Harmonic`` and ``Quartic`` are shorthands that build one, so whether a
potential is at most quadratic is decided by its degree alone.
``Linear`` carries a slope that may depend on time, and
``PiecewiseLinear`` a continuous broken line.

The density-grid evolution picks up the field

    E(Q, q) = (Q - q) v'((Q + q)/2) - v(Q) + v(q),

the midpoint term minus the potential difference.  It is antisymmetric
under Q <-> q and identically zero exactly when the potential is at most
quadratic.  For a piecewise-linear potential the difference
v(Q) - v(q) decomposes into midpoint terms over the linear segments,
which this module evaluates exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import ConfigError, DomainError
from .grids import GridSpec


class Potential:
    """Evaluatable v(x) with derivative.

    ``harmonic_order`` marks potentials that are at most quadratic, for
    which the coupling field vanishes identically.
    """

    harmonic_order: bool = False

    @property
    def time_dependent(self) -> bool:
        return False

    def value(self, x, t: float = 0.0):
        raise NotImplementedError

    def derivative(self, x, t: float = 0.0):
        raise NotImplementedError


@dataclass(frozen=True)
class Linear(Potential):
    """v = a x + b; the slope and offset may be callables of time.

    Time-dependent slopes model spatially constant driving forces; the
    engines sample them once per step at the midpoint time.
    """

    a: float | Callable[[float], float] = 1.0
    b: float | Callable[[float], float] = 0.0
    harmonic_order = True

    @property
    def time_dependent(self) -> bool:
        return callable(self.a) or callable(self.b)

    def _at(self, coeff, t):
        return coeff(t) if callable(coeff) else coeff

    def value(self, x, t: float = 0.0):
        return self._at(self.a, t) * np.asarray(x, dtype=float) + self._at(self.b, t)

    def derivative(self, x, t: float = 0.0):
        return np.full_like(np.asarray(x, dtype=float), self._at(self.a, t))


@dataclass(frozen=True)
class Polynomial(Potential):
    """v = Σ coeffs[k] x^k with coefficients in ascending order."""

    coeffs: tuple

    def __post_init__(self):
        try:
            coeffs = tuple(float(c) for c in self.coeffs)
        except (TypeError, ValueError):
            raise ConfigError("polynomial coefficients must be numbers") from None
        if not coeffs:
            raise ConfigError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        deg = 0
        for k, c in enumerate(self.coeffs):
            if c != 0.0:
                deg = k
        return deg

    @property
    def harmonic_order(self) -> bool:  # type: ignore[override]
        return self.degree <= 2

    def value(self, x, t: float = 0.0):
        return P.polyval(np.asarray(x, dtype=float), self.coeffs)

    def derivative(self, x, t: float = 0.0):
        dcoeffs = P.polyder(self.coeffs)
        return P.polyval(np.asarray(x, dtype=float), dcoeffs)


def Constant(c: float = 0.0) -> Polynomial:
    """v = c."""
    return Polynomial((c,))


def Harmonic(omega: float = 1.0) -> Polynomial:
    """v = omega^2 x^2 / 2; a square past the float range is inf, not an error."""
    return Polynomial((0.0, 0.0, 0.5 * (omega * omega)))


def Quartic(lam: float = 1.0) -> Polynomial:
    """v = lam x^4."""
    return Polynomial((0.0, 0.0, 0.0, 0.0, lam))


@dataclass(frozen=True)
class PiecewiseLinear(Potential):
    """Continuous piecewise-linear potential over strictly increasing breakpoints.

    The derivative at a breakpoint uses the left segment's slope;
    outside the breakpoint range the edge segments extend linearly.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        try:
            bp = np.asarray(self.breakpoints, dtype=float)
            vals = np.asarray(self.values, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError("breakpoints and values must be numbers") from None
        if bp.ndim != 1 or bp.size < 2:
            raise ConfigError("need a flat list of at least two breakpoints")
        if vals.shape != bp.shape:
            raise ConfigError("breakpoints and values must have equal length")
        if not np.all(np.diff(bp) > 0):
            raise ConfigError("breakpoints must be strictly increasing")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(vals))):
            raise ConfigError("breakpoints and values must be finite")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @property
    def slopes(self) -> np.ndarray:
        return np.diff(self.values) / np.diff(self.breakpoints)

    @property
    def linearity_lengths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    def _segment_index(self, x) -> np.ndarray:
        # side="left" puts queries exactly on a breakpoint into the left segment
        idx = np.searchsorted(self.breakpoints, np.asarray(x, dtype=float), side="left") - 1
        return np.clip(idx, 0, self.breakpoints.size - 2)

    def value(self, x, t: float = 0.0):
        x = np.asarray(x, dtype=float)
        idx = self._segment_index(x)
        bp, vals, sl = self.breakpoints, self.values, self.slopes
        return vals[idx] + sl[idx] * (x - bp[idx])

    def derivative(self, x, t: float = 0.0):
        return self.slopes[self._segment_index(x)]


def step_schedule(pairs: Sequence[Sequence[float]]) -> Callable[[float], float]:
    """Piecewise-constant schedule from (time, value) pairs sorted by time."""
    try:
        table = sorted((float(t), float(v)) for t, v in pairs)
    except (TypeError, ValueError):
        raise ConfigError("schedule entries must be (time, value) pairs") from None
    if not table:
        raise ConfigError("schedule needs at least one (time, value) pair")
    times = np.array([t for t, _ in table])
    vals = np.array([v for _, v in table])

    def at(t: float) -> float:
        idx = int(np.searchsorted(times, t, side="right")) - 1
        return float(vals[max(idx, 0)])

    return at


# ---------------------------------------------------------------------------
# coupling field and segment identities


def midpoint_term(v: Potential, q, Q, t: float = 0.0):
    """Single-segment midpoint value (Q - q) v'((Q + q)/2).

    Equals v(Q) - v(q) exactly for constant, linear and harmonic
    potentials; the mismatch for other kinds is -E(Q, q).
    """
    q = np.asarray(q, dtype=float)
    Q = np.asarray(Q, dtype=float)
    out = (Q - q) * v.derivative((Q + q) / 2.0, t)
    return float(out) if out.ndim == 0 else out


def superoperator_field(v: Potential, grid: GridSpec) -> np.ndarray:
    """E(Q, q) = (Q - q) v'((Q+q)/2) - v(Q) + v(q) on the grid, indexed [Q, q].

    For potentials of at most quadratic order the field is algebraically
    zero and returned as exact zeros.  Otherwise the upper triangle is
    evaluated pointwise and mirrored with a sign flip, which enforces
    exact antisymmetry and a zero diagonal.
    """
    n = grid.n_points
    if v.harmonic_order:
        return np.zeros((n, n))
    Q = grid.x[:, None]
    q = grid.x[None, :]
    upper = np.triu(midpoint_term(v, q, Q) - v.value(Q) + v.value(q), 1)
    return upper - upper.T


def segment_sum(v: PiecewiseLinear, q: float, Q: float) -> float:
    """Sum of midpoint terms over the linear segments between q and Q.

    Splits the path at every interior breakpoint and integrates partial
    end segments exactly, so the result reproduces v(Q) - v(q) to
    rounding accuracy.
    """
    if not isinstance(v, PiecewiseLinear):
        raise DomainError("segment_sum requires a piecewise-linear potential")
    bp = v.breakpoints
    q = float(q)
    Q = float(Q)
    for point in (q, Q):
        if point < bp[0] or point > bp[-1]:
            raise DomainError(
                f"point {point} outside breakpoint range [{bp[0]}, {bp[-1]}]"
            )
    if q == Q:
        return 0.0
    lo, hi = (q, Q) if q < Q else (Q, q)
    interior = bp[(bp > lo) & (bp < hi)]
    nodes = np.concatenate(([lo], interior, [hi]))
    lengths = np.diff(nodes)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    total = float(np.sum(lengths * v.derivative(mids)))
    return total if q < Q else -total


def linearize(V: Potential, delta, x_range: tuple) -> PiecewiseLinear:
    """Sample V at breakpoints spaced by the linearity lengths ``delta``.

    ``delta`` is either one length (uniform segments) or a flat sequence
    of per-segment lengths that must cover ``x_range``.
    """
    start, end = float(x_range[0]), float(x_range[1])
    if not end > start:
        raise DomainError("x_range must be increasing")
    try:
        deltas = np.asarray(delta, dtype=float)
    except (TypeError, ValueError):
        raise DomainError("delta must be a length or a flat list of lengths") from None
    if deltas.ndim == 0:
        step = float(deltas)
        if step <= 0:
            raise DomainError("delta must be positive")
        count = int(np.ceil((end - start) / step - 1e-12))
        bp = start + step * np.arange(count + 1)
    else:
        if deltas.ndim > 1 or deltas.size == 0 or np.any(deltas <= 0):
            raise DomainError("linearity lengths must be a flat list of positives")
        bp = start + np.concatenate(([0.0], np.cumsum(deltas)))
        if bp[-1] < end - 1e-12 * max(1.0, abs(end)):
            raise DomainError("delta list does not cover the requested range")
    return PiecewiseLinear(bp, V.value(bp))
