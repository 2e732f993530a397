"""Normalized control trajectories and their rescaling to physical time.

The fast quasi-adiabatic schedule keeps the adiabaticity parameter

    c = hbar | lambda_dot * <phi_1|d_lambda phi_2> / (E_1 - E_2) |

constant along the drive. Because the right-hand side depends on time
only through lambda itself, the defining ODE is separable: with the
weight w(lambda) = |coupling/gap| the cumulative integral

    G(lambda) = integral from lambda_start to lambda of w dlambda'

gives the scaled constant c_tilde = hbar * G(lambda_end), the normalized
clock s(lambda) = G(lambda)/G(lambda_end), and the schedule itself by
inverting the strictly monotone s(lambda) with a shape-preserving
monotone interpolant. No stiff integration is involved, and c_tilde is
exact up to quadrature error (checked by grid halving).

The interpolant is the monotone piecewise cubic Hermite (PCHIP) of
Fritsch & Carlson (SIAM J. Numer. Anal. 17, 238 (1980)), with the
weighted-harmonic-mean interior slopes of Fritsch & Butland and Moler's
one-sided end slopes. It is implemented here in numpy, step for step as
``scipy.interpolate.PchipInterpolator`` computes it, so its values and
derivatives are bit-identical to scipy's (checked by the tests).

The competitor schedules reuse the same construction with different
weights: local-adiabatic uses w = 1/gap^2, uniform-adiabatic uses
w = |dgap/dlambda| / gap^2. Linear and constant schedules are closed
form. All normalized trajectories obey the scaling law: one design is
rescaled to any duration t_f with lambda(t) = lambda_tilde(t / t_f).

Inversion knots are kept at the natural image of the design grid, which
is automatically dense wherever lambda_tilde(s) is steep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import model as _model
from . import spectral as _spectral
from .errors import FaquadError, FlatGap

FAQUAD = "faquad"
LOCAL_ADIABATIC = "local-adiabatic"
UNIFORM_ADIABATIC = "uniform-adiabatic"
LINEAR = "linear"
CONSTANT = "constant"

SWEEP_KINDS = (FAQUAD, LOCAL_ADIABATIC, UNIFORM_ADIABATIC, LINEAR)
KINDS = SWEEP_KINDS + (CONSTANT,)

DEFAULT_GRID_POINTS = 2001


def _clock(s) -> np.ndarray:
    """``s`` clipped to [0, 1]; a value more than 1e-12 outside, or NaN,
    raises ValueError."""
    s_arr = np.asarray(s, dtype=float)
    if not np.all((s_arr >= -1e-12) & (s_arr <= 1.0 + 1e-12)):
        raise ValueError("normalized time must lie in [0, 1]")
    return np.clip(s_arr, 0.0, 1.0)


def _pchip_end_slope(h0, h1, m0, m1):
    """Moler's one-sided three-point slope at an end knot, from the end
    interval (width h0, secant m0) and its neighbour (h1, m1). It is set
    to 0 where its sign differs from m0's, and to 3 m0 where it exceeds
    that while the secants change sign, so the end keeps its shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients, shape (4, len(x) - 1), of the PCHIP through the knots
    (x, y): per interval, the cubic in z = x - x_i with highest power
    first. The knot slopes are the weighted harmonic means of the
    neighbouring secants, 0 where the secants change sign or vanish, and
    Moler's end slopes; two knots give the straight line. Each operation
    is the one ``scipy.interpolate.PchipInterpolator`` performs, in its
    order, so the coefficients are bit-identical to scipy's."""
    h = np.diff(x)
    m = np.diff(y) / h
    if len(x) == 2:
        d = np.array([m[0], m[0]])
    else:
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        turn = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        d = np.empty_like(y)
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(turn, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


@dataclass(frozen=True)
class NormalizedTrajectory:
    """A control schedule on the normalized clock s in [0, 1].

    ``s_grid`` and ``values`` are the interpolation knots; for designed
    kinds the knots sit at the natural, non-uniform image of the design
    grid. ``c_tilde`` is the duration-scaled adiabaticity constant
    (energy times time, here dimensionless with hbar = 1); it is None
    for kinds that do not define one. ``pair`` is the 1-based level pair
    the design used, None for linear and constant schedules. ``gap`` is
    that pair's gap E_j - E_i (i < j) at each knot, kept by the designer
    from its own diagonalisation so that the phase integral needs none;
    it is None where no design made it, including ``scaled`` copies,
    whose knot values change.
    """

    kind: str
    spec: _model.ModelSpec
    s_grid: np.ndarray
    values: np.ndarray
    c_tilde: float | None = None
    pair: tuple | None = None
    gap: np.ndarray | None = None
    _interp: np.ndarray | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        s = np.asarray(self.s_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if s.ndim != 1 or s.shape != v.shape or len(s) < 2:
            raise ValueError("s_grid and values must be 1-d arrays of equal length >= 2")
        if not np.all(np.isfinite(s)):
            raise ValueError("s_grid must contain only finite values")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must contain only finite values")
        if s[0] != 0.0 or s[-1] != 1.0 or np.any(np.diff(s) <= 0):
            raise ValueError("s_grid must increase strictly from 0 to 1")
        if self.kind in SWEEP_KINDS:
            dv = np.diff(v)
            if not (np.all(dv > 0) or np.all(dv < 0)):
                raise ValueError("sweep trajectories must be strictly monotone")
        if self.gap is not None and np.shape(self.gap) != s.shape:
            raise ValueError("gap must have the shape of s_grid")
        object.__setattr__(self, "s_grid", s)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "_interp", _pchip_coefficients(s, v))

    def _local(self, s):
        """The PCHIP coefficients of the interval holding each clipped
        clock value, and its offset z from the interval's left knot. The
        intervals are closed on the left, the last on both sides."""
        knots = self.s_grid
        i = np.clip(np.searchsorted(knots, s, side="right") - 1, 0, len(knots) - 2)
        return np.take(self._interp, i, axis=1), s - knots[i]

    def evaluate(self, s):
        """lambda_tilde(s) by monotone cubic interpolation. The boundary
        values are pinned exactly: polynomial evaluation at the very last
        knot would otherwise leak rounding error into lambda_end."""
        clipped = _clock(s)
        c, z = self._local(clipped)
        # scipy's PPoly sums the powers in this order; keep it bit for bit.
        out = c[3] + c[2] * z + c[1] * (z * z) + c[0] * (z * z * z)
        out = np.where(clipped == 0.0, self.values[0], out)
        out = np.where(clipped == 1.0, self.values[-1], out)
        return float(out) if np.isscalar(s) else out

    def derivative(self, s):
        """d lambda_tilde / d s of the interpolant, on the domain of
        ``evaluate``."""
        c, z = self._local(_clock(s))
        # the order of scipy's PPoly.derivative and its evaluation
        out = c[2] + 2 * c[1] * z + 3 * c[0] * (z * z)
        return float(out) if np.isscalar(s) else out

    def scaled(self, factor: float) -> "NormalizedTrajectory":
        """Trajectory with all control values multiplied by ``factor``.

        Models a miscalibrated drive; boundary values are scaled too, so
        the result generally ends away from ``spec.lambda_end``. A zero
        factor degenerates to the constant zero schedule. The copy keeps
        ``pair`` but no ``c_tilde`` and no ``gap``.
        """
        if factor < 0:
            raise ValueError("scale factor must be >= 0")
        if factor == 0.0:
            return constant_protocol(self.spec, 0.0)
        return replace(self, values=self.values * factor, c_tilde=None, gap=None)


@dataclass(frozen=True)
class TimedControl:
    """A normalized trajectory played over a physical duration t_f."""

    trajectory: NormalizedTrajectory
    t_f: float

    def value(self, t):
        return self.trajectory.evaluate(np.asarray(t, dtype=float) / self.t_f)


def design_track(spec: _model.ModelSpec, pairs,
                 grid_points: int = DEFAULT_GRID_POINTS) -> _spectral.FrameTrack:
    """The FrameTrack that the designers read: ``spec`` diagonalised at
    ``grid_points`` evenly spaced controls from lambda_start to lambda_end,
    with the couplings of every level pair in ``pairs``. One track serves a
    design of each of those pairs."""
    grid = np.linspace(spec.lambda_start, spec.lambda_end, grid_points)
    return _spectral.track_frames(spec, grid, pairs=pairs)


def _pair_track(spec, pair, track) -> _spectral.FrameTrack:
    """``track`` checked against ``spec`` and ``pair``, or a new track of
    ``pair`` on the default design grid when it is None."""
    if track is None:
        return design_track(spec, [pair])
    if track.spec != spec:
        raise ValueError("the track belongs to a different model")
    if _spectral._canonical_pair(pair, spec.dim) not in track.pairs:
        raise ValueError(f"the track holds no coupling of level pair {tuple(pair)}")
    return track


def _design_from_weight(track, weight, kind, pair) -> NormalizedTrajectory:
    """Shared separable-quadrature core: cumulative trapezoid of a
    non-negative weight over arc length, then monotone inversion. The
    trajectory keeps ``track``'s model, its grid as knots and the pair's
    gap on them."""
    grid = track.grid
    weight = np.asarray(weight, dtype=float)
    if np.any(weight < 0) or not np.all(np.isfinite(weight)):
        raise FaquadError("design weight must be finite and non-negative")
    arc = np.abs(grid - grid[0])
    cells = 0.5 * (weight[1:] + weight[:-1]) * np.diff(arc)
    G = np.concatenate([[0.0], np.cumsum(cells)])
    if np.any(np.diff(G) <= 0):
        raise FaquadError(
            "cumulative weight integral is not strictly increasing; "
            "the design weight vanishes over a whole grid cell"
        )
    total = G[-1]
    s = G / total
    s[0], s[-1] = 0.0, 1.0
    return NormalizedTrajectory(
        kind=kind,
        spec=track.spec,
        s_grid=s,
        values=grid.copy(),
        c_tilde=float(total),
        pair=tuple(pair),
        gap=track.gap(pair),
    )


def design_faquad(spec: _model.ModelSpec, pair=(1, 2),
                  track: _spectral.FrameTrack | None = None) -> NormalizedTrajectory:
    """Fast quasi-adiabatic schedule for a tracked level pair.

    The control moves fast where the pair coupling is weak and slows
    through avoided crossings. ``c_tilde`` comes out positive because the
    weight |coupling/gap| is integrated over arc length.
    """
    track = _pair_track(spec, pair, track)
    weight = np.abs(track.coupling(pair) / track.gap(pair))
    return _design_from_weight(track, weight, FAQUAD, pair)


def design_local_adiabatic(spec: _model.ModelSpec, pair=(1, 2),
                           track: _spectral.FrameTrack | None = None) -> NormalizedTrajectory:
    """Local-adiabatic competitor: drive speed proportional to gap^2,
    i.e. the same construction as FAQUAD without the coupling factor."""
    track = _pair_track(spec, pair, track)
    weight = 1.0 / track.gap(pair) ** 2
    return _design_from_weight(track, weight, LOCAL_ADIABATIC, pair)


def _ua_weight(gap: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Uniform-adiabatic weight |gap'| / gap^2 with flat-gap detection."""
    dgap = np.gradient(gap, grid)
    scale = np.max(np.abs(dgap))
    if scale == 0.0:
        raise FlatGap("gap derivative vanishes on the whole grid")
    tiny = np.abs(dgap) < 1e-12 * scale
    run = 0
    for flat in tiny:
        run = run + 1 if flat else 0
        if run >= 3:
            raise FlatGap("gap derivative vanishes over a subinterval")
    return np.abs(dgap) / gap**2


def design_uniform_adiabatic(spec: _model.ModelSpec, pair=(1, 2),
                             track: _spectral.FrameTrack | None = None) -> NormalizedTrajectory:
    """Uniform-adiabatic competitor: drive speed gap^2 / |gap'|.

    The weight stays integrable through a gap minimum, where the
    resulting schedule shows its characteristic kink.
    """
    track = _pair_track(spec, pair, track)
    weight = _ua_weight(track.gap(pair), track.grid)
    return _design_from_weight(track, weight, UNIFORM_ADIABATIC, pair)


def linear_ramp(spec: _model.ModelSpec) -> NormalizedTrajectory:
    """Straight line between the boundary control values."""
    s = np.linspace(0.0, 1.0, 201)
    values = spec.lambda_start + s * (spec.lambda_end - spec.lambda_start)
    return NormalizedTrajectory(kind=LINEAR, spec=spec, s_grid=s, values=values)


def constant_protocol(spec: _model.ModelSpec, value: float) -> NormalizedTrajectory:
    """Hold the control at a fixed value; the pi-pulse reference uses
    value = U, where the two-level model is on resonance."""
    return NormalizedTrajectory(kind=CONSTANT, spec=spec, s_grid=np.array([0.0, 1.0]),
                                values=np.full(2, float(value)))


def rescale(traj: NormalizedTrajectory, t_f: float) -> TimedControl:
    """Play a normalized trajectory over duration t_f > 0."""
    if not (t_f > 0 and math.isfinite(t_f)):
        raise ValueError("t_f must be positive and finite")
    return TimedControl(trajectory=traj, t_f=float(t_f))


def adiabaticity_profile(traj: NormalizedTrajectory, s_samples=None) -> np.ndarray:
    """Duration-scaled adiabaticity parameter c_tilde(s) sampled along a
    trajectory: |dlambda/ds| * |coupling/gap| at lambda_tilde(s).

    For a FAQUAD design this is constant and equal to ``c_tilde`` up to
    interpolation error; for other kinds it varies.
    """
    if traj.pair is None:
        raise ValueError("trajectory has no designed level pair")
    if s_samples is None:
        s_samples = np.linspace(0.01, 0.99, 197)
    s_samples = np.asarray(s_samples, dtype=float)
    lams = traj.evaluate(s_samples)
    speed = np.abs(traj.derivative(s_samples))
    track = _spectral.track_frames(traj.spec, lams, pairs=(traj.pair,))
    ratio = np.abs(track.coupling(traj.pair) / track.gap(traj.pair))
    return speed * ratio
