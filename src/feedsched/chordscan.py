"""Chord-error-limited feed rate scanning along a parametric path.

Walks the curve in controller-period steps, predicting the next parameter
with a second-order expansion and shrinking the commanded feed until the
chord deviation of each step fits the programmed tolerance. The result is
a scatter of per-parameter feed ceilings used by the downstream scheduler.
Each visited parameter's jet (point, first and second derivative) is
taken once: all probes from a point share it, and the accepted landing's
jet is the next point's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    ParametricCurve,
    SingularCurveError,
    curvature_radius,
    evaluate,
    jet,
)
from .sprofile import check_shape

__all__ = [
    "ChordScanError",
    "StepDegeneracyError",
    "ScanConvergenceError",
    "MalformedScatterError",
    "Limits",
    "FeedrateScatter",
    "taylor_step",
    "scan_curve",
]

_MAX_FEED_ITERATIONS = 64
_FEED_BACKOFF_CAP = 0.95
# The ceiling is certified once its safe/unsafe bracket is at most this
# fraction of the unsafe feed wide. The backoff cap leaves a first bracket
# at least 5 % of its unsafe end wide, and halving that 24 times gave the
# narrowest bracket the former bisection ever certified; stopping there
# keeps every certificate at least that tight.
_BRACKET_REL_WIDTH = 0.05 * 2.0**-24
_FALLBACK_SAMPLES = 33
_MAX_SCAN_POINTS = 5_000_000
# A dip only gets midpoint probes when a neighbour sits at least this
# far above it; flatter wells are already sampled finely enough.
_WELL_REL_DEPTH = 0.01


class ChordScanError(ValueError):
    """Base class for scan failures."""


class StepDegeneracyError(ChordScanError):
    """The second-order parameter step ran backwards (feed too large)."""


class ScanConvergenceError(ChordScanError):
    """Feed adjustment failed to settle within the iteration budget."""


class MalformedScatterError(ChordScanError):
    """Scatter points violate ordering or range requirements."""


@dataclass(frozen=True)
class Limits:
    """Machine and tolerance settings, all finite and strictly positive.

    Ts is the controller period in seconds, delta_max the chord tolerance
    in mm, v_max/a_max/j_max the feed (mm/s), acceleration (mm/s^2) and
    jerk (mm/s^3) ceilings, shape_s the steepness of the S-shaped profile,
    any s whose logistic core rises in floats (from about 5.6e-17).
    mu_s, when given, overrides the automatic breakpoint screening
    threshold (mm/s per unit parameter).
    """

    Ts: float
    delta_max: float
    v_max: float
    a_max: float
    j_max: float
    shape_s: float
    mu_s: float | None = None

    def __post_init__(self):
        for name in ("Ts", "delta_max", "v_max", "a_max", "j_max"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and strictly positive")
        check_shape(self.shape_s, "shape_s")
        if self.mu_s is not None and not self.mu_s > 0.0:
            raise ValueError("mu_s must be strictly positive when given")


class FeedrateScatter:
    """Ordered (u, v) samples of the chord-error feed ceiling."""

    __slots__ = ("u", "v")

    def __init__(self, u, v):
        u_arr = np.asarray(u, dtype=float)
        v_arr = np.asarray(v, dtype=float)
        if u_arr.ndim != 1 or u_arr.shape != v_arr.shape or u_arr.size < 2:
            raise MalformedScatterError("need matching 1-D u and v arrays")
        if np.any(np.diff(u_arr) <= 0.0):
            raise MalformedScatterError("u must be strictly increasing")
        if u_arr[0] != 0.0 or u_arr[-1] != 1.0:
            raise MalformedScatterError("scatter must span u = 0 to u = 1")
        if np.any(v_arr <= 0.0):
            raise MalformedScatterError("feed values must be positive")
        u_arr.setflags(write=False)
        v_arr.setflags(write=False)
        self.u = u_arr
        self.v = v_arr

    def __len__(self) -> int:
        return int(self.u.size)


def taylor_step(d1, d2, u: float, v: float, Ts: float) -> float:
    """Parameter reached after one period at feed v, second-order accurate.

    d1 and d2 are the curve's first two derivatives at u. Clamps at the
    curve end. Raises StepDegeneracyError if the curvature correction
    overwhelms the first-order advance, which signals a feed far too
    large for the local geometry.
    """
    if v < 0.0:
        raise ChordScanError("feed must be non-negative")
    if v == 0.0:
        return u
    speed_sq = sum(c * c for c in d1)
    if speed_sq <= 0.0:
        raise SingularCurveError(f"vanishing first derivative at u={u}")
    speed = math.sqrt(speed_sq)
    dot = sum(a * b for a, b in zip(d1, d2))
    first = v * Ts / speed
    second = dot / (2.0 * speed_sq * speed_sq) * v * v * Ts * Ts
    u_next = u + first - second
    if u_next < u:
        raise StepDegeneracyError(
            f"parameter step reversed at u={u:.6f} for v={v:.3f}"
        )
    return min(u_next, 1.0)


def _max_chord_deviation(curve, u_a, u_b, p_a, p_b) -> float:
    seg = [b - a for a, b in zip(p_a, p_b)]
    seg_sq = sum(d * d for d in seg)
    worst = 0.0
    for u in np.linspace(u_a, u_b, _FALLBACK_SAMPLES):
        rel = [c - a for c, a in zip(evaluate(curve, float(u)), p_a)]
        t = min(1.0, max(0.0, sum(r * d for r, d in zip(rel, seg)) / seg_sq))
        err = sum((r - t * d) * (r - t * d) for r, d in zip(rel, seg))
        worst = max(worst, math.sqrt(err))
    return worst


def _chord_deviation(curve, u_a, u_b, p_a, p_b) -> float:
    """Deviation (mm) of the chord p_a p_b from the curve on [u_a, u_b].

    p_a and p_b are the curve points at u_a <= u_b. Uses the circular-arc
    model with the osculating radius at the midpoint parameter; straight
    spans report zero. When the chord is too long for the arc model the
    deviation is sampled directly.
    """
    chord = math.dist(p_a, p_b)
    if chord == 0.0:
        return 0.0
    rho = curvature_radius(curve, 0.5 * (u_a + u_b))
    if math.isinf(rho):
        return 0.0
    if 2.0 * rho > chord:
        return rho - math.sqrt(rho * rho - 0.25 * chord * chord)
    return _max_chord_deviation(curve, u_a, u_b, p_a, p_b)


def _settle_landing(curve, u, u_pred, target, p0):
    """Polish a predicted landing until its chord matches the advance.

    The truncated prediction can land a few percent short of the chord
    the interpolator will actually traverse at this feed, which would
    certify an optimistically short step. A couple of Newton corrections
    close that gap, with one jet per iterate; the curve end clamps the
    landing as usual. p0 is the point at u; returns the landing parameter
    and its jet (point, first and second derivative).
    """
    x = u_pred
    for _ in range(3):
        p, d1, _ = at_x = jet(curve, x)
        gap = target - math.dist(p, p0)
        speed = math.sqrt(sum(c * c for c in d1))
        if abs(gap) <= 1e-4 * target or speed <= 0.0:
            return x, at_x
        x = min(max(x + gap / speed, u + 0.25 * (u_pred - u)), 1.0)
        if x >= 1.0:
            break
    return x, jet(curve, x)


def _probe_step(curve, u: float, v: float, limits: Limits, at_u):
    """One-period chord deviation at feed v; inf marks an unusable step.

    at_u is the curve's jet at u, which every probe from u shares.
    Returns the deviation, the landing parameter and the landing's jet.
    """
    p0, d1, d2 = at_u
    try:
        u_next = taylor_step(d1, d2, u, v, limits.Ts)
    except StepDegeneracyError:
        u_next = u
    if u_next <= u:
        return math.inf, u, at_u
    u_next, at_next = _settle_landing(curve, u, u_next, v * limits.Ts, p0)
    return _chord_deviation(curve, u, u_next, p0, at_next[0]), u_next, at_next


def _limit_feedrate(curve, u, at_u, limits):
    """Largest chord-safe feed at u, from the jet at u, with the parameter
    it advances to and the landing's jet.

    One bracket holds the last safe and the last unsafe probe, each as
    x = log(feed), g = log(deviation / tolerance) and the feed; feed 0,
    always safe, is its safe end until a probe fits. From v_max, each
    unsafe probe rescales the feed by sqrt(tolerance / deviation), capped
    for a geometric backoff, halves it after an unusable step, and keeps
    it below the feed that reaches the curve end after a landing the end
    clamps; it gives up after _MAX_FEED_ITERATIONS probes or at feed 0.
    Once a probe fits, an Illinois secant shrinks the bracket to
    _BRACKET_REL_WIDTH of its unsafe feed: the deviation grows about as
    the feed squared, so g is close to linear in x. When the same end
    moves twice running, the other end's g halves (the probe that forms
    the bracket is no move); each step stays half the stopping width
    inside the bracket. An end with deviation 0 or inf has no logarithm,
    and a bracket that did not halve over three steps may sit on a kink
    of the deviation: both take a bisection step instead.
    """
    dmax = limits.delta_max
    v = limits.v_max
    delta, u_next, at_next = _probe_step(curve, u, v, limits, at_u)
    if delta <= dmax:
        return v, u_next, at_next
    x = math.log(v)
    x_lo = g_lo = -math.inf
    v_lo = 0.0
    margin = 0.5 * _BRACKET_REL_WIDTH
    widths = [math.inf] * 3
    moved, rescales = 0, 1
    while True:
        if delta <= dmax:
            if moved < 0:
                g_hi *= 0.5
            moved = -1 if v_lo > 0.0 else 0
            x_lo, v_lo, u_lo, at_lo = x, v, u_next, at_next
            g_lo = math.log(delta / dmax) if delta > 0.0 else -math.inf
        else:
            if moved > 0:
                g_lo *= 0.5
            moved = 1
            x_hi, v_hi, g_hi = x, v, math.log(delta / dmax)
        if v_lo == 0.0:
            if math.isinf(delta):
                v *= 0.5
            else:
                v *= min(_FEED_BACKOFF_CAP, math.sqrt(dmax / delta))
            if u_next == 1.0:  # each feed reaching the end measures one chord
                v = min(v, _FEED_BACKOFF_CAP * math.dist(at_u[0], at_next[0]) / limits.Ts)
            if rescales == _MAX_FEED_ITERATIONS or not v > 0.0:
                raise ScanConvergenceError(
                    f"feed adjustment did not converge at u={u:.6f}"
                )
            rescales += 1
            x = math.log(v)
        elif v_hi - v_lo <= _BRACKET_REL_WIDTH * v_hi:
            return v_lo, u_lo, at_lo
        else:
            width = x_hi - x_lo
            finite = math.isfinite(g_lo) and math.isfinite(g_hi)
            if finite and width <= 0.5 * widths[0]:
                x = x_hi - g_hi * width / (g_hi - g_lo)
            else:
                x = 0.5 * (x_lo + x_hi)
            widths = widths[1:] + [width]
            x = min(max(x, x_lo + margin), x_hi - margin)
            v = math.exp(x)
        delta, u_next, at_next = _probe_step(curve, u, v, limits, at_u)


def _curvature_feed(curve: ParametricCurve, u: float, limits: Limits) -> float:
    """Steady-state chord-safe feed from the local osculating radius."""
    rho = curvature_radius(curve, u)
    if math.isinf(rho):
        return limits.v_max
    d = min(limits.delta_max, rho)
    v = (2.0 / limits.Ts) * math.sqrt(d * (2.0 * rho - d))
    return min(limits.v_max, v)


def _refine_wells(curve, us, vs, limits):
    """Extra ceiling probes beside dips the walk may have undersampled.

    The walk measures the ceiling only at the parameters its own steps
    land on, so a curvature well narrower than those steps can hide its
    true minimum between two samples; a replay tick entering at a less
    lucky phase then crosses the well faster than a fresh probe there
    would allow. Probing the midpoints flanking each material dip and
    keeping any deeper readings restores a floor worth pinning feeds to.
    """
    extra = []
    for i in range(1, len(us) - 1):
        if vs[i] > min(vs[i - 1], vs[i + 1]):
            continue
        if max(vs[i - 1], vs[i + 1]) <= vs[i] * (1.0 + _WELL_REL_DEPTH):
            continue
        for m in (0.5 * (us[i - 1] + us[i]), 0.5 * (us[i] + us[i + 1])):
            try:
                v_m = _limit_feedrate(curve, m, jet(curve, m), limits)[0]
            except ChordScanError:
                continue
            if v_m < vs[i]:
                extra.append((m, v_m))
    if not extra:
        return us, vs
    pairs = sorted([*zip(us, vs), *extra])
    return [p[0] for p in pairs], [p[1] for p in pairs]


def scan_curve(curve: ParametricCurve, limits: Limits) -> FeedrateScatter:
    """Walk the whole curve and record the feed ceiling at every step.

    The terminal step truncates at u = 1 before a full period elapses, so
    its probe would accept any feed; those samples fall back to the local
    curvature ceiling instead. A second pass re-probes the midpoints
    around every pronounced dip and keeps the deeper readings, since the
    walk's own landing phases can step over the bottom of a narrow well.
    """
    us = [0.0]
    vs: list[float] = []
    u, at_u = 0.0, jet(curve, 0.0)
    while u < 1.0:
        v, u_next, at_u = _limit_feedrate(curve, u, at_u, limits)
        if u_next >= 1.0:
            us.append(1.0)
            vs.append(min(v, _curvature_feed(curve, u, limits)))
            break
        us.append(u_next)
        vs.append(v)
        u = u_next
        if len(us) > _MAX_SCAN_POINTS:
            raise ScanConvergenceError("scan produced too many points")
    vs.append(min(vs[-1], _curvature_feed(curve, 1.0, limits)))
    us, vs = _refine_wells(curve, us, vs, limits)
    return FeedrateScatter(us, vs)
