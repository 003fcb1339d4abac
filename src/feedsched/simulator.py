"""Replay of a finished schedule through the controller's sampling loop.

Every sampling period the commanded profile advances the tool by the
difference of its exact closed-form travel at the two tick times; the
curve parameter for that advance starts from a second-order Taylor
prediction and is refined by Newton steps, kept inside a bisection
bracket, until the straight-line (chordal) advance matches. Each sample
records the parameter, position, the profile's analytic kinematics, and
the measured chord deviation of the step.

The replay runs in two phases. The walk evaluates each visited parameter
once, as a jet (point, first and second derivative), and the landing's
jet seeds the next tick's prediction. The chord pass then measures every
step's deviation from the osculating radii at all step midpoints, taken
in one vectorised pass over the curve.

Chordal stepping consumes slightly more path than the commanded travel
on curved spans, at most about half the chord tolerance per period, so
a consistent plan runs out of curve marginally early. The replay
absorbs that drift at the path end and reports any larger shortfall as
an inconsistent plan.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .chordscan import Limits, _arc_deviation
from .geometry import ParametricCurve, _curvature_radii, jet
from .segmentation import Block
from .sprofile import ProfileFamily, sigmoid_family

__all__ = [
    "SimulationError",
    "InterpolationSample",
    "RunSummary",
    "total_time",
    "interpolate",
    "summarize",
]

_CHORD_MATCH_TOL = 1e-9  # mm
_MAX_REFINE_STEPS = 80

# Chord-vs-arc drift ceiling per tick, in units of delta_max. On a
# circular arc of half-angle theta, arc - chord = 2*rho*(theta -
# sin(theta)) ~= (2*theta/3) * sagitta, and a step whose sagitta fits
# the tolerance has theta < pi/2, so each tick consumes under ~1.1x the
# chord tolerance more arc than chord. 1.5 adds slack for model error.
_END_DRIFT_PER_TICK = 1.5


class SimulationError(ValueError):
    """Replay failed: bad inputs or an unmatchable interpolation step."""


@dataclass(frozen=True)
class InterpolationSample:
    """State of one controller tick.

    chord_err is the deviation of the straight segment from the curve
    over the step that ENDS at this sample; the first sample carries 0.
    """

    t: float
    u: float
    position: tuple[float, ...]
    v: float
    A: float
    J: float
    chord_err: float


@dataclass(frozen=True)
class RunSummary:
    max_feed: float
    max_accel: float
    max_jerk: float
    max_chord_err: float
    total_time: float
    n_points: int


def total_time(blocks: list[Block]) -> float:
    """Sum of block durations; every moving block must have one."""
    for i, b in enumerate(blocks):
        if b.L > 0.0 and b.T <= 0.0:
            raise SimulationError(f"block {i} has length but no duration")
    return float(sum(b.T for b in blocks))


class _Track:
    """Block profiles laid out on a shared time and travel axis."""

    def __init__(self, blocks, family):
        self.total = total_time(blocks)
        self.starts = []
        self.offsets = []
        self.durations = []
        self.profiles = []
        t = s = 0.0
        for b in blocks:
            self.starts.append(t)
            self.offsets.append(s)
            self.durations.append(b.T)
            self.profiles.append(family.fit(b.v_s, b.v_e, b.L))
            t += b.T
            s += b.L
        self.length = s

    def locate(self, t):
        """Index of the block running at time t and the time into it."""
        t = min(max(t, 0.0), self.total)
        i = max(bisect_right(self.starts, t) - 1, 0)
        return i, min(max(t - self.starts[i], 0.0), self.durations[i])

    def state(self, t):
        """Exact commanded travel (mm) from the path start at time t,
        with the feed, acceleration and jerk there."""
        i, tau = self.locate(t)
        profile = self.profiles[i]
        travel = self.offsets[i] + profile.displacement(tau)
        return travel, profile.kinematics(tau)


def _refine_step(curve, u, pos, d1, d2, advance):
    """Parameter whose chordal distance from pos equals the advance, with
    the curve's jet (point, first and second derivative) there.

    d1 and d2 are the derivatives at u. Newton's method on the chord gap
    |C(x) - pos| - advance, seeded by a second-order prediction, with one
    jet per iterate. Every evaluated parameter tightens a bracket on
    [u, 1]; a step that would leave it bisects instead, and the curve end
    is probed only when a step would pass it. Returns None when the rest
    of the curve is too short for the advance; the caller decides whether
    that is the path end or an inconsistent plan.
    """
    speed_sq = sum(c * c for c in d1)
    speed = math.sqrt(speed_sq)
    dot = sum(a * b for a, b in zip(d1, d2))
    x = u + advance / speed - dot * advance * advance / (
        2.0 * speed_sq * speed_sq
    )
    x = min(max(x, u), 1.0)
    lo, hi = u, None  # hi: the nearest parameter known to overshoot
    for _ in range(_MAX_REFINE_STEPS):
        at_x = jet(curve, x)
        point, d1 = at_x[:2]
        diff = [a - b for a, b in zip(point, pos)]
        dist = math.sqrt(sum(c * c for c in diff))
        gap = dist - advance
        if abs(gap) <= _CHORD_MATCH_TOL:
            return x, at_x
        if gap > 0.0:
            hi = x
        elif x >= 1.0:
            return None
        else:
            lo = x
        top = 1.0 if hi is None else hi
        if top - lo < 1e-16:
            break
        slope = sum(a * b for a, b in zip(diff, d1)) / dist if dist else 0.0
        x = x - gap / slope if slope > 0.0 else math.inf
        if not lo < x < top:
            x = 1.0 if hi is None else 0.5 * (lo + hi)
    x = 0.5 * (lo + top)
    return x, jet(curve, x)


def _chord_errors(curve, us, points) -> list[float]:
    """Chord deviation of the step into each visit (u, point) from the one
    before, 0 for the first, as chordscan._chord_deviation measures it;
    the radii at all nonzero chords' midpoints come from one vectorised
    call."""
    chords = [math.dist(a, b) for a, b in zip(points, points[1:])]
    curved = [i for i, chord in enumerate(chords) if chord != 0.0]
    mids = np.array([0.5 * (us[i] + us[i + 1]) for i in curved])
    errs = [0.0] * len(us)
    for i, rho in zip(curved, _curvature_radii(curve, mids).tolist()):
        errs[i + 1] = _arc_deviation(
            curve, us[i], us[i + 1], points[i], points[i + 1], chords[i], rho
        )
    return errs


def interpolate(
    curve: ParametricCurve,
    blocks: list[Block],
    limits: Limits,
    family: ProfileFamily | None = None,
) -> list[InterpolationSample]:
    """Sample the scheduled run every Ts from start to path end.

    The blocks are replayed with the profiles of the family they were
    scheduled with, by default the shaped law at limits.shape_s.

    When chordal drift lands the walk on the curve end a tick or two
    before the schedule runs out, the end absorbs the leftover travel;
    leftovers beyond the accumulated drift ceiling mean the plan
    commands more travel than the path holds, which raises.
    """
    if not blocks:
        raise SimulationError("empty schedule")
    if family is None:
        family = sigmoid_family(limits.shape_s)
    track = _Track(blocks, family)
    if track.total <= 0.0:
        raise SimulationError("schedule has zero duration")
    Ts = limits.Ts
    n_steps = max(1, math.ceil(track.total / Ts - 1e-9))
    u = 0.0
    pos, d1, d2 = jet(curve, 0.0)
    travel, (v, a, j) = track.state(0.0)
    # the walk; the chord pass measures its steps once it has ended
    kinematics, us, points = [(0.0, v, a, j)], [u], [pos]
    for k in range(1, n_steps + 1):
        t = min(k * Ts, track.total)
        reached, (v, a, j) = track.state(t)
        advance = reached - travel
        travel = reached
        landing = None
        if k < n_steps:
            landing = (
                _refine_step(curve, u, pos, d1, d2, advance)
                if u < 1.0 else None
            )
            if landing is None:
                left = track.length - travel
                if left > _END_DRIFT_PER_TICK * limits.delta_max * k:
                    raise SimulationError(
                        f"block {track.locate(t)[0]} at t={k * Ts:.6f}: plan "
                        f"commands {left + advance:.3e} mm past the path end"
                    )
        u, (pos, d1, d2) = landing or (1.0, jet(curve, 1.0))
        kinematics.append((k * Ts, v, a, j))
        us.append(u)
        points.append(pos)
    errs = _chord_errors(curve, us, points)
    return [
        InterpolationSample(t, u, p, v, a, j, err)
        for (t, v, a, j), u, p, err in zip(kinematics, us, points, errs)
    ]


def summarize(
    samples: list[InterpolationSample], blocks: list[Block]
) -> RunSummary:
    """Componentwise maxima over a replay plus schedule totals."""
    if not samples:
        raise SimulationError("no samples to summarize")
    return RunSummary(
        max_feed=max(s.v for s in samples),
        max_accel=max(abs(s.A) for s in samples),
        max_jerk=max(abs(s.J) for s in samples),
        max_chord_err=max(s.chord_err for s in samples),
        total_time=total_time(blocks),
        n_points=len(samples),
    )
