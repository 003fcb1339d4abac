"""Replay of a finished schedule through the controller's sampling loop.

Every sampling period the commanded profile advances the tool by the
difference of its exact closed-form travel at the two tick times; the
curve parameter for that advance starts from a second-order Taylor
prediction and is refined by Newton steps, kept inside a bisection
bracket, until the straight-line (chordal) advance matches. Each sample
records the parameter, position, the profile's analytic kinematics, and
the measured chord deviation of the step.

The replay runs in two phases. The walk finds each tick's running block
with a forward cursor over the block start times and evaluates each
visited parameter once, as a jet (point, first and second derivative);
the landing's jet seeds the next tick's prediction. The chord pass then
measures every step's deviation from the osculating radii at all step
midpoints, taken in one vectorised pass over the curve. A plan longer
than _MAX_TICKS periods is refused before the walk.

Chordal stepping consumes slightly more path than the commanded travel
on curved spans, at most about half the chord tolerance per period, so
a consistent plan runs out of curve marginally early. The replay
absorbs that drift at the path end and reports any larger shortfall as
an inconsistent plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
# Longest replay, in sampling periods: 1000 s of motion at Ts = 1 ms, over
# 400 times the longest corpus or benchmark plan (2316 ticks), and at tens of
# microseconds per tick, well under a minute of replay.
_MAX_TICKS = 1_000_000

# Chord-vs-arc drift ceiling per tick, in units of delta_max. On a
# circular arc of half-angle theta, arc - chord = 2*rho*(theta -
# sin(theta)) ~= (2*theta/3) * sagitta, and a step whose sagitta fits
# the tolerance has theta < pi/2, so each tick consumes under ~1.1x the
# chord tolerance more arc than chord. 1.5 adds slack for model error.
_END_DRIFT_PER_TICK = 1.5


class SimulationError(ValueError):
    """Replay failed: bad inputs or an unmatchable interpolation step."""


class InterpolationSample(NamedTuple):
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
    """Sum of block durations; none may be negative and every moving
    block must have one."""
    for i, b in enumerate(blocks):
        if b.T < 0.0 or (b.L > 0.0 and b.T <= 0.0):
            raise SimulationError(f"block {i} has duration {b.T!r}")
    return float(sum(b.T for b in blocks))


def _commanded(blocks, family, total, Ts, n_steps):
    """Commanded travel (mm from the path start), feed, acceleration,
    jerk and running block index at each tick time min(k*Ts, total), k =
    0..n_steps. A forward cursor picks the running block as a bisection
    over the block starts would: the last block starting at or before the
    tick, so blocks of zero duration are stepped over."""
    starts, offsets = [], []
    t = s = 0.0
    for b in blocks:
        starts.append(t)
        offsets.append(s)
        t += b.T
        s += b.L
    profiles = [family.fit(b.v_s, b.v_e, b.L) for b in blocks]
    i, last = 0, len(blocks) - 1
    for k in range(n_steps + 1):
        t = min(k * Ts, total)
        while i < last and starts[i + 1] <= t:
            i += 1
        tau = min(max(t - starts[i], 0.0), blocks[i].T)
        travel, v, a, j = profiles[i].state(tau)
        yield offsets[i] + travel, v, a, j, i


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

    Sums over the 2 or 3 coordinates are written out and added left to
    right from 0, as the builtin sum adds them.
    """
    planar = len(pos) == 2
    if planar:
        (px, py), (ax, ay), (bx, by) = pos, d1, d2
        speed_sq = ax * ax + ay * ay
        dot = 0.0 + ax * bx + ay * by
    else:
        (px, py, pz), (ax, ay, az), (bx, by, bz) = pos, d1, d2
        speed_sq = ax * ax + ay * ay + az * az
        dot = 0.0 + ax * bx + ay * by + az * bz
    speed = math.sqrt(speed_sq)
    x = u + advance / speed - dot * advance * advance / (
        2.0 * speed_sq * speed_sq
    )
    x = min(max(x, u), 1.0)
    lo, hi = u, None  # hi: the nearest parameter known to overshoot
    for _ in range(_MAX_REFINE_STEPS):
        at_x = jet(curve, x)
        if planar:
            (ex, ey), (ax, ay), _ = at_x
            ex, ey = ex - px, ey - py
            dist = math.sqrt(ex * ex + ey * ey)
            lean = 0.0 + ex * ax + ey * ay
        else:
            (ex, ey, ez), (ax, ay, az), _ = at_x
            ex, ey, ez = ex - px, ey - py, ez - pz
            dist = math.sqrt(ex * ex + ey * ey + ez * ez)
            lean = 0.0 + ex * ax + ey * ay + ez * az
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
        slope = lean / dist if dist else 0.0
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
    commands more travel than the path holds, which raises. So does a
    plan of more than _MAX_TICKS periods, before any tick is replayed.
    """
    if not blocks:
        raise SimulationError("empty schedule")
    if family is None:
        family = sigmoid_family(limits.shape_s)
    total = total_time(blocks)
    if total <= 0.0:
        raise SimulationError("schedule has zero duration")
    Ts = limits.Ts
    periods = total / Ts
    if not periods <= _MAX_TICKS:
        raise SimulationError(
            f"plan of {periods:.6g} ticks exceeds the replay's cap of "
            f"{_MAX_TICKS} ticks"
        )
    n_steps = max(1, math.ceil(periods - 1e-9))
    length = 0.0
    for b in blocks:
        length += b.L
    ticks = _commanded(blocks, family, total, Ts, n_steps)
    travel, v, a, j, _ = next(ticks)
    u = 0.0
    pos, d1, d2 = jet(curve, 0.0)
    # the walk; the chord pass measures its steps once it has ended
    kinematics, us, points = [(0.0, v, a, j)], [u], [pos]
    for k, (reached, v, a, j, i) in enumerate(ticks, 1):
        advance = reached - travel
        travel = reached
        landing = None
        if k < n_steps:
            if u < 1.0:
                landing = _refine_step(curve, u, pos, d1, d2, advance)
            if landing is None:
                left = length - travel
                if left > _END_DRIFT_PER_TICK * limits.delta_max * k:
                    raise SimulationError(
                        f"block {i} at t={k * Ts:.6f}: plan "
                        f"commands {left + advance:.3e} mm past the path end"
                    )
        u, (pos, d1, d2) = landing or (1.0, jet(curve, 1.0))
        kinematics.append((k * Ts, v, a, j))
        us.append(u)
        points.append(pos)
    ts, vs, accels, jerks = zip(*kinematics)
    errs = _chord_errors(curve, us, points)
    return list(map(
        InterpolationSample._make, zip(ts, us, points, vs, accels, jerks, errs)
    ))


def summarize(
    samples: list[InterpolationSample], blocks: list[Block]
) -> RunSummary:
    """Componentwise maxima over a replay plus schedule totals."""
    if not samples:
        raise SimulationError("no samples to summarize")
    _, _, _, vs, accels, jerks, errs = zip(*samples)
    return RunSummary(
        max_feed=max(vs),
        max_accel=max(map(abs, accels)),
        max_jerk=max(map(abs, jerks)),
        max_chord_err=max(errs),
        total_time=total_time(blocks),
        n_points=len(samples),
    )
