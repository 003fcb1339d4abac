"""Replay of a finished schedule through the controller's sampling loop.

Every sampling period the commanded profile advances the tool by the
difference of its exact closed-form travel at the two tick times, and
the replay lands on the curve parameter whose straight-line (chordal)
step from the previous landing matches that advance within
_CHORD_MATCH_TOL. Each sample records the parameter, position, the
profile's analytic kinematics, and the measured chord deviation of the
step.

The replay runs in two phases. The walk takes the ticks in windows of up
to _WINDOW_TICKS, finding each tick's running block with a forward cursor
over the block start times. It solves all landings of a window together:
the first guesses invert the arc table at the commanded travel, and each
Newton step over the whole window takes one jets pass (point, first and
second derivative at every landing) and solves its bidiagonal Jacobian by
one forward recurrence, until every tick's chord matches or the tick lies
past the curve end. A window that has not settled after _WINDOW_PASSES
passes hands its first unsettled tick to the scalar chord step, which
starts from a second-order Taylor prediction and refines it by Newton
steps inside a bisection bracket, with one jet per iterate, and steps the
rest of the window tick by tick. The chord pass then measures every
step's deviation from the osculating radii at all step midpoints, taken
in one jets pass. A plan longer than _MAX_TICKS periods is refused
before the walk.

Chordal stepping consumes slightly more path than the commanded travel
on curved spans, at most about half the chord tolerance per period, so
a consistent plan runs out of curve marginally early. The replay
absorbs that drift at the path end and reports any larger shortfall as
an inconsistent plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .chordscan import Limits, _max_chord_deviation
from .geometry import (
    ParametricCurve,
    _curvature_radii,
    jet,
    jets,
)
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
# The walk solves the landings of up to _WINDOW_TICKS ticks at once, with
# at most _WINDOW_PASSES jets passes, and inverts the curve's arc grid
# (geometry.ParametricCurve._arc_grid) for its first guesses.
_WINDOW_TICKS = 512
_WINDOW_PASSES = 8
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


def _params_at(grid, s):
    """Parameters at the running arc lengths s: the cubic Hermite
    interpolant of u(s) between the grid's nodes, whose slopes there are
    the reciprocal speeds; linear where a slope or an interval is
    degenerate."""
    u, at, speed, _ = grid
    i = np.clip(np.searchsorted(at, s, side="right") - 1, 0, u.size - 2)
    h = at[i + 1] - at[i]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip((s - at[i]) / h, 0.0, 1.0)
        rise = t * t * (3.0 - 2.0 * t)
        x = (
            u[i] + (u[i + 1] - u[i]) * rise
            + h * t * (1.0 - t) * ((1.0 - t) / speed[i] - t / speed[i + 1])
        )
    return np.where(np.isfinite(x), x, np.interp(s, at, u))


def _land(curve, grid, u0, p0, d0, travel, reached):
    """Landings of a window of ticks, found together by Newton's method.

    Tick m commands the travel reached[m]; the window starts from the
    landing u0 with point p0 and first derivative d0, at travel. The
    solve seeks u_1 <= ... <= u_n <= 1 with |C(u_m) - C(u_{m-1})| equal
    to each tick's advance. It starts from the arc table's parameters at
    the commanded travel plus the arc excess of the chords before, and
    each Newton step takes one jets pass. The chord of tick m depends on
    u_{m-1} and u_m only, so the Jacobian is bidiagonal, and its forward
    recurrence, step_m = (back_m step_{m-1} - gap_m) / fwd_m, has the
    closed form step = P cumsum(-gap / (fwd P)) with P the running
    product of back / fwd; a zero chord takes the tangent for its
    direction. Each iterate is clamped nondecreasing into [u0, 1], which
    also takes a parameter whose step is NaN back to the landing before
    it. A tick lies past the curve end when the landing before it is
    u = 1, or when its own is and its chord falls short.

    Returns how many leading ticks matched their advance within
    _CHORD_MATCH_TOL, whether every tick after those lies past the curve
    end, and the landings' parameters and jets (point, first and second
    derivative arrays). The solve stops after _WINDOW_PASSES passes; the
    caller steps any tick neither matched nor past the end one by one.
    """
    _, at, _, excess = grid
    reached = np.asarray(reached)
    advance = np.diff(reached, prepend=travel)
    arc = curve._arc_table.at(u0) + (reached - travel)
    arc += np.cumsum(advance**3 * np.interp(arc, at, excess))
    x = _params_at(grid, arc)
    for passes in range(1, _WINDOW_PASSES + 1):
        x = np.fmin(np.fmax.accumulate(np.fmax(x, u0)), 1.0)
        at_x = points, d1, _ = jets(curve, x)
        chord = (points - np.vstack([p0, points[:-1]])).T
        dist = np.sqrt(sum(c * c for c in chord))
        gap = dist - advance
        ended = np.concatenate([[u0], x[:-1]]) == 1.0
        ended |= (x == 1.0) & (gap < -_CHORD_MATCH_TOL)
        matched = (np.abs(gap) <= _CHORD_MATCH_TOL) & ~ended
        if (matched | ended).all() or passes == _WINDOW_PASSES:
            break
        before = np.vstack([d0, d1[:-1]]).T
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            tangent = before / np.sqrt(sum(c * c for c in before))
            unit = np.where(dist > 0.0, chord / dist, tangent)
            fwd = sum(a * b for a, b in zip(unit, d1.T))
            back = sum(a * b for a, b in zip(unit, before))
            run = np.cumprod(np.concatenate([[1.0], back[1:] / fwd[1:]]))
            step = run * np.cumsum(-gap / (fwd * run))
        x = x + step
    n = int(np.argmin(matched)) if not matched.all() else x.size
    return n, bool(ended[n:].all()), x, at_x


def _chord_errors(curve, us, points) -> list[float]:
    """Chord deviation of the step into each visit (u, point) from the one
    before, 0 for the first, as chordscan._chord_deviation measures it:
    the radii at all nonzero chords' midpoints come from one vectorised
    call and the arc model's sagitta is taken on arrays; a chord too long
    for the arc model is sampled on its own."""
    chords = np.array(list(map(math.dist, points, points[1:])))
    curved = np.flatnonzero(chords)
    u = np.array(us)
    rho = _curvature_radii(curve, 0.5 * (u[curved] + u[curved + 1]))
    chord = chords[curved]
    with np.errstate(invalid="ignore"):
        sag = np.where(
            np.isinf(rho), 0.0, rho - np.sqrt(rho * rho - 0.25 * chord * chord)
        )
    errs = np.zeros(u.size)
    errs[curved + 1] = sag
    for i in curved[~np.isinf(rho) & ~(2.0 * rho > chord)].tolist():
        errs[i + 1] = _max_chord_deviation(
            curve, us[i], us[i + 1], points[i], points[i + 1]
        )
    return errs.tolist()


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
    u, (pos, d1, d2) = 0.0, jet(curve, 0.0)
    end = jet(curve, 1.0)  # the final landing and any past the curve end
    grid = curve._arc_grid
    # the walk, a window of ticks at a time; the chord pass measures its
    # steps once it has ended
    ts, vs, accels, jerks, us, points = [0.0], [v], [a], [j], [u], [pos]
    k = 0
    while k < n_steps:
        window = list(islice(ticks, _WINDOW_TICKS))
        reached, w_v, w_a, w_j, held = zip(*window)
        first, k = k + 1, k + len(window)
        ts += [n * Ts for n in range(first, k + 1)]
        vs += w_v
        accels += w_a
        jerks += w_j
        solved, ended = 0, u == 1.0
        walk = min(k, n_steps - 1) - first + 1  # the final tick lands at 1
        if walk > 0 and not ended:
            solved, ended, x, at_x = _land(
                curve, grid, u, pos, d1, travel, reached[:walk]
            )
        if solved:
            us += x[:solved].tolist()
            points += map(tuple, at_x[0][:solved].tolist())
            u, pos = us[-1], points[-1]
            d1, d2 = (tuple(c[solved - 1].tolist()) for c in at_x[1:])
            travel = reached[solved - 1]
        # ticks past the curve end, the final tick, and any the window
        # solve left unsettled, which the scalar Newton step takes over
        for m in range(solved, len(window)):
            n = first + m
            advance = reached[m] - travel
            travel = reached[m]
            landing = None
            if n < n_steps:
                if not ended and u < 1.0:
                    landing = _refine_step(curve, u, pos, d1, d2, advance)
                if landing is None:
                    left = length - travel
                    if left > _END_DRIFT_PER_TICK * limits.delta_max * n:
                        raise SimulationError(
                            f"block {held[m]} at t={n * Ts:.6f}: plan "
                            f"commands {left + advance:.3e} mm past the path end"
                        )
            u, (pos, d1, d2) = landing or (1.0, end)
            us.append(u)
            points.append(pos)
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
