"""Replay of a finished schedule through the controller's sampling loop.

Every sampling period the commanded profile advances the tool by the
difference of its exact closed-form travel at the two tick times, and
the replay lands on the nearest curve parameter whose straight-line
(chordal) step from the previous landing matches that advance within
_CHORD_MATCH_TOL. The replay returns one column per recorded value over
all ticks (Replay): the time, parameter, position, the profile's
analytic kinematics, and the measured chord deviation of each step.

The commanded travel of every tick comes first, on arrays: the law's
block durations (Law.duration) place the block starts, one searchsorted
over them finds each tick's block, and one Law.state call
evaluates all ticks (_commanded); a block the law cannot carry is
refused there. The walk then lands the ticks in windows: Newton steps
over the whole window, one jets pass each, from first guesses on the arc
table, and a screen on the arc each landing consumes that keeps only
landings on the nearer root (_land). The first window has _WINDOW_TICKS
ticks, and one that lands whole doubles the next, up to _LONGEST_WINDOW
times that. The first tick a window leaves unlanded is found by a
bracketed search over many parameters per jets pass (_first_crossing),
and the next window starts after it at _WINDOW_TICKS again. The chord
pass then measures every step's deviation with the scan's chord measure
(chordscan._chord_deviations), from the osculating radii at all step
midpoints, in one jets pass. A plan longer than _MAX_TICKS periods is
refused before the walk.

Chordal stepping consumes slightly more path than the commanded travel
on curved spans, at most about half the chord tolerance per period, so
a consistent plan runs out of curve marginally early. The replay
absorbs that drift at the path end and reports any larger shortfall as
an inconsistent plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chordscan import Limits, _chord_deviations
from .geometry import ParametricCurve, _params_at, jet, jets
from .segmentation import Block
from .sprofile import Law, ProfileError, sigmoid_law

__all__ = [
    "SimulationError",
    "Replay",
    "RunSummary",
    "interpolate",
    "summarize",
]

_CHORD_MATCH_TOL = 1e-9  # mm
# The walk solves the landings of a window of ticks at once, with at most
# _WINDOW_PASSES jets passes, and inverts the curve's arc grid
# (geometry.ParametricCurve._arc_grid) for its first guesses. A window
# starts at _WINDOW_TICKS ticks and doubles after each one that lands
# whole, up to _LONGEST_WINDOW times that.
_WINDOW_TICKS = 512
_LONGEST_WINDOW = 8
_WINDOW_PASSES = 8
# The first-crossing search samples 64 interior parameters of its bracket
# and its top per pass, and raises after _SEARCH_PASSES. A pass past the
# match narrows the bracket 65-fold: 9 reach one ulp of u from [0, 1].
_SEARCH_STEPS = np.arange(1, 66) / 65.0
_SEARCH_PASSES = 40
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


@dataclass(frozen=True, eq=False)
class Replay:
    """The replayed ticks as columns: position is ticks x dimension, and
    chord_err is the deviation of the step ENDING at each tick (0 first);
    total_time is the plan's duration, the sum of its blocks' T.
    """

    t: np.ndarray
    u: np.ndarray
    position: np.ndarray
    v: np.ndarray
    A: np.ndarray
    J: np.ndarray
    chord_err: np.ndarray
    total_time: float

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class RunSummary:
    max_feed: float
    max_accel: float
    max_jerk: float
    max_chord_err: float
    total_time: float
    n_points: int


def _commanded(blocks, law, ticks, total):
    """Commanded travel (mm from the path start), feed, acceleration,
    jerk and running block index at each tick time min(t, total), t in
    ticks, as five arrays. One searchsorted over the block starts, placed
    by the law's durations, picks each tick's running block: the last
    block starting at or before the tick, so blocks of zero duration are
    stepped over. One law.state call then evaluates every tick under its
    block's feeds and duration. A block the law cannot carry raises."""
    rows = []
    for i, b in enumerate(blocks):
        try:
            rows.append((b.v_s, b.v_e, law.duration(b.v_s, b.v_e, b.L)))
        except ProfileError as exc:
            raise SimulationError(f"block {i} cannot be replayed: {exc}") from exc
    fits = np.array(rows)
    starts = np.cumsum(np.append(0.0, fits[:, 2]))
    offsets = np.cumsum([0.0] + [b.L for b in blocks])
    t = np.minimum(ticks, total)
    held = np.searchsorted(starts[1:-1], t, side="right")
    v_s, v_e, T = fits[held].T
    travel, v, a, j = law.state(v_s, v_e, T, t - starts[held])
    return offsets[held] + travel, v, a, j, held


def _land(curve, grid, u0, s0, p0, d0, travel, reached):
    """Landings of a window of ticks, found together by Newton's method.

    Tick m commands the travel reached[m]; the window starts from the
    landing u0 at arc position s0, with point p0 and first derivative d0,
    at travel. The solve seeks u_1 <= ... <= u_n <= 1 with |C(u_m) -
    C(u_{m-1})| equal to each tick's advance, from the arc table's
    parameters at the commanded travel plus the arc excess of the chords
    before. Each Newton step is one jets pass and the forward recurrence
    of the bidiagonal Jacobian, step_m = (back_m step_{m-1} - gap_m) /
    fwd_m, as step = P cumsum(-gap / (fwd P)) with P the running product
    of back / fwd; a zero chord takes the tangent for its direction. Each
    iterate is clamped nondecreasing into [u0, 1], which also undoes a NaN
    step. The solve stops when every tick matches within _CHORD_MATCH_TOL
    or lies past the curve end, or after _WINDOW_PASSES passes.

    The screen: a chord that reaches D before it comes back to the
    advance a consumes at least 2 D - a of arc, and a smooth step's arc
    exceeds its chord by about a^3 kappa^2 / 24. So a matched tick lands
    only if its chord still grows there and the arc it consumes exceeds
    a by at most twice that excess (the larger of the grid's at its two
    ends) plus the match: no parameter before it then lies farther than
    a plus the excess plus the match. A tick lies past the curve end if
    the landing before it is u = 1, or if its own is, its chord is short
    and chord plus consumed arc stay below 2 (a - match), which a path
    that reaches a - match exceeds.

    Returns how many leading ticks landed, whether every tick after those
    lies past the curve end, the parameters of the landings with their
    points and first derivatives (one first-order jets pass), and
    the arc positions of u0 and of the landings.
    """
    _, at, _, excess = grid
    advance = np.diff(reached, prepend=travel)
    arc = s0 + (reached - travel)
    arc += np.cumsum(advance**3 * np.interp(arc, at, excess))
    x = _params_at(grid, arc)
    for passes in range(1, _WINDOW_PASSES + 1):
        x = np.fmin(np.fmax.accumulate(np.fmax(x, u0)), 1.0)
        at_x = points, d1 = jets(curve, x, order=1)
        chord = (points - np.vstack([p0, points[:-1]])).T
        dist = np.sqrt(sum(c * c for c in chord))
        gap = dist - advance
        ended = np.concatenate([[u0], x[:-1]]) == 1.0
        short = (x == 1.0) & (gap < -_CHORD_MATCH_TOL)
        matched = (np.abs(gap) <= _CHORD_MATCH_TOL) & ~ended
        if (matched | ended | short).all() or passes == _WINDOW_PASSES:
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
    s = np.append(s0, curve._arc_table.positions(x))
    consumed = np.diff(s)
    bend = np.interp(s, at, excess)
    bend = advance**3 * np.fmax(bend[:-1], bend[1:])
    grows = sum(a * b for a, b in zip(chord, d1.T)) > 0.0
    landed = matched & (grows | (dist <= _CHORD_MATCH_TOL))
    landed &= consumed - advance <= 2.0 * bend + _CHORD_MATCH_TOL
    ended |= short & (dist + consumed < 2.0 * (advance - _CHORD_MATCH_TOL))
    n = int(np.argmin(np.append(landed, False)))
    return n, bool(n < x.size and ended[n:].all()), x, at_x, s


def _first_crossing(curve, u0, p0, advance, hi):
    """Nearest parameter past u0 whose chord from p0 matches the advance
    within _CHORD_MATCH_TOL, with its point and first derivative; None
    when the curve ends short of the advance.

    Each pass samples _SEARCH_STEPS of a bracket (lo, hi] in one
    first-order jets pass and takes the first sample that reaches
    advance - match. Past the match the bracket narrows around it; within,
    one Newton step from it, kept in the bracket, gives the next hi, with
    lo back at u0. It
    returns hi once hi is the first sample of (u0, hi] to reach and it
    matches. A bracket with no sample that reaches moves on to (hi, 1].
    """
    lo = u0
    for _ in range(_SEARCH_PASSES):
        u = lo + (hi - lo) * _SEARCH_STEPS
        u[-1] = hi
        points, d1 = jets(curve, u, order=1)
        chord = points - p0
        dist = np.sqrt((chord * chord).sum(axis=1))
        gap = dist - advance
        reach = gap >= -_CHORD_MATCH_TOL
        i = int(np.argmax(reach))
        below = u[i - 1] if i else lo
        if not reach[i]:
            if hi == 1.0:
                return None
            lo, hi = hi, 1.0
        elif gap[i] > _CHORD_MATCH_TOL:
            lo, hi = below, u[i]
        elif lo == u0 and u[i] == hi:
            return float(hi), points[i], d1[i]
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                x = u[i] - gap[i] * dist[i] / (chord[i] @ d1[i])
            lo, hi = u0, (x if below < x <= hi else u[i])
    raise SimulationError(f"no landing past u={u0!r} matches {advance:.3e} mm")


def interpolate(
    curve: ParametricCurve,
    blocks: list[Block],
    limits: Limits,
    law: Law | None = None,
) -> Replay:
    """Sample the scheduled run every Ts from start to path end, both
    ends included, as one Replay.

    The blocks are replayed with the law they were scheduled with, by
    default the shaped law at limits.shape_s.

    When chordal drift lands the walk on the curve end a tick or two
    before the schedule runs out, the end absorbs the leftover travel;
    leftovers beyond the accumulated drift ceiling mean the plan
    commands more travel than the path holds, which raises. So does a
    plan of more than _MAX_TICKS periods, before any tick is replayed.
    """
    if not blocks:
        raise SimulationError("empty schedule")
    if law is None:
        law = sigmoid_law(limits.shape_s)
    total = sum(b.T for b in blocks)
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
    length = math.fsum(b.L for b in blocks)
    ts = np.arange(n_steps + 1) * Ts
    reached, vs, accels, jerks, held = _commanded(blocks, law, ts, total)
    u, (pos, d1, _) = 0.0, jet(curve, 0.0)
    # S(0) is the series' rounding at x = -1, not always 0
    s = curve._arc_table.positions(u)
    grid = curve._arc_grid
    # the landings, as slices of the windows' arrays and lone searched ones
    us, points = [np.array([u])], [np.array([pos])]
    # the walk lands ticks 1 .. last a window at a time; the search lands
    # a tick the window left, so each round lands at least one tick. A
    # window that lands whole doubles the next, up to _LONGEST_WINDOW
    # times _WINDOW_TICKS; one that stops short starts over from
    # _WINDOW_TICKS
    k, last, size = 0, n_steps - 1, _WINDOW_TICKS
    while k < last and u < 1.0:
        window = reached[k + 1 : min(k + size, last) + 1]
        n, ended, x, (p, d), arc = _land(
            curve, grid, u, s, pos, d1, reached[k], window
        )
        size = min(2 * size, _LONGEST_WINDOW * _WINDOW_TICKS) if n == len(window) else _WINDOW_TICKS
        if n:
            us.append(x[:n])
            points.append(p[:n])
            u, s, pos, d1 = float(x[n - 1]), arc[n], p[n - 1], d[n - 1]
            k += n
        if ended:
            break
        if n < len(window):
            advance = reached[k + 1] - reached[k]
            landing = _first_crossing(curve, u, pos, advance, x[n])
            if landing is None:
                break
            u, pos, d1 = landing
            s = curve._arc_table.positions(u)
            us.append(np.array([u]))
            points.append(pos[None])
            k += 1
    # the ticks past the curve end and the final tick land on it; leftover
    # travel only falls and its ceiling only grows, so check the first
    if k < last:
        advance = reached[k + 1] - reached[k]
        left = length - reached[k + 1]
        if left > _END_DRIFT_PER_TICK * limits.delta_max * (k + 1):
            raise SimulationError(
                f"block {held[k + 1]} at t={(k + 1) * Ts:.6f}: plan "
                f"commands {left + advance:.3e} mm past the path end"
            )
    us.append(np.full(n_steps - k, 1.0))
    points.append(np.repeat([jet(curve, 1.0)[0]], n_steps - k, axis=0))
    u, position = np.concatenate(us), np.concatenate(points)
    errs = np.append(
        0.0, _chord_deviations(curve, u[:-1], u[1:], position[:-1], position[1:])
    )
    return Replay(ts, u, position, vs, accels, jerks, errs, total)


def summarize(replay: Replay) -> RunSummary:
    """Column maxima (of |A| and |J|) over a replay and its total time."""
    if not len(replay):
        raise SimulationError("no samples to summarize")
    return RunSummary(
        max_feed=float(replay.v.max()),
        max_accel=float(np.abs(replay.A).max()),
        max_jerk=float(np.abs(replay.J).max()),
        max_chord_err=float(replay.chord_err.max()),
        total_time=replay.total_time,
        n_points=len(replay),
    )
