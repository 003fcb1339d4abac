"""Replay of a finished schedule through the controller's sampling loop.

Every sampling period the commanded profile advances the tool by the
integral of velocity over the period; the curve parameter for that
advance starts from a second-order Taylor prediction and is refined by
bisection until the straight-line (chordal) advance matches. Each
sample records the parameter, position, the profile's analytic
kinematics, and the measured chord deviation of the step.

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

from .chordscan import Limits, chord_error
from .geometry import ParametricCurve, derivatives, evaluate
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
    """Block profiles laid out on a shared time axis."""

    def __init__(self, blocks, family):
        self.total = total_time(blocks)
        self.starts = []
        self.durations = []
        self.profiles = []
        t = 0.0
        for b in blocks:
            self.starts.append(t)
            self.durations.append(b.T)
            self.profiles.append(family.fit(b.v_s, b.v_e, b.L))
            t += b.T

    def _locate(self, t):
        i = bisect_right(self.starts, t) - 1
        return max(i, 0)

    def kinematics(self, t):
        t = min(max(t, 0.0), self.total)
        i = self._locate(t)
        tau = min(max(t - self.starts[i], 0.0), self.durations[i])
        return self.profiles[i].kinematics(tau)

    def travel(self, t1, t2):
        """Trapezoidal integral of velocity, split at block boundaries."""
        cuts = [t1]
        for s in self.starts:
            if t1 < s < t2 and s - cuts[-1] > 1e-15:
                cuts.append(s)
        cuts.append(t2)
        total = 0.0
        v_a = self.kinematics(cuts[0])[0]
        for a, b in zip(cuts[:-1], cuts[1:]):
            v_b = self.kinematics(b)[0]
            total += 0.5 * (v_a + v_b) * (b - a)
            v_a = v_b
        return total


def _refine_step(curve, u, pos, advance):
    """Parameter whose chordal distance from pos equals the advance.

    Starts from a second-order prediction, brackets the target, then
    bisects. Returns None when the rest of the curve is too short for
    the advance; the caller decides whether that is the path end or an
    inconsistent plan.
    """
    d1, d2 = derivatives(curve, u, order=2)
    speed_sq = sum(c * c for c in d1)
    speed = math.sqrt(speed_sq)
    dot = sum(a * b for a, b in zip(d1, d2))
    second = dot * advance * advance / (2.0 * speed_sq * speed_sq)
    pred = u + advance / speed - second

    def chord_gap(x):
        p = evaluate(curve, x)
        return math.dist(p, pos) - advance

    width = max(4.0 * abs(second), 1e-7)
    lo = min(max(u, pred - width), 1.0)
    hi = min(pred + width, 1.0)
    while lo > u and chord_gap(lo) > 0.0:
        width *= 4.0
        lo = max(u, pred - width)
    while chord_gap(hi) < 0.0:
        if hi >= 1.0:
            return None
        width *= 4.0
        hi = min(pred + width, 1.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        gap = chord_gap(mid)
        if abs(gap) <= _CHORD_MATCH_TOL:
            return mid
        if gap < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16:
            break
    return 0.5 * (lo + hi)


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
    advances = [
        track.travel((k - 1) * Ts, min(k * Ts, track.total))
        for k in range(1, n_steps + 1)
    ]
    left = sum(advances)
    u = 0.0
    pos = evaluate(curve, 0.0)
    v, a, j = track.kinematics(0.0)
    samples = [InterpolationSample(0.0, 0.0, pos, v, a, j, 0.0)]
    for k in range(1, n_steps + 1):
        advance = advances[k - 1]
        left -= advance
        if k == n_steps or u >= 1.0:
            u_next = 1.0
        else:
            u_next = _refine_step(curve, u, pos, advance)
            if u_next is None:
                if left > _END_DRIFT_PER_TICK * limits.delta_max * k:
                    i = track._locate(min(k * Ts, track.total))
                    raise SimulationError(
                        f"block {i} at t={k * Ts:.6f}: plan commands "
                        f"{left + advance:.3e} mm past the path end"
                    )
                u_next = 1.0
        err = chord_error(curve, u, u_next)
        pos = evaluate(curve, u_next)
        v, a, j = track.kinematics(min(k * Ts, track.total))
        samples.append(
            InterpolationSample(k * Ts, u_next, pos, v, a, j, err)
        )
        u = u_next
    return samples


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
