"""Breakpoint feed optimization across blocks.

Transition blocks must be long enough for their feed change to respect
the acceleration and jerk ceilings. A velocity law's reduction
constants, Law.mu_n and Law.mu_m, collapse each block's peak
acceleration to mu_n*(v2^2-v1^2)/L and its peak jerk to
mu_m*(v2-v1)*(v2+v1)^2/L^2, turning feasibility into closed-form
length/feed bounds. The scheduler settles the junctions in
one forward and one backward pass, after Dong and Stori's bidirectional
scan: a pass lowers only junctions it has not visited yet. Each junction
solve returns the largest float feed its feasibility test accepts, so
no pass repairs another's rounding.

The passes work on one chain: a feed at every junction and a length
for every block between two of them, in arc length alone. Each junction
starts at the arc position of its scan parameter and, when lengths move,
sits at the prefix sum of the block lengths before it; the scan ceiling
is read at the arc positions of its samples. After the passes the
blocks they shrank to zero length go, the junctions left that moved get
their curve parameter once, and the schedule is built as new blocks.

Feeds only ever decrease during scheduling, so the chord-error ceiling
recorded by the scan stays satisfied at every breakpoint; a junction
moves only where the scan ceiling over the arc it hands over holds it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from functools import cached_property

import numpy as np

from .chordscan import FeedrateScatter, Limits
from .geometry import ParametricCurve
from .segmentation import Block, BlockKind, classify_kind
from .sprofile import Law, sigmoid_law

__all__ = [
    "OptimizerError",
    "InfeasibleJunctionError",
    "ScheduleConsistencyError",
    "transition_min_length",
    "transition_max_feed",
    "adjust_peak_junction",
    "extend_into_constant",
    "adjust_with_constant",
    "schedule",
]

_LEN_TOL = 1e-9
# Relative allowance of the final check of every block's fitted peaks
# against the limits; the worst fitted peak over the tests and the
# benchmark workloads is 1 + 3.1e-15 of its limit.
_PEAK_SLACK = 1e-12
# Doubling steps of ulps a stalled junction solve takes from its secant
# root before it bisects what is left of its bracket.
_GALLOP_STEPS = 16


class OptimizerError(ValueError):
    """Base class for scheduling failures."""


class InfeasibleJunctionError(OptimizerError):
    """No feed at or above the junction floor satisfies the constraints."""


class ScheduleConsistencyError(OptimizerError):
    """A finished schedule failed its own feasibility validation."""


def transition_min_length(
    v_lo: float, v_hi: float, law: Law, limits: Limits
) -> float:
    """Shortest displacement over which v_lo can reach v_hi."""
    if v_hi < v_lo:
        raise OptimizerError("transition feeds must be ordered v_lo <= v_hi")
    if v_hi == v_lo:
        return 0.0
    acc = law.mu_n * (v_hi * v_hi - v_lo * v_lo) / limits.a_max
    jrk = math.sqrt(law.mu_m * (v_hi - v_lo) / limits.j_max) * (v_hi + v_lo)
    return max(acc, jrk)


def transition_max_feed(
    v_lo: float, L: float, law: Law, limits: Limits
) -> float:
    """Highest feed reachable from v_lo within displacement L: the largest
    float v with transition_min_length(v_lo, v) <= L."""
    if L <= 0.0:
        return v_lo
    acc = math.sqrt(v_lo * v_lo + limits.a_max * L / law.mu_n)
    rhs = L * L * limits.j_max / law.mu_m
    # (v - v_lo)(v + v_lo)^2 == rhs is increasing and convex above v_lo,
    # so Newton from an upper bound descends monotonically onto its root;
    # (v - v_lo)^3 and (v - v_lo)(2 v_lo)^2 bound the left side from
    # below, which bounds the root from above
    jrk = v_lo + rhs ** (1.0 / 3.0)
    den = 4.0 * v_lo * v_lo
    if den > 0.0:
        jrk = min(jrk, v_lo + rhs / den)
    while jrk > 0.0:  # the slope vanishes only at v = v_lo = 0
        w = jrk + v_lo
        nxt = jrk - ((jrk - v_lo) * w * w - rhs) / (w * (3.0 * jrk - v_lo))
        if not nxt < jrk:
            break
        jrk = nxt
    v = max(min(acc, jrk), v_lo)
    if math.isinf(v):
        # both bounds overflow only for limits near the float range; the
        # step below would walk down from there one float at a time
        return v
    # every rounding is monotone, so the minimum length is non-decreasing
    # in v even in floats: step from the root onto the last float that fits
    while v > v_lo and transition_min_length(v_lo, v, law, limits) > L:
        v = math.nextafter(v, -math.inf)
    up = math.nextafter(v, math.inf)
    while transition_min_length(v_lo, up, law, limits) <= L:
        v, up = up, math.nextafter(up, math.inf)
    return v


def _largest_feasible(feasible, lo, hi):
    """Largest float in [lo, hi] that the monotone predicate feasible
    accepts, by bisection down to adjacent floats; feasible(lo) holds."""
    if feasible(hi):
        return hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
    return lo


def _largest_fitting(need, total, lo, hi):
    """Largest float v in [lo, hi] with need(v) <= total, where need does
    not decrease in floats and need(lo) <= total.

    That float is unique, so any bracket of a fitting and a failing end
    closed down to adjacent floats finds it, as _largest_feasible does.
    An Illinois secant on need(v) - total narrows the bracket. Once
    rounding stalls it, its root falling on an end or moving by an ulp or
    less, the search gallops from that root in doubling steps of ulps,
    at most _GALLOP_STEPS, and bisects the bracket left.
    """
    b, gb = hi, need(hi) - total
    if gb <= 0.0:
        return hi
    a, ga = lo, need(lo) - total
    x, kept = math.nan, 0
    while True:
        root = a - ga * (b - a) / (gb - ga)
        if not a < root < b or abs(root - x) <= math.ulp(root):
            break
        x = root
        gx = need(x) - total
        # Illinois: an end kept twice in a row has its value halved
        if gx <= 0.0:
            if kept < 0:
                gb *= 0.5
            a, ga, kept = x, gx, -1
        else:
            if kept > 0:
                ga *= 0.5
            b, gb, kept = x, gx, 1
    if a < root < b:
        up = need(root) <= total
        a, b = (root, b) if up else (a, root)
    else:
        up = not root >= b
    # gallop from the end the root holds toward the other one
    near, far = (a, b) if up else (b, a)
    step = math.ulp(near) if up else -math.ulp(near)
    for _ in range(_GALLOP_STEPS):
        c = near + step
        if not min(near, far) < c < max(near, far):
            break
        if (need(c) <= total) is not up:
            far = c
            break
        near, step = c, 2.0 * step
    a, b = (near, far) if up else (far, near)
    while (mid := 0.5 * (a + b)) not in (a, b):
        a, b = (mid, b) if need(mid) <= total else (a, mid)
    return a


def adjust_peak_junction(
    v1: float, v2: float, v3: float, L1: float, L2: float,
    law: Law, limits: Limits, ceiling: Callable[[float], float],
) -> tuple[float, float]:
    """Tallest feasible peak (v, x), v at most v2, of a rise from v1 and a
    fall to v3 over L1 + L2, its junction moved from L1 to x.

    ceiling(x) is the lowest feed ceiling over the arc between L1 and x.
    A top feed v fits junctions in I(v) = [l1_min(v), L1 + L2 - l3_min(v)]
    and holds if ceiling(x) >= v at the point x of I(v) nearest L1.
    Lowering v widens I(v) and lowers the bar, so the tallest v is a
    feasibility boundary: the largest float whose I(v) is not empty, from
    a secant solve, unless the ceiling fails there; then a bisection for
    the largest v that holds.
    x is the end of I(v) giving the taller side the slack if the ceiling
    holds there, else the nearest point.
    """
    floor = max(v1, v3)
    if v2 < floor:
        raise OptimizerError("junction feed below its endpoints is no peak")
    total = L1 + L2

    def side_lengths(v):
        l1 = transition_min_length(v1, v, law, limits)
        l3 = transition_min_length(v3, v, law, limits)
        return l1, l3

    def need(v):
        l1, l3 = side_lengths(v)
        return l1 + l3

    def ends(v):
        l1, l3 = side_lengths(v)
        return (l1, total - l3) if l1 + l3 <= total else None

    def nearest(v):
        lo, hi = ends(v)
        return max(min(L1, hi), lo)

    def holds(v):
        return ends(v) is not None and ceiling(nearest(v)) >= v

    if not holds(floor):
        raise InfeasibleJunctionError(f"no feasible peak feed above {floor:.6f}")
    v = _largest_fitting(need, total, floor, v2)
    if not holds(v):
        v = _largest_feasible(holds, floor, v)
    far = ends(v)[int(v1 >= v3)]
    return v, far if ceiling(far) >= v else nearest(v)


def extend_into_constant(
    lo: float, hi: float, L_t: float, L_c: float,
    law: Law, limits: Limits,
) -> tuple[float, float, float]:
    """Grow a transition between feeds lo and hi, of length L_t, into the
    constant block of length L_c at its hi end, as (feed, L_t, L_c).

    Arc length moves from the constant block into the transition until
    the feed change fits; if the whole constant block is not enough,
    the transition takes the full span and the constant feed falls to
    the highest one it reaches, below hi. Total displacement is conserved.
    """
    need = transition_min_length(lo, hi, law, limits)
    if need <= L_t:
        return hi, L_t, L_c
    transfer = need - L_t
    if transfer > L_c:
        total = L_t + L_c
        return transition_max_feed(lo, total, law, limits), total, 0.0
    if L_c - transfer <= _LEN_TOL:
        # a residue this small is rounding, not a steady phase
        return hi, L_t + L_c, 0.0
    return hi, need, L_c - transfer


def adjust_with_constant(
    v1: float,
    v3: float,
    L_total: float,
    v_ceiling: float,
    law: Law,
    limits: Limits,
    floors: tuple[float, float] = (0.0, 0.0),
) -> tuple[float, tuple[float, float, float]]:
    """Fastest top feed v2 and the span's split into rise, steady and fall
    lengths, as (v2, lengths).

    Each side's length is the larger of its minimum length and its floor.
    The span time T(v2) = l2/v2 + 2*l1/(v1+v2) + 2*l3/(v3+v2), with
    l2 = L_total - l1 - l3, then never increases with v2, so the top feed
    is the largest feasible float, found by _largest_fitting:
    - acceleration-bound side: its transition time grows by l'/v2, just
      what the steady phase loses;
    - jerk-bound side: it grows by g/sqrt(v2-vi), at most
      l'/v2 = g*(3*v2-vi)/(2*v2*sqrt(v2-vi)), with g = sqrt(mu_m/j_max);
    - a binding floor only shortens its side's transition time.
    """
    if L_total <= 0.0:
        raise OptimizerError("span length must be positive")
    lo = max(v1, v3)
    if v_ceiling < lo:
        raise OptimizerError("feed ceiling below the junction endpoints")

    def side_lengths(v2):
        l1 = max(transition_min_length(v1, v2, law, limits), floors[0])
        l3 = max(transition_min_length(v3, v2, law, limits), floors[1])
        return l1, l3

    def need(v2):
        l1, l3 = side_lengths(v2)
        return l1 + l3

    if not need(lo) <= L_total:
        raise InfeasibleJunctionError(
            f"span of {L_total:.6f} mm cannot host feeds {v1:.3f}/{v3:.3f}"
        )
    v_h = _largest_fitting(need, L_total, lo, v_ceiling)
    if v_h <= 0.0:
        raise InfeasibleJunctionError("no feasible top feed in range")
    l1, l3 = side_lengths(v_h)
    l2 = L_total - (l1 + l3)
    if l2 <= _LEN_TOL:
        l1 += l2  # a residue this small is rounding, not a steady phase
        l2 = 0.0
    return v_h, (l1, l2, l3)


def _min_ceiling(s, v, a, b):
    """Smallest scan ceiling over arc positions [a, b], ends interpolated.

    s holds the arc positions of the scan samples and v their feeds, both
    as lists of floats.
    """
    if b < a:
        a, b = b, a
    best = min(_interp(a, s, v), _interp(b, s, v))
    lo, hi = bisect_left(s, a), bisect_right(s, b)
    if hi > lo:
        best = min(best, min(v[lo:hi]))
    return best


def _interp(x, s, v):
    """np.interp(x, s, v) on lists of floats, with its arithmetic: the end
    feed outside [s[0], s[-1]], a sample's own feed on it, else the line
    through the two samples around x."""
    j = bisect_right(s, x) - 1
    if j < 0:
        return v[0]
    if j >= len(s) - 1:
        return v[-1]
    if s[j] == x:
        return v[j]
    slope = (v[j + 1] - v[j]) / (s[j + 1] - s[j])
    return slope * (x - s[j]) + v[j]


def _anchor_junctions(curve, u, pos, start, keep):
    """Parameters of the kept junctions, each one that moved converted once.

    Junctions are converted in order and clamped between the previous
    kept junction and the next unmoved one, so no block ends before it
    starts.
    """
    out = [u[j] for j in keep]
    upper = [len(keep) - 1] * len(keep)
    for m in range(len(keep) - 2, 0, -1):
        j = keep[m]
        upper[m] = m if pos[j] == start[j] else upper[m + 1]
    table = curve._arc_table
    for m in range(1, len(keep) - 1):
        j, k = keep[m], keep[upper[m]]
        if j != k:
            out[m] = min(max(table.param(pos[j]), out[m - 1]), u[k])
    return out


class _Passes:
    """The two passes over one chain of junctions: v holds the feed at
    every junction, L the length of every block between two of them, pos
    the arc position of every junction and start its position at the
    scan; floors are the scan-time lengths, below which no side of a span
    shrinks.
    """

    def __init__(self, curve, blocks, scatter, limits, law):
        n = len(scatter)
        self.u = [b.u_s for b in blocks] + [blocks[-1].u_e]
        at = curve._arc_table.positions(np.concatenate([scatter.u, self.u]))
        self.start = at[n:].tolist()
        self.pos = self.start[:]
        self.scan_pos, self.scan_feed = at[:n], scatter.v
        self.v = [b.v_s for b in blocks] + [blocks[-1].v_e]
        self.L = [b.L for b in blocks]
        self.floors = self.L[:]
        self.limits = limits
        self.law = law

    def kind(self, i):
        if 0 <= i < len(self.L):
            return classify_kind(self.v[i], self.v[i + 1], self.limits.v_max)
        return None

    @cached_property
    def _scan_lists(self):
        """scan_pos and scan_feed as lists for _min_ceiling, built at the
        first ceiling read: a plan of a few blocks may read none."""
        return self.scan_pos.tolist(), self.scan_feed.tolist()

    def ceiling(self, a, b):
        return _min_ceiling(*self._scan_lists, a, b)

    def lower(self, j, v):
        """Lower the feed at junction j to v; a higher v leaves it."""
        if v < self.v[j]:
            self.v[j] = v

    def place(self, i, j):
        """Re-place the junctions between blocks i..j-1 from their lengths,
        each at its scan position while nothing before it moved and
        clamped to the fixed far end, so no zero-length block runs back."""
        pos, start, L = self.pos, self.start, self.L
        for k in range(i, j - 1):
            moved = pos[k] != start[k] or L[k] != self.floors[k]
            pos[k + 1] = min(pos[k] + L[k] if moved else start[k + 1], pos[j])

    def set_lengths(self, i, lengths):
        self.L[i : i + len(lengths)] = lengths
        self.place(i, i + len(lengths))

    def run(self, d):
        """Settle the blocks whose feed rises in pass direction d: d = 1
        fits each rise to its start feed, d = -1 each fall to its end feed
        and each peak to both outer feeds."""
        v, L, law, lim = self.v, self.L, self.law, self.limits
        rise, fall = (BlockKind.ACCEL, BlockKind.DECEL)[::d]
        for i in range(len(L))[::d]:
            if self.kind(i) is not rise:
                continue
            near, far = (i, i + 1)[::d]
            nxt = self.kind(i + d)
            if nxt is BlockKind.CONSTANT and self.kind(i + 2 * d) is fall:
                self.span(min(i, i + 2 * d), rising=d > 0)
            elif nxt is BlockKind.CONSTANT:
                self.extend(i, i + d)
            elif nxt is fall:
                # a peak's far side is no higher than one rise over both
                # blocks reaches; the backward pass then settles the peak
                reach = transition_max_feed(v[near], L[i] + L[i + d], law, lim)
                self.lower(far + d, reach)
                if d < 0:
                    self.peak(i - 1)
            else:
                self.lower(far, transition_max_feed(v[near], L[i], law, lim))

    def extend(self, t, c):
        """Grow transition t into the constant block c next to it."""
        v, L = self.v, self.L
        lo, hi = (t, c) if c > t else (t + 1, t)
        feed, L[t], L[c] = extend_into_constant(
            v[lo], v[hi], L[t], L[c], self.law, self.limits
        )
        if feed != v[hi]:
            # the consumed constant block drops to the feed reached
            v[c] = v[c + 1] = feed
        self.place(min(t, c), min(t, c) + 2)

    def span(self, i, rising):
        """Settle the rise-steady-fall run at blocks i, i+1, i+2."""
        v, L, pos = self.v, self.L, self.pos
        v1, v3 = v[i], v[i + 3]
        ceiling = min(self.limits.v_max, v[i + 1], self.ceiling(pos[i + 1], pos[i + 2]))
        if ceiling < max(v1, v3):
            self.lower(i + 1, ceiling)
            self.lower(i + 2, ceiling)
            return
        try:
            v2, lengths = adjust_with_constant(
                v1, v3, L[i] + L[i + 1] + L[i + 2], ceiling, self.law,
                self.limits, floors=(self.floors[i], self.floors[i + 2]),
            )
        except InfeasibleJunctionError:
            # not even flat: the side with the lower outer feed cannot
            # fit, and takes the constant block in the pass that settles
            # it; the pass then caps the next block as usual
            if not rising:
                self.extend(i + 2, i + 1)
            elif v1 < v3:
                self.extend(i, i + 1)
            return
        self.lower(i + 1, v2)
        self.lower(i + 2, v2)
        self.set_lengths(i, lengths)

    def peak(self, i):
        """Settle the peak of rise i and fall i+1 as the tallest peak over
        both that the scan ceiling holds on the arc changing hands."""
        v, (L1, L2) = self.v, self.L[i : i + 2]
        old, base = self.pos[i + 1], self.pos[i]
        top, x = adjust_peak_junction(
            v[i], v[i + 1], v[i + 2], L1, L2, self.law, self.limits,
            lambda x: math.inf if x == L1 else self.ceiling(old, base + x),
        )
        l1, l3 = (L1, L2) if x == L1 else (x, L1 + L2 - x)
        # a rounding residue is no transition: that side goes flat
        if l3 <= _LEN_TOL:
            l1, l3, top = L1 + L2, 0.0, v[i + 2]
        elif l1 <= _LEN_TOL:
            l1, l3, top = 0.0, L1 + L2, v[i]
        self.lower(i + 1, top)
        self.set_lengths(i, (l1, l3))

    def plan(self, curve):
        """The blocks of the settled chain. A block the passes shrank to
        zero length goes; its run of such blocks keeps one junction, the
        run's last if that one did not move, else its first."""
        v, L, pos, start = self.v, self.L, self.pos, self.start
        keep, body = [0], []
        for i, length in enumerate(L):
            if length > 0.0:
                keep.append(i + 1)
                body.append(i)
            elif keep[-1] > 0 and pos[i + 1] == start[i + 1]:
                keep[-1] = i + 1
        u = _anchor_junctions(curve, self.u, pos, start, keep)
        return [
            Block(u[m], u[m + 1], v[a], v[b], L[i])
            for m, (i, a, b) in enumerate(zip(body, keep, keep[1:]))
        ]


def schedule(
    curve: ParametricCurve,
    blocks: list[Block],
    scatter: FeedrateScatter,
    limits: Limits,
    law: Law | None = None,
) -> list[Block]:
    """Settle all junction feeds in one forward and one backward pass,
    then build the blocks.

    Adjacent input blocks must share their junction feed. The passes move
    junctions in arc length only; each junction that moved gets its curve
    parameter once at the end, and no returned block has zero length.
    Breakpoint feeds only decrease, so the result stays below the
    chord-error ceiling everywhere the scan sampled. Every block's true
    peaks, by law.peaks, are checked against the limits at the end. The
    law defaults to the shaped law at limits.shape_s.
    """
    if law is None:
        law = sigmoid_law(limits.shape_s)
    if not blocks:
        return []
    for a, b in zip(blocks, blocks[1:]):
        if a.v_e != b.v_s:
            raise OptimizerError("adjacent blocks must share their junction feed")
    passes = _Passes(curve, blocks, scatter, limits, law)
    passes.run(1)
    passes.run(-1)
    plan = passes.plan(curve)
    slack = 1.0 + _PEAK_SLACK
    for b in plan:
        a_pk, j_pk = law.peaks(b.v_s, b.v_e, b.L)
        if a_pk > limits.a_max * slack or j_pk > limits.j_max * slack:
            raise ScheduleConsistencyError(
                f"block at u=[{b.u_s:.6f},{b.u_e:.6f}] violates limits"
            )
    return plan
