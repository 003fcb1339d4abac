"""Chord-error-limited feed rate scanning along a parametric path.

Walks the curve in controller-period steps: each sample's feed ceiling is
the largest feed whose one-period step, predicted to second order and
settled onto its chord, keeps the chord deviation within the programmed
tolerance, and the next sample is that step's landing. The result is a
scatter of per-parameter feed ceilings used by the downstream scheduler.

The walk runs in windows of up to _WINDOW_SAMPLES samples (_walk). A
window predicts its samples from the closed-form ceiling (_predict),
certifies all their ceilings at once in masked probe rounds on arrays
(_ceilings, one taylor_step call per round), each search opened at its
predicted feed beside the scalar search's descent from v_max, and
corrects the chain of samples by the forward recurrence of its
bidiagonal Jacobian until each sample's certified landing is the next
sample (_window). Where a root is in doubt, or the chain carries small
changes of its landings into large ones, the samples take the scalar
search itself, opened at v_max, so that the walk follows the one it
replaced. A window ends early at a link that does not settle, and the
next starts from that sample's exact landing. _chord_deviations is the
chord measure of both the probes and the replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    ParametricCurve,
    SingularCurveError,
    _curvature_radii,
    _params_at,
    _speed_and_cross,
    evaluate,
    jet,
    jets,
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
# fraction of the unsafe feed wide: 2^-24 of the 5 % bracket the former
# rescale from v_max left at least, the narrowest bracket the former
# bisection ever certified.
_BRACKET_REL_WIDTH = 0.05 * 2.0**-24
# A search reopened around a nearby root whose safe end no longer fits
# closes in on the root to this width instead, as close as the rounding
# of the deviation allows, so that its feed follows the root.
_FINE_REL_WIDTH = 2e-11
# A secant step in a bracket at most this wide (in log feed) is probed as
# a pair, a quarter of the stopping width either side of it.
_PAIR_SPAN = 1e-3
# A landing is settled once its chord matches the advance within this
# fraction, after at most _SETTLE_STEPS Newton corrections.
_LANDING_MATCH = 1e-4
_SETTLE_STEPS = 3
# The walk certifies up to _WINDOW_SAMPLES samples at once, until each
# landing matches the next sample within _LINK_MATCH of its step; a
# window whose links still miss after _WINDOW_ROUNDS rounds ends early.
_WINDOW_SAMPLES = 512
_WINDOW_ROUNDS = 8
_LINK_MATCH = 1e-10
# Where the closed-form prediction misses a ceiling by more than a factor
# e^_PREDICT_TRUST, the window gives the samples up to it the scalar
# search (_odd); a ceiling that search found stays its own while its
# sample moves less than _SCALAR_MOVE of its step.
_PREDICT_TRUST = 0.1
_SCALAR_MOVE = 1e-6
_FALLBACK_SAMPLES = 33
_MAX_SCAN_POINTS = 5_000_000
# A dip only gets midpoint probes when a neighbour sits at least this
# far above it; flatter wells are already sampled finely enough.
_WELL_REL_DEPTH = 0.01
# The prediction solves its closed-form chain until every chord matches
# within _PREDICT_MATCH of itself, in at most _PREDICT_STEPS Newton steps,
# probing the steps capped at v_max once they match within _CAPPED_MATCH;
# the chords' final rates of change with their midpoints are central
# differences over _SLOPE_STEP of the step either way.
_PREDICT_MATCH = 1e-8
_CAPPED_MATCH = 1e-3
_PREDICT_STEPS = 12
_SLOPE_STEP = 1e-4
# Floor of the plan's closed-form step (mm), so that its count stays finite.
_TINY = np.finfo(float).tiny


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


def _norms(rows):
    """Euclidean length of each row, its squares summed in column order."""
    return np.sqrt((rows * rows).sum(axis=1))


def taylor_step(d1, d2, u, v, Ts: float):
    """Parameters reached after one period at feed v, second-order accurate.

    d1 and d2 are the curve's first two derivatives at u, one row per
    parameter; u and v are arrays or floats that broadcast with them, and
    lone derivatives with float u and v give a float. Clamps at the curve
    end. A step whose curvature correction overwhelms the first-order
    advance, which signals a feed far too large for the local geometry,
    comes back as u: a step that does not advance.
    """
    d1, d2, u, v = (np.asarray(a, dtype=float) for a in (d1, d2, u, v))
    if (v < 0.0).any():
        raise ChordScanError("feed must be non-negative")
    speed_sq = (d1 * d1).sum(axis=-1)
    advance = v * Ts
    with np.errstate(divide="ignore", invalid="ignore"):
        u_next = (
            u + advance / np.sqrt(speed_sq)
            - (d1 * d2).sum(axis=-1) / (2.0 * speed_sq * speed_sq) * advance * advance
        )
    still = ~(speed_sq > 0.0)
    if still.any():
        singular = still & (v > 0.0)
        if singular.any():
            bad = np.broadcast_to(u, singular.shape)[singular].flat[0]
            raise SingularCurveError(f"vanishing first derivative at u={bad}")
        u_next = np.where(still, u, u_next)
    return np.minimum(np.where(u_next < u, u, u_next), 1.0)[()]


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


def _chord_deviations(curve, u_a, u_b, p_a, p_b) -> np.ndarray:
    """Deviation (mm) of each chord p_a[i] p_b[i] from the curve on
    [u_a[i], u_b[i]], where p_a and p_b hold the curve points at the
    parameters u_a <= u_b.

    The circular-arc model with the osculating radius at the midpoint
    parameter: the radii at all nonzero chords' midpoints come from one
    jets pass and the sagitta is taken on arrays. Zero chords and straight
    spans report zero; a chord too long for the arc model is sampled
    directly, on its own.
    """
    chord = _norms(p_b - p_a)
    dev = np.zeros(chord.size)
    curved = np.flatnonzero(chord)
    if not curved.size:
        return dev
    if curved.size < chord.size:
        u_a, u_b, chord = u_a[curved], u_b[curved], chord[curved]
    rho = _curvature_radii(curve, 0.5 * (u_a + u_b))
    with np.errstate(invalid="ignore"):
        sag = rho - np.sqrt(rho * rho - 0.25 * chord * chord)
    flat = np.isinf(rho)
    dev[curved] = np.where(flat, 0.0, sag)
    for i in np.flatnonzero(~flat & ~(2.0 * rho > chord)).tolist():
        j = curved[i]
        dev[j] = _max_chord_deviation(
            curve, float(u_a[i]), float(u_b[i]), p_a[j].tolist(), p_b[j].tolist()
        )
    return dev


def _settle(curve, u, u_pred, target, p0):
    """Polish predicted landings until each chord matches its advance.

    The truncated prediction can land a few percent short of the chord
    the interpolator will actually traverse at this feed, which would
    certify an optimistically short step. Up to _SETTLE_STEPS Newton
    corrections close that gap, each one jets pass over the landings
    whose chord from the point p0 at u still misses its advance, target,
    by more than _LANDING_MATCH of it. A correction stays at least a
    quarter of the predicted step past u, and the curve end clamps it;
    a landing clamped there takes no further step. Returns the landings
    and their points and first derivatives, from first-order jets passes.
    """
    x = u_pred.copy()
    at_x = p, d1 = jets(curve, x, order=1)
    todo = np.arange(x.size)
    for steps in range(_SETTLE_STEPS):
        gap = target[todo] - _norms(p - p0[todo])
        speed = _norms(d1)
        more = (np.abs(gap) > _LANDING_MATCH * target[todo]) & (speed > 0.0)
        if steps:
            more &= x[todo] < 1.0
        todo = todo[more]
        if not todo.size:
            break
        floor = u[todo] + 0.25 * (u_pred[todo] - u[todo])
        x[todo] = np.minimum(np.maximum(x[todo] + gap[more] / speed[more], floor), 1.0)
        p, d1 = jets(curve, x[todo], order=1)
        at_x[0][todo], at_x[1][todo] = p, d1
    return x, at_x


def _probe(curve, u, v, at_u, Ts):
    """One-period chord deviation at feed v[i] from u[i], inf for a step
    that does not advance, with the landings and their points and first
    derivatives; at_u holds the jets at u."""
    p0, d1, d2 = at_u
    u_pred = taylor_step(d1, d2, u, v, Ts)
    go = u_pred > u
    if go.all():
        land, at_land = _settle(curve, u, u_pred, v * Ts, p0)
        return _chord_deviations(curve, u, land, p0, at_land[0]), land, at_land
    go = np.flatnonzero(go)
    dev = np.full(u.size, math.inf)
    land = u.copy()
    at_land = [a.copy() for a in at_u[:2]]
    if go.size:
        x, at_x = _settle(curve, u[go], u_pred[go], v[go] * Ts, p0[go])
        land[go] = x
        for out, a in zip(at_land, at_x):
            out[go] = a
        dev[go] = _chord_deviations(curve, u[go], x, p0[go], at_x[0])
    return dev, land, at_land


def _ceilings(curve, u, at_u, limits, first, second, slope):
    """Largest chord-safe feed at every parameter of u, searched together.

    at_u holds the jets at u. Each search keeps one bracket, the last
    safe and the last unsafe probe, each as x = log(feed), g =
    log(deviation / tolerance) and the feed; every round probes a few
    feeds per unfinished search, all in one _probe call. An unsafe probe
    whose landing the curve end clamped enters the bracket at the feed
    whose step just reaches the end, dist(C(u), C(1)) / Ts, since every
    feed past it measures the same chord; one whose step the curvature
    correction reversed at the feed where that begins. A search gives up
    after _MAX_FEED_ITERATIONS one-sided probes or at feed 0.

    A search with first[i] nan is the scalar search the walk replaced:
    it opens at v_max, which ends it if it fits, and each unsafe probe
    rescales the feed by sqrt(tolerance / deviation), at most
    _FEED_BACKOFF_CAP, until a probe fits (_descend). Any other search
    opens at first[i], at most v_max; until its bracket has both ends,
    each probe steps past the root that the deviation's power law
    predicts, g falling by its exponent times the step in x, by a
    hundredth of that step more plus half the stopping width times 8 to
    the number of one-sided probes so far; a deviation of 0 goes to
    v_max, an unusable step halves the feed, and below an unsafe end at
    such an edge the next probe goes just under it. The exponent is the
    one the last two probes show, else 2 (the sagitta of a chord) less
    the chord's relative rate of change with its midpoint, slope[i],
    times the step from u (a faster chord moves its own midpoint).

    Once both ends exist, an Illinois secant shrinks the bracket to
    _BRACKET_REL_WIDTH of its unsafe feed: g is close to linear in x.
    When the same end moves twice running, the other end's g halves; each
    step stays half the stopping width inside the bracket. An end with
    deviation 0 or inf has no logarithm, and a bracket that did not halve
    over three steps may sit on a kink of the deviation: both take a
    bisection step instead. Outside the scalar search, a secant step in a
    bracket at most _PAIR_SPAN wide is probed as a pair, a quarter of the
    stopping width either side of it, which closes the bracket when the
    secant was that close. A search whose safe end lands on the curve end
    is the walk's last, whose feed the curvature ceiling caps: it is done
    once it fits that.

    A search opened below v_max with no second[i] also runs the scalar
    search's descent beside it, and is done only once that descent has
    found its first safe probe (or would, as the deviation grows with the
    feed, at the safe end found beside it). Where the root found lies
    outside the descent's bracket, its first safe probe and the unsafe
    end before it, the scalar search would find another root: the search
    is in doubt.

    A finite second[i] reopens a bracket carried over from a nearby
    parameter, first[i] its safe end and second[i] its unsafe one, both
    probed in the first round, and keeps its safe end wherever it can:
    if both ends still hold, the search is done; if the unsafe end fits
    now, it is dropped and a feed 0.9 _BRACKET_REL_WIDTH above the safe
    end probed instead; if the safe end no longer fits, the search closes
    in on the nearby root to _FINE_REL_WIDTH, so that its feed moves no
    further than the root did. An unsafe end at the end's reach stays
    there without a probe, and one at the feed its search probes in the
    same round (v_max where v_max fitted before) takes that probe.

    Returns the safe feeds, the unsafe ends (inf where v_max fits), the
    landings of the safe feeds with their points and first derivatives,
    a mask of the searches that gave up, one of the unsafe ends at a feed
    where a step reverses or reaches the curve end, and one of the
    searches in doubt.
    """
    n = u.size
    dmax, v_max, Ts = limits.delta_max, limits.v_max, limits.Ts
    x_lo, g_lo, v_lo = np.full(n, -math.inf), np.full(n, -math.inf), np.zeros(n)
    x_hi, g_hi, v_hi = np.full(n, math.inf), np.full(n, math.inf), np.full(n, math.inf)
    moved = np.zeros(n, dtype=int)
    opens = np.zeros(n, dtype=int)
    widths = np.full((n, 3), math.inf)
    stop = np.full(n, _BRACKET_REL_WIDTH)
    land = u.copy()
    at_land = [a.copy() for a in at_u[:2]]
    feed, dev, lam = np.zeros(n), np.zeros(n), np.zeros(n)
    failed = np.zeros(n, dtype=bool)
    enough = np.full(n, math.inf)
    # the last two probes of each search, as log feed and g
    x_now, g_now, x_was, g_was = (np.full(n, math.nan) for _ in range(4))
    # unsafe ends at the feed where a step reverses or reaches the end
    edge = np.zeros(n, dtype=bool)
    # the feed whose step just reaches the curve end
    reach = _norms(jet(curve, 1.0)[0] - at_u[0]) / Ts
    # the scalar search's, opened at v_max
    exact = np.isnan(first)
    # the scalar search's descent beside a search opened at a feed below
    # v_max: its next feed (nan once over), its probes, its first safe
    # feed (0 until then) and its last unsafe end
    fall = np.full(n, math.nan)
    falls = np.zeros(n, dtype=int)
    s_v, h_v = np.zeros(n), np.full(n, math.inf)
    doubt = np.zeros(n, dtype=bool)

    def unsafe_end(i, f, d, landing):
        # where an unsafe probe enters the bracket, and whether that is an
        # edge: the reach after a landing on the curve end, or the feed
        # where a step the curvature correction reversed begins to
        # reverse, 2 |C'|^3 / (Ts C'.C'')
        ended = (landing == 1.0) & (reach[i] < f)
        f_hi = np.where(ended, reach[i], f)
        turned = np.isinf(d) & (landing == u[i])
        if turned.any():
            d1, d2 = at_u[1][i], at_u[2][i]
            with np.errstate(divide="ignore", invalid="ignore"):
                turn = 2.0 * _norms(d1) ** 3 / (Ts * (d1 * d2).sum(axis=1))
            turned &= (turn > 0.0) & (turn < f)
            f_hi = np.where(turned, turn, f_hi)
        return f_hi, ended | turned

    def record(i, f, d, landing, at_landing):
        # a probe inside the bracket becomes its safe or its unsafe end;
        # when the same end moves twice running, the other end's g halves
        feed[i], dev[i], lam[i] = f, d, landing
        with np.errstate(divide="ignore"):
            g = np.log(d / dmax)
        x_was[i], g_was[i] = x_now[i], g_now[i]
        x_now[i], g_now[i] = np.log(f), g
        f_hi, at_edge = unsafe_end(i, f, d, landing)
        safe = d <= dmax
        a, b = safe & (f > v_lo[i]), ~safe & (f_hi < v_hi[i])
        s, t = i[a], i[b]
        edge[t] = at_edge[b]
        g_hi[s[moved[s] < 0]] *= 0.5
        moved[s] = np.where(v_lo[s] > 0.0, -1, 0)
        x_lo[s], v_lo[s], g_lo[s], land[s] = np.log(f[a]), f[a], g[a], landing[a]
        at_land[0][s], at_land[1][s] = at_landing[0][a], at_landing[1][a]
        last = s[landing[a] == 1.0]
        if last.size:
            enough[last] = _curvature_feeds(at_u[1][last], at_u[2][last], limits)
        g_lo[t[moved[t] > 0]] *= 0.5
        moved[t] = 1
        x_hi[t], v_hi[t], g_hi[t] = np.log(f_hi[b]), f_hi[b], g[b]

    live = np.arange(n)
    f = np.where(exact, v_max, np.minimum(first, v_max))
    fall[~exact & np.isnan(second) & (f < v_max)] = v_max
    second = np.minimum(second, v_max)
    # a carried-over unsafe end at the reach stays there
    with np.errstate(invalid="ignore"):
        ends = np.abs(second / reach - 1.0) <= 2.0 * _BRACKET_REL_WIDTH
    x_hi[ends], v_hi[ends], edge[ends] = np.log(reach[ends]), reach[ends], True
    second = np.where(ends, math.nan, second)
    pair = np.flatnonzero(np.isfinite(second))
    searching, upper = live, second[pair]
    raised = np.zeros(n, dtype=bool)
    while True:
        falling = live[np.isfinite(fall[live])]
        # a pair's upper feed that its own search probes in this round (a
        # carried-over unsafe end at v_max, say) is probed once, for both
        slot = np.searchsorted(searching, pair)
        once = upper != f[slot]
        rows = np.concatenate([searching, pair[once], falling])
        f = np.concatenate([f, upper[once], fall[falling]])
        d, landing, at_landing = _probe(curve, u[rows], f, [a[rows] for a in at_u], Ts)
        k = searching.size
        j = k + int(once.sum())
        slot[once] = np.arange(k, j)
        d_pair, l_pair, at_pair = d[slot], landing[slot], [a[slot] for a in at_landing]
        record(searching, f[:k], d[:k], landing[:k], [a[:k] for a in at_landing])
        if raised is not None:
            # a carried-over bracket keeps its safe end where it can
            kept = d[:k][pair] <= dmax
            held = kept & (d_pair > dmax)
            raised[pair[kept & ~held]] = True
            stop[pair[~kept]] = _FINE_REL_WIDTH
            pair, upper = pair[held], upper[held]
            d_pair, l_pair, at_pair = d_pair[held], l_pair[held], [a[held] for a in at_pair]
        if pair.size:
            record(pair, upper, d_pair, l_pair, at_pair)
        if falling.size:
            f, d, landing = f[j:], d[j:], landing[j:]
            safe = d <= dmax
            s_v[falling[safe]], fall[falling[safe]] = f[safe], math.nan
            t, f, d, landing = falling[~safe], f[~safe], d[~safe], landing[~safe]
            h_v[t], at_edge = unsafe_end(t, f, d, landing)
            nxt = _descend(f, d, landing, h_v[t], at_edge, reach[t], dmax)
            falls[t] += 1
            over = (falls[t] >= _MAX_FEED_ITERATIONS) | ~(nxt > 0.0)
            doubt[t[over]] = True
            fall[t] = np.where(over, math.nan, nxt)
        # a descent whose next feed falls to the safe end found beside it,
        # and whose last unsafe end lies above that, would fit there as the
        # deviation grows with the feed: it ends without a bracket
        fall[(fall <= v_lo) & (h_v >= v_lo)] = math.nan

        lo, hi = v_lo[live], v_hi[live]
        bracket = (lo > 0.0) & np.isfinite(hi)
        with np.errstate(invalid="ignore"):
            narrow = hi - lo <= stop[live] * hi
        found = (lo >= v_max) | (bracket & narrow) | (lo >= enough[live])
        done = found & np.isnan(fall[live])
        pair = upper = live[:0]
        i = live[bracket & ~found]
        if i.size:
            pair, upper = _illinois(i, x_lo, g_lo, x_hi, g_hi, widths, stop, feed, edge, exact)
        i = live[~bracket & ~found]
        if i.size:
            down = i[exact[i]]
            feed[down] = _descend(feed[down], dev[down], lam[down], v_hi[down], edge[down], reach[down], dmax)
            i = i[~exact[i]]
            up = v_lo[i] > 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                power = 2.0 - slope[i] * (lam[i] - u[i])
                power = np.where(power > 0.5, power, 2.0)
                # the exponent the last two probes show, where they are
                # far enough apart for their rounding not to matter
                span = x_now[i] - x_was[i]
                seen = (g_now[i] - g_was[i]) / span
                power = np.where(np.isfinite(seen) & (seen > 0.5) & (np.abs(span) > 1e-6), seen, power)
                model = np.log(dmax / dev[i]) / power
            jump = 1.01 * np.abs(model) + 0.5 * stop[i] * 8.0 ** opens[i]
            nxt = feed[i] * np.exp(np.where(up, jump, -jump))
            nxt[dev[i] == 0.0] = v_max
            nxt[np.isinf(dev[i])] = 0.5 * feed[i][np.isinf(dev[i])]
            below = ~up & edge[i]
            nxt[below] = v_hi[i[below]] * (1.0 - 0.5 * stop[i[below]])
            if raised is not None:
                nxt = np.where(raised[i], v_lo[i] * (1.0 + 0.9 * _BRACKET_REL_WIDTH), nxt)
            feed[i] = np.minimum(nxt, v_max)
            i = np.concatenate([down, i])
            opens[i] += 1
            failed[i[(opens[i] >= _MAX_FEED_ITERATIONS) | ~(feed[i] > 0.0)]] = True
        raised = None
        searching = live[~found]
        live = live[~done]
        live = live[~failed[live]]
        if not live.size:
            # a root outside the descent's bracket is not the one the
            # scalar search finds
            doubt |= (s_v > v_lo) | (v_lo > h_v)
            return v_lo, v_hi, land, at_land, failed, edge, doubt
        searching = searching[~failed[searching]]
        f = feed[searching]


def _descend(f, d, landing, f_hi, at_edge, reach, dmax):
    """The scalar search's next feeds after unsafe probes at feeds f,
    with deviations d and landings landing, which entered the bracket at
    f_hi (at_edge where a step reverses or reaches the curve end there):
    each feed rescaled by sqrt(tolerance / deviation), at most
    _FEED_BACKOFF_CAP, or halved after an unusable step (all the halvings
    that would still reverse the step at once), and kept below that cap
    of the end's reach after a landing on the end."""
    with np.errstate(divide="ignore"):
        nxt = f * np.where(np.isinf(d), 0.5, np.minimum(_FEED_BACKOFF_CAP, np.sqrt(dmax / d)))
    ended = landing == 1.0
    turned = at_edge & ~ended
    if turned.any():
        top, turn = f[turned], f_hi[turned]
        halves = np.floor(np.log2(top / turn)) + 1.0
        halves += top * 0.5**halves >= turn
        nxt[turned] = top * 0.5**halves
    nxt[ended] = np.minimum(nxt[ended], _FEED_BACKOFF_CAP * reach[ended])
    return nxt


def _illinois(i, x_lo, g_lo, x_hi, g_hi, widths, stop, feed, edge, exact):
    """Set in feed the next feeds of the bracketed searches i: an Illinois
    secant step in log feed, or a bisection step where an end's g is not
    finite or the bracket did not halve over three steps, kept half the
    stopping width inside the bracket; an unsafe end at the feed where a
    step reverses (edge) is probed just below instead. A secant step in a
    bracket at most _PAIR_SPAN wide becomes a pair, a quarter of the
    stopping width either side of it: returns those searches and their
    upper feeds."""
    width = x_hi[i] - x_lo[i]
    secant = np.isfinite(g_lo[i]) & np.isfinite(g_hi[i]) & (width <= 0.5 * widths[i, 0])
    secant &= ~edge[i]
    with np.errstate(invalid="ignore"):
        x = np.where(
            secant,
            x_hi[i] - g_hi[i] * width / (g_hi[i] - g_lo[i]),
            np.where(edge[i], x_hi[i], 0.5 * (x_lo[i] + x_hi[i])),
        )
    widths[i] = np.column_stack([widths[i, 1:], width])
    margin = 0.5 * stop[i]
    both = secant & (width <= _PAIR_SPAN) & ~exact[i]
    x = x - np.where(both, 0.5 * margin, 0.0)
    feed[i] = np.exp(np.minimum(np.maximum(x, x_lo[i] + margin), x_hi[i] - margin))
    pair = i[both]
    return pair, np.exp(np.minimum(x[both] + margin[both], x_hi[pair] - margin[both]))


def _feed_plan(curve: ParametricCurve, limits: Limits):
    """The closed-form steps along the curve's arc grid and their running
    count: at each node the chord of _closed_form_chords, and the count
    integrates one over that chord along the arc. Returns the grid and
    the counts at its nodes."""
    grid = curve._arc_grid
    _, at, _, excess = grid
    chord, _ = _closed_form_chords(np.sqrt(24.0 * excess), limits)
    with np.errstate(divide="ignore", over="ignore"):
        rate = 1.0 / np.maximum(chord, _TINY)
        count = np.append(0.0, np.cumsum(np.diff(at) * 0.5 * (rate[:-1] + rate[1:])))
    return grid, np.minimum(count, np.finfo(float).max)


def _closed_form_chords(kappa, limits):
    """The chord whose sagitta on the osculating circle of curvature kappa
    is the tolerance, 2 sqrt(2 rho delta - delta^2) with rho = 1 / kappa
    (the diameter on a circle too tight for one), capped at v_max Ts, and
    its derivative in kappa (0 where capped)."""
    d = limits.delta_max
    cap = limits.v_max * limits.Ts
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        wide = kappa * d < 2.0
        chord = np.where(wide, 2.0 * np.sqrt(d * (2.0 / kappa - d)), 2.0 / kappa)
        slope = np.where(wide, -4.0 * d / (kappa * kappa * chord), -2.0 / (kappa * kappa))
    capped = ~(chord < cap)
    return np.where(capped, cap, chord), np.where(capped, 0.0, slope)


def _curvatures(d1, d2):
    """|C' x C''| / |C'|^3 from rows of first and second derivatives; 0
    where it is not finite."""
    speed, cross = _speed_and_cross(d1.T, d2.T, np.sqrt)
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = cross / (speed * speed * speed)
    return np.where(np.isfinite(kappa), kappa, 0.0)


def _chord_slopes(curve, mid, step, chord, dchord):
    """The relative rate of change of closed-form chords with their
    midpoint parameters mid, of steps step long (in u): dchord, their
    derivative in the curvature, times a central difference of the
    curvature over _SLOPE_STEP of the step either way, over chord; one
    jets pass over the chords that are not capped (dchord != 0)."""
    slope = np.zeros(mid.size)
    i = np.flatnonzero(dchord)
    if i.size:
        h = _SLOPE_STEP * step[i]
        lo, hi = np.fmax(mid[i] - h, 0.0), np.fmin(mid[i] + h, 1.0)
        _, d1, d2 = jets(curve, np.concatenate([lo, hi]))
        kappa = _curvatures(d1, d2)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope[i] = dchord[i] * (kappa[i.size :] - kappa[: i.size]) / ((hi - lo) * chord[i])
    return np.where(np.isfinite(slope), slope, 0.0)


def _predict(curve, plan, limits, u0):
    """A window's predicted samples from u0: the chain whose every chord
    is the closed-form chord at its midpoint parameter, capped at v_max
    Ts, with the feeds and slopes the window's searches start from.

    The chain starts one closed-form step apart by the plan's running
    count, up to _WINDOW_SAMPLES samples and the last one's landing, and
    is then solved by Newton's method: each step is one jets pass at the
    samples, the midpoints and the midpoints moved by _SLOPE_STEP of their
    step either way (for each chord's rate of change with its midpoint, a
    central difference of the curvature, 0 for a capped chord: those
    points only for the chords the step before left uncapped and their
    neighbours, all on the first step, and one more pass for a chord
    uncapped outside them), and the forward recurrence of
    the chain's bidiagonal Jacobian, with each link's change kept within
    half its length; up to _PREDICT_STEPS steps, until every chord
    matches within _PREDICT_MATCH. Once the chords match within _CAPPED_MATCH,
    the steps capped at v_max are probed there (Taylor step and settle),
    and their chords become the probes': a probe's landing misses the
    chord v_max Ts by the settle's residual.

    Returns the samples, each step's feed (chord / Ts), the relative rate
    of change of its chord with its midpoint, and the jets at the samples
    (None when the chain did not settle).
    """
    grid, count = plan
    at = grid[1]
    s0 = float(curve._arc_table.positions(u0))
    c0 = np.interp(s0, at, count)
    n = int(np.clip(np.ceil(count[-1] - c0) + 1.0, 1.0, _WINDOW_SAMPLES))
    s = np.interp(c0 + np.arange(1, n + 1), count, at)
    x = np.fmin(np.fmax.accumulate(np.fmax(np.append(u0, _params_at(grid, s)), u0)), 1.0)
    probed = None
    at_x = None
    # the chords whose central-difference points the next pass takes
    taken = np.ones(n, dtype=bool)
    for _ in range(_PREDICT_STEPS):
        mid = 0.5 * (x[:-1] + x[1:])
        h = _SLOPE_STEP * np.diff(x)
        lo, hi = np.fmax(mid - h, 0.0), np.fmin(mid + h, 1.0)
        points, d1, d2 = jets(curve, np.concatenate([x, mid, lo[taken], hi[taken]]))
        kappa = _curvatures(d1[n + 1 :], d2[n + 1 :])
        chord, dchord = _closed_form_chords(kappa[:n], limits)
        # a capped chord (dchord 0) changes at rate 0 whatever its
        # curvature; an uncapped one the pass did not take takes its own
        ends = np.zeros((2, n))
        ends[:, taken] = kappa[n:].reshape(2, -1)
        uncapped = dchord != 0.0
        late = uncapped & ~taken
        if late.any():
            _, e1, e2 = jets(curve, np.concatenate([lo[late], hi[late]]))
            ends[:, late] = _curvatures(e1, e2).reshape(2, -1)
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = np.where(uncapped, dchord * (ends[1] - ends[0]) / (hi - lo), 0.0)
        rate = np.where(np.isfinite(rate), rate, 0.0)
        # the next pass takes the uncapped chords and their neighbours, the
        # capped chords a step of the chain may uncap
        taken = uncapped.copy()
        taken[1:] |= uncapped[:-1]
        taken[:-1] |= uncapped[1:]
        link = points[1 : n + 1] - points[:n]
        length = _norms(link)
        live = x[1:] < 1.0
        if probed is not None:
            chord = np.where(np.isnan(probed), chord, probed)
        with np.errstate(divide="ignore", invalid="ignore"):
            miss = np.abs(length - chord)[live] / chord[live]
        if probed is None and not (miss > _CAPPED_MATCH).any():
            # a step at v_max lands where the settle puts it, off the
            # closed-form chord by the settle's residual
            probed = np.full(n, math.nan)
            i = np.flatnonzero((dchord == 0.0) & live & (chord > 0.0))
            if i.size:
                v = np.full(i.size, limits.v_max)
                ahead = taylor_step(d1[i], d2[i], x[i], v, limits.Ts)
                go = ahead > x[i]
                _, (p, _) = _settle(
                    curve, x[i[go]], ahead[go], v[go] * limits.Ts, points[i[go]]
                )
                probed[i[go]] = _norms(p - points[i[go]])
                chord = np.where(np.isnan(probed), chord, probed)
                with np.errstate(divide="ignore", invalid="ignore"):
                    miss = np.abs(length - chord)[live] / chord[live]
        if not (miss > _PREDICT_MATCH).any():
            at_x = points[:n], d1[:n], d2[:n]
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # a zero chord takes the tangent for its direction
            unit = np.where(length[:, None] > 0.0, link, d1[:n]) / np.where(
                length > 0.0, length, _norms(d1[:n])
            )[:, None]
            ahead = (unit * d1[1 : n + 1]).sum(axis=1)
            fwd = np.fmax(ahead - 0.5 * rate, 0.25 * ahead)
            back = (unit * d1[:n]).sum(axis=1) + 0.5 * rate
            run = np.cumprod(back / fwd)
            step = run * np.cumsum(-(length - chord) / (fwd * run))
        # no link shrinks by more than half its length, or grows by more
        # than half its length or half the mean, in one step
        span = np.diff(x)
        grow = np.diff(np.where(np.isfinite(step), step, 0.0), prepend=0.0)
        grow = np.clip(grow, -0.5 * span, 0.5 * np.fmax(span, span.mean()))
        x[1:] = np.fmin(x[0] + np.cumsum(span + grow), 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(chord > 0.0, rate / chord, 0.0)
    return x, np.where(dchord == 0.0, limits.v_max, chord / limits.Ts), slope, at_x


def _window(curve, x, first, slope, at_x, limits):
    """Certify a window of the walk: samples x[0] (exact), x[1], ...,
    x[n - 1] and the last one's landing x[n], each sample's landing at
    its ceiling the next sample.

    Each round searches the ceilings of some samples in one _ceilings
    call and checks each link: the landing lam[k] of sample k matches
    x[k + 1] within _LINK_MATCH of its step. Past the first link m that
    misses, the chain is corrected by the forward recurrence of its
    bidiagonal Jacobian, step[k + 1] = L'[k] step[k] - (x[k + 1] - lam[k])
    with step[m] = 0, so x[m + 1] becomes lam[m] exactly and the links
    before it keep their samples and ceilings, and the next round
    searches the samples past m. L'[k] is the landing's rate of change
    with its start when the chord follows its closed-form value: along
    the chord, (fwd - q) dlam = (back + q) du, with q half the chord's
    rate of change with its midpoint, slope[k] times the chord. A moved
    sample's search reopens at its bracket from the round before, both
    ends scaled by the feed's change that rate predicts; the first round
    opens each search at its predicted feed, first.

    The window ends early, at the first link that still misses (the
    samples past it are dropped, and that sample's landing starts the
    next window), when that link misses by more than its step, when it
    is the link right after the last correction (which did not settle
    it), or after _WINDOW_ROUNDS rounds (twice that once it has ended
    early); or before the first link a correction grows or shrinks by
    more than half. It also ends at the first landing on the curve end.

    Once every link holds, some samples take the scalar search, opened
    at v_max, in one round: every sample of a window that ended early
    (its chain is the kind whose landings carry a change into the samples
    after them many times over), the samples up to the last one whose
    ceiling misses its prediction by more than a factor e^_PREDICT_TRUST
    (_odd), and any whose search was in doubt or gave up; unless their
    ceiling already is that search's, found by it at a sample that has
    since moved less than _SCALAR_MOVE of its step. The chain is then
    checked and corrected again. A search whose predicted feed is v_max
    is that search from the first round.

    Returns how many samples the window keeps, whether the walk ends
    with the last of them, the last one's landing and the samples'
    ceilings. A kept sample whose scalar search gives up raises
    ScanConvergenceError.
    """
    n = x.size - 1
    v, top, lam = (np.full(n, math.nan) for _ in range(3))
    point, tangent, land_point, land_tangent = (
        np.zeros((n, curve.dimension)) for _ in range(4)
    )
    failed, exact, need, edge = (np.zeros(n, dtype=bool) for _ in range(4))
    predicted = first.copy()
    # a search whose predicted feed is v_max is the scalar search
    first = np.where(first < limits.v_max, first, math.nan)
    # where each sample was when the scalar search last found its ceiling
    at_scalar = np.full(n, math.nan)
    second = np.full(n, math.nan)
    search = np.arange(n)
    rounds = 0
    corrected = -2
    cap = n
    # whether the window has ended early, before the last sample's link
    free = False
    while True:
        rounds += 1
        i = search[x[search] < 1.0]
        if i.size:
            at = jets(curve, x[i]) if at_x is None else [a[i] for a in at_x]
            opened = first[i]
            v[i], top[i], lam[i], at_lam, failed[i], edge[i], doubt = _ceilings(
                curve, x[i], at, limits, opened, second[i], slope[i]
            )
            scalar = np.isnan(opened)
            at_scalar[i[scalar]] = x[i[scalar]]
            with np.errstate(invalid="ignore"):
                near = np.abs(x[i] - at_scalar[i]) <= _SCALAR_MOVE * (lam[i] - x[i])
            exact[i] = scalar | (exact[i] & near)
            need[i] |= doubt
            point[i], tangent[i] = at[:2]
            land_point[i], land_tangent[i] = at_lam[:2]
        at_x = None
        lam[(x[:n] >= 1.0) | failed] = math.nan
        step = lam - x[:n]
        # a landing that matches the curve end lands on it
        lam[1.0 - lam <= _LINK_MATCH * step] = 1.0
        ok = (np.abs(x[1:] - lam) <= _LINK_MATCH * step) & (
            (x[1:] < 1.0) | (lam == 1.0)
        )
        m = int(np.argmin(np.append(ok, False)))
        if m < n and failed[m] and exact[m]:
            raise ScanConvergenceError(f"feed adjustment did not converge at u={x[m]:.6f}")
        ends = np.flatnonzero(lam[: min(m, n - 1) + 1] == 1.0)
        cut = int(ends[0]) + 1 if ends.size else min(n, cap)
        # a link that misses by more than its step, or the one after a
        # correction, leaves the chain past it unsettled for rounds; so
        # does one still open after _WINDOW_ROUNDS rounds (twice that
        # once the window has ended early)
        if m < cut and (
            rounds >= _WINDOW_ROUNDS * (1 + free)
            or not free and (m == corrected + 1 or abs(x[m + 1] - lam[m]) > step[m])
        ):
            cut, free = m + 1, True
        if cut < n:
            n, free = cut, free or not ends.size
            x = x[: n + 1]
            v, top, lam, failed, exact, need, edge, predicted, second, first, slope, at_scalar = (
                a[:n] for a in (v, top, lam, failed, exact, need, edge, predicted, second, first, slope, at_scalar)
            )
            point, tangent, land_point, land_tangent = (
                a[:n] for a in (point, tangent, land_point, land_tangent)
            )
            ok = ok[:n]
        # the last sample's landing ends the walk, or in a window ended
        # early starts the next one
        ok[-1] |= free | (lam[-1] == 1.0)
        m = int(np.argmin(np.append(ok, False)))
        chord = land_point - point
        length = _norms(chord)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            unit = chord / length[:, None]
            q = 0.5 * slope * length
            rate = ((unit * tangent).sum(axis=1) + q) / ((unit * land_tangent).sum(axis=1) - q)
        rate = np.where(np.isfinite(rate), rate, 1.0)
        if m == n:
            # past a sample whose root is in doubt, the landings of the
            # samples before it (another search's ceiling may move each by
            # up to about a quarter of the stopping width of its step)
            # would carry into the walk that follows: they take the
            # scalar search too, as do all samples of a window ended early
            odd = np.flatnonzero(_odd(lam, v, predicted, edge))
            need[: odd[-1] + 1 if odd.size else 0] = True
            need |= free
            fresh = np.flatnonzero((need | failed) & ~exact & (x[:n] < 1.0))
            if fresh.size:
                # the scalar search at the samples the window keeps
                search = fresh
                first[fresh] = second[fresh] = math.nan
                continue
            return n, lam[-1] == 1.0, float(lam[-1]), v
        with np.errstate(invalid="ignore"):
            miss = x[m + 1 :] - lam[m:]
        miss = np.where(np.isfinite(miss), miss, 0.0)
        run = np.cumprod(rate[m:])
        moved = run * np.cumsum(-miss / run)
        before = x.copy()
        corrected = m
        x[m + 1 :] = np.fmin(np.fmax.accumulate(np.fmax(x[m + 1 :] + moved, x[m])), 1.0)
        # past a link the correction grows or shrinks by more than half,
        # the chain is not worth searching: the window ends before it
        span = np.diff(before[m:])
        with np.errstate(invalid="ignore"):
            torn = np.flatnonzero(np.abs(np.diff(x[m:]) - span) > 0.5 * span)
        if torn.size:
            cap = m + 1 + int(torn[0])
        search = j = np.arange(m + 1, min(n, cap))
        # the chord, and so the feed, follows its midpoint, which moves by
        # the mean of the sample's move and its landing's
        with np.errstate(invalid="ignore"):
            scale = 1.0 + slope[j] * 0.5 * (1.0 + rate[j]) * (x[j] - before[j])
        warm = (scale > 0.0) & np.isfinite(v[j])
        first[j[warm]] = v[j[warm]] * scale[warm]
        second[j] = np.where(warm, top[j] * scale, math.nan)


def _odd(lam, v, predicted, at_edge):
    """Where ceilings v miss their closed-form predictions by more than a
    factor e^_PREDICT_TRUST, short of the curve end (lam holds their
    landings) and of a feed where a step reverses or reaches the end
    (at_edge): there the deviation may have several roots below v_max,
    and a search opened at the prediction may have found another than
    the scalar search's."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.abs(np.log(v / predicted)) > _PREDICT_TRUST) & (lam < 1.0) & ~at_edge


def _walk(curve: ParametricCurve, limits: Limits):
    """The walk's samples from u = 0 and their ceilings, window by window,
    each window from the exact landing of the last sample kept before it,
    up to the sample whose landing is the curve end."""
    plan = _feed_plan(curve, limits)
    us: list[float] = []
    vs: list[float] = []
    u = 0.0
    while True:
        x, first, slope, at_x = _predict(curve, plan, limits, u)
        kept, end, u, v = _window(curve, x, first, slope, at_x, limits)
        us += x[:kept].tolist()
        vs += v[:kept].tolist()
        if len(us) > _MAX_SCAN_POINTS:
            raise ScanConvergenceError("scan produced too many points")
        if end:
            return us, vs


def _curvature_feeds(d1, d2, limits: Limits) -> np.ndarray:
    """Steady-state chord-safe feeds from the osculating radii, given rows
    of first and second derivatives: the chord whose sagitta is the
    tolerance (the diameter on a tighter circle) per period, capped at
    v_max."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = 1.0 / _curvatures(d1, d2)
        d = np.minimum(limits.delta_max, rho)
        v = (2.0 / limits.Ts) * np.sqrt(d * (2.0 * rho - d))
    return np.where(np.isinf(rho), limits.v_max, np.minimum(limits.v_max, v))


def _refine_wells(curve, us, vs, limits):
    """Extra ceiling probes beside dips the walk may have undersampled.

    The walk measures the ceiling only at the parameters its own steps
    land on, so a curvature well narrower than those steps can hide its
    true minimum between two samples; a replay tick entering at a less
    lucky phase then crosses the well faster than a fresh probe there
    would allow. The midpoints flanking each material dip are searched
    together, each from the closed-form ceiling half a step past it at
    the dip's feed, and any deeper readings are kept, which restores a
    floor worth pinning feeds to.
    """
    u, v = np.array(us), np.array(vs)
    low, high = np.minimum(v[:-2], v[2:]), np.maximum(v[:-2], v[2:])
    dip = (v[1:-1] <= low) & (high > v[1:-1] * (1.0 + _WELL_REL_DEPTH))
    i = np.flatnonzero(dip) + 1
    if not i.size:
        return us, vs
    m = np.column_stack([0.5 * (u[i - 1] + u[i]), 0.5 * (u[i] + u[i + 1])]).ravel()
    floor = np.repeat(v[i], 2)
    at = jets(curve, m)
    step = floor * limits.Ts / _norms(at[1])
    mid = np.fmin(m + 0.5 * step, 1.0)
    _, d1, d2 = jets(curve, mid)
    chord, dchord = _closed_form_chords(_curvatures(d1, d2), limits)
    slope = _chord_slopes(curve, mid, step, chord, dchord)
    predicted = chord / limits.Ts
    none = np.full(m.size, math.nan)
    found, _, land, _, failed, edge, doubt = _ceilings(
        curve, m, at, limits, predicted, none, slope
    )
    # the scalar search decides where the one opened at the prediction
    # may have found another root
    redo = np.flatnonzero(doubt | failed | _odd(land, found, predicted, edge))
    if redo.size:
        found[redo], _, _, _, failed[redo], _, _ = _ceilings(
            curve, m[redo], [a[redo] for a in at], limits, none[redo], none[redo], none[redo]
        )
    deeper = ~failed & (found < floor)
    if not deeper.any():
        return us, vs
    u = np.concatenate([u, m[deeper]])
    order = np.argsort(u, kind="stable")
    return u[order].tolist(), np.concatenate([v, found[deeper]])[order].tolist()


def scan_curve(curve: ParametricCurve, limits: Limits) -> FeedrateScatter:
    """Walk the whole curve and record the feed ceiling at every step.

    The walk runs in windows (_window) of predicted samples whose
    ceilings are searched together and whose chain of landings is then
    corrected until each sample is its predecessor's landing. The
    terminal step truncates at u = 1 before a full period elapses, so its
    probe would accept any feed; those samples fall back to the local
    curvature ceiling instead. A second pass re-probes the midpoints
    around every pronounced dip and keeps the deeper readings, since the
    walk's own landing phases can step over the bottom of a narrow well.
    """
    us, vs = _walk(curve, limits)
    _, d1, d2 = jets(curve, np.array([us[-1], 1.0]))
    last, end = _curvature_feeds(d1, d2, limits).tolist()
    vs[-1] = min(vs[-1], last)
    us.append(1.0)
    vs.append(min(vs[-1], end))
    us, vs = _refine_wells(curve, us, vs, limits)
    return FeedrateScatter(us, vs)
