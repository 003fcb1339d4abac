"""Brute-force reference computations shared by the test modules.

Everything here is written independently of the library's closed-form
solvers: peak accelerations and jerks come from the piecewise profile
coefficients evaluated directly with numpy, and the optimization
oracles search feasibility by bisection or dense grids using those
peaks as the ground truth. The arc-length reference integrates the
speed from the public ``derivatives`` by adaptive Gauss quadrature.
The scan's former scalar probe lives here, ``_probe_step``: a Taylor
step, the landing's Newton settle and the scalar chord measure
``_chord_deviation``. The feed-ceiling reference ``bisect_feedrate`` is
the scan's former bracket bisection around that probe. The geometry
reference is the former kernel: one Horner pass per homogeneous
coordinate, then the conversion to Cartesian, on span rows from the
former span-by-span table build (``scalar_spans``, the scalar basis
recurrences of ``_basis_derivatives``). The valley restore reference
``stack_missed_valleys`` is the former stack loop of
``find_breakpoints``, one span at a time. The scan reference is the
former walk (``scalar_walk``, and ``scalar_scan`` with its well probes),
whose ceiling search ``_scalar_feedrate`` rescales from v_max and closes
an Illinois bracket on one parameter, and which evaluates each point and
its derivatives separately for every probe and Newton iterate; the
window prediction's reference ``predict_every_point`` takes the central
differences of every chord, capped or not. ``min_ceiling_interp`` is the
scheduler's former ceiling lookup on np.interp. The replay reference
is the former tick loop, which evaluates points and derivatives
separately, finds each tick's block by bisection over the block starts
(``_Track``) and measures each tick's chord deviation as it goes; it
reads each block's commanded state from ``profile_state_reference``, the
velocity laws' former separate kinematics and displacement. The
classic scan is the scheduler's baseline: it takes the library's
``transition_max_feed`` as given and checks how the scheduler uses it.
``load_blocks`` reads a block table the CLI wrote back, so that a test
can replay a published schedule.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import partial
from pathlib import Path

import numpy as np

from feedsched import chordscan
from feedsched.baseline import SINE
from feedsched.chordscan import (
    _BRACKET_REL_WIDTH,
    _FEED_BACKOFF_CAP,
    _LANDING_MATCH,
    _MAX_FEED_ITERATIONS,
    _SETTLE_STEPS,
    _WELL_REL_DEPTH,
    ChordScanError,
    FeedrateScatter,
    ScanConvergenceError,
    StepDegeneracyError,
    _max_chord_deviation,
)
from feedsched.cli import _BLOCK_HEADER, CliError
from feedsched.geometry import (
    SingularCurveError,
    _params_at,
    curvature_radius,
    derivatives,
    evaluate,
    jet,
    jets,
)
from feedsched.optimizer import transition_max_feed
from feedsched.segmentation import (
    _FLANK_REL_SAG,
    _VALLEY_REL_DEPTH,
    Block,
    BlockKind,
)
from feedsched.simulator import (
    _CHORD_MATCH_TOL,
    _END_DRIFT_PER_TICK,
    Replay,
    SimulationError,
)
from feedsched.sprofile import clamp_time, kernel, sigmoid_law

SIG_D2_MAX = 1.0 / (6.0 * math.sqrt(3.0))
SIG_D2_ARGMAX = math.log(2.0 + math.sqrt(3.0))


def logistic(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    z = np.exp(x[~pos])
    out[~pos] = z / (1.0 + z)
    return out


def logistic_d2(x):
    f = logistic(x)
    return f * (1.0 - f) * (1.0 - 2.0 * f)


def core_reference(v_s, v_e, T, t, s):
    """Independent middle-section velocity and acceleration of a block
    of the shaped law at steepness s: feeds v_s to v_e over duration T."""
    x = 2.0 * s * t / T - s
    span = float(logistic(s)) - float(logistic(-s))
    c = 2.0 * s / T
    if v_e > v_s:
        g = (v_e - v_s) / span
        fx = float(logistic(x))
        v = g * (fx - float(logistic(-s))) + v_s
        a = g * c * fx * (1.0 - fx)
    else:
        g = (v_s - v_e) / span
        px = float(logistic(-x))
        v = g * (px - float(logistic(s))) + v_s
        a = -g * c * px * (1.0 - px)
    return v, a


def junction_residuals(v_s, v_e, T, s):
    """The eight fit conditions of the shaped law at steepness s on a
    block from feed v_s to v_e over duration T: ends pinned, and at both
    seams the cap side, read from the law's state one float of time into
    its cap, equal to the core's value and slope by core_reference."""
    state = partial(sigmoid_law(s).state, v_s, v_e, T)
    third = T / 3.0
    _, v0, a0, _ = state(0.0)
    _, v3, a3, _ = state(T)
    _, v1, a1, _ = state(math.nextafter(third, 0.0))
    _, v2, a2, _ = state(math.nextafter(2.0 * third, T))
    cv1, ca1 = core_reference(v_s, v_e, T, third, s)
    cv2, ca2 = core_reference(v_s, v_e, T, 2.0 * third, s)
    return (
        abs(v0 - v_s),
        abs(a0),
        abs(v1 - cv1),
        abs(a1 - ca1),
        abs(v2 - cv2),
        abs(a2 - ca2),
        abs(v3 - v_e),
        abs(a3),
    )


def _parabola_peak(y0, y1, y2):
    """Refined max of a smooth bump from three equispaced samples."""
    den = y0 - 2.0 * y1 + y2
    if den >= 0.0:
        return y1
    return y1 - (y0 - y2) ** 2 / (8.0 * den)


def _grid_peak(y):
    """Largest sample, parabola-refined when it sits strictly inside."""
    i = int(np.argmax(y))
    if 0 < i < y.size - 1:
        return _parabola_peak(float(y[i - 1]), float(y[i]), float(y[i + 1]))
    return float(y[i])


def dense_transition_peaks(v_s, v_e, L, s, n_core=4001, n_cap=401):
    """Peak |accel| and |jerk| of one transition by dense sampling.

    Sections are sampled separately so the seam points land exactly on
    grid nodes. The cap acceleration is quadratic in time, making the
    three-point parabola refinement exact there; the core peaks are
    smooth logistic bumps, so the refined grid error sits far below
    1e-6 relative. The refinement itself can overshoot a narrow bump
    by order 1e-10 relative, so envelope comparisons need that much
    slack. Symmetric caps mean one cap covers both.
    """
    lo, hi = min(v_s, v_e), max(v_s, v_e)
    if hi == lo:
        return 0.0, 0.0
    T = 2.0 * L / (lo + hi)
    c = 2.0 * s / T
    fs = float(logistic(s))
    fm = float(logistic(-s))
    f3 = float(logistic(-s / 3.0))
    amp = (hi - lo) / (fs - fm)
    dv = amp * (f3 - fm)
    a13 = amp * f3 * (1.0 - f3) * c
    a2 = 27.0 * dv / T**2 - 3.0 * a13 / T
    a1 = 9.0 * a13 / T**2 - 54.0 * dv / T**3
    t_cap = np.linspace(0.0, T / 3.0, n_cap)
    a_cap = np.abs((3.0 * a1 * t_cap + 2.0 * a2) * t_cap)
    j_cap = np.abs(6.0 * a1 * t_cap + 2.0 * a2)
    x = np.linspace(-s / 3.0, s / 3.0, n_core)
    f = logistic(x)
    a_core = np.abs(amp * c * f * (1.0 - f))
    j_core = np.abs(amp * c * c * f * (1.0 - f) * (1.0 - 2.0 * f))
    a_pk = max(_grid_peak(a_cap), _grid_peak(a_core))
    j_pk = max(float(j_cap.max()), _grid_peak(j_core))
    return a_pk, j_pk


def transition_peaks(v_lo, v_hi, L, s):
    """Peak |accel| and |jerk| of one shaped feed transition.

    Broadcasts over numpy array inputs; v_lo <= v_hi elementwise and
    L > 0. Entries with zero feed rise report zero peaks.
    """
    v_lo, v_hi, L = np.broadcast_arrays(
        np.asarray(v_lo, dtype=float),
        np.asarray(v_hi, dtype=float),
        np.asarray(L, dtype=float),
    )
    T = 2.0 * L / (v_lo + v_hi)
    fs = float(logistic(s))
    fm = float(logistic(-s))
    f3 = float(logistic(-s / 3.0))
    span = fs - fm
    amp = (v_hi - v_lo) / span
    with np.errstate(divide="ignore", invalid="ignore"):
        c = 2.0 * s / T
        a_core = 0.25 * c * amp
        if s / 3.0 >= SIG_D2_ARGMAX:
            k_core = SIG_D2_MAX
        else:
            k_core = abs(float(logistic_d2(-s / 3.0)))
        j_core = c * c * amp * k_core
        dv = amp * (f3 - fm)
        a13 = amp * f3 * (1.0 - f3) * c
        a2 = 27.0 * dv / T**2 - 3.0 * a13 / T
        a1 = 9.0 * a13 / T**2 - 54.0 * dv / T**3
        third = T / 3.0
        a_cap_edge = np.abs((3.0 * a1 * third + 2.0 * a2) * third)
        safe_a1 = np.where(a1 == 0.0, 1.0, a1)
        tstar = np.where(a1 != 0.0, -a2 / (3.0 * safe_a1), -1.0)
        a_interior = np.where(
            (tstar > 0.0) & (tstar < third),
            a2 * a2 / (3.0 * np.abs(safe_a1)),
            0.0,
        )
        a_pk = np.maximum(a_core, np.maximum(a_cap_edge, a_interior))
        j_cap = np.maximum(np.abs(2.0 * a2), np.abs(6.0 * a1 * third + 2.0 * a2))
        j_pk = np.maximum(j_core, j_cap)
    zero = v_hi == v_lo
    a_pk = np.where(zero, 0.0, a_pk)
    j_pk = np.where(zero, 0.0, j_pk)
    return a_pk, j_pk


def peaks_feasible(v_lo, v_hi, L, s, a_max, j_max, margin=1e-9):
    a_pk, j_pk = transition_peaks(v_lo, v_hi, L, s)
    return (a_pk <= a_max * (1.0 + margin)) & (j_pk <= j_max * (1.0 + margin))


def min_feasible_lengths(v_lo, v_hi, s, a_max, j_max, L_hi, margin=1e-9):
    """Smallest transition length per feed pair; all inputs broadcast.

    At fixed feeds the block time scales with L and the law is the same
    curve on a stretched time axis, so the true peaks scale exactly as
    1/L (acceleration) and 1/L^2 (jerk). The peaks at L = 1 then give
    the length at which each meets its limit, with peaks_feasible's
    margin. Entries infeasible even at L_hi come back as inf; zero-rise
    entries as 0.
    """
    v_lo, v_hi, L_hi = np.broadcast_arrays(
        np.asarray(v_lo, dtype=float), np.asarray(v_hi, dtype=float),
        np.asarray(L_hi, dtype=float),
    )
    a_pk, j_pk = transition_peaks(v_lo, v_hi, 1.0, s)
    scale = 1.0 + margin
    L = np.maximum(a_pk / (a_max * scale), np.sqrt(j_pk / (j_max * scale)))
    return np.where(v_hi > v_lo, np.where(L <= L_hi, L, np.inf), 0.0)


def largest_peak_feed(v1, v3, L1, L2, v_cap, s, a_max, j_max, iters=200):
    """Highest junction feed both transitions can reach, or None.

    Feasibility is checked against the true profile peaks; the result
    honors v_cap as an upper bound. Returns None when even the taller
    endpoint is unreachable.
    """

    def ok(v2):
        a = bool(
            peaks_feasible(min(v1, v2), max(v1, v2), L1, s, a_max, j_max)
        )
        b = bool(
            peaks_feasible(min(v3, v2), max(v3, v2), L2, s, a_max, j_max)
        )
        return a and b

    lo = max(v1, v3)
    if not ok(lo):
        return None
    if ok(v_cap):
        return v_cap
    a, b = lo, v_cap
    for _ in range(iters):
        mid = 0.5 * (a + b)
        if ok(mid):
            a = mid
        else:
            b = mid
    return a


def best_span_time(v1, v3, L_total, v_ceiling, s, a_max, j_max):
    """Minimal rise-steady-fall traversal time by refined grid search.

    For each candidate top feed the side lengths take their feasibility
    minima (the time is non-decreasing in either length once the top
    feed is at least the endpoint feeds), the remainder runs steady.
    Returns inf when no candidate is feasible. Broadcasts over array
    inputs, one span per entry, all spans refined together.
    """
    v1, v3, L_total, v_ceiling = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (v1, v3, L_total, v_ceiling))
    )
    lo = np.maximum(v1, v3)
    grid = np.linspace(lo, np.maximum(v_ceiling, lo), 2001, axis=-1)
    v1, v3, L_total = v1[..., None], v3[..., None], L_total[..., None]
    best = np.full(lo.shape, np.inf)

    def at(k):
        return np.take_along_axis(grid, k[..., None], -1)[..., 0]

    for level in range(3):
        l1 = min_feasible_lengths(v1, np.maximum(grid, v1), s, a_max, j_max, L_total)
        l3 = min_feasible_lengths(v3, np.maximum(grid, v3), s, a_max, j_max, L_total)
        l2 = L_total - l1 - l3
        with np.errstate(invalid="ignore"):
            t = np.where(
                l2 >= -1e-9,
                2.0 * l1 / (v1 + grid)
                + 2.0 * l3 / (v3 + grid)
                + np.maximum(l2, 0.0) / grid,
                np.inf,
            )
        t = np.where(np.isnan(t), np.inf, t)
        k = np.argmin(t, axis=-1)
        best = np.minimum(best, np.take_along_axis(t, k[..., None], -1)[..., 0])
        if level < 2:
            # a span with a one-point grid refines onto the same point
            n = grid.shape[-1]
            grid = np.linspace(
                at(np.maximum(k - 1, 0)), at(np.minimum(k + 1, n - 1)), 1001, axis=-1
            )
    best = np.where(v_ceiling < lo, np.inf, best)
    return float(best) if best.ndim == 0 else best


def classic_scan(blocks, law, limits):
    """Total time of the classic feed scan over fixed block lengths.

    Each block caps its higher end feed at what its lower end reaches
    over the block's length; the caps repeat until no feed moves.
    """
    v = [b.v_s for b in blocks] + [blocks[-1].v_e]
    lengths = [b.L for b in blocks]
    moved = True
    while moved:
        moved = False
        for i, L in enumerate(lengths):
            lo, hi = (i, i + 1) if v[i] <= v[i + 1] else (i + 1, i)
            cap = transition_max_feed(v[lo], L, law, limits)
            if cap < v[hi]:
                v[hi] = cap
                moved = True
    return sum(2.0 * L / (a + b) for L, a, b in zip(lengths, v, v[1:]))


_GL8 = tuple(zip(*np.polynomial.legendre.leggauss(8)))
_GL16 = tuple(zip(*np.polynomial.legendre.leggauss(16)))


def _gauss_arc(curve, a, b, rule):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * sum(
        w * math.hypot(*derivatives(curve, mid + half * x, 1)[0]) for x, w in rule
    )


def _adaptive_arc(curve, a, b, tol, rel, depth):
    coarse = _gauss_arc(curve, a, b, _GL8)
    fine = _gauss_arc(curve, a, b, _GL16)
    if abs(fine - coarse) <= max(tol, rel * abs(fine)):
        return fine
    if depth >= 28 or (b - a) <= 1e-14:
        return fine
    mid = 0.5 * (a + b)
    return _adaptive_arc(
        curve, a, mid, 0.5 * tol, rel, depth + 1
    ) + _adaptive_arc(curve, mid, b, 0.5 * tol, rel, depth + 1)


def arc_length(curve, u_a, u_b, rel=1e-12):
    """Arc length by adaptive Gauss quadrature, split at interior knots.

    Each knot-free piece is integrated with GL16 and halved until GL8
    agrees with it within rel of the piece (with a floor of 1e-3 of the
    whole arc), evaluating the speed point by point through the public
    ``derivatives``. A half also stops once the two rules agree within
    rel of the half itself: where the speed is many times its piece's
    mean, as beside a sharp C0 knot with extreme weights, the speed's own
    rounding (1e-13 relative there) keeps the rules from agreeing any
    closer, and halving would run to the depth cap. The result stays
    within about 2 rel of the arc.
    """
    knots = sorted({k for k in curve.knots if u_a < k < u_b})
    edges = [u_a] + knots + [u_b]
    pieces = list(zip(edges, edges[1:]))
    estimates = [_gauss_arc(curve, lo, hi, _GL16) for lo, hi in pieces]
    total = sum(estimates)
    if total == 0.0:
        return 0.0
    return sum(
        _adaptive_arc(curve, lo, hi, rel * max(est, 1e-3 * total), rel, 0)
        for (lo, hi), est in zip(pieces, estimates)
    )


def _cartesian(hom, dim):
    """Curve point and first two derivatives from the homogeneous ones, by
    the quotient rule, as the former kernel converted them.

    hom holds the homogeneous value, first and second derivative, each a
    sequence of dim + 1 coordinates with the weight last. A coordinate
    may be a float or an array of them; the arithmetic is the same.
    """
    v, d1, d2 = hom
    w0, w1, w2 = v[dim], d1[dim], d2[dim]
    c0 = [a / w0 for a in v[:dim]]
    c1 = [(a - w1 * c) / w0 for a, c in zip(d1, c0)]
    c2 = [(a - 2.0 * w1 * b - w2 * c) / w0 for a, b, c in zip(d2, c1, c0)]
    return c0, c1, c2


def _basis_derivatives(knots, degree, span, u, order):
    """Nonzero basis functions and their derivatives at u, by the scalar
    algorithm A2.3 of Piegl and Tiller's The NURBS Book, the former
    kernel's.

    Returns ders[k][j] = d^k/du^k of basis function (span - degree + j),
    for k in 0..order and j in 0..degree.
    """
    p = degree
    ndu = [[0.0] * (p + 1) for _ in range(p + 1)]
    ndu[0][0] = 1.0
    left = [0.0] * (p + 1)
    right = [0.0] * (p + 1)
    for j in range(1, p + 1):
        left[j] = u - knots[span + 1 - j]
        right[j] = knots[span + j] - u
        saved = 0.0
        for r in range(j):
            ndu[j][r] = right[r + 1] + left[j - r]
            temp = ndu[r][j - 1] / ndu[j][r]
            ndu[r][j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j][j] = saved

    ders = [[0.0] * (p + 1) for _ in range(order + 1)]
    for j in range(p + 1):
        ders[0][j] = ndu[j][p]

    work = [[0.0] * (p + 1) for _ in range(2)]
    max_k = min(order, p)
    for r in range(p + 1):
        s1, s2 = 0, 1
        work[0][0] = 1.0
        for k in range(1, max_k + 1):
            d = 0.0
            rk = r - k
            pk = p - k
            if r >= k:
                work[s2][0] = work[s1][0] / ndu[pk + 1][rk]
                d = work[s2][0] * ndu[rk][pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                work[s2][j] = (work[s1][j] - work[s1][j - 1]) / ndu[pk + 1][rk + j]
                d += work[s2][j] * ndu[rk + j][pk]
            if r <= pk:
                work[s2][k] = -work[s1][k - 1] / ndu[pk + 1][r]
                d += work[s2][k] * ndu[r][pk]
            ders[k][r] = d
            s1, s2 = s2, s1

    factor = float(p)
    for k in range(1, max_k + 1):
        for j in range(p + 1):
            ders[k][j] *= factor
        factor *= p - k
    # Derivatives beyond the degree vanish identically; rows stay zero.
    return ders


def scalar_spans(curve):
    """The curve's span table built span by span, as the library built it
    before its array pass: one scalar _basis_derivatives call per
    non-empty span, each coefficient a sum() over the span's control
    points divided by k!. Returns (starts, mids, coeffs) like
    ParametricCurve._spans."""
    p = curve.degree
    knots = curve.knots
    hom = [
        tuple(c * w for c in pt) + (w,)
        for pt, w in zip(curve.control_points, curve.weights)
    ]
    starts, mids, coeffs = [], [], []
    for span in range(p, len(curve.control_points)):
        lo, hi = knots[span], knots[span + 1]
        if not lo < hi:
            continue
        mid = 0.5 * (lo + hi)
        basis = _basis_derivatives(knots, p, span, mid, p)
        ctrl = hom[span - p : span + 1]
        starts.append(lo)
        mids.append(mid)
        coeffs.append([
            [
                sum(b * pt[d] for b, pt in zip(basis[k], ctrl))
                / math.factorial(k)
                for k in range(p, -1, -1)
            ]
            for d in range(curve.dimension + 1)
        ])
    return np.array(starts), np.array(mids), np.array(coeffs)


def reference_jet(curve, u):
    """Point, first and second derivative at u by the former kernel: the
    span's power-basis rows rebuilt from the scalar _basis_derivatives,
    one Horner pass per homogeneous coordinate, then _cartesian.
    Reads none of the curve's cached tables."""
    p, knots = curve.degree, curve.knots
    spans = [i for i in range(p, len(curve.control_points)) if knots[i] < knots[i + 1]]
    span = spans[max(bisect_right([knots[i] for i in spans], u) - 1, 0)]
    mid = 0.5 * (knots[span] + knots[span + 1])
    basis = _basis_derivatives(knots, p, span, mid, p)
    ctrl = [
        tuple(c * w for c in pt) + (w,)
        for pt, w in zip(
            curve.control_points[span - p : span + 1],
            curve.weights[span - p : span + 1],
        )
    ]
    t = u - mid
    hom = ([], [], [])
    for d in range(curve.dimension + 1):
        v = d1 = h2 = 0.0
        for k in range(p, -1, -1):
            c = sum(b * pt[d] for b, pt in zip(basis[k], ctrl)) / math.factorial(k)
            h2 = h2 * t + d1
            d1 = d1 * t + v
            v = v * t + c
        for out, x in zip(hom, (v, d1, 2.0 * h2)):
            out.append(x)
    return tuple(tuple(c) for c in _cartesian(hom, curve.dimension))


def _scalar_probe(curve, u, v, limits, p0):
    """The former probe: a Taylor step from derivatives at u, a Newton
    landing on an evaluate and a derivatives call per iterate, and the
    chord deviation. Returns the deviation and the landing."""
    if v == 0.0:
        return math.inf, u
    d1, d2 = derivatives(curve, u, 2)
    speed_sq = sum(c * c for c in d1)
    if speed_sq <= 0.0:
        raise SingularCurveError(f"vanishing first derivative at u={u}")
    speed = math.sqrt(speed_sq)
    dot = sum(a * b for a, b in zip(d1, d2))
    Ts = limits.Ts
    u_pred = u + v * Ts / speed - dot / (2.0 * speed_sq * speed_sq) * v * v * Ts * Ts
    if u_pred < u or min(u_pred, 1.0) <= u:
        return math.inf, u
    u_pred = min(u_pred, 1.0)
    target = v * Ts
    x = u_pred
    for _ in range(3):
        p = evaluate(curve, x)
        gap = target - math.dist(p, p0)
        if abs(gap) <= 1e-4 * target:
            break
        d1 = derivatives(curve, x, 1)[0]
        speed = math.sqrt(sum(c * c for c in d1))
        if speed <= 0.0:
            break
        x = min(max(x + gap / speed, u + 0.25 * (u_pred - u)), 1.0)
        if x >= 1.0:
            p = evaluate(curve, x)
            break
    else:
        p = evaluate(curve, x)
    return _chord_deviation(curve, u, x, p0, p), x


def _taylor_step(d1, d2, u, v, Ts):
    """The scan's former scalar second-order step: the parameter reached
    after one period at feed v from u, where the first two derivatives are
    d1 and d2, clamped at the curve end; a reversed step raises."""
    if v == 0.0:
        return u
    speed_sq = sum(c * c for c in d1)
    if speed_sq <= 0.0:
        raise SingularCurveError(f"vanishing first derivative at u={u}")
    speed = math.sqrt(speed_sq)
    dot = sum(a * b for a, b in zip(d1, d2))
    u_next = u + v * Ts / speed - dot / (2.0 * speed_sq * speed_sq) * v * v * Ts * Ts
    if u_next < u:
        raise StepDegeneracyError(f"parameter step reversed at u={u:.6f}")
    return min(u_next, 1.0)


def _chord_deviation(curve, u_a, u_b, p_a, p_b):
    """The scan's scalar chord measure: deviation (mm) of the chord p_a
    p_b from the curve on [u_a, u_b], the points at u_a <= u_b, by the
    circular-arc model with the osculating radius at the midpoint
    parameter; zero for a zero chord or a straight span, and sampled
    directly when the chord is too long for the arc model. The chord's
    length sums its squares coordinate by coordinate, as the library's
    array measure does."""
    chord = math.sqrt(sum((b - a) * (b - a) for a, b in zip(p_a, p_b)))
    if chord == 0.0:
        return 0.0
    rho = curvature_radius(curve, 0.5 * (u_a + u_b))
    if math.isinf(rho):
        return 0.0
    if 2.0 * rho > chord:
        return rho - math.sqrt(rho * rho - 0.25 * chord * chord)
    return _max_chord_deviation(curve, u_a, u_b, p_a, p_b)


def _settle_landing(curve, u, u_pred, target, p0):
    """The scan's former scalar landing: Newton corrections, one jet per
    iterate, until the chord from p0 (the point at u) matches the advance
    target within _LANDING_MATCH of it, at most _SETTLE_STEPS of them, each
    kept at least a quarter of the predicted step past u and clamped at
    the curve end. Returns the landing and its jet."""
    x = u_pred
    for _ in range(_SETTLE_STEPS):
        p, d1, _ = at_x = jet(curve, x)
        gap = target - math.dist(p, p0)
        speed = math.sqrt(sum(c * c for c in d1))
        if abs(gap) <= _LANDING_MATCH * target or speed <= 0.0:
            return x, at_x
        x = min(max(x + gap / speed, u + 0.25 * (u_pred - u)), 1.0)
        if x >= 1.0:
            break
    return x, jet(curve, x)


def _probe_step(curve, u, v, limits, at_u):
    """The scan's former scalar probe: the chord deviation of one period
    at feed v from u, inf for a step that does not advance, with the
    landing and its jet; at_u is the jet at u."""
    p0, d1, d2 = at_u
    try:
        u_next = _taylor_step(d1, d2, u, v, limits.Ts)
    except StepDegeneracyError:
        u_next = u
    if u_next <= u:
        return math.inf, u, at_u
    u_next, at_next = _settle_landing(curve, u, u_next, v * limits.Ts, p0)
    return _chord_deviation(curve, u, u_next, p0, at_next[0]), u_next, at_next


def _scalar_feedrate(curve, u, limits):
    """The former limit_feedrate: rescale from v_max, then the Illinois
    secant on log deviation against log feed down to the bracket width.
    An unsafe probe whose landing the curve end clamped enters the bracket
    at the feed whose step just reaches the end, as the library's search
    does."""
    p0 = evaluate(curve, u)
    dmax = limits.delta_max
    reach = math.dist(p0, evaluate(curve, 1.0)) / limits.Ts
    v = limits.v_max
    unsafe = None
    for _ in range(_MAX_FEED_ITERATIONS):
        delta, u_next = _scalar_probe(curve, u, v, limits, p0)
        if delta <= dmax:
            break
        unsafe = (min(v, reach) if u_next == 1.0 else v, delta)
        if math.isinf(delta):
            v *= 0.5
        else:
            v *= min(_FEED_BACKOFF_CAP, math.sqrt(dmax / delta))
        if u_next == 1.0:
            v = min(v, _FEED_BACKOFF_CAP * reach)
        if not v > 0.0:
            break
    if not delta <= dmax:
        raise ScanConvergenceError(f"feed adjustment did not converge at u={u:.6f}")
    if unsafe is None:
        return v, u_next
    v_lo, d_lo, u_lo = v, delta, u_next
    v_hi, d_hi = unsafe
    x_lo, x_hi = math.log(v_lo), math.log(v_hi)
    g_lo = math.log(d_lo / dmax) if d_lo > 0.0 else -math.inf
    g_hi = math.log(d_hi / dmax)
    margin = 0.5 * _BRACKET_REL_WIDTH
    widths = [math.inf] * 3
    moved = 0
    while v_hi - v_lo > _BRACKET_REL_WIDTH * v_hi:
        width = x_hi - x_lo
        if math.isfinite(g_lo) and math.isfinite(g_hi) and width <= 0.5 * widths[0]:
            x = x_hi - g_hi * width / (g_hi - g_lo)
        else:
            x = 0.5 * (x_lo + x_hi)
        widths = widths[1:] + [width]
        x = min(max(x, x_lo + margin), x_hi - margin)
        v = math.exp(x)
        delta, u_next = _scalar_probe(curve, u, v, limits, p0)
        if delta <= dmax:
            x_lo, v_lo, u_lo = x, v, u_next
            g_lo = math.log(delta / dmax) if delta > 0.0 else -math.inf
            if moved < 0:
                g_hi *= 0.5
            moved = -1
        else:
            v_hi = min(v, reach) if u_next == 1.0 else v
            x_hi = math.log(v_hi)
            g_hi = math.log(delta / dmax)
            if moved > 0:
                g_lo *= 0.5
            moved = 1
    return v_lo, u_lo


def _curvature_feed(curve, u, limits):
    """The scan's former scalar end ceiling: the steady-state chord-safe
    feed from the osculating radius at u."""
    rho = curvature_radius(curve, u)
    if math.isinf(rho):
        return limits.v_max
    d = min(limits.delta_max, rho)
    v = (2.0 / limits.Ts) * math.sqrt(d * (2.0 * rho - d))
    return min(limits.v_max, v)


def scalar_walk(curve, limits):
    """The former walk: each sample's ceiling searched from a fresh
    evaluate, up to the sample whose landing is the curve end. Returns the
    samples and their ceilings."""
    us, vs = [], []
    u = 0.0
    while True:
        v, u_next = _scalar_feedrate(curve, u, limits)
        us.append(u)
        vs.append(v)
        if u_next >= 1.0:
            return us, vs
        u = u_next


def scalar_scan(curve, limits):
    """The former scan_curve: the former walk, then midpoint probes beside
    every pronounced dip."""
    us, vs = scalar_walk(curve, limits)
    vs[-1] = min(vs[-1], _curvature_feed(curve, us[-1], limits))
    us.append(1.0)
    vs.append(min(vs[-1], _curvature_feed(curve, 1.0, limits)))
    pairs = list(zip(us, vs))
    for i in range(1, len(us) - 1):
        low, high = sorted((vs[i - 1], vs[i + 1]))
        if vs[i] > low or high <= vs[i] * (1.0 + _WELL_REL_DEPTH):
            continue
        for m in (0.5 * (us[i - 1] + us[i]), 0.5 * (us[i] + us[i + 1])):
            try:
                v_m, _ = _scalar_feedrate(curve, m, limits)
            except ChordScanError:
                continue
            if v_m < vs[i]:
                pairs.append((m, v_m))
    pairs.sort()
    return FeedrateScatter([p[0] for p in pairs], [p[1] for p in pairs])


def bisect_feedrate(curve, u, limits):
    """Chord-safe feed ceiling at u by rescale and 24 bracket bisections.

    The scan's ceiling search before its root-find: the same rescale from
    v_max, then 24 halvings of the first safe/unsafe bracket. Returns the
    safe end and its landing parameter.
    """
    at_u = jet(curve, u)
    v = limits.v_max
    unsafe = None
    safe = None
    for _ in range(64):
        delta, u_next, _ = _probe_step(curve, u, v, limits, at_u)
        if delta <= limits.delta_max:
            safe = (v, u_next)
            break
        unsafe = v
        if math.isinf(delta):
            v *= 0.5
        else:
            v *= min(0.95, math.sqrt(limits.delta_max / delta))
        if not v > 0.0:
            break
    if safe is None:
        raise ScanConvergenceError(
            f"feed adjustment did not converge at u={u:.6f}"
        )
    if unsafe is None:
        return safe
    lo, hi = safe[0], unsafe
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        delta, u_next, _ = _probe_step(curve, u, mid, limits, at_u)
        if delta <= limits.delta_max:
            safe = (mid, u_next)
            lo = mid
        else:
            hi = mid
    return safe


def min_ceiling_interp(s, v, a, b):
    """The scheduler's former smallest scan ceiling over arc positions
    [a, b]: arrays s and v, np.searchsorted for the samples inside and
    np.interp at both ends."""
    if b < a:
        a, b = b, a
    lo = int(np.searchsorted(s, a, side="left"))
    hi = int(np.searchsorted(s, b, side="right"))
    best = min(float(np.interp(a, s, v)), float(np.interp(b, s, v)))
    if hi > lo:
        best = min(best, float(v[lo:hi].min()))
    return best


def predict_every_point(curve, plan, limits, u0):
    """chordscan._predict as it was before it skipped the central
    differences of capped chords: every Newton step evaluates the
    samples, the midpoints and both points around every midpoint in one
    jets pass, and takes each chord's rate of change from them, times its
    derivative in the curvature (0 for a capped chord)."""
    grid, count = plan
    at = grid[1]
    s0 = float(curve._arc_table.positions(u0))
    c0 = np.interp(s0, at, count)
    n = int(np.clip(np.ceil(count[-1] - c0) + 1.0, 1.0, chordscan._WINDOW_SAMPLES))
    s = np.interp(c0 + np.arange(1, n + 1), count, at)
    x = np.fmin(np.fmax.accumulate(np.fmax(np.append(u0, _params_at(grid, s)), u0)), 1.0)
    probed = None
    at_x = None
    for _ in range(chordscan._PREDICT_STEPS):
        mid = 0.5 * (x[:-1] + x[1:])
        h = chordscan._SLOPE_STEP * np.diff(x)
        lo, hi = np.fmax(mid - h, 0.0), np.fmin(mid + h, 1.0)
        points, d1, d2 = jets(curve, np.concatenate([x, mid, lo, hi]))
        kappa = chordscan._curvatures(d1[n + 1 :], d2[n + 1 :]).reshape(3, n)
        chord, dchord = chordscan._closed_form_chords(kappa[0], limits)
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = dchord * (kappa[2] - kappa[1]) / (hi - lo)
        rate = np.where(np.isfinite(rate), rate, 0.0)
        link = points[1 : n + 1] - points[:n]
        length = chordscan._norms(link)
        live = x[1:] < 1.0
        if probed is not None:
            chord = np.where(np.isnan(probed), chord, probed)
        with np.errstate(divide="ignore", invalid="ignore"):
            miss = np.abs(length - chord)[live] / chord[live]
        if probed is None and not (miss > chordscan._CAPPED_MATCH).any():
            probed = np.full(n, math.nan)
            i = np.flatnonzero((dchord == 0.0) & live & (chord > 0.0))
            if i.size:
                v = np.full(i.size, limits.v_max)
                ahead = chordscan.taylor_step(d1[i], d2[i], x[i], v, limits.Ts)
                go = ahead > x[i]
                _, (p, _) = chordscan._settle(
                    curve, x[i[go]], ahead[go], v[go] * limits.Ts, points[i[go]]
                )
                probed[i[go]] = chordscan._norms(p - points[i[go]])
                chord = np.where(np.isnan(probed), chord, probed)
                with np.errstate(divide="ignore", invalid="ignore"):
                    miss = np.abs(length - chord)[live] / chord[live]
        if not (miss > chordscan._PREDICT_MATCH).any():
            at_x = points[:n], d1[:n], d2[:n]
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            unit = np.where(length[:, None] > 0.0, link, d1[:n]) / np.where(
                length > 0.0, length, chordscan._norms(d1[:n])
            )[:, None]
            ahead = (unit * d1[1 : n + 1]).sum(axis=1)
            fwd = np.fmax(ahead - 0.5 * rate, 0.25 * ahead)
            back = (unit * d1[:n]).sum(axis=1) + 0.5 * rate
            run = np.cumprod(back / fwd)
            step = run * np.cumsum(-(length - chord) / (fwd * run))
        span = np.diff(x)
        grow = np.diff(np.where(np.isfinite(step), step, 0.0), prepend=0.0)
        grow = np.clip(grow, -0.5 * span, 0.5 * np.fmax(span, span.mean()))
        x[1:] = np.fmin(x[0] + np.cumsum(span + grow), 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(chord > 0.0, rate / chord, 0.0)
    return x, np.where(dchord == 0.0, limits.v_max, chord / limits.Ts), slope, at_x


# Newton steps of the reference walk's chord step before it settles for
# the middle of its bracket
_REFERENCE_REFINE_STEPS = 80


def _reference_refine_step(curve, u, pos, advance):
    d1, d2 = derivatives(curve, u, order=2)
    speed_sq = sum(c * c for c in d1)
    speed = math.sqrt(speed_sq)
    dot = sum(a * b for a, b in zip(d1, d2))
    x = u + advance / speed - dot * advance * advance / (
        2.0 * speed_sq * speed_sq
    )
    x = min(max(x, u), 1.0)
    lo, hi = u, None
    for _ in range(_REFERENCE_REFINE_STEPS):
        point = evaluate(curve, x)
        diff = [a - b for a, b in zip(point, pos)]
        dist = math.sqrt(sum(c * c for c in diff))
        gap = dist - advance
        if abs(gap) <= _CHORD_MATCH_TOL:
            return x, point
        if gap > 0.0:
            hi = x
        elif x >= 1.0:
            return None
        else:
            lo = x
        top = 1.0 if hi is None else hi
        if top - lo < 1e-16:
            break
        (d1,) = derivatives(curve, x, order=1)
        slope = sum(a * b for a, b in zip(diff, d1)) / dist if dist else 0.0
        x = x - gap / slope if slope > 0.0 else math.inf
        if not lo < x < top:
            x = 1.0 if hi is None else 0.5 * (lo + hi)
    x = 0.5 * (lo + top)
    return x, evaluate(curve, x)


def _mirrored_kernel(x):
    """Falling counterpart p(x) = f(-x) of the logistic, with its
    derivatives."""
    f, f1, f2 = kernel(-x)
    return f, -f1, f2


def _sigmoid_core_setup(v_s, v_e, s):
    """Gain, start offset, and kernel family for the middle section."""
    fs, _, _ = kernel(s)
    fm, _, _ = kernel(-s)
    span = fs - fm
    if v_e > v_s:
        return (v_e - v_s) / span, fm, kernel
    return (v_s - v_e) / span, fs, _mirrored_kernel


def sigmoid_caps(v_s, v_e, T, s):
    """Cubic coefficients (a1, a2, a3, a4) in t of the start cap and
    (b1, b2, b3, b4) in T - t of the end cap, fitted in time units to the
    core at T/3 and 2T/3: the former profile's own caps."""
    if v_s == v_e:
        flat = (0.0, 0.0, 0.0, v_s)
        return flat, flat
    g, ref, base = _sigmoid_core_setup(v_s, v_e, s)
    k, k1, _ = base(-s / 3.0)
    dv = g * (k - ref)
    a13 = g * k1 * (2.0 * s / T)
    a1 = 9.0 * a13 / (T * T) - 54.0 * dv / (T * T * T)
    a2 = 27.0 * dv / (T * T) - 3.0 * a13 / T
    return (a1, a2, 0.0, v_s), (-a1, -a2, 0.0, v_e)


def _softplus(x):
    if x > 0.0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def _sigmoid_kinematics(v_s, v_e, T, t, s):
    t = clamp_time(t, T)
    if v_s == v_e:
        return v_s, 0.0, 0.0
    third = T / 3.0
    cap_start, cap_end = sigmoid_caps(v_s, v_e, T, s)
    if t <= third:
        a1, a2, _, a4 = cap_start
        v = ((a1 * t + a2) * t) * t + a4
        return v, (3.0 * a1 * t + 2.0 * a2) * t, 6.0 * a1 * t + 2.0 * a2
    if t >= 2.0 * third:
        b1, b2, _, b4 = cap_end
        tau = T - t
        v = ((b1 * tau + b2) * tau) * tau + b4
        return v, -(3.0 * b1 * tau + 2.0 * b2) * tau, 6.0 * b1 * tau + 2.0 * b2
    g, ref, base = _sigmoid_core_setup(v_s, v_e, s)
    c = 2.0 * s / T
    k, k1, k2 = base(c * t - s)
    return g * (k - ref) + v_s, g * k1 * c, g * k2 * c * c


def _sigmoid_displacement(v_s, v_e, T, t, s):
    t = clamp_time(t, T)
    if v_s == v_e:
        return v_s * t
    third = T / 3.0
    cap_start, cap_end = sigmoid_caps(v_s, v_e, T, s)

    def cap_area(coeffs, x):
        c1, c2, _, c4 = coeffs
        return ((0.25 * c1 * x + c2 / 3.0) * x * x + c4) * x

    if t <= third:
        return cap_area(cap_start, t)
    g, ref, base = _sigmoid_core_setup(v_s, v_e, s)
    c = 2.0 * s / T
    if base is kernel:
        def anti(x):
            return _softplus(x) / c
    else:
        def anti(x):
            return -_softplus(-x) / c
    s13 = cap_area(cap_start, third)
    t_mid = min(t, 2.0 * third)
    s_mid = (
        s13
        + g * (anti(c * t_mid - s) - anti(-s / 3.0))
        + (v_s - g * ref) * (t_mid - third)
    )
    if t <= 2.0 * third:
        return s_mid
    return s_mid + cap_area(cap_end, third) - cap_area(cap_end, T - t)


def _sine_kinematics(v_s, v_e, T, t):
    t = clamp_time(t, T)
    if v_s == v_e:
        return v_s, 0.0, 0.0
    dv = v_e - v_s
    half = 0.5 * dv
    phase = math.pi * (t / T - 0.5)
    sin, cos = math.sin(phase), math.cos(phase)
    return (
        half * (sin + 1.0) + v_s,
        dv * math.pi / (2.0 * T) * cos,
        -dv * (math.pi / T) ** 2 / 2.0 * sin,
    )


def _sine_displacement(v_s, v_e, T, t):
    t = clamp_time(t, T)
    if v_s == v_e:
        return v_s * t
    half = 0.5 * (v_e - v_s)
    return (v_s + half) * t - half * T / math.pi * math.sin(
        math.pi * t / T
    )


def reference_law(law, s):
    """How profile_state_reference names a law: "sine" for SINE, else
    the shaped law's steepness s."""
    return "sine" if law is SINE else s


def profile_state_reference(v_s, v_e, T, t, law):
    """Travel, feed, acceleration and jerk at block-local time t of a
    block from feed v_s to v_e over duration T under the sine law (law
    "sine") or the shaped law at steepness law: the laws' former
    separate kinematics and displacement in time units, each of which
    clamps t, fits its own caps and sets up the logistic core on its
    own, with falling blocks on the mirrored logistic."""
    if law == "sine":
        return (
            _sine_displacement(v_s, v_e, T, t),
            *_sine_kinematics(v_s, v_e, T, t),
        )
    return (
        _sigmoid_displacement(v_s, v_e, T, t, law),
        *_sigmoid_kinematics(v_s, v_e, T, t, law),
    )


class _Track:
    """Blocks of one law laid out on a shared time and travel axis: the
    replay's former block lookup, a bisection over the block starts at
    every tick, with each block's state from profile_state_reference
    under its feeds and the law's duration; name is the law as
    profile_state_reference names it ("sine" or the shaped law's
    steepness)."""

    def __init__(self, blocks, law, name):
        self.law = law
        self.name = name
        self.total = sum(b.T for b in blocks)
        self.starts = []
        self.offsets = []
        self.durations = []
        self.fits = []
        t = s = 0.0
        for b in blocks:
            self.starts.append(t)
            self.offsets.append(s)
            self.durations.append(b.T)
            self.fits.append((b.v_s, b.v_e, law.duration(b.v_s, b.v_e, b.L)))
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
        travel, *kinematics = profile_state_reference(
            *self.fits[i], tau, self.name
        )
        return self.offsets[i] + travel, tuple(kinematics)


def replay_reference(curve, blocks, limits, law):
    """The tick replay as one scalar loop: Newton on separate point and
    derivative evaluations, then the chord deviation of each tick."""
    track = _Track(blocks, law, reference_law(law, limits.shape_s))
    Ts = limits.Ts
    n_steps = max(1, math.ceil(track.total / Ts - 1e-9))
    u = 0.0
    pos = evaluate(curve, 0.0)
    travel, (v, a, j) = track.state(0.0)
    rows = [(0.0, 0.0, pos, v, a, j, 0.0)]
    for k in range(1, n_steps + 1):
        t = min(k * Ts, track.total)
        reached, (v, a, j) = track.state(t)
        advance = reached - travel
        travel = reached
        landing = None
        if k < n_steps:
            if u < 1.0:
                landing = _reference_refine_step(curve, u, pos, advance)
            if landing is None:
                left = track.length - travel
                if left > _END_DRIFT_PER_TICK * limits.delta_max * k:
                    raise SimulationError("plan commands travel past the end")
        u_next, pos_next = landing or (1.0, evaluate(curve, 1.0))
        err = _chord_deviation(curve, u, u_next, pos, pos_next)
        u, pos = u_next, pos_next
        rows.append((k * Ts, u, pos, v, a, j, err))
    return Replay(*map(np.array, zip(*rows)), track.total)


def stack_missed_valleys(u, v, picked):
    """The former valley restore of segmentation.find_breakpoints: a stack
    of spans, one span at a time, each split at the first sample of
    largest gap below its bound, then its halves pushed back."""
    out = list(picked)
    stack = list(zip(picked[:-1], picked[1:]))
    while stack:
        a, b = stack.pop()
        if b - a < 2:
            continue
        inner_u = u[a + 1 : b]
        inner_v = v[a + 1 : b]
        line = v[a] + (v[b] - v[a]) * (inner_u - u[a]) / (u[b] - u[a])
        bound = np.maximum(
            min(v[a], v[b]) * (1.0 - _VALLEY_REL_DEPTH),
            line * (1.0 - _FLANK_REL_SAG),
        )
        gap = bound - inner_v
        k = a + 1 + int(np.argmax(gap))
        if gap[k - a - 1] > 0.0:
            out.append(k)
            stack.append((a, k))
            stack.append((k, b))
    out.sort()
    return out


def load_blocks(path: Path) -> list[Block]:
    """Read a block table the CLI wrote back; inverse of cli.save_blocks.

    The shape, kind and duration cells are checked but not kept: a
    replay takes the shape from its limits, and a block derives its kind
    and duration from its feeds and length, which the duration cell must
    match bit for bit.
    """
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise CliError(str(exc), location=str(path)) from exc
    if not lines or lines[0] != _BLOCK_HEADER:
        raise CliError("unrecognized block table header", location=str(path))
    blocks = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 8:
            raise CliError("expected 8 columns", location=f"{path}:{i}")
        try:
            if not float(parts[5]) > 0.0:
                raise ValueError("shape parameter must be positive")
            BlockKind(parts[6])
            b = Block(
                u_s=float(parts[0]),
                u_e=float(parts[1]),
                v_s=float(parts[2]),
                v_e=float(parts[3]),
                L=float(parts[4]),
            )
            if float(parts[7]) != b.T:
                raise ValueError(f"T {parts[7]} is not the block's {b.T!r}")
        except ValueError as exc:
            raise CliError(str(exc), location=f"{path}:{i}") from exc
        blocks.append(b)
    return blocks
