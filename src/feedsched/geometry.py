"""Rational B-spline tool paths: evaluation, derivatives, curvature, arc length.

Coordinates are millimetres and the curve parameter u lives on [0, 1].
Curves may be planar or spatial; planar control points are treated as z = 0
wherever a cross product is required. Each curve converts its knot spans
once into power-basis polynomials of the homogeneous curve, and one
kernel reads them: jets takes a batch of parameters through one span
lookup and one vectorised Horner pass. Every point and derivative query
is a row of a jets pass, the scalar ones (evaluate, jet, derivatives,
curvature_radius) a pass of one parameter. A pass costs about as much
for one parameter as for a hundred, so a caller with many parameters
batches them into one jets call. Each curve also builds once a
closed-form table of its running arc length.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "GeometryError",
    "CurveDomainError",
    "SingularCurveError",
    "ParametricCurve",
    "evaluate",
    "derivatives",
    "jet",
    "jets",
    "curvature_radius",
    "arc_length",
    "param_at_length",
]

# Normalised curvature |C' x C''| / |C'|^3 below this counts as straight.
_STRAIGHT_CURVATURE = 1e-12

_KNOT_TOL = 1e-12

# Relative tolerance of arc_length and absolute tolerance (mm) of
# param_at_length.
_ARC_TOL = 1e-9
_LENGTH_TOL = 1e-10
# Equal parameter intervals per arc-table piece in the replay's arc grid.
_GRID_CUTS = 16


class GeometryError(ValueError):
    """Base class for curve definition and query errors."""


class CurveDomainError(GeometryError):
    """Parameter outside [0, 1] or an unsupported derivative order."""


class SingularCurveError(GeometryError):
    """Vanishing first derivative; the parameterisation is locally singular."""


@dataclass(frozen=True)
class ParametricCurve:
    """A clamped rational B-spline of fixed degree on u in [0, 1].

    Attributes
    ----------
    degree:
        Polynomial degree p >= 1.
    control_points:
        Sequence of 2-D or 3-D points, all with the same dimension.
    weights:
        One strictly positive weight per control point.
    knots:
        Clamped, non-decreasing knot vector of length
        ``len(control_points) + degree + 1`` running from 0 to 1.
    """

    degree: int
    control_points: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...]
    knots: tuple[float, ...]

    def __init__(self, degree, control_points, weights, knots):
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(
            self,
            "control_points",
            tuple(tuple(float(c) for c in pt) for pt in control_points),
        )
        object.__setattr__(self, "weights", tuple(float(w) for w in weights))
        object.__setattr__(self, "knots", tuple(float(k) for k in knots))
        self._validate()

    def _validate(self) -> None:
        p = self.degree
        n = len(self.control_points)
        if p < 1:
            raise GeometryError(f"degree must be >= 1, got {p}")
        if n < p + 1:
            raise GeometryError(f"need at least {p + 1} control points, got {n}")
        dims = {len(pt) for pt in self.control_points}
        if len(dims) != 1 or dims.pop() not in (2, 3):
            raise GeometryError("control points must all be 2-D or all be 3-D")
        if not all(math.isfinite(c) for pt in self.control_points for c in pt):
            raise GeometryError("control point coordinates must be finite")
        if len(set(self.control_points)) == 1:
            raise GeometryError("control points all coincide: the curve is a point")
        if len(self.weights) != n:
            raise GeometryError(
                f"{n} control points but {len(self.weights)} weights"
            )
        if not all(0.0 < w < math.inf for w in self.weights):
            raise GeometryError("weights must be finite and strictly positive")
        k = self.knots
        if not all(math.isfinite(v) for v in k):
            raise GeometryError("knots must be finite")
        if len(k) != n + p + 1:
            raise GeometryError(
                f"knot vector must have {n + p + 1} entries, got {len(k)}"
            )
        if any(b < a for a, b in zip(k, k[1:])):
            raise GeometryError("knot vector must be non-decreasing")
        if abs(k[0]) > _KNOT_TOL or abs(k[-1] - 1.0) > _KNOT_TOL:
            raise GeometryError("knot vector must run from 0 to 1")
        if any(abs(v) > _KNOT_TOL for v in k[: p + 1]):
            raise GeometryError("knot vector must be clamped at 0")
        if any(abs(v - 1.0) > _KNOT_TOL for v in k[-(p + 1):]):
            raise GeometryError("knot vector must be clamped at 1")

    @property
    def dimension(self) -> int:
        return len(self.control_points[0])

    @cached_property
    def _spans(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Power-basis form of the homogeneous curve on each knot span.

        Read-only arrays: the start parameters of the non-empty spans,
        their midpoints m, and the coefficients indexed by (span,
        coordinate, power), highest power first, so that coordinate d on
        span i is sum_k c[i, d, p - k] * (u - m_i)^k. The coordinates are
        x*w, y*w[, z*w] and w. Order k is the k-th basis derivative at m
        divided by k! (Taylor expansion, exact for polynomials of degree p).
        """
        p = self.degree
        knots = np.array(self.knots)
        span = np.arange(p, len(self.control_points))
        span = span[knots[span] < knots[span + 1]]
        lo = knots[span]
        mid = 0.5 * (lo + knots[span + 1])
        basis = _basis_derivatives(knots, p, span, mid)
        w = np.array(self.weights)[:, None]
        hom = np.hstack([np.array(self.control_points) * w, w])
        coeffs = []
        for k in range(p, -1, -1):
            # sum() over the span's control points, in order, from 0.0
            acc = 0.0
            for j in range(p + 1):
                acc = acc + basis[k][j][:, None] * hom[span - p + j]
            coeffs.append(acc / math.factorial(k))
        arrays = lo, mid, np.stack(coeffs, axis=2)
        for a in arrays:
            a.setflags(write=False)
        return arrays

    @cached_property
    def _span_powers(self) -> np.ndarray:
        """_spans' coefficients indexed by (power, coordinate, span), for
        jets to gather a span per parameter along the last axis."""
        powers = np.ascontiguousarray(self._spans[2].transpose(2, 1, 0))
        powers.setflags(write=False)
        return powers

    @cached_property
    def _end_jets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """jets at u = 0 and u = 1, read-only, from one pass per curve:
        the path ends of every replay and the scan's reach to the end."""
        ends = jets(self, np.array([0.0, 1.0]))
        for a in ends:
            a.setflags(write=False)
        return ends

    @cached_property
    def _arc_table(self) -> _ArcTable:
        """Cumulative arc length of the curve, built once from _spans."""
        return _ArcTable(self)

    @cached_property
    def _arc_grid(self) -> tuple[np.ndarray, ...]:
        """Nodes on which the replay inverts the arc table for its first
        guesses, built once: every piece of the table cut into _GRID_CUTS
        equal parameter intervals, with the running arc length, the speed
        and the squared curvature over 24 at each node. The last is the
        arc excess of a chord: a chord of length a spans about
        a + a^3 kappa^2 / 24 of arc. It reads 0 where the speed vanishes."""
        table = self._arc_table
        lo = table.starts
        hi = np.append(lo[1:], 1.0)
        cuts = np.arange(_GRID_CUTS) / _GRID_CUTS
        u = np.append((lo[:, None] + (hi - lo)[:, None] * cuts).ravel(), 1.0)
        _, d1, d2 = jets(self, u)
        speed, cross = _speed_and_cross(d1.T, d2.T)
        with np.errstate(divide="ignore", invalid="ignore"):
            excess = cross * cross / (24.0 * speed**6)
        excess[~np.isfinite(excess)] = 0.0
        return u, np.maximum.accumulate(table.positions(u)), speed, excess


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


def _basis_derivatives(knots: np.ndarray, degree: int, span, u) -> list:
    """Nonzero basis functions and all their derivatives at u, on arrays
    of spans at once (Piegl and Tiller, The NURBS Book, A2.3).

    span and u are matching 1-D arrays; returns ders[k][j], the array of
    d^k/du^k of basis function (span - degree + j) at each u, for k and j
    in 0..degree. Every element takes the scalar algorithm's float
    operations in the same order.
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

    ders = [[0.0] * (p + 1) for _ in range(p + 1)]
    for j in range(p + 1):
        ders[0][j] = ndu[j][p]

    work = [[0.0] * (p + 1) for _ in range(2)]
    for r in range(p + 1):
        s1, s2 = 0, 1
        work[0][0] = 1.0
        for k in range(1, p + 1):
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
                d = d + work[s2][j] * ndu[rk + j][pk]
            if r <= pk:
                work[s2][k] = -work[s1][k - 1] / ndu[pk + 1][r]
                d = d + work[s2][k] * ndu[r][pk]
            ders[k][r] = d
            s1, s2 = s2, s1

    factor = float(p)
    for k in range(1, p + 1):
        for j in range(p + 1):
            ders[k][j] = ders[k][j] * factor
        factor *= p - k
    return ders


def _check_param(u: float) -> float:
    u = float(u)
    if not 0.0 <= u <= 1.0:
        raise CurveDomainError(f"parameter {u!r} outside [0, 1]")
    return u


def jets(curve: ParametricCurve, u, order: int = 2) -> tuple[np.ndarray, ...]:
    """Point and derivatives up to order (1 or 2) at every parameter of u
    (1-D), as arrays of shape (len(u), dimension) from one vectorised
    Horner pass over the span table. Order 1 gives the first two arrays
    of order 2 bit for bit, and a parameter's row does not depend on the
    others in u."""
    u = np.asarray(u, dtype=float)
    outside = ~((u >= 0.0) & (u <= 1.0))
    if outside.any():
        bad = float(u[outside][0])
        raise CurveDomainError(f"parameter {bad!r} outside [0, 1]")
    starts, mids, _ = curve._spans
    idx = np.maximum(np.searchsorted(starts, u, side="right") - 1, 0)
    coeffs = curve._span_powers[:, :, idx]
    t = u - mids[idx]
    # the value, first and half the second derivative of every homogeneous
    # coordinate, stacked up to order, take their Horner steps together;
    # the quotient rule then acts on whole coordinate rows
    hom = np.zeros((order + 1,) + coeffs.shape[1:])
    hom[0] = coeffs[0]
    for c in coeffs[1:]:
        lower = hom[:-1]
        hom = hom * t
        hom[0] += c
        hom[1:] += lower
    dim = curve.dimension
    val, der = hom[0], hom[1]
    w0, w1 = val[dim], der[dim]
    c0 = val[:dim] / w0
    c1 = (der[:dim] - w1 * c0) / w0
    if order == 1:
        return c0.T, c1.T
    half = hom[2]
    w2 = 2.0 * half[dim]
    c2 = (2.0 * half[:dim] - 2.0 * w1 * c1 - w2 * c0) / w0
    return c0.T, c1.T, c2.T


def _row(curve: ParametricCurve, u: float, order: int):
    """The jets row of the lone parameter u, checked, as tuples of floats."""
    return tuple(tuple(a[0].tolist()) for a in jets(curve, [_check_param(u)], order))


def evaluate(curve: ParametricCurve, u: float) -> tuple[float, ...]:
    """Point on the curve at parameter u, in curve coordinates (mm)."""
    return _row(curve, u, 1)[0]


def jet(curve: ParametricCurve, u: float) -> tuple[tuple[float, ...], ...]:
    """Point, first and second derivative at u.

    Equal bit for bit to evaluate(curve, u) and derivatives(curve, u, 2).
    """
    return _row(curve, u, 2)


def derivatives(
    curve: ParametricCurve, u: float, order: int = 2
) -> list[tuple[float, ...]]:
    """Exact parameter-space derivatives d^k C/du^k for k = 1..order.

    Only orders 1 and 2 are supported; higher orders raise CurveDomainError.
    """
    if order not in (1, 2):
        raise CurveDomainError(f"unsupported derivative order {order}")
    return list(_row(curve, u, order)[1:])


def _speed_and_cross(d1, d2):
    """|C'| and |C' x C''| from the first two derivatives, each a
    sequence of coordinate arrays, planar ones at z = 0."""
    ax, ay, az = (*d1, 0.0)[:3]
    bx, by, bz = (*d2, 0.0)[:3]
    cx = ay * bz - az * by
    cy = az * bx - ax * bz
    cz = ax * by - ay * bx
    return np.sqrt(ax * ax + ay * ay + az * az), np.sqrt(cx * cx + cy * cy + cz * cz)


def curvature_radius(curve: ParametricCurve, u: float) -> float:
    """Radius of the osculating circle at u (mm); inf on straight segments."""
    return float(_curvature_radii(curve, np.array([_check_param(u)]))[0])


def _curvature_radii(curve: ParametricCurve, u: np.ndarray) -> np.ndarray:
    """curvature_radius at every parameter of u from one jets pass.

    Raises SingularCurveError for the first parameter at which the first
    derivative vanishes.
    """
    _, d1, d2 = jets(curve, u)
    speed, cross = _speed_and_cross(d1.T, d2.T)
    singular = np.flatnonzero(speed <= 0.0)
    if singular.size:
        u_bad = float(u[singular[0]])
        raise SingularCurveError(f"vanishing first derivative at u={u_bad}")
    speed3 = speed * speed * speed
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            cross / speed3 <= _STRAIGHT_CURVATURE, math.inf, speed3 / cross
        )


# Gauss-Legendre rule of the arc-length table, and the map from the speed
# at its 16 nodes to the Legendre coefficients of the degree-15
# polynomial through them (the rule integrates P_m P_n exactly for
# m + n <= 31, so c_n = (n + 1/2) sum_k w_k P_n(x_k) f_k).
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_LEG_FIT = (
    (np.arange(16)[:, None] + 0.5)
    * np.polynomial.legendre.legvander(_GL_X, 15).T
    * _GL_W
)
# The fit's running integral (Legendre coefficients, zero at x = -1) and
# the fitted speed at the nodes of the two halves' rules; both are linear
# in the node speeds.
_RUN_FIT = np.polynomial.legendre.legint(_LEG_FIT, lbnd=-1)
_HALF_FIT = (
    np.polynomial.legendre.legvander(
        np.concatenate([0.5 * _GL_X - 0.5, 0.5 * _GL_X + 0.5]), 15
    )
    @ _LEG_FIT
)
_MAX_PIECE_DEPTH = 28
# Clenshaw factors (2k+1)/(k+1) and (k+1)/(k+2) of the Legendre
# recurrence P_{k+1} = (2k+1)/(k+1) x P_k - k/(k+1) P_{k-1}, k = 16..0.
_CLENSHAW_A = tuple((2 * k + 1) / (k + 1) for k in range(16, -1, -1))
_CLENSHAW_B = tuple((k + 1) / (k + 2) for k in range(16, -1, -1))


def _horner(rows, t) -> tuple[np.ndarray, np.ndarray]:
    """Homogeneous value and first derivative of many span polynomials at
    once.

    rows[i] holds the coefficient rows of item i's span, highest power
    first, and t[i] its offsets from the span midpoint, of shape (1, q);
    each result has shape (items, coordinates, q). The operations are
    those of jets, in the same order.
    """
    val = rows[:, :, :1]
    der = np.zeros_like(val)
    for k in range(1, rows.shape[2]):
        der = der * t + val
        val = val * t + rows[:, :, k, None]
    return val, der


def _node_speeds(rows, mids, lo, hi) -> np.ndarray:
    """|C'| at the 16 Gauss-Legendre nodes of each interval [lo, hi].

    Interval i lies in the span whose power-basis rows about mids[i] are
    rows[i]; the result has one row of 16 speeds per interval.
    """
    t = (0.5 * (lo + hi))[:, None] + (0.5 * (hi - lo))[:, None] * _GL_X
    t = (t - mids[:, None])[:, None, :]
    val, der = _horner(rows, t)
    w, dw = val[:, -1:], der[:, -1:]
    d1 = (der[:, :-1] * w - val[:, :-1] * dw) / (w * w)
    return np.sqrt((d1 * d1).sum(axis=1))


def _legendre(terms, x):
    """Legendre series at x by Clenshaw's recurrence.

    terms holds (c_k, (2k+1)/(k+1), (k+1)/(k+2)) for k = 16 down to 0;
    x and the c_k may be floats or arrays, with the same arithmetic.
    """
    b1 = b2 = 0.0
    for c, a, b in terms:
        b1, b2 = c + a * x * b1 - b * b2, b1
    return b1


class _ArcTable:
    """Running arc length S(u) of one curve, in closed form piece by piece.

    Each non-empty knot span is halved into pieces until the degree-15
    Legendre fit of the speed at a piece's 16 Gauss-Legendre nodes
    matches the speed at the 32 nodes of its two halves' rules within
    _ARC_TOL of the piece's mean speed (or of 1e-3 of the curve's, if
    larger), which also bounds the fit's integral over each half against
    GL16 there. Pieces whose arc is below the rounding level of the
    control points are not split further. All pieces of one halving level
    are checked together. A piece keeps the Legendre series, in
    x = (u - centre) / half on [-1, 1], of the fit's running integral,
    which is 0 at x = -1 and the piece's GL16 sum at x = 1.
    """

    __slots__ = ("starts", "cum", "_centres", "_halves", "_runs")

    def __init__(self, curve: ParametricCurve):
        lo, mids, rows = curve._spans
        hi = np.append(lo[1:], 1.0)
        span = np.arange(lo.size)
        speeds = _node_speeds(rows, mids, lo, hi)
        slow = 1e-3 * float(0.5 * (hi - lo) @ (speeds @ _GL_W))
        noise = 1e-13 * max(abs(c) for pt in curve.control_points for c in pt)
        kept = []
        for depth in range(_MAX_PIECE_DEPTH + 1):
            half = 0.5 * (hi - lo)
            centre = lo + half
            both = np.tile(span, 2)
            kids = _node_speeds(
                rows[both], mids[both],
                np.concatenate([lo, centre]), np.concatenate([centre, hi]),
            )
            n = lo.size
            whole = half * (speeds @ _GL_W)
            miss = np.abs(speeds @ _HALF_FIT.T - np.hstack([kids[:n], kids[n:]]))
            allowed = _ARC_TOL * np.maximum(whole / (2.0 * half), slow)
            split = (
                (whole > noise)
                & (miss.max(axis=1) > allowed)
                & (depth < _MAX_PIECE_DEPTH)
            )
            kept.append((lo[~split], hi[~split], speeds[~split]))
            if not split.any():
                break
            lo, hi = (
                np.concatenate([lo[split], centre[split]]),
                np.concatenate([centre[split], hi[split]]),
            )
            span = np.tile(span[split], 2)
            speeds = np.vstack([kids[:n][split], kids[n:][split]])
        lo, hi, speeds = (np.concatenate(part) for part in zip(*kept))
        order = np.argsort(lo)
        lo, hi, speeds = lo[order], hi[order], speeds[order]
        half = 0.5 * (hi - lo)
        centre = lo + half
        # the running integral's coefficients, highest order first
        run = half[:, None] * (speeds @ _RUN_FIT.T)[:, ::-1]
        self.starts = lo
        self.cum = np.append(0.0, np.cumsum(half * (speeds @ _GL_W)))
        self._centres = centre
        self._halves = half
        self._runs = run.T

    def _locate(self, u):
        """Piece holding each parameter of u (an array or a lone float)
        and the running length from that piece's start to it."""
        u = np.asarray(u, dtype=float)
        idx = np.maximum(np.searchsorted(self.starts, u, side="right") - 1, 0)
        x = (u - self._centres[idx]) / self._halves[idx]
        terms = zip(self._runs[:, idx], _CLENSHAW_A, _CLENSHAW_B)
        return idx, _legendre(terms, x)

    def positions(self, u):
        """S(u) at every parameter of u, or at a lone one; an entry of an
        array equals the lone parameter's S bit for bit."""
        idx, s = self._locate(u)
        return self.cum[idx] + s

    def lengths(self, u: np.ndarray) -> np.ndarray:
        """Arc between each pair of adjacent parameters of u (1-D)."""
        idx, s = self._locate(u)
        return (self.cum[idx[1:]] - self.cum[idx[:-1]]) + (s[1:] - s[:-1])

    def param(self, s: float) -> float:
        """Parameter at which the running length reaches s (clamped).

        A secant iteration on one piece's running length, from the chord
        between the piece's ends, kept inside the bracket it narrows.
        """
        n = self.starts.size
        if s >= self.cum[n]:
            return 1.0
        j = min(max(bisect_right(self.cum, s) - 1, 0), n - 1)
        cum_j, cum_k = self.cum[j : j + 2].tolist()
        r = s - cum_j
        centre, half = float(self._centres[j]), float(self._halves[j])
        run = tuple(zip(self._runs[:, j].tolist(), _CLENSHAW_A, _CLENSHAW_B))
        a, fa = -1.0, -r
        b, fb = 1.0, (cum_k - cum_j) - r
        lo, hi = a, b
        x = a
        for _ in range(100):
            x = b - fb * (b - a) / (fb - fa) if fb != fa else lo
            if not lo <= x <= hi:
                x = 0.5 * (lo + hi)
            fx = _legendre(run, x) - r
            if fx == 0.0 or abs(x - b) <= 1e-15 or hi - lo <= 1e-15:
                break
            if fx < 0.0:
                lo = x
            else:
                hi = x
            a, fa, b, fb = b, fb, x, fx
        end = float(self.starts[j + 1]) if j + 1 < n else 1.0
        return min(max(centre + half * x, float(self.starts[j])), end)


def arc_length(curve: ParametricCurve, u_a: float, u_b: float) -> float:
    """Arc length between two parameters (mm), from the curve's arc table.

    The returned length is accurate to a relative _ARC_TOL.
    """
    u_a = _check_param(u_a)
    u_b = _check_param(u_b)
    if u_b < u_a:
        raise CurveDomainError(f"u_b={u_b} precedes u_a={u_a}")
    return float(curve._arc_table.lengths(np.array([u_a, u_b]))[0])


def param_at_length(
    curve: ParametricCurve, u_start: float, length: float
) -> float:
    """Parameter u >= u_start at which the arc from u_start reaches ``length``.

    The result satisfies |arc_length(u_start, u) - length| <= _LENGTH_TOL
    (mm). Lengths within _LENGTH_TOL of the curve end or beyond it clamp
    to u = 1.
    """
    u_start = _check_param(u_start)
    if length <= 0.0:
        return u_start
    table = curve._arc_table
    target = float(table.positions(u_start)) + length
    if target >= table.cum[-1] - _LENGTH_TOL:
        return 1.0
    return max(table.param(target), u_start)
