"""Rational B-spline tool paths: evaluation, derivatives, curvature, arc length.

Coordinates are millimetres and the curve parameter u lives on [0, 1].
Curves may be planar or spatial; planar control points are treated as z = 0
wherever a cross product is required. Each curve converts its knot spans
once into power-basis polynomials of the homogeneous curve, so a point and
its derivatives cost one span lookup and a Horner sum.
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
    def _interior_knots(self) -> tuple[float, ...]:
        seen: list[float] = []
        for k in self.knots:
            if _KNOT_TOL < k < 1.0 - _KNOT_TOL and (
                not seen or k - seen[-1] > _KNOT_TOL
            ):
                seen.append(k)
        return tuple(seen)

    @cached_property
    def _span_polys(self) -> tuple[list[float], list[tuple]]:
        """Power-basis form of the homogeneous curve on each knot span.

        Returns the start parameters of the non-empty spans and, per span,
        its midpoint m and one coefficient row per homogeneous coordinate,
        highest power first, so that coordinate d on the span is
        sum_k row_d[p - k] * (u - m)^k. Order k is the k-th basis
        derivative at m divided by k! (Taylor expansion, exact for
        polynomials of degree p).
        """
        p = self.degree
        knots = self.knots
        # (x*w, y*w[, z*w], w) per control point
        hom = [
            tuple(c * w for c in pt) + (w,)
            for pt, w in zip(self.control_points, self.weights)
        ]
        starts, polys = [], []
        for span in range(p, len(self.control_points)):
            lo, hi = knots[span], knots[span + 1]
            if not lo < hi:
                continue
            mid = 0.5 * (lo + hi)
            basis = _basis_derivatives(knots, p, span, mid, p)
            ctrl = hom[span - p : span + 1]
            rows = tuple(
                tuple(
                    sum(b * pt[d] for b, pt in zip(basis[k], ctrl))
                    / math.factorial(k)
                    for k in range(p, -1, -1)
                )
                for d in range(self.dimension + 1)
            )
            starts.append(lo)
            polys.append((mid, rows))
        return starts, polys


def _basis_derivatives(
    knots: tuple[float, ...], degree: int, span: int, u: float, order: int
) -> list[list[float]]:
    """Nonzero basis functions and their derivatives at u.

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


def _check_param(u: float) -> float:
    u = float(u)
    if not 0.0 <= u <= 1.0:
        raise CurveDomainError(f"parameter {u!r} outside [0, 1]")
    return u


def _homogeneous_ders(
    curve: ParametricCurve, u: float, order: int
) -> list[list[float]]:
    """Homogeneous curve and its derivatives up to order 2 at u.

    One Horner pass per coordinate over the span polynomial carries the
    value, the first and half the second derivative together.
    """
    starts, polys = curve._span_polys
    mid, rows = polys[max(bisect_right(starts, u) - 1, 0)]
    t = u - mid
    if order == 0:
        out = []
        for row in rows:
            v = 0.0
            for c in row:
                v = v * t + c
            out.append(v)
        return [out]
    vals, firsts, seconds = [], [], []
    for row in rows:
        v = d1 = h2 = 0.0
        for c in row:
            h2 = h2 * t + d1
            d1 = d1 * t + v
            v = v * t + c
        vals.append(v)
        firsts.append(d1)
        seconds.append(2.0 * h2)
    return [vals, firsts, seconds][: order + 1]


def evaluate(curve: ParametricCurve, u: float) -> tuple[float, ...]:
    """Point on the curve at parameter u, in curve coordinates (mm)."""
    u = _check_param(u)
    (aw,) = _homogeneous_ders(curve, u, 0)
    w = aw.pop()
    return tuple([c / w for c in aw])


def derivatives(
    curve: ParametricCurve, u: float, order: int = 2
) -> list[tuple[float, ...]]:
    """Exact parameter-space derivatives d^k C/du^k for k = 1..order.

    Only orders 1 and 2 are supported; higher orders raise CurveDomainError.
    """
    u = _check_param(u)
    if order not in (1, 2):
        raise CurveDomainError(f"unsupported derivative order {order}")
    ders = _homogeneous_ders(curve, u, order)
    dim = curve.dimension
    w0 = ders[0][-1]
    c0 = [a / w0 for a in ders[0][:dim]]
    w1 = ders[1][-1]
    c1 = [(ders[1][i] - w1 * c0[i]) / w0 for i in range(dim)]
    out = [tuple(c1)]
    if order == 2:
        w2 = ders[2][-1]
        c2 = [
            (ders[2][i] - 2.0 * w1 * c1[i] - w2 * c0[i]) / w0
            for i in range(dim)
        ]
        out.append(tuple(c2))
    return out


def _embed3(vec: tuple[float, ...]) -> tuple[float, float, float]:
    if len(vec) == 3:
        return vec  # type: ignore[return-value]
    return (vec[0], vec[1], 0.0)


def _norm(vec) -> float:
    return math.sqrt(sum(c * c for c in vec))


def curvature_radius(curve: ParametricCurve, u: float) -> float:
    """Radius of the osculating circle at u (mm); inf on straight segments."""
    d1, d2 = derivatives(curve, u, 2)
    a = _embed3(d1)
    b = _embed3(d2)
    speed = _norm(a)
    if speed <= 0.0:
        raise SingularCurveError(f"vanishing first derivative at u={u}")
    cx = a[1] * b[2] - a[2] * b[1]
    cy = a[2] * b[0] - a[0] * b[2]
    cz = a[0] * b[1] - a[1] * b[0]
    cross = math.sqrt(cx * cx + cy * cy + cz * cz)
    speed3 = speed * speed * speed
    if cross / speed3 <= _STRAIGHT_CURVATURE:
        return math.inf
    return speed3 / cross


def _speed(curve: ParametricCurve, u: float) -> float:
    (d1,) = derivatives(curve, u, 1)
    return _norm(d1)


_GL8 = tuple(zip(*np.polynomial.legendre.leggauss(8)))
_GL16 = tuple(zip(*np.polynomial.legendre.leggauss(16)))


def _gauss(curve: ParametricCurve, a: float, b: float, rule) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * sum(w * _speed(curve, mid + half * x) for x, w in rule)


def _adaptive(
    curve: ParametricCurve, a: float, b: float, tol: float, depth: int
) -> float:
    coarse = _gauss(curve, a, b, _GL8)
    fine = _gauss(curve, a, b, _GL16)
    if abs(fine - coarse) <= tol or depth >= 28 or (b - a) <= 1e-14:
        return fine
    mid = 0.5 * (a + b)
    half_tol = 0.5 * tol
    return _adaptive(curve, a, mid, half_tol, depth + 1) + _adaptive(
        curve, mid, b, half_tol, depth + 1
    )


def arc_length(curve: ParametricCurve, u_a: float, u_b: float) -> float:
    """Arc length between two parameters via adaptive Gauss quadrature.

    The returned length is accurate to a relative _ARC_TOL.
    """
    u_a = _check_param(u_a)
    u_b = _check_param(u_b)
    if u_b < u_a:
        raise CurveDomainError(f"u_b={u_b} precedes u_a={u_a}")
    if u_b == u_a:
        return 0.0

    edges = [u_a]
    for k in curve._interior_knots:
        if u_a + _KNOT_TOL < k < u_b - _KNOT_TOL:
            edges.append(k)
    edges.append(u_b)

    estimates = [
        _gauss(curve, lo, hi, _GL16) for lo, hi in zip(edges, edges[1:])
    ]
    total_est = sum(estimates)
    if total_est == 0.0:
        return 0.0
    out = 0.0
    for (lo, hi), est in zip(zip(edges, edges[1:]), estimates):
        budget = _ARC_TOL * max(est, 1e-3 * total_est)
        out += _adaptive(curve, lo, hi, budget, 0)
    return out


def param_at_length(
    curve: ParametricCurve, u_start: float, length: float
) -> float:
    """Parameter u >= u_start at which the arc from u_start reaches ``length``.

    The result satisfies |arc_length(u_start, u) - length| <= _LENGTH_TOL
    (mm). Lengths at or beyond the curve end clamp to u = 1; the arc to
    the curve end is measured only when a Newton step would pass it.
    """
    u_start = _check_param(u_start)
    if length <= 0.0:
        return u_start

    lo, hi = u_start, 1.0
    end_checked = False
    u = u_start
    s = 0.0
    for _ in range(120):
        speed = _speed(curve, u)
        if speed > 0.0:
            step = (length - s) / speed
            cand = u + step
        else:
            cand = 0.5 * (lo + hi)
        if cand >= 1.0 and not end_checked:
            if length >= s + arc_length(curve, u, 1.0) - _LENGTH_TOL:
                return 1.0
            end_checked = True
        if not lo < cand < hi:
            cand = 0.5 * (lo + hi)
        if cand >= u:
            s_cand = s + arc_length(curve, u, cand)
        else:
            s_cand = s - arc_length(curve, cand, u)
        if abs(s_cand - length) <= _LENGTH_TOL:
            return cand
        if s_cand < length:
            lo = cand
        else:
            hi = cand
        u, s = cand, s_cand
        if hi - lo <= 1e-15:
            return 0.5 * (lo + hi)
    return 0.5 * (lo + hi)
