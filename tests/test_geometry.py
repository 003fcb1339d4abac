import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import BSpline

import oracles

from feedsched import geometry
from feedsched.cli import load_curve
from feedsched.curvegen import random_curve
from feedsched.geometry import (
    CurveDomainError,
    GeometryError,
    ParametricCurve,
    arc_length,
    curvature_radius,
    derivatives,
    evaluate,
    jet,
    jets,
    param_at_length,
)

from conftest import (
    make_full_circle,
    make_line,
    make_quarter_circle,
    nurbs_curves,
)


class TestValidation:
    PAIR = ((0, 0), (1, 0))

    def test_degree_below_one(self):
        with pytest.raises(GeometryError, match="degree must be >= 1, got 0"):
            ParametricCurve(0, self.PAIR, (1, 1), (0, 0.5, 1))

    def test_too_few_control_points(self):
        with pytest.raises(
            GeometryError, match="need at least 3 control points, got 2"
        ):
            ParametricCurve(2, self.PAIR, (1, 1), (0, 0, 0, 1, 1))

    def test_mixed_dimensions(self):
        with pytest.raises(GeometryError, match="all be 2-D or all be 3-D"):
            ParametricCurve(1, ((0, 0), (1, 0, 0)), (1, 1), (0, 0, 1, 1))

    def test_point_curve_rejected(self):
        with pytest.raises(GeometryError, match="coincide"):
            ParametricCurve(
                2, ((5.0, 5.0),) * 3, (1.0, 20.0, 0.05), (0, 0, 0, 1, 1, 1)
            )

    def test_weight_count_mismatch(self):
        with pytest.raises(GeometryError, match="2 control points but 1 weights"):
            ParametricCurve(1, self.PAIR, (1.0,), (0, 0, 1, 1))

    def test_nonpositive_weight(self):
        with pytest.raises(GeometryError, match="weights must be finite and"):
            ParametricCurve(1, self.PAIR, (1.0, 0.0), (0, 0, 1, 1))

    def test_non_finite_knot(self):
        with pytest.raises(GeometryError, match="knots must be finite"):
            ParametricCurve(1, self.PAIR, (1, 1), (0, 0, math.nan, 1))

    def test_wrong_knot_count(self):
        with pytest.raises(
            GeometryError, match="knot vector must have 4 entries, got 3"
        ):
            ParametricCurve(1, self.PAIR, (1, 1), (0, 0, 1))

    def test_decreasing_knots(self):
        with pytest.raises(GeometryError, match="must be non-decreasing"):
            ParametricCurve(
                2,
                ((0, 0), (1, 1), (2, 0), (3, 1)),
                (1, 1, 1, 1),
                (0, 0, 0, 0.7, 0.3, 1, 1, 1)[: 7],
            )

    def test_knots_not_running_from_zero_to_one(self):
        with pytest.raises(GeometryError, match="must run from 0 to 1"):
            ParametricCurve(1, self.PAIR, (1, 1), (0, 0, 2, 2))

    def test_unclamped_knots(self):
        with pytest.raises(GeometryError, match="must be clamped at 0"):
            ParametricCurve(
                2, ((0, 0), (1, 1), (2, 0)), (1, 1, 1), (0, 0, 0.2, 1, 1, 1)
            )

    def test_unclamped_end_knots(self):
        with pytest.raises(GeometryError, match="must be clamped at 1"):
            ParametricCurve(
                2, ((0, 0), (1, 1), (2, 0)), (1, 1, 1), (0, 0, 0, 0.8, 1, 1)
            )

    def test_parameter_out_of_domain(self, line_curve):
        with pytest.raises(CurveDomainError):
            evaluate(line_curve, 1.5)
        with pytest.raises(CurveDomainError):
            evaluate(line_curve, -0.01)


class TestEvaluate:
    def test_line_interpolates_linearly(self):
        c = make_line(start=(1.0, 2.0), end=(9.0, -6.0))
        p = evaluate(c, 0.25)
        assert p == pytest.approx((3.0, 0.0), abs=1e-14)

    def test_quarter_circle_on_circle(self, quarter_circle):
        for u in np.linspace(0.0, 1.0, 50):
            x, y = evaluate(quarter_circle, float(u))
            assert abs(x * x + y * y - 25.0) < 1e-12

    def test_endpoint_interpolation_random(self):
        for seed in range(12):
            c = random_curve(seed, planar=(seed % 2 == 0))
            assert evaluate(c, 0.0) == pytest.approx(c.control_points[0], abs=1e-12)
            assert evaluate(c, 1.0) == pytest.approx(c.control_points[-1], abs=1e-12)


class TestDerivatives:
    def test_line_derivatives(self):
        c = make_line(start=(0.0, 0.0), end=(10.0, 5.0))
        d1, d2 = derivatives(c, 0.37, 2)
        assert d1 == pytest.approx((10.0, 5.0), abs=1e-12)
        assert d2 == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_unsupported_order(self, quarter_circle):
        with pytest.raises(CurveDomainError):
            derivatives(quarter_circle, 0.5, 3)
        with pytest.raises(CurveDomainError):
            derivatives(quarter_circle, 0.5, 0)

    def test_against_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        # wider step for the second difference: 1e-6 loses too many bits
        # to cancellation before the curvature scale of the test curves
        h2 = 1e-5
        for seed in range(6):
            c = random_curve(seed, planar=(seed % 2 == 0))
            for u in rng.uniform(2 * h2, 1 - 2 * h2, size=20):
                u = float(u)
                d1, d2 = derivatives(c, u, 2)
                pm = np.array(evaluate(c, u - h))
                pp = np.array(evaluate(c, u + h))
                fd1 = (pp - pm) / (2 * h)
                qm = np.array(evaluate(c, u - h2))
                q0 = np.array(evaluate(c, u))
                qp = np.array(evaluate(c, u + h2))
                fd2 = (qp - 2 * q0 + qm) / (h2 * h2)
                scale1 = max(1.0, float(np.linalg.norm(fd1)))
                scale2 = max(1.0, float(np.linalg.norm(fd2)))
                assert np.linalg.norm(np.array(d1) - fd1) / scale1 < 1e-6
                assert np.linalg.norm(np.array(d2) - fd2) / scale2 < 1e-4


class TestJet:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(c=nurbs_curves(), us=st.lists(st.floats(0.0, 1.0), max_size=6))
    def test_equals_evaluate_and_derivatives(self, c, us):
        # random parameters, every knot (interior ones and both ends)
        for u in us + sorted(set(c.knots)):
            point, d1, d2 = jet(c, u)
            assert point == evaluate(c, u)
            assert [d1, d2] == derivatives(c, u, 2)
            assert [d1] == derivatives(c, u, 1)

    def test_rejects_parameters_outside_the_curve(self, quarter_circle):
        with pytest.raises(CurveDomainError):
            jet(quarter_circle, 1.5)
        with pytest.raises(CurveDomainError, match=r"parameter -0\.25 outside"):
            jets(quarter_circle, np.array([0.5, -0.25, 1.5]))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(c=nurbs_curves(), us=st.lists(st.floats(0.0, 1.0), max_size=6))
    def test_every_query_equals_the_former_kernel(self, c, us):
        # every jets row, at either order, and every public query equal
        # the former kernel's per-coordinate Horner passes and quotient
        # rule bit for bit, at random parameters and every knot
        params = us + sorted(set(c.knots))
        passes = jets(c, np.array(params)), jets(c, np.array(params), order=1)
        for i, u in enumerate(params):
            point, d1, d2 = want = oracles.reference_jet(c, u)
            for rows in passes:
                assert bits(a[i].tolist() for a in rows) == bits(want[: len(rows)])
            assert bits(jet(c, u)) == bits(want)
            assert bits([evaluate(c, u)]) == bits([point])
            assert bits(derivatives(c, u, 2)) == bits([d1, d2])
            assert bits(derivatives(c, u, 1)) == bits([d1])
            assert bits([[curvature_radius(c, u)]]) == bits([[oracles.reference_radius(c, u)]])


def bits(rows):
    """The hex form of every float of a sequence of rows, so that -0.0 and
    0.0 differ."""
    return [[x.hex() for x in row] for row in rows]


class TestCurvature:
    def test_circle_radius(self, full_circle):
        for u in np.linspace(0.0, 1.0, 101):
            assert curvature_radius(full_circle, float(u)) == pytest.approx(
                5.0, rel=1e-9
            )

    def test_straight_segment_is_flat(self, line_curve):
        assert math.isinf(curvature_radius(line_curve, 0.5))

    def test_against_osculating_circle(self):
        # circle through three nearby curve points
        c = random_curve(3)
        for u in (0.2, 0.45, 0.7):
            rho = curvature_radius(c, u)
            h = 1e-5
            p0, p1, p2 = (
                np.array(evaluate(c, u + k * h) + (0.0,)) for k in (-1, 0, 1)
            )
            a = np.linalg.norm(p1 - p0)
            b = np.linalg.norm(p2 - p1)
            d = np.linalg.norm(p2 - p0)
            cross = np.linalg.norm(np.cross(p1 - p0, p2 - p0))
            rho_3pt = a * b * d / (2.0 * cross)
            assert rho == pytest.approx(rho_3pt, rel=1e-4)


class TestArcLength:
    def test_line_exact(self):
        c = make_line(start=(0.0, 0.0), end=(30.0, 40.0))
        assert arc_length(c, 0.0, 1.0) == pytest.approx(50.0, rel=1e-12)

    def test_quarter_circle(self, quarter_circle):
        assert arc_length(quarter_circle, 0.0, 1.0) == pytest.approx(
            math.pi * 2.5, rel=1e-9
        )

    def test_against_dense_polyline(self):
        for seed in (0, 5):
            c = random_curve(seed)
            pts = jets(c, np.linspace(0.0, 1.0, 40001), order=1)[0]
            poly = float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
            quad = arc_length(c, 0.0, 1.0)
            assert quad == pytest.approx(poly, rel=1e-6)

    def test_additive(self):
        c = random_curve(11)
        whole = arc_length(c, 0.0, 1.0)
        for m in (0.1, 0.37, 0.5, 0.93):
            split = arc_length(c, 0.0, m) + arc_length(c, m, 1.0)
            assert split == pytest.approx(whole, rel=2e-9)

    def test_monotone_in_upper_limit(self):
        c = random_curve(2)
        prev = 0.0
        for u in np.linspace(0.05, 1.0, 20):
            cur = arc_length(c, 0.0, float(u))
            assert cur >= prev
            prev = cur

    def test_reversed_limits_rejected(self, line_curve):
        with pytest.raises(CurveDomainError):
            arc_length(line_curve, 0.8, 0.2)


class TestParamAtLength:
    def test_round_trip(self):
        c = random_curve(4)
        total = arc_length(c, 0.0, 1.0)
        for frac in (0.05, 0.3, 0.62, 0.99):
            target = frac * total
            u = param_at_length(c, 0.0, target)
            assert arc_length(c, 0.0, u) == pytest.approx(target, abs=1e-9)

    def test_from_interior_start(self):
        c = random_curve(9)
        target = 0.4 * arc_length(c, 0.3, 1.0)
        u = param_at_length(c, 0.3, target)
        assert u > 0.3
        assert arc_length(c, 0.3, u) == pytest.approx(target, abs=1e-9)

    def test_clamps_at_curve_end(self):
        c = make_line()
        assert param_at_length(c, 0.0, 1e5) == 1.0
        assert param_at_length(c, 0.25, 0.0) == 0.25
        # so does the arc table's own inverse, which the scheduler's
        # junction anchoring calls directly
        table = random_curve(4)._arc_table
        assert table.param(table.cum[-1]) == 1.0
        assert table.param(table.cum[-1] + 1.0) == 1.0


def _random_nurbs(rng, repeat_full):
    """Seeded rational B-spline with repeated interior knots.

    With repeat_full the first interior knot has multiplicity p, where the
    curve is only C^0 and the span convention decides the derivatives.
    """
    p = int(rng.integers(1, 6))
    dim = int(rng.integers(2, 4))
    interior = np.sort(rng.uniform(0.05, 0.95, int(rng.integers(1, 6))))
    mults = rng.integers(1, p + 1, interior.size)
    if repeat_full:
        mults[0] = p
    knots = (
        [0.0] * (p + 1)
        + [float(k) for k, m in zip(interior, mults) for _ in range(m)]
        + [1.0] * (p + 1)
    )
    n = len(knots) - p - 1
    ctrl = rng.uniform(-20.0, 20.0, (n, dim))
    weights = np.exp(rng.uniform(-3.0, 3.0, n))
    weights[rng.integers(0, n)] = math.exp(3.0)
    weights[rng.integers(0, n)] = math.exp(-3.0)
    return ParametricCurve(p, ctrl, weights, knots), interior


class TestAgainstScipyBSpline:
    """evaluate and derivatives against scipy's B-spline of the
    homogeneous coordinates, through the quotient rule."""

    def test_points_and_derivatives(self):
        rng = np.random.default_rng(2024)
        for i in range(60):
            c, interior = _random_nurbs(rng, repeat_full=(i % 3 == 0))
            hom = np.array(c.control_points) * np.array(c.weights)[:, None]
            hom = np.column_stack([hom, c.weights])
            bs = BSpline(np.array(c.knots), hom, c.degree, extrapolate=False)
            scale = float(np.max(np.abs(c.control_points)))
            us = np.concatenate([rng.uniform(0.0, 1.0, 25), interior, [0.0, 1.0]])
            for u in us:
                u = float(u)
                a0, a1, a2 = (bs(u, nu=k) for k in range(3))
                w0, w1, w2 = a0[-1], a1[-1], a2[-1]
                c0 = a0[:-1] / w0
                c1 = (a1[:-1] - w1 * c0) / w0
                c2 = (a2[:-1] - 2.0 * w1 * c1 - w2 * c0) / w0
                got = np.array(evaluate(c, u))
                assert np.max(np.abs(got - c0)) <= 1e-12 * scale, (i, u)
                d1, d2 = (np.array(d) for d in derivatives(c, u, 2))
                for got_k, want_k in ((d1, c1), (d2, c2)):
                    err = np.linalg.norm(got_k - want_k)
                    assert err <= 1e-11 * np.linalg.norm(want_k), (i, u)


CURVE_FILES = sorted((Path(__file__).parent / "curves").glob("*.json"))


def same_arrays(got, want):
    """Equal shapes, dtypes and bytes, so -0.0 and 0.0 differ."""
    return all(
        a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in zip(got, want, strict=True)
    )


class TestSpanTable:
    def test_basis_runs_only_while_building_the_table(self, monkeypatch):
        # one array pass of the basis recurrences per curve builds every
        # span's row; no later query runs it again
        src = random_curve(4)
        calls = []
        basis = geometry._basis_derivatives

        def counting(*args):
            calls.append(args)
            return basis(*args)

        monkeypatch.setattr(geometry, "_basis_derivatives", counting)
        c = ParametricCurve(src.degree, src.control_points, src.weights, src.knots)
        evaluate(c, 0.5)
        assert len(calls) == 1
        spans = len(set(c.knots)) - 1
        assert calls[0][2].size == spans
        for u in np.linspace(0.0, 1.0, 17):
            evaluate(c, float(u))
            derivatives(c, float(u), 1)
            derivatives(c, float(u), 2)
        jets(c, np.linspace(0.0, 1.0, 9))
        arc_length(c, 0.1, 0.9)
        param_at_length(c, 0.2, 3.0)
        assert len(calls) == 1

        other = ParametricCurve(c.degree, c.control_points, c.weights, c.knots)
        evaluate(other, 0.5)
        assert len(calls) == 2

    @pytest.mark.parametrize("path", CURVE_FILES, ids=lambda p: p.stem)
    def test_equals_the_scalar_build_on_the_curve_files(self, path):
        c = load_curve(path)
        assert same_arrays(c._spans, oracles.scalar_spans(c))

    def test_equals_the_scalar_build_on_generated_curves(self):
        for seed in range(25):
            c = random_curve(seed)
            assert same_arrays(c._spans, oracles.scalar_spans(c))
        c = random_curve(3, n_ctrl=60, extent=90.0)
        assert same_arrays(c._spans, oracles.scalar_spans(c))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(c=st.one_of(nurbs_curves(), nurbs_curves(log_weight=30.0)))
    def test_equals_the_scalar_build(self, c):
        # degrees 1-5, interior knots up to p-fold, planar and spatial,
        # weights up to e^+-30
        assert same_arrays(c._spans, oracles.scalar_spans(c))

    def test_a_sum_of_negative_zeros_is_positive_zero(self):
        # y = -0.0 everywhere: each term of the constant coefficient is
        # -0.0, and a sum that starts from 0.0 gives +0.0, as sum() does
        c = ParametricCurve(
            2, ((-1.0, -0.0), (0.0, -0.0), (1.0, -0.0)), (1.0, 1.0, 1.0),
            (0.0, 0.0, 0.0, 1.0, 1.0, 1.0),
        )
        assert same_arrays(c._spans, oracles.scalar_spans(c))
        assert math.copysign(1.0, c._spans[2][0, 1, 2]) == 1.0


def assert_first_order_pass_matches(c, u):
    """jets at order 1 gives the first two arrays of the order-2 pass, bit
    for bit (same_arrays tells -0.0 from 0.0), whatever it gives where a
    weight e^-30 rounds the homogeneous weight to 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        full = jets(c, u)
        first = jets(c, u, order=1)
    assert len(first) == 2
    assert same_arrays(first, full[:2])


class TestFirstOrderJets:
    PARAMS = np.concatenate([np.linspace(0.0, 1.0, 257), [1e-300, 0.5 + 2e-16]])

    def test_matches_the_second_order_pass_on_the_curve_files(self):
        for path in CURVE_FILES:
            c = load_curve(path)
            assert_first_order_pass_matches(c, np.append(self.PARAMS, sorted(set(c.knots))))

    def test_matches_the_second_order_pass_on_generated_curves(self):
        for seed in range(25):
            c = random_curve(seed)
            assert_first_order_pass_matches(c, np.append(self.PARAMS, sorted(set(c.knots))))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        c=st.one_of(nurbs_curves(), nurbs_curves(log_weight=30.0)),
        us=st.lists(st.floats(0.0, 1.0), max_size=8),
    )
    def test_matches_the_second_order_pass(self, c, us):
        # degrees 1-5, planar and spatial, weights up to e^+-30, random
        # parameters and every knot
        assert_first_order_pass_matches(c, np.array(us + sorted(set(c.knots))))


class TestArcTableProperties:
    """The arc table against the adaptive-quadrature oracle and against
    its own lookups of lone parameters."""

    def test_vectorised_positions_match_scalar_lookups(self):
        # the replay carries a landing's position from a batch into the
        # next window, which a lone lookup would have to reproduce
        rng = np.random.default_rng(6)
        for seed in range(8):
            c = random_curve(seed, planar=(seed % 2 == 0))
            us = np.concatenate([rng.uniform(0.0, 1.0, 200), sorted(set(c.knots))])
            table = c._arc_table
            want = [float(table.positions(float(u))) for u in us]
            assert table.positions(us).tolist() == want

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(c=nurbs_curves(), cuts=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4))
    def test_arc_length_matches_oracle(self, c, cuts):
        us = sorted(cuts)
        for a, b in zip(us, us[1:]):
            want = oracles.arc_length(c, a, b)
            assert arc_length(c, a, b) == pytest.approx(want, rel=1e-9, abs=1e-12)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        c=nurbs_curves(),
        u0=st.floats(0.0, 1.0),
        steps=st.lists(st.integers(0, 1000), min_size=1, max_size=6),
    )
    def test_param_at_length_round_trip_and_monotone(self, c, u0, steps):
        rest = arc_length(c, u0, 1.0)
        lengths = sorted(k / 1000.0 * rest for k in steps)
        us = [param_at_length(c, u0, L) for L in lengths]
        for L, u in zip(lengths, us):
            assert abs(arc_length(c, u0, u) - L) <= geometry._LENGTH_TOL
        assert all(a <= b for a, b in zip(us, us[1:]))
