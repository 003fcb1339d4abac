import json
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles

from feedsched import chordscan, geometry
from feedsched.chordscan import (
    ChordScanError,
    FeedrateScatter,
    Limits,
    MalformedScatterError,
    ScanConvergenceError,
    StepDegeneracyError,
    scan_curve,
    taylor_step,
)
from feedsched.cli import PRESETS, load_curve
from feedsched.curvegen import random_curve
from feedsched.geometry import (
    ParametricCurve,
    arc_length,
    derivatives,
    jets,
)

from conftest import (
    make_full_circle,
    make_line,
    make_quarter_circle,
    nurbs_curves,
)

CURVES = sorted((Path(__file__).parent / "curves").glob("*.json"))
W = chordscan._BRACKET_REL_WIDTH

STD = Limits(
    Ts=1e-3, delta_max=5e-4, v_max=100.0, a_max=1000.0,
    j_max=26000.0, shape_s=3.3,
)


def chord_deviation(curve, u_a, u_b):
    """The library's chord measure of the one step from u_a to u_b."""
    u = np.array([u_a, u_b])
    p = jets(curve, u)[0]
    return float(chordscan._chord_deviations(curve, u[:1], u[1:], p[:1], p[1:])[0])


def ceiling(curve, u, limits):
    """The library's scalar search at u alone, opened at v_max as the
    reference walk opens it: the feed and the parameter it lands on."""
    x = np.array([u])
    none = np.array([math.nan])
    v, _, land, _, failed, _, _ = chordscan._ceilings(
        curve, x, jets(curve, x), limits, none, none, none
    )
    if failed[0]:
        raise ScanConvergenceError(f"feed adjustment did not converge at u={u:.6f}")
    return float(v[0]), float(land[0])


def assert_certified(curve, limits):
    """Every sample of chordscan._walk passes the reference probe's
    certificate: the probe at (u_k, v_k) fits the tolerance and lands on
    u_{k+1}, or on the curve end after the last, within 1e-10 of the
    step. Returns the worst landing miss, in steps."""
    us, vs = chordscan._walk(curve, limits)
    ahead = us[1:] + [1.0]
    worst = 0.0
    for u, v, u_next in zip(us, vs, ahead):
        delta, landing, _ = oracles._probe_step(
            curve, u, v, limits, oracles.reference_jet(curve, u)
        )
        assert delta <= limits.delta_max
        miss = abs(landing - u_next) / (u_next - u)
        assert miss <= 1e-10
        worst = max(worst, miss)
    return worst


def make_speedup_segment():
    # collinear quadratic: straight geometry, strongly non-uniform speed
    return ParametricCurve(
        degree=2,
        control_points=((0.0, 0.0), (1.0, 0.0), (4.0, 0.0)),
        weights=(1.0, 1.0, 1.0),
        knots=(0.0, 0.0, 0.0, 1.0, 1.0, 1.0),
    )


class TestLimits:
    def test_rejects_nonpositive_fields(self):
        good = dict(Ts=1e-3, delta_max=5e-4, v_max=100.0, a_max=1000.0,
                    j_max=26000.0, shape_s=3.3)
        for name in good:
            bad = dict(good)
            bad[name] = 0.0
            with pytest.raises(ValueError):
                Limits(**bad)

    def test_rejects_nonpositive_mu_s(self):
        with pytest.raises(ValueError):
            Limits(Ts=1e-3, delta_max=5e-4, v_max=100.0, a_max=1000.0,
                   j_max=26000.0, shape_s=3.3, mu_s=-1.0)

    def test_rejects_only_shapes_that_cannot_rise(self):
        # every finite positive shape schedules, steep ones too
        fields = dict(Ts=1e-3, delta_max=5e-4, v_max=100.0, a_max=1000.0,
                      j_max=26000.0)
        for s in (6e-17, 3.32, 6.0, 50.0):
            assert Limits(**fields, shape_s=s).shape_s == s
        for s in (-1.0, math.inf, math.nan, 1e-20):
            with pytest.raises(ValueError, match="shape_s"):
                Limits(**fields, shape_s=s)
        # the logistic core rises in floats from s = 5.551115123125784e-17,
        # the float after 2^-54, up
        with pytest.raises(ValueError, match="too flat"):
            Limits(**fields, shape_s=5e-17)

    def test_mu_s_defaults_to_none(self):
        assert STD.mu_s is None


class TestFeedrateScatter:
    def test_rejects_mismatched_arrays(self):
        with pytest.raises(MalformedScatterError):
            FeedrateScatter([0.0, 0.5, 1.0], [1.0, 2.0])

    def test_rejects_non_increasing_u(self):
        with pytest.raises(MalformedScatterError):
            FeedrateScatter([0.0, 0.5, 0.5, 1.0], [1.0, 1.0, 1.0, 1.0])

    def test_rejects_wrong_span(self):
        with pytest.raises(MalformedScatterError):
            FeedrateScatter([0.0, 0.9], [1.0, 1.0])
        with pytest.raises(MalformedScatterError):
            FeedrateScatter([0.1, 1.0], [1.0, 1.0])

    def test_rejects_nonpositive_feed(self):
        with pytest.raises(MalformedScatterError):
            FeedrateScatter([0.0, 1.0], [1.0, 0.0])

    def test_len_counts_samples(self):
        sc = FeedrateScatter([0.0, 0.5, 1.0], [10.0, 20.0, 40.0])
        assert len(sc) == 3


class TestTaylorStep:
    def test_line_step_is_exact(self):
        line = make_line()
        u1 = taylor_step(*derivatives(line, 0.0), 0.0, 100.0, 1e-3)
        # 100 mm/s for 1 ms over a 100 mm line advances u by exactly 1e-3
        assert u1 == pytest.approx(1e-3, rel=1e-12)

    def test_zero_feed_stays_put(self):
        assert taylor_step(*derivatives(make_line(), 0.3), 0.3, 0.0, 1e-3) == 0.3

    def test_negative_feed_rejected(self):
        with pytest.raises(ChordScanError):
            taylor_step(*derivatives(make_line(), 0.3), 0.3, -1.0, 1e-3)

    def test_clamps_at_curve_end(self):
        assert taylor_step(
            *derivatives(make_line(), 0.9995), 0.9995, 100.0, 1e-3
        ) == 1.0

    def test_degenerate_step_raises(self):
        seg = make_speedup_segment()
        # second-order term overwhelms the advance once v*Ts > 2 at u=0:
        # the reference's scalar step raises, and the library's does not
        # advance
        at = derivatives(seg, 0.0)
        with pytest.raises(StepDegeneracyError):
            oracles._taylor_step(*at, 0.0, 5000.0, 1e-3)
        assert taylor_step(*at, 0.0, 5000.0, 1e-3) == 0.0
        assert taylor_step(*at, 0.0, 1000.0, 1e-3) > 0.0

    def test_matches_arc_length_on_circle(self):
        circle = make_full_circle(radius=5.0)
        for u, v in [(0.05, 50.0), (0.3, 141.0), (0.62, 80.0), (0.9, 20.0)]:
            u1 = taylor_step(*derivatives(circle, u), u, v, 1e-3)
            s = arc_length(circle, u, u1)
            assert s == pytest.approx(v * 1e-3, rel=5e-3)

    def test_a_standing_point_steps_only_at_zero_feed(self):
        # the doubled control point stops this curve at its knot u = 0.5
        cusp = ParametricCurve(
            2, ((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (2.0, 1.0)),
            (1.0,) * 4, (0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0),
        )
        d1, d2 = derivatives(cusp, 0.5)
        assert taylor_step(d1, d2, 0.5, 0.0, 1e-3) == 0.5
        with pytest.raises(geometry.SingularCurveError, match="u=0.5"):
            taylor_step(d1, d2, 0.5, 1.0, 1e-3)

    def test_rows_step_as_lone_parameters(self):
        # one call steps every row as its own call does, the reference's
        # scalar step too; a step the curvature correction reverses stays
        # at its start
        seg = make_speedup_segment()
        u = np.array([0.0, 0.2, 0.5, 0.9995])
        v = np.array([1000.0, 0.0, 300.0, 100.0])
        _, d1, d2 = jets(seg, u)
        want = [taylor_step(*derivatives(seg, float(a)), float(a), float(b), 1e-3)
                for a, b in zip(u, v)]
        assert want == [oracles._taylor_step(*derivatives(seg, float(a)), float(a),
                                             float(b), 1e-3) for a, b in zip(u, v)]
        assert taylor_step(d1, d2, u, v, 1e-3).tolist() == want
        v[0] = 5000.0
        stayed = taylor_step(d1, d2, u, v, 1e-3)
        assert stayed[0] == 0.0 and stayed[1:].tolist() == want[1:]


class TestChordError:
    def test_straight_line_has_no_error(self):
        line = make_line()
        assert chord_deviation(line, 0.1, 0.4) == 0.0

    def test_circle_matches_sampled_deviation(self):
        circle = make_full_circle(radius=5.0)
        for u_a, u_b in [(0.1, 0.104), (0.33, 0.35), (0.7, 0.72)]:
            got = chord_deviation(circle, u_a, u_b)
            p_a, p_b = jets(circle, [u_a, u_b], order=1)[0]
            seg = p_b - p_a
            p = jets(circle, np.linspace(u_a, u_b, 2001), order=1)[0] - p_a
            t = np.clip(p @ seg / (seg @ seg), 0.0, 1.0)
            worst = np.linalg.norm(p - t[:, None] * seg, axis=1).max()
            assert got == pytest.approx(worst, rel=1e-3)

    def test_long_chord_fallback(self):
        # hairpin: midpoint radius 0.025 mm, chord 1 mm, bulges 5 mm out
        hairpin = ParametricCurve(
            degree=2,
            control_points=((0.0, 0.0), (10.0, 0.0), (0.0, 1.0)),
            weights=(1.0, 1.0, 1.0),
            knots=(0.0, 0.0, 0.0, 1.0, 1.0, 1.0),
        )
        assert chord_deviation(hairpin, 0.0, 1.0) == pytest.approx(5.0, abs=1e-9)

    def test_half_circle_spans_full_radius(self):
        circle = make_full_circle(radius=5.0)
        assert chord_deviation(circle, 0.0, 0.5) == pytest.approx(5.0, abs=1e-6)

    def test_sampled_chords_equal_the_scalar_measure(self):
        # the chords sampled together in one pass take each chord's
        # former arithmetic, bit for bit, planar and spatial
        rng = np.random.default_rng(5)
        for seed in range(8):
            c = random_curve(seed, planar=(seed % 2 == 0))
            u_a = rng.uniform(0.0, 1.0, 20)
            u_b = np.minimum(u_a + rng.uniform(0.0, 0.3, 20), 1.0)
            p_a, p_b = (jets(c, u, order=1)[0] for u in (u_a, u_b))
            got = chordscan._sampled_deviations(c, u_a, u_b, p_a, p_b)
            want = [
                oracles._sampled_deviation(c, *u, p.tolist(), q.tolist())
                for *u, p, q in zip(u_a.tolist(), u_b.tolist(), p_a, p_b)
            ]
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]


class TestLimitFeedrate:
    def test_straight_line_keeps_programmed_feed(self):
        v, u1 = ceiling(make_line(), 0.2, STD)
        assert v == STD.v_max
        assert u1 > 0.2

    def test_matches_bisection_oracle_on_tight_arc(self):
        arc = make_quarter_circle(radius=2.0)
        u = 0.3
        v_got, _ = ceiling(arc, u, STD)

        def too_big(v):
            u1 = taylor_step(*derivatives(arc, u), u, v, STD.Ts)
            return chord_deviation(arc, u, u1) > STD.delta_max

        assert too_big(STD.v_max)
        lo, hi = 1e-3, STD.v_max
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if too_big(mid):
                hi = mid
            else:
                lo = mid
        assert v_got <= lo * (1.0 + 1e-9)
        assert v_got >= lo * (1.0 - 5e-3)

    def test_recovers_from_degenerate_probe(self):
        seg = make_speedup_segment()
        lim = Limits(Ts=1e-3, delta_max=5e-4, v_max=5000.0, a_max=1000.0,
                     j_max=26000.0, shape_s=3.3)
        v, u1 = ceiling(seg, 0.0, lim)
        assert 0.0 < v < 5000.0
        assert u1 > 0.0


class TestScanCurve:
    def test_straight_line_scan(self):
        sc = scan_curve(make_line(), STD)
        assert 1000 <= len(sc) <= 1003
        assert np.all(sc.v == STD.v_max)
        assert sc.u[0] == 0.0 and sc.u[-1] == 1.0

    def test_circle_settles_at_curvature_feed(self):
        lim = Limits(Ts=1e-3, delta_max=5e-4, v_max=200.0, a_max=1000.0,
                     j_max=26000.0, shape_s=3.3)
        circle = make_full_circle(radius=5.0)
        sc = scan_curve(circle, lim)
        # steady feed on a constant-radius path: the largest v whose
        # per-period chord keeps the sagitta inside the tolerance
        d, r = lim.delta_max, 5.0
        v_star = (2.0 / lim.Ts) * math.sqrt(d * (2.0 * r - d))
        rel = sc.v / v_star - 1.0
        # never above the curvature ceiling; steps that straddle the
        # quadrant seams settle slightly (and safely) below it
        assert np.all(rel < 2e-3)
        assert np.all(rel > -2e-2)
        assert np.median(np.abs(rel)) < 2e-3

    def test_every_realized_step_is_chord_safe(self):
        curve = random_curve(seed=3)
        sc = scan_curve(curve, STD)
        assert np.all(sc.v <= STD.v_max * (1.0 + 1e-12))
        for i in range(len(sc) - 1):
            err = chord_deviation(curve, float(sc.u[i]), float(sc.u[i + 1]))
            assert err <= STD.delta_max * (1.0 + 1e-9)

    def test_scan_is_deterministic(self):
        curve = random_curve(seed=11)
        a = scan_curve(curve, STD)
        b = scan_curve(curve, STD)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.v, b.v)

    def test_a_curve_that_curls_at_its_end_settles(self):
        # from u = 0.994717 on this rational quartic every feed whose step
        # reaches u = 1 measures the same final chord, 1.93e-3 mm long and
        # 5.19e-4 mm off the curve, so rescaling by at most 0.95 a probe
        # gave up after 64 probes; such a probe now enters the bracket at
        # the feed whose step just reaches the end, 1.93 mm/s, which the
        # feeds below it fit up to: the ceiling settles there
        curve = load_curve(Path(__file__).parent / "curves" / "end_curl.json")
        for limits in PRESETS.values():
            sc = scan_curve(curve, limits)
            assert len(sc) == 166 and sc.u[-1] == 1.0
            for i in range(len(sc) - 1):
                err = chord_deviation(curve, float(sc.u[i]), float(sc.u[i + 1]))
                assert err <= limits.delta_max * (1.0 + 1e-9)

    def test_a_ceiling_past_its_probe_budget_raises(self, monkeypatch):
        # one probe on either side of the closed-form ceiling, 89.4 mm/s on
        # this 2 mm radius, leaves the feed without a bracket
        monkeypatch.setattr(chordscan, "_MAX_FEED_ITERATIONS", 1)
        arc = make_quarter_circle(radius=2.0)
        with pytest.raises(ScanConvergenceError, match="not converge at u=0.000000"):
            scan_curve(arc, STD)

    def test_a_feed_that_underflows_to_zero_raises_a_scan_error(self, monkeypatch):
        # the least positive v_max advances no parameter, and halving it
        # gives 0 mm/s, a feed that cannot advance either: the scan
        # reports it after that one probe, as the reference does
        calls = []
        step = chordscan.taylor_step
        monkeypatch.setattr(
            chordscan, "taylor_step", lambda *a: calls.append(a) or step(*a)
        )
        limits = replace(STD, v_max=5e-324)
        with pytest.raises(ScanConvergenceError, match="not converge at u=0.000000"):
            scan_curve(make_quarter_circle(radius=2.0), limits)
        assert len(calls) == 1

    def test_a_well_probe_that_does_not_settle_adds_no_sample(self, monkeypatch):
        # both midpoints beside the dip fail to bracket their ceiling in
        # one probe
        monkeypatch.setattr(chordscan, "_MAX_FEED_ITERATIONS", 1)
        arc = make_quarter_circle(radius=2.0)
        us, vs = [0.0, 0.25, 0.5, 0.75, 1.0], [50.0, 50.0, 10.0, 50.0, 50.0]
        assert chordscan._refine_wells(arc, us, vs, STD) == (us, vs)

    def test_a_scan_past_its_point_cap_raises(self, monkeypatch):
        # a straight line takes about 1000 walk steps at STD; a cap of 5
        # refuses it
        monkeypatch.setattr(chordscan, "_MAX_SCAN_POINTS", 5)
        with pytest.raises(ScanConvergenceError, match="too many points"):
            scan_curve(make_line(), STD)

    def test_a_plan_past_the_point_cap_is_refused_before_the_walk(self, monkeypatch):
        # the closed-form plan counts the line's 1000 samples, so a cap
        # below that refuses the scan before any window is predicted
        predicted = count_predictions(monkeypatch)
        monkeypatch.setattr(chordscan, "_MAX_SCAN_POINTS", 5)
        with pytest.raises(ScanConvergenceError, match="its plan counts 1000 samples"):
            scan_curve(make_line(), STD)
        assert predicted == []

    def test_a_walk_past_the_point_cap_stops_after_its_window(self, monkeypatch):
        # cruise.json's plan counts 1603.02 samples and its walk takes
        # 1604: a cap between the two lets the walk start, and the check
        # after each window stops it
        predicted = count_predictions(monkeypatch)
        monkeypatch.setattr(chordscan, "_MAX_SCAN_POINTS", 1603.5)
        with pytest.raises(ScanConvergenceError, match="too many points$"):
            scan_curve(load_curve(CRUISE), STD)
        assert predicted


def count_predictions(monkeypatch):
    """A list that gets one entry per chordscan._predict call."""
    calls = []
    predict = chordscan._predict
    monkeypatch.setattr(chordscan, "_predict", lambda *a: calls.append(a) or predict(*a))
    return calls


class TestCeilingRootFind:
    """The windowed walk's ceilings against the former 24-step bisection."""

    def test_matches_bisection_oracle_with_fewer_probes(self, monkeypatch):
        # every sample's ceiling fits, lands on the next sample and is no
        # more than the bracket width below the bisection's; the walk takes
        # a probe round (one taylor_step call for all of a window's
        # searches) for every few windows' samples
        calls = [0]
        step = chordscan.taylor_step

        def counted(*args):
            calls[0] += 1
            return step(*args)

        monkeypatch.setattr(chordscan, "taylor_step", counted)
        points = probes = 0
        worst = 0.0
        for seed in (6, 12, 18, 24):
            curve = random_curve(seed)
            for limits in PRESETS.values():
                calls[0] = 0
                sc = scan_curve(curve, limits)
                points += len(sc)
                probes += calls[0]
                us, vs = chordscan._walk(curve, limits)
                for u, v in zip(us, vs):
                    oracle, _ = oracles.bisect_feedrate(curve, u, limits)
                    assert v >= oracle * (1.0 - W)
                    worst = min(worst, v / oracle - 1.0)
                assert_certified(curve, limits)
        print(f"worst feed vs bisection {worst:.3e} rel; "
              f"{probes / points:.3f} probe rounds per scatter point")
        assert probes / points <= 0.1

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        c=nurbs_curves(),
        u=st.floats(0.0, 1.0, exclude_max=True),
        delta_max=st.floats(1e-5, 1e-1),
        v_max=st.floats(10.0, 5000.0),
    )
    def test_ceiling_is_safe_or_a_scan_error(self, c, u, delta_max, v_max):
        limits = Limits(Ts=1e-3, delta_max=delta_max, v_max=v_max,
                        a_max=1000.0, j_max=26000.0, shape_s=3.3)
        try:
            v, u_next = ceiling(c, u, limits)
        except ChordScanError:
            return
        assert 0.0 < v <= v_max
        assert u_next > u
        delta, landing, _ = oracles._probe_step(c, u, v, limits, oracles.reference_jet(c, u))
        assert delta <= delta_max
        assert abs(landing - u_next) <= 1e-10 * (u_next - u)


# The walk solves its chain of samples to a match of 1e-10 of a step, and
# its ceilings sit anywhere in the last bracket, as the reference's do; the
# chain carries those differences along the curve.
U_MATCH = 1e-6
V_MATCH = 1e-6
SCAN_DRAWS = json.loads((Path(__file__).parent / "scan_draws.json").read_text())
# The pinned draws on which the scan parts from the reference.
PARTING_DRAWS = {
    "another-root-at-the-start", "polyline-end-sliver", "another-root-mid-path",
    "another-root-fewer-samples", "drift-past-the-match", "feed-before-the-end",
}


class TestScalarScanReference:
    """The windowed scan against the former walk, which searched each
    ceiling alone by a scalar rescale from v_max and an Illinois bracket:
    the same samples, each u within U_MATCH of its step and each feed
    within V_MATCH, and every sample passes the reference probe's
    certificate."""

    def assert_same_scan(self, curve, limits, u_match=U_MATCH, v_match=V_MATCH):
        got = scan_curve(curve, limits)
        ref = oracles.scalar_scan(curve, limits)
        assert len(got) == len(ref)
        du = np.abs(got.u - ref.u)[1:] / np.diff(ref.u)
        dv = np.abs(got.v / ref.v - 1.0)
        assert du.max() <= u_match
        assert dv.max() <= v_match
        assert_certified(curve, limits)
        return du.max(), dv.max()

    def test_corpus_scans_are_bit_identical(self):
        worst = np.zeros(2)
        for seed in range(25):
            curve = random_curve(seed)
            for limits in PRESETS.values():
                worst = np.fmax(worst, self.assert_same_scan(curve, limits))
        print(f"worst u {worst[0]:.2e} of a step, v {worst[1]:.2e} rel")

    @pytest.mark.parametrize("n", [20, 40, 80, 160])
    def test_long_scans_are_bit_identical(self, n):
        curve = random_curve(3, n_ctrl=n, extent=1.5 * n)
        du, dv = self.assert_same_scan(curve, PRESETS["standard"])
        print(f"n = {n}: worst u {du:.2e} of a step, v {dv:.2e} rel")

    # end_curl.json caps the rescale at the clamped curve end and then
    # runs a long bracket; nearer_root.json has feeds whose landings jump
    # to a farther root, so its deviation falls back below the tolerance
    # far above the first root, and a near-cusp where each landing moves
    # up to a hundred times as far as the sample before it; spatial.json
    # is a 3-D curve
    @pytest.mark.parametrize("path", CURVES, ids=lambda p: p.stem)
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_committed_curves_scan_bit_identical(self, path, preset):
        du, dv = self.assert_same_scan(load_curve(path), PRESETS[preset])
        print(f"{path.stem}: worst u {du:.2e} of a step, v {dv:.2e} rel")

    # A degree-5 curve on which a well probe at u = 0.994889 once gave up
    # settling its feed, because the curve end clamped each probe's
    # landing; it now settles there, as the scalar walk does.
    RAISING = ParametricCurve(
        5,
        (
            (5.305433953309237, 1e-10), (7.071190396502029, 1e-10),
            (7.1032584746321845, 9.177146621351563),
            (10.49556430242292, 8.639848090020505),
            (11.559459937713184, 7.582433281532215),
            (12.263231498764618, 10.117490544405833),
            (13.258240772618077, 10.01780832409743),
            (10.878544318951828, 10.268412315387518),
            (14.294993358930917, 5.649251213729805),
            (6.78213819435041, 8.52783240524695),
            (14.456347057010948, 6.166189922472168),
            (14.412728688592273, 5.467550217089993),
            (22.105830486489666, 9.860719101551487),
            (22.338527161847, 6.496786168559593),
            (17.171343015922222, 4.339792866453793),
            (17.494210060010964, 4.721574049648303),
            (26.365178183178266, 3.1881617477829813),
            (32.2278611633514, 0.3072397288936237),
            (31.033874326883, 2.3804478727716787),
        ),
        (
            1.1051709180756477, 1.0, 2.254220609111682, 1.0, 1.0,
            8.086536856298157, 1.0000000001, 1.0, 14.90782677152197,
            5.875078078988934, 1.0, 1.0, 6.311598078990553, 1.0, 1.0,
            2.3001342828606113, 1.0, 0.33364399439327985, 12.177869356838576,
        ),
        (0.0,) * 6 + (0.4589018554714285,) * 3 + (0.616753164625226,) * 3
        + (0.6348775714727946,) * 2 + (0.8161216399484792,) * 5 + (1.0,) * 6,
    )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(c=nurbs_curves(), delta_max=st.floats(1e-3, 1e-1))
    @example(c=RAISING, delta_max=1e-3)
    def test_random_curves_scan_bit_identical_or_raise_alike(self, c, delta_max):
        # a feed cap of 1/40 of the path per period keeps each walk short;
        # on these curves a deviation may have several roots, and a chain
        # may pass a near-cusp as nearer_root.json's does
        self.assert_random_draw_scans_alike(c, delta_max)

    # Draws of the strategy above that part from the reference by more
    # than the match, found among 1500 derandomized ones; scan_draws.json
    # notes how each parts. The drift within the reference's own spread
    # passes; the others fail.
    @pytest.mark.parametrize(
        "draw",
        [
            pytest.param(
                draw, id=draw["name"],
                marks=pytest.mark.xfail(strict=True, reason=draw["note"])
                if draw["name"] in PARTING_DRAWS else (),
            )
            for draw in SCAN_DRAWS
        ],
    )
    def test_pinned_random_draws(self, draw):
        c = ParametricCurve(
            draw["degree"], draw["control_points"], draw["weights"], draw["knots"]
        )
        self.assert_random_draw_scans_alike(c, draw["delta_max"])

    def assert_random_draw_scans_alike(self, c, delta_max):
        """The scan of a random draw at a feed cap of 1/40 of the path per
        period raises as the reference does, or matches it within ten
        times the reference's own spread at one ulp of the tolerance."""
        limits = Limits(Ts=1e-3, delta_max=delta_max,
                        v_max=arc_length(c, 0.0, 1.0) / 40e-3,
                        a_max=1000.0, j_max=26000.0, shape_s=3.3)
        try:
            scan_curve(c, limits)
        except ChordScanError as err:
            with pytest.raises(type(err)):
                oracles.scalar_scan(c, limits)
            return
        # where the reference's own samples move by more than the match
        # when the tolerance moves by one ulp, its scan is an outcome of
        # its rounding (its last bracket end flips with the sign of its
        # last secant's error): the scan is held to ten times that spread
        du, dv = reference_spread(c, limits)
        if du > U_MATCH or dv > V_MATCH:
            print(f"reference spread at one ulp: u {du:.1e} of a step, v {dv:.1e} rel")
        self.assert_same_scan(c, limits, max(U_MATCH, 10.0 * du), max(V_MATCH, 10.0 * dv))

    def test_corpus_scans_probe_as_often(self, monkeypatch):
        # every window certifies all its samples in a bounded number of
        # probe rounds, whatever its length
        windows = window_work(monkeypatch)
        for seed in range(25):
            curve = random_curve(seed)
            for limits in PRESETS.values():
                scan_curve(curve, limits)
        for n in (20, 40, 80, 160):
            scan_curve(random_curve(3, n_ctrl=n, extent=1.5 * n), PRESETS["standard"])
        rounds = max(w["rounds"] for w in windows)
        print(f"{len(windows)} windows; at most {rounds} probe rounds each")
        assert 0 < rounds <= WINDOW_ROUNDS


def reference_spread(curve, limits):
    """How far the reference scan moves when the tolerance moves by one
    ulp either way: its largest change of a sample, in steps, and of a
    feed, relative. Both scans must keep the reference's sample count."""
    ref = oracles.scalar_scan(curve, limits)
    du = dv = 0.0
    for tol in (math.nextafter(limits.delta_max, 0.0), math.nextafter(limits.delta_max, 1.0)):
        other = oracles.scalar_scan(curve, replace(limits, delta_max=tol))
        assert len(other) == len(ref)
        du = max(du, (np.abs(other.u - ref.u)[1:] / np.diff(ref.u)).max())
        dv = max(dv, np.abs(other.v / ref.v - 1.0).max())
    return du, dv


# Bounds on the work of one window of the walk, its prediction included:
# probe rounds (taylor_step calls, one per round for all its searches) and
# geometry.jets passes. The corpus and the long curves take at most 9
# rounds and 32 passes; the committed curves at most 159 passes, in the
# first window of nearer_root.json, which ends early at its near-cusp and
# whose 37 samples then take the scalar search (151 before the prediction
# skipped the central differences of capped chords: 8 of its steps uncap
# a chord whose neighbours were capped, and take one pass more).
WINDOW_ROUNDS = 16
WINDOW_PASSES = 180


def window_work(monkeypatch):
    """Per-window counts of probe rounds and jets passes: one Counter per
    window of every scan run after the call, its prediction included."""
    windows = []
    inside = [False]
    step, batch = chordscan.taylor_step, chordscan.jets
    predict, window = chordscan._predict, chordscan._window

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            if inside[0]:
                windows[-1][key] += 1
            return fn(*args, **kwargs)
        return wrapped

    def within(fn, start):
        def wrapped(*args):
            if start:
                windows.append(Counter())
            inside[0] = True
            try:
                return fn(*args)
            finally:
                inside[0] = False
        return wrapped

    monkeypatch.setattr(chordscan, "taylor_step", counting("rounds", step))
    monkeypatch.setattr(chordscan, "jets", counting("passes", batch))
    monkeypatch.setattr(chordscan, "_predict", within(predict, True))
    monkeypatch.setattr(chordscan, "_window", within(window, False))
    return windows


class TestScanWork:
    def test_one_jet_per_visited_parameter(self, monkeypatch):
        # a window takes a bounded number of jets passes, whatever its
        # length: the walk evaluates its samples, landings and midpoints
        # together, never one by one
        windows = window_work(monkeypatch)
        for path in CURVES:
            for limits in PRESETS.values():
                scan_curve(load_curve(path), limits)
        for seed in range(25):
            scan_curve(random_curve(seed), PRESETS["standard"])
        for n in (20, 40, 80, 160):
            scan_curve(random_curve(3, n_ctrl=n, extent=1.5 * n), PRESETS["standard"])
        passes = max(w["passes"] for w in windows)
        print(f"{len(windows)} windows; at most {passes} jets passes each")
        assert 0 < passes <= WINDOW_PASSES

    def test_end_curl_windows_take_no_more_rounds_than_the_corpus(self, monkeypatch):
        # its clamped end enters the bracket at the feed that just reaches
        # the end, so its last ceilings settle as fast as the corpus's
        windows = window_work(monkeypatch)
        for seed in range(25):
            for limits in PRESETS.values():
                scan_curve(random_curve(seed), limits)
        corpus = max(w["rounds"] for w in windows)
        windows.clear()
        curve = load_curve(Path(__file__).parent / "curves" / "end_curl.json")
        for limits in PRESETS.values():
            scan_curve(curve, limits)
        curl = max(w["rounds"] for w in windows)
        print(f"probe rounds per window: end_curl.json {curl}, corpus {corpus}")
        assert curl <= corpus

    @pytest.mark.parametrize("path", CURVES, ids=lambda p: p.stem)
    def test_a_window_that_stops_short_restarts_from_its_landing(
        self, path, monkeypatch
    ):
        # one round a window stops every window at its first link that
        # misses; the walk restarts from that sample's landing, and its
        # samples still match the reference and pass the certificate
        windows = window_work(monkeypatch)
        curve, limits = load_curve(path), PRESETS["standard"]
        full = scan_curve(curve, limits)
        whole = len(windows)
        monkeypatch.setattr(chordscan, "_WINDOW_ROUNDS", 1)
        windows.clear()
        short = scan_curve(curve, limits)
        print(f"{path.stem}: {whole} windows, {len(windows)} at one round each")
        assert len(windows) > whole
        assert len(short) == len(full)
        assert (np.abs(short.u - full.u)[1:] / np.diff(full.u)).max() <= U_MATCH
        assert np.abs(short.v / full.v - 1.0).max() <= V_MATCH
        assert_certified(curve, limits)


CRUISE = Path(__file__).parent / "curves" / "cruise.json"


class TestOnlyWhatCallersRead:
    """The scan computes only what its callers read: each probe round
    probes a parameter at a feed once, and the prediction takes central
    differences only for chords below the feed cap."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_no_round_probes_a_feed_twice(self, preset, monkeypatch):
        # on cruise.json a carried-over bracket whose unsafe end is v_max
        # reopens with its safe end at v_max too: one probe serves both
        probe = chordscan._probe
        rows = []

        def once(curve, u, v, at_u, Ts):
            assert len(set(zip(u.tolist(), v.tolist()))) == u.size
            rows.append(u.size)
            return probe(curve, u, v, at_u, Ts)

        monkeypatch.setattr(chordscan, "_probe", once)
        scatter = scan_curve(load_curve(CRUISE), PRESETS[preset])
        print(f"{len(scatter)} samples: {len(rows)} rounds, {sum(rows)} probe rows")
        assert len(rows) > 0

    def test_predictions_equal_the_every_point_reference(self, monkeypatch):
        # x, the feeds and the jets at the samples bit for bit; the
        # slopes equal in value: a capped chord's is +0.0 where the
        # reference's 0 times a falling curvature gives -0.0
        predict = chordscan._predict
        windows = []

        def both(curve, plan, limits, u0):
            got = predict(curve, plan, limits, u0)
            want = oracles.predict_every_point(curve, plan, limits, u0)
            x, feed, slope, at_x = got
            assert x.tobytes() == want[0].tobytes()
            assert feed.tobytes() == want[1].tobytes()
            assert np.array_equal(slope, want[2])
            assert (at_x is None) == (want[3] is None)
            if at_x is not None:
                assert all(a.tobytes() == b.tobytes() for a, b in zip(at_x, want[3], strict=True))
            windows.append(x.size)
            return got

        monkeypatch.setattr(chordscan, "_predict", both)
        for seed in range(25):
            for limits in PRESETS.values():
                scan_curve(random_curve(seed), limits)
        for n in (20, 40, 80, 160):
            scan_curve(random_curve(3, n_ctrl=n, extent=1.5 * n), PRESETS["standard"])
        for limits in PRESETS.values():
            scan_curve(load_curve(CRUISE), limits)
        print(f"{len(windows)} windows, {sum(windows)} predicted samples")


def capped_steps(curve, plan, limits, u0, n):
    """Whether the plan caps each of the n steps of a window from u0 at
    v_max Ts: every node of the arc grid in or next to the step's span,
    one closed-form step by the plan's running count, has a capped chord.
    The plan's last step may end at the curve end, so fewer may return."""
    grid, count, _ = plan
    at, excess = grid[1], grid[3]
    s0 = float(curve._arc_table.positions(u0))
    ends = np.interp(np.interp(s0, at, count) + np.arange(1, n + 1), count, at)
    ends = np.append(s0, ends[ends < at[-1]])
    _, dchord = chordscan._closed_form_chords(np.sqrt(24.0 * excess), limits)
    capped = dchord == 0.0
    lo = np.searchsorted(at, ends[:-1], side="right") - 1
    hi = np.searchsorted(at, ends[1:], side="left")
    return np.array([capped[a : b + 1].all() for a, b in zip(lo, hi)])


def window_sizes(curve, limits, monkeypatch):
    """The sample count of each window of a scan of curve, after checking
    the rule that sizes it: a window longer than _WINDOW_SAMPLES runs on
    only through steps the plan caps, from the last of the first
    _WINDOW_SAMPLES samples on, and stops at the first step the plan
    leaves uncapped, unless it ends the curve or is _CAPPED_STRETCH times
    _WINDOW_SAMPLES long."""
    start = chordscan._window_start
    size, sizes = chordscan._WINDOW_SAMPLES, []

    def checked(curve, plan, u0):
        x = start(curve, plan, u0)
        n = x.size - 1
        sizes.append(n)
        if n > size:
            capped = capped_steps(curve, plan, limits, u0, n + 1)
            assert capped[size - 1 : n].all()
            if capped.size > n and n < chordscan._CAPPED_STRETCH * size:
                assert not capped[n]
        return x

    monkeypatch.setattr(chordscan, "_window_start", checked)
    scan_curve(curve, limits)
    monkeypatch.setattr(chordscan, "_window_start", start)
    return sizes


class TestWindowsSizedByTheChain:
    """A scan window runs on past _WINDOW_SAMPLES samples through a run of
    steps the plan caps at v_max; chord-bound stretches keep windows of
    _WINDOW_SAMPLES."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_cruise_scans_in_two_windows(self, preset, monkeypatch):
        # 98 % of its 1605 samples sit at v_max: the first window runs
        # on to its first uncapped step, the second to the curve end
        sizes = window_sizes(load_curve(CRUISE), PRESETS[preset], monkeypatch)
        print(f"cruise.json, {preset}: windows of {sizes} samples")
        assert len(sizes) <= 2
        assert max(sizes) > chordscan._WINDOW_SAMPLES

    @pytest.mark.parametrize("n", [160, 320])
    def test_long_windows_run_only_through_capped_steps(self, n, monkeypatch):
        # chord-bound curves: a window passes _WINDOW_SAMPLES only where
        # its last sample's step is capped
        curve = random_curve(3, n_ctrl=n, extent=1.5 * n)
        sizes = window_sizes(curve, PRESETS["standard"], monkeypatch)
        print(f"n = {n}: windows of {sizes} samples")
        assert max(sizes) < 2 * chordscan._WINDOW_SAMPLES
