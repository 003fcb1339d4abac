import math

import numpy as np
import pytest

from conftest import make_full_circle, make_line, make_quarter_circle
from feedsched.chordscan import Limits, scan_curve
from feedsched.curvegen import random_curve
from feedsched.geometry import arc_length, evaluate
from feedsched.optimizer import schedule
from feedsched.segmentation import Block, build_blocks, find_breakpoints
from feedsched.simulator import (
    InterpolationSample,
    RunSummary,
    SimulationError,
    interpolate,
    summarize,
    total_time,
)
from feedsched.sprofile import block_duration

STD = Limits(
    Ts=1e-3, delta_max=5e-4, v_max=100.0, a_max=1000.0, j_max=26000.0,
    shape_s=3.3,
)


def timed_block(u_s, u_e, v_s, v_e, L):
    return Block(u_s, u_e, v_s, v_e, L, T=block_duration(L, v_s, v_e))


def scheduled_run(seed, limits):
    curve = random_curve(seed)
    scatter = scan_curve(curve, limits)
    bps = find_breakpoints(scatter)
    blocks = build_blocks(curve, scatter, bps, limits)
    return curve, schedule(curve, blocks, scatter, limits)


class TestTotalTime:
    def test_sums_durations(self):
        blocks = [
            timed_block(0.0, 0.5, 20.0, 80.0, 10.0),
            timed_block(0.5, 1.0, 80.0, 80.0, 10.0),
        ]
        want = 2.0 * 10.0 / 100.0 + 10.0 / 80.0
        assert total_time(blocks) == pytest.approx(want, rel=1e-15)

    def test_unfilled_duration_raises(self):
        b = timed_block(0.0, 1.0, 20.0, 80.0, 10.0)
        b.T = 0.0
        with pytest.raises(SimulationError):
            total_time([b])


class TestStraightLine:
    def test_constant_feed_steps_exactly(self):
        curve = make_line(end=(100.0, 0.0))
        blocks = [timed_block(0.0, 1.0, 100.0, 100.0, 100.0)]
        samples = interpolate(curve, blocks, STD)
        assert len(samples) == 1001
        for k, s in enumerate(samples):
            assert s.t == pytest.approx(k * 1e-3, abs=1e-15)
            assert s.position[0] == pytest.approx(0.1 * k, abs=5e-6)
            assert s.v == 100.0
            assert s.A == 0.0 and s.J == 0.0
            assert s.chord_err == 0.0
        assert samples[-1].u == 1.0

    def test_parameter_is_monotone(self):
        curve = make_line(end=(100.0, 0.0))
        blocks = [timed_block(0.0, 1.0, 100.0, 100.0, 100.0)]
        samples = interpolate(curve, blocks, STD)
        us = [s.u for s in samples]
        assert all(b > a for a, b in zip(us[:-1], us[1:]))

    def test_ramp_travel_matches_profile(self):
        curve = make_line(end=(100.0, 0.0))
        blocks = [timed_block(0.0, 1.0, 20.0, 80.0, 100.0)]
        samples = interpolate(curve, blocks, STD)
        assert total_time(blocks) == pytest.approx(2.0, rel=1e-12)
        assert len(samples) == 2001
        assert samples[-1].u == 1.0
        assert samples[-1].position[0] == pytest.approx(100.0, abs=1e-9)
        # feed trace runs the whole commanded range
        vs = [s.v for s in samples]
        assert vs[0] == pytest.approx(20.0, rel=1e-12)
        assert vs[-1] == pytest.approx(80.0, rel=1e-12)
        assert max(vs) <= 80.0 * (1.0 + 1e-12)

    def test_block_boundary_inside_one_tick(self):
        # lengths chosen so the junction time is not a tick multiple;
        # the travel integral splits there and stays exact
        curve = make_line(end=(20.0, 0.0))
        blocks = [
            timed_block(0.0, 0.49925, 40.0, 40.0, 9.985),
            timed_block(0.49925, 1.0, 40.0, 40.0, 10.015),
        ]
        assert blocks[0].T / STD.Ts != int(blocks[0].T / STD.Ts)
        samples = interpolate(curve, blocks, STD)
        assert samples[-1].u == 1.0
        for k, s in enumerate(samples):
            assert s.position[0] == pytest.approx(0.04 * k, abs=5e-6)


class TestChordMeasurement:
    def test_circle_sagitta(self):
        radius = 5.0
        curve = make_full_circle(radius)
        L = arc_length(curve, 0.0, 1.0)
        blocks = [timed_block(0.0, 1.0, 100.0, 100.0, L)]
        samples = interpolate(curve, blocks, STD)
        chord = 100.0 * STD.Ts
        want = radius - math.sqrt(radius**2 - 0.25 * chord**2)
        errs = [s.chord_err for s in samples[1:-1]]
        assert np.median(errs) == pytest.approx(want, rel=1e-3)
        assert max(errs) <= want * 1.01

    def test_chords_recover_arc_length(self):
        curve = make_quarter_circle(5.0)
        L = arc_length(curve, 0.0, 1.0)
        blocks = [timed_block(0.0, 1.0, 30.0, 30.0, L)]
        samples = interpolate(curve, blocks, STD)
        total = 0.0
        prev = samples[0]
        for s in samples[1:]:
            total += math.dist(prev.position, s.position)
            prev = s
        assert total == pytest.approx(L, rel=1e-3)


class TestScheduledRun:
    def test_end_to_end_invariants(self):
        curve, blocks = scheduled_run(3, STD)
        samples = interpolate(curve, blocks, STD)
        t_total = total_time(blocks)
        assert abs(len(samples) - (math.ceil(t_total / STD.Ts) + 1)) <= 1
        us = np.array([s.u for s in samples])
        assert np.all(np.diff(us) >= 0.0)
        assert us[-1] == 1.0
        for s in samples:
            assert s.chord_err <= 1.05 * STD.delta_max
            assert s.v <= STD.v_max * (1.0 + 1e-9)
            assert abs(s.A) <= STD.a_max * (1.0 + 1e-6)
            assert abs(s.J) <= STD.j_max * (1.0 + 1e-6)
            assert all(math.isfinite(c) for c in s.position)
        chords = sum(
            math.dist(a.position, b.position)
            for a, b in zip(samples[:-1], samples[1:])
        )
        assert chords == pytest.approx(arc_length(curve, 0.0, 1.0), rel=1e-3)

    def test_replay_is_deterministic(self):
        curve, blocks = scheduled_run(7, STD)
        first = interpolate(curve, blocks, STD)
        second = interpolate(curve, blocks, STD)
        assert first == second

    def test_sine_replay(self):
        curve, blocks = scheduled_run(3, STD)
        from feedsched.baseline import SINE, sine_schedule
        from feedsched.chordscan import scan_curve as _scan

        scatter = _scan(curve, STD)
        bps = find_breakpoints(scatter)
        raw = build_blocks(curve, scatter, bps, STD)
        sine_blocks = sine_schedule(curve, raw, scatter, STD)
        samples = interpolate(curve, sine_blocks, STD, family=SINE)
        assert samples[-1].u == 1.0
        for s in samples:
            assert s.chord_err <= 1.05 * STD.delta_max
            assert abs(s.A) <= STD.a_max * (1.0 + 1e-6)

    def test_summary_folds_maxima(self):
        curve, blocks = scheduled_run(3, STD)
        samples = interpolate(curve, blocks, STD)
        summary = summarize(samples, blocks)
        assert summary.max_feed == max(s.v for s in samples)
        assert summary.max_accel == max(abs(s.A) for s in samples)
        assert summary.max_jerk == max(abs(s.J) for s in samples)
        assert summary.max_chord_err == max(s.chord_err for s in samples)
        assert summary.total_time == pytest.approx(total_time(blocks), rel=1e-15)
        assert summary.n_points == len(samples)


class TestPathEnd:
    def test_chordal_drift_absorbed_at_curve_end(self):
        # chord steps consume slightly more arc than they command on a
        # curved path, so the walk reaches u = 1 marginally early; the
        # tail of the plan must finish there instead of failing
        curve = make_quarter_circle(5.0)
        L = arc_length(curve, 0.0, 1.0)
        blocks = [timed_block(0.0, 1.0, 50.0, 50.0, L)]
        samples = interpolate(curve, blocks, STD)
        assert samples[-1].u == 1.0
        end = evaluate(curve, 1.0)
        assert math.dist(samples[-1].position, end) < 1e-9

    def test_plan_longer_than_path_raises(self):
        curve = make_line(end=(10.0, 0.0))
        blocks = [timed_block(0.0, 1.0, 50.0, 50.0, 10.5)]
        with pytest.raises(SimulationError, match="past the path end"):
            interpolate(curve, blocks, STD)


class TestErrors:
    def test_empty_schedule(self):
        curve = make_line()
        with pytest.raises(SimulationError):
            interpolate(curve, [], STD)

    def test_zero_duration_schedule(self):
        curve = make_line()
        b = timed_block(0.0, 1.0, 10.0, 10.0, 0.0)
        b.L = 0.0
        b.T = 0.0
        with pytest.raises(SimulationError):
            interpolate(curve, [b], STD)

    def test_empty_summary(self):
        with pytest.raises(SimulationError):
            summarize([], [])
