import dataclasses
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings, strategies as st

import oracles
from oracles import _chord_deviation
from conftest import make_full_circle, make_line, make_quarter_circle, nurbs_curves
from feedsched import chordscan, geometry, simulator, sprofile
from feedsched.baseline import SINE, sine_schedule
from feedsched.chordscan import (
    ChordScanError, FeedrateScatter, Limits, _chord_deviations, scan_curve,
)
from feedsched.cli import PRESETS, load_curve
from feedsched.curvegen import random_curve
from feedsched.geometry import (
    GeometryError,
    ParametricCurve,
    SingularCurveError,
    arc_length,
    evaluate,
)
from feedsched.optimizer import OptimizerError, schedule
from feedsched.segmentation import Block, build_blocks, find_breakpoints
from feedsched.simulator import (
    Replay,
    RunSummary,
    SimulationError,
    interpolate,
    summarize,
)
from feedsched.sprofile import sigmoid_law

STD = Limits(
    Ts=1e-3, delta_max=5e-4, v_max=100.0, a_max=1000.0, j_max=26000.0,
    shape_s=3.3,
)


def scheduled_run(seed, limits):
    curve = random_curve(seed)
    scatter = scan_curve(curve, limits)
    bps = find_breakpoints(scatter)
    blocks = build_blocks(curve, scatter, bps)
    return curve, schedule(curve, blocks, scatter, limits)


class TestTotalTime:
    def test_sums_durations(self):
        curve = make_line(end=(20.0, 0.0))
        blocks = [
            Block(0.0, 0.5, 20.0, 80.0, 10.0),
            Block(0.5, 1.0, 80.0, 80.0, 10.0),
        ]
        want = 2.0 * 10.0 / 100.0 + 10.0 / 80.0
        replay = interpolate(curve, blocks, STD)
        assert replay.total_time == pytest.approx(want, rel=1e-15)
        assert replay.total_time == sum(b.T for b in blocks)


class TestStraightLine:
    def test_constant_feed_steps_exactly(self):
        curve = make_line(end=(100.0, 0.0))
        blocks = [Block(0.0, 1.0, 100.0, 100.0, 100.0)]
        replay = interpolate(curve, blocks, STD)
        assert len(replay) == 1001
        k = np.arange(1001)
        assert replay.t == pytest.approx(k * 1e-3, abs=1e-15)
        assert replay.position[:, 0] == pytest.approx(0.1 * k, abs=5e-6)
        assert (replay.v == 100.0).all()
        assert (replay.A == 0.0).all() and (replay.J == 0.0).all()
        assert (replay.chord_err == 0.0).all()
        assert replay.u[-1] == 1.0

    def test_parameter_is_monotone(self):
        curve = make_line(end=(100.0, 0.0))
        blocks = [Block(0.0, 1.0, 100.0, 100.0, 100.0)]
        replay = interpolate(curve, blocks, STD)
        assert (np.diff(replay.u) > 0.0).all()

    def test_ramp_travel_matches_profile(self):
        curve = make_line(end=(100.0, 0.0))
        blocks = [Block(0.0, 1.0, 20.0, 80.0, 100.0)]
        replay = interpolate(curve, blocks, STD)
        assert replay.total_time == pytest.approx(2.0, rel=1e-12)
        assert len(replay) == 2001
        assert replay.u[-1] == 1.0
        assert replay.position[-1, 0] == pytest.approx(100.0, abs=1e-9)
        # feed trace runs the whole commanded range
        vs = replay.v
        assert vs[0] == pytest.approx(20.0, rel=1e-12)
        assert vs[-1] == pytest.approx(80.0, rel=1e-12)
        assert vs.max() <= 80.0 * (1.0 + 1e-12)

    def test_block_boundary_inside_one_tick(self):
        # lengths chosen so the junction time is not a tick multiple;
        # the travel integral splits there and stays exact
        curve = make_line(end=(20.0, 0.0))
        blocks = [
            Block(0.0, 0.49925, 40.0, 40.0, 9.985),
            Block(0.49925, 1.0, 40.0, 40.0, 10.015),
        ]
        assert blocks[0].T / STD.Ts != int(blocks[0].T / STD.Ts)
        replay = interpolate(curve, blocks, STD)
        assert replay.u[-1] == 1.0
        k = np.arange(len(replay))
        assert replay.position[:, 0] == pytest.approx(0.04 * k, abs=5e-6)

    def test_positions_follow_exact_profile_travel(self):
        # steep ramp, cruise and brake (peak acceleration 2.7e3 and
        # 4.9e3 mm/s^2) with both junctions inside a tick: every replayed
        # position is the plan's exact travel, prefix length plus the
        # closed-form displacement into the running block
        curve = make_line(end=(5.0, 0.0))
        spans = [(2.6037, 10.0, 90.0), (0.9963, 90.0, 90.0), (1.4, 90.0, 20.0)]
        blocks, s = [], 0.0
        for L, v_s, v_e in spans:
            blocks.append(Block(s / 5.0, (s + L) / 5.0, v_s, v_e, L))
            s += L
        assert all(b.T / STD.Ts != int(b.T / STD.Ts) for b in blocks)
        law = sigmoid_law(STD.shape_s)
        replay = interpolate(curve, blocks, STD, law=law)
        assert len(replay) == 90
        t0 = prefix = 0.0
        k = 0
        for b in blocks:
            T = law.duration(b.v_s, b.v_e, b.L)
            while k < len(replay) and replay.t[k] <= t0 + b.T:
                want = prefix + law.state(b.v_s, b.v_e, T, replay.t[k] - t0)[0]
                assert replay.position[k, 0] == pytest.approx(want, abs=1e-9)
                k += 1
            t0 += b.T
            prefix += b.L
        assert k == len(replay) - 1
        assert replay.position[-1, 0] == pytest.approx(prefix, abs=1e-9)


class TestChordMeasurement:
    def test_circle_sagitta(self):
        radius = 5.0
        curve = make_full_circle(radius)
        L = arc_length(curve, 0.0, 1.0)
        blocks = [Block(0.0, 1.0, 100.0, 100.0, L)]
        replay = interpolate(curve, blocks, STD)
        chord = 100.0 * STD.Ts
        want = radius - math.sqrt(radius**2 - 0.25 * chord**2)
        errs = replay.chord_err[1:-1]
        assert np.median(errs) == pytest.approx(want, rel=1e-3)
        assert errs.max() <= want * 1.01

    def test_chords_recover_arc_length(self):
        curve = make_quarter_circle(5.0)
        L = arc_length(curve, 0.0, 1.0)
        blocks = [Block(0.0, 1.0, 30.0, 30.0, L)]
        points = interpolate(curve, blocks, STD).position
        total = sum(map(math.dist, points[:-1], points[1:]))
        assert total == pytest.approx(L, rel=1e-3)


class TestScheduledRun:
    def test_end_to_end_invariants(self):
        curve, blocks = scheduled_run(3, STD)
        replay = interpolate(curve, blocks, STD)
        t_total = replay.total_time
        assert abs(len(replay) - (math.ceil(t_total / STD.Ts) + 1)) <= 1
        assert np.all(np.diff(replay.u) >= 0.0)
        assert replay.u[-1] == 1.0
        assert (replay.chord_err <= 1.05 * STD.delta_max).all()
        assert (replay.v <= STD.v_max * (1.0 + 1e-9)).all()
        assert (np.abs(replay.A) <= STD.a_max * (1.0 + 1e-6)).all()
        assert (np.abs(replay.J) <= STD.j_max * (1.0 + 1e-6)).all()
        assert np.isfinite(replay.position).all()
        points = replay.position
        chords = sum(map(math.dist, points[:-1], points[1:]))
        assert chords == pytest.approx(arc_length(curve, 0.0, 1.0), rel=1e-3)

    def test_replay_is_deterministic(self):
        curve, blocks = scheduled_run(7, STD)
        first = interpolate(curve, blocks, STD)
        second = interpolate(curve, blocks, STD)
        for f in dataclasses.fields(Replay):
            assert np.array_equal(getattr(first, f.name), getattr(second, f.name))

    def test_sine_replay(self):
        curve, blocks = scheduled_run(3, STD)
        from feedsched.baseline import SINE, sine_schedule
        from feedsched.chordscan import scan_curve as _scan

        scatter = _scan(curve, STD)
        bps = find_breakpoints(scatter)
        raw = build_blocks(curve, scatter, bps)
        sine_blocks = sine_schedule(curve, raw, scatter, STD)
        replay = interpolate(curve, sine_blocks, STD, law=SINE)
        assert replay.u[-1] == 1.0
        assert (replay.chord_err <= 1.05 * STD.delta_max).all()
        assert (np.abs(replay.A) <= STD.a_max * (1.0 + 1e-6)).all()

    def test_summary_folds_maxima(self):
        curve, blocks = scheduled_run(3, STD)
        replay = interpolate(curve, blocks, STD)
        summary = summarize(replay)
        assert summary.max_feed == max(replay.v.tolist())
        assert summary.max_accel == max(map(abs, replay.A.tolist()))
        assert summary.max_jerk == max(map(abs, replay.J.tolist()))
        assert summary.max_chord_err == max(replay.chord_err.tolist())
        assert summary.total_time == sum(b.T for b in blocks)
        assert summary.n_points == len(replay)
        assert all(type(x) is float for x in dataclasses.astuple(summary)[:5])

    def test_length_counts_the_ticks(self):
        # the benchmark's call tracer counts a replay's ticks as
        # len(interpolate(...)) - 1, and divides the replay's kernel calls
        # by that: len must be the number of samples, both ends included
        curve = make_line(end=(100.0, 0.0))
        replay = interpolate(curve, [Block(0.0, 1.0, 100.0, 100.0, 100.0)], STD)
        assert len(replay) == replay.t.size == replay.u.size == 1001
        assert replay.position.shape == (1001, 2)


class TestChordPass:
    # the doubled control point stops this curve at its knot u = 0.5
    CUSP = ParametricCurve(
        2, ((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (2.0, 1.0)),
        (1.0,) * 4, (0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0),
    )

    @staticmethod
    def steps(curve, us, points):
        u, p = np.array(us), np.array(points)
        return _chord_deviations(curve, u[:-1], u[1:], p[:-1], p[1:])

    def test_equals_scalar_chord_deviation(self):
        # hairpin: midpoint radius 0.025 mm against a 1 mm chord, so the
        # arc model gives way to the sampled deviation
        hairpin = ParametricCurve(
            2, ((0.0, 0.0), (10.0, 0.0), (0.0, 1.0)), (1.0, 1.0, 1.0),
            (0.0, 0.0, 0.0, 1.0, 1.0, 1.0),
        )
        cases = [
            (make_line(), [0.1, 0.4, 0.4]),
            (make_full_circle(5.0), [0.1, 0.104, 0.104, 0.33, 0.35]),
            (hairpin, [0.0, 1.0]),
        ]
        for curve, us in cases:
            points = [evaluate(curve, u) for u in us]
            want = [
                _chord_deviation(curve, *us[i:i + 2], *points[i:i + 2])
                for i in range(len(us) - 1)
            ]
            assert self.steps(curve, us, points).tolist() == want
        assert want[0] == pytest.approx(5.0, abs=1e-9)  # the hairpin's bulge

    def test_zero_chord_skips_the_radius(self):
        # a zero step at the cusp reports 0 instead of raising
        point = evaluate(self.CUSP, 0.5)
        assert self.steps(self.CUSP, [0.5, 0.5], [point] * 2).tolist() == [0.0]

    def test_singular_midpoint_raises_like_scalar(self):
        us = [0.1, 0.2, 0.4, 0.6]
        points = [evaluate(self.CUSP, u) for u in us]
        with pytest.raises(SingularCurveError, match="u=0.5"):
            _chord_deviation(self.CUSP, 0.4, 0.6, *points[2:])
        with pytest.raises(SingularCurveError, match="u=0.5"):
            self.steps(self.CUSP, us, points)


# the benchmark's corpus paths: curve seed and preset
CORPUS = ((6, "standard"), (12, "high-accel"), (18, "standard"), (24, "high-accel"))


def lifted(curve):
    """The curve with its control points lifted off the plane, to 3-D."""
    points = tuple(
        (x, y, 4.0 * math.sin(1.7 * i))
        for i, (x, y) in enumerate(curve.control_points)
    )
    return ParametricCurve(curve.degree, points, curve.weights, curve.knots)


@pytest.fixture(scope="module")
def corpus_plans():
    """Both laws' schedules of the corpus paths and of one 3-D curve,
    ready to replay."""
    plans = []
    paths = [(random_curve(seed), preset) for seed, preset in CORPUS]
    for curve, preset in paths + [(lifted(random_curve(5)), "standard")]:
        limits = PRESETS[preset]
        scatter = scan_curve(curve, limits)
        blocks = build_blocks(curve, scatter, find_breakpoints(scatter))
        sigmoid = sigmoid_law(limits.shape_s)
        plans.append(
            (curve, schedule(curve, blocks, scatter, limits), limits, sigmoid)
        )
        plans.append(
            (curve, sine_schedule(curve, blocks, scatter, limits), limits, SINE)
        )
    return plans


# Jets passes the walk takes per window of ticks. Every window of the
# 25-seed corpus under both presets and laws settles in 2 (the first
# guesses and one Newton step); two windows of the 3-D corpus curve take 3.
WALK_PASSES = 3

# Distance from oracles.replay_reference, whose scalar Newton walk also
# stops anywhere inside the 1e-9 mm chord match. Measured over the 25-seed
# corpus under both presets and laws: 2.8e-9 in u and 1.1e-10 mm in
# chord_err (2.2e-9 and 7.8e-11 mm over corpus_plans). Two such walks
# drift apart by up to the match per tick, so on other curves, slower in
# u or longer, they part further: these bounds hold for the corpus only.
U_FROM_REFERENCE = 1e-8
CHORD_ERR_FROM_REFERENCE = 1e-9  # mm
# Distance of the commanded feed, acceleration and jerk from the former
# per-block arithmetic (oracles._Track), in eps times the largest
# magnitude of each over the replay. Measured over the 25-seed corpus
# under both presets and laws: 1.3 (feed), 3.7 (acceleration) and 8.8
# (jerk); over corpus_plans 1.0, 2.9 and 6.3.
COMMANDED_ULPS = 16.0


# Interior parameters of each step at which the contract looks for a
# point farther from the step's start than the step's advance.
CROSSING_SAMPLES = 64


def assert_replay_contract(curve, blocks, limits, law, got, corpus=True):
    """Tick k is at k*Ts, and its v, A and J lie within COMMANDED_ULPS of
    the former per-block arithmetic; every position is its parameter's
    point; u never falls and ends at 1; every landing below u = 1 matches
    its commanded advance within the chord match, measured with evaluate,
    and is the first crossing of it: none of CROSSING_SAMPLES equally
    spaced interior parameters of the step lies farther than the advance
    plus the match from the step's start; every chord_err is the scalar
    chord deviation of its step. On a corpus plan, u and chord_err also
    stay within the stated distance of the scalar reference walk's."""
    track = oracles._Track(
        blocks, law, oracles.reference_law(law, limits.shape_s)
    )
    assert got.t.tolist() == [k * limits.Ts for k in range(len(got))]
    commanded = [track.state(t) for t in got.t.tolist()]
    for i, name in enumerate(("v", "A", "J")):
        want = np.array([kinematics[i] for _, kinematics in commanded])
        bound = COMMANDED_ULPS * 2.0**-52 * np.abs(want).max()
        assert np.abs(getattr(got, name) - want).max() <= bound
    us, errs = got.u.tolist(), got.chord_err.tolist()
    points = [evaluate(curve, u) for u in us]
    assert np.array_equal(got.position, points)
    assert us[0] == 0.0 and us[-1] == 1.0 and errs[0] == 0.0
    for k in range(1, len(got)):
        assert us[k] >= us[k - 1]
        chord = math.dist(points[k - 1], points[k])
        if us[k] < 1.0:
            advance = commanded[k][0] - commanded[k - 1][0]
            assert abs(chord - advance) <= simulator._CHORD_MATCH_TOL
        assert errs[k] == (chord and _chord_deviation(
            curve, us[k - 1], us[k], points[k - 1], points[k]
        ))
    live = [k for k in range(1, len(got)) if us[k] < 1.0]
    start = np.array([us[k - 1] for k in live])[:, None]
    span = np.array([us[k] for k in live])[:, None] - start
    steps = np.arange(1, CROSSING_SAMPLES + 1) / (CROSSING_SAMPLES + 1)
    inner, _, _ = geometry.jets(curve, (start + span * steps).ravel())
    inner = inner.reshape(len(live), CROSSING_SAMPLES, curve.dimension)
    offset = inner - np.reshape(
        [points[k - 1] for k in live], (len(live), 1, curve.dimension)
    )
    reach = np.sqrt((offset**2).sum(axis=2)).max(axis=1, initial=0.0)
    advance = [commanded[k][0] - commanded[k - 1][0] for k in live]
    assert (reach <= np.add(advance, simulator._CHORD_MATCH_TOL)).all()
    if corpus:
        ref = oracles.replay_reference(curve, blocks, limits, law)
        assert isinstance(ref, Replay)
        assert np.abs(got.u - ref.u).max() <= U_FROM_REFERENCE
        assert np.abs(got.chord_err - ref.chord_err).max() <= CHORD_ERR_FROM_REFERENCE


class TestReplayWork:
    def test_jets_passes_per_window_and_two_scalar_jets(
        self, corpus_plans, monkeypatch
    ):
        calls = Counter()
        walking = [False]
        batch, land = geometry.jets, simulator._land

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        def counted_jets(*args, **kwargs):
            calls["walk passes" if walking[0] else "other passes"] += 1
            return batch(*args, **kwargs)

        def counted_land(*args):
            calls["windows"] += 1
            walking[0] = True
            try:
                return land(*args)
            finally:
                walking[0] = False

        monkeypatch.setattr(simulator, "jets", counted_jets)
        monkeypatch.setattr(geometry, "jets", counted_jets)
        monkeypatch.setattr(simulator, "_land", counted_land)
        monkeypatch.setattr(geometry, "_jet", counting("scalar", geometry._jet))
        monkeypatch.setattr(
            simulator, "_first_crossing",
            counting("searched", simulator._first_crossing),
        )
        monkeypatch.setattr(
            chordscan, "_curvature_radii",
            counting("radii", chordscan._curvature_radii),
        )
        for curve, *_ in corpus_plans:
            curve.__dict__.pop("_arc_grid", None)
        gridded = set()
        for curve, blocks, limits, law in corpus_plans:
            calls.clear()
            ticks = len(interpolate(curve, blocks, limits, law=law)) - 1
            # at least one pass per window: a walk that reached the kernel
            # through a binding of its own would count 0
            windows = calls["windows"]
            assert 1 <= windows <= math.ceil(ticks / simulator._WINDOW_TICKS)
            assert windows <= calls["walk passes"] <= WALK_PASSES * windows
            # the chord pass's midpoints, and the arc grid's nodes on the
            # first replay of a curve only: both laws' plans share it
            assert calls["other passes"] == 1 + (id(curve) not in gridded)
            gridded.add(id(curve))
            assert calls["radii"] == 1
            # every window lands whole, so the only scalar jets are the
            # path's two ends
            assert calls["searched"] == 0
            assert calls["scalar"] <= 2

    def test_one_clamp_per_replay_and_no_kernel(self, corpus_plans, monkeypatch):
        # every tick of a replay takes its block's state in one Law.state
        # call: one clamp of all the ticks' local times, and no scalar
        # kernel, whose set-up at +-s is the law's work, done once per
        # law. A state that reached clamp_time through a binding of its
        # own would count no clamp here, one taken per block or per tick
        # more than one
        clamped, kernel_args = [], []
        clamp_time, kernel = sprofile.clamp_time, sprofile.kernel

        def counting_clamp(t, T):
            clamped.append(np.size(t))
            return clamp_time(t, T)

        def watched_kernel(x):
            kernel_args.append(x)
            return kernel(x)

        monkeypatch.setattr(sprofile, "clamp_time", counting_clamp)
        monkeypatch.setattr(sprofile, "kernel", watched_kernel)
        for curve, blocks, limits, law in corpus_plans[:2]:
            clamped.clear()
            ticks = len(interpolate(curve, blocks, limits, law=law))
            assert clamped == [ticks]
        assert kernel_args == []

    def test_replay_meets_its_contract(self, corpus_plans):
        for curve, blocks, limits, law in corpus_plans:
            got = interpolate(curve, blocks, limits, law=law)
            assert_replay_contract(curve, blocks, limits, law, got)

    def test_unlanded_ticks_are_searched_from_the_landing_before(
        self, corpus_plans, monkeypatch
    ):
        # with one pass a window lands only the ticks its first guesses
        # already match, and the first-crossing search takes the first
        # tick they miss, after which the next window starts: a 3-D and a
        # planar plan, both laws, and a plan 0.1 mm longer than its arc,
        # inside the end-drift allowance, whose walk reaches the curve end
        # two ticks before its last
        monkeypatch.setattr(simulator, "_WINDOW_PASSES", 1)
        searched = Counter()
        search = simulator._first_crossing

        def counted(*args):
            searched["ticks"] += 1
            return search(*args)

        monkeypatch.setattr(simulator, "_first_crossing", counted)
        arc = make_quarter_circle(5.0)
        over = [Block(0.0, 1.0, 50.0, 50.0, arc_length(arc, 0.0, 1.0) + 0.1)]
        sigmoid = sigmoid_law(STD.shape_s)
        plans = corpus_plans[-2:] + corpus_plans[:2] + [(arc, over, STD, sigmoid)]
        for curve, blocks, limits, law in plans:
            searched.clear()
            got = interpolate(curve, blocks, limits, law=law)
            assert searched["ticks"] > 0
            assert_replay_contract(curve, blocks, limits, law, got)
        assert got.u[-4] < 1.0 and got.u[-3:].tolist() == [1.0] * 3

    def test_search_gives_up_after_its_passes(self, monkeypatch):
        # a first guess that the one Newton pass leaves off the advance,
        # and one search pass, which only narrows the bracket
        monkeypatch.setattr(simulator, "_WINDOW_PASSES", 1)
        monkeypatch.setattr(simulator, "_SEARCH_PASSES", 1)
        arc = make_quarter_circle(5.0)
        blocks = [Block(0.0, 1.0, 50.0, 50.0, arc_length(arc, 0.0, 1.0))]
        with pytest.raises(SimulationError, match="no landing past u=0.0 matches"):
            interpolate(arc, blocks, STD)


CURVES = Path(__file__).parent / "curves"


def committed_plans(name):
    """Both laws' schedules of a committed curve under both presets."""
    curve = load_curve(CURVES / name)
    plans = []
    for preset in sorted(PRESETS):
        limits = PRESETS[preset]
        scatter = scan_curve(curve, limits)
        blocks = build_blocks(curve, scatter, find_breakpoints(scatter))
        for plan, law in ((schedule, sigmoid_law(limits.shape_s)), (sine_schedule, SINE)):
            plans.append((curve, plan(curve, blocks, scatter, limits), limits, law))
    return plans


def replay_windows(monkeypatch, curve, blocks, limits, law):
    """The replay, after checking the rule that sizes its windows: the
    first has _WINDOW_TICKS ticks, one after a window that landed whole
    twice as many, up to _LONGEST_WINDOW times _WINDOW_TICKS, and one after
    a window that stopped short or a first-crossing search _WINDOW_TICKS
    again, each cut at the last tick. Returns it and its window lengths."""
    events = []
    land, search = simulator._land, simulator._first_crossing

    def landing(*args):
        out = land(*args)
        events.append((len(args[-1]), out[0]))
        return out

    def searching(*args):
        events.append(None)
        return search(*args)

    monkeypatch.setattr(simulator, "_land", landing)
    monkeypatch.setattr(simulator, "_first_crossing", searching)
    got = interpolate(curve, blocks, limits, law=law)
    monkeypatch.setattr(simulator, "_land", land)
    monkeypatch.setattr(simulator, "_first_crossing", search)
    first = simulator._WINDOW_TICKS
    size, k, last = first, 0, len(got) - 2
    for event in events:
        if event is None:
            size, k = first, k + 1
            continue
        length, landed = event
        assert length == min(size, last - k)
        k += landed
        whole = landed == length
        size = min(2 * size, simulator._LONGEST_WINDOW * first) if whole else first
    return got, [e[0] for e in events if e is not None]


class TestDoublingWindows:
    """A replay window that lands whole doubles the next: the landings are
    those of fixed windows of _WINDOW_TICKS, within 1e-12 in u, and every
    chord matches its advance."""

    @pytest.mark.parametrize("name", ["cruise.json", "nearer_root.json", "end_curl.json"])
    def test_landings_match_fixed_windows(self, name, monkeypatch):
        lengths, longest = [], simulator._LONGEST_WINDOW
        for curve, blocks, limits, law in committed_plans(name):
            got, windows = replay_windows(monkeypatch, curve, blocks, limits, law)
            lengths += windows
            monkeypatch.setattr(simulator, "_LONGEST_WINDOW", 1)
            fixed = interpolate(curve, blocks, limits, law=law)
            monkeypatch.setattr(simulator, "_LONGEST_WINDOW", longest)
            assert len(got) == len(fixed)
            assert np.abs(got.u - fixed.u).max() <= 1e-12
            assert_replay_contract(curve, blocks, limits, law, got, corpus=False)
        print(f"{name}: windows of {lengths} ticks")
        if name == "cruise.json":
            assert max(lengths) > simulator._WINDOW_TICKS

    def test_a_search_starts_the_next_window_short(self, monkeypatch):
        # windows of 16 ticks double on nearer_root.json up to its first
        # crossing search, and start from 16 after it
        monkeypatch.setattr(simulator, "_WINDOW_TICKS", 16)
        for curve, blocks, limits, law in committed_plans("nearer_root.json"):
            got, windows = replay_windows(monkeypatch, curve, blocks, limits, law)
            print(f"windows of {windows} ticks")
            assert max(windows) == 128 and windows.count(16) == 2
            assert_replay_contract(curve, blocks, limits, law, got, corpus=False)


# A planar and a 3-D draw on which the window solve once matched a tick on
# a farther root of its chord equation: the chord from the landing before
# had passed the advance by 7.3e-3 and 4.5e-5 mm and come back.
NEARER_ROOT = load_curve(Path(__file__).parent / "curves" / "nearer_root.json")
NEARER_ROOT_3D = ParametricCurve(
    3,
    (
        (2.1802394029990158, -0.11150942281764831, 1.0),
        (2.1802394029990158, -0.11150942281764831, 1.1),
        (2.7663091455690405, -0.11150942281764831, -0.8122035082187002),
        (2.7663091455690405, -0.11150942281764831, -0.7122035082187003),
    ),
    (1.0,) * 4,
    (0.0,) * 4 + (1.0,) * 4,
)


class TestReplayProperty:
    @seed(0)
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        curve=nurbs_curves(),
        preset=st.sampled_from(sorted(PRESETS)),
        method=st.sampled_from(("sigmoid", "sine")),
    )
    @example(curve=NEARER_ROOT, preset="high-accel", method="sine")
    @example(curve=NEARER_ROOT_3D, preset="high-accel", method="sigmoid")
    def test_any_curve_replays_to_its_contract_or_a_documented_error(
        self, curve, preset, method
    ):
        # rational curves of degree 1-5 with repeated knots: the ticks
        # that the window solve does not land, or lands past a nearer
        # crossing, go to the first-crossing search
        limits = PRESETS[preset]
        law = SINE if method == "sine" else sigmoid_law(limits.shape_s)
        try:
            scatter = scan_curve(curve, limits)
            blocks = build_blocks(curve, scatter, find_breakpoints(scatter))
            plan = schedule(curve, blocks, scatter, limits, law=law)
            got = interpolate(curve, plan, limits, law=law)
        except (GeometryError, ChordScanError, OptimizerError, SimulationError):
            return  # exit 2 or 3, as the README documents
        assert_replay_contract(curve, plan, limits, law, got, corpus=False)


def bits(*xs):
    return [float(x).hex() for x in xs]


@st.composite
def tick_plans(draw):
    """(v_s, v_e, L) of each block of a plan the tick walk must step
    through exactly: zero-length blocks, which a plan read from a file
    may hold, blocks shorter than Ts, runs of them whose ends share one
    tick, and longer blocks; the plan almost surely ends mid-tick."""
    feed = st.floats(5.0, 100.0)
    spans = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("zero", "short", "long")))
        v_s = draw(feed)
        if kind == "zero":
            spans.append((v_s, v_s, 0.0))
            continue
        v_e = draw(st.one_of(st.just(v_s), feed))
        T = draw(st.floats(0.01, 0.99)) * (STD.Ts if kind == "short" else 0.05)
        spans.append((v_s, v_e, 0.5 * T * (v_s + v_e)))
    return spans


def plan_blocks(spans):
    total = sum(L for _, _, L in spans)
    blocks, s = [], 0.0
    for v_s, v_e, L in spans:
        blocks.append(Block(s / total, (s + L) / total, v_s, v_e, L))
        s += L
    return blocks


class TestTickWalk:
    # zero-length first, middle and last blocks, five block ends inside
    # the first tick, a block shorter than Ts across a tick boundary, and
    # an end 0.115 ticks past the last whole one
    EDGES = [
        (20.0, 20.0, 0.0), (20.0, 20.0, 0.005), (20.0, 30.0, 0.01),
        (30.0, 30.0, 0.0), (30.0, 30.0, 0.0), (30.0, 40.0, 0.014),
        (40.0, 40.0, 0.0426), (40.0, 40.0, 0.0),
    ]

    @pytest.mark.parametrize(
        "law", [sigmoid_law(STD.shape_s), SINE], ids=["sigmoid", "sine"]
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spans=tick_plans())
    @example(spans=EDGES)
    def test_commanded_state_equals_reference_bit_for_bit(self, law, spans):
        assume(any(L > 0.0 for _, _, L in spans))
        # the former bisection over the block starts, read through the
        # law's own float state of each block: the replay's block lookup and
        # offsets are under test here, and that its one array evaluation
        # gives each tick its block's float state bit for bit; the
        # state's arithmetic is tested in test_sprofile
        blocks = plan_blocks(spans)
        track = oracles._Track(
            blocks, law, oracles.reference_law(law, STD.shape_s)
        )

        def commanded(t):
            i, tau = track.locate(t)
            travel, *kinematics = track.law.state(*track.fits[i], tau)
            return track.offsets[i] + travel, kinematics

        Ts = STD.Ts
        n_steps = max(1, math.ceil(track.total / Ts - 1e-9))
        times = [min(k * Ts, track.total) for k in range(n_steps + 1)]
        ticks = np.arange(n_steps + 1) * Ts
        walk = simulator._commanded(blocks, law, ticks, track.total)
        for t, (travel, v, a, j, i) in zip(times, zip(*walk), strict=True):
            want_travel, want_kinematics = commanded(t)
            assert bits(travel, v, a, j) == bits(want_travel, *want_kinematics)
            assert i == track.locate(t)[0]
        curve = make_line(end=(track.length, 0.0))
        replay = interpolate(curve, blocks, STD, law=law)
        assert list(map(bits, replay.v, replay.A, replay.J)) == [
            bits(*commanded(t)[1]) for t in times
        ]

    def test_plan_over_the_tick_cap_raises_before_the_walk(self, monkeypatch):
        # 1e9 s of motion: 1e12 ticks at 1 ms, refused before any jet or
        # jets pass
        def no_walk(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(simulator, "jet", no_walk)
        monkeypatch.setattr(simulator, "jets", no_walk)
        blocks = [Block(0.0, 1.0, 1e-6, 1e-6, 1000.0)]
        assert blocks[0].T == 1e9
        cap = r"1e\+12 ticks exceeds the replay's cap of 1000000"
        with pytest.raises(SimulationError, match=cap):
            interpolate(make_line(), blocks, STD)


class TestPathEnd:
    def test_chordal_drift_absorbed_at_curve_end(self):
        # chord steps consume slightly more arc than they command on a
        # curved path, so the walk reaches u = 1 marginally early; the
        # tail of the plan must finish there instead of failing
        curve = make_quarter_circle(5.0)
        L = arc_length(curve, 0.0, 1.0)
        blocks = [Block(0.0, 1.0, 50.0, 50.0, L)]
        replay = interpolate(curve, blocks, STD)
        assert replay.u[-1] == 1.0
        end = evaluate(curve, 1.0)
        assert math.dist(replay.position[-1], end) < 1e-9

    def test_loop_within_the_advance_lies_past_the_end(self, monkeypatch):
        # a 40 mm line closed by a triangle of 0.08 mm sides: from the
        # tick that lands on the line's end no point of the last 0.24 mm
        # of arc lies 0.1 mm away, so the search runs off the curve end and
        # the end absorbs the two ticks left
        searched = []
        search = simulator._first_crossing

        def counted(*args):
            searched.append(search(*args))
            return searched[-1]

        monkeypatch.setattr(simulator, "_first_crossing", counted)
        corners = (
            (0.0, 0.0), (40.0, 0.0), (40.08, 0.0),
            (40.04, 0.04 * math.sqrt(3.0)), (40.0, 0.0),
        )
        knots = np.cumsum([0.0] + list(map(math.dist, corners, corners[1:])))
        curve = ParametricCurve(
            1, corners, (1.0,) * 5, (0.0, *(knots / knots[-1]), 1.0)
        )
        L = arc_length(curve, 0.0, 1.0)
        replay = interpolate(curve, [Block(0.0, 1.0, 100.0, 100.0, L)], STD)
        assert searched == [None]
        assert len(replay) == 404
        assert replay.position[-4] == pytest.approx((40.0, 0.0), abs=1e-9)
        assert replay.u[-3:].tolist() == [1.0] * 3

    def test_plan_longer_than_path_raises(self):
        curve = make_line(end=(10.0, 0.0))
        blocks = [Block(0.0, 1.0, 50.0, 50.0, 10.5)]
        with pytest.raises(SimulationError, match="past the path end"):
            interpolate(curve, blocks, STD)

    @pytest.mark.parametrize("method", ["sigmoid", "sine"])
    def test_final_tick_reports_the_last_transition_end(self, method):
        # a 0.5 mm rise to 85 mm/s and a 3 mm fall to 80 mm/s: the peak
        # hands the whole fall to one rise, and the emptied fall is no
        # block, so the final tick reads the rise's end state rather than
        # a flat block's zero acceleration and jerk
        law = SINE if method == "sine" else sigmoid_law(STD.shape_s)
        curve = make_line(end=(3.5, 0.0))
        blocks = [
            Block(0.0, 1.0 / 7.0, 20.0, 85.0, 0.5),
            Block(1.0 / 7.0, 1.0, 85.0, 80.0, 3.0),
        ]
        scatter = FeedrateScatter([0.0, 1.0 / 7.0, 1.0], [20.0, 85.0, 80.0])
        [rise] = schedule(curve, blocks, scatter, STD, law)
        last = interpolate(curve, [rise], STD, law=law)
        T = law.duration(rise.v_s, rise.v_e, rise.L)
        _, v, a, j = law.state(rise.v_s, rise.v_e, T, T)
        assert (last.v[-1], last.A[-1], last.J[-1]) == (v, a, j)
        assert j < -0.99 * STD.j_max


class TestErrors:
    def test_empty_schedule(self):
        curve = make_line()
        with pytest.raises(SimulationError):
            interpolate(curve, [], STD)

    def test_zero_duration_schedule(self):
        curve = make_line()
        b = Block(0.0, 1.0, 10.0, 10.0, 0.0)
        with pytest.raises(SimulationError):
            interpolate(curve, [b], STD)

    def test_block_the_law_cannot_carry_names_its_index(self):
        # a feed change over no length is a valid Block, of duration 0,
        # and is refused by the law's duration
        curve = random_curve(0)
        L = arc_length(curve, 0.5, 1.0)
        blocks = [
            Block(0.0, 0.5, 10.0, 90.0, 0.0),
            Block(0.5, 1.0, 90.0, 90.0, L),
        ]
        want = "block 0 cannot be replayed: zero-length block cannot change feed"
        with pytest.raises(SimulationError, match=want):
            interpolate(curve, blocks, PRESETS["standard"])

    def test_empty_summary(self):
        with pytest.raises(SimulationError):
            summarize(Replay(*[np.empty(0)] * 7, 0.0))
