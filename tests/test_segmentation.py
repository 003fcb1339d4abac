import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from feedsched import segmentation
from feedsched.chordscan import (
    FeedrateScatter,
    Limits,
    MalformedScatterError,
    scan_curve,
)
from feedsched.cli import PRESETS
from feedsched.curvegen import random_curve
from feedsched.geometry import arc_length
from feedsched.segmentation import (
    Block,
    BlockKind,
    build_blocks,
    classify_kind,
    find_breakpoints,
)
from feedsched.sprofile import block_duration

from conftest import make_line

STD = Limits(
    Ts=1e-3, delta_max=5e-4, v_max=100.0, a_max=1000.0,
    j_max=26000.0, shape_s=3.3,
)


def scatter_from(v, u=None):
    v = np.asarray(v, dtype=float)
    if u is None:
        u = np.linspace(0.0, 1.0, v.size)
    return FeedrateScatter(u, v)


class TestFindBreakpoints:
    def test_monotone_scatter_keeps_endpoints_only(self):
        # concave rise: every interior point sits above the endpoint line
        sc = scatter_from(np.linspace(10.0, 90.0, 12) ** 0.9)
        assert find_breakpoints(sc) == [0, 11]

    def test_single_spike(self):
        v = np.concatenate(
            [np.linspace(10, 60, 6), np.linspace(60, 5, 6)[1:]]
        )
        sc = scatter_from(v)
        assert find_breakpoints(sc, mu_s=1e-9) == [0, 5, 10]

    def test_convex_run_splits_at_deepest_sag(self):
        # monotone, but the interior sags below the endpoint line, so a
        # single block would cross the middle well above the scanned feed
        sc = scatter_from([50.0, 54.0, 58.0, 70.0])
        assert find_breakpoints(sc, mu_s=1e-9) == [0, 2, 3]

    def test_same_trend_kink_rejected(self):
        sc = scatter_from([1.0, 10.0, 19.0, 20.0, 21.0, 22.0])
        # index 2 has a large slope change but no trend reversal
        assert find_breakpoints(sc, mu_s=1e-9) == [0, 5]

    def test_screened_valley_restored(self):
        sc = scatter_from([100.0, 100.0, 52.0, 100.0, 100.0])
        # an absurd screening level cannot hide a deep valley
        assert find_breakpoints(sc, mu_s=1e9) == [0, 2, 4]

    def test_early_valley_above_far_endpoint_restored(self):
        sc = scatter_from([100.0, 42.0, 44.0, 60.0, 90.0, 41.0])
        # the dip at index 1 sits above the right endpoint, but a single
        # fall block would cross it far too fast
        assert find_breakpoints(sc, mu_s=1e9) == [0, 1, 5]

    def test_plateau_between_rise_and_fall(self):
        sc = scatter_from([5.0, 55.0, 100.0, 100.0, 100.0, 55.0, 5.0])
        assert find_breakpoints(sc, mu_s=1e-9) == [0, 2, 4, 6]

    def test_plateau_inside_rising_run(self):
        sc = scatter_from([5.0, 55.0, 100.0, 100.0, 100.0, 150.0, 200.0])
        # both plateau edges must split even though the trend continues
        assert find_breakpoints(sc, mu_s=1e-9) == [0, 2, 4, 6]

    def test_interior_plateau_points_ignored(self):
        sc = scatter_from([10.0, 80.0, 80.0, 80.0, 80.0, 10.0])
        bps = find_breakpoints(sc, mu_s=1e-9)
        assert 2 not in bps and 3 not in bps

    def test_constant_scatter_has_no_interior_breakpoints(self):
        sc = scatter_from(np.full(50, 75.0))
        assert find_breakpoints(sc) == [0, 49]

    def test_default_threshold_finds_isolated_spike(self):
        v = np.full(200, 50.0)
        v[100] = 80.0
        bps = find_breakpoints(scatter_from(v))
        assert 100 in bps
        assert set(bps) == {0, 99, 100, 101, 199}

    def test_two_point_scatter(self):
        assert find_breakpoints(scatter_from([10.0, 20.0])) == [0, 1]

    def test_non_positive_threshold_refused(self):
        # a flat stretch changes no slope, so only a level below zero
        # would pick its interior points
        sc = scatter_from([10.0, 80.0, 80.0, 80.0, 10.0])
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="mu_s must be strictly positive"):
                find_breakpoints(sc, mu_s=bad)


def checked_valleys(monkeypatch):
    """Make every valley restore also run the former stack loop
    (oracles.stack_missed_valleys) and assert the two agree; returns
    the list of the spans' picks that were checked."""
    restore = segmentation._add_missed_valleys
    seen = []

    def both(u, v, picked):
        got = restore(u, v, picked)
        assert got == oracles.stack_missed_valleys(u, v, picked)
        assert all(type(k) is int for k in got)
        seen.append(picked)
        return got

    monkeypatch.setattr(segmentation, "_add_missed_valleys", both)
    return seen


class TestValleyRestore:
    """The valley restore, which splits every open span of one level at
    once, against the former stack loop, one span at a time."""

    def test_matches_the_stack_loop_on_the_corpus_scans(self, monkeypatch):
        seen = checked_valleys(monkeypatch)
        for seed in range(25):
            curve = random_curve(seed)
            for preset in ("standard", "high-accel"):
                limits = PRESETS[preset]
                scatter = scan_curve(curve, limits)
                find_breakpoints(scatter, mu_s=limits.mu_s)
                find_breakpoints(scatter)
        assert len(seen) == 100

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        levels=st.lists(st.integers(1, 4), min_size=2, max_size=60),
        even=st.booleans(),
        gaps=st.lists(st.floats(0.01, 1.0), min_size=60, max_size=60),
        cuts=st.lists(st.booleans(), min_size=60, max_size=60),
    )
    def test_matches_the_stack_loop_on_random_scatters(
        self, levels, even, gaps, cuts
    ):
        # few feed levels give flat runs and, on even spacing, tied gaps;
        # dense picks give spans of two and three samples
        n = len(levels)
        u = np.linspace(0.0, 1.0, n) if even else np.cumsum([0.0, *gaps[: n - 1]])
        v = 25.0 * np.array(levels, dtype=float)
        picked = [0, *(k for k in range(1, n - 1) if cuts[k]), n - 1]
        got = segmentation._add_missed_valleys(u, v, picked)
        assert got == oracles.stack_missed_valleys(u, v, picked)

    def test_ties_split_at_the_first_worst_sample(self):
        # two equally deep samples: the first becomes the breakpoint, then
        # the second splits the right half
        u = np.linspace(0.0, 1.0, 5)
        v = np.array([100.0, 50.0, 100.0, 50.0, 100.0])
        assert segmentation._add_missed_valleys(u, v, [0, 4]) == [0, 1, 3, 4]


class TestClassifyKind:
    def test_tolerance_band(self):
        # the band is 1e-9 of v_max: 1e-7 mm/s at 100 mm/s
        assert classify_kind(50.0, 50.0 + 1e-8, 100.0) is BlockKind.CONSTANT
        assert classify_kind(50.0, 50.0 + 2e-7, 100.0) is BlockKind.ACCEL
        assert classify_kind(50.0, 60.0, 100.0) is BlockKind.ACCEL
        assert classify_kind(60.0, 50.0, 100.0) is BlockKind.DECEL


class TestBuildBlocks:
    def test_kinds_and_tiling_on_line(self):
        line = make_line()
        sc = scatter_from(
            [50.0, 100.0, 100.0, 30.0, 30.0],
            u=[0.0, 0.25, 0.5, 0.75, 1.0],
        )
        blocks = build_blocks(line, sc, [0, 1, 3, 4])
        assert [classify_kind(b.v_s, b.v_e, STD.v_max) for b in blocks] == [
            BlockKind.ACCEL, BlockKind.DECEL, BlockKind.CONSTANT,
        ]
        assert [b.L for b in blocks] == pytest.approx([25.0, 50.0, 25.0])
        assert blocks[0].u_e == blocks[1].u_s
        assert blocks[1].u_e == blocks[2].u_s

    def test_requires_two_breakpoints(self):
        line = make_line()
        sc = scatter_from([50.0, 50.0])
        with pytest.raises(MalformedScatterError):
            build_blocks(line, sc, [0])

    def test_constant_scatter_yields_single_block(self):
        line = make_line()
        sc = scatter_from(np.full(30, 64.0))
        blocks = build_blocks(line, sc, find_breakpoints(sc))
        assert len(blocks) == 1
        kind = classify_kind(blocks[0].v_s, blocks[0].v_e, STD.v_max)
        assert kind is BlockKind.CONSTANT
        assert (blocks[0].u_s, blocks[0].u_e) == (0.0, 1.0)
        assert blocks[0].L == pytest.approx(100.0, rel=1e-9)

    def test_scanned_curve_blocks_tile_and_sum(self):
        curve = random_curve(seed=21)
        sc = scan_curve(curve, STD)
        bps = find_breakpoints(sc)
        blocks = build_blocks(curve, sc, bps)
        assert len(blocks) == len(bps) - 1
        assert blocks[0].u_s == 0.0 and blocks[-1].u_e == 1.0
        for a, b in zip(blocks[:-1], blocks[1:]):
            assert a.u_e == b.u_s
            assert a.v_e == b.v_s
        total = sum(b.L for b in blocks)
        assert total == pytest.approx(arc_length(curve, 0.0, 1.0), rel=1e-8)
        for b in blocks:
            assert b.v_s == np.interp(b.u_s, sc.u, sc.v)
            assert b.v_e == np.interp(b.u_e, sc.u, sc.v)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("seed", [0, 5, 12])
    def test_lengths_equal_arc_length_bit_for_bit(self, seed, preset):
        # one batched table call gives every length; each must be the
        # public arc_length of its block's parameter range
        curve = random_curve(seed)
        sc = scan_curve(curve, PRESETS[preset])
        blocks = build_blocks(curve, sc, find_breakpoints(sc))
        assert len(blocks) > 1
        for b in blocks:
            assert type(b.L) is float
            assert b.L == arc_length(curve, b.u_s, b.u_e)


class TestBlockValidation:
    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError):
            Block(u_s=0.5, u_e=0.4, v_s=1.0, v_e=2.0, L=1.0)

    def test_negative_feed_rejected(self):
        with pytest.raises(ValueError):
            Block(u_s=0.0, u_e=1.0, v_s=-1.0, v_e=2.0, L=1.0)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Block(u_s=0.0, u_e=1.0, v_s=1.0, v_e=2.0, L=-1.0)

    def test_zero_feeds_rejected(self):
        # a block that never moves has no duration
        with pytest.raises(ValueError, match="must not both be zero"):
            Block(u_s=0.0, u_e=1.0, v_s=0.0, v_e=0.0, L=1.0)

    def test_duration_is_derived(self):
        # T is no field: it is 2L/(v_s+v_e), the scheduler's arithmetic
        b = Block(u_s=0.0, u_e=1.0, v_s=20.0, v_e=80.0, L=10.0)
        assert [f.name for f in fields(Block)] == ["u_s", "u_e", "v_s", "v_e", "L"]
        assert b.T == block_duration(10.0, 20.0, 80.0) == 0.2
        assert Block(u_s=0.5, u_e=0.5, v_s=0.0, v_e=30.0, L=0.0).T == 0.0

    def test_frozen(self):
        b = Block(u_s=0.0, u_e=1.0, v_s=1.0, v_e=2.0, L=1.0)
        with pytest.raises(AttributeError):
            b.v_e = 3.0
        with pytest.raises(AttributeError):
            b.T = 3.0
