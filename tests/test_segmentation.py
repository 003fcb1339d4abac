import math

import numpy as np
import pytest

from feedsched.chordscan import (
    FeedrateScatter,
    Limits,
    MalformedScatterError,
    scan_curve,
)
from feedsched.curvegen import random_curve
from feedsched.geometry import arc_length
from feedsched.segmentation import (
    Block,
    BlockKind,
    build_blocks,
    classify_kind,
    find_breakpoints,
    screening_factor,
)

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


class TestScreeningFactor:
    def test_collinear_points(self):
        assert screening_factor((0, 0), (1, 1), (2, 2)) == 0.0

    def test_peak(self):
        assert screening_factor((0, 0), (1, 1), (2, 0)) == 2.0

    def test_duplicate_u_rejected(self):
        with pytest.raises(MalformedScatterError):
            screening_factor((0, 0), (0, 1), (1, 2))

    def test_matches_slope_difference(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            u = np.sort(rng.uniform(0, 1, size=3))
            if u[0] == u[1] or u[1] == u[2]:
                continue
            v = rng.uniform(0, 100, size=3)
            left = (v[1] - v[0]) / (u[1] - u[0])
            right = (v[2] - v[1]) / (u[2] - u[1])
            got = screening_factor(
                (u[0], v[0]), (u[1], v[1]), (u[2], v[2])
            )
            assert got == abs(right - left)


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


class TestClassifyKind:
    def test_tolerance_band(self):
        assert classify_kind(50.0, 50.0 + 1e-8, tol=1e-7) is BlockKind.CONSTANT
        assert classify_kind(50.0, 60.0, tol=1e-7) is BlockKind.ACCEL
        assert classify_kind(60.0, 50.0, tol=1e-7) is BlockKind.DECEL


class TestBuildBlocks:
    def test_kinds_and_tiling_on_line(self):
        line = make_line()
        sc = scatter_from(
            [50.0, 100.0, 100.0, 30.0, 30.0],
            u=[0.0, 0.25, 0.5, 0.75, 1.0],
        )
        blocks = build_blocks(line, sc, [0, 1, 3, 4], STD)
        tol = 1e-9 * STD.v_max
        assert [classify_kind(b.v_s, b.v_e, tol) for b in blocks] == [
            BlockKind.ACCEL, BlockKind.DECEL, BlockKind.CONSTANT,
        ]
        assert [b.L for b in blocks] == pytest.approx([25.0, 50.0, 25.0])
        assert blocks[0].u_e == blocks[1].u_s
        assert blocks[1].u_e == blocks[2].u_s
        assert all(b.T == 0.0 for b in blocks)

    def test_requires_two_breakpoints(self):
        line = make_line()
        sc = scatter_from([50.0, 50.0])
        with pytest.raises(MalformedScatterError):
            build_blocks(line, sc, [0], STD)

    def test_constant_scatter_yields_single_block(self):
        line = make_line()
        sc = scatter_from(np.full(30, 64.0))
        blocks = build_blocks(line, sc, find_breakpoints(sc), STD)
        assert len(blocks) == 1
        kind = classify_kind(blocks[0].v_s, blocks[0].v_e, 1e-9 * STD.v_max)
        assert kind is BlockKind.CONSTANT
        assert (blocks[0].u_s, blocks[0].u_e) == (0.0, 1.0)
        assert blocks[0].L == pytest.approx(100.0, rel=1e-9)

    def test_scanned_curve_blocks_tile_and_sum(self):
        curve = random_curve(seed=21)
        sc = scan_curve(curve, STD)
        bps = find_breakpoints(sc)
        blocks = build_blocks(curve, sc, bps, STD)
        assert len(blocks) == len(bps) - 1
        assert blocks[0].u_s == 0.0 and blocks[-1].u_e == 1.0
        for a, b in zip(blocks[:-1], blocks[1:]):
            assert a.u_e == b.u_s
            assert a.v_e == b.v_s
        total = sum(b.L for b in blocks)
        assert total == pytest.approx(arc_length(curve, 0.0, 1.0), rel=1e-8)
        for b in blocks:
            assert b.v_s == sc.value_at(b.u_s)
            assert b.v_e == sc.value_at(b.u_e)


class TestBlockValidation:
    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError):
            Block(u_s=0.5, u_e=0.4, v_s=1.0, v_e=2.0, L=1.0)

    def test_negative_feed_rejected(self):
        with pytest.raises(ValueError):
            Block(u_s=0.0, u_e=1.0, v_s=-1.0, v_e=2.0, L=1.0)
