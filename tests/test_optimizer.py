import math

import numpy as np
import pytest

import oracles
from conftest import make_line
from feedsched.chordscan import FeedrateScatter, Limits
from feedsched.curvegen import random_curve
from feedsched.geometry import arc_length
from feedsched.optimizer import (
    InfeasibleJunctionError,
    OptimizerError,
    SweepConvergenceError,
    adjust_peak_junction,
    adjust_with_constant,
    extend_into_constant,
    schedule,
    solve_real_roots,
    transition_max_feed,
    transition_min_length,
)
from feedsched.chordscan import scan_curve
from feedsched.segmentation import Block, build_blocks, find_breakpoints
from feedsched.sprofile import ProfileError, kernel, sigmoid_family

STD = Limits(
    Ts=1e-3, delta_max=5e-4, v_max=100.0, a_max=1000.0, j_max=26000.0,
    shape_s=3.3,
)
SIG = sigmoid_family(3.3)


def peaks(b):
    return SIG.fit(b.v_s, b.v_e, b.L).peaks()


class TestComputeMus:
    def test_reference_shape(self):
        family = sigmoid_family(3.3)
        # the core acceleration coefficient binds at this shape
        assert family.mu_n == pytest.approx(0.8881, abs=1e-3)
        assert 1.10 <= family.mu_m <= 1.14
        assert family.mu_m < math.pi**2 / 8.0

    def test_kernel_symmetry_identity(self):
        # f(s) - f(-s) == 2 f(s) - 1, so the core acceleration
        # coefficient s / (4 (f(s) - f(-s))), which mu_n is at this
        # shape, can be recomputed that way
        s = 3.3
        family = sigmoid_family(s)
        alt = s / (4.0 * (2.0 * kernel(s)[0] - 1.0))
        assert family.mu_n == pytest.approx(alt, rel=1e-12)

    def test_rejects_bad_shape(self):
        with pytest.raises(ProfileError):
            sigmoid_family(0.0)


class TestSolveRealRoots:
    def test_quadratic(self):
        roots = solve_real_roots([1.0, 0.0, -1.0], (0.0, 2.0))
        assert roots == pytest.approx([1.0], abs=1e-12)

    def test_interval_filters(self):
        roots = solve_real_roots([1.0, 0.0, -1.0], (-2.0, 2.0))
        assert roots == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_complex_pair_ignored(self):
        # (x - 0.3)(x - 0.6)(x^2 + 1)
        poly = np.polymul(np.polymul([1.0, -0.3], [1.0, -0.6]), [1.0, 0.0, 1.0])
        roots = solve_real_roots(list(poly), (0.0, 1.0))
        assert roots == pytest.approx([0.3, 0.6], abs=1e-9)

    def test_leading_zeros_trimmed(self):
        roots = solve_real_roots([0.0, 0.0, 1.0, -1.0], (0.0, 2.0))
        assert roots == pytest.approx([1.0], abs=1e-12)

    def test_double_root_deduplicated(self):
        roots = solve_real_roots([1.0, -4.0, 4.0], (0.0, 5.0))
        assert len(roots) == 1
        assert roots[0] == pytest.approx(2.0, abs=1e-6)

    def test_constant_polynomial_has_no_roots(self):
        assert solve_real_roots([3.0], (0.0, 1.0)) == []

    def test_random_cubics_recovered(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            r = np.sort(rng.uniform(0.1, 9.9, size=3))
            if np.min(np.diff(r)) < 1e-3:
                continue
            poly = np.polymul(np.polymul([1.0, -r[0]], [1.0, -r[1]]), [1.0, -r[2]])
            got = solve_real_roots(list(poly), (0.0, 10.0))
            assert got == pytest.approx(list(r), abs=1e-7)


class TestTransitionHelpers:
    def test_zero_rise(self):
        assert transition_min_length(50.0, 50.0, SIG, STD) == 0.0
        assert transition_max_feed(50.0, 0.0, SIG, STD) == 50.0

    def test_ordering_enforced(self):
        with pytest.raises(OptimizerError):
            transition_min_length(60.0, 50.0, SIG, STD)

    def test_roundtrip(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            lo = rng.uniform(0.0, 80.0)
            hi = lo + rng.uniform(0.01, 100.0)
            L = transition_min_length(lo, hi, SIG, STD)
            back = transition_max_feed(lo, L, SIG, STD)
            assert back == pytest.approx(hi, rel=1e-9)

    def test_monotone_in_length(self):
        feeds = [transition_max_feed(10.0, L, SIG, STD) for L in (0.1, 1.0, 10.0)]
        assert feeds[0] < feeds[1] < feeds[2]

    def test_infinite_jerk_leaves_accel_bound(self):
        lim = Limits(
            Ts=1e-3, delta_max=5e-4, v_max=100.0, a_max=1000.0,
            j_max=math.inf, shape_s=3.3,
        )
        got = transition_max_feed(10.0, 2.0, SIG, lim)
        assert got == pytest.approx(
            math.sqrt(100.0 + 1000.0 * 2.0 / SIG.mu_n), rel=1e-12
        )

    def test_min_length_is_true_feasibility_boundary(self):
        # the reduction coefficients are exact for this shape parameter,
        # so a transition at the minimum length peaks right at a limit
        rng = np.random.default_rng(7)
        for _ in range(50):
            lo = rng.uniform(0.0, 70.0)
            hi = lo + rng.uniform(0.5, 60.0)
            L = transition_min_length(lo, hi, SIG, STD)
            a_pk, j_pk = oracles.transition_peaks(lo, hi, L, 3.3)
            ratio = max(float(a_pk) / STD.a_max, float(j_pk) / STD.j_max)
            assert ratio == pytest.approx(1.0, rel=1e-6)
            assert float(a_pk) <= STD.a_max * (1.0 + 1e-9)
            assert float(j_pk) <= STD.j_max * (1.0 + 1e-9)


class TestPeakOracleAgreement:
    def test_vector_peaks_match_library(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            lo = rng.uniform(0.0, 90.0)
            hi = lo + rng.uniform(0.01, 60.0)
            L = rng.uniform(0.05, 30.0)
            a_ref, j_ref = oracles.transition_peaks(lo, hi, L, 3.3)
            for v_s, v_e in ((lo, hi), (hi, lo)):
                blk = Block(0.0, 1.0, v_s, v_e, L)
                a_pk, j_pk = peaks(blk)
                assert a_pk == pytest.approx(float(a_ref), rel=1e-12, abs=1e-12)
                assert j_pk == pytest.approx(float(j_ref), rel=1e-12, abs=1e-12)


class TestAdjustPeakJunction:
    def test_feasible_peak_unchanged(self):
        got = adjust_peak_junction(10.0, 30.0, 20.0, 50.0, 50.0, SIG, STD)
        assert got == 30.0

    def test_symmetric_sides(self):
        a = adjust_peak_junction(10.0, 90.0, 20.0, 2.0, 3.0, SIG, STD)
        b = adjust_peak_junction(20.0, 90.0, 10.0, 3.0, 2.0, SIG, STD)
        assert a == pytest.approx(b, rel=1e-12)

    def test_not_a_peak_rejected(self):
        with pytest.raises(OptimizerError):
            adjust_peak_junction(50.0, 40.0, 30.0, 1.0, 1.0, SIG, STD)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(101)
        checked = 0
        for _ in range(60):
            v1 = rng.uniform(1.0, 80.0)
            v3 = rng.uniform(1.0, 80.0)
            v2 = max(v1, v3) + rng.uniform(0.5, 60.0)
            L1 = rng.uniform(0.05, 8.0)
            L2 = rng.uniform(0.05, 8.0)
            expect = oracles.largest_peak_feed(
                v1, v3, L1, L2, v2, 3.3, STD.a_max, STD.j_max
            )
            if expect is None:
                with pytest.raises(InfeasibleJunctionError):
                    adjust_peak_junction(v1, v2, v3, L1, L2, SIG, STD)
                continue
            got = adjust_peak_junction(v1, v2, v3, L1, L2, SIG, STD)
            assert got == pytest.approx(expect, rel=1e-6, abs=1e-3)
            checked += 1
        assert checked >= 20

    def test_infeasible_error_carries_caps(self):
        with pytest.raises(InfeasibleJunctionError) as err:
            adjust_peak_junction(20.0, 85.0, 80.0, 0.5, 3.0, SIG, STD)
        cap1, cap2 = err.value.caps
        assert cap1 == pytest.approx(transition_max_feed(20.0, 0.5, SIG, STD))
        assert cap2 == pytest.approx(transition_max_feed(80.0, 3.0, SIG, STD))


class TestExtendIntoConstant:
    def test_already_feasible_untouched(self):
        trans = Block(0.0, 0.3, 10.0, 60.0, 30.0)
        const = Block(0.3, 0.5, 60.0, 60.0, 20.0)
        t2, c2, feed = extend_into_constant(trans, const, SIG, STD)
        assert feed == 60.0
        assert t2.L == 30.0 and c2.L == 20.0

    def test_partial_transfer_reaches_tightness(self):
        trans = Block(0.0, 0.05, 10.0, 60.0, 0.5)
        const = Block(0.05, 0.9, 60.0, 60.0, 10.0)
        _, _, feed = extend_into_constant(trans, const, SIG, STD)
        need = transition_min_length(10.0, 60.0, SIG, STD)
        assert feed == 60.0
        assert trans.L == pytest.approx(need, rel=1e-12)
        assert trans.L + const.L == pytest.approx(10.5, rel=1e-12)
        a_pk, j_pk = oracles.transition_peaks(10.0, 60.0, trans.L, 3.3)
        ratio = max(float(a_pk) / STD.a_max, float(j_pk) / STD.j_max)
        assert ratio == pytest.approx(1.0, rel=1e-6)

    def test_constant_consumed_lowers_feed(self):
        trans = Block(0.0, 0.05, 10.0, 60.0, 0.5)
        const = Block(0.05, 0.15, 60.0, 60.0, 1.0)
        _, _, feed = extend_into_constant(trans, const, SIG, STD)
        assert feed == pytest.approx(
            transition_max_feed(10.0, 1.5, SIG, STD), rel=1e-12
        )
        assert const.L == 0.0
        assert const.v_s == const.v_e == feed
        assert trans.v_e == feed
        assert trans.L == pytest.approx(1.5, rel=1e-12)

    def test_braking_orientation(self):
        const = Block(0.0, 0.4, 60.0, 60.0, 10.0)
        trans = Block(0.4, 0.45, 60.0, 10.0, 0.5)
        _, _, feed = extend_into_constant(trans, const, SIG, STD)
        need = transition_min_length(10.0, 60.0, SIG, STD)
        assert feed == 60.0
        assert trans.L == pytest.approx(need, rel=1e-12)

    def test_constant_block_rejected_as_transition(self):
        trans = Block(0.0, 0.1, 50.0, 50.0, 5.0)
        const = Block(0.1, 0.2, 50.0, 50.0, 5.0)
        with pytest.raises(OptimizerError):
            extend_into_constant(trans, const, SIG, STD)


class TestAdjustWithConstant:
    def test_flat_span(self):
        out = adjust_with_constant(50.0, 50.0, 10.0, 50.0, SIG, STD)
        assert out.v2_opt == 50.0
        assert out.lengths == (0.0, 10.0, 0.0)

    def test_ceiling_below_endpoints_rejected(self):
        with pytest.raises(OptimizerError):
            adjust_with_constant(50.0, 40.0, 10.0, 45.0, SIG, STD)

    def test_infeasible_span_raises(self):
        with pytest.raises(InfeasibleJunctionError):
            adjust_with_constant(10.0, 80.0, 0.2, 90.0, SIG, STD)

    def test_invariants(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            v1 = rng.uniform(1.0, 60.0)
            v3 = rng.uniform(1.0, 60.0)
            ceiling = max(v1, v3) + rng.uniform(0.0, 40.0)
            L = rng.uniform(1.0, 80.0)
            try:
                out = adjust_with_constant(v1, v3, L, ceiling, SIG, STD)
            except InfeasibleJunctionError:
                continue
            l1, l2, l3 = out.lengths
            assert l1 + l2 + l3 == pytest.approx(L, rel=1e-9)
            assert max(v1, v3) - 1e-9 <= out.v2_opt <= ceiling + 1e-9
            assert l2 >= 0.0
            assert l1 >= transition_min_length(v1, out.v2_opt, SIG, STD) - 1e-9
            assert l3 >= transition_min_length(v3, out.v2_opt, SIG, STD) - 1e-9

    def test_floors_respected(self):
        out = adjust_with_constant(
            20.0, 30.0, 20.0, 60.0, SIG, STD, floors=(5.0, 6.0)
        )
        l1, l2, l3 = out.lengths
        assert l1 >= 5.0 - 1e-12
        assert l3 >= 6.0 - 1e-12
        assert l1 + l2 + l3 == pytest.approx(20.0, rel=1e-12)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(77)
        done = 0
        for _ in range(30):
            v1 = rng.uniform(5.0, 60.0)
            v3 = rng.uniform(5.0, 60.0)
            ceiling = max(v1, v3) + rng.uniform(1.0, 40.0)
            L = rng.uniform(2.0, 60.0)
            ref = oracles.best_span_time(
                v1, v3, L, ceiling, 3.3, STD.a_max, STD.j_max
            )
            try:
                out = adjust_with_constant(v1, v3, L, ceiling, SIG, STD)
            except InfeasibleJunctionError:
                assert not math.isfinite(ref)
                continue
            l1, l2, l3 = out.lengths
            v2 = out.v2_opt
            t = 2.0 * l1 / (v1 + v2) + 2.0 * l3 / (v3 + v2) + l2 / v2
            assert math.isfinite(ref)
            assert t == pytest.approx(ref, rel=1e-6)
            done += 1
        assert done >= 20


def line_setup(length, feeds, cuts):
    """A straight segment with blocks cut at the given arc fractions."""
    curve = make_line(end=(length, 0.0))
    us = [0.0] + list(cuts) + [1.0]
    blocks = []
    for i in range(len(us) - 1):
        v_s, v_e = feeds[i]
        blocks.append(
            Block(us[i], us[i + 1], v_s, v_e, (us[i + 1] - us[i]) * length)
        )
    return curve, blocks


class TestSchedule:
    def test_already_optimal_is_fixpoint(self):
        curve, blocks = line_setup(
            100.0,
            [(20.0, 60.0), (60.0, 60.0), (60.0, 20.0)],
            [0.3, 0.7],
        )
        scatter = FeedrateScatter([0.0, 0.3, 0.7, 1.0], [20.0, 60.0, 60.0, 20.0])
        out = schedule(curve, blocks, scatter, STD)
        for got, orig in zip(out, blocks):
            assert got.v_s == orig.v_s and got.v_e == orig.v_e
            assert got.L == pytest.approx(orig.L, rel=1e-12)
        assert out[0].T == pytest.approx(2.0 * 30.0 / 80.0)
        assert out[1].T == pytest.approx(40.0 / 60.0)

    def test_input_not_mutated(self):
        curve, blocks = line_setup(4.0, [(20.0, 90.0), (90.0, 20.0)], [0.5])
        scatter = FeedrateScatter([0.0, 0.5, 1.0], [20.0, 90.0, 20.0])
        before = [(b.v_s, b.v_e, b.L) for b in blocks]
        schedule(curve, blocks, scatter, STD)
        assert [(b.v_s, b.v_e, b.L) for b in blocks] == before

    def test_peak_junction_lowered(self):
        curve, blocks = line_setup(4.0, [(20.0, 90.0), (90.0, 20.0)], [0.5])
        scatter = FeedrateScatter([0.0, 0.5, 1.0], [20.0, 90.0, 20.0])
        out = schedule(curve, blocks, scatter, STD)
        want = min(
            transition_max_feed(20.0, 2.0, SIG, STD),
            transition_max_feed(20.0, 2.0, SIG, STD),
        )
        assert out[0].v_e == pytest.approx(want, rel=1e-9)
        assert out[1].v_s == out[0].v_e
        for b in out:
            a_pk, j_pk = peaks(b)
            assert a_pk <= STD.a_max * (1.0 + 1e-9)
            assert j_pk <= STD.j_max * (1.0 + 1e-9)

    def test_infeasible_peak_flattens_taller_side(self):
        curve, blocks = line_setup(3.5, [(20.0, 85.0), (85.0, 80.0)], [1.0 / 7.0])
        scatter = FeedrateScatter([0.0, 1.0 / 7.0, 1.0], [20.0, 85.0, 80.0])
        out = schedule(curve, blocks, scatter, STD)
        cap = transition_max_feed(20.0, 0.5, SIG, STD)
        assert out[0].v_e == pytest.approx(cap, rel=1e-6)
        assert out[1].v_s == out[0].v_e
        assert out[1].v_e == pytest.approx(out[1].v_s, abs=1e-6)

    def test_tail_transition_grows_into_constant(self):
        curve, blocks = line_setup(21.0, [(30.0, 70.0), (70.0, 70.0)], [1.0 / 21.0])
        scatter = FeedrateScatter([0.0, 1.0 / 21.0, 1.0], [30.0, 70.0, 70.0])
        out = schedule(curve, blocks, scatter, STD)
        need = transition_min_length(30.0, 70.0, SIG, STD)
        assert out[0].L == pytest.approx(need, rel=1e-9)
        assert out[1].L == pytest.approx(21.0 - need, rel=1e-9)
        assert out[0].v_e == 70.0
        assert out[0].u_e == pytest.approx(need / 21.0, rel=1e-6)
        assert out[1].u_s == out[0].u_e

    def test_head_transition_grows_into_constant(self):
        curve, blocks = line_setup(21.0, [(70.0, 70.0), (70.0, 30.0)], [20.0 / 21.0])
        scatter = FeedrateScatter([0.0, 20.0 / 21.0, 1.0], [70.0, 70.0, 30.0])
        out = schedule(curve, blocks, scatter, STD)
        need = transition_min_length(30.0, 70.0, SIG, STD)
        assert out[1].L == pytest.approx(need, rel=1e-9)
        assert out[0].L == pytest.approx(21.0 - need, rel=1e-9)
        assert out[1].v_s == 70.0

    def test_acd_span_grows_tight_transitions(self):
        cuts = [2.0 / 34.0, 32.0 / 34.0]
        curve, blocks = line_setup(
            34.0, [(20.0, 80.0), (80.0, 80.0), (80.0, 20.0)], cuts
        )
        scatter = FeedrateScatter(
            [0.0, cuts[0], cuts[1], 1.0], [20.0, 80.0, 80.0, 20.0]
        )
        out = schedule(curve, blocks, scatter, STD)
        need = transition_min_length(20.0, 80.0, SIG, STD)
        assert out[0].v_e == 80.0
        assert out[0].L == pytest.approx(need, rel=1e-9)
        assert out[2].L == pytest.approx(need, rel=1e-9)
        assert out[1].L == pytest.approx(34.0 - 2.0 * need, rel=1e-9)
        a_pk, _ = peaks(out[0])
        assert a_pk == pytest.approx(STD.a_max, rel=1e-6)

    def test_acd_honors_scatter_dip(self):
        cuts = [2.0 / 34.0, 32.0 / 34.0]
        curve, blocks = line_setup(
            34.0, [(20.0, 80.0), (80.0, 80.0), (80.0, 20.0)], cuts
        )
        scatter = FeedrateScatter(
            [0.0, cuts[0], 0.5, cuts[1], 1.0], [20.0, 80.0, 50.0, 80.0, 20.0]
        )
        out = schedule(curve, blocks, scatter, STD)
        assert out[1].v_s == pytest.approx(50.0, rel=1e-9)
        assert out[0].v_e == out[1].v_s
        assert out[2].v_s == out[1].v_e
        need = transition_min_length(20.0, 50.0, SIG, STD)
        assert out[0].L == pytest.approx(max(need, 2.0), rel=1e-9)

    def test_no_constant_budget_collapses_to_peak(self):
        # span too short to hold any steady phase at the ceiling
        cuts = [0.45, 0.55]
        curve, blocks = line_setup(
            3.0, [(20.0, 80.0), (80.0, 80.0), (80.0, 20.0)], cuts
        )
        scatter = FeedrateScatter(
            [0.0, cuts[0], cuts[1], 1.0], [20.0, 80.0, 80.0, 20.0]
        )
        out = schedule(curve, blocks, scatter, STD)
        assert out[1].v_s < 80.0
        assert out[0].v_e == out[1].v_s == out[1].v_e == out[2].v_s
        total = sum(b.L for b in out)
        assert total == pytest.approx(3.0, rel=1e-12)
        for b in out:
            if b.L > 0.0:
                a_pk, j_pk = peaks(b)
                assert a_pk <= STD.a_max * (1.0 + 1e-9)
                assert j_pk <= STD.j_max * (1.0 + 1e-9)

    def test_non_convergence_raises(self):
        curve, blocks = line_setup(4.0, [(20.0, 90.0), (90.0, 20.0)], [0.5])
        scatter = FeedrateScatter([0.0, 0.5, 1.0], [20.0, 90.0, 20.0])
        with pytest.raises(SweepConvergenceError):
            schedule(curve, blocks, scatter, STD, max_sweeps=0)

    def test_deterministic(self):
        curve = random_curve(17)
        scatter = scan_curve(curve, STD)
        bps = find_breakpoints(scatter)
        blocks = build_blocks(curve, scatter, bps, STD)
        a = schedule(curve, blocks, scatter, STD)
        b = schedule(curve, blocks, scatter, STD)
        assert [(x.u_s, x.u_e, x.v_s, x.v_e, x.L, x.T) for x in a] == [
            (x.u_s, x.u_e, x.v_s, x.v_e, x.L, x.T) for x in b
        ]

    def test_scanned_curve_end_to_end(self):
        curve = random_curve(3)
        scatter = scan_curve(curve, STD)
        bps = find_breakpoints(scatter)
        blocks = build_blocks(curve, scatter, bps, STD)
        out = schedule(curve, blocks, scatter, STD)
        assert len(out) == len(blocks)
        for prev, cur in zip(out[:-1], out[1:]):
            assert prev.v_e == cur.v_s
            assert prev.u_e == cur.u_s
        total = sum(b.L for b in out)
        assert total == pytest.approx(arc_length(curve, 0.0, 1.0), rel=1e-8)
        for got, orig in zip(out, blocks):
            assert got.v_s <= orig.v_s + 1e-9
            assert got.v_e <= orig.v_e + 1e-9
        for b in out:
            assert b.T >= 0.0
            if b.L > 0.0:
                assert b.T > 0.0
                a_pk, j_pk = peaks(b)
                assert a_pk <= STD.a_max * (1.0 + 1e-9)
                assert j_pk <= STD.j_max * (1.0 + 1e-9)
