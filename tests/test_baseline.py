import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import make_line
from feedsched.baseline import SINE, SineProfile, sine_schedule
from feedsched.chordscan import FeedrateScatter, Limits, scan_curve
from feedsched.curvegen import random_curve
from feedsched.geometry import arc_length
from feedsched.optimizer import schedule
from feedsched.segmentation import Block, build_blocks, find_breakpoints
from feedsched.sprofile import ProfileDomainError, ProfileError, block_duration

HIGH = Limits(
    Ts=1e-3, delta_max=5e-4, v_max=100.0, a_max=3000.0, j_max=55000.0,
    shape_s=3.3,
)


def sine_peaks(v_s, v_e, L):
    return SINE.fit(v_s, v_e, L).peaks()


def random_profile(rng):
    v_s = rng.uniform(1.0, 100.0)
    v_e = rng.uniform(1.0, 100.0)
    L = rng.uniform(0.5, 50.0)
    return SineProfile(v_s, v_e, 2.0 * L / (v_s + v_e))


class TestSineProfile:
    def test_build_from_block(self):
        prof = SINE.fit(20.0, 80.0, 10.0)
        assert prof.v_s == 20.0 and prof.v_e == 80.0
        want = block_duration(10.0, 20.0, 80.0)
        assert prof.T == pytest.approx(want, rel=1e-15)

    def test_rejects_bad_fields(self):
        with pytest.raises(ProfileError):
            SineProfile(-1.0, 20.0, 1.0)
        with pytest.raises(ProfileError):
            SineProfile(20.0, 10.0, -0.5)
        with pytest.raises(ProfileError):
            SineProfile(10.0, 20.0, 0.0)

    def test_degenerate_constant_allowed(self):
        prof = SineProfile(30.0, 30.0, 0.0)
        assert prof.kinematics(0.0)[0] == 30.0


class TestEvaluators:
    def test_endpoint_velocities(self):
        prof = SineProfile(20.0, 80.0, 0.5)
        assert prof.kinematics(0.0)[0] == pytest.approx(20.0, rel=1e-12)
        assert prof.kinematics(prof.T)[0] == pytest.approx(80.0, rel=1e-12)

    def test_midpoint_values(self):
        prof = SineProfile(20.0, 80.0, 0.5)
        half = prof.T / 2.0
        assert prof.kinematics(half)[0] == pytest.approx(50.0, rel=1e-12)
        want = (80.0 - 20.0) * math.pi / (2.0 * prof.T)
        assert prof.kinematics(half)[1] == pytest.approx(want, rel=1e-12)
        assert prof.kinematics(half)[2] == pytest.approx(0.0, abs=1e-9)

    def test_acceleration_vanishes_at_ends(self):
        prof = SineProfile(20.0, 80.0, 0.5)
        assert abs(prof.kinematics(0.0)[1]) < 1e-9
        assert abs(prof.kinematics(prof.T)[1]) < 1e-9

    def test_jerk_nonzero_at_ends(self):
        # the sine shape starts and stops with a jerk discontinuity
        prof = SineProfile(20.0, 80.0, 0.5)
        want = (80.0 - 20.0) * math.pi**2 / (2.0 * prof.T**2)
        assert prof.kinematics(0.0)[2] == pytest.approx(want, rel=1e-12)
        assert prof.kinematics(prof.T)[2] == pytest.approx(-want, rel=1e-12)

    def test_braking_flips_signs(self):
        prof = SineProfile(80.0, 20.0, 0.5)
        assert prof.kinematics(prof.T / 2.0)[1] < 0.0
        assert prof.kinematics(0.0)[2] < 0.0

    def test_constant_profile(self):
        prof = SineProfile(40.0, 40.0, 1.25)
        for t in (0.0, 0.3, 1.25):
            assert prof.kinematics(t) == (40.0, 0.0, 0.0)

    def test_domain_errors(self):
        prof = SineProfile(20.0, 80.0, 0.5)
        for t in (-1e-3, prof.T + 1e-3):
            with pytest.raises(ProfileDomainError):
                prof.kinematics(t)
        # grace band just outside the ends is tolerated
        assert prof.kinematics(-1e-10)[0] == pytest.approx(20.0, rel=1e-9)

    def test_derivative_chain(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            prof = random_profile(rng)
            h = prof.T * 1e-6
            for frac in (0.2, 0.5, 0.8):
                t = prof.T * frac
                dv = (
                    prof.kinematics(t + h)[0] - prof.kinematics(t - h)[0]
                ) / (2.0 * h)
                da = (
                    prof.kinematics(t + h)[1]
                    - prof.kinematics(t - h)[1]
                ) / (2.0 * h)
                assert dv == pytest.approx(
                    prof.kinematics(t)[1], rel=1e-5, abs=1e-6
                )
                assert da == pytest.approx(
                    prof.kinematics(t)[2], rel=1e-5, abs=1e-4
                )


class TestSineDisplacement:
    def test_full_span_recovers_length(self):
        rng = np.random.default_rng(88)
        for _ in range(40):
            v_s = rng.uniform(1.0, 100.0)
            v_e = rng.uniform(1.0, 100.0)
            L = rng.uniform(0.5, 50.0)
            prof = SineProfile(v_s, v_e, 2.0 * L / (v_s + v_e))
            assert prof.displacement(0.0) == 0.0
            got = prof.displacement(prof.T)
            assert got == pytest.approx(L, rel=1e-12)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(89)
        for _ in range(15):
            prof = random_profile(rng)
            for frac in (0.15, 0.4, 0.77):
                t = prof.T * frac
                want, _ = quad(
                    lambda x: prof.kinematics(x)[0], 0.0, t,
                    epsabs=0.0, epsrel=1e-12,
                )
                got = prof.displacement(t)
                assert got == pytest.approx(want, rel=1e-9)

    def test_constant_profile_is_linear(self):
        prof = SineProfile(40.0, 40.0, 1.25)
        assert prof.displacement(0.6) == pytest.approx(24.0, rel=1e-15)


class TestSinePeaks:
    def test_closed_form_matches_dense_sampling(self):
        # oracle: brute-force maxima over a fine grid that contains the
        # analytic extremum locations (midpoint and both ends)
        rng = np.random.default_rng(62)
        for _ in range(40):
            prof = random_profile(rng)
            L = 0.5 * (prof.v_s + prof.v_e) * prof.T
            ts = np.linspace(0.0, prof.T, 20001)
            acc = np.array([prof.kinematics(t)[1] for t in ts])
            jrk = np.array([prof.kinematics(t)[2] for t in ts])
            a_pk, j_pk = sine_peaks(prof.v_s, prof.v_e, L)
            assert a_pk == pytest.approx(np.max(np.abs(acc)), rel=1e-9)
            assert j_pk == pytest.approx(np.max(np.abs(jrk)), rel=1e-9)
            assert a_pk >= np.max(np.abs(acc)) * (1.0 - 1e-12)
            assert j_pk >= np.max(np.abs(jrk)) * (1.0 - 1e-12)

    def test_no_feed_change(self):
        assert sine_peaks(50.0, 50.0, 10.0) == (0.0, 0.0)
        assert sine_peaks(50.0, 50.0, 0.0) == (0.0, 0.0)
        with pytest.raises(ProfileError):
            sine_peaks(50.0, 80.0, 0.0)

    def test_direction_symmetric(self):
        assert sine_peaks(20.0, 80.0, 5.0) == sine_peaks(80.0, 20.0, 5.0)

    def test_velocity_integral_recovers_length(self):
        rng = np.random.default_rng(63)
        for _ in range(10):
            prof = random_profile(rng)
            L = 0.5 * (prof.v_s + prof.v_e) * prof.T
            got, err = quad(
                lambda t: prof.kinematics(t)[0], 0.0, prof.T, limit=200
            )
            assert got == pytest.approx(L, rel=1e-9)


class TestSineMus:
    def test_exact_constants(self):
        mu_accel, mu_jerk = SINE.mu_n, SINE.mu_m
        assert abs(mu_accel - math.pi / 4.0) < 1e-9
        assert abs(mu_jerk - math.pi**2 / 8.0) < 1e-9

    def test_constants_reproduce_peaks(self):
        # the two constants turn peak formulas into exact identities,
        # so the transition solvers are exactly tight for this shape
        mu_accel, mu_jerk = SINE.mu_n, SINE.mu_m
        rng = np.random.default_rng(64)
        for _ in range(30):
            v_lo = rng.uniform(1.0, 60.0)
            v_hi = v_lo + rng.uniform(0.5, 40.0)
            L = rng.uniform(0.5, 50.0)
            a_pk, j_pk = sine_peaks(v_lo, v_hi, L)
            assert a_pk == pytest.approx(
                mu_accel * (v_hi**2 - v_lo**2) / L, rel=1e-12
            )
            assert j_pk == pytest.approx(
                mu_jerk * (v_hi - v_lo) * (v_hi + v_lo) ** 2 / L**2, rel=1e-12
            )


class TestSineSchedule:
    def test_tight_transition_is_fixpoint(self):
        # a single rise at exactly the jerk-limited minimum length keeps
        # its feeds, and its peak jerk sits on the limit
        mu_accel, mu_jerk = SINE.mu_n, SINE.mu_m
        v_lo, v_hi = 20.0, 80.0
        L = math.sqrt(mu_jerk * (v_hi - v_lo) / HIGH.j_max) * (v_hi + v_lo)
        curve = make_line(end=(L, 0.0))
        blocks = [Block(0.0, 1.0, v_lo, v_hi, L)]
        scatter = FeedrateScatter([0.0, 1.0], [v_lo, v_hi])
        out = sine_schedule(curve, blocks, scatter, HIGH)
        assert out[0].v_s == v_lo and out[0].v_e == pytest.approx(v_hi, rel=1e-9)
        _, j_pk = sine_peaks(out[0].v_s, out[0].v_e, out[0].L)
        assert j_pk <= HIGH.j_max * (1.0 + 1e-9)
        assert j_pk == pytest.approx(HIGH.j_max, rel=1e-6)

    def test_overfast_rise_is_cut_to_sine_capacity(self):
        # too short for 20 -> 90: end feed drops to what the sine shape
        # can reach, which is below the shaped-profile capacity
        curve = make_line(end=(2.0, 0.0))
        blocks = [Block(0.0, 1.0, 20.0, 90.0, 2.0)]
        scatter = FeedrateScatter([0.0, 1.0], [20.0, 90.0])
        sine_out = sine_schedule(curve, blocks, scatter, HIGH)
        sig_out = schedule(curve, blocks, scatter, HIGH)
        assert sine_out[0].v_e < 90.0
        assert sine_out[0].v_e < sig_out[0].v_e
        a_pk, j_pk = sine_peaks(sine_out[0].v_s, sine_out[0].v_e, 2.0)
        assert a_pk <= HIGH.a_max * (1.0 + 1e-9)
        assert j_pk <= HIGH.j_max * (1.0 + 1e-9)

    def test_scanned_curve_invariants(self):
        curve = random_curve(3)
        scatter = scan_curve(curve, HIGH)
        bps = find_breakpoints(scatter)
        blocks = build_blocks(curve, scatter, bps, HIGH)
        out = sine_schedule(curve, blocks, scatter, HIGH)
        total_len = arc_length(curve, 0.0, 1.0)
        assert sum(b.L for b in out) == pytest.approx(total_len, rel=1e-8)
        for prev, cur in zip(out[:-1], out[1:]):
            assert prev.u_e == cur.u_s
            assert prev.v_e == cur.v_s
        for b in out:
            if b.L <= 0.0:
                continue
            assert b.T > 0.0
            a_pk, j_pk = sine_peaks(b.v_s, b.v_e, b.L)
            assert a_pk <= HIGH.a_max * (1.0 + 1e-9)
            assert j_pk <= HIGH.j_max * (1.0 + 1e-9)

    def test_slower_than_shaped_profile_when_jerk_binds(self):
        # same blocks, same limits: the shaped profile never loses under
        # a jerk-dominated setting because its jerk coefficient is lower
        for seed in (3, 17):
            curve = random_curve(seed)
            scatter = scan_curve(curve, HIGH)
            bps = find_breakpoints(scatter)
            blocks = build_blocks(curve, scatter, bps, HIGH)
            t_sine = sum(b.T for b in sine_schedule(curve, blocks, scatter, HIGH))
            t_sig = sum(b.T for b in schedule(curve, blocks, scatter, HIGH))
            assert t_sig <= t_sine * (1.0 + 1e-12)
            assert t_sine > 0.0 and t_sig > 0.0
