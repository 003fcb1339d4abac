import math

import numpy as np
import pytest
from oracles import core_reference, junction_residuals

from feedsched.sprofile import (
    SIG_D2_ARGMAX,
    SIG_D2_MAX,
    DwellUnsupportedError,
    ProfileDomainError,
    ProfileError,
    block_duration,
    kernel,
    mirrored_kernel,
    sigmoid_family,
)


def fit(v_s, v_e, L, s=3.3):
    return sigmoid_family(s).fit(v_s, v_e, L)


def logistic(x):
    return 1.0 / (1.0 + math.exp(-x))


class TestKernel:
    def test_center_values(self):
        f, f1, f2 = kernel(0.0)
        assert f == 0.5
        assert f1 == 0.25
        assert f2 == 0.0

    def test_saturates_without_overflow(self):
        assert kernel(1000.0)[0] == 1.0
        assert kernel(-1000.0)[0] == pytest.approx(0.0, abs=1e-300)

    def test_second_derivative_closed_form(self):
        rng = np.random.default_rng(5)
        for x in rng.uniform(-6.0, 6.0, size=50):
            f, _, f2 = kernel(float(x))
            assert f2 == pytest.approx(2 * f**3 - 3 * f**2 + f, abs=1e-15)

    def test_derivatives_match_finite_differences(self):
        h = 1e-5
        rng = np.random.default_rng(6)
        for x in rng.uniform(-4.0, 4.0, size=40):
            x = float(x)
            f, f1, f2 = kernel(x)
            fd1 = (kernel(x + h)[0] - kernel(x - h)[0]) / (2 * h)
            fd2 = (kernel(x + h)[0] - 2 * f + kernel(x - h)[0]) / (h * h)
            assert f1 == pytest.approx(fd1, abs=1e-9)
            assert f2 == pytest.approx(fd2, abs=1e-5)

    def test_peak_curvature_location_and_value(self):
        # largest second derivative sits where f = 1/2 - sqrt(3)/6
        f, _, f2 = kernel(-SIG_D2_ARGMAX)
        assert f == pytest.approx(0.5 - math.sqrt(3.0) / 6.0, abs=1e-12)
        assert f2 == pytest.approx(SIG_D2_MAX, abs=1e-12)
        assert abs(f2) == pytest.approx(0.096225, abs=1e-6)
        xs = np.linspace(-3.0, 0.0, 20001)
        vals = [kernel(float(x))[2] for x in xs]
        assert max(vals) <= SIG_D2_MAX + 1e-12

    def test_mirrored_family(self):
        h = 1e-5
        for x in (-2.2, -0.7, 0.0, 1.3, 3.1):
            p, p1, p2 = mirrored_kernel(x)
            assert p == pytest.approx(kernel(-x)[0], abs=1e-15)
            fd1 = (mirrored_kernel(x + h)[0] - mirrored_kernel(x - h)[0]) / (2 * h)
            fd2 = (mirrored_kernel(x + h)[0] - 2 * p
                   + mirrored_kernel(x - h)[0]) / (h * h)
            assert p1 == pytest.approx(fd1, abs=1e-9)
            assert p2 == pytest.approx(fd2, abs=1e-5)


class TestBlockDuration:
    def test_accelerating_block(self):
        assert block_duration(10.0, 0.0, 100.0) == pytest.approx(0.2)

    def test_constant_block(self):
        assert block_duration(7.38, 100.0, 100.0) == pytest.approx(0.0738)

    def test_dwell_rejected(self):
        with pytest.raises(DwellUnsupportedError):
            block_duration(5.0, 0.0, 0.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ProfileError):
            block_duration(-1.0, 10.0, 20.0)
        with pytest.raises(ProfileError):
            block_duration(1.0, -10.0, 20.0)

    def test_zero_length_constant(self):
        assert block_duration(0.0, 50.0, 50.0) == 0.0


class TestBuildProfile:
    def test_constant_block_is_flat(self):
        p = fit(80.0, 80.0, 12.0)
        assert p.cap_start == p.cap_end == (0.0, 0.0, 0.0, 80.0)
        for t in np.linspace(0.0, p.T, 7):
            assert p.kinematics(float(t)) == (80.0, 0.0, 0.0)

    def test_cap_structure(self):
        p = fit(0.0, 100.0, 10.0)
        a1, a2, a3, a4 = p.cap_start
        b1, b2, b3, b4 = p.cap_end
        assert a4 == 0.0 and b4 == 100.0
        assert a3 == 0.0 and b3 == 0.0
        assert b1 == -a1 and b2 == -a2

    def test_zero_length_feed_change_rejected(self):
        with pytest.raises(ProfileError):
            fit(10.0, 20.0, 0.0)

    def test_junction_conditions_reference_case(self):
        p = fit(0.0, 100.0, 10.0)
        assert max(junction_residuals(p)) < 1e-9

    def test_junction_conditions_random_blocks(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            v_a = float(rng.uniform(0.0, 150.0))
            v_b = float(rng.uniform(1.0, 150.0))
            if v_a == v_b:
                continue
            L = float(rng.uniform(0.5, 50.0))
            p = fit(v_a, v_b, L)
            assert max(junction_residuals(p)) < 1e-9

    def test_decel_mirrors_accel(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            lo = float(rng.uniform(0.0, 60.0))
            hi = float(rng.uniform(70.0, 150.0))
            L = float(rng.uniform(1.0, 30.0))
            up = fit(lo, hi, L)
            down = fit(hi, lo, L)
            assert down.T == pytest.approx(up.T, rel=1e-15)
            for t in rng.uniform(0.0, up.T, size=25):
                t = float(t)
                assert down.kinematics(t)[0] == pytest.approx(
                    up.kinematics(up.T - t)[0], rel=1e-12, abs=1e-10
                )


class TestEvaluation:
    def test_midpoint_velocity(self):
        p = fit(20.0, 100.0, 15.0)
        assert p.kinematics(p.T / 2.0)[0] == pytest.approx(60.0, rel=1e-12)

    def test_symmetry_and_displacement(self):
        rng = np.random.default_rng(77)
        nodes, weights = np.polynomial.legendre.leggauss(40)
        for _ in range(300):
            v_a = float(rng.uniform(0.0, 140.0))
            v_b = float(rng.uniform(5.0, 150.0))
            L = float(rng.uniform(0.5, 40.0))
            p = fit(v_a, v_b, L)
            for t in rng.uniform(0.0, p.T, size=10):
                t = float(t)
                total = p.kinematics(t)[0] + p.kinematics(p.T - t)[0]
                assert total == pytest.approx(v_a + v_b, rel=1e-9, abs=1e-9)
            # integrate per section so the quadrature sees smooth pieces
            got = 0.0
            for lo, hi in [(0.0, p.T / 3), (p.T / 3, 2 * p.T / 3),
                           (2 * p.T / 3, p.T)]:
                mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
                got += half * sum(
                    w * p.kinematics(mid + half * float(x))[0]
                    for x, w in zip(nodes, weights)
                )
            assert got == pytest.approx(L, rel=1e-9)

    def test_endpoints_pinned(self):
        p = fit(30.0, 90.0, 8.0)
        assert p.kinematics(0.0)[0] == 30.0
        assert p.kinematics(p.T)[0] == pytest.approx(90.0, rel=1e-14)
        assert p.kinematics(0.0)[1] == 0.0
        assert p.kinematics(p.T)[1] == 0.0

    def test_start_jerk_is_cap_coefficient(self):
        p = fit(0.0, 100.0, 10.0)
        j0 = p.kinematics(0.0)[2]
        assert j0 == pytest.approx(2.0 * p.cap_start[1], rel=1e-15)
        assert j0 != 0.0

    def test_accel_block_is_monotone(self):
        p = fit(10.0, 120.0, 20.0)
        ts = np.linspace(0.0, p.T, 2000)
        vs = [p.kinematics(float(t))[0] for t in ts]
        assert all(b - a >= -1e-9 for a, b in zip(vs, vs[1:]))

    def test_time_domain_enforced(self):
        p = fit(10.0, 50.0, 5.0)
        with pytest.raises(ProfileDomainError):
            p.kinematics(-0.01)
        with pytest.raises(ProfileDomainError):
            p.kinematics(p.T + 0.01)


class TestKinematicPeaks:
    def test_constant_block(self):
        assert fit(50.0, 50.0, 5.0).peaks() == (0.0, 0.0)

    def test_peaks_match_dense_sampling(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            v_a = float(rng.uniform(0.0, 100.0))
            v_b = float(rng.uniform(20.0, 150.0))
            L = float(rng.uniform(1.0, 30.0))
            p = fit(v_a, v_b, L)
            a_peak, j_peak = p.peaks()
            ts = np.linspace(0.0, p.T, 100_001)
            a_seen = max(abs(p.kinematics(float(t))[1]) for t in ts)
            j_seen = max(abs(p.kinematics(float(t))[2]) for t in ts)
            assert a_seen <= a_peak * (1.0 + 1e-12)
            assert j_seen <= j_peak * (1.0 + 1e-12)
            assert a_peak == pytest.approx(a_seen, rel=1e-6)
            assert j_peak == pytest.approx(j_seen, rel=1e-6)

    def test_peaks_upper_bound_for_other_shapes(self):
        rng = np.random.default_rng(321)
        for _ in range(50):
            s = float(rng.uniform(2.2, 5.0))
            v_a = float(rng.uniform(0.0, 120.0))
            v_b = float(rng.uniform(10.0, 150.0))
            L = float(rng.uniform(0.5, 25.0))
            p = fit(v_a, v_b, L, s=s)
            a_peak, j_peak = p.peaks()
            ts = np.linspace(0.0, p.T, 20_001)
            for t in ts:
                t = float(t)
                assert abs(p.kinematics(t)[1]) <= a_peak * (1 + 1e-12)
                assert abs(p.kinematics(t)[2]) <= j_peak * (1 + 1e-12)


class TestDisplacement:
    def test_full_span_recovers_length(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            v_a = float(rng.uniform(0.5, 150.0))
            v_b = float(rng.uniform(0.5, 150.0))
            L = float(rng.uniform(0.5, 50.0))
            p = fit(v_a, v_b, L)
            assert p.displacement(0.0) == 0.0
            assert p.displacement(p.T) == pytest.approx(L, rel=1e-12)

    def test_matches_quadrature_inside_every_section(self):
        from scipy.integrate import quad

        rng = np.random.default_rng(78)
        for _ in range(12):
            v_a = float(rng.uniform(1.0, 120.0))
            v_b = float(rng.uniform(1.0, 120.0))
            L = float(rng.uniform(1.0, 40.0))
            s = float(rng.uniform(2.4, 5.0))
            p = fit(v_a, v_b, L, s=s)
            for frac in (0.1, 0.33334, 0.5, 0.8, 0.95):
                t = p.T * frac
                want, _ = quad(
                    lambda x: p.kinematics(x)[0], 0.0, t,
                    points=[p.T / 3.0, 2.0 * p.T / 3.0],
                    limit=100, epsabs=0.0, epsrel=1e-12,
                )
                assert p.displacement(t) == pytest.approx(want, rel=1e-9)

    def test_monotone_in_time(self):
        p = fit(5.0, 140.0, 8.0)
        ts = np.linspace(0.0, p.T, 500)
        vals = [p.displacement(float(t)) for t in ts]
        assert all(b >= a for a, b in zip(vals[:-1], vals[1:]))

    def test_constant_block_is_linear(self):
        p = fit(60.0, 60.0, 30.0)
        assert p.displacement(0.25) == pytest.approx(15.0, rel=1e-15)
