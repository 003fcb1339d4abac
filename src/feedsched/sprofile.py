"""Per-block velocity laws: logistic core with cubic end caps.

A block moves from feed v_s to v_e over displacement L. The middle third
of the block time follows a logistic (S-shaped) velocity law; the outer
thirds are cubic polynomials fitted so that velocity and acceleration
are continuous at the junctions and acceleration vanishes at both block
ends. The law is symmetric, v(t) + v(T-t) == v_s + v_e, which fixes the
duration at T = 2L/(v_s+v_e) and makes the commanded displacement exact.

Peak acceleration and jerk magnitudes have closed forms (no sampling),
which the scheduler uses for feasibility checks. Jerk is bounded but
deliberately discontinuous at the section junctions and block ends.

The scheduler and the replay see a velocity law only as a
``ProfileFamily``; ``sigmoid_family`` builds the one for this law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

__all__ = [
    "ProfileError",
    "DwellUnsupportedError",
    "ProfileDomainError",
    "SIG_D2_MAX",
    "SIG_D2_ARGMAX",
    "SHAPE_S_MAX",
    "check_shape",
    "kernel",
    "mirrored_kernel",
    "block_duration",
    "clamp_time",
    "ProfileFamily",
    "SigmoidProfile",
    "sigmoid_family",
]


class ProfileError(ValueError):
    """Base class for velocity-law construction and evaluation errors."""


class DwellUnsupportedError(ProfileError):
    """Both end feeds are zero; a stationary block has no finite duration."""


class ProfileDomainError(ProfileError):
    """Evaluation time outside the block duration."""


# Largest magnitude of the logistic's second derivative, attained where
# the function value is 1/2 -+ sqrt(3)/6, i.e. at x = -+ln(2+sqrt(3)).
SIG_D2_MAX = 1.0 / (6.0 * math.sqrt(3.0))
SIG_D2_ARGMAX = math.log(2.0 + math.sqrt(3.0))

# Largest shape s at which sigmoid_family(s).mu_m bounds the fitted
# profile's peak jerk, mu_m*(v2-v1)*(v2+v1)^2/L^2. Its core term,
# s^2*SIG_D2_MAX/(4*span), lacks the factor 4 of the core's jerk
# coefficient s^2*|f''(-s/3)|/span that peaks() uses, so mu_m holds only
# while the start cap's term binds; the core's coefficient overtakes it
# at s = 3.311234..., found by bisection on the peak jerk over random
# transitions and equal to the crossing of the two closed forms. Just
# above, the bound is exceeded by 1.1 % at s = 3.32 and by 19 % at 3.45.
# check_shape refuses steeper shapes, for sigmoid_family and for Limits.
SHAPE_S_MAX = 3.3112


def kernel(x: float) -> tuple[float, float, float]:
    """Unit logistic f(x) = 1/(1+e^-x) with first two derivatives."""
    if x >= 0.0:
        f = 1.0 / (1.0 + math.exp(-x))
    else:
        z = math.exp(x)
        f = z / (1.0 + z)
    f1 = f * (1.0 - f)
    f2 = f1 * (1.0 - 2.0 * f)
    return f, f1, f2


def mirrored_kernel(x: float) -> tuple[float, float, float]:
    """Falling counterpart p(x) = f(-x) with its derivatives."""
    f, f1, f2 = kernel(-x)
    return f, -f1, f2


def block_duration(L: float, v_s: float, v_e: float) -> float:
    """Duration implied by the law's symmetry: average feed is (v_s+v_e)/2."""
    if L < 0.0:
        raise ProfileError("displacement must be non-negative")
    if v_s < 0.0 or v_e < 0.0:
        raise ProfileError("feeds must be non-negative")
    if v_s + v_e == 0.0:
        raise DwellUnsupportedError("cannot schedule a block with zero feeds")
    return 2.0 * L / (v_s + v_e)


def clamp_time(t: float, T: float) -> float:
    """Block-local time t pulled into [0, T]; a rounding-sized overshoot
    is tolerated, anything larger raises."""
    grace = 1e-9 * (1.0 + T)
    if t < -grace or t > T + grace:
        raise ProfileDomainError(f"t={t!r} outside block duration [0, {T!r}]")
    return min(max(t, 0.0), T)


@dataclass(frozen=True)
class ProfileFamily:
    """A velocity law as the scheduler and the replay use it.

    The scheduler sizes a feed change from v1 to v2 across displacement
    L by the reduced peaks mu_n*(v2^2-v1^2)/L and
    mu_m*(v2-v1)*(v2+v1)^2/L^2, then checks the fitted profile's exact
    peaks. fit(v_s, v_e, L) returns the law fitted to one block: a
    profile with its duration T, kinematics(t) -> (v, a, j),
    displacement(t) and peaks() -> (|a|, |j|).
    """

    mu_n: float
    mu_m: float
    fit: Callable[[float, float, float], Any]


@dataclass(frozen=True)
class SigmoidProfile:
    """Immutable piecewise velocity law for one block.

    cap_start holds cubic coefficients (a1, a2, a3, a4) in t for the
    first third; cap_end holds (b1, b2, b3, b4) in tau = T - t for the
    last third. Structure: a4 == v_s, b4 == v_e, a3 == b3 == 0,
    b2 == -a2, b1 == -a1. Equal end feeds give a flat profile.
    """

    v_s: float
    v_e: float
    T: float
    s: float
    cap_start: tuple[float, float, float, float]
    cap_end: tuple[float, float, float, float]

    @classmethod
    def fit(cls, v_s: float, v_e: float, L: float, s: float) -> SigmoidProfile:
        """Fit the piecewise law to a block's feeds and displacement."""
        T = block_duration(L, v_s, v_e)
        if v_s == v_e:
            flat = (0.0, 0.0, 0.0, v_s)
            return cls(v_s, v_e, T, s, flat, flat)
        if T <= 0.0:
            raise ProfileError("zero-length block cannot change feed")
        g, ref, base = _core_setup(v_s, v_e, s)
        k, k1, _ = base(-s / 3.0)
        dv = g * (k - ref)
        a13 = g * k1 * (2.0 * s / T)
        a2 = 27.0 * dv / (T * T) - 3.0 * a13 / T
        a1 = 9.0 * a13 / (T * T) - 54.0 * dv / (T * T * T)
        return cls(v_s, v_e, T, s, (a1, a2, 0.0, v_s), (-a1, -a2, 0.0, v_e))

    def kinematics(self, t: float) -> tuple[float, float, float]:
        """Feed (mm/s), acceleration (mm/s^2) and jerk (mm/s^3) at
        block-local time t."""
        t = clamp_time(t, self.T)
        if self.v_s == self.v_e:
            return self.v_s, 0.0, 0.0
        T = self.T
        third = T / 3.0
        if t <= third:
            a1, a2, _, a4 = self.cap_start
            v = ((a1 * t + a2) * t) * t + a4
            return v, (3.0 * a1 * t + 2.0 * a2) * t, 6.0 * a1 * t + 2.0 * a2
        if t >= 2.0 * third:
            b1, b2, _, b4 = self.cap_end
            tau = T - t
            v = ((b1 * tau + b2) * tau) * tau + b4
            return v, -(3.0 * b1 * tau + 2.0 * b2) * tau, 6.0 * b1 * tau + 2.0 * b2
        g, ref, base = _core_setup(self.v_s, self.v_e, self.s)
        c = 2.0 * self.s / T
        k, k1, k2 = base(c * t - self.s)
        return g * (k - ref) + self.v_s, g * k1 * c, g * k2 * c * c

    def displacement(self, t: float) -> float:
        """Travel (mm) from the block start to block-local time t.

        Antiderivative of the velocity law: quartics over the caps and a
        softplus over the logistic middle, so no quadrature is involved.
        """
        t = clamp_time(t, self.T)
        if self.v_s == self.v_e:
            return self.v_s * t
        T, s = self.T, self.s
        third = T / 3.0

        def cap_area(coeffs, x):
            c1, c2, _, c4 = coeffs
            return ((0.25 * c1 * x + c2 / 3.0) * x * x + c4) * x

        if t <= third:
            return cap_area(self.cap_start, t)
        g, ref, base = _core_setup(self.v_s, self.v_e, s)
        c = 2.0 * s / T
        if base is kernel:
            def anti(x):
                return _softplus(x) / c
        else:
            def anti(x):
                return -_softplus(-x) / c
        s13 = cap_area(self.cap_start, third)
        t_mid = min(t, 2.0 * third)
        s_mid = (
            s13
            + g * (anti(c * t_mid - s) - anti(-s / 3.0))
            + (self.v_s - g * ref) * (t_mid - third)
        )
        if t <= 2.0 * third:
            return s_mid
        return s_mid + cap_area(self.cap_end, third) - cap_area(
            self.cap_end, T - t
        )

    def peaks(self) -> tuple[float, float]:
        """Exact peak |acceleration| and |jerk| over the whole block.

        The middle section peaks where the logistic's derivatives peak,
        restricted to the section's argument window; the cubic caps peak
        at section ends or at the lone interior stationary point when it
        falls inside. The end cap mirrors the start cap, so one set of
        candidates covers both.
        """
        if self.v_s == self.v_e:
            return 0.0, 0.0
        T, s = self.T, self.s
        c = 2.0 * s / T
        amp = _core_setup(self.v_s, self.v_e, s)[0]
        a_peak = c * amp * 0.25
        if s / 3.0 >= SIG_D2_ARGMAX:
            curve_max = SIG_D2_MAX
        else:
            curve_max = abs(kernel(-s / 3.0)[2])
        j_peak = c * c * amp * curve_max
        a1, a2, _, _ = self.cap_start
        third = T / 3.0
        a_peak = max(a_peak, abs((3.0 * a1 * third + 2.0 * a2) * third))
        if a1 != 0.0:
            t_star = -a2 / (3.0 * a1)
            if 0.0 < t_star < third:
                a_peak = max(a_peak, a2 * a2 / (3.0 * abs(a1)))
        j_cap = max(abs(2.0 * a2), abs(6.0 * a1 * third + 2.0 * a2))
        return a_peak, max(j_peak, j_cap)


def _core_setup(v_s, v_e, s):
    """Gain, start offset, and kernel family for the middle section."""
    fs, _, _ = kernel(s)
    fm, _, _ = kernel(-s)
    span = fs - fm
    if v_e > v_s:
        return (v_e - v_s) / span, fm, kernel
    return (v_s - v_e) / span, fs, mirrored_kernel


def _softplus(x: float) -> float:
    if x > 0.0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def sigmoid_family(s: float) -> ProfileFamily:
    """The shaped law with kernel steepness s and its reduction constants.

    mu_n is the larger of the core and cap acceleration coefficients,
    mu_m the largest of the core and two cap jerk coefficients, all in
    closed form from the kernel at s, -s and -s/3. A shape above
    SHAPE_S_MAX is refused: its mu_m would under-bound the jerk.
    """
    check_shape(s, "shape")
    mu_n, mu_m = _reduction_constants(s)
    return ProfileFamily(mu_n=mu_n, mu_m=mu_m, fit=partial(SigmoidProfile.fit, s=s))


def check_shape(s: float, name: str) -> None:
    """Refuse a shape outside (0, SHAPE_S_MAX], naming it as name."""
    if not s > 0.0:
        raise ProfileError(f"{name} must be strictly positive")
    if s > SHAPE_S_MAX:
        raise ProfileError(
            f"{name} {s!r} exceeds {SHAPE_S_MAX}, the steepest shape whose "
            "jerk reduction constant bounds its profiles"
        )


def _reduction_constants(s):
    """mu_n and mu_m of the shaped law at steepness s > 0, any s."""
    fs = kernel(s)[0]
    fm = kernel(-s)[0]
    f3, p, _ = kernel(-s / 3.0)
    span = fs - fm
    q = f3 - fm
    mu1 = s / (4.0 * span)
    num2 = abs(81.0 * q * q + 4.0 * s * s * p * p - 36.0 * s * p * q)
    den2 = 2.0 * span * abs(6.0 * s * p - 54.0 * q)
    mu2 = num2 / den2 if den2 > 0.0 else 0.0
    mu3 = s * s * SIG_D2_MAX / (4.0 * span)
    mu4 = abs(54.0 * q - 12.0 * s * p) / (4.0 * span)
    mu5 = abs(24.0 * s * p - 54.0 * q) / (4.0 * span)
    return max(mu1, mu2), max(mu3, mu4, mu5)
