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
from dataclasses import dataclass, field
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


def _softplus(x: float) -> float:
    """log(1 + e^x), the antiderivative of the unit logistic."""
    if x > 0.0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def _mirrored_softplus(x: float) -> float:
    """-log(1 + e^-x), the antiderivative of mirrored_kernel's f."""
    return -_softplus(-x)


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
    profile with its duration T, state(t) -> (s, v, a, j), the travel,
    feed, acceleration and jerk at block-local time t, and peaks() ->
    (|a|, |j|).
    """

    mu_n: float
    mu_m: float
    fit: Callable[[float, float, float], Any]


def _fitted(default):
    """A field that __post_init__ derives from v_s, v_e, T and s."""
    return field(default=default, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class SigmoidProfile:
    """Immutable piecewise velocity law for one block.

    v_s, v_e, T and s define it: __post_init__ derives the rest, however
    the profile is built. cap_start holds cubic coefficients
    (a1, a2, a3, a4) in t for the first third; cap_end holds
    (b1, b2, b3, b4) in tau = T - t for the last third. Structure:
    a4 == v_s, b4 == v_e, a3 == b3 == 0, b2 == -a2, b1 == -a1. Equal end
    feeds give a flat profile. A feed change also keeps what state and
    peaks reuse: the core's gain, ref offset, kernel base and its
    antiderivative anti, c = 2s/T, anti(-s/3)/c as soft0, and the
    travel s13 and s23 at T/3 and 2T/3.
    """

    v_s: float
    v_e: float
    T: float
    s: float
    cap_start: tuple[float, float, float, float] = field(init=False)
    cap_end: tuple[float, float, float, float] = field(init=False)
    gain: float = _fitted(0.0)
    ref: float = _fitted(0.0)
    base: Callable[[float], tuple[float, float, float]] = _fitted(kernel)
    anti: Callable[[float], float] = _fitted(_softplus)
    c: float = _fitted(0.0)
    soft0: float = _fitted(0.0)
    s13: float = _fitted(0.0)
    s23: float = _fitted(0.0)

    def __post_init__(self):
        # a frozen dataclass sets its derived fields through __dict__
        v_s, v_e, T, s = self.v_s, self.v_e, self.T, self.s
        if v_s == v_e:
            flat = (0.0, 0.0, 0.0, v_s)
            self.__dict__.update(cap_start=flat, cap_end=flat)
            return
        if T <= 0.0:
            raise ProfileError("zero-length block cannot change feed")
        fs, fm = kernel(s)[0], kernel(-s)[0]
        if v_e > v_s:
            g, ref, base, anti = (v_e - v_s) / (fs - fm), fm, kernel, _softplus
        else:
            g, ref = (v_s - v_e) / (fs - fm), fs
            base, anti = mirrored_kernel, _mirrored_softplus
        k, k1, _ = base(-s / 3.0)
        c = 2.0 * s / T
        dv = g * (k - ref)
        a13 = g * k1 * c
        cube = T * T * T
        a1 = 9.0 * a13 / (T * T) - 54.0 * dv / cube if cube else math.inf
        if not math.isfinite(a1):
            raise ProfileError(
                f"block duration {T!r} s is too short for a feed change: "
                "its cubic caps overflow"
            )
        a2 = 27.0 * dv / (T * T) - 3.0 * a13 / T
        cap_start, third = (a1, a2, 0.0, v_s), T / 3.0
        soft0 = anti(-s / 3.0) / c
        s13 = _cap_travel(cap_start, third)
        # the middle third's travel at 2T/3; 2*third - third == third
        mid = g * (anti(c * (2.0 * third) - s) / c - soft0)
        self.__dict__.update(
            cap_start=cap_start, cap_end=(-a1, -a2, 0.0, v_e), gain=g, ref=ref,
            base=base, anti=anti, c=c, soft0=soft0, s13=s13,
            s23=s13 + mid + (v_s - g * ref) * third,
        )

    @classmethod
    def fit(cls, v_s: float, v_e: float, L: float, s: float) -> SigmoidProfile:
        """Fit the piecewise law to a block's feeds and displacement."""
        return cls(v_s, v_e, block_duration(L, v_s, v_e), s)

    def state(self, t: float) -> tuple[float, float, float, float]:
        """Travel (mm) from the block start, feed (mm/s), acceleration
        (mm/s^2) and jerk (mm/s^3) at block-local time t.

        The travel is the antiderivative of the velocity law: quartics
        over the caps and a softplus over the logistic middle, so no
        quadrature is involved.
        """
        t = clamp_time(t, self.T)
        if self.v_s == self.v_e:
            return self.v_s * t, self.v_s, 0.0, 0.0
        T = self.T
        third = T / 3.0
        if t <= third:
            a1, a2, _, a4 = self.cap_start
            v = ((a1 * t + a2) * t) * t + a4
            a = (3.0 * a1 * t + 2.0 * a2) * t
            return _cap_travel(self.cap_start, t), v, a, 6.0 * a1 * t + 2.0 * a2
        if t >= 2.0 * third:
            b1, b2, _, b4 = self.cap_end
            tau = T - t
            v = ((b1 * tau + b2) * tau) * tau + b4
            a = -(3.0 * b1 * tau + 2.0 * b2) * tau
            travel = self.s23
            if t > 2.0 * third:
                travel = travel + _cap_travel(self.cap_end, third) - _cap_travel(
                    self.cap_end, tau
                )
            return travel, v, a, 6.0 * b1 * tau + 2.0 * b2
        g, ref, c = self.gain, self.ref, self.c
        x = c * t - self.s
        k, k1, k2 = self.base(x)
        travel = (
            self.s13
            + g * (self.anti(x) / c - self.soft0)
            + (self.v_s - g * ref) * (t - third)
        )
        return travel, g * (k - ref) + self.v_s, g * k1 * c, g * k2 * c * c

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
        T, s, c = self.T, self.s, self.c
        a_peak = c * self.gain * 0.25
        if s / 3.0 >= SIG_D2_ARGMAX:
            curve_max = SIG_D2_MAX
        else:
            curve_max = abs(kernel(-s / 3.0)[2])
        j_peak = c * c * self.gain * curve_max
        a1, a2, _, _ = self.cap_start
        third = T / 3.0
        a_peak = max(a_peak, abs((3.0 * a1 * third + 2.0 * a2) * third))
        if a1 != 0.0:
            t_star = -a2 / (3.0 * a1)
            if 0.0 < t_star < third:
                a_peak = max(a_peak, a2 * a2 / (3.0 * abs(a1)))
        j_cap = max(abs(2.0 * a2), abs(6.0 * a1 * third + 2.0 * a2))
        return a_peak, max(j_peak, j_cap)


def _cap_travel(coeffs, x):
    """Integral of a cap's cubic over [0, x] of its own time: the start
    cap's travel over its first x seconds, the end cap's over its last."""
    c1, c2, _, c4 = coeffs
    return ((0.25 * c1 * x + c2 / 3.0) * x * x + c4) * x


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
