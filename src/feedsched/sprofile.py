"""Per-block velocity laws as unit shapes scaled per block.

A law is written once, on normalised time tau = t/T: its unit shape
gives the travel Phi, feed phi and phi's first two derivatives at tau,
a float or elementwise over an array, with phi rising from 0 to 1 and
phi(tau) + phi(1 - tau) == 1, and it carries the exact maxima of |phi'|
and |phi''|. A block moving from feed v_s to v_e over displacement L
takes T = 2L/(v_s+v_e), which the symmetry makes exact, and with the
signed change D = v_e - v_s commands

    travel  v_s*t + D*T*Phi(tau)     feed  v_s + D*phi(tau)
    accel   D*phi'(tau)/T            jerk  D*phi''(tau)/T^2

A falling block is the same law with a negative D. Its peaks are the two
maxima scaled by |D|/T and |D|/T^2, and since T = 2L/(v1+v2) they are
mu_n*(v2^2-v1^2)/L and mu_m*(v2-v1)*(v2+v1)^2/L^2 exactly, with
mu_n = max|phi'|/2 and mu_m = max|phi''|/4: the scheduler's reduction.

The shaped law follows a logistic (S-shaped) curve over the middle third
of the block time; the outer thirds are cubics fitted so that feed and
acceleration are continuous at the seams and acceleration vanishes at
both block ends. Its jerk is bounded but deliberately discontinuous at
the seams and block ends.

A ``Law`` is all the scheduler and the replay see of a law: its
reduction constants, each block's duration and exact peaks, and its
state, which evaluates every tick of a replay in one call.
``sigmoid_law`` builds the shaped law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

import numpy as np

__all__ = [
    "ProfileError",
    "DwellUnsupportedError",
    "ProfileDomainError",
    "SIG_D2_MAX",
    "SIG_D2_ARGMAX",
    "check_shape",
    "kernel",
    "block_duration",
    "clamp_time",
    "Law",
    "sigmoid_law",
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


def block_duration(L: float, v_s: float, v_e: float) -> float:
    """Duration implied by the law's symmetry: average feed is (v_s+v_e)/2."""
    if L < 0.0:
        raise ProfileError("displacement must be non-negative")
    if v_s < 0.0 or v_e < 0.0:
        raise ProfileError("feeds must be non-negative")
    if v_s + v_e == 0.0:
        raise DwellUnsupportedError("cannot schedule a block with zero feeds")
    return 2.0 * L / (v_s + v_e)


def clamp_time(t, T):
    """Block-local times t pulled into [0, T], for floats or arrays that
    broadcast together; a rounding-sized overshoot is tolerated, anything
    larger raises."""
    grace = 1e-9 * (1.0 + T)
    outside = (t < -grace) | (t > T + grace)
    if np.any(outside):
        k = np.argmax(outside)
        t, T = (float(x.flat[k]) for x in np.broadcast_arrays(t, T))
        raise ProfileDomainError(f"t={t!r} outside block duration [0, {T!r}]")
    return np.minimum(np.maximum(t, 0.0), T)


@dataclass(frozen=True)
class Law:
    """A velocity law as a unit shape on tau = t/T in [0, 1].

    unit(tau) -> (Phi, phi, phi', phi''), with phi rising from 0 to 1 and
    Phi its integral from 0, for a float tau or elementwise over an array;
    d1_max and d2_max are the exact maxima of |phi'| and |phi''| over
    [0, 1], and mu_n = d1_max/2 and mu_m = d2_max/4 are the scheduler's
    reduction constants, so the reduced peaks are the exact ones.
    """

    unit: Callable[[Any], tuple[Any, ...]] = field(repr=False)
    d1_max: float
    d2_max: float

    # cached: the scheduler reads them in every junction solve
    @cached_property
    def mu_n(self) -> float:
        return self.d1_max / 2.0

    @cached_property
    def mu_m(self) -> float:
        return self.d2_max / 4.0

    def duration(self, v_s: float, v_e: float, L: float) -> float:
        """Duration of a block moving from feed v_s to v_e over
        displacement L, by block_duration; a feed change over no time,
        or over one whose jerk overflows, is refused."""
        T = block_duration(L, v_s, v_e)
        if v_s != v_e:
            if T == 0.0:
                raise ProfileError("zero-length block cannot change feed")
            dv = abs(v_e - v_s)
            if not (T * T > 0.0 and dv * self.d2_max / (T * T) < math.inf):
                raise ProfileError(
                    f"block duration {T!r} s is too short for a feed change: "
                    "its jerk overflows"
                )
        return T

    def peaks(self, v_s: float, v_e: float, L: float) -> tuple[float, float]:
        """Exact peak |acceleration| and |jerk| over a whole block."""
        T, dv = self.duration(v_s, v_e, L), abs(v_e - v_s)
        if not dv:
            return 0.0, 0.0
        return dv * self.d1_max / T, dv * self.d2_max / (T * T)

    def state(self, v_s, v_e, T, t):
        """Travel (mm) from the block start, feed (mm/s), acceleration
        (mm/s^2) and jerk (mm/s^3) at block-local time t of a block moving
        from feed v_s to v_e over duration T, in closed form.

        The arguments are floats or arrays that broadcast together, so one
        call evaluates a block at many times, or every tick of a replay
        under its own block: each element takes the same arithmetic, and a
        float t gives floats. A flat block (v_s == v_e) keeps its feed
        exactly, with acceleration and jerk 0.0.
        """
        t = clamp_time(t, T)
        dv = v_e - v_s
        moving = dv != 0.0
        # the masks also drop the 0/0 of a flat block's zero duration
        with np.errstate(divide="ignore", invalid="ignore"):
            travel, phi, d1, d2 = self.unit(t / T)
            accel = np.where(moving, dv * d1 / T, 0.0)
            jerk = np.where(moving, dv * d2 / (T * T), 0.0)
            return (
                v_s * t + np.where(moving, dv * T * travel, 0.0),
                v_s + np.where(moving, dv * phi, 0.0),
                accel[()],
                jerk[()],
            )


def check_shape(s: float, name: str) -> None:
    """Refuse a shape that is not finite and positive, or so flat that
    its logistic core does not rise in floats, naming it as name."""
    if not 0.0 < s < math.inf:
        raise ProfileError(f"{name} must be finite and strictly positive")
    if not kernel(s)[0] > kernel(-s)[0]:
        raise ProfileError(
            f"{name} {s!r} is too flat for its logistic core to rise"
        )


def sigmoid_law(s: float) -> Law:
    """The shaped law with kernel steepness s.

    The core is the logistic rescaled to rise from 0 to 1 over its
    argument x = s*(2*tau - 1) in [-s, s]; the start cap is the cubic
    A*tau^3 + B*tau^2 meeting the core's value and slope at tau = 1/3,
    and the end cap mirrors it. |phi'| peaks at the core's centre or at
    the cap's stationary point, |phi''| at the ends of the cap or at the
    logistic's inflexion extremes inside the core's window.
    """
    check_shape(s, "shape")
    fm = kernel(-s)[0]
    span = kernel(s)[0] - fm
    f3, p, p2 = kernel(-s / 3.0)
    q = f3 - fm
    # the cap's jerk at tau = 0 and tau = 1/3: 2B and 2A + 2B
    j0 = (54.0 * q - 12.0 * s * p) / span
    j13 = (24.0 * s * p - 54.0 * q) / span
    A, B = (j13 - j0) / 2.0, j0 / 2.0
    A4, B3 = 0.25 * A, B / 3.0
    third = 1.0 / 3.0
    d1_max = 0.5 * s / span
    if A and 0.0 < -B / (3.0 * A) < third:
        d1_max = max(d1_max, B * B / (3.0 * abs(A)))
    curve_max = SIG_D2_MAX if s / 3.0 >= SIG_D2_ARGMAX else abs(p2)
    d2_max = max(4.0 * s * s * curve_max / span, abs(j0), abs(j13))
    # log(1 + e^x), the logistic's antiderivative, at x = -s/3
    soft0 = math.log1p(math.exp(-s / 3.0))
    gain, lead = 1.0 / (2.0 * s * span), fm / span

    def cap(r):
        return (
            ((A4 * r + B3) * r * r) * r,
            ((A * r + B) * r) * r,
            (3.0 * A * r + 2.0 * B) * r,
            6.0 * A * r + 2.0 * B,
        )

    cap13 = cap(third)[0]

    def unit(tau):
        # each time takes the start cap at r = tau or the end cap, its
        # mirror at r = 1 - tau, or the core; masks pick which
        end = tau >= 2.0 * third
        r = np.where(end, 1.0 - tau, tau)
        core = (tau > third) & (tau < 2.0 * third)
        travel, phi, d1, d2 = cap(r)
        # the logistic and its antiderivative log(1 + e^x) from one
        # exp(-|x|), as kernel takes the logistic on either side of x = 0
        x = s * (2.0 * tau - 1.0)
        e = np.exp(-np.abs(x))
        f = np.where(x >= 0.0, 1.0, e) / (1.0 + e)
        f1 = f * (1.0 - f)
        f2 = f1 * (1.0 - 2.0 * f)
        soft = np.maximum(x, 0.0) + np.log1p(e)
        return (
            np.where(
                core, cap13 + gain * (soft - soft0) - lead * (tau - third),
                np.where(end, 0.5 - r + travel, travel),
            ),
            np.where(core, (f - fm) / span, np.where(end, 1.0 - phi, phi)),
            np.where(core, 2.0 * s * f1 / span, d1),
            np.where(core, 4.0 * s * s * f2 / span, np.where(end, -d2, d2)),
        )

    return Law(unit, d1_max, d2_max)
