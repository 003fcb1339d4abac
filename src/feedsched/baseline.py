"""Sine-shaped feed transitions, the comparison baseline.

The velocity rises along half a sine wave, which zeroes the boundary
accelerations but leaves the jerk discontinuous at block ends. Its peak
acceleration and jerk have exact closed forms, so the same scheduling
machinery applies with the two sine reduction constants in place of the
shaped-kernel ones: ``SINE`` is the family that carries them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chordscan import FeedrateScatter, Limits
from .geometry import ParametricCurve
from .optimizer import schedule
from .segmentation import Block
from .sprofile import ProfileError, ProfileFamily, block_duration, clamp_time

__all__ = [
    "SineProfile",
    "SINE",
    "sine_schedule",
]


@dataclass(frozen=True)
class SineProfile:
    """Half-sine feed transition from v_s to v_e over duration T."""

    v_s: float
    v_e: float
    T: float

    def __post_init__(self):
        if self.v_s < 0.0 or self.v_e < 0.0:
            raise ProfileError("feeds must be non-negative")
        if self.v_s != self.v_e and self.T <= 0.0:
            raise ProfileError("a feed change needs positive duration")
        if self.T < 0.0:
            raise ProfileError("duration must be non-negative")

    @classmethod
    def fit(cls, v_s: float, v_e: float, L: float) -> SineProfile:
        """The transition over a block's feeds and displacement."""
        return cls(v_s, v_e, block_duration(L, v_s, v_e))

    def kinematics(self, t: float) -> tuple[float, float, float]:
        """Feed, acceleration and jerk at block-local time t."""
        t = clamp_time(t, self.T)
        if self.v_s == self.v_e:
            return self.v_s, 0.0, 0.0
        dv = self.v_e - self.v_s
        half = 0.5 * dv
        phase = math.pi * (t / self.T - 0.5)
        sin, cos = math.sin(phase), math.cos(phase)
        return (
            half * (sin + 1.0) + self.v_s,
            dv * math.pi / (2.0 * self.T) * cos,
            -dv * (math.pi / self.T) ** 2 / 2.0 * sin,
        )

    def displacement(self, t: float) -> float:
        """Travel (mm) from the block start to block-local time t, exactly."""
        t = clamp_time(t, self.T)
        if self.v_s == self.v_e:
            return self.v_s * t
        half = 0.5 * (self.v_e - self.v_s)
        T = self.T
        return (self.v_s + half) * t - half * T / math.pi * math.sin(
            math.pi * t / T
        )

    def peaks(self) -> tuple[float, float]:
        """Exact peak |accel| and |jerk|: mid-block and block ends."""
        if self.v_s == self.v_e:
            return 0.0, 0.0
        T = self.T
        dv = abs(self.v_e - self.v_s)
        return dv * math.pi / (2.0 * T), dv * math.pi * math.pi / (2.0 * T * T)


SINE = ProfileFamily(
    mu_n=math.pi / 4.0, mu_m=math.pi * math.pi / 8.0, fit=SineProfile.fit
)


def sine_schedule(
    curve: ParametricCurve,
    blocks: list[Block],
    scatter: FeedrateScatter,
    limits: Limits,
) -> list[Block]:
    """Run the block scheduler with the sine family.

    The sine plan is a stage of its own under this name, so that the
    benchmark's call tracing can time it apart from the shaped plan.
    """
    return schedule(curve, blocks, scatter, limits, family=SINE)
