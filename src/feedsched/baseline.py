"""Sine-shaped feed transitions, the comparison baseline.

The velocity rises along half a sine wave, which zeroes the boundary
accelerations but leaves the jerk discontinuous at block ends. As a
unit shape phi(tau) = (1 + sin(pi*(tau - 1/2)))/2 its slope peaks at pi/2
mid-block and its curvature at pi^2/2 at the block ends, so the same
scheduling machinery applies with the two sine reduction constants pi/4
and pi^2/8 in place of the shaped-kernel ones: ``SINE`` is the law that
carries them.
"""

from __future__ import annotations

import math

import numpy as np

from .chordscan import FeedrateScatter, Limits
from .geometry import ParametricCurve
from .optimizer import schedule
from .segmentation import Block
from .sprofile import Law

__all__ = [
    "SINE",
    "sine_schedule",
]


def _sine_unit(tau):
    phase = np.pi * (tau - 0.5)
    sin, cos = np.sin(phase), np.cos(phase)
    return (
        0.5 * tau - np.sin(np.pi * tau) / (2.0 * np.pi),
        0.5 * (sin + 1.0),
        0.5 * np.pi * cos,
        -0.5 * np.pi * np.pi * sin,
    )


SINE = Law(_sine_unit, d1_max=math.pi / 2.0, d2_max=math.pi * math.pi / 2.0)


def sine_schedule(
    curve: ParametricCurve,
    blocks: list[Block],
    scatter: FeedrateScatter,
    limits: Limits,
) -> list[Block]:
    """Run the block scheduler with the sine law.

    The sine plan is a stage of its own under this name, so that the
    benchmark's call tracing can time it apart from the shaped plan.
    """
    return schedule(curve, blocks, scatter, limits, law=SINE)
