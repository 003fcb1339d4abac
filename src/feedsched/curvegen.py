"""Seeded generation of random test paths.

Produces clamped cubic rational B-splines whose control polygons wander
smoothly but carry a few sharp bends, so the chord-error ceiling actually
dips below the programmed feed ceiling somewhere on the path.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import ParametricCurve, jets

__all__ = ["random_curve"]

_SHARP_PROB = 0.45
_MIN_SPEED_FRACTION = 1e-3


def _uniform_clamped_knots(n_ctrl: int, degree: int) -> tuple[float, ...]:
    interior = n_ctrl - degree - 1
    body = [(i + 1) / (interior + 1) for i in range(interior)]
    return tuple([0.0] * (degree + 1) + body + [1.0] * (degree + 1))


def _polygon(rng: np.random.Generator, n_ctrl: int, extent: float, planar: bool):
    base = extent / (n_ctrl - 1)
    heading = rng.uniform(0.0, 2.0 * math.pi)
    x, y, z = 0.0, 0.0, 0.0
    pts = [(x, y) if planar else (x, y, z)]
    for _ in range(n_ctrl - 1):
        if rng.uniform() < _SHARP_PROB:
            step = base * rng.uniform(0.2, 0.45)
            turn = rng.choice([-1.0, 1.0]) * rng.uniform(0.9, 1.5)
        else:
            step = base * rng.uniform(0.7, 1.4)
            turn = rng.normal(0.0, 0.45)
        heading += float(np.clip(turn, -1.5, 1.5))
        x += step * math.cos(heading)
        y += step * math.sin(heading)
        if planar:
            pts.append((x, y))
        else:
            z += step * rng.normal(0.0, 0.25)
            pts.append((x, y, z))
    return pts


def random_curve(
    seed: int,
    n_ctrl: int | None = None,
    degree: int = 3,
    planar: bool = True,
    extent: float = 30.0,
) -> ParametricCurve:
    """Deterministic random path for the given seed.

    n_ctrl defaults to a seed-dependent count in 8..20. The result is
    validated for a non-vanishing first derivative; degenerate draws are
    retried deterministically.
    """
    for attempt in range(64):
        rng = np.random.default_rng((int(seed), attempt))
        count = n_ctrl if n_ctrl is not None else int(rng.integers(8, 21))
        if count < degree + 1:
            raise ValueError(f"need at least {degree + 1} control points")
        pts = _polygon(rng, count, extent, planar)
        weights = tuple(float(w) for w in rng.uniform(0.8, 1.3, size=count))
        curve = ParametricCurve(
            degree=degree,
            control_points=pts,
            weights=weights,
            knots=_uniform_clamped_knots(count, degree),
        )
        if _well_formed(curve, extent):
            return curve
    raise RuntimeError(f"could not draw a usable curve for seed {seed}")


def _well_formed(curve: ParametricCurve, extent: float) -> bool:
    _, d1 = jets(curve, np.linspace(0.0, 1.0, 257), order=1)
    speed = np.sqrt(sum(c * c for c in d1.T))
    return not (speed < _MIN_SPEED_FRACTION * extent).any()
