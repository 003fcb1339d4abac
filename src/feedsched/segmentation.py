"""Splitting a scanned feed ceiling into schedulable blocks.

Breakpoints are parameters where the feed ceiling changes trend: local
peaks, valleys, and the edges of saturated plateaus. Consecutive
breakpoints delimit blocks, each carrying its arc-length displacement;
``classify_kind`` reads a block's coarse motion kind off its end feeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .chordscan import FeedrateScatter, Limits, MalformedScatterError
from .geometry import ParametricCurve, arc_length

__all__ = [
    "BlockKind",
    "Block",
    "screening_factor",
    "find_breakpoints",
    "build_blocks",
]


class BlockKind(Enum):
    ACCEL = "accel"
    DECEL = "decel"
    CONSTANT = "constant"


@dataclass
class Block:
    """One scheduling unit between two breakpoints.

    Feed endpoints are mutated by the scheduler; u_s/u_e/L are geometric
    and stay fixed apart from deliberate re-anchoring of junctions. T is
    a 0.0 sentinel until a velocity profile is built for the block.
    """

    u_s: float
    u_e: float
    v_s: float
    v_e: float
    L: float
    T: float = 0.0

    def __post_init__(self):
        if self.u_e < self.u_s:
            raise ValueError("block parameter range is reversed")
        if self.L < 0.0:
            raise ValueError("block displacement must be non-negative")
        if self.v_s < 0.0 or self.v_e < 0.0:
            raise ValueError("block feeds must be non-negative")


def classify_kind(v_s: float, v_e: float, tol: float) -> BlockKind:
    if abs(v_e - v_s) <= tol:
        return BlockKind.CONSTANT
    return BlockKind.ACCEL if v_e > v_s else BlockKind.DECEL


def screening_factor(
    prev: tuple[float, float],
    cur: tuple[float, float],
    nxt: tuple[float, float],
) -> float:
    """Slope change magnitude of the ceiling at the middle point."""
    if not prev[0] < cur[0] < nxt[0]:
        raise MalformedScatterError("screening needs strictly increasing u")
    left = (cur[1] - prev[1]) / (cur[0] - prev[0])
    right = (nxt[1] - cur[1]) / (nxt[0] - cur[0])
    return abs(right - left)


def _default_threshold(u: np.ndarray, v: np.ndarray) -> float:
    """Slope-change level separating real trend breaks from wrinkles.

    Scales with the overall feed relief of the scatter, so rough scans
    do not inflate the bar past their own deep features.
    """
    spread = float(v.max() - v.min())
    span = float(u[-1] - u[0])
    if spread <= 0.0 or span <= 0.0:
        return math.inf
    return 5.0 * spread / span


def _trend_breaks(v: np.ndarray, i: int) -> bool:
    left_flat = v[i - 1] == v[i]
    right_flat = v[i + 1] == v[i]
    if left_flat and right_flat:
        return False
    if left_flat or right_flat:
        return True
    return (v[i] - v[i - 1]) * (v[i + 1] - v[i]) < 0.0


_VALLEY_REL_DEPTH = 0.01
# Chord deviation grows with the square of feed, so an interior ceiling
# sagging f below the block's endpoint line costs ~(1+f)^2 in chord
# error when a block flies over it; 1.5% keeps that inside the replay
# allowance with room for the profile's own bulge above the line.
_FLANK_REL_SAG = 0.015


def _add_missed_valleys(
    u: np.ndarray, v: np.ndarray, picked: list[int]
) -> list[int]:
    """Split spans whose interior ceiling undercuts the block envelope.

    The slope-change screening drops shallow wrinkles on purpose, but a
    block laid over a skipped valley would command feeds the scan never
    cleared. A span is split where its interior falls materially below
    both endpoints, or sags well under the straight line between them
    (a one-piece block cannot dive early and recover). The worst sample
    becomes a breakpoint, then each half is re-checked.
    """
    out = list(picked)
    stack = list(zip(picked[:-1], picked[1:]))
    while stack:
        a, b = stack.pop()
        if b - a < 2:
            continue
        inner_u = u[a + 1 : b]
        inner_v = v[a + 1 : b]
        line = v[a] + (v[b] - v[a]) * (inner_u - u[a]) / (u[b] - u[a])
        bound = np.maximum(
            min(v[a], v[b]) * (1.0 - _VALLEY_REL_DEPTH),
            line * (1.0 - _FLANK_REL_SAG),
        )
        gap = bound - inner_v
        k = a + 1 + int(np.argmax(gap))
        if gap[k - a - 1] > 0.0:
            out.append(k)
            stack.append((a, k))
            stack.append((k, b))
    out.sort()
    return out


def find_breakpoints(
    scatter: FeedrateScatter, mu_s: float | None = None
) -> list[int]:
    """Indices of trend changes in the ceiling, endpoints always included.

    A point qualifies when its slope change exceeds the screening
    threshold (default: scaled to the scatter's overall feed relief) and
    the feed trend actually reverses there. Edges of flat runs count as trend
    changes even when the surrounding trend continues, so saturated
    stretches become their own blocks. Valleys the screening skipped are
    restored whenever they dip materially below both span endpoints,
    since a block laid over one would overrun the scanned ceiling.
    """
    u, v = scatter.u, scatter.v
    n = u.size
    if n < 3:
        return list(range(n))
    slopes = np.diff(v) / np.diff(u)
    factors = np.abs(np.diff(slopes))
    threshold = _default_threshold(u, v) if mu_s is None else mu_s
    picked = [0]
    for i in range(1, n - 1):
        if factors[i - 1] > threshold and _trend_breaks(v, i):
            picked.append(i)
    picked.append(n - 1)
    return _add_missed_valleys(u, v, picked)


def build_blocks(
    curve: ParametricCurve,
    scatter: FeedrateScatter,
    breakpoints: list[int],
    limits: Limits,
) -> list[Block]:
    """One block per adjacent breakpoint pair, with arc displacement."""
    if len(breakpoints) < 2:
        raise MalformedScatterError("need at least two breakpoints")
    blocks = []
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        u_s, u_e = float(scatter.u[a]), float(scatter.u[b])
        v_s, v_e = float(scatter.v[a]), float(scatter.v[b])
        blocks.append(
            Block(
                u_s=u_s,
                u_e=u_e,
                v_s=v_s,
                v_e=v_e,
                L=arc_length(curve, u_s, u_e),
            )
        )
    return blocks
