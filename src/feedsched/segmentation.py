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

from .chordscan import FeedrateScatter, MalformedScatterError
from .geometry import ParametricCurve
from .sprofile import block_duration

__all__ = [
    "BlockKind",
    "Block",
    "find_breakpoints",
    "build_blocks",
]


class BlockKind(Enum):
    ACCEL = "accel"
    DECEL = "decel"
    CONSTANT = "constant"


@dataclass(frozen=True)
class Block:
    """One scheduling unit between two breakpoints: its parameter range,
    end feeds and arc displacement L. Its duration T is derived from
    them, 2L/(v_s+v_e) under every velocity law. The scheduler returns
    new blocks and never changes one.
    """

    u_s: float
    u_e: float
    v_s: float
    v_e: float
    L: float

    def __post_init__(self):
        if self.u_e < self.u_s:
            raise ValueError("block parameter range is reversed")
        if self.L < 0.0:
            raise ValueError("block displacement must be non-negative")
        if self.v_s < 0.0 or self.v_e < 0.0:
            raise ValueError("block feeds must be non-negative")
        if self.v_s + self.v_e == 0.0:
            raise ValueError("block feeds must not both be zero")

    @property
    def T(self) -> float:
        return block_duration(self.L, self.v_s, self.v_e)


def classify_kind(v_s: float, v_e: float, v_max: float) -> BlockKind:
    if abs(v_e - v_s) <= 1e-9 * v_max:
        return BlockKind.CONSTANT
    return BlockKind.ACCEL if v_e > v_s else BlockKind.DECEL


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
    (a one-piece block cannot dive early and recover). The worst sample,
    the first of equal ones, becomes a breakpoint, then each half is
    re-checked. A span's split depends only on its ends, so every span
    open at one level is checked at once, on arrays.
    """
    out = [np.asarray(picked)]
    a, b = out[0][:-1], out[0][1:]
    while True:
        wide = b - a >= 2
        a, b = a[wide], b[wide]
        if not a.size:
            break
        # the interior samples of every span, flattened span by span
        size = b - a - 1
        first = np.cumsum(size) - size
        at = np.arange(int(size.sum())) + np.repeat(a + 1 - first, size)
        ua, ub = np.repeat(u[a], size), np.repeat(u[b], size)
        va, vb = np.repeat(v[a], size), np.repeat(v[b], size)
        line = va + (vb - va) * (u[at] - ua) / (ub - ua)
        bound = np.maximum(
            np.where(vb < va, vb, va) * (1.0 - _VALLEY_REL_DEPTH),
            line * (1.0 - _FLANK_REL_SAG),
        )
        gap = bound - v[at]
        # each span's first sample of largest gap, as np.argmax picks it
        worst = np.maximum.reduceat(gap, first)
        hit = np.where(gap == np.repeat(worst, size), np.arange(at.size), at.size)
        split = worst > 0.0
        k = at[np.minimum.reduceat(hit, first)[split]]
        out.append(k)
        a, b = np.concatenate([a[split], k]), np.concatenate([k, b[split]])
    return np.sort(np.concatenate(out)).tolist()


def find_breakpoints(
    scatter: FeedrateScatter, mu_s: float | None = None
) -> list[int]:
    """Indices of trend changes in the ceiling, endpoints always included.

    A point qualifies when its slope change exceeds the screening
    threshold (default: scaled to the scatter's overall feed relief; a
    given mu_s must be positive, as a flat stretch changes no slope) and
    the feed trend actually reverses there. Edges of flat runs count as trend
    changes even when the surrounding trend continues, so saturated
    stretches become their own blocks. Valleys the screening skipped are
    restored whenever they dip materially below both span endpoints,
    since a block laid over one would overrun the scanned ceiling.
    """
    if mu_s is not None and not mu_s > 0.0:
        raise ValueError("mu_s must be strictly positive when given")
    u, v = scatter.u, scatter.v
    n = u.size
    if n < 3:
        return list(range(n))
    r = np.diff(v)
    factors = np.abs(np.diff(r / np.diff(u)))
    threshold = _default_threshold(u, v) if mu_s is None else mu_s
    # the trend reverses at a point, or a flat run starts or ends there
    turns = (r[:-1] * r[1:] < 0.0) | (r[:-1] == 0.0) | (r[1:] == 0.0)
    inner = np.flatnonzero((factors > threshold) & turns) + 1
    return _add_missed_valleys(u, v, [0, *inner.tolist(), n - 1])


def build_blocks(
    curve: ParametricCurve,
    scatter: FeedrateScatter,
    breakpoints: list[int],
) -> list[Block]:
    """One block per adjacent breakpoint pair, with arc displacement."""
    if len(breakpoints) < 2:
        raise MalformedScatterError("need at least two breakpoints")
    u, v = scatter.u[breakpoints], scatter.v[breakpoints].tolist()
    L = curve._arc_table.lengths(u).tolist()
    u = u.tolist()
    return [
        Block(u_s=u[k], u_e=u[k + 1], v_s=v[k], v_e=v[k + 1], L=L[k])
        for k in range(len(L))
    ]
