"""Benchmark workloads and their input curves.

Each workload is a fixed list of paths: a curve recipe, a limit preset and
a method. The curves are drawn by a frozen copy of the seeded generator
that ``feedsched.curvegen.random_curve`` used when this benchmark was
written, so they stay the same even if the library's generator changes.
Only numpy is used here; the library is not imported.

The benchmark seed does not pick new curve shapes. It places every curve
by its own rigid motion (rotation, optional mirror, translation) and
shuffles the run order. A rigid motion leaves chord error, curvature and
arc length unchanged, so every seed asks the program for the same amount
of work on different numbers. Drawing a fresh random set per seed instead
made the median path time swing by 15-25 % between seeds (see README).

Regenerate the curve files of one workload and seed with::

    python3 benchmarks/workloads.py --workload corpus --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Frozen generator constants (feedsched.curvegen at the time of writing).
_SHARP_PROB = 0.45
_MIN_SPEED_FRACTION = 1e-3
_DEGREE = 3
# Half-width of the square the seed translates each curve within (mm).
_SHIFT = 50.0


@dataclass(frozen=True)
class PathSpec:
    """One ``feedsched run`` invocation of a workload."""

    curve_seed: int
    n_ctrl: int | None
    extent: float
    preset: str
    method: str

    @property
    def name(self) -> str:
        size = f"n{self.n_ctrl}-" if self.n_ctrl is not None else ""
        return f"c{self.curve_seed:02d}-{size}{self.preset}-{self.method}"


WORKLOADS: dict[str, tuple[PathSpec, ...]] = {
    # Four curves of the paper's 25-seed corpus (default draws: 8-20
    # control points over 30 mm), alternating the jerk-strict and the
    # accel-strict preset, both profile families each. Chord-bound: the
    # scan bisects at every point. High-accel seed 12 has the corpus's
    # worst replayed chord error.
    "corpus": tuple(
        PathSpec(k, None, 30.0, preset, "both")
        for k, preset in ((6, "standard"), (12, "high-accel"),
                          (18, "standard"), (24, "high-accel"))
    ),
    # One curve at two lengths, about 120 and 220 blocks: the scheduler
    # and its arc-length re-anchoring dominate and grow faster than the
    # path.
    "long": tuple(
        PathSpec(3, n, e, "standard", "sigmoid")
        for n, e in ((40, 60.0), (60, 90.0))
    ),
    # Gentle curves over hundreds of mm: the feed cap binds, the scan
    # accepts its first probe and replaying thousands of ticks dominates.
    "cruise": tuple(
        PathSpec(k, None, 300.0, "standard", "both") for k in range(3)
    ),
}


def _basis(knots: np.ndarray, degree: int, u: np.ndarray) -> np.ndarray:
    """B-spline basis matrix (len(u) x n_ctrl) by the Cox-de Boor recursion."""
    t = knots
    uu = u[:, None]
    N = ((t[:-1] <= uu) & (uu < t[1:])).astype(float)
    last = np.nonzero(t[:-1] < t[1:])[0][-1]
    at_end = u >= t[-1]
    N[at_end] = 0.0
    N[at_end, last] = 1.0
    for k in range(1, degree + 1):
        den_l = t[k:-1] - t[: -k - 1]
        den_r = t[k + 1:] - t[1:-k]
        with np.errstate(divide="ignore", invalid="ignore"):
            a = np.where(den_l > 0.0, (uu - t[: -k - 1]) / den_l, 0.0)
            b = np.where(den_r > 0.0, (t[k + 1:] - uu) / den_r, 0.0)
        N = a * N[:, :-1] + b * N[:, 1:]
    return N


def curve_speed(doc: dict, u: np.ndarray) -> np.ndarray:
    """|dC/du| of a rational B-spline curve document at parameters u."""
    p = int(doc["degree"])
    t = np.asarray(doc["knots"], dtype=float)
    w = np.asarray(doc["weights"], dtype=float)
    hom = np.column_stack([np.asarray(doc["control_points"]) * w[:, None], w])
    A = _basis(t, p, u) @ hom
    den = t[p + 1: len(hom) + p] - t[1: len(hom)]
    with np.errstate(divide="ignore", invalid="ignore"):
        dq = np.where(den[:, None] > 0.0, p * np.diff(hom, axis=0) / den[:, None], 0.0)
    dA = _basis(t[1:-1], p - 1, u) @ dq
    C = A[:, :-1] / A[:, -1:]
    dC = (dA[:, :-1] - dA[:, -1:] * C) / A[:, -1:]
    return np.sqrt((dC * dC).sum(axis=1))


def _uniform_clamped_knots(n_ctrl: int) -> list[float]:
    interior = n_ctrl - _DEGREE - 1
    body = [(i + 1) / (interior + 1) for i in range(interior)]
    return [0.0] * (_DEGREE + 1) + body + [1.0] * (_DEGREE + 1)


def _polygon(rng, n_ctrl: int, extent: float) -> list[list[float]]:
    base = extent / (n_ctrl - 1)
    heading = rng.uniform(0.0, 2.0 * math.pi)
    x, y = 0.0, 0.0
    pts = [[x, y]]
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
        pts.append([x, y])
    return pts


def base_curve(seed: int, n_ctrl: int | None, extent: float) -> dict:
    """The planar cubic curve the frozen generator draws for a seed."""
    for attempt in range(64):
        rng = np.random.default_rng((int(seed), attempt))
        count = n_ctrl if n_ctrl is not None else int(rng.integers(8, 21))
        pts = _polygon(rng, count, extent)
        weights = [float(w) for w in rng.uniform(0.8, 1.3, size=count)]
        doc = {
            "degree": _DEGREE,
            "control_points": pts,
            "weights": weights,
            "knots": _uniform_clamped_knots(count),
        }
        speed = curve_speed(doc, np.linspace(0.0, 1.0, 257))
        if speed.min() >= _MIN_SPEED_FRACTION * extent:
            return doc
    raise RuntimeError(f"could not draw a usable curve for seed {seed}")


def _place(doc: dict, rng) -> dict:
    """The same curve under a seeded rotation, mirror and translation."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    mirror = -1.0 if rng.integers(2) else 1.0
    shift = rng.uniform(-_SHIFT, _SHIFT, size=2)
    c, s = math.cos(theta), math.sin(theta)
    pts = []
    for x, y in doc["control_points"]:
        x *= mirror
        pts.append([float(c * x - s * y + shift[0]), float(s * x + c * y + shift[1])])
    return dict(doc, control_points=pts)


def workload_inputs(workload: str, seed: int) -> list[tuple[PathSpec, dict]]:
    """The workload's paths in the seed's run order, each with its curve."""
    specs = WORKLOADS[workload]
    rng = np.random.default_rng(
        (int(seed), sorted(WORKLOADS).index(workload))
    )
    placed = [
        (spec, _place(base_curve(spec.curve_seed, spec.n_ctrl, spec.extent), rng))
        for spec in specs
    ]
    return [placed[i] for i in rng.permutation(len(placed))]


def write_curve(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    for i, (spec, doc) in enumerate(workload_inputs(args.workload, args.seed)):
        path = args.out / f"{i:02d}-{spec.name}.json"
        write_curve(doc, path)
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
