"""Output checks for one benchmark path, computed apart from the library.

The curve is re-evaluated with ``scipy.interpolate.BSpline`` on
homogeneous coordinates, arc length comes from ``scipy.integrate.quad``,
sigmoid peaks from dense sampling of the profile as the paper defines it
and sine peaks from the textbook closed form. Nothing here imports
``feedsched``. The limit values are this file's own copy of the CLI
presets, so a changed preset shows as a failed check, not as a new
baseline.

``check_path`` returns the problems it found (empty when the path is
correct) and the reference figures the benchmark prints. Run
``python3 benchmarks/checks.py --selftest`` to see the checks reject a
deliberately corrupted block table.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import BSpline

LIMITS = {
    "standard": {
        "Ts": 1e-3, "delta_max": 5e-4, "v_max": 100.0,
        "a_max": 1000.0, "j_max": 26000.0,
    },
    "high-accel": {
        "Ts": 1e-3, "delta_max": 5e-4, "v_max": 100.0,
        "a_max": 3000.0, "j_max": 55000.0,
    },
}
# The slack and chord allowance the tier-1 acceptance tests grant today.
PEAK_SLACK = 1e-9
CHORD_ALLOWANCE = 1.05
LENGTH_RTOL = 1e-6
_BACKWARDS_MM = 1e-9
_CHORD_SAMPLES = 16
_CORE_SAMPLES = 2001
_CAP_SAMPLES = 201


class Curve:
    """Independent evaluator for a curve document (degree, points, ...)."""

    def __init__(self, doc: dict):
        w = np.asarray(doc["weights"], dtype=float)
        pts = np.asarray(doc["control_points"], dtype=float)
        self.knots = np.asarray(doc["knots"], dtype=float)
        hom = np.column_stack([pts * w[:, None], w])
        self.spline = BSpline(self.knots, hom, int(doc["degree"]))
        self.d1 = self.spline.derivative()

    def points(self, u):
        h = self.spline(u)
        return h[..., :-1] / h[..., -1:]

    def speed(self, u):
        h = self.spline(u)
        d = self.d1(u)
        c = h[..., :-1] / h[..., -1:]
        dc = (d[..., :-1] - d[..., -1:] * c) / h[..., -1:]
        return np.sqrt((dc * dc).sum(axis=-1))

    def length(self) -> float:
        edges = np.unique(self.knots)
        return sum(
            quad(lambda x: float(self.speed(x)), a, b,
                 epsabs=0.0, epsrel=1e-12, limit=200)[0]
            for a, b in zip(edges[:-1], edges[1:])
        )


def _read_csv(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def _read_table(path: Path) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in _read_csv(path)])


def _grid_peak(y: np.ndarray) -> np.ndarray:
    """Row maxima of sampled bumps, refined by a parabola through the top."""
    i = np.argmax(y, axis=1)
    rows = np.arange(y.shape[0])
    top = y[rows, i]
    inner = (i > 0) & (i < y.shape[1] - 1)
    y0 = y[rows, np.maximum(i - 1, 0)]
    y2 = y[rows, np.minimum(i + 1, y.shape[1] - 1)]
    den = y0 - 2.0 * top + y2
    with np.errstate(divide="ignore", invalid="ignore"):
        refined = top - (y0 - y2) ** 2 / (8.0 * den)
    return np.where(inner & (den < 0.0), refined, top)


def _logistic(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def sigmoid_peaks(v_s, v_e, L, s):
    """Peak |accel| and |jerk| of shaped transitions by dense sampling.

    The middle third is a scaled logistic over x in [-s/3, s/3]; each
    outer third is the cubic that starts at the end feed with zero
    acceleration and meets the core with matching feed and acceleration.
    The two caps mirror each other, so one covers both.
    """
    lo, hi = np.minimum(v_s, v_e), np.maximum(v_s, v_e)
    T = 2.0 * L / (lo + hi)
    h = T / 3.0
    c = 2.0 * s / T
    amp = (hi - lo) / (_logistic(s) - _logistic(-s))
    x = (s / 3.0)[:, None] * np.linspace(-1.0, 1.0, _CORE_SAMPLES)[None, :]
    f = _logistic(x)
    d1 = f * (1.0 - f)
    d2 = d1 * (1.0 - 2.0 * f)
    a_core = np.abs(amp[:, None] * c[:, None] * d1)
    j_core = np.abs(amp[:, None] * (c * c)[:, None] * d2)
    f3 = _logistic(-s / 3.0)
    dv = amp * (f3 - _logistic(-s))
    a13 = amp * c * f3 * (1.0 - f3)
    alpha = (3.0 * dv - a13 * h) / (h * h)
    beta = (a13 * h - 2.0 * dv) / (h * h * h)
    t = h[:, None] * np.linspace(0.0, 1.0, _CAP_SAMPLES)[None, :]
    a_cap = np.abs(2.0 * alpha[:, None] * t + 3.0 * beta[:, None] * t * t)
    j_cap = np.abs(2.0 * alpha[:, None] + 6.0 * beta[:, None] * t)
    a_pk = np.maximum(_grid_peak(a_core), _grid_peak(a_cap))
    j_pk = np.maximum(_grid_peak(j_core), j_cap.max(axis=1))
    return a_pk, j_pk


def sine_peaks(v_s, v_e, L):
    """Half-sine transition: a = pi dv / 2T, j = pi^2 dv / 2T^2."""
    T = 2.0 * L / (v_s + v_e)
    dv = np.abs(v_e - v_s)
    return math.pi * dv / (2.0 * T), math.pi ** 2 * dv / (2.0 * T * T)


def worst_chord(curve: Curve, u: np.ndarray) -> float:
    """Largest distance of the curve from each tick's chord, densely sampled."""
    ua, ub = u[:-1], u[1:]
    moving = ub > ua
    ua, ub = ua[moving], ub[moving]
    frac = np.linspace(0.0, 1.0, _CHORD_SAMPLES + 1)
    p = curve.points(ua[:, None] + (ub - ua)[:, None] * frac[None, :])
    a, b = p[:, :1, :], p[:, -1:, :]
    ab = b - a
    den = np.maximum((ab * ab).sum(axis=-1), 1e-300)
    tau = np.clip(((p - a) * ab).sum(axis=-1) / den, 0.0, 1.0)
    gap = p - a - tau[..., None] * ab
    dist = np.sqrt((gap * gap).sum(axis=-1))
    return float(_grid_peak(dist).max()) if dist.size else 0.0


def _check_method(curve, length, lim, method, out, problems) -> dict:
    rows = _read_csv(out / f"{method}_blocks.csv")
    if not rows:
        problems.append(f"{method}: empty block table")
        return {}
    table = np.array([[float(x) for i, x in enumerate(r) if i != 6] for r in rows])
    u_s, u_e, v_s, v_e, L, s, T = table.T
    tag = f"{method}:"
    if u_s[0] != 0.0 or u_e[-1] != 1.0:
        problems.append(f"{tag} blocks span [{u_s[0]}, {u_e[-1]}], not [0, 1]")
    if np.any(u_e[:-1] != u_s[1:]):
        problems.append(f"{tag} blocks do not tile u")
    # A moving block advances in u. The library re-anchors each junction
    # to 1e-10 mm of arc, so a zero-length block may end that far before
    # it starts; more than _BACKWARDS_MM is a block running backwards.
    back_mm = (u_s - u_e) * curve.speed(u_s)
    if np.any((L > 0.0) & (u_e <= u_s)) or back_mm.max() > _BACKWARDS_MM:
        problems.append(f"{tag} a block runs {back_mm.max():.3g} mm backwards")
    if np.any(v_e[:-1] != v_s[1:]):
        problems.append(f"{tag} junction feeds differ across a junction")
    if abs(L.sum() - length) > LENGTH_RTOL * length:
        problems.append(f"{tag} sum of L {L.sum():.9f} != arc length {length:.9f}")
    v_cap = lim["v_max"] * (1.0 + PEAK_SLACK)
    if max(v_s.max(), v_e.max()) > v_cap:
        problems.append(f"{tag} block feed {max(v_s.max(), v_e.max())} > v_max")
    moving = (v_s != v_e) & (L > 0.0)
    if moving.any():
        if method == "sine":
            a_pk, j_pk = sine_peaks(v_s[moving], v_e[moving], L[moving])
        else:
            a_pk, j_pk = sigmoid_peaks(
                v_s[moving], v_e[moving], L[moving], s[moving]
            )
        if a_pk.max() > lim["a_max"] * (1.0 + PEAK_SLACK):
            problems.append(f"{tag} block peak accel {a_pk.max()} > a_max")
        if j_pk.max() > lim["j_max"] * (1.0 + PEAK_SLACK):
            problems.append(f"{tag} block peak jerk {j_pk.max()} > j_max")

    total = float(T.sum())
    summary = json.loads((out / f"{method}_summary.json").read_text())
    if abs(summary["total_time"] - total) > 1e-12 * total:
        problems.append(f"{tag} summary time differs from block table")
    # Summing per-block times rounds differently from dividing Σ L.
    if total < (1.0 - 1e-12) * L.sum() / lim["v_max"]:
        problems.append(f"{tag} machining time {total} < L / v_max")
    feed = _read_table(out / f"{method}_feed_vs_u.csv")
    kin = _read_table(out / f"{method}_kinematics_vs_time.csv")
    u = feed[:, 0]
    want = math.ceil(total / lim["Ts"]) + 1
    if len(u) != want or u[0] != 0.0 or u[-1] != 1.0:
        problems.append(
            f"{tag} replay has {len(u)} samples from u={u[0]} to u={u[-1]}, "
            f"want {want} from 0 to 1"
        )
    if np.any(np.diff(u) < 0.0):
        problems.append(f"{tag} replay moves backwards")
    if feed[:, 1].max() > v_cap:
        problems.append(f"{tag} replay feed {feed[:, 1].max()} > v_max")
    a_util = np.abs(kin[:, 2]).max() / lim["a_max"]
    j_util = np.abs(kin[:, 3]).max() / lim["j_max"]
    if a_util > 1.0 + PEAK_SLACK or j_util > 1.0 + PEAK_SLACK:
        problems.append(f"{tag} replay accel/jerk use {a_util}/{j_util} of the limits")
    chord = worst_chord(curve, u) / lim["delta_max"]
    if chord > CHORD_ALLOWANCE:
        problems.append(f"{tag} chord deviation {chord:.4f} x tolerance")
    return {
        "blocks": len(rows),
        "ticks": len(u) - 1,
        "time_s": total,
        "chord_ratio": chord,
        "accel_util": float(a_util),
        "jerk_util": float(j_util),
    }


def check_path(curve_doc: dict, preset: str, method: str, out: Path):
    """Check one path's written outputs; returns (problems, figures)."""
    problems: list[str] = []
    curve = Curve(curve_doc)
    length = curve.length()
    methods = ("sigmoid", "sine") if method == "both" else (method,)
    figures = {"length_mm": length}
    for m in methods:
        try:
            figures[m] = _check_method(curve, length, LIMITS[preset], m, out, problems)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"{m}: unreadable output ({exc})")
    if method == "both" and "time_s" in figures["sigmoid"] and "time_s" in figures["sine"]:
        sig, sin = figures["sigmoid"]["time_s"], figures["sine"]["time_s"]
        figures["gain"] = sin / sig - 1.0
        if sig > sin:
            problems.append(f"sigmoid time {sig} exceeds sine time {sin}")
    return problems, figures


def _selftest(root: Path) -> int:
    """Run one path, then corrupt its outputs and expect the checks to fail."""
    sys.path.insert(0, str(root / "src"))
    from feedsched.cli import main as feedsched_main
    from workloads import workload_inputs, write_curve

    work = root / "benchmarks" / "out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec, doc = workload_inputs("corpus", 0)[0]
    write_curve(doc, work / "curve.json")
    out = work / "run"
    rc = feedsched_main([
        "run", "--curve", str(work / "curve.json"), "--config", spec.preset,
        "--method", spec.method, "--out-dir", str(out),
    ])
    clean, _ = check_path(doc, spec.preset, spec.method, out)
    print(f"clean output: exit {rc}, problems {clean}")
    table = out / "sigmoid_blocks.csv"
    rows = [line.split(",") for line in table.read_text().splitlines()]
    raised = repr(LIMITS[spec.preset]["v_max"] * 1.01)
    rows[1][3] = rows[2][2] = raised  # the first junction, on both sides
    table.write_text("\n".join(",".join(r) for r in rows) + "\n")
    found, _ = check_path(doc, spec.preset, spec.method, out)
    print(f"one junction feed raised above v_max: problems {found}")
    ok = rc == 0 and not clean and any("> v_max" in p for p in found)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="benchmark output checks")
    parser.add_argument("--selftest", action="store_true", required=True)
    parser.parse_args()
    raise SystemExit(_selftest(Path(__file__).resolve().parents[1]))
