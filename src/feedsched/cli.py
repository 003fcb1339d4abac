"""Command line front end for the scheduling pipeline.

``feedsched run`` takes a curve file through scan, segmentation,
scheduling and replay, then writes traces, the block table, and a
summary into an output directory. ``feedsched gen-curve`` produces a
random test curve in the same file format.

Exit codes: 0 on success, 2 for unreadable or malformed inputs (including
limits out of range and a curve the scan finds singular), 3 when the
chord scan fails or no feasible schedule exists for the requested limits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .baseline import SINE, sine_schedule
from .chordscan import ChordScanError, Limits, scan_curve
from .curvegen import random_curve
from .geometry import GeometryError, ParametricCurve
from .optimizer import OptimizerError, schedule
from .segmentation import (
    Block,
    BlockKind,
    build_blocks,
    classify_kind,
    find_breakpoints,
)
from .simulator import SimulationError, interpolate, summarize
from .sprofile import sigmoid_family

__all__ = [
    "CliError",
    "RunConfig",
    "PRESETS",
    "load_curve",
    "save_curve",
    "load_blocks",
    "run",
    "main",
]

PRESETS = {
    "standard": Limits(
        Ts=1e-3,
        delta_max=5e-4,
        v_max=100.0,
        a_max=1000.0,
        j_max=26000.0,
        shape_s=3.3,
    ),
    "high-accel": Limits(
        Ts=1e-3,
        delta_max=5e-4,
        v_max=100.0,
        a_max=3000.0,
        j_max=55000.0,
        shape_s=3.3,
    ),
}

_BLOCK_HEADER = (
    "u_s [-],u_e [-],v_s [mm/s],v_e [mm/s],L [mm],s [-],kind [-],T [s]"
)


class CliError(ValueError):
    """Malformed input; the message starts with its location."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location


def load_curve(path: Path) -> ParametricCurve:
    """Read a curve description from a JSON file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(str(exc), location=str(path)) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        loc = f"{path}:{exc.lineno}:{exc.colno}"
        raise CliError(exc.msg, location=loc) from exc
    if not isinstance(data, dict):
        raise CliError("expected a JSON object", location=str(path))
    fields = ("degree", "control_points", "weights", "knots")
    for name in fields:
        if name not in data:
            raise CliError(f"missing key {name!r}", location=str(path))
    try:
        return ParametricCurve(
            degree=int(data["degree"]),
            control_points=tuple(tuple(p) for p in data["control_points"]),
            weights=tuple(data["weights"]),
            knots=tuple(data["knots"]),
        )
    except (GeometryError, TypeError, ValueError) as exc:
        raise CliError(str(exc), location=str(path)) from exc


def save_curve(curve: ParametricCurve, path: Path) -> None:
    doc = {
        "degree": curve.degree,
        "control_points": [list(p) for p in curve.control_points],
        "weights": list(curve.weights),
        "knots": list(curve.knots),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(_cell(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _cell(x) -> str:
    if isinstance(x, str):
        return x
    value = float(x)
    if not math.isfinite(value):
        raise CliError(f"non-finite value {value!r} in output")
    return repr(value)


def save_blocks(blocks: list[Block], path: Path, limits: Limits) -> None:
    """Write the block table; shape and kind come from limits and feeds."""
    tol = 1e-9 * limits.v_max
    rows = [
        (
            b.u_s, b.u_e, b.v_s, b.v_e, b.L, limits.shape_s,
            classify_kind(b.v_s, b.v_e, tol).value, b.T,
        )
        for b in blocks
    ]
    _write_csv(path, _BLOCK_HEADER, rows)


def load_blocks(path: Path) -> list[Block]:
    """Read a block table back; inverse of the table writer.

    The shape and kind cells are checked but not kept: a replay takes
    the shape from its limits and the kind from the feeds.
    """
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise CliError(str(exc), location=str(path)) from exc
    if not lines or lines[0] != _BLOCK_HEADER:
        raise CliError("unrecognized block table header", location=str(path))
    blocks = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 8:
            raise CliError("expected 8 columns", location=f"{path}:{i}")
        try:
            if not float(parts[5]) > 0.0:
                raise ValueError("shape parameter must be positive")
            BlockKind(parts[6])
            b = Block(
                u_s=float(parts[0]),
                u_e=float(parts[1]),
                v_s=float(parts[2]),
                v_e=float(parts[3]),
                L=float(parts[4]),
                T=float(parts[7]),
            )
        except ValueError as exc:
            raise CliError(str(exc), location=f"{path}:{i}") from exc
        blocks.append(b)
    return blocks


@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline invocation needs."""

    curve_path: Path
    limits: Limits
    method: str = "sigmoid"
    out_dir: Path = Path("feedsched-out")


def _summary_doc(summary, n_breakpoints: int) -> dict:
    return {
        "max_feed": summary.max_feed,
        "max_accel": summary.max_accel,
        "max_jerk": summary.max_jerk,
        "max_chord_err": summary.max_chord_err,
        "total_time": summary.total_time,
        "n_points": summary.n_points,
        "n_breakpoints": n_breakpoints,
    }


def _utilization(summary, limits: Limits) -> dict:
    return {
        "feed": summary.max_feed / limits.v_max,
        "accel": summary.max_accel / limits.a_max,
        "jerk": summary.max_jerk / limits.j_max,
        "chord": summary.max_chord_err / limits.delta_max,
    }


def _dump_json(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def run(config: RunConfig) -> int:
    """Execute one pipeline invocation; returns the process exit code."""
    try:
        curve = load_curve(config.curve_path)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.method not in ("sigmoid", "sine", "both"):
        print(f"error: unknown method {config.method!r}", file=sys.stderr)
        return 2

    limits = config.limits
    try:
        scatter = scan_curve(curve, limits)
        breakpoints = find_breakpoints(scatter, mu_s=limits.mu_s)
        blocks = build_blocks(curve, scatter, breakpoints, limits)
    except GeometryError as exc:
        print(f"error: {config.curve_path}: {exc}", file=sys.stderr)
        return 2
    except ChordScanError as exc:
        print(f"error: chord scan failed: {exc}", file=sys.stderr)
        return 3

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    methods = ("sigmoid", "sine") if config.method == "both" else (config.method,)
    families = {"sigmoid": sigmoid_family(limits.shape_s), "sine": SINE}
    results = {}
    for method in methods:
        plan = sine_schedule if method == "sine" else schedule
        try:
            scheduled = plan(curve, blocks, scatter, limits)
        except OptimizerError as exc:
            print(
                f"error: no feasible {method} schedule: {exc}",
                file=sys.stderr,
            )
            return 3
        try:
            samples = interpolate(
                curve, scheduled, limits, family=families[method]
            )
        except SimulationError as exc:
            print(f"error: replay failed for {method}: {exc}", file=sys.stderr)
            return 3
        summary = summarize(samples, scheduled)
        results[method] = summary
        _write_csv(
            out / f"{method}_feed_vs_u.csv",
            "u [-],feed [mm/s]",
            ((s.u, s.v) for s in samples),
        )
        _write_csv(
            out / f"{method}_kinematics_vs_time.csv",
            "t [s],feed [mm/s],accel [mm/s^2],jerk [mm/s^3]",
            ((s.t, s.v, s.A, s.J) for s in samples),
        )
        _write_csv(
            out / f"{method}_chord_error_vs_u.csv",
            "u [-],chord error [mm]",
            ((s.u, s.chord_err) for s in samples),
        )
        save_blocks(scheduled, out / f"{method}_blocks.csv", limits)
        _dump_json(
            _summary_doc(summary, len(breakpoints)),
            out / f"{method}_summary.json",
        )
    if config.method == "both":
        sig, sin = results["sigmoid"], results["sine"]
        comparison = {
            "time_ratio_sine_over_sigmoid": sin.total_time / sig.total_time,
            "points_ratio_sine_over_sigmoid": sin.n_points / sig.n_points,
            "utilization": {
                "sigmoid": _utilization(sig, limits),
                "sine": _utilization(sin, limits),
            },
        }
        _dump_json(comparison, out / "comparison.json")
    return 0


def _load_limits(spec: str, mu_s: float | None) -> Limits:
    """A preset name or a JSON file of limit fields."""
    if spec in PRESETS:
        if mu_s is None:
            return PRESETS[spec]
        try:
            return replace(PRESETS[spec], mu_s=mu_s)
        except ValueError as exc:
            raise CliError(str(exc), location="--mu-s") from exc
    path = Path(spec)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise CliError(str(exc), location=spec) from exc
    except json.JSONDecodeError as exc:
        loc = f"{spec}:{exc.lineno}:{exc.colno}"
        raise CliError(exc.msg, location=loc) from exc
    if not isinstance(data, dict):
        raise CliError("expected a JSON object", location=spec)
    base = {
        "Ts": 1e-3,
        "delta_max": 5e-4,
        "v_max": 100.0,
        "a_max": 1000.0,
        "j_max": 26000.0,
        "shape_s": 3.3,
        "mu_s": None,
    }
    unknown = set(data) - set(base)
    if unknown:
        raise CliError(f"unknown keys {sorted(unknown)}", location=spec)
    base.update(data)
    if mu_s is not None:
        base["mu_s"] = mu_s
    try:
        return Limits(**base)
    except ValueError as exc:
        raise CliError(str(exc), location=spec) from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="feedsched",
        description="Feed rate scheduling on curved toolpaths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="schedule and replay a curve")
    runp.add_argument("--curve", required=True, type=Path, help="curve JSON file")
    runp.add_argument(
        "--config",
        default="standard",
        help="preset name (standard, high-accel) or JSON file of limits",
    )
    runp.add_argument(
        "--method",
        choices=("sigmoid", "sine", "both"),
        default="sigmoid",
        help="profile family to schedule",
    )
    runp.add_argument("--out-dir", type=Path, default=Path("feedsched-out"))
    runp.add_argument(
        "--mu-s",
        type=float,
        default=None,
        help="override the breakpoint screening threshold",
    )

    genp = sub.add_parser("gen-curve", help="write a random test curve")
    genp.add_argument("--seed", type=int, required=True)
    genp.add_argument("--out", required=True, type=Path)
    genp.add_argument("--n-ctrl", type=int, default=None)

    args = parser.parse_args(argv)
    if args.command == "gen-curve":
        curve = random_curve(args.seed, n_ctrl=args.n_ctrl)
        save_curve(curve, args.out)
        print(args.out)
        return 0
    try:
        limits = _load_limits(args.config, args.mu_s)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = RunConfig(
        curve_path=args.curve,
        limits=limits,
        method=args.method,
        out_dir=args.out_dir,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
