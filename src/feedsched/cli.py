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
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .baseline import SINE, sine_schedule
from .chordscan import ChordScanError, Limits, scan_curve
from .curvegen import random_curve
from .geometry import GeometryError, ParametricCurve
from .optimizer import OptimizerError, schedule
from .segmentation import (
    Block,
    build_blocks,
    classify_kind,
    find_breakpoints,
)
from .simulator import SimulationError, interpolate, summarize
from .sprofile import sigmoid_law

__all__ = [
    "CliError",
    "RunConfig",
    "PRESETS",
    "load_curve",
    "save_curve",
    "run",
    "main",
]

PRESETS = {
    "standard": Limits(
        Ts=1e-3, delta_max=5e-4, v_max=100.0, a_max=1000.0, j_max=26000.0,
        shape_s=3.3,
    ),
    "high-accel": Limits(
        Ts=1e-3, delta_max=5e-4, v_max=100.0, a_max=3000.0, j_max=55000.0,
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


def _read_object(path: str | Path, where: str) -> dict:
    """The JSON object in a file; every failure is a CliError at where."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise CliError(str(exc), location=where) from exc
    except json.JSONDecodeError as exc:
        loc = f"{where}:{exc.lineno}:{exc.colno}"
        raise CliError(exc.msg, location=loc) from exc
    if not isinstance(data, dict):
        raise CliError("expected a JSON object", location=where)
    return data


def load_curve(path: Path) -> ParametricCurve:
    """Read a curve description from a JSON file."""
    data = _read_object(path, str(path))
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


def _cells(values, path: Path) -> list[str]:
    """Each value's float repr; a non-finite value raises, naming path."""
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        bad = float(values[np.argmin(finite)])
        raise CliError(f"non-finite value {bad!r} in output", str(path))
    return list(map(repr, values.tolist()))


def _write_csv(path: Path, header: str, *columns) -> None:
    """Write equal-length columns under a header. A column of numbers is
    formatted by _cells; one of strings is written as it stands."""
    cols = [c if isinstance(c[0], str) else _cells(c, path) for c in columns]
    path.write_text("\n".join([header, *map(",".join, zip(*cols))]) + "\n")


def save_blocks(blocks: list[Block], path: Path, limits: Limits) -> None:
    """Write the block table; shape and kind come from limits and feeds."""
    rows = [
        (
            b.u_s, b.u_e, b.v_s, b.v_e, b.L, limits.shape_s,
            classify_kind(b.v_s, b.v_e, limits.v_max).value, b.T,
        )
        for b in blocks
    ]
    _write_csv(path, _BLOCK_HEADER, *zip(*rows))


@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline invocation needs."""

    curve_path: Path
    limits: Limits
    method: str = "sigmoid"
    out_dir: Path = Path("feedsched-out")


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
        blocks = build_blocks(curve, scatter, breakpoints)
    except GeometryError as exc:
        print(f"error: {config.curve_path}: {exc}", file=sys.stderr)
        return 2
    except ChordScanError as exc:
        print(f"error: chord scan failed: {exc}", file=sys.stderr)
        return 3

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    methods = ("sigmoid", "sine") if config.method == "both" else (config.method,)
    laws = {"sigmoid": sigmoid_law(limits.shape_s), "sine": SINE}
    results = {}
    # both laws' tick times are arange(n + 1) * Ts, so the shorter column
    # is a prefix of the longer one: its cells are formatted once
    times: list[str] = []
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
            replay = interpolate(curve, scheduled, limits, law=laws[method])
        except SimulationError as exc:
            print(f"error: replay failed for {method}: {exc}", file=sys.stderr)
            return 3
        summary = summarize(replay)
        results[method] = summary
        feed_csv = out / f"{method}_feed_vs_u.csv"
        try:
            # u and the feed go to two files each: format them once
            u, v = _cells(replay.u, feed_csv), _cells(replay.v, feed_csv)
            _write_csv(feed_csv, "u [-],feed [mm/s]", u, v)
            kinematics_csv = out / f"{method}_kinematics_vs_time.csv"
            times += _cells(replay.t[len(times) :], kinematics_csv)
            _write_csv(
                kinematics_csv,
                "t [s],feed [mm/s],accel [mm/s^2],jerk [mm/s^3]",
                times[: len(replay)], v, replay.A, replay.J,
            )
            _write_csv(
                out / f"{method}_chord_error_vs_u.csv",
                "u [-],chord error [mm]",
                u, replay.chord_err,
            )
            save_blocks(scheduled, out / f"{method}_blocks.csv", limits)
        except CliError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        _dump_json(
            asdict(summary) | {"n_breakpoints": len(breakpoints)},
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
    data = _read_object(spec, spec)
    base = asdict(PRESETS["standard"])
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
        help="velocity law to schedule with",
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
        try:
            curve = random_curve(args.seed, n_ctrl=args.n_ctrl)
        except ValueError as exc:
            print(f"error: --n-ctrl: {exc}", file=sys.stderr)
            return 2
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
