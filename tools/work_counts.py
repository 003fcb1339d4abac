"""Kernel work of each benchmark path: jets passes and parameters, probes.

    python3 tools/work_counts.py [--seed 1] [--workload cruise ...]
    python3 tools/work_counts.py --ladder

Draws the benchmark's curves through benchmarks/workloads.py, which it
only imports, and runs each path as ``feedsched run`` does, in-process,
into a temporary directory. It counts:

- geometry.jets passes (calls) and the parameters they evaluate, by
  order (first or second derivative, the ``order`` argument, 2 when
  absent), over the whole run: scan, segmentation, schedule, replay;
- probe rounds, the calls of chordscan._probe (one per round for all of
  a window's searches), and probe rows, the parameters they probe;
- scan windows, the calls of chordscan._predict, and replay windows,
  the calls of simulator._land.

It prints one line per path and, per workload, the mean per path.

With --ladder it scans random_curve(3, n_ctrl=n, extent=1.5 n) for n in
LADDER under the standard preset instead, scan only, and prints per
curve the scan samples and the jets passes, probe rounds and scan
windows in all and per sample, then their totals over the ladder.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

from workloads import WORKLOADS, workload_inputs, write_curve  # noqa: E402

from feedsched import chordscan, cli, geometry, simulator  # noqa: E402
from feedsched.curvegen import random_curve  # noqa: E402

KEYS = ("passes", "order1", "order2", "rounds", "rows", "scan_win", "replay_win")
LADDER = (40, 80, 160, 320, 640)


def _count(counts: Counter) -> None:
    """Route every jets, _probe, _predict and _land call through counters
    in counts."""
    batch, probe = geometry.jets, chordscan._probe
    predict, land = chordscan._predict, simulator._land

    def jets(curve, u, *args, **kwargs):
        order = kwargs.get("order", args[0] if args else 2)
        counts["passes"] += 1
        counts[f"order{order}"] += len(u)
        return batch(curve, u, *args, **kwargs)

    def _probe(curve, u, *args):
        counts["rounds"] += 1
        counts["rows"] += len(u)
        return probe(curve, u, *args)

    def _predict(*args):
        counts["scan_win"] += 1
        return predict(*args)

    def _land(*args):
        counts["replay_win"] += 1
        return land(*args)

    geometry.jets = chordscan.jets = simulator.jets = jets
    chordscan._probe, chordscan._predict, simulator._land = _probe, _predict, _land


def ladder(counts: Counter) -> None:
    """Scan work per sample along the length ladder, standard preset."""
    keys = ("passes", "rounds", "scan_win")
    print(f"{'n_ctrl':>6}{'samples':>9}" + "".join(f"{k:>10}{'/sample':>9}" for k in keys))
    total = Counter()
    for n in LADDER:
        counts.clear()
        curve = random_curve(3, n_ctrl=n, extent=1.5 * n)
        samples = len(chordscan.scan_curve(curve, cli.PRESETS["standard"]))
        total.update(counts)
        per = "".join(f"{counts[k]:>10}{counts[k] / samples:>9.3f}" for k in keys)
        print(f"{n:>6}{samples:>9}{per}")
    print(f"{'total':>15}" + "".join(f"{total[k]:>10}{'':>9}" for k in keys))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--ladder", action="store_true", help="scan the length ladder instead")
    args = parser.parse_args(argv)
    counts = Counter()
    _count(counts)
    if args.ladder:
        ladder(counts)
        return 0
    print("workload  path" + "".join(f"{k:>11}" for k in KEYS))
    with tempfile.TemporaryDirectory() as tmp:
        for workload in args.workload or sorted(WORKLOADS):
            total = Counter()
            inputs = workload_inputs(workload, args.seed)
            for i, (spec, doc) in enumerate(inputs):
                curve_file = Path(tmp) / f"{workload}-{i}.json"
                write_curve(doc, curve_file)
                counts.clear()
                code = cli.main([
                    "run", "--curve", str(curve_file), "--config", spec.preset,
                    "--method", spec.method, "--out-dir", str(Path(tmp) / "out"),
                ])
                if code:
                    raise SystemExit(f"{spec.name}: feedsched run exited {code}")
                total.update(counts)
                row = "".join(f"{counts[k]:>11}" for k in KEYS)
                print(f"{workload:<9} {spec.name}{row}")
            mean = "".join(f"{total[k] / len(inputs):>11.1f}" for k in KEYS)
            print(f"{workload:<9} mean per path{mean}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
