"""Kernel work of each benchmark path: jets passes and parameters, probes.

    python3 tools/work_counts.py [--seed 1] [--workload cruise ...]

Draws the benchmark's curves through benchmarks/workloads.py, which it
only imports, and runs each path as ``feedsched run`` does, in-process,
into a temporary directory. It counts:

- geometry.jets passes (calls) and the parameters they evaluate, by
  order (first or second derivative, the ``order`` argument, 2 when
  absent), over the whole run: scan, segmentation, schedule, replay;
- probe rounds, the calls of chordscan._probe (one per round for all of
  a window's searches), and probe rows, the parameters they probe.

It prints one line per path and, per workload, the mean per path.
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

KEYS = ("passes", "order1", "order2", "rounds", "rows")


def _count(counts: Counter) -> None:
    """Route every jets and _probe call through counters in counts."""
    batch, probe = geometry.jets, chordscan._probe

    def jets(curve, u, *args, **kwargs):
        order = kwargs.get("order", args[0] if args else 2)
        counts["passes"] += 1
        counts[f"order{order}"] += len(u)
        return batch(curve, u, *args, **kwargs)

    def _probe(curve, u, *args):
        counts["rounds"] += 1
        counts["rows"] += len(u)
        return probe(curve, u, *args)

    geometry.jets = chordscan.jets = simulator.jets = jets
    chordscan._probe = _probe


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    counts = Counter()
    _count(counts)
    print("workload  path" + "".join(f"{k:>10}" for k in KEYS))
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
                row = "".join(f"{counts[k]:>10}" for k in KEYS)
                print(f"{workload:<9} {spec.name}{row}")
            mean = "".join(f"{total[k] / len(inputs):>10.1f}" for k in KEYS)
            print(f"{workload:<9} mean per path{mean}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
