"""Layered benchmark of the feedsched pipeline: scan, segment, schedule, replay.

    python3 benchmarks/run.py --workload {corpus,long,cruise} --seed N \\
        --seconds S --trace {0,1}

One process, numeric thread pools limited to one thread, runs every path
of the workload through the CLI entry point (``feedsched.cli.main`` with
``run`` arguments), in-process and one path at a time. Whole rounds of
the workload's paths repeat while the next round is expected to end
within ``--seconds``; the first round always runs. After the timed loop
the peak RSS is read, then every path's written outputs are checked by
``checks.py`` and hashed.

Each run call is timed on the wall clock while ``Speedometer`` samples
the speed of the shared CPU; the reported times are those wall times
scaled to a fixed reference speed (see ``REFERENCE_KERNEL_S``). A path's
time is the median over its rounds.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` wraps the
library's public functions (``tracing.py``) and reports the per-layer
metrics instead. The last line of standard output is one JSON object:
``{"correct": bool, "attempted": int, "failed": int, "metrics": {name:
{"value": float, "unit": str}}}``. The lines before it give the reference
figures of the schedules and a digest of all written outputs. Files go
to ``benchmarks/out/<workload>-seed<N>-trace<T>/``.
"""

import os

for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
# The two CPUs this benchmark was written on are shared with other
# machines and switch between speeds some 50 to 100 % apart, for seconds
# to minutes at a time; raw wall times of the same run call then differ by
# a third or more between runs. So while a run call executes, a timer samples the
# CPU's current speed: every SPEED_PERIOD_S it times _kernel(), a fixed
# piece of pure-Python float work. The library slows more than _kernel()
# when the CPU is contended: over thirty runs its wall time grew as the
# kernel time to the power 1.2 to 1.6, by workload, and SPEED_EXPONENT
# sits between. Each call's wall time is reported scaled by the mean of
# (REFERENCE_KERNEL_S / kernel time) ** SPEED_EXPONENT over the samples,
# that is as the wall time at the uncontended speed at which _kernel()
# takes REFERENCE_KERNEL_S (see README).
SPEED_PERIOD_S = 0.01
REFERENCE_KERNEL_S = 35e-6
SPEED_EXPONENT = 1.4


def _import_cli():
    """The library's CLI module, from this checkout's ``src`` only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import feedsched.cli as cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import feedsched from {src}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: feedsched imported from {cli.__file__}, not {src}")
    return cli


def _setup_seconds(inputs: Path) -> float:
    """Median wall time of a fresh interpreter importing and loading inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        # No timeout: Popen.wait polls in 50 ms steps when given one.
        subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(inputs)],
            check=True,
        )
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _call(cli, argv) -> int:
    """Exit code ``feedsched`` would give for argv, run in-process."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(directory.rglob("*")):
        if f.is_file():
            h.update(f.relative_to(directory).as_posix().encode() + b"\0")
            h.update(f.read_bytes())
    return h.hexdigest()


def _kernel() -> float:
    """Fixed pure-Python float work; its time measures the CPU's speed."""
    acc = 0.0
    for i in range(300):
        x = i * 1e-3
        acc += math.sqrt(x * x + 1.0) - x * 0.5
    return acc


class Speedometer:
    """Samples the CPU's speed by timing _kernel() on a wall-clock timer."""

    def __init__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t0 = perf_counter()
        _kernel()
        self.samples.append(perf_counter() - t0)

    def __enter__(self):
        self.samples.clear()
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD_S, SPEED_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def scale(self) -> float:
        """Mean speed, relative to the reference, over the sampled periods.

        1 when the call was too short to sample.
        """
        if not self.samples:
            return 1.0
        return statistics.fmean(
            (REFERENCE_KERNEL_S / k) ** SPEED_EXPONENT for k in self.samples
        )


def _run_rounds(cli, paths, seconds, tracer):
    """Time whole rounds of run calls.

    Returns, per path, the wall times, the same scaled to the reference
    CPU speed, the exit codes and the output digests, plus the number of
    rounds.
    """
    speed = Speedometer()
    times = [[] for _ in paths]
    scaled = [[] for _ in paths]
    codes = [[] for _ in paths]
    digests = [set() for _ in paths]
    start = perf_counter()
    rounds = 0
    while True:
        for i, (spec, curve_file, out) in enumerate(paths):
            argv = [
                "run", "--curve", str(curve_file), "--config", spec.preset,
                "--method", spec.method, "--out-dir", str(out),
            ]
            if tracer is not None:
                tracer.path = spec.name
            with speed:
                t0 = perf_counter()
                rc = _call(cli, argv)
                dt = perf_counter() - t0
            times[i].append(dt)
            scaled[i].append(dt * speed.scale())
            codes[i].append(rc)
            digests[i].add(_digest(out) if out.is_dir() else "")
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return times, scaled, codes, digests, rounds


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    cli = _import_cli()
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS, workload_inputs, write_curve

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    work = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    paths, docs = [], []
    for i, (spec, doc) in enumerate(workload_inputs(args.workload, args.seed)):
        curve_file = work / "inputs" / f"{i:02d}-{spec.name}.json"
        write_curve(doc, curve_file)
        paths.append((spec, curve_file, work / "paths" / f"{i:02d}-{spec.name}"))
        docs.append(doc)

    setup_s = _setup_seconds(work / "inputs")
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    times, scaled, codes, digests, rounds = _run_rounds(cli, paths, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from checks import check_path

    path_s = [statistics.median(ts) for ts in scaled]
    failed = 0
    correct = True
    done_mm = done_s = 0.0
    figures = []
    for (spec, _, out), doc, rcs, seen, t in zip(paths, docs, codes, digests, path_s):
        if any(rcs):
            print(f"FAIL {spec.name}: exit codes {rcs}")
            failed += len(rcs)
            figures.append(None)
            continue
        problems, fig = check_path(doc, spec.preset, spec.method, out)
        if len(seen) != 1:
            problems.append("outputs differ between rounds")
        if problems:
            print(f"FAIL {spec.name}: {'; '.join(problems)}")
            failed += len(rcs)
            correct = False
        done_mm += fig["length_mm"]
        done_s += t
        figures.append(fig)

    print(f"workload {args.workload} seed {args.seed}: {len(paths)} paths x "
          f"{rounds} rounds, {_fmt(sum(map(sum, times)))} s in run calls, "
          f"unscaled p50 {_fmt(statistics.median(map(statistics.median, times)))} s")
    for (spec, _, out), fig, t in zip(paths, figures, path_s):
        if fig is None:
            continue
        parts = [f"{spec.name}: {_fmt(t)} s, "
                 f"{_fmt(fig['length_mm'])} mm"]
        for m in ("sigmoid", "sine"):
            if m in fig and fig[m]:
                f = fig[m]
                parts.append(
                    f"{m} {f['blocks']} blocks {f['ticks']} ticks "
                    f"T={_fmt(f['time_s'])} s chord={f['chord_ratio']:.4f} "
                    f"accel={f['accel_util']:.3f} jerk={f['jerk_util']:.3f}"
                )
        if "gain" in fig:
            parts.append(f"sine/sigmoid-1={fig['gain']:.4f}")
        print("  " + " | ".join(parts))
    by_name = sorted(zip((p[0].name for p in paths), digests))
    whole = hashlib.sha256("".join(min(d) for _, d in by_name).encode()).hexdigest()
    print(f"digest {args.workload} seed {args.seed}: {whole}")

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "path_s_p50": (statistics.median(path_s), "s"),
            "mm_per_s": (done_mm / done_s if done_s else 0.0, "mm/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        wall = sum(map(sum, times))
        scale = sum(map(sum, scaled)) / wall
        metrics = tracer.layer_metrics(wall, sum(map(len, times)), scale)
        print(f"traced path_s_p50 {_fmt(statistics.median(path_s))} s")
        for name, st in tracer.path_stages.items():
            if "sigmoid_blocks" in st:
                ms = 1e3 * scale * st["sigmoid_schedule_s"] / st["sigmoid_blocks"]
                print(f"  {name}: {st.get('scatter_points')} scatter points, "
                      f"{st['sigmoid_blocks']} blocks, sigmoid schedule "
                      f"{_fmt(ms)} ms/block")
        (work / "trace.json").write_text(json.dumps({
            "spans": tracer.spans,
            "calls": {f"{k[0]}.{k[1]}": n for k, n in tracer.calls.items()},
            "inclusive_s": {f"{k[0]}.{k[1]}": t for k, t in tracer.incl.items()},
            "self_s": dict(tracer.self_time),
        }, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(map(len, codes)),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
