"""Call tracing of the feedsched layers from outside the library.

``Tracer.install`` replaces every public function of each layer module
(the names in its ``__all__``) with a timing wrapper, in every feedsched
module namespace that binds it. Calls the library makes through those
names, including a module's calls to its own public functions, then pass
through the wrapper. Each wrapper keeps call counts, inclusive time and
self time (inclusive time minus that of traced callees) on an in-memory
call stack, and records one span per stage call made directly by
``cli.run``. Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "geometry", "chordscan", "segmentation", "optimizer",
    "sprofile", "baseline", "simulator", "cli",
)
GEOMETRY_TIMED = ("evaluate", "derivatives", "arc_length", "param_at_length")
HANDLERS = ("adjust_with_constant", "adjust_peak_junction", "extend_into_constant")
_RUN = ("cli", "run")
_SCHEDULE = ("optimizer", "schedule")
_SCAN = ("chordscan", "scan_curve")
_REPLAY = ("simulator", "interpolate")
_SINE = ("baseline", "sine_schedule")
_BUILD = ("segmentation", "build_blocks")
_CONTEXTS = (_SCHEDULE, _SCAN, _REPLAY, _SINE, _BUILD)
# Layers that run one pipeline stage when cli.run calls into them; their
# share is the time of those stage calls. geometry and sprofile serve the
# stages, so their share is their own self time, which the stage shares
# also contain.
STAGES = ("chordscan", "segmentation", "optimizer", "baseline", "simulator")


class Tracer:
    """Per-layer call counts, times and stage spans of one traced run."""

    def __init__(self):
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.stage_time = defaultdict(float)
        self.active = Counter()
        self.stack: list[list] = []
        self.counts = Counter()
        self.spans: list[tuple[str, str, float, float]] = []
        self.path = ""
        self.path_stages: dict[str, dict[str, float]] = defaultdict(dict)

    def install(self) -> None:
        modules = [importlib.import_module(f"feedsched.{m}") for m in LAYERS]
        for layer, mod in zip(LAYERS, modules):
            for name in mod.__all__:
                fn = getattr(mod, name)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(fn, (layer, name))
                for other in modules:
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, attr, wrapped)

    def _wrap(self, fn, key):
        layer = key[0]
        stack, calls, incl, self_time = self.stack, self.calls, self.incl, self.self_time
        watched = layer == "geometry" or key[1] in ("taylor_step",) + HANDLERS
        context = key in _CONTEXTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if watched:
                self._count_context(key, layer)
            if context:
                self.active[key] += 1
            parent = stack[-1] if stack else None
            frame = [0.0, key]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                calls[key] += 1
                incl[key] += dt
                self_time[layer] += dt - frame[0]
                if parent is not None:
                    parent[0] += dt
                    if parent[1] == _RUN:
                        self.stage_time[layer] += dt
                        self.spans.append((self.path, key[1], t0, t0 + dt))
                if context:
                    self.active[key] -= 1
            if context:
                self._count_result(key, args, out, dt)
            return out

        return traced

    def _count_context(self, key, layer):
        active = self.active
        if layer == "geometry":
            if active[_REPLAY]:
                self.counts["replay_geometry_calls"] += 1
            if key[1] == "param_at_length" and active[_SCHEDULE]:
                self.counts["reanchor_calls"] += 1
        elif key[1] == "taylor_step":
            if active[_SCAN]:
                self.counts["scan_probes"] += 1
        else:
            self.counts["handler_calls"] += 1

    def _count_result(self, key, args, out, dt):
        stages = self.path_stages[self.path]
        if key == _SCAN:
            self.counts["scan_points"] += len(out)
            stages["scatter_points"] = len(out)
        elif key == _BUILD:
            self.counts["built_blocks"] += len(out)
        elif key == _SCHEDULE:
            self.counts["scheduled_blocks"] += len(args[1])
            if not self.active[_SINE]:
                stages["sigmoid_blocks"] = len(args[1])
                stages["sigmoid_schedule_s"] = dt
        elif key == _SINE:
            self.counts["sine_blocks"] += len(args[1])
        elif key == _REPLAY:
            self.counts["ticks"] += len(out) - 1

    def layer_metrics(self, path_seconds: float, path_runs: int, scale: float) -> dict:
        """Per-layer figures over every traced path of the run.

        Times are multiplied by ``scale``, the run's ratio of reference-speed
        to wall time; shares are ratios of wall times.
        """
        c = self.counts
        t = defaultdict(float, {k: v * scale for k, v in self.incl.items()})
        own = defaultdict(float, {k: v * scale for k, v in self.self_time.items()})

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        m = {}
        for name in GEOMETRY_TIMED:
            key = ("geometry", name)
            m[f"geometry.{name}.calls"] = (per(self.calls[key], path_runs), "count/path")
            m[f"geometry.{name}.us_per_call"] = (per(t[key], self.calls[key], 1e6), "us")
        m["chordscan.ms_per_point"] = (per(t[_SCAN], c["scan_points"], 1e3), "ms")
        m["chordscan.probes_per_point"] = (per(c["scan_probes"], c["scan_points"]), "count")
        seg = t[("segmentation", "find_breakpoints")] + t[("segmentation", "build_blocks")]
        m["segmentation.ms_per_block"] = (per(seg, c["built_blocks"], 1e3), "ms")
        sched = c["scheduled_blocks"]
        m["optimizer.ms_per_block"] = (per(t[_SCHEDULE], sched, 1e3), "ms")
        m["optimizer.handler_calls_per_block"] = (per(c["handler_calls"], sched), "count")
        m["optimizer.reanchor_calls_per_block"] = (per(c["reanchor_calls"], sched), "count")
        sine = t[_SINE]
        m["baseline.ms_per_block"] = (per(sine, c["sine_blocks"], 1e3), "ms")
        sp_calls = sum(n for (layer, _), n in self.calls.items() if layer == "sprofile")
        m["sprofile.calls"] = (per(sp_calls, path_runs), "count/path")
        m["sprofile.us_per_call"] = (per(own["sprofile"], sp_calls, 1e6), "us")
        m["simulator.us_per_tick"] = (per(t[_REPLAY], c["ticks"], 1e6), "us")
        m["simulator.geometry_calls_per_tick"] = (
            per(c["replay_geometry_calls"], c["ticks"]), "count"
        )
        m["cli.self_ms_per_path"] = (per(own["cli"], path_runs, 1e3), "ms")
        for layer in LAYERS:
            busy = self.stage_time[layer] if layer in STAGES else self.self_time[layer]
            m[f"{layer}.share"] = (per(busy, path_seconds), "1")
        return m
