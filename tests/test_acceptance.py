"""Behavioural gates for the assembled pipeline.

Each test distills one promise the library makes, computes the
numbers that would prove it broken, and prints a single PASS/FAIL
audit line (visible with pytest -rA or -s) before asserting. The
random corpora are seeded, so every figure here is reproducible.
"""

import math
from dataclasses import dataclass

import numpy as np
import oracles
import pytest
from conftest import make_quarter_circle
from scipy.integrate import quad

from feedsched.baseline import SINE, sine_schedule
from feedsched.chordscan import FeedrateScatter, scan_curve
from feedsched.cli import PRESETS, main
from feedsched.curvegen import random_curve
from feedsched.geometry import arc_length
from feedsched.optimizer import (
    InfeasibleJunctionError,
    adjust_peak_junction,
    adjust_with_constant,
    schedule,
)
from feedsched.segmentation import build_blocks, find_breakpoints
from feedsched.simulator import interpolate
from feedsched.sprofile import sigmoid_family

CORPUS_SEEDS = tuple(range(25))
CHORD_HEADROOM = 1.05
PEAK_SLACK = 1e-9


def report(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label} | {detail}")


SIGMOID = sigmoid_family(3.3)


@dataclass(frozen=True)
class CorpusRun:
    preset: str
    seed: int
    worst_chord_ratio: float
    accel_util: float
    jerk_util: float
    total_time: float
    sine_time: float


@pytest.fixture(scope="module")
def corpus():
    """Full pipeline runs for 25 seeded curves under both presets.

    The jerk-strict preset also gets a sine schedule over the same
    segmentation, so the timing comparison shares every upstream
    decision with the shaped plan.
    """
    runs = []
    for seed in CORPUS_SEEDS:
        curve = random_curve(seed)
        for preset in ("standard", "high-accel"):
            limits = PRESETS[preset]
            scatter = scan_curve(curve, limits)
            bps = find_breakpoints(scatter, mu_s=limits.mu_s)
            blocks = build_blocks(curve, scatter, bps, limits)
            plan = schedule(curve, blocks, scatter, limits)
            samples = interpolate(curve, plan, limits)
            worst = max(s.chord_err for s in samples) / limits.delta_max
            pa = pj = 0.0
            for b in plan:
                A, J = SIGMOID.fit(b.v_s, b.v_e, b.L).peaks()
                pa, pj = max(pa, A), max(pj, J)
            sine_time = math.nan
            if preset == "high-accel":
                plan_sine = sine_schedule(curve, blocks, scatter, limits)
                sine_time = sum(b.T for b in plan_sine)
            runs.append(
                CorpusRun(
                    preset=preset,
                    seed=seed,
                    worst_chord_ratio=worst,
                    accel_util=pa / limits.a_max,
                    jerk_util=pj / limits.j_max,
                    total_time=sum(b.T for b in plan),
                    sine_time=sine_time,
                )
            )
    return runs


def test_chord_error_and_kinematic_peaks_stay_inside_limits(corpus):
    worst = max(corpus, key=lambda r: r.worst_chord_ratio)
    a_util = max(r.accel_util for r in corpus)
    j_util = max(r.jerk_util for r in corpus)
    ok = (
        worst.worst_chord_ratio <= CHORD_HEADROOM
        and a_util <= 1.0 + PEAK_SLACK
        and j_util <= 1.0 + PEAK_SLACK
    )
    report(
        ok,
        "replayed chord error and closed-form peaks stay inside limits",
        f"{len(corpus)} runs; worst chord {worst.worst_chord_ratio:.4f}x "
        f"tolerance ({worst.preset} seed {worst.seed}); "
        f"accel {a_util:.9f}x, jerk {j_util:.9f}x limit",
    )
    assert worst.worst_chord_ratio <= CHORD_HEADROOM
    assert a_util <= 1.0 + PEAK_SLACK
    assert j_util <= 1.0 + PEAK_SLACK


def test_shaped_profiles_beat_sine_baseline_on_shared_segmentation(corpus):
    gains = [
        1.0 - r.total_time / r.sine_time
        for r in corpus
        if r.preset == "high-accel"
    ]
    mean = sum(gains) / len(gains)
    ok = min(gains) >= 0.0 and 0.005 <= mean <= 0.05
    report(
        ok,
        "shaped schedules finish no later than sine on every curve",
        f"{len(gains)} curves; mean gain {100 * mean:.3f}% "
        f"(band 0.5..5%), min {100 * min(gains):.3f}%, "
        f"max {100 * max(gains):.3f}%",
    )
    assert min(gains) >= 0.0
    assert 0.005 <= mean <= 0.05


def test_junction_optimizers_match_brute_force_grids():
    mus = SIGMOID
    limits = PRESETS["standard"]
    rng = np.random.default_rng(424242)

    n_grid = 2001
    peak_pass = peak_total = 0
    for _ in range(200):
        v1 = float(rng.uniform(1.0, 80.0))
        v3 = float(rng.uniform(1.0, 80.0))
        v2_req = max(v1, v3) + float(rng.uniform(0.5, 60.0))
        L1 = float(rng.uniform(0.05, 8.0))
        L2 = float(rng.uniform(0.05, 8.0))
        lo = max(v1, v3)
        grid = np.linspace(lo, v2_req, n_grid)
        feasible = oracles.peaks_feasible(
            v1, grid, L1, 3.3, limits.a_max, limits.j_max
        ) & oracles.peaks_feasible(
            v3, grid, L2, 3.3, limits.a_max, limits.j_max
        )
        peak_total += 1
        step = grid[1] - grid[0]
        if not feasible[0]:
            try:
                adjust_peak_junction(v1, v2_req, v3, L1, L2, mus, limits)
            except InfeasibleJunctionError:
                peak_pass += 1
            continue
        v2_grid = float(grid[np.nonzero(feasible)[0][-1]])
        try:
            got = adjust_peak_junction(v1, v2_req, v3, L1, L2, mus, limits)
        except InfeasibleJunctionError:
            continue
        if abs(got - v2_grid) <= step + 1e-9:
            peak_pass += 1

    span_pass = span_total = 0
    for _ in range(200):
        v1 = float(rng.uniform(5.0, 60.0))
        v3 = float(rng.uniform(5.0, 60.0))
        ceiling = max(v1, v3) + float(rng.uniform(1.0, 40.0))
        L = float(rng.uniform(2.0, 60.0))
        ref = oracles.best_span_time(
            v1, v3, L, ceiling, 3.3, limits.a_max, limits.j_max
        )
        span_total += 1
        try:
            out = adjust_with_constant(v1, v3, L, ceiling, mus, limits)
        except InfeasibleJunctionError:
            if not math.isfinite(ref):
                span_pass += 1
            continue
        l1, l2, l3 = out.lengths
        v2 = out.v2_opt
        t = 2.0 * l1 / (v1 + v2) + 2.0 * l3 / (v3 + v2) + l2 / v2
        if math.isfinite(ref) and abs(t - ref) <= 1e-6 * ref:
            span_pass += 1

    ok = peak_pass >= 0.99 * peak_total and span_pass >= 0.99 * span_total
    report(
        ok,
        "junction feed optimizers agree with brute-force grid search",
        f"peak junctions {peak_pass}/{peak_total} within one grid step; "
        f"constant spans {span_pass}/{span_total} within 1e-6 rel time",
    )
    assert peak_pass >= 0.99 * peak_total
    assert span_pass >= 0.99 * span_total


def test_constraint_reduction_constants_take_closed_form_values():
    mu6, mu7 = SINE.mu_n, SINE.mu_m
    m = SIGMOID.mu_m
    ok = (
        abs(mu6 - math.pi / 4.0) <= 1e-9
        and abs(mu7 - math.pi * math.pi / 8.0) <= 1e-9
        and 1.10 <= m <= 1.14
        and m < mu7
    )
    report(
        ok,
        "constraint reduction constants take their closed-form values",
        f"sine pair ({mu6:.9f}, {mu7:.9f}); shaped jerk factor "
        f"{m:.4f} in [1.10, 1.14] and below {mu7:.4f}",
    )
    assert abs(mu6 - math.pi / 4.0) <= 1e-9
    assert abs(mu7 - math.pi * math.pi / 8.0) <= 1e-9
    assert 1.10 <= m <= 1.14
    assert m < mu7


def test_profile_seams_travel_and_peaks_validate_on_random_blocks():
    rng = np.random.default_rng(90210)
    n_blocks = 1000
    worst_seam = 0.0
    worst_travel = 0.0
    worst_gap = 0.0
    envelope_ok = True
    for i in range(n_blocks):
        v_a = float(rng.uniform(0.5, 150.0))
        v_b = v_a if i % 29 == 0 else float(rng.uniform(0.5, 150.0))
        L = float(rng.uniform(0.5, 50.0))
        p = SIGMOID.fit(v_a, v_b, L)
        worst_seam = max(worst_seam, max(oracles.junction_residuals(p)))
        travel, _ = quad(
            lambda t: p.kinematics(t)[0],
            0.0,
            p.T,
            points=[p.T / 3.0, 2.0 * p.T / 3.0],
            limit=200,
            epsabs=0.0,
            epsrel=1e-12,
        )
        worst_travel = max(worst_travel, abs(travel - L) / L)
        A, J = p.peaks()
        da, dj = oracles.dense_transition_peaks(v_a, v_b, L, 3.3)
        for closed, dense in ((A, da), (J, dj)):
            if dense == 0.0:
                envelope_ok &= closed == 0.0
                continue
            envelope_ok &= closed >= dense * (1.0 - 1e-9)
            worst_gap = max(worst_gap, abs(closed - dense) / dense)
    ok = (
        worst_seam < 1e-9
        and worst_travel <= 1e-9
        and envelope_ok
        and worst_gap <= 1e-6
    )
    report(
        ok,
        "profile seams, travel, and closed-form peaks validate",
        f"{n_blocks} blocks; worst seam residual {worst_seam:.2e}, "
        f"travel off by {worst_travel:.2e} rel, closed-vs-dense peak "
        f"gap {worst_gap:.2e} rel",
    )
    assert worst_seam < 1e-9
    assert worst_travel <= 1e-9
    assert envelope_ok
    assert worst_gap <= 1e-6


def test_breakpoints_keep_spikes_drop_noise_and_blocks_tile_the_arc():
    curve = make_quarter_circle(50.0)
    limits = PRESETS["standard"]

    spike_v = np.concatenate(
        [np.linspace(10.0, 60.0, 6), np.linspace(60.0, 5.0, 6)[1:]]
    )
    spike = FeedrateScatter(np.linspace(0.0, 1.0, 11), spike_v)
    spike_bps = find_breakpoints(spike, mu_s=1e-9)
    spike_ok = spike_bps == [0, 5, 10]

    noisy = FeedrateScatter(
        np.linspace(0.0, 1.0, 6),
        [1.0, 10.0, 19.0, 20.0, 21.0, 22.0],
    )
    noise_bps = find_breakpoints(noisy, mu_s=1e-9)
    noise_ok = noise_bps == [0, 5]

    blocks = build_blocks(curve, spike, spike_bps, limits)
    tiled = (
        blocks[0].u_s == 0.0
        and blocks[-1].u_e == 1.0
        and all(a.u_e == b.u_s for a, b in zip(blocks[:-1], blocks[1:]))
    )
    total_arc = arc_length(curve, 0.0, 1.0)
    cover = sum(b.L for b in blocks)
    cover_ok = abs(cover - total_arc) <= 1e-9 * total_arc

    ok = spike_ok and noise_ok and tiled and cover_ok
    report(
        ok,
        "breakpoints keep spikes, drop same-trend noise, blocks tile",
        f"spike at {spike_bps}, noisy run at {noise_bps}; "
        f"{len(blocks)} blocks cover {cover:.9f} of {total_arc:.9f} mm",
    )
    assert spike_ok
    assert noise_ok
    assert tiled
    assert cover_ok


def test_sine_closed_forms_match_dense_sampling_and_keep_boundary_jerk():
    rng = np.random.default_rng(31337)
    worst = 0.0
    jerk_ok = True
    for _ in range(50):
        v_a = float(rng.uniform(0.0, 120.0))
        v_b = float(rng.uniform(0.0, 120.0))
        if abs(v_a - v_b) < 1e-6:
            v_b = v_a + 15.0
        L = float(rng.uniform(0.5, 40.0))
        p = SINE.fit(v_a, v_b, L)
        A_closed, J_closed = p.peaks()
        dense = max(
            abs(p.kinematics(t)[1])
            for t in np.linspace(0.0, p.T, 1001)
        )
        worst = max(worst, abs(A_closed - dense) / A_closed)
        j0 = p.kinematics(0.0)[2]
        jerk_ok &= j0 != 0.0 and abs(abs(j0) - J_closed) <= 1e-9 * J_closed
    ok = worst <= 1e-9 and jerk_ok
    report(
        ok,
        "sine closed forms match dense sampling; boundary jerk jumps",
        f"50 profiles; worst accel gap {worst:.2e} rel; start jerk "
        f"equals the closed-form peak and never vanishes",
    )
    assert worst <= 1e-9
    assert jerk_ok


def test_pipeline_output_is_byte_for_byte_deterministic(tmp_path):
    curve_path = tmp_path / "curve.json"
    assert main(["gen-curve", "--seed", "7", "--out", str(curve_path)]) == 0
    outs = []
    for name in ("one", "two"):
        out_dir = tmp_path / name
        code = main(
            [
                "run",
                "--curve", str(curve_path),
                "--config", "standard",
                "--method", "both",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        outs.append(out_dir)
    names = sorted(p.name for p in outs[0].iterdir())
    names_ok = names == sorted(p.name for p in outs[1].iterdir())
    same = names_ok and all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
        for n in names
    )
    report(
        same,
        "two identical pipeline invocations emit identical bytes",
        f"{len(names)} files compared: {', '.join(names)}",
    )
    assert names_ok
    assert same
