"""Breakpoint feed optimization across blocks.

Transition blocks must be long enough for their feed change to respect
the acceleration and jerk ceilings. A profile family's reduction
constants collapse each block's peak acceleration to mu_n*(v2^2-v1^2)/L
and its peak jerk to mu_m*(v2-v1)*(v2+v1)^2/L^2, turning feasibility into
closed-form length/feed bounds. The scheduler sweeps the block list,
growing transitions into neighboring constant blocks, lowering peak
feeds that cannot be reached, and repeating until no feed moves.

Feeds only ever decrease during scheduling, so the chord-error ceiling
recorded by the scan stays satisfied at every breakpoint; transition
lengths never shrink below their scan-time spans, so junctions never
drift into regions whose ceiling is below the block's top feed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chordscan import FeedrateScatter, Limits
from .geometry import ParametricCurve, param_at_length
from .segmentation import Block, BlockKind, classify_kind
from .sprofile import ProfileFamily, block_duration, sigmoid_family

__all__ = [
    "OptimizerError",
    "InfeasibleJunctionError",
    "SweepConvergenceError",
    "ScheduleConsistencyError",
    "AdjustmentOutcome",
    "solve_real_roots",
    "transition_min_length",
    "transition_max_feed",
    "adjust_peak_junction",
    "extend_into_constant",
    "adjust_with_constant",
    "schedule",
]

_FEED_TOL = 1e-9
_LEN_TOL = 1e-9
_MAX_SWEEPS = 1000


class OptimizerError(ValueError):
    """Base class for scheduling failures."""


class InfeasibleJunctionError(OptimizerError):
    """No feed at or above the junction floor satisfies the constraints."""

    def __init__(self, msg, caps=None):
        super().__init__(msg)
        self.caps = caps


class SweepConvergenceError(OptimizerError):
    """The adjustment sweep did not reach a fixpoint."""


class ScheduleConsistencyError(OptimizerError):
    """A finished schedule failed its own feasibility validation."""


@dataclass(frozen=True)
class AdjustmentOutcome:
    """Result of optimizing one transition-constant-transition span.

    lengths partitions the span into rise, steady, and fall pieces.
    """

    v2_opt: float
    lengths: tuple[float, float, float]


def solve_real_roots(
    coeffs, interval: tuple[float, float], tol: float = 1e-9
) -> list[float]:
    """Real roots of a polynomial inside [lo, hi], highest degree first.

    Roots are Newton-polished, verified against a residual bound, and
    deduplicated within 1e-7. Near-zero leading coefficients are trimmed
    before solving.
    """
    lo, hi = interval
    c = np.asarray(coeffs, dtype=float)
    if c.size == 0:
        return []
    scale = float(np.abs(c).max())
    if scale == 0.0:
        return []
    keep = np.abs(c) > 1e-14 * scale
    first = int(np.argmax(keep))
    c = c[first:]
    if c.size <= 1:
        return []
    poly = np.polynomial.Polynomial(c[::-1])
    dpoly = poly.deriv()
    found = []
    width = max(hi - lo, 1.0)
    for r in np.roots(c):
        if abs(r.imag) > 1e-7 * (1.0 + abs(r.real)):
            continue
        x = float(r.real)
        if x < lo - 1e-6 * width or x > hi + 1e-6 * width:
            continue
        for _ in range(50):
            fx = poly(x)
            dx = dpoly(x)
            if dx == 0.0:
                break
            step = fx / dx
            x -= step
            if abs(step) < tol * 1e-3:
                break
        x = min(max(x, lo), hi)
        bound = scale * max(1.0, abs(x)) ** (c.size - 1)
        if abs(poly(x)) > 1e-6 * bound:
            continue
        if all(abs(x - y) > 1e-7 for y in found):
            found.append(x)
    return sorted(found)


def transition_min_length(
    v_lo: float, v_hi: float, family: ProfileFamily, limits: Limits
) -> float:
    """Shortest displacement over which v_lo can reach v_hi."""
    if v_hi < v_lo:
        raise OptimizerError("transition feeds must be ordered v_lo <= v_hi")
    if v_hi == v_lo:
        return 0.0
    acc = family.mu_n * (v_hi * v_hi - v_lo * v_lo) / limits.a_max
    jrk = math.sqrt(family.mu_m * (v_hi - v_lo) / limits.j_max) * (v_hi + v_lo)
    return max(acc, jrk)


def transition_max_feed(
    v_lo: float, L: float, family: ProfileFamily, limits: Limits
) -> float:
    """Highest feed reachable from v_lo within displacement L."""
    if L <= 0.0:
        return v_lo
    if math.isinf(limits.a_max):
        acc = math.inf
    else:
        acc = math.sqrt(v_lo * v_lo + limits.a_max * L / family.mu_n)
    if math.isinf(limits.j_max):
        jrk = math.inf
    else:
        rhs = L * L * limits.j_max / family.mu_m
        # (v - v_lo)(v + v_lo)^2 == rhs has one root above v_lo, and
        # (v - v_lo)^3 <= rhs bounds it from above
        hi = v_lo + rhs ** (1.0 / 3.0) + 1.0
        roots = solve_real_roots(
            [1.0, v_lo, -v_lo * v_lo, -(v_lo**3 + rhs)], (v_lo, hi)
        )
        jrk = roots[-1] if roots else v_lo
    return min(acc, jrk)


def adjust_peak_junction(
    v1: float, v2: float, v3: float, L1: float, L2: float,
    family: ProfileFamily, limits: Limits,
) -> float:
    """Largest feasible feed for a peak junction, at most the current v2."""
    floor = max(v1, v3)
    if v2 < floor:
        raise OptimizerError("junction feed below its endpoints is no peak")
    cap1 = transition_max_feed(v1, L1, family, limits)
    cap2 = transition_max_feed(v3, L2, family, limits)
    cap = min(cap1, cap2)
    if cap < floor * (1.0 - 1e-12) - 1e-12:
        raise InfeasibleJunctionError(
            f"no feasible peak feed above {floor:.6f}", caps=(cap1, cap2)
        )
    return min(v2, cap)


def extend_into_constant(
    trans: Block, const_block: Block, family: ProfileFamily, limits: Limits
) -> tuple[Block, Block, float]:
    """Grow a transition into its neighboring constant block.

    Arc length moves from the constant block into the transition until
    the feed change fits; if the whole constant block is not enough,
    the constant feed itself is lowered to the highest reachable value
    and the transition absorbs the full span. Total displacement is
    conserved. Parameter anchors are left to the caller.
    """
    t_kind = classify_kind(trans.v_s, trans.v_e, 1e-9 * limits.v_max)
    if t_kind is BlockKind.ACCEL:
        lo, hi = trans.v_s, trans.v_e
    elif t_kind is BlockKind.DECEL:
        lo, hi = trans.v_e, trans.v_s
    else:
        raise OptimizerError("extension needs an accelerating or braking block")
    need = transition_min_length(lo, hi, family, limits)
    if need <= trans.L:
        return trans, const_block, const_block.v_s
    transfer = need - trans.L
    if transfer <= const_block.L:
        trans.L = need
        const_block.L -= transfer
        return trans, const_block, const_block.v_s
    total = trans.L + const_block.L
    new_hi = transition_max_feed(lo, total, family, limits)
    trans.L = total
    const_block.L = 0.0
    if t_kind is BlockKind.ACCEL:
        trans.v_e = new_hi
    else:
        trans.v_s = new_hi
    const_block.v_s = new_hi
    const_block.v_e = new_hi
    return trans, const_block, new_hi


def _crossover_delta(family: ProfileFamily, limits: Limits) -> float:
    """Feed rise above which acceleration, not jerk, sets the min length."""
    if math.isinf(limits.j_max) or math.isinf(limits.a_max):
        return math.inf if math.isinf(limits.a_max) else 0.0
    return family.mu_m * limits.a_max * limits.a_max / (
        limits.j_max * family.mu_n * family.mu_n
    )


def _poly_mul(a, b):
    return list(np.polymul(a, b))


def _poly_sub(a, b):
    return list(np.polysub(a, b))


def _boundary_candidates(v1, v3, L, lo, hi, family, limits):
    """Feeds where the steady phase vanishes, per binding-form section.

    With both sides acceleration-bound the condition is quadratic; one
    jerk-bound side makes it quartic; two make it sextic. Roots are
    candidates only — each is re-checked through the exact objective.
    """
    delta = _crossover_delta(family, limits)
    alpha = family.mu_n / limits.a_max
    gamma = math.sqrt(family.mu_m / limits.j_max)
    cuts = sorted({lo, hi} | {
        v + delta for v in (v1, v3) if lo < v + delta < hi
    })
    out = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (a + b)
        acc1 = mid - v1 >= delta
        acc3 = mid - v3 >= delta
        # polynomial pieces in v2, numpy coefficient order (high first)
        if acc1 and acc3:
            poly = [2.0 * alpha, 0.0, -(L + alpha * (v1 * v1 + v3 * v3))]
        elif acc1 != acc3:
            va, vj = (v1, v3) if acc1 else (v3, v1)
            w = [-alpha, 0.0, L + alpha * va * va]
            lhs = _poly_mul(
                [gamma * gamma], _poly_mul([1.0, -vj], _poly_mul([1.0, vj], [1.0, vj]))
            )
            poly = _poly_sub(lhs, _poly_mul(w, w))
        else:
            g2 = gamma * gamma
            t1 = _poly_mul([g2], _poly_mul([1.0, -v1], _poly_mul([1.0, v1], [1.0, v1])))
            t3 = _poly_mul([g2], _poly_mul([1.0, -v3], _poly_mul([1.0, v3], [1.0, v3])))
            z = _poly_sub([L * L], np.polyadd(t1, t3))
            cross = _poly_mul([4.0], _poly_mul(t1, t3))
            poly = _poly_sub(cross, _poly_mul(z, z))
        for r in solve_real_roots(poly, (a, b)):
            out.append(r)
    return out


def adjust_with_constant(
    v1: float,
    v3: float,
    L_total: float,
    v_ceiling: float,
    family: ProfileFamily,
    limits: Limits,
    floors: tuple[float, float] = (0.0, 0.0),
) -> AdjustmentOutcome:
    """Optimal top feed and length split for a rise-steady-fall span.

    Minimizes traversal time over the top feed v2, with each side's
    length at the larger of its feasibility minimum and its floor. The
    candidate set holds the feasibility boundary, section edges where
    the binding constraint switches form, and the steady-phase-vanishing
    roots; the exact objective picks the winner (larger v2 on ties).
    """
    if L_total <= 0.0:
        raise OptimizerError("span length must be positive")
    lo = max(v1, v3)
    if v_ceiling < lo:
        raise OptimizerError("feed ceiling below the junction endpoints")
    slack = 1e-12 * max(1.0, L_total)

    def side_lengths(v2):
        l1 = max(transition_min_length(v1, v2, family, limits), floors[0])
        l3 = max(transition_min_length(v3, v2, family, limits), floors[1])
        return l1, l3

    def feasible(v2):
        l1, l3 = side_lengths(v2)
        return l1 + l3 <= L_total + slack

    if not feasible(lo):
        raise InfeasibleJunctionError(
            f"span of {L_total:.6f} mm cannot host feeds {v1:.3f}/{v3:.3f}"
        )
    if feasible(v_ceiling):
        v_h = v_ceiling
    else:
        f_lo, f_hi = lo, v_ceiling
        for _ in range(200):
            mid = 0.5 * (f_lo + f_hi)
            if feasible(mid):
                f_lo = mid
            else:
                f_hi = mid
        v_h = f_lo

    def objective(v2):
        l1, l3 = side_lengths(v2)
        l2 = L_total - l1 - l3
        if l2 < -slack:
            return math.inf
        l2 = max(l2, 0.0)
        t = l2 / v2 if v2 > 0.0 else (math.inf if l2 > 0.0 else 0.0)
        if l1 > 0.0:
            t += 2.0 * l1 / (v1 + v2)
        if l3 > 0.0:
            t += 2.0 * l3 / (v3 + v2)
        return t

    candidates = {lo, v_h}
    delta = _crossover_delta(family, limits)
    for v in (v1 + delta, v3 + delta):
        if lo < v < v_h:
            candidates.add(v)
    for r in _boundary_candidates(v1, v3, L_total, lo, v_h, family, limits):
        candidates.add(min(max(r, lo), v_h))
    best_v, best_t = None, math.inf
    for v2 in sorted(candidates):
        t = objective(v2)
        if t < best_t * (1.0 - 1e-12) or (
            best_v is not None
            and abs(t - best_t) <= 1e-12 * max(best_t, 1.0)
            and v2 > best_v
        ):
            best_v, best_t = v2, t
    if best_v is None or not math.isfinite(best_t):
        raise InfeasibleJunctionError("no feasible top feed in range")
    l1, l3 = side_lengths(best_v)
    l2 = L_total - l1 - l3
    if l2 < 0.0:
        l1 += l2  # absorb the sub-tolerance deficit
        l2 = 0.0
    return AdjustmentOutcome(
        v2_opt=best_v,
        lengths=(l1, l2, l3),
    )


def _peak_capacity(v1, v3, v2_cap, total, family, limits):
    """Largest junction feed a two-sided rise/fall span can host.

    Both transition lengths may trade length freely inside the span.
    Returns None when even a flat junction at max(v1, v3) does not fit.
    """
    floor = max(v1, v3)
    if v2_cap < floor:
        return None
    base = transition_min_length(min(v1, v3), floor, family, limits)
    if base > total * (1.0 + 1e-12):
        return None

    def excess(v2):
        return (
            transition_min_length(v1, v2, family, limits)
            + transition_min_length(v3, v2, family, limits)
            - total
        )

    if excess(v2_cap) <= 0.0:
        return v2_cap
    lo, hi = floor, v2_cap
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def _peak_split(v1, v3, v2, total, family, limits):
    """Tight lengths for both sides, slack parked on the faster side."""
    t1 = transition_min_length(v1, v2, family, limits)
    t3 = transition_min_length(v3, v2, family, limits)
    slack = max(0.0, total - t1 - t3)
    if v1 >= v3:
        return t1 + slack, t3
    return t1, t3 + slack


def _set_junction_feed(blocks, j, v):
    """Set the feed at junction j (before block j), syncing both sides."""
    if j > 0:
        blocks[j - 1].v_e = v
    if j < len(blocks):
        blocks[j].v_s = v


def _reanchor(curve, blocks, i, j):
    """Recompute interior junction parameters of blocks[i..j] from lengths."""
    u = blocks[i].u_s
    for k in range(i, j):
        if blocks[k].L > 0.0:
            u = param_at_length(curve, u, blocks[k].L)
        blocks[k].u_e = u
        blocks[k + 1].u_s = u


class _Sweeper:
    """One scheduling pass; holds shared state for the junction handlers."""

    def __init__(self, curve, blocks, scatter, limits, family):
        self.curve = curve
        self.blocks = blocks
        self.scatter = scatter
        self.limits = limits
        self.family = family
        self.kind_tol = 1e-9 * limits.v_max
        self.floors = [b.L for b in blocks]
        self.change = 0.0

    def kind(self, b: Block) -> BlockKind:
        return classify_kind(b.v_s, b.v_e, self.kind_tol)

    def set_feed(self, j, v):
        old = self.blocks[j].v_s if j < len(self.blocks) else self.blocks[-1].v_e
        if v > old + 1e-9:
            raise ScheduleConsistencyError(
                f"junction {j} feed would rise from {old} to {v}"
            )
        if abs(v - old) <= _FEED_TOL:
            return
        self.change = max(self.change, abs(v - old))
        _set_junction_feed(self.blocks, j, v)

    def run(self):
        self.change = 0.0
        blocks = self.blocks
        i = 0
        while i < len(blocks):
            k = self.kind(blocks[i])
            nk = self.kind(blocks[i + 1]) if i + 1 < len(blocks) else None
            nnk = self.kind(blocks[i + 2]) if i + 2 < len(blocks) else None
            if k is BlockKind.ACCEL and nk is BlockKind.CONSTANT \
                    and nnk is BlockKind.DECEL:
                self._handle_acd(i)
            elif k is BlockKind.ACCEL and nk is BlockKind.DECEL:
                self._handle_peak(i)
            elif k is BlockKind.ACCEL and nk is BlockKind.CONSTANT:
                self._handle_extend(i, i + 1)
            elif k is BlockKind.CONSTANT and nk is BlockKind.DECEL:
                prev = self.kind(blocks[i - 1]) if i > 0 else None
                if prev is not BlockKind.ACCEL:
                    self._handle_extend(i + 1, i)
            i += 1
        for i in range(len(blocks)):
            self._handle_leftover(i)
        return self.change

    def _apply_lengths(self, i, j, lengths):
        moved = 0.0
        for k, L in zip(range(i, j + 1), lengths):
            moved = max(moved, abs(self.blocks[k].L - L))
            self.blocks[k].L = L
        if moved > _LEN_TOL:
            self.change = max(self.change, moved)
            _reanchor(self.curve, self.blocks, i, j)

    def _handle_acd(self, i):
        a, c, d = self.blocks[i], self.blocks[i + 1], self.blocks[i + 2]
        v1, v3 = a.v_s, d.v_e
        total = a.L + c.L + d.L
        ceiling = min(
            self.limits.v_max,
            c.v_s,
            self.scatter.min_between(c.u_s, c.u_e),
        )
        lo = max(v1, v3)
        if ceiling < lo:
            self.set_feed(i + 1, ceiling)
            self.set_feed(i + 2, ceiling)
            return
        floors = (self.floors[i], self.floors[i + 2])
        try:
            out = adjust_with_constant(
                v1, v3, total, ceiling, self.family, self.limits, floors=floors
            )
        except InfeasibleJunctionError:
            self._repair_span(i, v1, v3, total, floors)
            return
        self.set_feed(i + 1, out.v2_opt)
        self.set_feed(i + 2, out.v2_opt)
        self._apply_lengths(i, i + 2, out.lengths)

    def _repair_span(self, i, v1, v3, total, floors):
        # lower the taller boundary until the span can host both climbs
        room = max(0.0, total - floors[0] - floors[1])
        if v1 >= v3:
            target = transition_max_feed(v3, room, self.family, self.limits)
            self.set_feed(i, min(v1, target))
        else:
            target = transition_max_feed(v1, room, self.family, self.limits)
            self.set_feed(i + 3, min(v3, target))

    def _handle_peak(self, i):
        a, d = self.blocks[i], self.blocks[i + 1]
        v1, v3 = a.v_s, d.v_e
        v2 = max(a.v_e, v1, v3)
        try:
            tuned = adjust_peak_junction(
                v1, v2, v3, a.L, d.L, self.family, self.limits
            )
        except InfeasibleJunctionError as err:
            if self._repair_peak(i, v1, v3, v2):
                return
            # the span cannot connect the boundary feeds at all: flatten
            # the taller side's block at the best reachable feed
            cap1, cap2 = err.caps
            if v3 > v1:
                self.set_feed(i + 1, cap1)
                self.set_feed(i + 2, cap1)
            else:
                self.set_feed(i, cap2)
                self.set_feed(i + 1, cap2)
            return
        self.set_feed(i + 1, tuned)

    def _repair_peak(self, i, v1, v3, v2_cap):
        """Trade length between the two sides to keep the junction high.

        Candidates are the tallest feasible peak and a flat junction at
        max(v1, v3); each gets clamped by the scan ceiling over whatever
        stretch changes hands, so feeds stay below vetted territory.
        """
        a, d = self.blocks[i], self.blocks[i + 1]
        total = a.L + d.L
        v_star = _peak_capacity(v1, v3, v2_cap, total, self.family, self.limits)
        if v_star is None:
            return False
        floor = max(v1, v3)
        best = None
        for cand in dict.fromkeys((v_star, floor)):
            v2 = cand
            dead = False
            for _ in range(4):
                l1, l2 = _peak_split(v1, v3, v2, total, self.family, self.limits)
                ceil_donated = self._donated_ceiling(i, l1, l2)
                if ceil_donated >= v2 - 1e-9:
                    break
                if ceil_donated < floor - 1e-12:
                    # donated stretch cannot even hold the boundary feeds
                    dead = True
                    break
                v2 = max(ceil_donated, floor)
            else:
                dead = True
            if dead:
                continue
            l1, l2 = _peak_split(v1, v3, v2, total, self.family, self.limits)
            t = 2.0 * l1 / (v1 + v2) + 2.0 * l2 / (v3 + v2)
            if best is None or t < best[0] - 1e-15 or (
                abs(t - best[0]) <= 1e-15 and v2 > best[1]
            ):
                best = (t, v2, l1, l2)
        if best is None:
            return False
        _, v2, l1, l2 = best
        self.set_feed(i + 1, v2)
        self._apply_lengths(i, i + 1, (l1, l2))
        return True

    def _donated_ceiling(self, i, l1, l2):
        """Scan ceiling over whichever stretch would change ownership."""
        a, d = self.blocks[i], self.blocks[i + 1]
        if l1 < a.L - _LEN_TOL:
            u_new = a.u_s if l1 <= 0.0 else param_at_length(
                self.curve, a.u_s, l1
            )
            return self.scatter.min_between(u_new, a.u_e)
        if l2 < d.L - _LEN_TOL:
            u_new = param_at_length(self.curve, d.u_s, d.L - l2)
            return self.scatter.min_between(d.u_s, u_new)
        return math.inf

    def _handle_extend(self, trans_idx, const_idx):
        trans = self.blocks[trans_idx]
        const = self.blocks[const_idx]
        if self.kind(trans) is BlockKind.CONSTANT:
            return
        lo_idx = min(trans_idx, const_idx)
        before_L = (trans.L, const.L)
        before_feed = const.v_s
        _, _, new_feed = extend_into_constant(
            trans, const, self.family, self.limits
        )
        if new_feed != before_feed:
            # constant block consumed; extend already rewrote its feeds, so
            # sync both junctions unconditionally to reach the neighbors
            self.change = max(self.change, abs(before_feed - new_feed))
            _set_junction_feed(self.blocks, const_idx, new_feed)
            _set_junction_feed(self.blocks, const_idx + 1, new_feed)
        moved = max(
            abs(trans.L - before_L[0]), abs(const.L - before_L[1])
        )
        if moved > _LEN_TOL:
            self.change = max(self.change, moved)
            _reanchor(self.curve, self.blocks, lo_idx, lo_idx + 1)

    def _handle_leftover(self, i):
        b = self.blocks[i]
        k = self.kind(b)
        if k is BlockKind.CONSTANT:
            return
        nxt = self.kind(self.blocks[i + 1]) if i + 1 < len(self.blocks) else None
        prev = self.kind(self.blocks[i - 1]) if i > 0 else None
        if k is BlockKind.ACCEL and nxt is BlockKind.CONSTANT:
            return
        if k is BlockKind.DECEL and prev is BlockKind.CONSTANT:
            return
        lo, hi = min(b.v_s, b.v_e), max(b.v_s, b.v_e)
        need = transition_min_length(lo, hi, self.family, self.limits)
        if need <= b.L * (1.0 + 1e-9) + 1e-12:
            return
        cap = transition_max_feed(lo, b.L, self.family, self.limits)
        j = i if b.v_s > b.v_e else i + 1
        self.set_feed(j, cap)

    def validate(self):
        """Post-pass net: tighten any block whose true peaks overflow."""
        fixed = False
        for i, b in enumerate(self.blocks):
            if b.L <= 0.0 or self.kind(b) is BlockKind.CONSTANT:
                continue
            if self._peaks_ok(b.v_s, b.v_e, b.L):
                continue
            lo, hi = min(b.v_s, b.v_e), max(b.v_s, b.v_e)
            f_lo, f_hi = lo, hi
            for _ in range(100):
                mid = 0.5 * (f_lo + f_hi)
                if self._peaks_ok(
                    mid if b.v_s > b.v_e else lo,
                    lo if b.v_s > b.v_e else mid,
                    b.L,
                ):
                    f_lo = mid
                else:
                    f_hi = mid
            j = i if b.v_s > b.v_e else i + 1
            self.set_feed(j, f_lo)
            fixed = True
        return fixed

    def _peaks_ok(self, v_s, v_e, L):
        a_pk, j_pk = self.family.fit(v_s, v_e, L).peaks()
        return (
            a_pk <= self.limits.a_max * (1.0 + 1e-9)
            and j_pk <= self.limits.j_max * (1.0 + 1e-9)
        )


def schedule(
    curve: ParametricCurve,
    blocks: list[Block],
    scatter: FeedrateScatter,
    limits: Limits,
    family: ProfileFamily | None = None,
    max_sweeps: int = _MAX_SWEEPS,
) -> list[Block]:
    """Sweep all junctions until no feed changes, then fill durations.

    The input list is not modified. Breakpoint feeds only decrease, so
    the result stays below the chord-error ceiling everywhere the scan
    sampled. A final validation pass re-checks every block's true peaks,
    as the family's fitted profiles report them, against the limits and
    tightens by bisection if needed. The family defaults to the shaped
    law at limits.shape_s.
    """
    if family is None:
        family = sigmoid_family(limits.shape_s)
    work = [replace(b) for b in blocks]
    sweeper = _Sweeper(curve, work, scatter, limits, family)
    for _ in range(max_sweeps):
        change = sweeper.run()
        if change <= max(_FEED_TOL, _LEN_TOL):
            if not sweeper.validate():
                break
    else:
        raise SweepConvergenceError(
            "no fixpoint after "
            f"{max_sweeps} sweeps; last change {sweeper.change:.3e}"
        )
    for b in work:
        b.T = block_duration(b.L, b.v_s, b.v_e)
        if b.L > 0.0 and not sweeper._peaks_ok(b.v_s, b.v_e, b.L):
            raise ScheduleConsistencyError(
                f"block at u=[{b.u_s:.6f},{b.u_e:.6f}] violates limits"
            )
    for a, b in zip(work[:-1], work[1:]):
        if a.v_e != b.v_s:
            raise ScheduleConsistencyError("junction feeds desynchronized")
    return work
