"""Benchmark workloads: seeded inputs, operations and output checks.

Each workload is a list of cycles.  A cycle is a fixed mix of operation
kinds whose inputs come from randomized low-discrepancy (Kronecker)
sequences: the seed picks the random shift, and every prefix of the
stream covers the input ranges evenly.  Runs stop only at cycle ends,
so the operation mix of a run is exact and its figures depend little
on where the clock ran out.

An operation calls the library through a tracer.  With the null tracer
(untraced runs) a span costs one shared no-op context manager.  With a
recording tracer every call into a package module gets a span, and the
layers reached only through another layer are replayed directly on the
same inputs afterwards, outside the operation's timed region.

This module imports the library; the parent harness (run.py) does not.
"""

from __future__ import annotations

import cmath
import math
import random
import statistics
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

from annulus_metrics.cli import DEFAULT_SWEEP_LAMBDAS
from annulus_metrics.elliptic import make_elliptic_context, wp
from annulus_metrics.errors import AnnulusMetricsError
from annulus_metrics.geodesics import (
    GeodesicState,
    MetricField,
    find_closed_geodesic,
    integrate,
    spiral_trace,
)
from annulus_metrics.hardy import (
    GeneralAnnulus,
    Truncation,
    j_functions_on_A_r,
    moment_sums,
    szego_kernel,
    szego_kernel_jet,
)
from annulus_metrics.jets import WirtingerJet, jet_log, jet_sqrt
from annulus_metrics.metrics import higher_curvature, sample, szego_metric_wp
from annulus_metrics.variation import (
    QUANTITIES,
    SweepSpec,
    limit_classifier,
    run_sweep,
)

TWO_PI = 2.0 * math.pi

# --- point_eval input ranges -------------------------------------------------
R_RANGE = (0.05, 0.95)
INTERIOR_REL = (1e-2, 0.5)
# Lower end of the near-boundary band of d/(1-r).  Below it today's series
# either raises ConvergenceError or misses the c = 2*pi*S identity check
# (NOTES.md, known failures); the workload stays where every check passes.
NEAR_REL = (4e-3, 1e-2)
POINTS_PER_CYCLE = 16
HC_EVERY = 4
NEAR_SLOTS = tuple(k for k in range(POINTS_PER_CYCLE) if k % HC_EVERY != HC_EVERY - 1)

# --- degeneration_sweep ------------------------------------------------------
# 1e-2 .. 1e-15 by decades.  From 1e-16 down some lambda slices raise
# InternalConsistencyError (NOTES.md, known failures).
SWEEP_R = tuple(10.0 ** -k for k in range(2, 16))
# A slice is the deepest 4 to 14 of those cells, so every slice reaches
# 1e-15; limit_classifier needs at least 4.  With slices of one length
# every operation would do the same work, and the median latency would
# jump between the machine's two speeds (NOTES.md, Bounds) instead of
# moving with the share of time spent at each.
SWEEP_MIN_CELLS = 4
# index pairs (i, j) of the CLI's table lambdas with lambda_j = 1 - lambda_i
DEFAULT_MIRRORS = tuple(
    (i, j)
    for i, a in enumerate(DEFAULT_SWEEP_LAMBDAS)
    for j, b in enumerate(DEFAULT_SWEEP_LAMBDAS)
    if i < j and abs(a + b - 1.0) < 1e-12
)
MIRROR_PAIRS_PER_CYCLE = 4
MIRROR_LAMBDA = (0.02, 0.5)
MIRROR_QUANTITIES = ("kappa_c", "kappa_s")

# --- geodesic_flow -----------------------------------------------------------
CLOSED_STEP_TOL = 1e-13
WINDOW_T_END = 10.0
TILT = 0.3
# Regimes of the Szego metric: the waist sqrt(r) is the closed circle above
# about r = 0.04 (U-shaped) and a stable maximum of rho*m below (W-shaped).
# The input ranges keep clear of the transition.
U_RANGE = (0.05, 0.3)
C_RANGE = (0.01, 0.3)
W_CLOSED_RANGE = (0.01, 0.025)
W_WINDOW_RANGE = (0.01, 0.02)
# criterion 10's stable-regime spiral, spiral_trace(0.02, "s", 0.16, 150),
# over a seeded window length: it winds about 44 times in 150, and the
# check asks for 20.  Every spiral is otherwise the same call, so with one
# length the middle of a run's spirals read either the machine's fast or
# its slow speed (NOTES.md, Bounds).
SPIRAL = (0.02, "s", 0.16)
SPIRAL_T_END = (80.0, 150.0)
# One cycle, sorted by latency: the W-regime window, eight closed circles,
# three spirals, the U-regime window.  The median then falls inside the
# circles.
GEODESIC_CYCLE = (
    "closed_c",
    "window_w",
    "closed_s_u",
    "closed_c",
    "spiral",
    "closed_s_w",
    "closed_c",
    "spiral",
    "window_u",
    "closed_s_u",
    "closed_c",
    "spiral",
    "closed_s_w",
)
# The U-regime window costs 3 to 10 s, most of a cycle, depending on the
# metric (s costs about 1.35 times c), on r and on which circle it escapes
# towards (the sign of the tilt).  Cycle c takes stratum c % 4: (metric,
# half of U_RANGE on a log scale, sign of psi).  An untraced run holds
# whole sets of the four, so every run has the same mix of escapes.
U_STRATA = (("c", 0, 1), ("s", 0, -1), ("c", 1, -1), ("s", 1, 1))
# The 11th-largest latency of a run of N cycles is a spiral when the N
# U-regime windows leave room for it (N <= 10) and 4N operations reach it
# (N >= 3); with 3N spirals it sits in their middle.
GEODESIC_CYCLES = (4, 8)

# --- checks ------------------------------------------------------------------
# c and 2*pi*S come from two series, each truncated once its tail bound
# drops below tail_tol relative to the sum, so they may differ by twice that.
IDENTITY_TOL = 2.0 * Truncation().tail_tol
DUAL_ROUTE_TOL = 1e-8
BOUND_SLACK = 1e-9
S_OVER_C_SLACK = 1e-12
CLOSURE_TOL = 1e-6
DRIFT_TOL = 1e-7
WAIST_TOL = 1e-6
SPIRAL_MIN_WINDINGS = 20


def _phi(dim: int) -> float:
    """Positive root of x^(dim+1) = x + 1 (the R_d generalized golden ratio)."""
    x = 2.0
    for _ in range(60):
        x = (1.0 + x) ** (1.0 / (dim + 1))
    return x


class Kronecker:
    """Randomly shifted R_d sequence on [0,1)^dim."""

    def __init__(self, dim: int, rng: random.Random):
        g = _phi(dim)
        self.alpha = tuple((1.0 / g) ** (k + 1) % 1.0 for k in range(dim))
        self.shift = tuple(rng.random() for _ in range(dim))

    def __call__(self, i: int) -> tuple:
        return tuple((s + i * a) % 1.0 for s, a in zip(self.shift, self.alpha))


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _uniform(u: float, lo: float, hi: float) -> float:
    return lo + u * (hi - lo)


# --------------------------------------------------------------------------
# tracing


class NullTracer:
    """Tracer of untraced runs: spans cost a shared no-op context manager."""

    enabled = False
    op = None
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def defer(self, parent, fn: Callable) -> None:
        pass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    kind: str  # "call" | "replay" | "probe"


class Tracer:
    """Records spans in memory: name, start, end, parent and operation id.

    "call" spans time the benchmark's calls into the library.  "replay"
    spans time a nested layer called again directly on the same inputs;
    their parent is the call span whose inside they stand for.  "probe"
    spans are extra measurements outside any operation.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._deferred: list[tuple[int, Callable]] = []
        self._at_end: list[Callable] = []
        self.op: int | None = None
        self.notes: dict = {}

    class _Ctx:
        def __init__(self, tracer, name, parent, kind):
            self.t, self.name, self.parent, self.kind = tracer, name, parent, kind

        def __enter__(self):
            t = self.t
            parent = t._stack[-1] if t._stack else self.parent
            self.idx = len(t.spans)
            t.spans.append(Span(self.name, 0.0, 0.0, parent, t.op, self.kind))
            t._stack.append(self.idx)
            t.spans[self.idx].start = t.clock()
            return self.idx

        def __exit__(self, *exc):
            t = self.t
            t.spans[self.idx].end = t.clock()
            t._stack.pop()
            return False

    def span(self, name: str):
        return self._Ctx(self, name, None, "call")

    def replay(self, name: str, parent: int):
        """A replay span attached to parent, opened outside parent's interval."""
        return self._Ctx(self, name, parent, "replay")

    def probe(self, name: str):
        return self._Ctx(self, name, None, "probe")

    def defer(self, parent: int, fn: Callable) -> None:
        """Queue fn(tracer, parent) to run after the current operation."""
        self._deferred.append((parent, fn))

    def run_deferred(self) -> None:
        pending, self._deferred = self._deferred, []
        for parent, fn in pending:
            fn(self, parent)

    def at_end(self, fn: Callable) -> None:
        """Queue fn(tracer, None) to run after the last cycle.

        For probes that would change how later operations run: starting
        threads between operations slowed the next ones by about 7%.
        """
        self._at_end.append(fn)

    def run_at_end(self) -> None:
        pending, self._at_end = self._at_end, []
        for fn in pending:
            fn(self, None)

    def note_max(self, key: str, value: float) -> None:
        self.notes[key] = max(self.notes.get(key, value), value)

    def note_add(self, key: str, value: float) -> None:
        self.notes[key] = self.notes.get(key, 0) + value

    def note_list(self, key: str, value) -> None:
        self.notes.setdefault(key, []).append(value)


def span_cost_s(clock: Callable[[], float], n: int = 20000, batches: int = 5) -> float:
    """Extra wall time of one recorded span over a null one, median of batches."""
    costs = []
    for _ in range(batches):
        per = []
        for tracer in (Tracer(clock), NullTracer()):
            t0 = clock()
            for _ in range(n):
                with tracer.span("bench.cost"):
                    pass
            per.append((clock() - t0) / n)
        costs.append(per[0] - per[1])
    return statistics.median(costs)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its children.

    Children are the spans nested inside it and the replays attached to
    it.  A replay can read longer than the stretch it stands for, so the
    difference is clamped at zero.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [max(0.0, (s.end - s.start) - c) for s, c in zip(spans, child)]


# --------------------------------------------------------------------------
# operations


@dataclass
class Op:
    kind: str
    args: dict
    hc: bool = False


@dataclass
class Workload:
    name: str
    reason: str
    cycle: Callable[[int], list]
    run: Callable  # (op, tracer) -> result
    check: Callable  # (op, result) -> list of failed check names
    after_cycle: Callable | None = None  # (ops, results, tracer) -> None
    cycles: tuple = (1, None)  # (min, max) cycles of an untraced run
    cycle_step: int = 1  # an untraced run ends at a multiple of this many cycles


def run_op(wl: Workload, op: Op, tracer, clock) -> tuple:
    """Run one operation and check it; returns (latency_s, error_class, result).

    Every exception and every failed check is a failed operation,
    recorded by class; nothing is retried.
    """
    t0 = clock()
    try:
        result = wl.run(op, tracer)
    except Exception as exc:  # the loop must go on; the class is recorded
        return clock() - t0, type(exc).__name__, None
    latency = clock() - t0
    with tracer.span("bench.check"):
        bad = wl.check(op, result)
    if bad:
        return latency, "CheckFailed:" + ",".join(bad), result
    return latency, None, result


# ---- point_eval -------------------------------------------------------------


def point_eval_cycle_factory(seed: int):
    rng = random.Random(f"point_eval:{seed}")
    # one stream per population, so each of them covers its ranges evenly;
    # the few points with large r and small d set most of the run time
    plain = Kronecker(3, rng)
    curved = Kronecker(3, rng)
    near = Kronecker(3, rng)
    n_curved = POINTS_PER_CYCLE // HC_EVERY
    n_plain = POINTS_PER_CYCLE - n_curved - 1

    def point(stream, i, rel_lo, rel_hi):
        # the side alternates: the series cost differs a lot between sides
        u = stream(i)
        r = _uniform(u[0], *R_RANGE)
        d = _log_uniform(u[1], rel_lo, rel_hi) * (1.0 - r)
        rho = r + d if i % 2 else 1.0 - d
        return r, rho * cmath.exp(1j * _uniform(u[2], -math.pi, math.pi))

    def cycle(c: int) -> list:
        # The near slot walks through the 12 positions that do not run
        # higher_curvature.  Near-boundary jets cost up to a second each;
        # a handful of them per run would set most of its wall time.
        near_slot = NEAR_SLOTS[(5 * c) % len(NEAR_SLOTS)]
        ops = []
        i_plain, i_curved = c * n_plain, c * n_curved
        for k in range(POINTS_PER_CYCLE):
            if k == near_slot:
                r, z = point(near, c, *NEAR_REL)
                ops.append(Op("near", {"r": r, "z": z}))
            elif k % HC_EVERY == HC_EVERY - 1:
                r, z = point(curved, i_curved, *INTERIOR_REL)
                i_curved += 1
                ops.append(Op("interior", {"r": r, "z": z}, hc=True))
            else:
                r, z = point(plain, i_plain, *INTERIOR_REL)
                i_plain += 1
                ops.append(Op("interior", {"r": r, "z": z}))
        return ops

    return cycle


def _replay_sample(r, z):
    lam = math.log(abs(z)) / math.log(r)

    def fn(t, parent):
        with t.replay("hardy.j_functions_on_A_r", parent) as jid:
            j_functions_on_A_r(r, lam)
        _replay_moment_sums(t, jid, r, lam)

    return fn


def _replay_moment_sums(t, parent, r, lam):
    sub = GeneralAnnulus(r ** (1.0 - lam), r ** (-lam))
    with t.replay("hardy.moment_sums", parent):
        ms = moment_sums(sub, 4)
    t.note_list("n_used", ms.n_used)


def _replay_wp(r, z):
    def fn(t, parent):
        with t.replay("elliptic.make_elliptic_context", parent):
            ctx = make_elliptic_context(r)
        u = 2.0 * math.log(abs(z))
        with t.replay("elliptic.wp", parent):
            wp(ctx, complex(u, 0.0))
        with t.replay("elliptic.wp", parent):
            wp(ctx, u + complex(ctx.omega1, ctx.omega3_im))

    return fn


def _replay_hc_caratheodory(r, z):
    def fn(t, parent):
        with t.replay("hardy.szego_kernel_jet", parent):
            szego_kernel_jet(r, z, 2)

    return fn


def _replay_hc_szego(r, z):
    def fn(t, parent):
        with t.replay("hardy.szego_kernel_jet", parent):
            k_jet = szego_kernel_jet(r, z, 2)
        with t.replay("jets.jet_log", parent):
            g = jet_log(k_jet)
        shifted = WirtingerJet(1, g.coeffs[1:3, 1:3].copy())
        with t.replay("jets.jet_sqrt", parent):
            jet_sqrt(shifted)

    return fn


@dataclass
class PointResult:
    c: float
    s: float
    kappa_c: float
    kappa_s: float
    S: float
    s_wp: float
    hc: tuple = ()


def point_eval_run(op: Op, t) -> PointResult:
    r, z = op.args["r"], op.args["z"]
    with t.span("metrics.sample") as sid:
        ms = sample(r, z)
    t.defer(sid, _replay_sample(r, z))
    with t.span("hardy.szego_kernel"):
        S = szego_kernel(r, z, z)
    with t.span("metrics.szego_metric_wp") as wid:
        s_wp = szego_metric_wp(r, z)
    t.defer(wid, _replay_wp(r, z))
    hc = ()
    if op.hc:
        with t.span("metrics.higher_curvature") as hid:
            k2 = higher_curvature(r, z, 2, "caratheodory")
        t.defer(hid, _replay_hc_caratheodory(r, z))
        with t.span("metrics.higher_curvature") as hid:
            k1 = higher_curvature(r, z, 1, "szego")
        t.defer(hid, _replay_hc_szego(r, z))
        hc = (k2, k1)
    if t.enabled:
        t.note_max("dual_route_rel_max", abs(ms.s - s_wp) / ms.s)
    return PointResult(ms.c, ms.s, ms.kappa_c, ms.kappa_s, S.real, s_wp, hc)


def _bounds_failures(c, s, kappa_c, kappa_s) -> list:
    """Criterion 9's global bounds with its slack."""
    bad = []
    if not kappa_c <= -4.0 + BOUND_SLACK:
        bad.append("kappa_c<=-4")
    if not kappa_s <= 4.0 + BOUND_SLACK:
        bad.append("kappa_s<=4")
    if not s >= c * (1.0 - S_OVER_C_SLACK):
        bad.append("s>=c")
    return bad


def point_eval_check(op: Op, res: PointResult) -> list:
    bad = []
    if not abs(res.c - TWO_PI * res.S) <= IDENTITY_TOL * abs(res.c):
        bad.append("c=2piS")
    if not abs(res.s - res.s_wp) <= DUAL_ROUTE_TOL * abs(res.s):
        bad.append("dual_route")
    bad += _bounds_failures(res.c, res.s, res.kappa_c, res.kappa_s)
    if op.hc and not all(math.isfinite(k) for k in res.hc):
        bad.append("higher_curvature_finite")
    return bad


# ---- degeneration_sweep -----------------------------------------------------


def degeneration_cycle_factory(seed: int):
    rng = random.Random(f"degeneration_sweep:{seed}")
    seq = Kronecker(1, rng)
    depth = Kronecker(1, rng)
    n_depths = len(SWEEP_R) - SWEEP_MIN_CELLS + 1
    per_cycle = len(DEFAULT_SWEEP_LAMBDAS) + MIRROR_PAIRS_PER_CYCLE

    def cells(c: int, k: int) -> int:
        return SWEEP_MIN_CELLS + int(depth(c * per_cycle + k)[0] * n_depths)

    def cycle(c: int) -> list:
        ops = [
            Op("default", {"lam": lam, "cells": cells(c, k)})
            for k, lam in enumerate(DEFAULT_SWEEP_LAMBDAS)
        ]
        for q in range(MIRROR_PAIRS_PER_CYCLE):
            lam = _uniform(seq(c * MIRROR_PAIRS_PER_CYCLE + q)[0], *MIRROR_LAMBDA)
            n = cells(c, len(DEFAULT_SWEEP_LAMBDAS) + q)
            ops.append(Op("mirror", {"lam": lam, "cells": n}))
            ops.append(Op("mirror", {"lam": 1.0 - lam, "cells": n}))
        return ops

    return cycle


@dataclass
class SliceResult:
    rows: list
    verdicts: tuple


def _replay_sweep(rows):
    def fn(t, parent):
        for row in rows:
            if row.error is not None:
                continue  # run_sweep raised here; the replay would too
            # run_sweep sums each cell's moments once for the row
            # diagnostics and once more inside j_functions_on_A_r
            _replay_moment_sums(t, parent, row.r, row.lam)
            with t.replay("hardy.j_functions_on_A_r", parent) as jid:
                try:
                    j_functions_on_A_r(row.r, row.lam)
                except AnnulusMetricsError:
                    t.note_add("j_failures", 1)
            _replay_moment_sums(t, jid, row.r, row.lam)

    return fn


def _probe_threads2(spec, rows):
    def fn(t, parent):
        with t.probe("variation.run_sweep.threads2"):
            rows2 = run_sweep(spec, parallelism=2)
        if [r2.values for r2 in rows2] != [r.values for r in rows]:
            t.note_add("threads2_mismatch", 1)

    return fn


def degeneration_run(op: Op, t) -> SliceResult:
    spec = SweepSpec(SWEEP_R[-op.args["cells"] :], (op.args["lam"],), QUANTITIES)
    with t.span("variation.run_sweep") as sid:
        rows = run_sweep(spec)
    if t.enabled:
        t.note_add("cells", len(rows))
        t.defer(sid, _replay_sweep(rows))
        t.at_end(_probe_threads2(spec, rows))
    verdicts = []
    for q in QUANTITIES:
        with t.span("variation.limit_classifier"):
            verdicts.append(limit_classifier(rows, q))
    return SliceResult(rows, tuple(verdicts))


def degeneration_check(op: Op, res: SliceResult) -> list:
    bad = []
    if len(res.rows) != op.args["cells"]:
        bad.append("row_count")
    for row in res.rows:
        if row.error is not None:
            bad.append(f"error@{row.r:g}")
            continue
        if not all(v is not None and math.isfinite(v) for v in row.values):
            bad.append(f"finite@{row.r:g}")
            continue
        v = dict(zip(row.quantities, row.values))
        bad += [f"{b}@{row.r:g}" for b in _bounds_failures(v["c"], v["s"], v["kappa_c"], v["kappa_s"])]
    for verdict in res.verdicts:
        if verdict.kind not in ("finite", "+inf", "-inf", "undetermined"):
            bad.append("classifier_kind")
    return bad


def mirror_gaps(rows_a: list, rows_b: list) -> list:
    """Relative curvature gaps between the slices at lambda and 1 - lambda.

    The inversion z -> r/conj(z) maps one slice onto the other, so the
    curvatures agree exactly; the gap measures summation error.
    """
    gaps = []
    by_r = {rb.r: rb for rb in rows_b}
    for ra in rows_a:
        rb = by_r.get(ra.r)
        if rb is None:
            continue  # slices of different depth
        for q in MIRROR_QUANTITIES:
            a, b = ra.value(q), rb.value(q)
            gaps.append(abs(a - b) / max(abs(a), abs(b)))
    return gaps


def degeneration_after_cycle(ops: list, results: list, t) -> None:
    if not t.enabled:
        return
    pairs = list(DEFAULT_MIRRORS)
    pairs += [(k, k + 1) for k in range(len(DEFAULT_SWEEP_LAMBDAS), len(ops), 2)]
    for i, j in pairs:
        if results[i] is None or results[j] is None:
            continue
        for gap in mirror_gaps(results[i].rows, results[j].rows):
            t.note_max("mirror_rel_max", gap)
            t.note_add("mirror_cells_over_1e-8", gap > 1e-8)


# ---- geodesic_flow ----------------------------------------------------------


def geodesic_cycle_factory(seed: int):
    rng = random.Random(f"geodesic_flow:{seed}")
    streams = {
        "closed_c": Kronecker(1, rng),
        "closed_s_u": Kronecker(1, rng),
        "closed_s_w": Kronecker(1, rng),
        "window_u": Kronecker(3, rng),
        "window_w": Kronecker(3, rng),
        "spiral": Kronecker(1, rng),
    }
    u_mid = math.sqrt(U_RANGE[0] * U_RANGE[1])

    def cycle(c: int) -> list:
        ops = []
        seen: dict = {}
        for slot in GEODESIC_CYCLE:
            n = seen[slot] = seen.get(slot, -1) + 1
            per_cycle = GEODESIC_CYCLE.count(slot)
            u = streams[slot](c * per_cycle + n)
            if slot == "spiral":
                ops.append(Op("spiral", {"t_end": _uniform(u[0], *SPIRAL_T_END)}))
            elif slot == "closed_c":
                ops.append(Op("closed", {"r": _log_uniform(u[0], *C_RANGE), "metric": "c", "waist": True}))
            elif slot == "closed_s_u":
                ops.append(Op("closed", {"r": _log_uniform(u[0], *U_RANGE), "metric": "s", "waist": True}))
            elif slot == "closed_s_w":
                ops.append(Op("closed", {"r": _uniform(u[0], *W_CLOSED_RANGE), "metric": "s", "waist": False}))
            else:
                if slot == "window_u":
                    metric, half, sign = U_STRATA[c % len(U_STRATA)]
                    r = _log_uniform(u[0], *((U_RANGE[0], u_mid), (u_mid, U_RANGE[1]))[half])
                    psi = sign * TILT * u[1]
                else:
                    r = _uniform(u[0], *W_WINDOW_RANGE)
                    metric = "s"
                    psi = _uniform(u[1], -TILT, TILT)
                ops.append(
                    Op(
                        "window",
                        {
                            "r": r,
                            "metric": metric,
                            "psi": psi,
                            "theta": _uniform(u[2], -math.pi, math.pi),
                            "confined": slot == "window_w",
                        },
                    )
                )
        return ops

    return cycle


@dataclass
class GeodesicResult:
    trace: object
    rho_star: float | None = None
    closure: float | None = None
    report: object = None


def _probe_field(r, metric, positions):
    def fn(t, parent):
        field = MetricField(r, metric)
        for z in positions:
            with t.probe("geodesics.field_eval"):
                field.density_and_log_gradient(z)

    return fn


def geodesic_run(op: Op, t) -> GeodesicResult:
    a = op.args
    if op.kind == "spiral":
        with t.span("geodesics.spiral_trace"):
            report = spiral_trace(*SPIRAL, a["t_end"])
        trace = report.trace
        out = GeodesicResult(trace, report=report)
        r, metric = SPIRAL[0], SPIRAL[1]
    elif op.kind == "closed":
        r, metric = a["r"], a["metric"]
        with t.span("geodesics.find_closed_geodesic"):
            circle = find_closed_geodesic(r, metric)
        z0 = complex(circle.rho_star, 0.0)
        with t.span("geodesics.MetricField.density"):
            v0 = 1j / MetricField(r, metric).density(z0)
        with t.span("geodesics.integrate") as iid:
            trace = integrate(r, metric, GeodesicState(z0, v0), circle.length, step_tol=CLOSED_STEP_TOL)
        closure = abs(trace.positions[-1] - z0) + abs(trace.velocities[-1] - v0)
        out = GeodesicResult(trace, rho_star=circle.rho_star, closure=closure)
    else:
        r, metric = a["r"], a["metric"]
        rho0 = math.sqrt(r)
        u = cmath.exp(1j * a["theta"])
        z0 = rho0 * u
        with t.span("geodesics.MetricField.density"):
            m0 = MetricField(r, metric).density(z0)
        v0 = (1j * u * math.cos(a["psi"]) - u * math.sin(a["psi"])) / m0
        with t.span("geodesics.integrate"):
            trace = integrate(r, metric, GeodesicState(z0, v0), WINDOW_T_END)
        out = GeodesicResult(trace)
    if t.enabled:
        if op.kind != "spiral":
            t.note_list("accepted_steps", len(trace) - 1)
            t.note_max("angular_drift_max", trace.angular_drift)
        else:
            t.note_list("windings", trace.winding_count)
        t.defer(None, _probe_field(r, metric, trace.positions))
    return out


def geodesic_check(op: Op, res: GeodesicResult) -> list:
    tr = res.trace
    bad = []
    if op.kind == "spiral":
        rep = res.report
        # criterion 10's conditions on the stable-regime spiral
        if not (rep.succeeded and tr.winding_count >= SPIRAL_MIN_WINDINGS and not rep.closed):
            bad.append("spiral_criterion_10")
        return bad
    if not tr.energy_drift <= DRIFT_TOL:
        bad.append("speed_drift")
    if op.kind == "closed":
        if not res.closure <= CLOSURE_TOL:
            bad.append("closure")
        if not tr.angular_drift <= DRIFT_TOL:
            bad.append("angular_drift")
        if op.args["waist"] and not abs(res.rho_star - math.sqrt(op.args["r"])) <= WAIST_TOL:
            bad.append("rho*=sqrt(r)")
        return bad
    if op.args["confined"] and tr.escaped:
        bad.append("w_regime_confined")
    if not tr.escaped and not tr.angular_drift <= DRIFT_TOL:
        bad.append("angular_drift")
    return bad


# --------------------------------------------------------------------------

WORKLOADS = {
    "point_eval": lambda seed: Workload(
        "point_eval",
        "eval traffic: series, jets and metrics at seeded points, 1 in 16 near a circle",
        point_eval_cycle_factory(seed),
        point_eval_run,
        point_eval_check,
    ),
    "degeneration_sweep": lambda seed: Workload(
        "degeneration_sweep",
        "the sweep command: moment sums and variation over (r, lambda) cells that share no work",
        degeneration_cycle_factory(seed),
        degeneration_run,
        degeneration_check,
        degeneration_after_cycle,
    ),
    "geodesic_flow": lambda seed: Workload(
        "geodesic_flow",
        "geodesic traffic: MetricField and the DP45 loop, no hardy series and no elliptic calls",
        geodesic_cycle_factory(seed),
        geodesic_run,
        geodesic_check,
        cycles=GEODESIC_CYCLES,
        cycle_step=len(U_STRATA),
    ),
}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
