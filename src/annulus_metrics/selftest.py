"""Acceptance suite: every shipped claim checked end to end, with timings.

Each criterion is a standalone callable returning pass/fail plus a
compact detail string, so the suite can run headless (CLI `selftest`),
under pytest (one test per criterion), or criterion by criterion.  A
criterion that raises is reported as failed with the exception text;
the runner itself never throws.

The quick subset covers the checks that finish in a few seconds each
and is the smoke test the runtime criterion times; the full run adds
the extended divergence sweeps and the geodesic demonstrations.
"""

from __future__ import annotations

import cmath
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .elliptic import make_elliptic_context, sigma, wp, wp_prime, zeta
from .geodesics import GeodesicState, MetricField, find_closed_geodesic, integrate, spiral_trace
from .hardy import j_functions_on_A_r, szego_kernel
from .metrics import (
    boundary_asymptotics_probe,
    higher_curvature,
    metric_from_j,
    sample,
    szego_metric_wp,
)
from .variation import SweepSpec, asymptotic_N, limit_classifier, run_sweep

TWO_PI = 2.0 * math.pi

#: wall-clock budget for the quick subset, seconds
QUICK_BUDGET = 60.0

#: wall-clock budget for the full suite, seconds
FULL_BUDGET = 600.0


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    description: str
    passed: bool
    details: str
    elapsed: float


class Criterion(NamedTuple):
    cid: int
    description: str
    quick: bool
    fn: Callable[[], tuple]


class _Checks:
    """Accumulates labelled pass/fail facts for one criterion."""

    def __init__(self):
        self.facts = []
        self.failures = []

    def expect(self, label: str, ok: bool) -> None:
        if ok:
            self.facts.append(label)
        else:
            self.failures.append(label)

    def within(self, label: str, value: float, target: float, rel: float) -> None:
        # math.isclose semantics: relative to the larger magnitude
        err = abs(value - target) / max(abs(target), abs(value))
        self.expect(f"{label} = {value:.6g} (target {target:g}, err {err:.2e})", err <= rel)

    def note(self, text: str) -> None:
        self.facts.append(text)

    def result(self) -> tuple:
        if self.failures:
            return False, "FAIL " + "; ".join(self.failures)
        return True, "; ".join(self.facts)


# ---------------------------------------------------------------------------
# 1: capacity density along z = r^lambda


def _c_of(r: float, z: float) -> float:
    return TWO_PI * szego_kernel(r, z, z).real


def _c1():
    ck = _Checks()
    ck.within("c(1e-4, r^0.25)", _c_of(1e-4, 1e-4**0.25), 1.0, 0.02)
    ck.within("c(1e-4, r^0.5)", _c_of(1e-4, 1e-4**0.5), 2.0, 0.02)
    wall = {rr: _c_of(rr, rr**0.75) for rr in (1e-3, 1e-4, 1e-5)}
    ck.expect(f"c(1e-4, r^0.75) = {wall[1e-4]:.4g} > 1e2", wall[1e-4] > 1e2)
    ck.expect(
        f"growth per decade {wall[1e-4] / wall[1e-3]:.2f}, {wall[1e-5] / wall[1e-4]:.2f} >= 2",
        wall[1e-4] >= 2.0 * wall[1e-3] and wall[1e-5] >= 2.0 * wall[1e-4],
    )
    return ck.result()


# ---------------------------------------------------------------------------
# 2: szego density along z = r^lambda


def _metric_at(r: float, lam: float, quantity: str) -> float:
    return metric_from_j(j_functions_on_A_r(r, lam), quantity)


def _classify(lam: float, quantity: str):
    spec = SweepSpec(
        r_values=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8),
        lambda_values=(lam,),
        quantities=(quantity,),
    )
    return limit_classifier(run_sweep(spec), quantity)


def _c2():
    ck = _Checks()
    ck.within("s(1e-6, r^0.15)", _metric_at(1e-6, 0.15, "s"), 1.0, 0.05)
    ck.within("s(1e-6, r^0.25)", _metric_at(1e-6, 0.25, "s"), math.sqrt(2.0), 0.05)
    kind = _classify(0.5, "s").kind
    ck.expect(f"s at lambda=0.5 classified {kind}", kind == "+inf")
    return ck.result()


# ---------------------------------------------------------------------------
# 3: capacity curvature limit table


def _c3():
    ck = _Checks()
    for lam, target in ((0.15, -4.0), (0.25, -8.0), (0.75, -8.0), (0.85, -4.0)):
        ck.within(f"kappa_c(1e-6, r^{lam:g})", _metric_at(1e-6, lam, "kappa_c"), target, 0.05)
    kind = _classify(0.5, "kappa_c").kind
    ck.expect(f"kappa_c at lambda=0.5 classified {kind}", kind == "-inf")
    return ck.result()


# ---------------------------------------------------------------------------
# 4: szego curvature limit table


def _c4():
    ck = _Checks()
    finite = (
        (0.10, -4.0),
        (1.0 / 6.0, -12.0),
        (1.0 / 3.0, -4.0),
        (0.5, 4.0),
        (2.0 / 3.0, -4.0),
        (5.0 / 6.0, -12.0),
        (0.90, -4.0),
    )
    for lam, target in finite:
        ck.within(f"kappa_s(1e-6, r^{lam:.4g})", _metric_at(1e-6, lam, "kappa_s"), target, 0.05)
    for lam in (0.25, 0.75):
        kind = _classify(lam, "kappa_s").kind
        ck.expect(f"kappa_s at lambda={lam:g} classified {kind}", kind == "-inf")
    near_wall = _metric_at(1e-6, 4.0 / 9.0, "kappa_s")
    ck.expect(f"kappa_s(1e-6, r^(4/9)) = {near_wall:.4f} > 3.5", near_wall > 3.5)
    return ck.result()


# ---------------------------------------------------------------------------
# 5: szego density dual routes


def _c5():
    ck = _Checks()
    rng = np.random.default_rng(195)
    worst = 0.0
    for r in (0.2, 0.5, 0.8):
        for _ in range(100):
            rho = rng.uniform(r + 0.02 * (1 - r), 1 - 0.02 * (1 - r))
            z = rho * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            s_series = sample(r, z).s
            s_wp = szego_metric_wp(r, z)
            worst = max(worst, abs(s_series - s_wp) / s_series)
    ck.expect(f"series vs elliptic route at 300 points: max rel {worst:.2e}", worst <= 1e-8)
    return ck.result()


# ---------------------------------------------------------------------------
# 6: scaled maximal-function ratios against their closed forms


def _c6():
    ck = _Checks()
    rs = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)

    def seq(lam, j):
        out = []
        for r in rs:
            J = j_functions_on_A_r(r, lam)
            jv = (J.j0, J.j1, J.j2)[j]
            scaled = r ** ((2 * j + 1) * lam) * jv
            if j == 0:
                target = asymptotic_N(r, lam, 0)
            else:
                target = asymptotic_N(r, lam, j) / asymptotic_N(r, lam, j - 1)
            out.append(scaled / target)
        return out

    for lam, j in ((0.3, 0), (0.4, 1), (0.4, 2)):
        ratios = seq(lam, j)
        errs = [abs(x - 1.0) for x in ratios]
        monotone = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
        ck.expect(f"J{j} lambda={lam:g}: errors {errs[0]:.2e} -> {errs[-1]:.2e} monotone", monotone)
        ck.expect(f"J{j} lambda={lam:g}: final error {errs[-1]:.2e} <= 1e-2", errs[-1] <= 1e-2)
    return ck.result()


# ---------------------------------------------------------------------------
# 7: elliptic toolkit


def _cell_points(ctx, rng, count):
    pts = []
    floor_dist = 0.2 * min(ctx.omega1, math.pi)
    while len(pts) < count:
        z = complex(
            rng.uniform(-ctx.omega1, ctx.omega1), rng.uniform(-math.pi, math.pi)
        )
        if abs(z) >= floor_dist:
            pts.append(z)
    return pts


def _wp_lattice(z: complex, omega1: float, M: int) -> complex:
    m, n = np.meshgrid(np.arange(-M, M + 1), np.arange(-M, M + 1), indexing="ij")
    om = 2.0 * m.ravel() * omega1 + 2.0j * math.pi * n.ravel()
    om = om[np.abs(om) > 0]
    s = 1.0 / z**2 + np.sum(1.0 / (z - om) ** 2 - 1.0 / om**2)
    return complex(s)


def _c7():
    ck = _Checks()
    rng = np.random.default_rng(197)
    for r in (0.2, 0.5, 0.8):
        ctx = make_elliptic_context(r)
        worst = 0.0
        for z in _cell_points(ctx, rng, 100):
            P = wp(ctx, z)
            res = abs(wp_prime(ctx, z) ** 2 - (4 * P**3 - ctx.g2 * P - ctx.g3))
            worst = max(worst, res / (1 + abs(P)) ** 3)
        ck.expect(f"r={r}: ODE residual max {worst:.2e}", worst <= 1e-9)

        wq = 0.0
        for z in _cell_points(ctx, rng, 10):
            wq = max(wq, abs(zeta(ctx, z + 2 * ctx.omega1) - zeta(ctx, z) - 2 * ctx.eta1))
            wq = max(
                wq, abs(zeta(ctx, z + 2j * math.pi) - zeta(ctx, z) - 2j * ctx.eta3_im)
            )
            lhs = sigma(ctx, z + 2 * ctx.omega1)
            rhs = -cmath.exp(2 * ctx.eta1 * (z + ctx.omega1)) * sigma(ctx, z)
            wq = max(wq, abs(lhs - rhs) / (1 + abs(lhs)))
        ck.expect(f"r={r}: quasi-periodicity residual {wq:.2e}", wq <= 1e-10)

        # ordering asserted to the stated 1e-12 resolution: the e2 - e3
        # gap shrinks like the nome and underflows double precision for
        # elongated lattices (6e-20 at r = 0.8)
        scale = max(1.0, abs(ctx.e1))
        ck.expect(
            f"r={r}: e1 > e2 > e3 (gaps {ctx.e1 - ctx.e2:.1e}, {ctx.e2 - ctx.e3:.1e})"
            f" and sum {ctx.e1 + ctx.e2 + ctx.e3:.1e}",
            ctx.e1 - ctx.e2 > 0
            and ctx.e2 - ctx.e3 >= -1e-12 * scale
            and abs(ctx.e1 + ctx.e2 + ctx.e3) <= 1e-12 * scale,
        )

        wl = 0.0
        for z in _cell_points(ctx, rng, 3):
            box = (4.0 * _wp_lattice(z, ctx.omega1, 160) - _wp_lattice(z, ctx.omega1, 80)) / 3.0
            P = wp(ctx, z)
            wl = max(wl, abs(P - box) / (1 + abs(P)))
        ck.expect(f"r={r}: lattice-sum agreement {wl:.2e}", wl <= 1e-8)
    return ck.result()


# ---------------------------------------------------------------------------
# 8: boundary scaling at both circles


def _c8():
    ck = _Checks()
    r = 0.5
    outer = [1.0 - 2.0**-k for k in range(3, 13)]
    inner = [r / (1.0 - 2.0**-k) for k in range(3, 13)]

    po = boundary_asymptotics_probe(r, 0, 0, outer, "outer").values
    ck.within("outer S*(1-rho^2) at k=12, scaled by 2pi", po[-1] * TWO_PI, 1.0, 0.01)
    pi_ = boundary_asymptotics_probe(r, 0, 0, inner, "inner").values
    ck.within("inner S*(rho^2-r^2) at k=12, scaled by 2pi/r", pi_[-1] * TWO_PI / r, 1.0, 0.01)

    for label, rho in (("outer", outer[-1]), ("inner", inner[-1])):
        ms = sample(r, rho)
        ck.within(f"{label} kappa_c at k=12", ms.kappa_c, -4.0, 0.02)
        ck.within(f"{label} kappa_s at k=12", ms.kappa_s, -4.0, 0.02)
        k2 = higher_curvature(r, rho, 2, "caratheodory")
        ck.within(f"{label} order-2 curvature at k=12", k2, -16.0, 0.05)
    return ck.result()


# ---------------------------------------------------------------------------
# 9: global bounds


def _c9():
    ck = _Checks()
    rng = np.random.default_rng(199)
    bad = 0
    margins = [math.inf, math.inf, math.inf]
    for _ in range(1000):
        r = rng.uniform(0.05, 0.95)
        rho = rng.uniform(r + 0.01 * (1 - r), 1 - 0.01 * (1 - r))
        z = rho * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        ms = sample(r, z)
        ok_c = ms.kappa_c <= -4.0 + 1e-9
        ok_s = ms.kappa_s <= 4.0 + 1e-9
        ok_sc = ms.s >= ms.c * (1.0 - 1e-12)
        margins[0] = min(margins[0], -4.0 - ms.kappa_c)
        margins[1] = min(margins[1], 4.0 - ms.kappa_s)
        margins[2] = min(margins[2], ms.s / ms.c - 1.0)
        bad += not (ok_c and ok_s and ok_sc)
    ck.expect(
        f"1000 points, violations {bad}; tightest margins kappa_c {margins[0]:.2e},"
        f" kappa_s {margins[1]:.2e}, s/c-1 {margins[2]:.2e}",
        bad == 0,
    )
    return ck.result()


# ---------------------------------------------------------------------------
# 10: geodesics


def _c10():
    ck = _Checks()
    for r in (0.05, 0.1, 0.3):
        for metric in ("c", "s"):
            circle = find_closed_geodesic(r, metric)
            ck.expect(
                f"rho*({r},{metric}) = {circle.rho_star:.8f} vs sqrt r"
                f" ({abs(circle.rho_star - math.sqrt(r)):.1e})",
                abs(circle.rho_star - math.sqrt(r)) <= 1e-6,
            )
            field = MetricField(r, metric)
            z0 = complex(circle.rho_star, 0.0)
            v0 = 1j / field.density(z0)
            tr = integrate(r, metric, GeodesicState(z0, v0), circle.length, step_tol=1e-13)
            closure = abs(tr.positions[-1] - z0) + abs(tr.velocities[-1] - v0)
            ck.expect(f"closure({r},{metric}) = {closure:.1e}", closure <= 1e-6)
            ck.expect(
                f"drift({r},{metric}) = {tr.energy_drift:.1e}/{tr.angular_drift:.1e}",
                tr.energy_drift <= 1e-7 and tr.angular_drift <= 1e-7,
            )

    # the r = 0.1 waist is hyperbolic (curvature -2.42, about 7 e-folds
    # of transverse growth per winding): spiral_trace picks the orbit by
    # its Clairaut gap to the waist level and traces it by quadrature,
    # where a launch-angle integration would shed the waist after about
    # 5 windings; the confined spiral of the stable regime is shown at
    # r = 0.02
    report = spiral_trace(0.1, "s", 0.5, 120.0)
    wind = report.trace.winding_count
    ck.expect(
        f"spiral r=0.1 windings in band = {wind} (>= 20 demanded,"
        f" Clairaut quadrature), closure {report.closure_distance:.2e}",
        wind >= 20 and not report.closed and report.closure_distance > 1e-3,
    )
    ck.expect(
        f"spiral drift {report.trace.energy_drift:.1e}/{report.trace.angular_drift:.1e}",
        report.trace.energy_drift <= 1e-7 and report.trace.angular_drift <= 1e-7,
    )
    evidence = spiral_trace(0.02, "s", 0.16, 150.0)
    ck.expect(
        f"stable-regime spiral r=0.02: {evidence.trace.winding_count} windings,"
        f" confined [{evidence.rho_min:.3f}, {evidence.rho_max:.3f}],"
        f" closure {evidence.closure_distance:.2e}",
        evidence.succeeded
        and evidence.trace.winding_count >= 20
        and not evidence.closed,
    )
    return ck.result()


# ---------------------------------------------------------------------------
# 11: runtime contract


def _c11():
    ck = _Checks()
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "annulus_metrics.cli", "selftest", "--quick"],
        capture_output=True,
        text=True,
        timeout=3 * QUICK_BUDGET,
    )
    took = time.monotonic() - t0
    ck.expect(f"quick subset exit code {proc.returncode}", proc.returncode == 0)
    ck.expect(f"quick subset wall time {took:.1f}s <= {QUICK_BUDGET:g}s", took <= QUICK_BUDGET)
    return ck.result()


CRITERIA = (
    Criterion(1, "capacity density limits along z = r^lambda", True, _c1),
    Criterion(2, "szego density limits: plateau, sqrt(2) wall, divergent midpoint", True, _c2),
    Criterion(3, "capacity curvature limit table {-4, -8, -inf, -8, -4}", True, _c3),
    Criterion(4, "szego curvature limit table with +4 midpoint and the 4/9 probe", True, _c4),
    Criterion(5, "szego density series route vs elliptic route at 300 points", True, _c5),
    Criterion(6, "scaled maximal-function ratios approach closed forms monotonically", True, _c6),
    Criterion(7, "elliptic toolkit: ODE residual, quasi-periods, roots, lattice oracle", True, _c7),
    Criterion(8, "boundary scaling of the kernel and curvatures at both circles", True, _c8),
    Criterion(9, "global bounds kappa_c <= -4, kappa_s <= 4, s >= c at 1000 points", True, _c9),
    Criterion(10, "geodesic circles at sqrt(r), conservation, spiral winding demo", False, _c10),
    Criterion(11, "headless runtime contract: quick subset under 60 s", False, _c11),
)


def run_criterion(crit: Criterion) -> CriterionResult:
    t0 = time.monotonic()
    try:
        passed, details = crit.fn()
    except Exception as exc:  # deliberate blanket: the suite must finish
        passed, details = False, f"FAIL raised {type(exc).__name__}: {exc}"
    return CriterionResult(
        cid=crit.cid,
        description=crit.description,
        passed=passed,
        details=details,
        elapsed=time.monotonic() - t0,
    )


def run_all(quick: bool = False, progress: Callable | None = None) -> list:
    """Run the registry in order; quick=True keeps only the quick subset."""
    results = []
    for crit in CRITERIA:
        if quick and not crit.quick:
            continue
        res = run_criterion(crit)
        results.append(res)
        if progress is not None:
            progress(res)
    return results
