"""Reproduce the known failures that the benchmark workloads stay clear of.

    PYTHONPATH=src python3 bench/ledger.py

The workloads keep to inputs on which every operation passes its checks,
so these defects do not show in their error_rate.  Each probe below runs
one input just past the edge of a workload's range and prints what
happens, so a change that moves a defect can be read against the ledger
in NOTES.md.  Takes about 20 s.
"""

from __future__ import annotations

import cmath
import math
import time

from annulus_metrics.geodesics import (
    GeodesicState,
    MetricField,
    find_closed_geodesic,
    integrate,
    spiral_trace,
)
from annulus_metrics.hardy import szego_kernel
from annulus_metrics.metrics import sample, szego_metric_wp
from annulus_metrics.variation import QUANTITIES, SweepSpec, run_sweep


def _point(r: float, rel: float, angle: float = 0.7) -> complex:
    """The point at distance rel * (1 - r) inside the outer circle."""
    return (1.0 - rel * (1.0 - r)) * cmath.exp(1j * angle)


def series_convergence():
    z = _point(0.5, 1e-5)
    sample(0.5, z)
    return "sample returned"


def wp_pole():
    szego_metric_wp(0.5, _point(0.5, 1e-6))
    return "szego_metric_wp returned"


def identity_gap():
    z = _point(0.95, 1e-3, angle=0.1)
    c = sample(0.95, z).c
    gap = abs(c - 2 * math.pi * szego_kernel(0.95, z, z).real) / c
    return f"|c - 2 pi S| / c = {gap:.2e} (tolerance 2e-12)"


def deep_sweep():
    run_sweep(SweepSpec((1e-16, 1e-17, 1e-18), (0.5,), QUANTITIES))
    return "sweep returned"


def mirror_gap():
    out = []
    for r in (1e-8, 1e-15):
        a, b = (
            run_sweep(SweepSpec((r,), (lam,), ("kappa_s",)))[0].values[0]
            for lam in (1.0 / 3.0, 2.0 / 3.0)
        )
        out.append(f"r={r:g}: {abs(a - b) / abs(a):.1e}")
    return "kappa_s(1/3) vs kappa_s(2/3) " + ", ".join(out)


def spiral_windings():
    rep = spiral_trace(0.1, "s", 0.5, 120.0)
    return f"windings {rep.trace.winding_count} of 20, succeeded={rep.succeeded}"


def escaping_drift():
    r, metric, psi = 0.1, "s", 0.2
    z0 = complex(math.sqrt(r), 0.0)
    v0 = (1j * math.cos(psi) - math.sin(psi)) / MetricField(r, metric).density(z0)
    tr = integrate(r, metric, GeodesicState(z0, v0), 10.0)
    return f"escaped={tr.escaped} angular drift {tr.angular_drift:.1e} (checks use 1e-7)"


def closed_circle_closure():
    r, metric = 0.6, "c"
    circle = find_closed_geodesic(r, metric)
    z0 = complex(circle.rho_star, 0.0)
    v0 = 1j / MetricField(r, metric).density(z0)
    tr = integrate(r, metric, GeodesicState(z0, v0), circle.length, step_tol=1e-13)
    closure = abs(tr.positions[-1] - z0) + abs(tr.velocities[-1] - v0)
    return f"closure after one period {closure:.1e} (checks use 1e-6)"


PROBES = (
    ("point_eval: sample at r=0.5, d/(1-r)=1e-5", series_convergence),
    ("point_eval: szego_metric_wp at r=0.5, d/(1-r)=1e-6", wp_pole),
    ("point_eval: c = 2 pi S at r=0.95, d/(1-r)=1e-3", identity_gap),
    ("degeneration_sweep: lambda=0.5 down to r=1e-18", deep_sweep),
    ("degeneration_sweep: mirror pair 1/3 / 2/3", mirror_gap),
    ("geodesic_flow: criterion-10 spiral at r=0.1", spiral_windings),
    ("geodesic_flow: escaping trace at r=0.1", escaping_drift),
    ("geodesic_flow: closed circle at r=0.6", closed_circle_closure),
)


def main() -> int:
    for label, fn in PROBES:
        t0 = time.perf_counter()
        try:
            outcome = fn()
        except Exception as exc:  # the probe reports whatever the library raises
            outcome = f"{type(exc).__name__}: {str(exc)[:90]}"
        print(f"{label:<52} {time.perf_counter() - t0:6.2f}s  {outcome}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
