"""Closed circles, conserved quantities, and winding traces.

For a rotation-invariant metric on the annulus the circle |z| = rho is
a geodesic exactly where rho times the density is critical.  Above a
small threshold radius that happens once, at the unstable waist
sqrt(r); below it the profile develops two flanking minima and the
symmetric circle turns into a saddle.  This script shows both regimes,
then launches traces and watches the two first integrals hold.  Every
trace is a Clairaut quadrature: the launch fixes the orbit's speed and
Clairaut constant, and the orbit is summed in the radius.
"""

import math

from annulus_metrics.geodesics import (
    GeodesicState,
    MetricField,
    find_closed_geodesic,
    integrate,
    spiral_trace,
)


def show_closed(r):
    found = find_closed_geodesic(r, "s")
    marker = "the symmetric waist" if abs(found.rho_star - math.sqrt(r)) < 1e-9 else "a flanking minimum"
    print(f"  r = {r:g}: closed circle at rho* = {found.rho_star:.12f} ({marker})")
    print(f"           length {found.length:.12f}, stationarity residual {found.residual:.2e}")


def main():
    print("closed geodesic circles of the szego metric:")
    show_closed(0.1)
    show_closed(0.3)
    show_closed(0.02)
    print(f"  (sqrt of 0.02 is {math.sqrt(0.02):.12f}; at small r the minimizing")
    print("   circle migrates off the waist, which survives only as a saddle)")
    print()

    r = 0.1
    rho = math.sqrt(r)
    field = MetricField(r, "s")
    v0 = 1j / field.density(rho)
    loop = find_closed_geodesic(r, "s").length
    trace = integrate(r, "s", GeodesicState(rho, v0), 3 * loop, step_tol=1e-11)
    print(f"three loops around the waist circle at r = {r}:")
    print(f"  samples {len(trace)}, winding count {trace.winding_count}")
    print(f"  metric speed drift  {trace.energy_drift:.2e}")
    print(f"  angular momentum drift  {trace.angular_drift:.2e}")
    print(f"  return distance to start  {abs(trace.positions[-1] - trace.positions[0]):.2e}")
    print("  (the waist is unstable, each loop multiplying an offset by ~1100, but")
    print("   a tangential launch on it is the circle itself, with nothing to grow)")
    print()

    print("a non-closing spiral in the stable small-r regime:")
    report = spiral_trace(0.02, "s", 0.16, 150.0)
    tr = report.trace
    print(f"  r = 0.02, tangential launch at |z| = 0.16, traced by quadrature to t = 150")
    print(f"  windings {tr.winding_count}, radius range [{report.rho_min:.6f}, {report.rho_max:.6f}]")
    print("  (it oscillates between |z0| and the mirror radius r/|z0| = 0.125)")
    print(f"  closes on itself: {report.closed} (closure distance {report.closure_distance:.2e})")
    print(f"  conserved-quantity drifts {tr.energy_drift:.2e}, {tr.angular_drift:.2e}")
    rho1 = find_closed_geodesic(0.02, "s").rho_star
    flank = max(rho1, 0.02 / rho1)
    report = spiral_trace(0.02, "s", 0.3, 40.0)
    print(f"  from |z| = 0.3, outside the flank circle at {flank:.6f}, the orbit spirals")
    print(f"  in to within {abs(report.rho_min - flank):.0e} of it and out again as at an unstable")
    print(f"  waist ({report.trace.winding_count} windings by t = 40)")
    print()

    print("near the unstable waist the orbit is chosen by its Clairaut constant:")
    report = spiral_trace(0.1, "s", 0.5, 120.0)
    tr = report.trace
    print(f"  r = 0.1, launch |z| = 0.5, tilt {report.launch_angle:.6f} rad, t = 120")
    print(f"  windings {tr.winding_count}, radius range [{report.rho_min:.6f}, {report.rho_max:.6f}]")
    print(f"  conserved-quantity drifts {tr.energy_drift:.2e}, {tr.angular_drift:.2e}")
    launch = GeodesicState(tr.positions[0], tr.velocities[0])
    shot = integrate(0.1, "s", launch, 5 * loop)
    print(f"  integrate from the same launch state is at radius {abs(shot.positions[-1]):.6f}")
    print(f"  after 5 loops, the spiral at {abs(tr.positions[-1]):.6f} after {tr.winding_count}")
    print("  (separatrix distance grows e^7 per winding and the launch state holds")
    print("   the gap to the waist level only to 1e-16; spiral_trace keeps the gap")
    print("   as its own number)")


if __name__ == "__main__":
    main()
