"""A first walk through the two metrics on one annulus.

Evaluates the kernel and both metric densities at a point, checks the
identities that tie them together, then scans a radial line so the
shape of each density between the two boundary circles is visible.
"""

import math

from annulus_metrics.metrics import sample

TWO_PI = 2.0 * math.pi


def main():
    r = 0.3
    z = 0.55 + 0.2j

    m = sample(r, z)
    print(f"annulus r = {r}, point z = {z}")
    print(f"  diagonal kernel  S(z, z) = {m.S:.12f}")
    print(f"  capacity density        c = {m.c:.12f}   (equals 2 pi S = {TWO_PI * m.S:.12f})")
    print(f"  szego density           s = {m.s:.12f}   (never below c)")
    print(f"  capacity curvature  kappa_c = {m.kappa_c:.10f}   (<= -4 everywhere)")
    print(f"  szego curvature     kappa_s = {m.kappa_s:.10f}   (<= +4 everywhere)")
    print()

    print("radial profile on the same annulus (z = rho > 0):")
    print(f"  {'rho':>6}  {'c':>12}  {'s':>12}  {'s/c':>10}  {'kappa_c':>10}  {'kappa_s':>10}")
    for k in range(1, 14):
        rho = r + (1.0 - r) * k / 14.0
        row = sample(r, rho)
        print(
            f"  {rho:>6.3f}  {row.c:>12.6f}  {row.s:>12.6f}"
            f"  {row.s / row.c:>10.6f}  {row.kappa_c:>10.5f}  {row.kappa_s:>10.5f}"
        )
    print()
    print("both densities blow up at the walls; s tracks c in the middle")
    print("and separates near the boundary where kappa_s turns toward -4.")


if __name__ == "__main__":
    main()
