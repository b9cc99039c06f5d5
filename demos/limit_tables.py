"""Degeneration tables: what each quantity does as r -> 0 along z = r^lambda.

The annulus collapses to the punctured disc as the inner radius
shrinks.  Pinning the evaluation point at z = r^lambda and sending
r -> 0 produces limits that depend only on lambda, with sharp walls at
particular rational values.  This script sweeps a grid and prints the
classified trends next to the settled values.
"""

from annulus_metrics.hardy import Truncation
from annulus_metrics.variation import SweepSpec, limit_classifier, run_sweep

R_GRID = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
LAMBDAS = (0.10, 1 / 6, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 5 / 6, 0.90)
QUANTITIES = ("c", "s", "kappa_c", "kappa_s")


def describe(rows, lam, quantity):
    verdict = limit_classifier([row for row in rows if row.lam == lam], quantity)
    if verdict.kind == "finite":
        return f"{verdict.value:+.6f}"
    return verdict.kind


def main():
    spec = SweepSpec(r_values=R_GRID, lambda_values=LAMBDAS, quantities=QUANTITIES)
    rows = run_sweep(spec, Truncation())

    print("trend of each quantity as r -> 0 with z pinned at r^lambda")
    print(f"(classified over r = {R_GRID[0]:g} .. {R_GRID[-1]:g}; 'undetermined'")
    print(" means the grid has not settled, not that no limit exists)")
    print()
    header = f"  {'lambda':>8}" + "".join(f"  {q:>14}" for q in QUANTITIES)
    print(header)
    for lam in sorted(LAMBDAS):
        cells = "".join(f"  {describe(rows, lam, q):>14}" for q in QUANTITIES)
        print(f"  {lam:>8.4f}{cells}")
    print()
    print("landmarks: c jumps from 1 to 2 exactly at lambda = 1/2 and the")
    print("szego density hits a sqrt(2) wall at lambda = 1/4 and 3/4; the")
    print("szego curvature dips to -12 at 1/6 and 5/6, returns to -4 on the")
    print("flanks, diverges at 1/4 and 3/4, and lands at +4 at the midpoint,")
    print("the only place positive curvature survives the collapse.")


if __name__ == "__main__":
    main()
