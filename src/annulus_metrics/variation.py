"""Parameter sweeps over (r, lambda) and degeneration-limit analysis.

The interior point is parametrized as |z| = r^lambda, and the interest
is in the r -> 0 trend of the metric quantities: some columns settle on
finite constants, others blow up like negative powers of r.  The sweep
produces rows of values with convergence diagnostics, the asymptotic
N-functions give closed-form leading terms to compare against, and the
classifier turns a column into {finite, +inf, -inf, undetermined}
without ever guessing on noisy data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .errors import ConvergenceError, DomainError, RangeError
from .hardy import (
    JOnAr,
    Truncation,
    j_functions_from_sums,
    moment_sums_on_A_r,
)
from .metrics import metric_from_j

TWO_PI = 2.0 * math.pi

QUANTITIES = ("c", "s", "kappa_c", "kappa_s", "N0", "N1", "N2", "ratio_s_over_c")

DIVERGENCE_MAGNITUDE = 1e3
DIVERGENCE_GROWTH_PER_DECADE = 2.0


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: r decreasing, lambda anywhere in (0,1), a set of columns."""

    r_values: tuple
    lambda_values: tuple
    quantities: tuple

    def __post_init__(self):
        object.__setattr__(self, "r_values", tuple(float(r) for r in self.r_values))
        object.__setattr__(
            self, "lambda_values", tuple(float(x) for x in self.lambda_values)
        )
        object.__setattr__(self, "quantities", tuple(self.quantities))
        if not self.r_values:
            raise DomainError("r_values must be nonempty")
        if not self.lambda_values:
            raise DomainError("lambda_values must be nonempty")
        if not self.quantities:
            raise DomainError("quantities must be nonempty")
        for r in self.r_values:
            if not (math.isfinite(r) and 0.0 < r < 1.0):
                raise DomainError(f"r values must lie strictly between 0 and 1, got {r!r}")
        if any(a <= b for a, b in zip(self.r_values, self.r_values[1:])):
            raise DomainError("r_values must be strictly decreasing")
        for lam in self.lambda_values:
            if not (math.isfinite(lam) and 0.0 < lam < 1.0):
                raise DomainError(
                    f"lambda values must lie strictly between 0 and 1, got {lam!r}"
                )
        seen = set()
        for q in self.quantities:
            if q not in QUANTITIES:
                raise DomainError(f"unknown quantity {q!r}; choose from {QUANTITIES}")
            if q in seen:
                raise DomainError(f"duplicate quantity {q!r}")
            seen.add(q)


@dataclass(frozen=True)
class SweepRow:
    """One (r, lambda) cell: quantity values plus summation diagnostics.

    values is parallel to the SweepSpec's quantities tuple.  A recorded
    error string marks the divergent-overflow cells; their values are
    None and the row is still emitted.
    """

    r: float
    lam: float
    quantities: tuple
    values: tuple
    n_used: Optional[int]
    tail_bound: Optional[float]
    error: Optional[str] = None

    def value(self, quantity: str) -> Optional[float]:
        try:
            return self.values[self.quantities.index(quantity)]
        except ValueError:
            raise DomainError(f"row does not carry quantity {quantity!r}") from None


class Classification(NamedTuple):
    """Trend of a column as r -> 0."""

    kind: str  # "finite" | "+inf" | "-inf" | "undetermined"
    value: Optional[float]


def asymptotic_N(r: float, lam: float, j: int) -> float:
    """Closed-form leading terms for the scaled maximal domain functions.

    These are the degeneration profiles: r^lambda J0 tracks N0,
    r^(3 lambda) J1 tracks N1/N0, and r^(5 lambda) J2 tracks N2/N1,
    with relative error vanishing as r -> 0.
    """
    if not (isinstance(r, (int, float)) and math.isfinite(r) and 0.0 < r < 1.0):
        raise DomainError(f"inner radius must lie strictly between 0 and 1, got {r!r}")
    if not (isinstance(lam, (int, float)) and 0.0 < lam < 1.0):
        raise DomainError(f"lambda must lie strictly between 0 and 1, got {lam!r}")
    if j not in (0, 1, 2):
        raise DomainError(f"j must be 0, 1 or 2, got {j!r}")
    mu = 1.0 - lam
    if j == 0:
        return (r**lam + r**mu) / (TWO_PI * (1.0 + r))
    if j == 1:
        core = (r ** (4 * lam) + r ** (4 * mu) + 4 * r * (r ** (2 * lam) + r ** (2 * mu))) / (
            (1.0 + r) * (1.0 + r**3)
        )
        return (r / (1.0 + r) ** 2 + core) / (4.0 * math.pi**2)
    top = (r ** (9 * lam) + r ** (9 * mu)) / ((1.0 + r) * (1.0 + r**3) * (1.0 + r**5))
    mid = r * (r ** (3 * lam) + r ** (3 * mu)) / ((1.0 + r) ** 2 * (1.0 + r**3))
    return (top + mid) / (2.0 * math.pi**3)


def _row_values(r: float, lam: float, quantities: Sequence[str], J: JOnAr):
    out = []
    for q in quantities:
        if q in ("c", "s", "kappa_c", "kappa_s"):
            out.append(metric_from_j(J, q))
        elif q == "ratio_s_over_c":
            out.append(metric_from_j(J, "s") / metric_from_j(J, "c"))
        else:
            out.append(asymptotic_N(r, lam, int(q[1])))
    return tuple(out)


def _build_row(r: float, lam: float, quantities: tuple, tr: Truncation) -> SweepRow:
    n_used = tail = None
    try:
        ms = moment_sums_on_A_r(r, lam, tr)
        n_used, tail = ms.n_used, ms.tail_bound
        values = _row_values(r, lam, quantities, j_functions_from_sums(r, lam, ms))
        return SweepRow(r, lam, quantities, values, n_used, tail)
    except (RangeError, ConvergenceError) as exc:
        return SweepRow(
            r,
            lam,
            quantities,
            (None,) * len(quantities),
            n_used,
            tail,
            error=f"{type(exc).__name__}: {exc}",
        )


def run_sweep(
    spec: SweepSpec, tr: Truncation = Truncation(), parallelism: int = 1
) -> list:
    """Evaluate the grid, row order fixed as lambda ascending then the
    given (decreasing) r order; range and convergence failures are
    recorded per row instead of aborting the sweep.

    parallelism must be a nonnegative integer but no longer changes
    anything: rows run serially, since the summation holds the
    interpreter lock and worker threads only made the sweep slower.
    """
    if not isinstance(parallelism, int) or parallelism < 0:
        raise DomainError(f"parallelism must be a nonnegative integer, got {parallelism!r}")
    return [
        _build_row(r, lam, spec.quantities, tr)
        for lam in sorted(spec.lambda_values)
        for r in spec.r_values
    ]


def limit_classifier(rows: Sequence[SweepRow], quantity: str) -> Classification:
    """Classify the r -> 0 trend of one column of a fixed-lambda slice.

    Requires at least 4 r-values spanning at least 3 decades.  The
    column is divergent when the magnitudes exceed 1e3 and grow by a
    factor of at least 2 per r-decade all the way down, finite when the
    successive differences shrink, and undetermined otherwise; noisy
    data is never silently classified.
    """
    rows = sorted(rows, key=lambda row: -row.r)
    if len(rows) < 4:
        raise DomainError(f"classifier needs at least 4 rows, got {len(rows)}")
    lams = {row.lam for row in rows}
    if len(lams) != 1:
        raise DomainError(f"classifier rows must share one lambda, got {sorted(lams)}")
    if len({row.r for row in rows}) != len(rows):
        raise DomainError("classifier rows must have distinct r values")
    decades = math.log10(rows[0].r / rows[-1].r)
    if decades < 3.0 - 1e-9:
        raise DomainError(
            f"classifier needs r spanning at least 3 decades, got {decades:.2f}"
        )
    pairs = [(row.r, row.value(quantity)) for row in rows]
    if any(v is None or not math.isfinite(v) for _, v in pairs):
        return Classification("undetermined", None)
    values = [v for _, v in pairs]

    # Divergence: magnitude beyond threshold and compounding per decade.
    mags = [abs(v) for v in values]
    growing = all(
        mags[i + 1]
        >= mags[i]
        * DIVERGENCE_GROWTH_PER_DECADE ** math.log10(pairs[i][0] / pairs[i + 1][0])
        for i in range(len(mags) - 1)
    )
    if growing and mags[-1] > DIVERGENCE_MAGNITUDE and values[-1] != 0:
        if values[-2] > 0 and values[-1] > 0:
            return Classification("+inf", None)
        if values[-2] < 0 and values[-1] < 0:
            return Classification("-inf", None)
        return Classification("undetermined", None)

    scale = max(1.0, abs(values[-1]))
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    if all(d <= 1e-9 * scale for d in diffs):
        return Classification("finite", values[-1])
    shrinking = all(
        b <= a + 1e-12 * scale for a, b in zip(diffs, diffs[1:])
    )
    if shrinking and diffs[-1] < diffs[0]:
        return Classification("finite", values[-1])
    return Classification("undetermined", None)
