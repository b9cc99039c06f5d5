"""Sweeps, degeneration profiles, and the r -> 0 trend classifier."""

import math

import pytest

from annulus_metrics import hardy
from annulus_metrics.errors import DomainError
from annulus_metrics.hardy import Truncation, j_functions_on_A_r
from annulus_metrics.metrics import sample
from annulus_metrics.variation import (
    Classification,
    SweepRow,
    SweepSpec,
    asymptotic_N,
    limit_classifier,
    run_sweep,
)

PI = math.pi


# ---------------------------------------------------------------------------
# asymptotic profiles


def test_asymptotic_N_literal_forms():
    r, lam = 0.037, 0.41
    mu = 1 - lam
    n0 = (r**lam + r**mu) / (2 * PI * (1 + r))
    n1 = (1 / (4 * PI**2)) * (
        r / (1 + r) ** 2
        + ((r ** (4 * lam) + r ** (4 * mu)) + 4 * r * (r ** (2 * lam) + r ** (2 * mu)))
        / ((1 + r) * (1 + r**3))
    )
    n2 = (1 / (2 * PI**3)) * (
        (r ** (9 * lam) + r ** (9 * mu)) / ((1 + r) * (1 + r**3) * (1 + r**5))
        + r * (r ** (3 * lam) + r ** (3 * mu)) / ((1 + r) ** 2 * (1 + r**3))
    )
    assert asymptotic_N(r, lam, 0) == pytest.approx(n0, rel=1e-15)
    assert asymptotic_N(r, lam, 1) == pytest.approx(n1, rel=1e-15)
    assert asymptotic_N(r, lam, 2) == pytest.approx(n2, rel=1e-15)


def test_asymptotic_N_symmetry_and_positivity():
    for r in (1e-2, 1e-5):
        for lam in (0.2, 0.45):
            for j in (0, 1, 2):
                v = asymptotic_N(r, lam, j)
                assert v > 0
                assert v == pytest.approx(asymptotic_N(r, 1 - lam, j), rel=1e-14)


def test_asymptotic_N_domain():
    with pytest.raises(DomainError):
        asymptotic_N(0.0, 0.5, 0)
    with pytest.raises(DomainError):
        asymptotic_N(0.5, 1.0, 0)
    with pytest.raises(DomainError):
        asymptotic_N(0.5, 0.5, 3)


def test_ratio_oracles_monotone():
    # The three tracked ratios: J0 profile at lambda 0.3, J1 and J2
    # profiles at lambda 0.4; each approaches 1 with shrinking error.
    rs = (1e-2, 1e-3, 1e-4, 1e-5)

    def j0_ratio(r):
        return r**0.3 * j_functions_on_A_r(r, 0.3).j0 / asymptotic_N(r, 0.3, 0)

    def j1_ratio(r):
        return (
            r**1.2
            * j_functions_on_A_r(r, 0.4).j1
            / (asymptotic_N(r, 0.4, 1) / asymptotic_N(r, 0.4, 0))
        )

    def j2_ratio(r):
        return (
            r**2.0
            * j_functions_on_A_r(r, 0.4).j2
            / (asymptotic_N(r, 0.4, 2) / asymptotic_N(r, 0.4, 1))
        )

    for ratio in (j0_ratio, j1_ratio, j2_ratio):
        errs = [abs(ratio(r) - 1) for r in rs]
        assert all(a > b for a, b in zip(errs, errs[1:])), errs
        assert errs[-1] < 0.02


# ---------------------------------------------------------------------------
# spec and row plumbing


def test_sweep_spec_validation():
    good = SweepSpec((0.1, 0.01), (0.5,), ("c",))
    assert good.r_values == (0.1, 0.01)
    with pytest.raises(DomainError):
        SweepSpec((), (0.5,), ("c",))
    with pytest.raises(DomainError):
        SweepSpec((0.01, 0.1), (0.5,), ("c",))
    with pytest.raises(DomainError):
        SweepSpec((0.1, 0.1), (0.5,), ("c",))
    with pytest.raises(DomainError):
        SweepSpec((0.1,), (1.5,), ("c",))
    with pytest.raises(DomainError):
        SweepSpec((0.1,), (0.5,), ("volume",))
    with pytest.raises(DomainError):
        SweepSpec((0.1,), (0.5,), ("c", "c"))
    with pytest.raises(DomainError):
        SweepSpec((0.1,), (0.5,), ())


def test_run_sweep_order_and_values():
    spec = SweepSpec((1e-2, 1e-3), (0.5, 0.25), ("c", "s", "kappa_c", "kappa_s"))
    rows = run_sweep(spec)
    assert [(row.lam, row.r) for row in rows] == [
        (0.25, 1e-2),
        (0.25, 1e-3),
        (0.5, 1e-2),
        (0.5, 1e-3),
    ]
    for row in rows:
        ms = sample(row.r, row.r**row.lam)
        assert row.values == (ms.c, ms.s, ms.kappa_c, ms.kappa_s)
        assert row.error is None


def test_run_sweep_parallel_deterministic():
    spec = SweepSpec(
        (1e-2, 1e-3, 1e-4), (0.3, 0.5, 0.7), ("c", "kappa_s", "N0")
    )
    serial = run_sweep(spec, parallelism=1)
    auto = run_sweep(spec, parallelism=0)
    four = run_sweep(spec, parallelism=4)
    assert serial == auto == four
    with pytest.raises(DomainError):
        run_sweep(spec, parallelism=-1)


def test_run_sweep_takes_every_metric_value_from_sample(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep sums moments or forms J")

    monkeypatch.setattr(hardy, "moment_sums", refuse)
    monkeypatch.setattr(hardy, "j_functions_on_A_r", refuse)
    quantities = ("c", "s", "kappa_c", "kappa_s", "ratio_s_over_c", "N1")
    rows = run_sweep(SweepSpec((1e-2, 1e-8, 1e-15), (0.3, 0.5, 2 / 3), quantities))
    assert len(rows) == 9
    for row in rows:
        m = sample(row.r, row.r**row.lam)
        assert row.error is None
        assert row.values == (
            m.c, m.s, m.kappa_c, m.kappa_s, m.s / m.c, asymptotic_N(row.r, row.lam, 1)
        )


def test_run_sweep_records_errors_per_row():
    spec = SweepSpec((0.5, 1e-310), (0.5,), ("c", "s"))
    rows = run_sweep(spec)
    assert rows[0].error is None
    assert rows[1].error is not None
    assert "RangeError" in rows[1].error
    assert rows[1].values == (None, None)


def test_run_sweep_records_a_point_rounded_onto_a_circle():
    # 0.5^1e-17 rounds to 1 and 0.5^(1 - 2^-53) to 0.5, where sample
    # would raise DomainError
    rows = run_sweep(SweepSpec((0.5,), (1e-17, 1 - 2**-53), ("c", "N0")))
    for row in rows:
        assert row.error.startswith("ConvergenceError")
        assert f"lambda = {row.lam!r}" in row.error
        assert row.values == (None, None)


def test_row_value_unknown_quantity():
    row = SweepRow(0.1, 0.5, ("c",), (2.0,))
    assert row.value("c") == 2.0
    with pytest.raises(DomainError):
        row.value("s")


# ---------------------------------------------------------------------------
# classifier


def _rows(rs, vals, lam=0.5):
    return [
        SweepRow(r, lam, ("q",), (v,)) for r, v in zip(rs, vals)
    ]


RS = (1e-2, 1e-3, 1e-4, 1e-5)


def test_classifier_finite():
    vals = [2 + r**0.5 for r in RS]
    out = limit_classifier(_rows(RS, vals), "q")
    assert out.kind == "finite"
    assert out.value == pytest.approx(2.0, abs=1e-2)


def test_classifier_constant_column():
    out = limit_classifier(_rows(RS, [-4.0] * 4), "q")
    assert out == Classification("finite", -4.0)


def test_classifier_divergent_positive():
    out = limit_classifier(_rows(RS, [r**-0.75 for r in RS]), "q")
    assert out == Classification("+inf", None)


def test_classifier_divergent_negative():
    out = limit_classifier(_rows(RS, [-1 / r for r in RS]), "q")
    assert out == Classification("-inf", None)


def test_classifier_undetermined_on_noise():
    out = limit_classifier(_rows(RS, [1.0, 5.0, 2.0, 8.0]), "q")
    assert out.kind == "undetermined"


def test_classifier_undetermined_below_threshold():
    # Growing but still under the 1e3 magnitude bar: not classified.
    out = limit_classifier(_rows(RS, [2.0, 8.0, 32.0, 128.0]), "q")
    assert out.kind == "undetermined"


def test_classifier_undetermined_on_error_rows():
    rows = _rows(RS, [1.0, 1.0, 1.0, None])
    assert limit_classifier(rows, "q").kind == "undetermined"


def test_classifier_preconditions():
    with pytest.raises(DomainError):
        limit_classifier(_rows(RS[:3], [1, 1, 1]), "q")
    with pytest.raises(DomainError):
        limit_classifier(_rows((1e-2, 5e-3, 2e-3, 1e-3), [1, 1, 1, 1]), "q")
    rows = _rows(RS, [1, 1, 1, 1])
    rows[-1] = SweepRow(RS[-1], 0.7, ("q",), (1.0,))
    with pytest.raises(DomainError):
        limit_classifier(rows, "q")
    dup = _rows((1e-2, 1e-3, 1e-3, 1e-5), [1, 1, 1, 1])
    with pytest.raises(DomainError):
        limit_classifier(dup, "q")


def test_classifier_accepts_any_row_order():
    vals = [2 + r**0.5 for r in RS]
    rows = _rows(RS, vals)
    assert limit_classifier(rows[::-1], "q") == limit_classifier(rows, "q")


# ---------------------------------------------------------------------------
# limit-table classifications at unit-test scale


def test_caratheodory_column_classifications():
    spec = SweepSpec(
        (1e-2, 1e-3, 1e-4, 1e-5), (0.25, 0.5), ("c", "kappa_c")
    )
    rows = run_sweep(spec)
    half = [row for row in rows if row.lam == 0.5]
    quarter = [row for row in rows if row.lam == 0.25]
    c_half = limit_classifier(half, "c")
    assert c_half.kind == "finite"
    assert c_half.value == pytest.approx(2.0, rel=0.02)
    c_quarter = limit_classifier(quarter, "c")
    assert c_quarter.kind == "finite"
    assert c_quarter.value == pytest.approx(1.0, rel=0.02)
    assert limit_classifier(half, "kappa_c").kind == "-inf"


def test_szego_column_classifications():
    spec = SweepSpec(
        (1e-2, 1e-3, 1e-4, 1e-5), (0.25, 1 / 3), ("s", "kappa_s")
    )
    rows = run_sweep(spec)
    quarter = [row for row in rows if row.lam == 0.25]
    third = [row for row in rows if abs(row.lam - 1 / 3) < 1e-12]
    s_quarter = limit_classifier(quarter, "s")
    assert s_quarter.kind == "finite"
    assert s_quarter.value == pytest.approx(math.sqrt(2), rel=0.01)
    ks_third = limit_classifier(third, "kappa_s")
    assert ks_third.kind == "finite"
    assert ks_third.value == pytest.approx(-4.0, rel=0.01)


def test_ratio_s_over_c_divergence():
    # The seam needs the extended grid before it crosses the magnitude
    # threshold; at 1e-8 the ratio is ~2500.
    spec = SweepSpec(
        (1e-2, 1e-4, 1e-6, 1e-8), (0.5,), ("ratio_s_over_c",)
    )
    rows = run_sweep(spec)
    assert limit_classifier(rows, "ratio_s_over_c") == Classification("+inf", None)


def test_kappa_columns_lambda_symmetric():
    # z -> r/conj(z) maps lambda to 1 - lambda and keeps both curvatures
    rs = (1e-2, 1e-3, 1e-8, 1e-15)
    for lam in (0.3, 0.42, 1 / 3):
        a = run_sweep(SweepSpec(rs, (lam,), ("kappa_c", "kappa_s")))
        b = run_sweep(SweepSpec(rs, (1 - lam,), ("kappa_c", "kappa_s")))
        for ra, rb in zip(a, b):
            assert ra.value("kappa_c") == pytest.approx(rb.value("kappa_c"), rel=1e-12)
            assert ra.value("kappa_s") == pytest.approx(rb.value("kappa_s"), rel=1e-12)


def test_positive_curvature_witness():
    for r in (1e-3, 1e-4):
        J = j_functions_on_A_r(r, 4 / 9)
        ks = 4 - 2 * J.j0 * J.j2 / J.j1**2
        assert ks > 0
    # One r showing both signs across lambda.
    J_half = j_functions_on_A_r(1e-4, 0.5)
    J_edge = j_functions_on_A_r(1e-4, 0.9)
    assert 4 - 2 * J_half.j0 * J_half.j2 / J_half.j1**2 > 0
    assert 4 - 2 * J_edge.j0 * J_edge.j2 / J_edge.j1**2 < 0
