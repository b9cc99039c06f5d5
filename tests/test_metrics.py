"""Metric layer: densities, curvatures, probes, and dual-route checks."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annulus_metrics.errors import (
    ConvergenceError,
    DomainError,
    InternalConsistencyError,
    PoleError,
    ShapeError,
)
from annulus_metrics.hardy import JOnAr
from annulus_metrics.metrics import (
    MetricSample,
    boundary_asymptotics_probe,
    capacity_log_laplacian,
    capacity_metric,
    higher_curvature,
    metric_from_j,
    sample,
    szego_log_density_laplacian_wp,
    szego_metric_wp,
)

from conftest import mixed_wirtinger_fd

PI = math.pi


# ---------------------------------------------------------------------------
# sample: invariants and disc limits


@pytest.mark.parametrize(
    "r, z", [(0.1, math.nextafter(0.1, 1.0)), (0.5, math.nextafter(1.0, 0.0))]
)
def test_sample_one_ulp_inside_a_circle_is_a_convergence_error(r, z):
    # lambda = log|z| / log r, or the rescaled annulus, rounds onto a circle
    match = rf"\|z\| = .*{re.escape(repr(z))} .*r = {re.escape(repr(r))}"
    with pytest.raises(ConvergenceError, match=match):
        sample(r, z)


def test_sample_basic_fields():
    ms = sample(0.5, 0.7)
    assert ms.z == 0.7 + 0j
    assert ms.c == 2 * PI * ms.S
    assert ms.s >= ms.c
    assert ms.kappa_s <= 4
    assert ms.kappa_c <= -4


def test_metric_from_j_names_its_quantities():
    J = JOnAr(1.0, 2.0, 3.0)
    assert metric_from_j(J, "c") == 2.0 * math.pi
    assert metric_from_j(J, "s") == math.sqrt(2.0)
    assert metric_from_j(J, "kappa_s") == 4.0 - 2.0 * 3.0 / 4.0
    with pytest.raises(DomainError, match="kappa_c or kappa_s, got 'N1'"):
        metric_from_j(J, "N1")


def test_sample_domain_errors():
    with pytest.raises(DomainError):
        sample(0.5, 0.4)
    with pytest.raises(DomainError):
        sample(0.5, 1.0)
    with pytest.raises(DomainError):
        sample(0.5, 0.5)
    with pytest.raises(DomainError):
        sample(1.5, 0.7)


def test_sample_rotation_invariance():
    a = sample(0.3, 0.6)
    b = sample(0.3, 0.6 * cmath.exp(2.1j))
    for name in ("S", "c", "s", "kappa_c", "kappa_s"):
        x, y = getattr(a, name), getattr(b, name)
        assert x == pytest.approx(y, rel=1e-13), name


def test_disc_limit_of_caratheodory():
    # Small r at fixed z: both densities approach the disc value
    # 1/(1 - |z|^2) from above, and the gap shrinks with r.
    disc = 1 / (1 - 0.25)
    gaps = []
    for r in (1e-2, 1e-3, 1e-4):
        ms = sample(r, 0.5)
        assert ms.c >= disc - 1e-12
        gaps.append(ms.c - disc)
    assert gaps[0] > gaps[1] > gaps[2] > 0
    assert abs(sample(0.01, 0.5).c - disc) <= 0.05 * disc
    assert abs(sample(0.01, 0.5).s - disc) <= 0.05 * disc


def test_mobius_competitor_lower_bound():
    # The disc Mobius map vanishing at z0 restricts to a competitor on
    # the annulus, so 1/(1-|z0|^2) <= c everywhere, any r.
    for r in (0.05, 0.3, 0.6):
        for z0 in (0.4, 0.62, 0.8):
            if not (r < z0 < 1):
                continue
            ms = sample(r, z0)
            assert ms.c >= 1 / (1 - z0 * z0) - 1e-12


def test_curvature_lambda_reflection():
    # z -> r/z is a self-map exchanging lambda and 1 - lambda, and the
    # curvatures are conformal invariants.
    r = 0.2
    for lam in (0.2, 0.3, 0.45):
        a = sample(r, r**lam)
        b = sample(r, r ** (1 - lam))
        assert a.kappa_c == pytest.approx(b.kappa_c, rel=1e-8)
        assert a.kappa_s == pytest.approx(b.kappa_s, rel=1e-8)


def test_ratio_s_over_c_grows_on_seam():
    vals = [sample(r, math.sqrt(r)).s / sample(r, math.sqrt(r)).c
            for r in (1e-2, 1e-4, 1e-6)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 10


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.02, max_value=0.9),
    st.floats(min_value=0.03, max_value=0.97),
    st.floats(min_value=-PI, max_value=PI),
)
def test_sample_invariants_random(r, lam, theta):
    ms = sample(r, r**lam * cmath.exp(1j * theta))
    assert ms.s >= ms.c * (1 - 1e-12)
    assert ms.kappa_s <= 4 + 1e-9
    assert ms.kappa_c <= -4 + 1e-9


def test_metric_sample_validation():
    with pytest.raises(InternalConsistencyError):
        MetricSample(0.5, 1.0, 2 * PI, 5.0, -5.0, 5.0)  # kappa_s > 4
    with pytest.raises(InternalConsistencyError):
        MetricSample(0.5, 1.0, 2 * PI, 5.0, -3.0, 3.0)  # kappa_c > -4
    with pytest.raises(InternalConsistencyError):
        MetricSample(0.5, 1.0, 2 * PI, 1.0, -5.0, 3.0)  # s < c
    with pytest.raises(InternalConsistencyError):
        MetricSample(0.5, -1.0, 2 * PI, 7.0, -5.0, 3.0)  # S <= 0


# ---------------------------------------------------------------------------
# dual-route agreement: series vs elliptic closed form


@pytest.mark.parametrize("r", [0.3, 0.5, 0.8])
def test_szego_metric_routes_agree(r):
    rng = np.random.default_rng(hash(r) % 2**32)
    for _ in range(100):
        lam = rng.uniform(0.02, 0.98)
        theta = rng.uniform(-PI, PI)
        z = r**lam * cmath.exp(1j * theta)
        s_series = sample(r, z).s
        s_closed = szego_metric_wp(r, z)
        assert abs(s_series - s_closed) <= 1e-8 * s_closed


def test_szego_metric_wp_disc_limit():
    want = 1 / (1 - 0.36)
    got = szego_metric_wp(1e-8, 0.6)
    assert abs(got - want) <= 1e-6 * want


def test_szego_metric_wp_pole_near_boundary():
    with pytest.raises(PoleError):
        szego_metric_wp(0.5, 1 - 1e-8)


def test_curvature_against_fd_laplacian():
    # kappa = -(4 d dbar log m)/m^2 by definition; the FD route uses
    # only pointwise density values, the sample route only series jets.
    r, z = 0.4, 0.62 + 0.2j
    ms = sample(r, z)

    def log_c(p):
        return complex(math.log(sample(r, complex(p)).c))

    def log_s_wp(p):
        return complex(math.log(szego_metric_wp(r, complex(p))))

    dd_c = complex(mixed_wirtinger_fd(log_c, z, 1, 1, h=1e-4)).real
    dd_s = complex(mixed_wirtinger_fd(log_s_wp, z, 1, 1, h=1e-4)).real
    kc_fd = -4 * dd_c / ms.c**2
    ks_fd = -4 * dd_s / ms.s**2
    assert kc_fd == pytest.approx(ms.kappa_c, rel=1e-4)
    assert ks_fd == pytest.approx(ms.kappa_s, rel=1e-4)


# ---------------------------------------------------------------------------
# capacity metric


def test_capacity_metric_positive_and_rotation_invariant():
    r = 0.5
    for rho in (0.55, 0.7, 0.9):
        v = capacity_metric(r, rho)
        assert v > 0
        assert capacity_metric(r, rho * cmath.exp(0.8j)) == pytest.approx(
            v, rel=1e-13
        )


def test_capacity_log_laplacian_positive():
    for r in (0.2, 0.5, 0.8):
        for lam in np.linspace(0.05, 0.95, 13):
            assert capacity_log_laplacian(r, r**lam) > 0


def test_capacity_log_laplacian_matches_fd():
    r = 0.5

    def log_cb(p):
        return complex(math.log(capacity_metric(r, complex(p))))

    for z in (0.6, 0.75 * cmath.exp(0.5j)):
        fd = complex(mixed_wirtinger_fd(log_cb, z, 1, 1, h=1e-4)).real
        closed = capacity_log_laplacian(r, z)
        assert abs(fd - closed) <= 1e-5 * max(1.0, abs(closed))


def test_log_kernel_laplacian_decomposition():
    # d dbar log S splits into the capacity part and the sigma2-star
    # part; the left side is measured by finite differences of the
    # series kernel, the right side comes from the elliptic forms.
    from annulus_metrics.hardy import szego_kernel

    r = 0.45
    rng = np.random.default_rng(7)
    for _ in range(20):
        lam = rng.uniform(0.1, 0.9)
        theta = rng.uniform(-PI, PI)
        z = r**lam * cmath.exp(1j * theta)

        def log_S(p):
            pc = complex(p)
            return complex(math.log(szego_kernel(r, pc, pc).real))

        lhs = complex(mixed_wirtinger_fd(log_S, z, 1, 1, h=1e-4)).real
        rhs = capacity_log_laplacian(r, z) + szego_log_density_laplacian_wp(r, z)
        assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(rhs))


def test_szego_density_identity():
    # s^2 equals the sum of the two closed-form laplacians exactly.
    r = 0.5
    for rho in (0.55, 0.7, 0.85):
        s2 = szego_metric_wp(r, rho) ** 2
        total = capacity_log_laplacian(r, rho) + szego_log_density_laplacian_wp(r, rho)
        assert s2 == pytest.approx(total, rel=1e-12)


# ---------------------------------------------------------------------------
# higher curvature


def test_higher_curvature_n1_matches_gaussian():
    for r, z in ((0.5, 0.7), (0.3, 0.45 * cmath.exp(1.2j))):
        ms = sample(r, z)
        kc = higher_curvature(r, z, 1, "caratheodory")
        ks = higher_curvature(r, z, 1, "szego")
        assert kc == pytest.approx(ms.kappa_c, rel=1e-6)
        assert ks == pytest.approx(ms.kappa_s, rel=1e-6)


def test_higher_curvature_boundary_limits():
    r = 0.5
    rho = 1 - 2**-10
    assert higher_curvature(r, rho, 1, "caratheodory") == pytest.approx(
        -4.0, rel=1e-3
    )
    assert higher_curvature(r, rho, 2, "caratheodory") == pytest.approx(
        -16.0, rel=1e-3
    )
    # Inner circle by the same contract.
    rho_in = r * (1 + 2**-10)
    assert higher_curvature(r, rho_in, 1, "caratheodory") == pytest.approx(
        -4.0, rel=1e-2
    )
    assert higher_curvature(r, rho_in, 2, "caratheodory") == pytest.approx(
        -16.0, rel=1e-2
    )


def test_higher_curvature_contract_errors():
    with pytest.raises(ShapeError):
        higher_curvature(0.5, 0.7, 2, "szego")
    with pytest.raises(DomainError):
        higher_curvature(0.5, 0.7, 3, "caratheodory")
    with pytest.raises(DomainError):
        higher_curvature(0.5, 0.7, 0, "caratheodory")
    with pytest.raises(DomainError):
        higher_curvature(0.5, 0.7, 1, "bergman")
    with pytest.raises(DomainError):
        higher_curvature(0.5, 1.2, 1, "szego")


# ---------------------------------------------------------------------------
# boundary probes


def test_probe_outer_kernel_limit():
    res = boundary_asymptotics_probe(0.5, 0, 0, [1 - 2**-k for k in range(3, 12)])
    assert res.psi == "|z|^2-1"
    errs = [abs(v - 1 / (2 * PI)) for v in res.values]
    assert errs[-1] <= 1e-4 / (2 * PI)
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_probe_outer_derivatives():
    pts = [1 - 2**-k for k in range(3, 13)]
    one0 = boundary_asymptotics_probe(0.5, 1, 0, pts)
    assert one0.values[-1] == pytest.approx(1 / (2 * PI), rel=1e-3)
    one1 = boundary_asymptotics_probe(0.5, 1, 1, pts)
    assert one1.values[-1] == pytest.approx(2 / (2 * PI), rel=1e-2)
    two0 = boundary_asymptotics_probe(0.5, 2, 0, pts)
    assert two0.values[-1] == pytest.approx(2 / (2 * PI), rel=1e-2)


def test_probe_inner_limits():
    r = 0.5
    pts = [r * (1 + 2**-k) for k in range(3, 13)]
    zero = boundary_asymptotics_probe(r, 0, 0, pts, boundary="inner")
    assert zero.psi == "r^2-|z|^2"
    assert zero.values[-1] == pytest.approx(r / (2 * PI), rel=1e-3)
    # dpsi = -conj(z) at |z| = r gives the sign flip per z-derivative.
    one0 = boundary_asymptotics_probe(r, 1, 0, pts, boundary="inner")
    assert one0.values[-1] == pytest.approx(-(r**2) / (2 * PI), rel=1e-2)


def test_probe_szego_metric_boundary():
    # The metric analog of the kernel probe: s(rho)(1 - rho^2) -> 1.
    vals = [szego_metric_wp(0.5, 1 - 2**-k) * (1 - (1 - 2**-k) ** 2)
            for k in range(3, 13)]
    assert vals[-1] == pytest.approx(1.0, rel=1e-3)
    errs = [abs(v - 1) for v in vals]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_probe_domain_errors():
    with pytest.raises(DomainError):
        boundary_asymptotics_probe(0.5, 2, 1, [0.9])
    with pytest.raises(DomainError):
        boundary_asymptotics_probe(0.5, -1, 0, [0.9])
    with pytest.raises(DomainError):
        boundary_asymptotics_probe(0.5, 0, 0, [1.1])
    with pytest.raises(DomainError):
        boundary_asymptotics_probe(0.5, 0, 0, [0.9], boundary="top")
