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
    RangeError,
    ShapeError,
)
from annulus_metrics import hardy, metrics
from annulus_metrics.geodesics import MetricField
from annulus_metrics.hardy import JOnAr, j_functions_on_A_r, szego_kernel_jet
from annulus_metrics.metrics import (
    MetricSample,
    boundary_asymptotics_probe,
    higher_curvature,
    metric_from_j,
    sample,
    szego_metric_wp,
)

from conftest import caratheodory_curvatures_mp, mixed_wirtinger_fd, szego_curvature_mp

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


# ---------------------------------------------------------------------------
# sample's routes: S from the kernel series, the rest from the 1psi1 product

# kappa_s = -2 (K'' K'''' - K'''^2) / K''^3 of the product in 300-digit
# mpmath at the double rho = r**lam
PRODUCT_KAPPA_S = [
    (1e-15, 2 / 3, -3.9999999999999387011),
    (1e-24, 0.9, -4.000000002009413601),
    (1e-18, 1 / 2, 3.999999999999999872),
    (1e-100, 0.3, -8.0000000000001213891e20),
    (1e-300, 0.3, -8.0000000000003656087e60),
]


def test_sample_agrees_with_the_j_route():
    # the J route's kappa_s, 4 - 2 J0 J2 / J1^2, is itself off by up to about
    # 2e-11 at a few points (3 of these 200); where the routes differ by more
    # than 1e-11, sample's kappa_s is held to 1e-12 of the mpmath product instead
    rng = np.random.default_rng(12)
    for _ in range(200):
        r, lam = rng.uniform(0.05, 0.95), rng.uniform(0.02, 0.98)
        ms = sample(r, r**lam)
        J = j_functions_on_A_r(r, lam)
        for q in ("c", "s", "kappa_c", "kappa_s"):
            got, want, tol = getattr(ms, q), metric_from_j(J, q), 1e-11
            if q == "kappa_s" and abs(got - want) > tol * abs(want):
                want, tol = float(szego_curvature_mp(r, r**lam)), 1e-12
            assert abs(got - want) <= tol * abs(want), (r, lam, q)


@pytest.mark.parametrize("r, lam, want", PRODUCT_KAPPA_S)
def test_szego_curvature_matches_mpmath_at_tiny_r(r, lam, want):
    # the plain K-formula gives -0.0 at (1e-100, 0.3) and divides by zero at 1e-300
    rho = r**lam
    assert sample(r, rho).kappa_s == pytest.approx(want, rel=1e-12)
    assert MetricField(r, "s").curvature(rho) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("r", [1e-15, 1e-100, 1e-300])
def test_curvatures_mirror_at_tiny_r(r):
    # z -> r/z exchanges lambda and 1 - lambda
    for lam in (0.02, 0.1, 0.3, 0.45, 0.49):
        a, b = sample(r, r**lam), sample(r, r ** (1 - lam))
        assert a.kappa_c == pytest.approx(b.kappa_c, rel=1e-12), lam
        assert a.kappa_s == pytest.approx(b.kappa_s, rel=1e-12), lam


def test_sample_at_the_waist_of_a_tiny_annulus():
    # the J route cancels J2 to zero here
    ms = sample(1e-18, 1e-9)
    assert ms.c == pytest.approx(2.0, rel=1e-12)
    assert ms.s == pytest.approx(5e8, rel=1e-12)
    assert ms.kappa_s == pytest.approx(4.0, rel=1e-12)


def test_sample_past_double_range_is_a_range_error():
    # kappa_c is about -1/(4r) at the waist
    with pytest.raises(RangeError, match=r"\|z\| = .* r = 1e-310"):
        sample(1e-310, 1e-155)


def test_sample_kernel_overshoot_is_a_convergence_error():
    # next to the inner circle of r = 1e-300 the frame of the kernel series
    # is off by eps / (1 - lambda), so c would exceed s, which the product
    # gives to a few ulps
    with pytest.raises(ConvergenceError, match="missed its tolerance"):
        sample(1e-300, 1.001e-300)


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


@pytest.mark.parametrize("r", [1e-25, 1e-40, 1e-45])
def test_szego_metric_wp_cancellation_is_a_range_error(r):
    # at lambda = 0.3 the two p values agree to their last bits; it used to
    # return 316.22918 against sample's 316.22935 at 1e-25, 12904.8 against
    # 10000.0 at 1e-40, and raise InternalConsistencyError from 1e-45 on
    with pytest.raises(RangeError, match=rf"\|z\| = .* with r = {r!r} cancels past 1e-9"):
        szego_metric_wp(r, r**0.3)


def test_szego_metric_wp_answers_within_its_rounding_bound():
    for r in (1e-15, 1e-18):
        for lam in (0.1, 0.3, 0.5):
            s = sample(r, r**lam).s
            assert szego_metric_wp(r, r**lam) == pytest.approx(s, rel=1e-9), (r, lam)


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


def _circle_points(r, gap):
    # the distance gap (1 - r) from each circle, and the plain gap
    return (1 - gap * (1 - r), r + gap * (1 - r), 1 - gap, r * (1 + gap))


HC_GRID = [
    (r, rho)
    for r in (0.95, 0.5, 0.2, 1e-3, 1e-8, 1e-12, 1e-15)
    for rho in [r**lam for lam in (0.1, 0.3, 0.45, 0.5, 0.55, 0.7, 0.9)]
    + list(_circle_points(r, 1e-9) if r >= 1e-3 else ())
]


def test_higher_curvature_szego_n1_is_sample_kappa_s():
    for r, z in ((0.5, 0.7), (0.3, 0.45 * cmath.exp(1.2j)), (1e-15, 1e-7), (0.9, 0.95)):
        assert higher_curvature(r, z, 1, "szego") == sample(r, z).kappa_s


def test_higher_curvature_caratheodory_n1_matches_sample():
    # c comes from the product here and from the Laurent series in sample
    rng = np.random.default_rng(16)
    for _ in range(50):
        r, lam = rng.uniform(0.02, 0.95), rng.uniform(0.02, 0.98)
        z = r**lam * cmath.exp(1j * rng.uniform(-PI, PI))
        want = sample(r, z).kappa_c
        assert abs(higher_curvature(r, z, 1, "caratheodory") - want) <= 1e-11 * abs(want)


@pytest.mark.parametrize("r, rho", HC_GRID)
def test_higher_curvature_matches_mpmath(r, rho):
    # at the same double rho: near a circle K'' is as sensitive as 1/(1 - rho)
    want1, want2 = caratheodory_curvatures_mp(r, rho)
    got1 = higher_curvature(r, rho, 1, "caratheodory")
    got2 = higher_curvature(r, rho, 2, "caratheodory")
    assert abs(got1 - want1) <= 1e-11 * abs(want1)
    assert abs(got2 - want2) <= 1e-11 * abs(want2)


def test_higher_curvature_is_the_laurent_jet_determinant():
    # the Laurent route: -4 det(d^j dbar^k c) / c^9 from 2 pi times the kernel jet
    for r, z in ((0.5, 0.7), (0.3, 0.45 * cmath.exp(1.2j)), (0.05, 0.2 * cmath.exp(-2.5j))):
        jet = szego_kernel_jet(r, z, 2).coeffs * (2 * PI)
        c = jet[0, 0].real
        for N in (1, 2):
            want = -4.0 * np.linalg.det(jet[: N + 1, : N + 1]).real / c ** ((N + 1) ** 2)
            assert higher_curvature(r, z, N, "caratheodory") == pytest.approx(want, rel=1e-9)


def test_order_two_curvature_is_kappa_c_cubed_times_the_szego_gap():
    # -4 D / (|z| c)^6 = kappa_c^3 (4 - kappa_s) / 32, taken where 4 - kappa_s does not cancel
    for r, rho in ((0.5, 0.7), (0.2, 0.3), (1e-3, 0.1), (0.9, 0.93)):
        kc = higher_curvature(r, rho, 1, "caratheodory")
        ks = higher_curvature(r, rho, 1, "szego")
        want = kc**3 * (4.0 - ks) / 32.0
        assert higher_curvature(r, rho, 2, "caratheodory") == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("r", [0.5, 1e-3, 1e-8, 1e-15])
def test_higher_curvature_mirrors_lambda(r):
    # z -> r/z exchanges lambda and 1 - lambda
    for lam in (0.02, 0.1, 0.3, 0.45, 0.49):
        for N in (1, 2):
            a = higher_curvature(r, r**lam, N, "caratheodory")
            b = higher_curvature(r, r ** (1 - lam), N, "caratheodory")
            assert a == pytest.approx(b, rel=1e-12), (lam, N)


@pytest.mark.parametrize("r", [0.05, 0.5, 0.95])
def test_higher_curvature_at_1e_9_from_a_circle(r):
    # the Laurent jets raise ConvergenceError here; the product does not
    for rho in _circle_points(r, 1e-9):
        assert higher_curvature(r, rho, 1, "caratheodory") == pytest.approx(-4.0, abs=1e-6)
        assert higher_curvature(r, rho, 2, "caratheodory") == pytest.approx(-16.0, abs=1e-6)
        assert higher_curvature(r, rho, 1, "szego") == pytest.approx(-4.0, abs=1e-6)


def test_higher_curvature_sums_no_laurent_series(monkeypatch):
    # the same cost at every |z|: no series whose pair count grows near a circle
    def refuse(*args, **kwargs):
        raise AssertionError("higher_curvature summed a Laurent series")

    monkeypatch.setattr(hardy, "_series", refuse)
    monkeypatch.setattr(metrics, "szego_kernel_jet", refuse)
    for r in (0.5, 1e-3):
        for rho in (0.5 * (1 + r), *_circle_points(r, 1e-9)):
            for N, which in ((1, "caratheodory"), (2, "caratheodory"), (1, "szego")):
                assert math.isfinite(higher_curvature(r, rho, N, which))


def test_higher_curvature_past_double_range_is_a_range_error():
    # -4 D / (|z| c)^6 is about -6e398 at the waist of r = 1e-200
    with pytest.raises(RangeError, match=r"\|z\| = .* r = 1e-200"):
        higher_curvature(1e-200, 1e-100, 2, "caratheodory")


@pytest.mark.parametrize("N", [1, 2])
def test_higher_curvature_with_c_past_double_range_is_a_range_error(N):
    # next to the inner circle of r = 1e-305 c itself is past double range,
    # which math.exp raised as a bare OverflowError
    r = 1e-305
    with pytest.raises(RangeError, match=r"\|z\| = .* with r = 1e-305"):
        higher_curvature(r, r ** (1.0 - 1e-12), N, "caratheodory")


SUBNORMAL_ENTRIES = {
    "sample": sample,
    "szego_kernel": lambda r, z: hardy.szego_kernel(r, z, z),
    "szego_metric_wp": szego_metric_wp,
    "curvature_c": lambda r, z: MetricField(r, "c").curvature(z),
}

SUBNORMAL_CASES = {
    # at r = 1e-310 the kernel's frame r^(-lambda) is past double range,
    # which used to surface as a bare OverflowError
    "sample-0.999": (1e-310, 1e-310**0.999),
    "sample-0.9999": (1e-310, 1e-310**0.9999),
    "szego_kernel-0.999": (1e-310, 1e-310**0.999),
    "szego_kernel-0.9999": (1e-310, 1e-310**0.9999),
    # the values below used to come back as infinities
    "szego_kernel-r1e-308": (1e-308, 1e-308 ** (1 - 1e-6)),
    "szego_metric_wp-r1e-308": (1e-308, 1e-308 ** (1 - 1e-6)),
    "szego_metric_wp-0.999": (1e-310, 1e-310**0.999),
    "szego_metric_wp-r1e-310": (1e-310, 1e-310 ** (1 - 1e-6)),
    # kappa_c at the waist is about -1/(4r), past double range
    "curvature_c-r1e-310": (1e-310, math.sqrt(1e-310)),
    "curvature_c-r5e-324": (5e-324, math.sqrt(5e-324)),
}


@pytest.mark.parametrize("case", list(SUBNORMAL_CASES))
def test_subnormal_r_next_to_the_inner_circle_is_a_range_error(case):
    r, z = SUBNORMAL_CASES[case]
    call = SUBNORMAL_ENTRIES[case.split("-")[0]]
    with pytest.raises(RangeError, match=rf"\|z\| = .* with r = {r!r}"):
        call(r, z)


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
