"""Hardy-space weights, moment sums, kernel, and extremal data of annuli."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annulus_metrics import hardy
from annulus_metrics.errors import (
    ConvergenceError,
    DomainError,
    InternalConsistencyError,
    RangeError,
)
from annulus_metrics.hardy import (
    HARD_CAP,
    GeneralAnnulus,
    MomentSums,
    Truncation,
    alpha_n,
    extremal_function_value,
    j_functions_at_one,
    j_functions_on_A_r,
    moment_sums,
    szego_kernel,
    szego_kernel_jet,
    unit_annulus,
)
from annulus_metrics.geodesics import MetricField
from annulus_metrics.metrics import higher_curvature, sample

from conftest import mixed_wirtinger_fd

PI = math.pi


def brute_moment(r_in, r_out, j, half_terms=25_000):
    """Direct unpaired sum of n^j / alpha_n.

    Guarded against float overflow in the raw powers: terms whose
    denominator exceeds the float range are below 1e-300 and dropped.
    """
    total = 0.0
    for n in range(-half_terms, half_terms + 1):
        try:
            d = r_in ** (2 * n + 1) + r_out ** (2 * n + 1)
        except OverflowError:
            continue
        if not math.isfinite(d):
            continue
        total += n**j / (2 * PI * d)
    return total


# ---------------------------------------------------------------------------
# domains and weights


def test_annulus_validation():
    with pytest.raises(DomainError):
        GeneralAnnulus(0.5, 0.5)
    with pytest.raises(DomainError):
        GeneralAnnulus(-0.1, 2.0)
    with pytest.raises(DomainError):
        GeneralAnnulus(2.0, 1.0)
    with pytest.raises(DomainError):
        GeneralAnnulus(float("nan"), 2.0)
    with pytest.raises(DomainError):
        unit_annulus(1.0)
    with pytest.raises(DomainError):
        unit_annulus(0.0)
    assert GeneralAnnulus(0.5, 2.0).contains_one
    assert not GeneralAnnulus(1.5, 2.0).contains_one
    a = unit_annulus(0.3)
    assert a.r_in == 0.3 and a.r_out == 1.0


def test_truncation_validation():
    with pytest.raises(DomainError):
        Truncation(tail_tol=0.0)
    with pytest.raises(DomainError):
        Truncation(tail_tol=-1e-9)
    with pytest.raises(DomainError, match=r"tail_tol must lie in \(0, 1e-2\], got 0\.5"):
        Truncation(tail_tol=0.5)


def test_alpha_examples():
    a = GeneralAnnulus(0.5, 2.0)
    assert alpha_n(a, 0) == pytest.approx(5 * PI, rel=1e-15)
    assert alpha_n(a, 1) == pytest.approx(2 * PI * (0.5**3 + 2.0**3), rel=1e-14)
    assert alpha_n(a, -1) == pytest.approx(2 * PI * (2.0 + 0.5), rel=1e-14)


def test_alpha_symmetric_pairing():
    # On A(r, 1/r) the weight is even under n -> -n-1 up to the rounding
    # in log(1/r), which is not the exact negative of log(r).
    a = GeneralAnnulus(0.9, 1 / 0.9)
    for n in (0, 1, 2, 5, 11):
        x, y = alpha_n(a, n), alpha_n(a, -n - 1)
        assert abs(x - y) <= 1e-12 * x


def test_alpha_growth_ratio():
    a = GeneralAnnulus(0.3, 2.5)
    # Large positive n: alpha is dominated by the outer radius power.
    assert alpha_n(a, 41) / alpha_n(a, 40) == pytest.approx(2.5**2, rel=1e-12)
    # Large negative n: dominated by the inner radius power.
    assert alpha_n(a, -41) / alpha_n(a, -40) == pytest.approx(0.3**-2, rel=1e-12)


def test_alpha_overflow_raises():
    with pytest.raises(RangeError):
        alpha_n(unit_annulus(0.5), -600)
    with pytest.raises(RangeError):
        alpha_n(GeneralAnnulus(0.5, 4.0), 300)


# ---------------------------------------------------------------------------
# moment sums


def test_moment_sums_against_brute_force():
    a = GeneralAnnulus(0.9, 1 / 0.9)
    ms = moment_sums(a, 4)
    for j in range(5):
        brute = brute_moment(0.9, 1 / 0.9, j)
        scale = max(abs(brute), 1e-30)
        assert abs(ms.s[j] - brute) <= 1e-12 * scale


def test_moment_sums_brute_asymmetric():
    a = GeneralAnnulus(0.55, 1.7)
    ms = moment_sums(a, 3)
    for j in range(4):
        brute = brute_moment(0.55, 1.7, j)
        assert abs(ms.s[j] - brute) <= 1e-12 * max(abs(brute), 1e-30)


def test_symmetric_annulus_first_moment():
    # Pairing n <-> -n-1 on A(r, 1/r) forces s1 = -s0/2.
    ms = moment_sums(GeneralAnnulus(0.7, 1 / 0.7), 1)
    assert ms.s[1] == pytest.approx(-ms.s[0] / 2, rel=1e-13)


def test_moment_sums_metadata():
    ms = moment_sums(GeneralAnnulus(0.5, 2.0), 2)
    assert ms.n_used >= 1
    assert 0 <= ms.tail_bound < 1e-11
    assert ms.annulus == GeneralAnnulus(0.5, 2.0)
    assert len(ms.s) == 3


def test_moment_sums_tighter_truncation_agrees():
    a = GeneralAnnulus(0.8, 1.3)
    loose = moment_sums(a, 4, Truncation(tail_tol=1e-12))
    tight = moment_sums(a, 4, Truncation(tail_tol=1e-15))
    for x, y in zip(loose.s, tight.s):
        assert abs(x - y) <= 1e-12 * max(abs(y), 1e-30)


def test_moment_sums_domain_errors():
    with pytest.raises(DomainError):
        moment_sums(GeneralAnnulus(1.5, 2.0), 2)
    with pytest.raises(DomainError):
        moment_sums(GeneralAnnulus(0.5, 2.0), -1)
    with pytest.raises(DomainError):
        moment_sums(GeneralAnnulus(0.5, 2.0), 9)
    with pytest.raises(DomainError):
        moment_sums(GeneralAnnulus(0.5, 2.0), 2.5)


def test_moment_sums_convergence_error():
    # Radii this close to 1 need about 1e9 terms, far past the hard cap.
    a = GeneralAnnulus(1 - 1e-9, 1 + 1e-9)
    with pytest.raises(ConvergenceError):
        moment_sums(a, 0)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=1.05, max_value=8.0),
)
def test_cauchy_schwarz_gap_positive(r_in, r_out):
    J = j_functions_at_one(GeneralAnnulus(r_in, r_out))
    assert J.coeffs.gap > 0
    assert J.j0 > 0 and J.j1 > 0 and J.j2 > 0


# ---------------------------------------------------------------------------
# kernel


def test_kernel_disc_limit():
    # Small inner radius: the annulus kernel approaches the disc kernel
    # 1/(2 pi (1 - z wbar)) with error of order r/|z w|.
    for z, w in ((0.5, 0.5), (0.3 + 0.4j, -0.2 + 0.6j)):
        got = szego_kernel(1e-10, z, w)
        want = 1 / (2 * PI * (1 - z * np.conj(w)))
        assert abs(got - want) <= 1e-8 * abs(want)


def test_kernel_hermitian():
    z, w = 0.5 + 0.2j, 0.4 - 0.3j
    assert szego_kernel(0.3, z, w) == szego_kernel(0.3, w, z).conjugate()


def test_kernel_rotation_invariance():
    z, w = 0.5 + 0.2j, -0.35 + 0.4j
    ph = cmath.exp(0.7j)
    a = szego_kernel(0.3, z * ph, w * ph)
    b = szego_kernel(0.3, z, w)
    assert abs(a - b) <= 1e-14 * abs(b)


def test_kernel_inversion_covariance():
    # z -> r/z maps the annulus to itself; the kernel transforms with
    # the factor phi'(z) conj(phi'(w)) ** (1/2) pattern, which on the
    # diagonal reads S(rho, rho) = (r / rho^2) S(r/rho, r/rho).
    r = 0.2
    for rho in (r**0.3, r**0.5, r**0.8):
        lhs = szego_kernel(r, rho, rho).real
        rhs = (r / rho**2) * szego_kernel(r, r / rho, r / rho).real
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_kernel_positive_on_diagonal():
    for r in (0.1, 0.5, 0.9):
        for t in (0.1, 0.5, 0.9):
            rho = r ** (1 - t)
            v = szego_kernel(r, rho, rho)
            assert v.imag == 0
            assert v.real > 0


def test_kernel_series_spot_check():
    # Tiny hand sum at r = 0.5, z = w = 0.7: dominant terms n = -2..2.
    r, rho = 0.5, 0.7
    direct = sum(
        rho ** (2 * n) / (1 + r ** (2 * n + 1)) for n in range(-40, 41)
    ) / (2 * PI)
    assert szego_kernel(r, rho, rho).real == pytest.approx(direct, rel=1e-13)


def test_kernel_domain_errors():
    with pytest.raises(DomainError):
        szego_kernel(0.3, 0.2, 0.5)
    with pytest.raises(DomainError):
        szego_kernel(0.3, 0.5, 1.0)
    with pytest.raises(DomainError):
        szego_kernel(0.3, 0.3, 0.5)
    with pytest.raises(DomainError):
        szego_kernel(1.2, 0.5, 0.5)


def test_kernel_convergence_error_near_boundary():
    z = 1 - 1e-8
    with pytest.raises(ConvergenceError):
        szego_kernel(0.3, z, z)


def test_series_errors_name_the_series_the_point_and_the_pairs():
    z = 1 - 1e-8
    message = (
        r"kernel series at \|z\| = 0\.99999999, \|w\| = 0\.99999999 with r = 0\.3"
        rf" did not meet tail_tol=1e-12 with 512 pairs doubled up to the cap of {HARD_CAP}"
    )
    with pytest.raises(ConvergenceError, match=message):
        szego_kernel(0.3, z, z)


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda: szego_kernel(0.3, 1 - 1e-8, 1 - 1e-8), r"kernel series at \|z\| = 0\.99999999"),
        (
            lambda: moment_sums(GeneralAnnulus(1 - 1e-9, 1 + 1e-9), 4),
            r"moment sums on the annulus \(0\.999999999, 1\.000000001\)",
        ),
    ],
)
def test_series_gives_up_after_one_pass(monkeypatch, call, what):
    # near a circle the tail bound at HARD_CAP pairs already fails, so the
    # sum raises after its first pass instead of doubling up to the cap
    sizes = []
    log_alpha = hardy._log_alpha

    def counted(log_rin, log_rout, n):
        sizes.append(np.size(n))
        return log_alpha(log_rin, log_rout, n)

    monkeypatch.setattr(hardy, "_log_alpha", counted)
    message = what + rf".* did not meet tail_tol=1e-12 with 512 pairs doubled up to the cap of {HARD_CAP}"
    with pytest.raises(ConvergenceError, match=message):
        call()
    # one pass of 513 terms on each side, then the two terms at the cap
    assert sizes == [513, 513, 2]


def kernel_log_jet_mp(r, rho, top=3):
    """K(v) = log 2*pi*S(z, z), v = log|z|^2, and top derivatives, to 40 digits.

    mpmath differentiates the 1psi1 product numerically; the working
    precision grows with -log10(r) so that derivatives far below K itself
    (K'' is about sqrt(r) at the quarter points of a tiny r) stay resolved.
    """
    with mpmath.workdps(60 + int(-math.log10(r))):
        r = mpmath.mpf(r)
        q = r * r
        n = int(mpmath.ceil((mpmath.mp.dps + 5) / (-2 * mpmath.log10(r)))) + 2

        def k(v):
            t = mpmath.exp(v)
            num = den = qj = mpmath.mpf(1)
            for _ in range(n):
                num *= (1 - q * qj) ** 2 * (1 + r * qj * t) * (1 + r * qj / t)
                den *= (1 + r * qj) ** 2 * (1 - qj * t) * (1 - q * qj / t)
                qj *= q
            return mpmath.log(num / den)

        return list(mpmath.diffs(k, 2 * mpmath.log(mpmath.mpf(rho)), top))


@pytest.mark.parametrize("r", [1e-300, 1e-8, 0.02, 0.3, 0.9])
def test_diagonal_product_matches_mpmath(r):
    # c = e^K, d/dz log c^2 = 2K'/z, s = sqrt(K'')/|z| and
    # d/dz log s^2 = (K'''/K'' - 1)/z at the quarter points and the waist
    # in log|z|, and 1e-9 (relative) from each circle; along the real axis
    # the 1/z is common to both routes, so the checks compare the v-jets
    product = hardy._DiagonalProduct(r)
    for rho in (r / (1 - 1e-9), r**0.75, math.sqrt(r), r**0.25, 1 - 1e-9):
        k0, k1, k2, k3_less_k2 = product.jet(rho, (0, 1, 2, 3))
        ref = kernel_log_jet_mp(r, rho)
        with mpmath.workdps(40):
            # e^K overflows next to the inner circle of r = 1e-300
            assert abs(mpmath.expm1(k0 - ref[0])) <= 1e-13
            # K' (so d log c^2) crosses zero where c is least, near r^(1/4)
            # for small r, so there it is held to K'' = dK'/dv instead
            assert abs(k1 - ref[1]) <= 1e-13 * max(abs(ref[1]), ref[2])
            assert abs(mpmath.sqrt(k2 / ref[2]) - 1) <= 1e-13
            assert abs(k3_less_k2 / k2 / (ref[3] / ref[2] - 1) - 1) <= 1e-13


@pytest.mark.parametrize("r", [1e-300, 1e-100, 1e-18, 1e-8, 0.02, 0.3])
def test_diagonal_product_szego_curvature_matches_mpmath(r):
    # kappa_s = -2 (K'' K'''' - K'''^2) / K''^3 at the points above and at
    # r^0.3, where for tiny r the numerator is r^(1/5) of its parts (-0.0
    # from plain products at r = 1e-100) and K''^3 underflows at r = 1e-300
    product = hardy._DiagonalProduct(r)
    for rho in (r / (1 - 1e-9), r**0.75, math.sqrt(r), r**0.3, r**0.25, 1 - 1e-9):
        k = kernel_log_jet_mp(r, rho, 4)
        k2, kappa = product.szego(rho)
        with mpmath.workdps(400):
            want = -2 * (k[2] * k[4] - k[3] ** 2) / k[2] ** 3
            assert abs(kappa / want - 1) <= 1e-13, rho
            assert abs(k2 / k[2] - 1) <= 1e-13, rho


@pytest.mark.parametrize("r", [1e-300, 1e-8, 0.3, 0.95])
def test_diagonal_product_factor_count(r):
    # r^(2N+1) <= 2^-60 by default and for tail_tol = 1e-12; a tighter
    # tail_tol adds factors
    default = hardy._DiagonalProduct(r)._powers
    assert np.array_equal(hardy._DiagonalProduct(r, Truncation().tail_tol)._powers, default)
    tight = hardy._DiagonalProduct(r, 1e-30)._powers
    assert len(tight) >= len(default)
    assert r ** (len(tight) - 3) <= 1e-30


def test_diagonal_product_fourth_derivative():
    # K'''' enters the waist curvature of s, -2 K''''/K''^2; r = 0.043 is
    # next to the U/W transition, where that curvature changes sign
    for r, rho in ((0.1, 0.4), (0.043, math.sqrt(0.043)), (1e-8, 1e-5)):
        (k4,) = hardy._DiagonalProduct(r).jet(rho, (4,))
        assert k4 == pytest.approx(float(kernel_log_jet_mp(r, rho, 4)[4]), rel=1e-13)


def test_diagonal_product_refuses_rows_past_the_cap():
    # 1 - r = 1e-6 needs about 4.2e7 terms per row; the product raises
    # before it allocates, for every caller
    r = 0.999999
    with pytest.raises(ConvergenceError, match=r"r = 0\.999999 .* tail_tol = 1e-12, past the cap"):
        hardy._DiagonalProduct(r, Truncation().tail_tol)
    for call in (
        lambda: MetricField(r, "s"),
        lambda: higher_curvature(r, r**0.5, 1, "szego"),
        lambda: higher_curvature(r, r**0.5, 2, "caratheodory"),
    ):
        with pytest.raises(ConvergenceError, match=f"cap of {HARD_CAP}"):
            call()


@pytest.mark.parametrize("lam", [0.3, 0.5])
def test_diagonal_product_szego_curvature_at_the_last_admitted_r(lam):
    # r = 0.99996 fills 99% of HARD_CAP per row; mid-annulus kappa_s is -4
    # up to e^(-pi^2/|log r|), and the product's error, which grows like
    # (1 - r)^-2, is still under 1e-8 there
    r = 0.99996
    assert len(hardy._DiagonalProduct(r)._powers) > 0.99 * HARD_CAP
    assert higher_curvature(r, r**lam, 1, "szego") == pytest.approx(-4.0, rel=1e-8)


def test_j_function_errors_name_the_annulus(monkeypatch):
    # s0 <= 0 or a nonpositive J1, J2 can only come from broken sums
    a = GeneralAnnulus(0.5, 2.0)

    def broken(s):
        monkeypatch.setattr(hardy, "moment_sums", lambda *args: MomentSums(s, a, 1, 0.0))

    broken((-1.0, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(InternalConsistencyError, match=r"s0 must be .* \(0\.5, 2\.0\)"):
        j_functions_at_one(a)
    broken((1.0, 0.0, 1.0, 0.0, 0.5))  # gap 1, J2 = s4 - s2 = -0.5
    with pytest.raises(InternalConsistencyError, match=r"J values must .* \(0\.5, 2\.0\)"):
        j_functions_at_one(a)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=0.8),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=-PI, max_value=PI),
)
def test_kernel_hermitian_property(r, tz, tw, th):
    z = r ** (1 - tz) * cmath.exp(1j * th)
    w = r ** (1 - tw) * cmath.exp(-0.3j * th)
    a = szego_kernel(r, z, w)
    b = szego_kernel(r, w, z).conjugate()
    assert abs(a - b) <= 1e-13 * max(abs(a), 1.0)


# ---------------------------------------------------------------------------
# reproducing property


def test_kernel_reproduces_monomials():
    # Boundary integral of S(z, .) against zeta^m recovers z^m. The
    # quadrature circles sit 1e-9 inside the true boundary, skewing the
    # weights by about (2m+1)e-9, well under the tolerance.
    r = 0.35
    z = 0.55 * cmath.exp(0.4j)
    nodes = 256
    eps = 1e-9
    radii = (1.0 - eps, r * (1 + eps))
    for m in range(-5, 6):
        acc = 0.0 + 0.0j
        for rho in radii:
            step = 2 * PI / nodes
            for k in range(nodes):
                zeta_pt = rho * cmath.exp(1j * step * k)
                acc += (
                    szego_kernel(r, z, zeta_pt) * zeta_pt**m * rho * step
                )
        assert abs(acc - z**m) <= 1e-6 * max(abs(z) ** m, 1.0)


# ---------------------------------------------------------------------------
# J-functions


def test_symmetric_annulus_beta_gamma():
    # On A(r, 1/r) the pairing forces beta = -1/2 and gamma = -1.
    for r in (0.5, 0.8, 0.95):
        J = j_functions_at_one(GeneralAnnulus(r, 1 / r))
        assert J.coeffs.beta == pytest.approx(-0.5, abs=1e-12)
        assert J.coeffs.gamma == pytest.approx(-1.0, abs=1e-11)


def test_j1_against_quadratic_minimum():
    # J1 is the minimum of |f'(1)|^2 over unit-norm H^2 functions with
    # f(1) = 0; restricting to the weighted basis this is the Rayleigh
    # quotient v.v - (v.u)^2/(u.u) with u_n = 1/sqrt(alpha_n), v_n that
    # times n.  Direct numpy evaluation with wide support is exact to
    # the truncation of |n| <= 80.
    r_in, r_out = 0.6, 1.4
    ns = np.arange(-80, 81)
    al = 2 * np.pi * (r_in ** (2 * ns + 1.0) + r_out ** (2 * ns + 1.0))
    u = 1 / np.sqrt(al)
    v = ns / np.sqrt(al)
    oracle = float(v @ v - (v @ u) ** 2 / (u @ u))
    J = j_functions_at_one(GeneralAnnulus(r_in, r_out))
    assert J.j1 == pytest.approx(oracle, rel=1e-10)


def test_j2_matches_expanded_form():
    # j2 = s4 - gamma s3 - delta s2 must equal the ratio-of-determinants
    # expansion written out over the raw moments.
    a = GeneralAnnulus(0.45, 2.2)
    s0, s1, s2, s3, s4 = moment_sums(a, 4).s
    det = s1 * s1 - s0 * s2
    gamma = (s1 * s2 - s0 * s3) / det
    delta = (s1 * s3 - s2 * s2) / det
    J = j_functions_at_one(a)
    assert J.j2 == pytest.approx(s4 - gamma * s3 - delta * s2, rel=1e-13)
    assert J.coeffs.gamma == pytest.approx(gamma, rel=1e-13)
    assert J.coeffs.delta == pytest.approx(delta, rel=1e-13)
    assert J.j1 == pytest.approx((s0 * s2 - s1 * s1) / s0, rel=1e-13)


def test_transformation_self_consistency():
    # J on the unit annulus at r^lambda equals the J of the rescaled
    # annulus at 1, up to the explicit power of r.
    rho = 0.6
    r = rho**2
    direct = j_functions_at_one(GeneralAnnulus(rho, 1 / rho))
    moved = j_functions_on_A_r(r, 0.5)
    for j, (d, t) in enumerate(zip(direct, moved)):
        assert t * r ** ((2 * j + 1) * 0.5) == pytest.approx(d, rel=1e-12)


def test_transformation_lambda_symmetry():
    # The reflection z -> r/z swaps lambda and 1 - lambda and scales
    # J^(j) by |phi'|^(2j+1) = r^((1-2 lambda)(2j+1)); the curvature
    # combinations built from the J's are invariant scalars.
    r = 0.3
    for lam in (0.2, 0.35, 0.45):
        a = j_functions_on_A_r(r, lam)
        b = j_functions_on_A_r(r, 1 - lam)
        for j, (x, y) in enumerate(zip(a, b)):
            w = r ** ((1 - 2 * lam) * (2 * j + 1))
            assert x == pytest.approx(w * y, rel=1e-11)
        ks_a = 4 - 2 * a.j0 * a.j2 / a.j1**2
        ks_b = 4 - 2 * b.j0 * b.j2 / b.j1**2
        kc_a = -(1 / PI**2) * a.j1 / a.j0**3
        kc_b = -(1 / PI**2) * b.j1 / b.j0**3
        assert ks_a == pytest.approx(ks_b, rel=1e-10)
        assert kc_a == pytest.approx(kc_b, rel=1e-10)


def test_j_functions_on_A_r_domain():
    with pytest.raises(DomainError):
        j_functions_on_A_r(0.3, 0.0)
    with pytest.raises(DomainError):
        j_functions_on_A_r(0.3, 1.0)
    with pytest.raises(DomainError):
        j_functions_on_A_r(1.1, 0.5)


def test_j_functions_on_A_r_overflow():
    # The unscaling factor r^{-(2j+1) lambda} exceeds the float range.
    with pytest.raises(RangeError):
        j_functions_on_A_r(1e-200, 0.9)


def test_j_values_near_disc_limit():
    # Very small r at interior points reproduces disc values at 1:
    # J0 = J1 = 1/(2 pi), J2 = 2/pi, and the derived curvatures.
    J = j_functions_on_A_r(1e-10, 0.5)
    assert 2 * PI * J.j0 == pytest.approx(2.0, rel=1e-4)
    kc = -(1 / PI**2) * J.j1 / J.j0**3
    ks = 4 - 2 * J.j0 * J.j2 / J.j1**2
    # lambda = 1/2 is the seam: kappa_c diverges like -1/(4r) and
    # kappa_s tends to +4 with deficit close to 128 r.
    assert kc < -1e8
    assert ks == pytest.approx(4.0, abs=5e-8)


# ---------------------------------------------------------------------------
# extremal functions


@pytest.fixture(scope="module")
def asym():
    return GeneralAnnulus(0.5, 2.0)


def test_extremal_f0_is_kernel_section(asym):
    # f0(z) = sum z^n / alpha_n is the kernel against w = 1.
    z = 0.7 + 0.4j
    direct = sum(
        z**n / alpha_n(asym, n) for n in range(-40, 41)
    )
    got = extremal_function_value(asym, "f0", z)
    assert abs(got - direct) <= 1e-13 * abs(direct)


def test_extremal_zero_conditions(asym):
    assert abs(extremal_function_value(asym, "f_beta", 1.0)) <= 1e-15
    assert abs(extremal_function_value(asym, "f_gammadelta", 1.0)) <= 1e-15


def test_extremal_derivative_condition(asym):
    # Complex-step derivative: f holomorphic, so Im f(1 + ih)/h -> f'(1)
    # with no subtractive cancellation.
    h = 1e-8
    fp = extremal_function_value(asym, "f_gammadelta", 1.0 + 1j * h).imag / h
    assert abs(fp) <= 1e-12


def test_extremal_beta_rayleigh(asym):
    # |f_beta'(1)|^2 / ||f_beta||^2 equals J1.
    s0, s1, s2 = moment_sums(asym, 2).s
    beta = s1 / s0
    fprime = s2 - beta * s1
    norm2 = s2 - 2 * beta * s1 + beta * beta * s0
    J = j_functions_at_one(asym)
    assert fprime**2 / norm2 == pytest.approx(J.j1, rel=1e-12)


def test_extremal_closure_and_domain(asym):
    # Closed annulus allowed, outside it rejected.
    extremal_function_value(asym, "f0", 0.5)
    extremal_function_value(asym, "f0", 2.0)
    with pytest.raises(DomainError):
        extremal_function_value(asym, "f0", 0.49)
    with pytest.raises(DomainError):
        extremal_function_value(asym, "f0", 2.01)
    with pytest.raises(DomainError):
        extremal_function_value(asym, "nope", 1.0)


# ---------------------------------------------------------------------------
# kernel jets


def test_jet_diagonal_matches_kernel():
    r, z = 0.4, 0.55 + 0.3j
    jet = szego_kernel_jet(r, z, 3)
    assert jet.at(0, 0) == szego_kernel(r, z, z)


def test_kernel_diagonal_where_the_squared_modulus_underflows():
    # |z|^2 = 1e-320 is subnormal; the frame takes sqrt(|z| |w|) factor by factor
    r, z = 1e-300, 1e-160 * cmath.exp(0.3j)
    (k0,) = hardy._DiagonalProduct(r).jet(abs(z), (0,))
    assert szego_kernel(r, z, z).real == pytest.approx(math.exp(k0) / (2 * PI), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.02, max_value=0.98),
    st.floats(min_value=-PI, max_value=PI),
)
def test_weight_one_sum_is_shared_bit_for_bit(r, lam, th):
    # sample's J0, the kernel diagonal and the jet entry (0, 0) are one
    # moment sum on one rescaled annulus
    z = r**lam * cmath.exp(1j * th)
    S = szego_kernel(r, z, z)
    assert sample(r, z).c == 2 * PI * S.real
    assert szego_kernel_jet(r, z, 2).at(0, 0) == S


def test_jet_reality_symmetry():
    jet = szego_kernel_jet(0.4, 0.55 + 0.3j, 3)
    assert jet.is_reality_symmetric()
    assert jet.at(0, 0).imag == 0


def test_jet_against_finite_differences():
    # Mixed Wirtinger derivatives of the diagonal m(z) = S(z, z) by
    # central differences.  The library runs in doubles, so the step
    # must grow with the order to keep roundoff under the truncation.
    r, z = 0.4, 0.55 + 0.3j
    jet = szego_kernel_jet(r, z, 2)

    def diag(p):
        pc = complex(p)
        return szego_kernel(r, pc, pc)

    # Derivative magnitudes climb fast near the boundary, so the FD
    # truncation h^2 * D_(j+k+2) / 6 dominates; tolerances follow it.
    cases = [
        (1, 0, 1e-4, 2e-7),
        (0, 1, 1e-4, 2e-7),
        (1, 1, 1e-4, 3e-6),
        (2, 0, 1e-4, 3e-6),
        (2, 1, 1e-3, 1e-4),
        (2, 2, 4e-3, 5e-3),
    ]
    scale = abs(jet.at(0, 0))
    for j, k, h, tol in cases:
        fd = complex(mixed_wirtinger_fd(diag, z, j, k, h=h))
        assert abs(jet.at(j, k) - fd) <= tol * max(scale, abs(fd)), (j, k)


def test_jet_rotation_covariance():
    # Entry (j, k) picks up the phase e^{i (k - j) theta}.
    r, rho = 0.4, 0.6
    base = szego_kernel_jet(r, rho, 2)
    th = 0.9
    rot = szego_kernel_jet(r, rho * cmath.exp(1j * th), 2)
    for j in range(3):
        for k in range(3):
            want = base.at(j, k) * cmath.exp(1j * (k - j) * th)
            assert abs(rot.at(j, k) - want) <= 1e-12 * max(abs(want), 1e-12)


def test_jet_domain_errors():
    with pytest.raises(DomainError):
        szego_kernel_jet(0.4, 0.3, 2)
    with pytest.raises(DomainError):
        szego_kernel_jet(0.4, 0.6, 4)
    with pytest.raises(DomainError):
        szego_kernel_jet(0.4, 0.6, -1)
