"""Weierstrass suite against lattice-sum oracles and classical identities."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annulus_metrics import elliptic
from annulus_metrics.elliptic import (
    EllipticContext,
    make_elliptic_context,
    sigma,
    wp,
    wp_prime,
    zeta,
)
from annulus_metrics.errors import (
    ConvergenceError,
    DomainError,
    InternalConsistencyError,
    PoleError,
    RangeError,
)

from conftest import g2_g3_lattice_richardson, wp_lattice_richardson

PI = math.pi


@pytest.fixture(scope="module")
def ctx_half():
    return make_elliptic_context(0.5)


# ---------------------------------------------------------------------------
# construction


def test_periods_for_r_exp_minus_one():
    ctx = make_elliptic_context(math.exp(-1.0))
    assert ctx.omega1 == pytest.approx(1.0, abs=1e-15)
    assert ctx.omega3_im == PI


def test_depressed_cubic_and_ordering(ctx_half):
    assert abs(ctx_half.e1 + ctx_half.e2 + ctx_half.e3) < 1e-12
    assert ctx_half.e1 > ctx_half.e2 > ctx_half.e3
    scale = 1.0 + abs(ctx_half.g2) + abs(ctx_half.g3)
    for ei in (ctx_half.e1, ctx_half.e2, ctx_half.e3):
        assert abs(4 * ei**3 - ctx_half.g2 * ei - ctx_half.g3) < 1e-12 * scale


def test_c_is_stored_quotient(ctx_half):
    assert ctx_half.c == ctx_half.eta1 / ctx_half.omega1


def test_nome_in_unit_interval():
    for r in (0.01, 0.5, 0.9):
        ctx = make_elliptic_context(r)
        assert 0.0 < ctx.q < 1.0


def test_stored_e_match_half_period_evaluation(ctx_half):
    assert abs(wp(ctx_half, ctx_half.omega1) - ctx_half.e1) < 1e-10
    assert abs(wp(ctx_half, 1j * PI) - ctx_half.e3) < 1e-10
    assert abs(wp(ctx_half, ctx_half.omega1 + 1j * PI) - ctx_half.e2) < 1e-10


def test_domain_errors():
    for bad in (0.0, 1.0, -0.25, 2.0, float("nan")):
        with pytest.raises(DomainError):
            make_elliptic_context(bad)


def test_extreme_modulus_is_range_error():
    with pytest.raises(RangeError):
        make_elliptic_context(0.999)


def test_pathological_tolerance_is_convergence_error(monkeypatch):
    monkeypatch.setattr(elliptic, "ROOT_TOL", 1e-30)
    with pytest.raises(ConvergenceError):
        make_elliptic_context(0.5)


def test_context_is_immutable(ctx_half):
    with pytest.raises(Exception):
        ctx_half.g2 = 0.0


# ---------------------------------------------------------------------------
# wp against the direct lattice sum


def test_wp_matches_lattice_sum_oracle():
    ctx = make_elliptic_context(0.5)
    z = 0.3 + 0.2j
    direct = wp_lattice_richardson(z, ctx.omega1, M=200)
    assert abs(wp(ctx, z) - direct) < 1e-8


def test_wp_matches_lattice_sum_oracle_swapped_frame():
    # omega1 > pi here, so the evaluator works in the exchanged basis.
    ctx = make_elliptic_context(0.02)
    z = 1.1 + 0.8j
    direct = wp_lattice_richardson(z, ctx.omega1, M=200)
    assert abs(wp(ctx, z) - direct) < 1e-8


def test_invariants_match_lattice_sums():
    for r in (0.5, 0.05):
        ctx = make_elliptic_context(r)
        g2_direct, g3_direct = g2_g3_lattice_richardson(ctx.omega1, M=200)
        assert abs(ctx.g2 - g2_direct) < 1e-8 * (1 + abs(g2_direct))
        assert abs(ctx.g3 - g3_direct) < 1e-8 * (1 + abs(g3_direct))


# ---------------------------------------------------------------------------
# function identities


def _sample_points(ctx, rng, count):
    pts = []
    while len(pts) < count:
        z = complex(
            rng.uniform(-2 * ctx.omega1, 2 * ctx.omega1), rng.uniform(-2 * PI, 2 * PI)
        )
        try:
            wp(ctx, z)
        except PoleError:
            continue
        pts.append(z)
    return pts


@pytest.mark.parametrize("r", [0.2, 0.4, 0.5, 0.8])
def test_ode_residual(r):
    ctx = make_elliptic_context(r)
    rng = np.random.default_rng(17)
    for z in _sample_points(ctx, rng, 100):
        P = wp(ctx, z)
        Pp = wp_prime(ctx, z)
        res = abs(Pp**2 - (4 * P**3 - ctx.g2 * P - ctx.g3))
        assert res <= 1e-9 * (1 + abs(P)) ** 3


def test_double_periodicity(ctx_half):
    rng = np.random.default_rng(5)
    for z in _sample_points(ctx_half, rng, 20):
        base = wp(ctx_half, z)
        assert abs(wp(ctx_half, z + 2 * ctx_half.omega1) - base) < 1e-10 * (1 + abs(base))
        assert abs(wp(ctx_half, z + 2j * PI) - base) < 1e-10 * (1 + abs(base))


def test_parity(ctx_half):
    rng = np.random.default_rng(11)
    for z in _sample_points(ctx_half, rng, 10):
        assert abs(wp(ctx_half, z) - wp(ctx_half, -z)) < 1e-12 * (1 + abs(wp(ctx_half, z)))
        assert abs(wp_prime(ctx_half, z) + wp_prime(ctx_half, -z)) < 1e-10 * (
            1 + abs(wp_prime(ctx_half, z))
        )
        assert abs(zeta(ctx_half, z) + zeta(ctx_half, -z)) < 1e-10 * (1 + abs(zeta(ctx_half, z)))
        assert abs(sigma(ctx_half, z) + sigma(ctx_half, -z)) < 1e-12 * (1 + abs(sigma(ctx_half, z)))


def test_wp_prime_vanishes_at_half_periods(ctx_half):
    for w in (ctx_half.omega1, 1j * PI, ctx_half.omega1 + 1j * PI):
        assert abs(wp_prime(ctx_half, w)) < 1e-9


def test_zeta_quasi_periodicity_straddle():
    """Both evaluation points sit raw inside the centred cell.

    Points on opposite cell edges reduce to themselves (rounding is
    half-to-even), so the jump actually exercises the stored eta values
    against the theta series instead of the reduction bookkeeping.
    """
    for r in (0.5, 0.05):
        ctx = make_elliptic_context(r)
        z = -ctx.omega1 + 0.7j
        jump = zeta(ctx, z + 2 * ctx.omega1) - zeta(ctx, z)
        assert abs(jump - 2 * ctx.eta1) < 1e-10
        z = 0.3 * ctx.omega1 - 1j * PI
        jump = zeta(ctx, z + 2j * PI) - zeta(ctx, z)
        assert abs(jump - 2j * ctx.eta3_im) < 1e-10


def test_sigma_quasi_periodicity():
    for r in (0.5, 0.05):
        ctx = make_elliptic_context(r)
        for z in (-ctx.omega1 + 0.4j, 0.2 * ctx.omega1 - 1j * PI, 0.5 + 0.5j):
            lhs = sigma(ctx, z + 2 * ctx.omega1)
            rhs = -cmath.exp(2 * ctx.eta1 * (z + ctx.omega1)) * sigma(ctx, z)
            assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))
            eta3 = 1j * ctx.eta3_im
            lhs = sigma(ctx, z + 2j * PI)
            rhs = -cmath.exp(2 * eta3 * (z + 1j * PI)) * sigma(ctx, z)
            assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))


def test_legendre_relation_recovered():
    # eta1*omega3 - eta3*omega1 = i*pi/2 is never stored; it must emerge
    # from the two independently computed quasi-period constants.
    for r in (0.5, 0.05, 1e-6, 0.9):
        ctx = make_elliptic_context(r)
        lhs = ctx.eta1 * (1j * PI) - (1j * ctx.eta3_im) * ctx.omega1
        assert abs(lhs - 1j * PI / 2) < 1e-12 * (1 + abs(ctx.eta1) + abs(ctx.eta3_im))


def test_zeta_near_zero_and_derivative(ctx_half):
    assert abs(zeta(ctx_half, 1e-4) - 1e4) < 1e-8
    rng = np.random.default_rng(23)
    h = 1e-5
    for z in _sample_points(ctx_half, rng, 10):
        fd = (zeta(ctx_half, z + h) - zeta(ctx_half, z - h)) / (2 * h)
        assert abs(fd + wp(ctx_half, z)) < 1e-6 * (1 + abs(wp(ctx_half, z)))


def test_sigma_near_zero(ctx_half):
    assert abs(sigma(ctx_half, 1e-6) / 1e-6 - 1) <= 1e-9
    ctx = make_elliptic_context(1e-4)
    assert abs(sigma(ctx, 1e-6) / 1e-6 - 1) <= 1e-9


def test_sigma_log_derivative_is_zeta(ctx_half):
    rng = np.random.default_rng(29)
    h = 1e-5
    for z in _sample_points(ctx_half, rng, 5):
        fd = (cmath.log(sigma(ctx_half, z + h)) - cmath.log(sigma(ctx_half, z - h))) / (2 * h)
        zv = zeta(ctx_half, z)
        if abs(fd - zv) > 1e-6 * (1 + abs(zv)):
            # log branch cut crossed; compare derivatives of sigma itself
            fd = (sigma(ctx_half, z + h) - sigma(ctx_half, z - h)) / (2 * h)
            assert abs(fd - zv * sigma(ctx_half, z)) < 1e-6 * (1 + abs(sigma(ctx_half, z)))


def test_reality_on_real_axis():
    for r in (0.5, 0.05):
        ctx = make_elliptic_context(r)
        for u in (0.1, 0.37 * ctx.omega1, 0.9 * ctx.omega1, -0.6 * ctx.omega1):
            for f in (wp, zeta, sigma):
                val = f(ctx, u)
                assert abs(val.imag) <= 1e-12 * (1 + abs(val))


def test_boundary_trace_monotone(ctx_half):
    om1 = ctx_half.omega1
    path = (
        [t * om1 for t in np.linspace(0.02, 1.0, 12)]
        + [om1 + 1j * t * PI for t in np.linspace(0.1, 1.0, 12)]
        + [(1 - t) * om1 + 1j * PI for t in np.linspace(0.1, 1.0, 12)]
        + [1j * (1 - t) * PI for t in np.linspace(0.1, 0.95, 10)]
    )
    vals = [wp(ctx_half, z) for z in path]
    assert max(abs(v.imag) for v in vals) < 1e-9
    reals = [v.real for v in vals]
    assert all(a > b for a, b in zip(reals, reals[1:]))
    # the trace passes through e1, e2, e3 at the corners
    assert abs(reals[11] - ctx_half.e1) < 1e-12 * (1 + abs(ctx_half.e1))
    assert abs(reals[23] - ctx_half.e2) < 1e-10 * (1 + abs(ctx_half.e2))


def test_pole_error_carries_nearest(ctx_half):
    with pytest.raises(PoleError) as ei:
        wp(ctx_half, 0.0)
    assert ei.value.nearest == 0
    with pytest.raises(PoleError) as ei:
        zeta(ctx_half, 2 * ctx_half.omega1 + 1e-9)
    assert abs(ei.value.nearest - 2 * ctx_half.omega1) < 1e-12
    with pytest.raises(PoleError):
        wp_prime(ctx_half, 2j * PI + 1e-8j)
    # sigma is entire: no pole error, exact zero at lattice points
    assert sigma(ctx_half, 0.0) == 0


# ---------------------------------------------------------------------------
# property-based sweep over the modulus


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=0.02, max_value=0.9),
    st.floats(min_value=-0.45, max_value=0.45),
    st.floats(min_value=-0.45, max_value=0.45),
)
def test_ode_and_parity_random_modulus(r, fa, fb):
    ctx = make_elliptic_context(r)
    z = complex(2 * fa * ctx.omega1, 2 * fb * PI)
    try:
        P = wp(ctx, z)
        Pp = wp_prime(ctx, z)
    except PoleError:
        return
    assert abs(Pp**2 - (4 * P**3 - ctx.g2 * P - ctx.g3)) <= 1e-9 * (1 + abs(P)) ** 3
    assert abs(P - wp(ctx, -z)) <= 1e-10 * (1 + abs(P))
