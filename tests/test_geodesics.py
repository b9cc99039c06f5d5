"""Geodesic layer: field evaluator, circles, and every trace by Clairaut quadrature,
checked against the DP45 oracle of conftest."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from annulus_metrics import geodesics
from annulus_metrics.elliptic import make_elliptic_context
from annulus_metrics.errors import ConvergenceError, DomainError, RangeError
from annulus_metrics.geodesics import (
    CLOSURE_TOL,
    SQUARE_R,
    WAIST_GAP,
    GeodesicState,
    MetricField,
    _ClairautOrbit,
    _gap_factor,
    _local_model,
    _x_model,
    find_closed_geodesic,
    integrate,
    spiral_trace,
)
from annulus_metrics.hardy import _DiagonalProduct, _poly, szego_kernel_jet
from annulus_metrics.jets import jet_log
from annulus_metrics.metrics import sample
from conftest import _A, _B4, _B5, dp45_integrate, geodesic_rhs

TWO_PI = 2.0 * math.pi


def kernel_route(r: float, metric: str, z: complex):
    """Density and d/dz log m^2 through the compensated kernel-jet route."""
    L = jet_log(szego_kernel_jet(r, z, 3))
    if metric == "c":
        m = TWO_PI * math.exp(L.value.real)
        g = 2.0 * L.at(1, 0)
    else:
        h = L.at(1, 1).real
        m = math.sqrt(h)
        g = L.at(2, 1) / h
    return m, g


# ---------------------------------------------------------------------------
# tableau of the DP45 oracle (conftest)


def test_tableau_row_sums():
    nodes = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
    for row, c in zip(_A, nodes):
        assert math.isclose(sum(row), c, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(sum(_B5), 1.0, abs_tol=1e-15)
    assert math.isclose(sum(_B4), 1.0, abs_tol=1e-15)


def test_tableau_last_stage_is_accepted_point():
    # FSAL: the seventh stage is evaluated at the fifth-order result
    assert _A[6] == _B5[:6]
    assert _B5[6] == 0.0


# ---------------------------------------------------------------------------
# states


def test_state_coerces_to_complex():
    st = GeodesicState(0.5, 1)
    assert st.position == 0.5 + 0j
    assert st.velocity == 1 + 0j


def test_state_rejects_nonfinite():
    with pytest.raises(DomainError):
        GeodesicState(complex("nan"), 1.0)
    with pytest.raises(DomainError):
        GeodesicState(0.5, complex("inf"))


# ---------------------------------------------------------------------------
# field evaluator against the kernel-jet route


@pytest.mark.parametrize("metric", ["c", "s"])
@pytest.mark.parametrize("r", [0.1, 0.35, 0.02, 0.9])
def test_field_matches_kernel_jets(r, metric):
    field = MetricField(r, metric)
    rng = np.random.default_rng(20260416)
    radii = [r + 0.02, math.sqrt(r), 0.5, 0.9, 0.985]
    for rho in (rho for rho in radii if r < rho):
        z = rho * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        m, g = field.density_and_log_gradient(z)
        m_ref, g_ref = kernel_route(r, metric, z)
        assert abs(m - m_ref) <= 1e-12 * m_ref
        assert abs(g - g_ref) <= 1e-12 * abs(g_ref)
        assert field.density(z) == m


@pytest.mark.parametrize("metric", ["c", "s"])
def test_inversion_symmetry_of_length_element(metric):
    # z -> r/z is an isometry of the annulus, so rho*m(rho) is invariant
    r = 0.2
    field = MetricField(r, metric)
    for rho in (0.25, 0.4, math.sqrt(r), 0.7):
        f1 = rho * field.density(rho)
        rho2 = r / rho
        f2 = rho2 * field.density(rho2)
        assert abs(f1 - f2) <= 1e-12 * f1


def test_field_rejects_bad_arguments():
    with pytest.raises(DomainError):
        MetricField(0.3, "q")
    with pytest.raises(DomainError):
        MetricField(1.2, "c")
    field = MetricField(0.3, "s")
    with pytest.raises(DomainError):
        field.density(0.1)
    with pytest.raises(DomainError):
        field.density(1.0)
    with pytest.raises(DomainError):
        field.density(0.3)


def test_horizon_is_where_the_laurent_pair_count_hit_the_cap():
    # the a-priori pair count of the former Laurent field; Q_HORIZON is the
    # largest q whose count stays within the cap of 2^20 pairs
    def pairs(q):
        lq = -math.log(q)
        m0 = 42.0 / lq
        return max(32, int(m0 + 4.0 * math.log(m0 + 8.0) / lq) + 1)

    lo, hi = 0.5, 1.0
    while math.nextafter(lo, 1.0) < hi:
        mid = 0.5 * (lo + hi)
        mid = mid if lo < mid < hi else math.nextafter(lo, 1.0)
        lo, hi = (mid, hi) if pairs(mid) <= 2**20 else (lo, mid)
    assert lo == geodesics.Q_HORIZON


@pytest.mark.parametrize("metric", ["c", "s"])
@pytest.mark.parametrize("r", [0.1, 0.5])
def test_field_answers_past_the_horizon_and_next_to_both_circles(r, metric):
    # the horizon is where traces escape, not where the field stops: one ulp
    # past it on either side, and 1e-9 from either circle, the field is the
    # product's jet, bit for bit
    field = MetricField(r, metric)
    product = _DiagonalProduct(r)

    def first_past(rho, circle):
        # the first double past the horizon on the way from rho to the circle
        while max(rho * rho, (r / rho) ** 2) > geodesics.Q_HORIZON:
            rho = math.nextafter(rho, math.sqrt(r))
        while max(rho * rho, (r / rho) ** 2) <= geodesics.Q_HORIZON:
            rho = math.nextafter(rho, circle)
        return rho

    q = math.sqrt(geodesics.Q_HORIZON)
    for rho in (first_past(q, 1.0), first_past(r / q, r), 1.0 - 1e-9, r * (1.0 + 1e-9)):
        if metric == "c":
            k0, k1 = product.jet(rho, (0, 1))
            expected = (math.exp(k0), 2.0 * complex(1.0, -0.0) * (k1 / rho))
        else:
            k2, k3_less_k2 = product.jet(rho, (2, 3))
            expected = (math.sqrt(k2) / rho, complex(1.0, -0.0) * (k3_less_k2 / k2 / rho))
        assert field.density_and_log_gradient(rho) == expected, rho


@pytest.mark.parametrize("metric", ["c", "s"])
def test_field_at_tiny_r_stays_finite(metric):
    # r^2 underflows at r = 1e-300; every factor is formed from |z| and
    # r/|z| instead, so the field holds next to the inner circle too
    r = 1e-300
    field = MetricField(r, metric)
    for rho in (1.5 * r, math.sqrt(r), 0.5):
        z = rho * cmath.exp(0.3j)
        m, g = field.density_and_log_gradient(z)
        assert math.isfinite(m) and m > 0.0 and cmath.isfinite(g)
    # away from the hole both densities are the disc's 1/(1 - |z|^2)
    assert field.density(0.5) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert math.isfinite(field.curvature(math.sqrt(r)))


@pytest.mark.parametrize("metric", ["c", "s"])
def test_field_past_double_range_raises_range_error(metric):
    # 5e-5 (relative) from the inner circle at r = 1e-306 the density is
    # about 1e310
    field = MetricField(1e-306, metric)
    with pytest.raises(RangeError, match=r"\|z\| = 1\.00005e-306 with r = 1e-306"):
        field.density_and_log_gradient(1.00005e-306)


# ---------------------------------------------------------------------------
# right-hand side of the DP45 oracle


def test_rhs_matches_field():
    field = MetricField(0.1, "s")
    z, v = 0.4 + 0.2j, 0.3 - 1.1j
    _, g = field.density_and_log_gradient(z)
    a = geodesic_rhs(0.1, "s", GeodesicState(z, v))
    assert abs(a + g * v * v) <= 1e-14 * abs(a)


@pytest.mark.parametrize("metric", ["c", "s"])
def test_rhs_rotation_equivariance(metric):
    z, v = 0.55 + 0.1j, -0.2 + 0.9j
    w = cmath.exp(0.7j)
    a = geodesic_rhs(0.2, metric, GeodesicState(z, v))
    a_rot = geodesic_rhs(0.2, metric, GeodesicState(w * z, w * v))
    assert abs(a_rot - w * a) <= 1e-12 * abs(a)


def test_rhs_quadratic_in_velocity():
    st1 = GeodesicState(0.5, 0.1 + 0.2j)
    st2 = GeodesicState(0.5, 0.2 + 0.4j)
    a1 = geodesic_rhs(0.1, "c", st1)
    a2 = geodesic_rhs(0.1, "c", st2)
    assert abs(a2 - 4.0 * a1) <= 1e-13 * abs(a2)


# ---------------------------------------------------------------------------
# closed circles


@pytest.mark.parametrize("metric", ["c", "s"])
@pytest.mark.parametrize("r", [0.05, 0.1, 0.3])
def test_circle_at_sqrt_r(r, metric):
    circle = find_closed_geodesic(r, metric)
    assert abs(circle.rho_star - math.sqrt(r)) <= 1e-8
    assert circle.residual <= 1e-12
    field = MetricField(r, metric)
    assert circle.length == pytest.approx(
        TWO_PI * circle.rho_star * field.density(circle.rho_star), rel=1e-14
    )


@pytest.mark.parametrize("metric", ["c", "s"])
@pytest.mark.parametrize("r", [0.05, 0.1, 0.3, 0.6, 0.9])
def test_circle_closes_under_integration(r, metric):
    # the waist is hyperbolic, and a step-by-step integration amplifies its
    # step error by exp(sqrt(-K) L) per loop (about 1e7 at r = 0.3; at
    # r = 0.6 DP45 does not get round once).  The tangential launch on
    # the circle is the circle, traced at 64 samples per loop
    circle = find_closed_geodesic(r, metric)
    field = MetricField(r, metric)
    z0 = complex(circle.rho_star, 0.0)
    v0 = 1j / field.density(z0)
    trace = integrate(r, metric, GeodesicState(z0, v0), circle.length, step_tol=1e-13)
    assert not trace.escaped
    assert trace.winding_count == 1
    closure = abs(trace.positions[-1] - z0) + abs(trace.velocities[-1] - v0)
    assert closure <= 1e-12
    assert trace.energy_drift <= 1e-12
    assert trace.angular_drift <= 1e-12
    assert len(trace) == 65
    assert trace.length == pytest.approx(circle.length, rel=1e-12)


def test_bracketed_root_matches_brentq(monkeypatch):
    pytest.importorskip("scipy")
    from scipy.optimize import brentq

    solve, brackets = geodesics._bracketed_root, []

    def recorded(f, a, b, xtol):
        x = solve(f, a, b, xtol)
        brackets.append((f, a, b, x))
        return x

    monkeypatch.setattr(geodesics, "_bracketed_root", recorded)
    # only the W regime reaches the solver
    for r in (1e-3, 0.01, 0.02, 0.03, 0.04):
        find_closed_geodesic(r, "s")
    assert len(brackets) == 5
    for f, a, b, x in brackets:
        ref = brentq(f, a, b, xtol=1e-14, rtol=8.9e-16)
        assert abs(x - ref) <= 2e-14
        assert abs(f(x)) <= max(abs(f(ref)), 1e-13)


@pytest.mark.parametrize("r, metric", [(0.1, "s"), (0.02, "s"), (0.3, "c")])
def test_closed_circle_evaluates_the_field_once_per_point(monkeypatch, r, metric):
    calls, root_calls = [], []
    evaluate = MetricField.density_and_log_gradient
    solve = geodesics._bracketed_root

    def counted(self, z):
        calls.append(z)
        return evaluate(self, z)

    def counted_root(f, a, b, xtol):
        return solve(lambda x: root_calls.append(x) or f(x), a, b, xtol)

    monkeypatch.setattr(MetricField, "density_and_log_gradient", counted)
    monkeypatch.setattr(geodesics, "_bracketed_root", counted_root)
    circle = find_closed_geodesic(r, metric)
    if metric == "c" or r >= SQUARE_R:
        # U regime: the residual and the length at sqrt(r), from one call
        assert root_calls == []
        assert calls == [complex(math.sqrt(r), 0.0)]
    else:
        # one call per solver point (the waist end takes f(sqrt r) for
        # (log f)''), then the residual and the length
        assert len(calls) == len(root_calls) + 1
    assert calls[-1] == complex(circle.rho_star, 0.0)


def test_symmetric_circle_is_critical_in_both_regimes():
    # inversion symmetry forces R(sqrt r) = 0 whether sqrt(r) is the
    # minimum (large r) or the saddle between the flank minima (small r)
    for r in (0.02, 0.1, 0.3):
        field = MetricField(r, "s")
        rho = math.sqrt(r)
        _, g = field.density_and_log_gradient(complex(rho, 0.0))
        assert abs(1.0 + rho * g.real) <= 1e-9


def test_stable_regime_returns_flank_minimum():
    # at r = 0.02 the s-density waist has positive curvature, f is
    # W-shaped, and the minimizing circle sits near the r^(2/3) wall
    circle = find_closed_geodesic(0.02, "s")
    assert circle.residual <= 1e-12
    assert abs(circle.rho_star - 0.02 ** (2.0 / 3.0)) <= 5e-3
    field = MetricField(0.02, "s")
    f_min = circle.rho_star * field.density(circle.rho_star)
    rho_saddle = math.sqrt(0.02)
    f_saddle = rho_saddle * field.density(rho_saddle)
    assert f_min < f_saddle
    z0 = complex(circle.rho_star, 0.0)
    v0 = 1j / field.density(z0)
    trace = integrate(0.02, "s", GeodesicState(z0, v0), circle.length)
    closure = abs(trace.positions[-1] - z0) + abs(trace.velocities[-1] - v0)
    assert closure <= 1e-6
    assert trace.winding_count == 1


# inner flank circles that the former 121-point grid search returned; it
# found either flank, and the outer ones are mapped to r / rho here
GRID_FLANKS = {
    1e-3: 0.0059926014058859335,
    0.01: 0.03909430560739885,
    0.015: 0.05608405234192403,
    0.02: 0.07345177717954601,
    0.025: 0.0917451809332234,
    0.04: 0.16411162207200927,
    0.043: 0.19728430171557376,
}


def test_w_regime_returns_the_inner_flank_circle():
    for r, rho_grid in GRID_FLANKS.items():
        circle = find_closed_geodesic(r, "s")
        assert circle.rho_star < math.sqrt(r)
        assert circle.residual <= 1e-12
        assert circle.rho_star == pytest.approx(rho_grid, rel=1e-12, abs=0.0), r


@pytest.mark.parametrize("metric", ["c", "s"])
def test_closed_circle_over_the_whole_domain(metric):
    # the grid search raised InternalConsistencyError for s at r = 1e-4,
    # 1e-5 and 1e-12, and for c at every r <= 1e-6; below 1e-305 the
    # bracket's end r(1 + 1e-3) is past double range for s
    tiny = [1e-306, 1e-307, 1e-308, 2.2250738585072014e-308]
    for r in [10.0**-k for k in (*range(1, 13), 20, 50, 100, 300)] + tiny + [SQUARE_R, 0.5, 0.9]:
        circle = find_closed_geodesic(r, metric)
        assert circle.residual <= 1e-12, r
        if metric == "c" or r >= SQUARE_R:
            assert circle.rho_star == math.sqrt(r), r
        else:
            assert circle.rho_star < math.sqrt(r), r


def test_w_regime_circle_next_to_the_square_lattice():
    # the flank circles close in on the waist like sqrt(1 - r / SQUARE_R),
    # and R(x) / x shrinks with them; the returned circle is still a sign
    # change of R = d log f / dx from falling to rising f
    for rel in (1e-4, 1e-6, 1e-8):
        r = SQUARE_R * (1.0 - rel)
        field = MetricField(r, "s")
        circle = find_closed_geodesic(r, "s")
        assert circle.residual <= 1e-12
        x1 = math.log(circle.rho_star / math.sqrt(r))
        for x, sign in ((1.1 * x1, -1.0), (0.9 * x1, 1.0)):
            rho = math.sqrt(r) * math.exp(x)
            _, g = field.density_and_log_gradient(rho)
            assert sign * (1.0 + rho * g.real) > 0.0, (rel, x)
    # one ulp below SQUARE_R the waist curvature is below its own rounding
    r = math.nextafter(SQUARE_R, 0.0)
    circle = find_closed_geodesic(r, "s")
    assert circle.rho_star <= math.sqrt(r)
    assert circle.residual <= 1e-12


def test_square_lattice_is_where_e2_changes_sign():
    # e2 = (pi / (2 omega1))^2 (theta2^4 - theta4^4) / 3 on the lattice with
    # half-periods omega1 = -log r and i pi, nome exp(-pi^2 / omega1)
    with mpmath.workdps(40):
        square = mpmath.exp(-mpmath.pi)
        # no double lies between e^-pi and SQUARE_R, so r < SQUARE_R is r < e^-pi
        assert math.nextafter(SQUARE_R, 0.0) < square < SQUARE_R
        below = [mpmath.mpf(x) for x in ("1e-3", "0.02", "0.043")] + [square * (1 - mpmath.mpf("1e-6"))]
        above = [square * (1 + mpmath.mpf("1e-6"))] + [mpmath.mpf(x) for x in ("0.0433", "0.1", "0.9")]
        for r, sign in [(r, 1) for r in below] + [(r, -1) for r in above]:
            omega1 = -mpmath.log(r)
            q = mpmath.exp(-mpmath.pi**2 / omega1)
            theta2, theta4 = mpmath.jtheta(2, 0, q), mpmath.jtheta(4, 0, q)
            e2 = (mpmath.pi / (2 * omega1)) ** 2 * (theta2**4 - theta4**4) / 3
            assert sign * e2 > mpmath.mpf("1e-30"), r


@pytest.mark.parametrize("r", [0.01, 0.02, 0.04, 0.0432, 0.0433, 0.1, 0.3, 0.9])
def test_waist_curvature_of_s_is_the_elliptic_closed_form(r):
    # kappa_s(sqrt r) = 12 e2 / (e1 - e3), the sign of e2 by the lattice roots
    ctx = make_elliptic_context(r)
    kappa = 12.0 * ctx.e2 / (ctx.e1 - ctx.e3)
    waist = MetricField(r, "s").curvature(math.sqrt(r))
    assert abs(waist - kappa) <= 1e-12 * max(1.0, abs(kappa))
    assert (kappa > 0.0) == (r < SQUARE_R)


# ---------------------------------------------------------------------------
# conservation and structure along generic traces


def generic_state():
    # tangential launch just inside the waist: the orbit spirals inward
    # through curved territory and stays interior for t_end = 3
    field = MetricField(0.3, "s")
    z0 = 0.52 * cmath.exp(0.4j)
    v0 = 1j * (z0 / abs(z0)) / field.density(z0)
    return GeodesicState(z0, v0)


def generic_trace(t_end=3.0):
    return integrate(0.3, "s", generic_state(), t_end)


def test_generic_conservation():
    trace = generic_trace()
    assert not trace.escaped
    assert trace.energy_drift <= 1e-7
    assert trace.angular_drift <= 1e-7
    # speed conservation makes length = E0 * t_end
    assert trace.length == pytest.approx(trace.speeds[0] * trace.ts[-1], rel=1e-7)


def test_recorded_invariants_match_fresh_evaluations():
    trace = generic_trace()
    field = MetricField(0.3, "s")
    e0 = trace.speeds[0]
    z0, v0 = trace.positions[0], trace.velocities[0]
    l0 = field.density(z0) ** 2 * (z0.conjugate() * v0).imag
    for i in (1, len(trace) // 2, len(trace) - 1):
        z, v = trace.positions[i], trace.velocities[i]
        m = field.density(z)
        assert m * abs(v) == pytest.approx(trace.speeds[i], rel=1e-12)
        assert m * m * (z.conjugate() * v).imag == pytest.approx(l0, rel=1e-7)
        assert m * abs(v) == pytest.approx(e0, rel=1e-7)


def test_time_reversal():
    trace = generic_trace()
    back = integrate(
        0.3,
        "s",
        GeodesicState(trace.positions[-1], -trace.velocities[-1]),
        trace.ts[-1],
    )
    assert abs(back.positions[-1] - trace.positions[0]) <= 1e-6
    assert abs(back.velocities[-1] + trace.velocities[0]) <= 1e-6


def test_rotation_equivariance_of_traces():
    # every quantity entering step control is rotation invariant, so the
    # rotated trace reproduces step for step
    w = cmath.exp(1.1j)
    st = generic_state()
    trace = generic_trace()
    rotated = integrate(0.3, "s", GeodesicState(w * st.position, w * st.velocity), 3.0)
    assert len(rotated) == len(trace)
    assert abs(rotated.positions[-1] - w * trace.positions[-1]) <= 1e-12
    assert abs(rotated.velocities[-1] - w * trace.velocities[-1]) <= 1e-12
    assert rotated.length == pytest.approx(trace.length, rel=1e-12)


def test_length_additivity():
    whole = generic_trace(3.0)
    first = generic_trace(1.3)
    second = integrate(0.3, "s", first.final_state(), 1.7)
    assert first.length + second.length == pytest.approx(whole.length, rel=1e-9)
    assert abs(second.positions[-1] - whole.positions[-1]) <= 1e-9


def test_projection_pins_both_integrals():
    # the oracle's first-integral projection
    field = MetricField(0.3, "s")
    trace = dp45_integrate(field, generic_state(), 3.0, project=True)
    assert trace.energy_drift <= 1e-12
    assert trace.angular_drift <= 1e-12
    loose = dp45_integrate(field, generic_state(), 3.0)
    assert abs(trace.positions[-1] - loose.positions[-1]) <= 1e-6


# ---------------------------------------------------------------------------
# integrate: every launch by Clairaut quadrature


def tilted_state(r, metric, rho, psi, theta=0.4):
    """Unit-speed launch at |z| = rho, tilted inward by psi from the counterclockwise tangent."""
    u = cmath.exp(1j * theta)
    m = MetricField(r, metric).density(rho * u)
    return GeodesicState(rho * u, (1j * u * math.cos(psi) - u * math.sin(psi)) / m)


ORACLE_LAUNCHES = [
    # turning short of the unstable waist: tilted in, tilted out (past its
    # turn), and clockwise from either side
    (0.3, "s", 0.8, 0.3, 3.0),
    (0.3, "s", 0.8, -0.3, 3.0),
    (0.1, "s", 0.5, 0.2, 5.0),
    (0.1, "c", 0.15, 2.8, 5.0),
    (0.1, "c", 0.5, 2.9, 5.0),
    # passing the waist into a boundary funnel, from next to it (once
    # clockwise) and from on it
    (0.3, "s", 0.52, 0.3, 3.0),
    (0.3, "s", 0.52, -0.3, 3.0),
    (0.3, "s", 0.52, 2.0, 3.0),
    (0.1, "c", 0.2, -1.0, 5.0),
    (0.1, "s", math.sqrt(0.1), 0.1, 10.0),
    (0.1, "c", math.sqrt(0.1), -0.2, 10.0),
    (0.3, "s", math.sqrt(0.3), 0.29, 10.0),
    # the W regime: the well from a tilted launch at the waist, turning
    # short of the inner flank circle, and passing both flanks
    (0.02, "s", math.sqrt(0.02), 0.2, 10.0),
    (0.015, "s", math.sqrt(0.015), -0.3, 10.0),
    (0.02, "s", 0.05, -0.2, 10.0),
    (0.02, "s", 0.3, 0.5, 10.0),
    (0.02, "s", 0.3, 1.2, 10.0),
    (0.02, "s", 0.1, 1.3, 10.0),
]


@pytest.mark.parametrize("r, metric, rho, psi, t_end", ORACLE_LAUNCHES)
def test_integrate_matches_the_dp45_oracle(r, metric, rho, psi, t_end):
    state = tilted_state(r, metric, rho, psi)
    trace = integrate(r, metric, state, t_end)
    assert trace.escaped or trace.ts[-1] == t_end
    ref = dp45_integrate(MetricField(r, metric), state, trace.ts[-1], step_tol=1e-12, project=True)
    assert abs(trace.positions[-1] - ref.positions[-1]) <= 1e-10
    assert abs(trace.velocities[-1] - ref.velocities[-1]) <= 1e-9 * abs(ref.velocities[-1])
    assert trace.energy_drift <= 1e-10
    assert trace.angular_drift <= 1e-10


@pytest.mark.parametrize("r, metric, rho, psi, t_end", ORACLE_LAUNCHES)
def test_integrate_holds_both_integrals_away_from_the_boundary(r, metric, rho, psi, t_end):
    # the samples' speeds and momenta come from the field, so they check
    # the reconstruction independently of the quadrature; within 1e-3 of a
    # boundary circle the position resolves the density only to eps/distance
    trace = integrate(r, metric, tilted_state(r, metric, rho, psi), t_end)
    keep = [i for i, z in enumerate(trace.positions) if abs(z) - r >= 1e-3 * r and 1.0 - abs(z) >= 1e-3]
    field = MetricField(r, metric)
    e0, z0, v0 = trace.speeds[0], trace.positions[0], trace.velocities[0]
    l0 = field.density(z0) ** 2 * (z0.conjugate() * v0).imag
    for i in keep:
        z, v = trace.positions[i], trace.velocities[i]
        m = field.density(z)
        assert abs(m * abs(v) - e0) <= 1e-12 * e0
        assert abs(m * m * (z.conjugate() * v).imag - l0) <= 1e-12 * max(abs(l0), 1e-3 * e0 * abs(z0) * m)


def test_integrate_holds_a_well_orbit_at_small_r():
    # the tangential launch at 1.1 sqrt(r) turns past the waist model, whose
    # fit range is capped at 0.1: the turn gets its own model
    r = 1e-10
    rho = 1.1 * math.sqrt(r)
    v0 = 1j / MetricField(r, "s").density(rho)
    trace = integrate(r, "s", GeodesicState(rho, v0), 10.0)
    assert not trace.escaped and trace.ts[-1] == 10.0
    assert trace.energy_drift <= 1e-13
    assert trace.angular_drift <= 1e-13


def test_integrate_returns_a_launch_past_the_horizon_alone():
    # the field answers there; the trace has already escaped
    trace = integrate(0.5, "c", GeodesicState(0.99999, 1j), 1.0)
    assert trace.escaped and trace.band_exit is None
    assert trace.positions == (0.99999,) and trace.ts == (0.0,)
    assert trace.speeds == (MetricField(0.5, "c").density(0.99999),)


@pytest.mark.parametrize("r", [0.05, 0.3])
@pytest.mark.parametrize("metric", ["c", "s"])
def test_integrate_samples_are_points_where_the_field_answers(r, metric):
    # launches at the waist tilted either way, a hair off the tangent, and
    # radial shots, in and out: each escapes at the horizon, and the field
    # answers at every sample, the last one included
    field = MetricField(r, metric)
    rs = math.sqrt(r)
    for psi in (0.3, -0.3, 1e-3, -1e-3, 0.5 * math.pi, -0.5 * math.pi):
        trace = integrate(r, metric, tilted_state(r, metric, rs, psi, theta=1.1), 40.0)
        assert trace.escaped, psi
        for z in trace.positions:
            m, g = field.density_and_log_gradient(z)
            assert math.isfinite(m) and cmath.isfinite(g)
        rho = abs(trace.positions[-1])
        assert max(rho * rho, (r / rho) ** 2) >= geodesics.Q_HORIZON * (1.0 - 1e-14), psi
        if abs(psi) == 0.5 * math.pi:
            assert max(abs(th) for th in trace.thetas) <= 1e-15


def test_closed_circle_costs_its_samples(monkeypatch):
    # a tangential launch on the U waist is the circle itself: 64 samples
    # per loop and no quadrature; the launch and the circle check add two
    r, metric = 0.1, "s"
    circle = find_closed_geodesic(r, metric)
    z0 = complex(circle.rho_star, 0.0)
    v0 = 1j / MetricField(r, metric).density(z0)
    calls = []
    evaluate = MetricField.density_and_log_gradient

    def counted(self, z):
        calls.append(z)
        return evaluate(self, z)

    monkeypatch.setattr(MetricField, "density_and_log_gradient", counted)
    trace = integrate(r, metric, GeodesicState(z0, v0), 3.0 * circle.length, step_tol=1e-13)
    assert len(trace) == 3 * 64 + 1
    assert len(calls) == len(trace) + 2
    assert trace.winding_count == 3


@pytest.mark.parametrize("r, z0, t_end", [(0.02, 0.16, 150.0), (0.1, 0.5, 120.0)])
def test_spiral_closure_comes_from_the_orbit(monkeypatch, r, z0, t_end):
    # the closure distance is a property of the orbit: the well returns to
    # its launch state rotated by the angle of each radial period, and an
    # orbit at an unstable circle never returns; the sampling must not move it
    before = spiral_trace(r, "s", z0, t_end)
    monkeypatch.setattr(geodesics, "_SAMPLES_PER_LOOP", 4 * geodesics._SAMPLES_PER_LOOP)
    after = spiral_trace(r, "s", z0, t_end)
    assert after.closure_distance == before.closure_distance
    assert not after.closed
    if r < SQUARE_R:
        assert 1e-3 < before.closure_distance < math.inf
    else:
        assert before.closure_distance == math.inf


# ---------------------------------------------------------------------------
# winding bookkeeping


def ray_crossings(positions):
    """Signed crossings of the radial ray opposite the starting point."""
    count = 0
    z0 = positions[0]
    w_prev = positions[0] / z0
    for z in positions[1:]:
        w = z / z0
        if w.real < 0.0 or w_prev.real < 0.0:
            if w_prev.imag > 0.0 >= w.imag:
                count += 1
            elif w_prev.imag <= 0.0 < w.imag:
                count -= 1
        w_prev = w
    return count


def test_winding_matches_ray_crossings():
    field = MetricField(0.02, "s")
    z0 = 0.16 + 0j
    v0 = 1j / field.density(z0)
    trace = integrate(0.02, "s", GeodesicState(z0, v0), 20.0)
    assert trace.winding_count >= 5
    assert trace.winding_count == ray_crossings(trace.positions)
    assert trace.winding_count == math.floor((trace.thetas[-1] + math.pi) / TWO_PI)


def test_tangential_launch_winds_monotonically():
    field = MetricField(0.02, "s")
    z0 = 0.16 + 0j
    v0 = 1j / field.density(z0)
    trace = integrate(0.02, "s", GeodesicState(z0, v0), 20.0)
    diffs = np.diff(trace.thetas)
    assert np.all(diffs > 0.0)
    assert np.all(np.abs(diffs) < math.pi)


def test_radial_shot_stays_radial_and_escapes():
    field = MetricField(0.3, "s")
    z0 = 0.6 + 0j
    v0 = 1.0 / field.density(z0)
    trace = integrate(0.3, "s", GeodesicState(z0, v0), 30.0, step_tol=1e-7)
    assert trace.escaped
    assert trace.winding_count == 0
    assert max(abs(th) for th in trace.thetas) <= 1e-9
    assert 1.0 - abs(trace.positions[-1]) <= 1e-3


# ---------------------------------------------------------------------------
# radial stability of the symmetric circle


def test_unstable_waist_sheds_perturbations():
    # at r = 0.1 the waist curvature is negative: a tangential launch
    # 1e-3 outside the circle leaves monotonically and never crosses back
    r = 0.1
    rho0 = math.sqrt(r) + 1e-3
    field = MetricField(r, "s")
    v0 = 1j * rho0 / (rho0 * field.density(rho0))
    trace = integrate(r, "s", GeodesicState(complex(rho0, 0.0), v0), 60.0, step_tol=1e-8)
    radii = np.abs(np.array(trace.positions))
    assert trace.escaped
    assert radii.max() > 0.9
    assert radii.min() >= math.sqrt(r) - 1e-6


def test_stable_waist_oscillates():
    # at r = 0.02 the waist curvature is positive: the same perturbation
    # oscillates radially around sqrt(r) and stays confined
    r = 0.02
    rho_star = math.sqrt(r)
    rho0 = rho_star + 1e-3
    field = MetricField(r, "s")
    v0 = 1j / field.density(rho0)
    trace = integrate(r, "s", GeodesicState(complex(rho0, 0.0), v0), 40.0)
    radii = np.abs(np.array(trace.positions))
    assert not trace.escaped
    assert radii.min() >= rho_star - 1.2e-3
    assert radii.max() <= rho_star + 1.2e-3
    crossings = int(np.sum(np.diff(np.sign(radii - rho_star)) != 0))
    assert crossings >= 6
    assert radii.min() < rho_star < radii.max()


# ---------------------------------------------------------------------------
# spirals


def test_spiral_succeeds_in_stable_regime():
    report = spiral_trace(0.02, "s", 0.16, 150.0)
    assert report.succeeded
    assert report.launch_angle == 0.0
    assert report.trace.winding_count >= 20
    assert not report.closed
    assert report.closure_distance > 1e-3
    assert 0.04 <= report.rho_min <= report.rho_max <= 0.98
    assert report.trace.energy_drift <= 1e-7
    assert report.trace.angular_drift <= 1e-7


def test_spiral_reports_honestly_at_unstable_waist():
    # the r = 0.1 waist sheds deviations by about 7 e-folds per winding;
    # the report must say whether the trace is still in the band at
    # t_end rather than pretend
    report = spiral_trace(0.1, "s", 0.5, 40.0)
    assert report.succeeded == (
        not report.trace.escaped
        and report.trace.band_exit is None
        and report.trace.ts[-1] == 40.0
    )
    assert report.succeeded
    assert report.trace.winding_count >= 3
    assert report.closure_distance > 1e-3
    assert not report.closed
    assert report.trace.energy_drift <= 1e-7
    assert report.trace.angular_drift <= 1e-7


def test_spiral_rejects_degenerate_launches():
    with pytest.raises(DomainError):
        spiral_trace(0.1, "s", complex(math.sqrt(0.1), 0.0), 10.0)
    with pytest.raises(DomainError):
        spiral_trace(0.1, "s", 1.5, 10.0)
    with pytest.raises(DomainError):
        spiral_trace(0.1, "s", 0.99, 10.0)
    with pytest.raises(DomainError):
        spiral_trace(0.1, "s", 0.5, 10.0, band=(0.05, 1.2))
    with pytest.raises(DomainError):
        spiral_trace(0.1, "s", 0.5, 10.0, band=(0.6, 0.9))
    with pytest.raises(DomainError):
        spiral_trace(0.1, "s", 0.5, 0.0)


@pytest.mark.parametrize("r", [1e-100, 1e-200, 1e-300])
def test_flank_turn_where_the_quadratic_form_underflows(r):
    # P_0 = 0 at a flank circle, and 4 P_1 WAIST_GAP underflows to 0 from r
    # of about 1e-100, so P_1 v^2 = WAIST_GAP is solved as it stands; the
    # orbit heads for the inner flank and leaves the default band at its
    # inner edge, as it does at r = 1e-20 and 1e-50.  With x_t about 1e-154
    # the launch and exit samples sit at s of about 355, whose rounding
    # moves xi = x_t cosh(s) by eps 355 xi, xi < ln(1/r)/2, against their
    # fixed radii: that bounds the drift
    report = spiral_trace(r, "s", 0.5, 40.0)
    trace = report.trace
    assert trace.band_exit == "inner"
    assert abs(trace.positions[-1]) == pytest.approx(r + 0.02, rel=1e-12)
    assert trace.energy_drift <= 4e-14 * -math.log(r)
    assert trace.angular_drift <= 4e-14 * -math.log(r)


# ---------------------------------------------------------------------------
# Clairaut quadrature at unstable waists


def waist_profile_mp(r, metric):
    """f(x) = rho m(rho) at rho = sqrt(r) e^x, summed directly in mpmath."""
    r = mpmath.mpf(r)
    ns = range(-150, 150)
    weights = [r**n / (1 + r ** (2 * n + 1)) for n in ns]

    def f(x):
        e2x = mpmath.exp(2 * x)
        s0 = s1 = s2 = mpmath.mpf(0)
        for n, w in zip(ns, weights):
            term = w * e2x**n
            s0 += term
            s1 += 2 * n * term
            s2 += 4 * n * n * term
        if metric == "c":
            return mpmath.sqrt(r) * mpmath.exp(x) * s0
        # s^2 = d dbar log S = (d/dx)^2 log S / (4 rho^2)
        return mpmath.sqrt(s2 / s0 - (s1 / s0) ** 2) / 2

    return f


def waist_coefficients(r, metric):
    field = MetricField(r, metric)
    rs = math.sqrt(r)
    f_star = rs * field.density(rs)
    return field, f_star, _local_model(field, 0.0, 4.0 * _x_model(r), f_star, kappa=field.curvature(rs))


@pytest.mark.parametrize("metric", ["c", "s"])
@pytest.mark.parametrize("r", [0.3, 0.1, 0.044, 0.043, 0.02, 1e-3])
def test_waist_curvature_matches_hardy_route(r, metric):
    # the evaluator's cumulant formula against the J-function route of
    # sample; r = 0.044 and 0.043 straddle the U/W transition of s, where
    # the sign decides the spiral route
    waist = sample(r, math.sqrt(r))
    kappa = waist.kappa_s if metric == "s" else waist.kappa_c
    waist_kappa = MetricField(r, metric).curvature(math.sqrt(r))
    assert waist_kappa == pytest.approx(kappa, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("metric", ["c", "s"])
@pytest.mark.parametrize("r", [0.1, 0.3])
def test_waist_model_matches_mpmath_derivatives(r, metric):
    # f(x) - f* = a x^2 / 2 + f4 x^4 / 24 + ... with a = -kappa f*^3 from
    # the curvature; the reference differentiates a 40-digit direct sum
    _, f_star, coeffs = waist_coefficients(r, metric)
    with mpmath.workdps(40):
        f = waist_profile_mp(r, metric)
        f_ref = float(f(0))
        a_ref = float(mpmath.diff(f, 0, 2))
        f4_ref = float(mpmath.diff(f, 0, 4))
    assert f_star == pytest.approx(f_ref, rel=1e-14)
    assert 2.0 * coeffs[0] == pytest.approx(a_ref, rel=1e-12)
    assert coeffs[1] == pytest.approx(f4_ref / 24.0, rel=1e-6)
    if (r, metric) == (0.1, "s"):
        assert 2.0 * coeffs[0] == pytest.approx(0.903875, abs=5e-7)


def test_gap_factor_is_the_divided_difference():
    coeffs = (0.45, 0.73, 0.26, 0.27, -0.002)

    def g(y):
        return y * sum(cf * y**k for k, cf in enumerate(coeffs))

    for y, yt in ((0.3, 0.1), (1e-4, 2e-5), (0.02, 0.0)):
        assert _gap_factor(coeffs, y, yt) == pytest.approx((g(y) - g(yt)) / (y - yt), rel=1e-12)
    assert _gap_factor(coeffs, 1e-300, 1e-300) == coeffs[0]


def test_turning_point_does_not_divide_by_the_waist_coefficient():
    # at the U/W transition a = f''(0) vanishes; the turning point then
    # comes from the x^4 term, x_t = (gap / P_1)^(1/4)
    field, f_star, coeffs = waist_coefficients(0.1, "s")
    for a_half in (0.0, 1e-200, coeffs[0]):
        orbit = _ClairautOrbit(field, 1.0, 0.0, f_star, (a_half,) + coeffs[1:], "turning", WAIST_GAP)
        yt = orbit.x_turn**2
        assert math.isfinite(orbit.x_turn) and orbit.x_turn > 0.0
        assert yt * (a_half + coeffs[1] * yt) == pytest.approx(WAIST_GAP, rel=1e-12)
    flat = _ClairautOrbit(field, 1.0, 0.0, f_star, (0.0,) + coeffs[1:], "turning", WAIST_GAP)
    assert flat.x_turn == pytest.approx((WAIST_GAP / coeffs[1]) ** 0.25, rel=1e-12)
    # there f - c = P_1 (x^2 - x_t^2)(x^2 + x_t^2) + ..., so at the turn
    # dt/ds = f*^2 / sqrt(2 P_1 x_t^2 * 2 f*)
    yt = flat.x_turn**2
    assert flat.rates(0.0)[0] == pytest.approx(
        f_star**2 / math.sqrt(4.0 * coeffs[1] * yt * f_star), rel=1e-12
    )


def test_quadrature_spiral_near_the_transition():
    # r = 0.044 sits just on the unstable side of the U/W transition
    # (a ~ 0.01), where the x^4 term carries most of the waist profile
    report = spiral_trace(0.044, "s", 0.5, 60.0)
    assert report.succeeded
    assert report.trace.winding_count >= 10
    assert abs(report.rho_min - math.sqrt(0.044)) <= 1e-6
    assert report.trace.energy_drift <= 1e-7
    assert report.trace.angular_drift <= 1e-7


@pytest.mark.parametrize("metric, loops, tol", [("s", 3, 1e-5), ("c", 2, 1e-6)])
def test_quadrature_spiral_matches_integrator(metric, loops, tol):
    # the integrator starts from the quadrature's rounded launch state,
    # whose Clairaut constant misses the chosen one by ~1e-16; the waist
    # amplifies that by about exp(sqrt(-kappa) t), so the two traces are
    # compared over the first few windings only
    r = 0.1
    f_star = math.sqrt(r) * MetricField(r, metric).density(math.sqrt(r))
    loop = TWO_PI * f_star
    trace = spiral_trace(r, metric, 0.5, loops * loop).trace
    state = GeodesicState(trace.positions[0], trace.velocities[0])
    t = 0.0
    for i in range(8, len(trace), 8):
        seg = dp45_integrate(MetricField(r, metric), state, trace.ts[i] - t, step_tol=1e-12, project=True)
        state, t = seg.final_state(), trace.ts[i]
        err = abs(state.position - trace.positions[i])
        assert err <= (1e-9 if t <= loop else tol), (t, err)


@pytest.mark.parametrize("metric", ["c", "s"])
def test_integrator_sheds_the_quadrature_launch(metric):
    # the shooting ceiling: from the same rounded launch, DP45 with
    # projection leaves the band within about 6 windings, while the
    # quadrature trace stays in it for the whole window
    r = 0.1
    band = (r + 0.02, 0.98)
    report = spiral_trace(r, metric, 0.5, 120.0, band=band)
    assert report.succeeded
    assert report.trace.winding_count >= 20
    trace = report.trace
    shot = dp45_integrate(
        MetricField(r, metric),
        GeodesicState(trace.positions[0], trace.velocities[0]),
        120.0,
        band=band,
        project=True,
    )
    assert shot.band_exit is not None
    assert shot.winding_count <= 6


def test_quadrature_spiral_inversion_symmetry():
    # z -> r / conj(z) is an isometry fixing angles, so a launch from
    # r / rho0 traces the mirror image of the launch from rho0
    r = 0.1
    out = spiral_trace(r, "s", 0.5, 120.0)
    inn = spiral_trace(r, "s", r / 0.5, 120.0)
    assert inn.succeeded and out.succeeded
    assert inn.trace.winding_count == out.trace.winding_count >= 20
    assert inn.launch_angle == pytest.approx(-out.launch_angle, rel=1e-12)
    assert inn.rho_max == pytest.approx(math.sqrt(r), rel=1e-12)
    assert len(inn.trace) == len(out.trace)
    for i in range(0, len(out.trace), 50):
        assert inn.trace.ts[i] == pytest.approx(out.trace.ts[i], rel=1e-10, abs=1e-12)
        assert inn.trace.thetas[i] == pytest.approx(out.trace.thetas[i], rel=1e-10, abs=1e-12)
        z_in, z_out = inn.trace.positions[i], out.trace.positions[i]
        assert abs(z_in - r / z_out.conjugate()) <= 1e-10


@pytest.mark.parametrize(
    "z0, band, side",
    [(0.5, (0.4, 0.9), "inner"), (0.2, (0.12, 0.25), "outer")],
)
def test_quadrature_spiral_band_short_of_the_waist(z0, band, side):
    # the orbit heads for the waist sqrt(0.1) = 0.316 first; a band that
    # stops short of it is left on the way in, and the report says so
    report = spiral_trace(0.1, "s", z0, 120.0, band=band)
    trace = report.trace
    assert not report.succeeded
    assert trace.band_exit == side
    assert trace.ts[-1] < 120.0
    assert trace.winding_count == 0
    edge = band[0] if side == "inner" else band[1]
    assert abs(trace.positions[-1]) == pytest.approx(edge, rel=1e-12)
    assert band[0] * (1.0 - 1e-12) <= report.rho_min <= report.rho_max <= band[1] * (1.0 + 1e-12)
    assert trace.energy_drift <= 1e-7
    assert trace.angular_drift <= 1e-7


def test_quadrature_spiral_beyond_the_smallest_gap():
    # even the smallest positive gap leaves the r = 0.1 waist after a few
    # hundred time units; a longer window returns the whole orbit up to
    # the band exit and says so
    band = (0.12, 0.98)
    report = spiral_trace(0.1, "s", 0.5, 1000.0, band=band)
    trace = report.trace
    assert not report.succeeded
    assert not trace.escaped
    assert trace.band_exit == "outer"
    assert 200.0 < trace.ts[-1] < 1000.0
    assert abs(trace.positions[-1]) == pytest.approx(band[1], rel=1e-12)
    assert report.rho_max <= band[1] * (1.0 + 1e-12)
    assert trace.winding_count > spiral_trace(0.1, "s", 0.5, 120.0).trace.winding_count
    assert not report.closed
    assert trace.energy_drift <= 1e-7
    assert trace.angular_drift <= 1e-7
    assert trace.length == pytest.approx(trace.ts[-1], rel=1e-9)
    # away from the waist the integrator is a sharp check of the last
    # stretch, where f grows towards the boundary
    i = max(k for k in range(len(trace)) if abs(trace.positions[k]) <= 0.6)
    state = GeodesicState(trace.positions[i], trace.velocities[i])
    seg = dp45_integrate(MetricField(0.1, "s"), state, trace.ts[-1] - trace.ts[i], step_tol=1e-12, project=True)
    assert abs(seg.positions[-1] - trace.positions[-1]) <= 1e-10


# ---------------------------------------------------------------------------
# Clairaut quadrature in the W regime


def flank_circles(r):
    rho1 = find_closed_geodesic(r, "s").rho_star
    return min(rho1, r / rho1), max(rho1, r / rho1)


def test_every_spiral_is_traced_without_the_integrator(monkeypatch):
    # spiral_trace picks its orbit by the Clairaut gap, never from a
    # launch state through integrate, and builds it where integrate does
    def refuse(*args, **kwargs):
        raise AssertionError("spiral_trace called the integrator")

    built = []
    choose = geodesics._choose_orbit

    def counted(*args, **kwargs):
        built.append(args)
        return choose(*args, **kwargs)

    monkeypatch.setattr(geodesics, "integrate", refuse)
    monkeypatch.setattr(geodesics, "_choose_orbit", counted)
    # an unstable waist, a launch inside the stable well, one outside it
    for r, z0 in ((0.1, 0.5), (0.02, 0.16), (0.02, 0.3)):
        assert spiral_trace(r, "s", z0, 40.0).succeeded
    assert len(built) == 3


@pytest.mark.parametrize("t_end, windings", [(80.0, 24), (150.0, 44)])
def test_well_spiral_matches_the_tangential_launch(t_end, windings):
    # criterion 10's stable-regime spiral: the tangential launch at
    # |z0| = 0.16 oscillates between 0.16 and r/0.16 = 0.125; DP45 with
    # first-integral projection from the same launch is the reference
    r, z0 = 0.02, 0.16
    report = spiral_trace(r, "s", z0, t_end)
    trace = report.trace
    assert report.succeeded
    assert report.launch_angle == 0.0
    assert trace.winding_count == windings
    assert not report.closed
    assert trace.energy_drift <= 1e-7
    assert trace.angular_drift <= 1e-7
    assert report.rho_min == pytest.approx(r / z0, rel=1e-12)
    assert report.rho_max == pytest.approx(z0, rel=1e-12)
    v0 = 1j / MetricField(r, "s").density(z0)
    shot = dp45_integrate(MetricField(r, "s"), GeodesicState(z0, v0), t_end, project=True)
    assert abs(trace.positions[-1] - shot.positions[-1]) <= 1e-7


@pytest.mark.parametrize("z0", [0.16, 0.1415, 0.0745, 0.07346, 0.3, 0.06])
def test_w_regime_spiral_matches_integrator_segments(z0):
    # from every sample, DP45 with projection reaches the next one.  In the
    # well 0.1415 turns within the waist model, 0.0745 and 0.07346 turn
    # 1e-3 and 1e-5 from the flank circle, where the panels must be
    # refined; 0.3 and 0.06 lie outside the well and spiral at its flanks
    r = 0.02
    trace = spiral_trace(r, "s", z0, 20.0).trace
    for i in range(1, len(trace)):
        state = GeodesicState(trace.positions[i - 1], trace.velocities[i - 1])
        seg = dp45_integrate(MetricField(r, "s"), state, trace.ts[i] - trace.ts[i - 1], step_tol=1e-12, project=True)
        assert abs(seg.positions[-1] - trace.positions[i]) <= 1e-9, (trace.ts[i], z0)


def test_well_spiral_inversion_symmetry():
    r = 0.02
    out = spiral_trace(r, "s", 0.16, 40.0)
    inn = spiral_trace(r, "s", r / 0.16, 40.0)
    assert inn.launch_angle == out.launch_angle == 0.0
    assert inn.rho_min == pytest.approx(out.rho_min, rel=1e-12)
    assert inn.rho_max == pytest.approx(out.rho_max, rel=1e-12)
    assert len(inn.trace) == len(out.trace)
    for i in range(len(out.trace)):
        assert inn.trace.ts[i] == pytest.approx(out.trace.ts[i], rel=1e-10, abs=1e-12)
        assert inn.trace.thetas[i] == pytest.approx(out.trace.thetas[i], rel=1e-10, abs=1e-12)
        z_in, z_out = inn.trace.positions[i], out.trace.positions[i]
        assert abs(z_in - r / z_out.conjugate()) <= 1e-10


@pytest.mark.parametrize(
    "z0, band, side", [(0.16, (0.13, 0.98), "inner"), (0.125, (0.04, 0.155), "outer")]
)
def test_well_spiral_band_short_of_the_far_turn(z0, band, side):
    # the oscillation between 0.16 and 0.125 takes 2.3644 from one turn to
    # the other; a band edge in between is left on the first crossing
    report = spiral_trace(0.02, "s", z0, 40.0, band=band)
    trace = report.trace
    assert not report.succeeded
    assert trace.band_exit == side
    assert trace.ts[-1] < 2.3644
    edge = band[0] if side == "inner" else band[1]
    assert abs(trace.positions[-1]) == pytest.approx(edge, rel=1e-12)
    assert trace.energy_drift <= 1e-7
    assert trace.angular_drift <= 1e-7


def test_w_regime_rejects_launches_on_its_circles():
    r = 0.02
    for rho_star in (math.sqrt(r), *flank_circles(r)):
        for offset in (-9e-7, 9e-7):
            with pytest.raises(DomainError, match="closed geodesic circle"):
                spiral_trace(r, "s", rho_star + offset, 10.0)


@pytest.mark.parametrize(
    "r, z0, t_reach",
    [(0.02, 0.06, 40.0), (0.02, 0.3, 40.0), (0.043, 0.5, 160.0), (0.0432, 0.5, 320.0)],
)
def test_flank_spiral(r, z0, t_reach):
    # outside the well the orbit spirals in to the nearer flank circle and
    # back out, as at an unstable waist.  Next to the U/W transition the
    # flank's curvature is small (-1.8e-3 at r = 0.0432), so the approach
    # takes longer than 40 time units
    report = spiral_trace(r, "s", z0, 40.0)
    assert report.succeeded
    assert report.trace.winding_count >= 10
    assert report.trace.energy_drift <= 1e-7
    assert report.trace.angular_drift <= 1e-7
    reached = report if t_reach == 40.0 else spiral_trace(r, "s", z0, t_reach)
    assert reached.succeeded
    inner, outer = flank_circles(r)
    if z0 < inner:
        assert abs(reached.rho_max - inner) <= 1e-6
    else:
        assert abs(reached.rho_min - outer) <= 1e-6
    assert reached.trace.energy_drift <= 1e-7
    assert reached.trace.angular_drift <= 1e-7


@pytest.mark.parametrize("r", [1e-4, 1e-5])
def test_flank_spiral_at_small_r(r):
    # find_closed_geodesic's grid search raised InternalConsistencyError here
    report = spiral_trace(r, "s", 0.5, 40.0)
    assert report.succeeded
    assert report.trace.winding_count >= 10
    assert report.trace.energy_drift <= 1e-7
    assert report.trace.angular_drift <= 1e-7


@pytest.mark.parametrize("r", [1e-3, 1e-12, 1e-18, 1e-30])
@pytest.mark.parametrize("metric, flank", [("c", False), ("s", False), ("s", True)])
def test_circle_models_hold_f_where_they_are_used(r, metric, flank):
    # the c waist, the s waist and the inner s flank, fit on 4 _x_model and
    # used within _x_model, against the field; at the inner flank the model
    # of the outer one stands in by the inversion symmetry
    field = MetricField(r, metric)
    rs = math.sqrt(r)
    x_c = math.log(rs / find_closed_geodesic(r, "s").rho_star) if flank else 0.0
    rho_c = rs * math.exp(x_c)
    f_c = rho_c * field.density(rho_c)
    x_model = _x_model(r)
    coeffs = _local_model(field, x_c, 4.0 * x_model, f_c, kappa=field.curvature(rho_c))
    power = 1 if flank else 2
    for d in np.linspace(-x_model, x_model, 41):
        u = float(d) ** power
        rho = rs * math.exp(-(x_c + d))
        assert abs(rho * field.density(rho) - (f_c + u * _poly(coeffs, u))) <= 1e-13 * f_c, d


@pytest.mark.parametrize("r", [1e-12, 1e-18, 1e-30])
def test_flank_spiral_holds_both_integrals_at_small_r(r):
    # a band down to 2r lets the orbit reach the flank circle's model
    report = spiral_trace(r, "s", 0.5, 40.0, band=(2.0 * r, 0.98))
    assert report.trace.energy_drift <= 1e-10
    assert report.trace.angular_drift <= 1e-10


@pytest.mark.parametrize("r", [0.02, 1e-3])
def test_flank_model_matches_mpmath_derivatives(r):
    # f(x) - f_c = xi^2 (P_1 + P_2 xi + ...) about the flank circle, with
    # odd terms; the reference differentiates a 40-digit direct sum at the
    # critical point it locates itself
    field = MetricField(r, "s")
    rs = math.sqrt(r)
    x1 = math.log(flank_circles(r)[1] / rs)
    rho_c = rs * math.exp(x1)
    f_c = rho_c * field.density(rho_c)
    coeffs = _local_model(field, x1, 4.0 * _x_model(r), f_c, kappa=field.curvature(rho_c))
    assert coeffs[0] == 0.0
    with mpmath.workdps(40):
        f = waist_profile_mp(r, "s")
        x_ref = mpmath.findroot(lambda x: mpmath.diff(f, x, 1), mpmath.mpf(x1))
        f2_ref = float(mpmath.diff(f, x_ref, 2))
        f3_ref = float(mpmath.diff(f, x_ref, 3))
        f_ref = float(f(x_ref))
    assert f_c == pytest.approx(f_ref, rel=1e-14)
    assert 2.0 * coeffs[1] == pytest.approx(f2_ref, rel=1e-12)
    assert coeffs[2] == pytest.approx(f3_ref / 6.0, rel=1e-6)


@pytest.mark.parametrize("metric", ["c", "s"])
@pytest.mark.parametrize("r", [0.3, 0.1, 0.02, 1e-3])
def test_curvature_matches_hardy_route_off_the_waist(r, metric):
    field = MetricField(r, metric)
    for lam in (0.1, 0.25, 0.4, 0.6, 0.75, 0.9):
        point = sample(r, r**lam)
        kappa = point.kappa_s if metric == "s" else point.kappa_c
        assert field.curvature(r**lam) == pytest.approx(kappa, rel=1e-12), lam


# ---------------------------------------------------------------------------
# argument validation for integrate, and the DP45 oracle's own errors


def test_integrate_validates_arguments():
    good = GeodesicState(0.5, 1j)
    with pytest.raises(DomainError):
        integrate(0.1, "s", GeodesicState(1.5, 1j), 1.0)
    with pytest.raises(DomainError):
        integrate(0.1, "s", GeodesicState(0.5, 0.0), 1.0)
    with pytest.raises(DomainError):
        integrate(0.1, "s", good, 0.0)
    with pytest.raises(DomainError):
        integrate(0.1, "s", good, math.inf)
    with pytest.raises(DomainError):
        integrate(0.1, "s", good, 1.0, step_tol=0.0)
    with pytest.raises(DomainError):
        integrate(0.1, "s", good, 1.0, step_tol=0.01)
    with pytest.raises(DomainError):
        integrate(0.1, "q", good, 1.0)


def test_integrator_errors_name_r():
    with pytest.raises(ConvergenceError, match=r"exceeded 5 accepted steps .*, r = 0\.3\)"):
        dp45_integrate(MetricField(0.3, "s"), generic_state(), 3.0, max_steps=5)

    class Jumpy:
        # the density doubles after the launch, so no step conserves speed
        r = 0.3
        launched = False

        def density_and_log_gradient(self, z):
            m, self.launched = (2.0 if self.launched else 1.0), True
            return m, 0j

    with pytest.raises(ConvergenceError, match=r"step size collapsed .*\(\|z\| = 0\.52, r = 0\.3\)"):
        dp45_integrate(Jumpy(), generic_state(), 3.0)


def test_integrator_rejects_steps_with_a_nan_error_norm():
    class Steep:
        # every stage overflows, so the error norm is NaN
        r = 0.3

        def density_and_log_gradient(self, z):
            return 1.0, complex(1e200, 0.0)

    with pytest.raises(ConvergenceError, match=r"step size collapsed .*, r = 0\.3\)"):
        dp45_integrate(Steep(), generic_state(), 3.0)


def test_trace_container_basics():
    trace = generic_trace(0.5)
    assert len(trace) == len(trace.ts) == len(trace.positions)
    fs = trace.final_state()
    assert fs.position == trace.positions[-1]
    assert fs.velocity == trace.velocities[-1]
    assert trace.ts[0] == 0.0
    assert trace.ts[-1] == pytest.approx(0.5)
