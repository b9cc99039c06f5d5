"""Shared oracle helpers for the test suite.

Everything here is deliberately independent of the package internals:
finite differences run in 50-digit arithmetic, symbolic derivatives come
from sympy, and lattice sums are summed directly.  Implementation code
is only ever compared against these, never used to build them.  The one
exception is the DP45 geodesic integrator at the end, which steps the
geodesic equation on the package's own density field: it shares the
field with the Clairaut quadrature it checks, and nothing else.
"""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np

from annulus_metrics.errors import ConvergenceError, DomainError, check_point, check_t_end
from annulus_metrics.geodesics import (
    ESCAPE_COLLAR,
    STEP_TOL,
    GeodesicState,
    MetricField,
    _trace_from_samples,
)


def mixed_wirtinger_fd(f, z0: complex, j: int, k: int, h: float = 1e-4, dps: int = 50):
    """d^j dzbar^k f at z0 by central differences in high precision.

    The Wirtinger operators are realized through their real form,
    d = (dx - i dy)/2 and dzbar = (dx + i dy)/2, expanded binomially so a
    single 2D central-difference stencil of the requested step h covers
    the whole mixed derivative.  f must accept an mpmath complex argument.
    """
    with mpmath.workdps(dps):
        hm = mpmath.mpf(h)
        order = j + k

        # Coefficient of dx^a dy^(order-a) in (dx - i*dy)^j (dx + i*dy)^k / 2^(j+k).
        poly = {(0, 0): mpmath.mpc(1)}
        for _ in range(j):
            nxt = {}
            for (a, b), cf in poly.items():
                nxt[(a + 1, b)] = nxt.get((a + 1, b), 0) + cf
                nxt[(a, b + 1)] = nxt.get((a, b + 1), 0) - 1j * cf
            poly = nxt
        for _ in range(k):
            nxt = {}
            for (a, b), cf in poly.items():
                nxt[(a + 1, b)] = nxt.get((a + 1, b), 0) + cf
                nxt[(a, b + 1)] = nxt.get((a, b + 1), 0) + 1j * cf
            poly = nxt

        z0 = mpmath.mpc(z0)

        def dx_dy(a, b):
            # Central differences, one axis at a time.
            def g(y_shift_steps, x_shift_steps):
                return f(z0 + x_shift_steps * hm + 1j * y_shift_steps * hm)

            # b-th central difference in y of the a-th central difference in x.
            total = mpmath.mpc(0)
            for sb in range(b + 1):
                wb = (-1) ** sb * mpmath.binomial(b, sb)
                for sa in range(a + 1):
                    wa = (-1) ** sa * mpmath.binomial(a, sa)
                    total += wa * wb * g(b / 2 - sb, a / 2 - sa)
            return total / hm ** (a + b)

        acc = mpmath.mpc(0)
        for (a, b), cf in poly.items():
            assert a + b == order
            acc += cf * dx_dy(a, b) / 2 ** order
        return complex(acc)


def jet_table_fd(f, z0: complex, order: int, h: float = 1e-4, dps: int = 50) -> np.ndarray:
    """Full (order+1) x (order+1) mixed-derivative table by the FD oracle."""
    out = np.zeros((order + 1, order + 1), dtype=complex)
    for j in range(order + 1):
        for k in range(order + 1):
            out[j, k] = mixed_wirtinger_fd(f, z0, j, k, h=h, dps=dps)
    return out


def lattice_points(omega1: float, M: int):
    """All 2*m*omega1 + 2*n*i*pi for |m|, |n| <= M except the origin."""
    m, n = np.meshgrid(np.arange(-M, M + 1), np.arange(-M, M + 1), indexing="ij")
    omega = 2.0 * m.ravel() * omega1 + 2.0j * np.pi * n.ravel()
    return omega[np.abs(omega) > 0]


def wp_lattice_sum(z: complex, omega1: float, M: int) -> complex:
    """Direct lattice-sum definition of wp over a symmetric box."""
    om = lattice_points(omega1, M)
    return 1.0 / z**2 + np.sum(1.0 / (z - om) ** 2 - 1.0 / om**2)


def wp_lattice_richardson(z: complex, omega1: float, M: int = 200) -> complex:
    """Richardson-extrapolated box sum.

    Over the symmetric box the odd tail terms cancel, leaving an error
    of the form c/M^2; two box sizes eliminate it.
    """
    s1 = wp_lattice_sum(z, omega1, M // 2)
    s2 = wp_lattice_sum(z, omega1, M)
    return (4.0 * s2 - s1) / 3.0


def g2_g3_lattice_richardson(omega1: float, M: int = 200):
    """Invariants g2 = 60 sum Omega^-4, g3 = 140 sum Omega^-6 by box sums."""

    def g2_box(mm):
        om = lattice_points(omega1, mm)
        return 60.0 * float(np.sum(1.0 / om**4).real)

    def g3_box(mm):
        om = lattice_points(omega1, mm)
        return 140.0 * float(np.sum(1.0 / om**6).real)

    # The g2 box error is O(M^-2), g3 converges faster; the same
    # two-level extrapolation is ample for both.
    g2 = (4.0 * g2_box(M) - g2_box(M // 2)) / 3.0
    g3 = (4.0 * g3_box(M) - g3_box(M // 2)) / 3.0
    return g2, g3


def fd_dz(f, z: complex, h: float = 1e-5) -> complex:
    """Plain double-precision central d/dz for holomorphic f."""
    return (f(z + h) - f(z - h)) / (2.0 * h)


def fd_laplacian(f, z: complex, h: float = 1e-4) -> float:
    """5-point double-precision Laplacian of a real-valued function."""
    return (
        f(z + h) + f(z - h) + f(z + 1j * h) + f(z - 1j * h) - 4.0 * f(z)
    ) / h**2


def product_log_density_mp(r: float, rho: float, dps: int = 40) -> tuple:
    """K = log 2*pi*S(z, z) at |z| = rho, and K'', K''', K'''' in v = log|z|^2.

    Ramanujan's 1psi1 sum, q = r^2, t = rho^2, gives
    2*pi*S = (q;q)^2 (-rt;q) (-r/t;q) / ((-r;q)^2 (t;q) (q/t;q)), so K is
    log((q;q)^2 / (-r;q)^2) plus -log(1 - x) for x = t q^k and q^(k+1)/t,
    and log(1 + x) for x = r t q^k and r q^k/t, k >= 0.  Each term's
    v-derivatives are exact rationals in x, with odd orders negated where
    x falls with v, and the terms are summed until x is below the working
    precision.
    """
    with mpmath.workdps(dps):
        r, t = mpmath.mpf(r), mpmath.mpf(rho) ** 2
        q = r * r
        k0 = k2 = k3 = k4 = mpmath.mpf(0)
        qk = mpmath.mpf(1)
        while True:
            k0 += 2 * (mpmath.log(1 - q * qk) - mpmath.log(1 + r * qk))
            for sign, x, rises in ((1, t * qk, 1), (1, q * qk / t, -1), (-1, -r * t * qk, 1), (-1, -r * qk / t, -1)):
                k0 -= sign * mpmath.log(1 - x)
                k2 += sign * x / (1 - x) ** 2
                k3 += sign * rises * x * (1 + x) / (1 - x) ** 3
                k4 += sign * x * (1 + 4 * x + x * x) / (1 - x) ** 4
            if max(t, r / t) * qk < mpmath.mpf(10) ** -(dps + 5):
                return k0, k2, k3, k4
            qk *= q


def szego_curvature_mp(r: float, rho: float, dps: int = 40):
    """-2 (K'' K'''' - K'''^2) / K''^3 from product_log_density_mp."""
    with mpmath.workdps(dps):
        _, k2, k3, k4 = product_log_density_mp(r, rho, dps)
        return -2 * (k2 * k4 - k3**2) / k2**3


def caratheodory_curvatures_mp(r: float, rho: float, dps: int = 60) -> tuple:
    """Orders 1 and 2 of the Caratheodory curvature, from product_log_density_mp.

    For a radial density e^K, det(d^j dbar^k e^K)_{j,k<=N} is |z|^(-N(N+1))
    times the Hankel determinant of the v-derivatives of e^K: e^(2K) K'' at
    N = 1 and e^(3K) (2K''^3 + K''K'''' - K'''^2) at N = 2.
    """
    with mpmath.workdps(dps):
        k0, k2, k3, k4 = product_log_density_mp(r, rho, dps)
        rc = mpmath.mpf(rho) * mpmath.exp(k0)
        return -4 * k2 / rc**2, -4 * (2 * k2**3 + k2 * k4 - k3**2) / rc**6


# ---------------------------------------------------------------------------
# DP45 reference integrator for the geodesic flow
#
# The library traces every geodesic by Clairaut quadrature; this
# step-by-step Dormand-Prince 5(4) integrator of
# sigma'' = -(d/dz log m^2)(sigma) (sigma')^2 is the independent oracle the
# geodesic tests compare it with.  It reads only the field's
# density_and_log_gradient, and with project=True it pulls each accepted
# step back onto the level set of the two first integrals (metric speed
# and angular momentum).

# Dormand-Prince 5(4) tableau.  The last row of _A equals _B5, so the
# seventh stage sits at the accepted point and is reused as the first
# stage of the next step.
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (
    5179 / 57600,
    0.0,
    7571 / 16695,
    393 / 640,
    -92097 / 339200,
    187 / 2100,
    1 / 40,
)
_ERR = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))


class _StageOutside(Exception):
    """An internal stage point left the open annulus."""


def geodesic_rhs(r: float, metric: str, state: GeodesicState) -> complex:
    """Acceleration -(d/dz log m^2) v^2 of the geodesic flow at a state."""
    field = MetricField(r, metric)
    _, g = field.density_and_log_gradient(state.position)
    v = state.velocity
    return -g * v * v


def _eval(field: MetricField, z: complex, near: float):
    """Field evaluation for one integrator stage.

    Out-of-annulus points and the escape horizon next to the boundary
    both surface as _StageOutside so the step controller can retreat.
    """
    try:
        return field.density_and_log_gradient(z)
    except DomainError:
        raise _StageOutside from None
    except ConvergenceError:
        rho = abs(z)
        if rho - field.r < near or 1.0 - rho < near:
            raise _StageOutside from None
        raise


def dp45_integrate(
    field: MetricField,
    initial: GeodesicState,
    t_end: float,
    step_tol: float = STEP_TOL,
    band: tuple | None = None,
    project: bool = False,
    max_steps: int = 400_000,
) -> GeodesicTrace:
    r = field.r
    z = check_point(r, initial.position, "z0")
    v = initial.velocity
    rho = abs(z)
    if v == 0:
        raise DomainError("initial velocity must be nonzero")
    check_t_end(t_end)
    if not (0.0 < step_tol <= 1e-3):
        raise DomainError(f"step_tol must lie in (0, 1e-3], got {step_tol!r}")

    near = 1e-3 * (1.0 - r)
    m0, g0 = field.density_and_log_gradient(z)
    e0 = m0 * abs(v)
    l0 = m0 * m0 * (z.conjugate() * v).imag
    # scale for angular-momentum drift; l0 itself vanishes for radial shots
    l_scale = max(abs(l0), 1e-3 * e0 * m0 * rho)
    k1 = (v, -g0 * v * v)
    e_prev = e0

    ts = [0.0]
    zs = [z]
    vs = [v]
    speeds = [e0]
    thetas = [0.0]
    drift = 0.0
    angular = 0.0
    escaped = False
    band_exit = None

    t = 0.0
    theta = 0.0
    h = min(t_end, 0.02 * min(rho - r, 1.0 - rho) / abs(v))
    rejects = 0

    while t < t_end:
        h = min(h, t_end - t)
        fail = None
        errnorm = math.inf
        try:
            ks = [k1]
            for i in range(1, 6):
                row = _A[i]
                zz = z + h * sum(row[j] * ks[j][0] for j in range(i))
                vv = v + h * sum(row[j] * ks[j][1] for j in range(i))
                _, gi = _eval(field, zz, near)
                ks.append((vv, -gi * vv * vv))
            z_new = z + h * sum(_B5[j] * ks[j][0] for j in range(6))
            v_new = v + h * sum(_B5[j] * ks[j][1] for j in range(6))
            m_new, g_new = _eval(field, z_new, near)
            k7 = (v_new, -g_new * v_new * v_new)
            ks.append(k7)
            err_z = h * sum(_ERR[j] * ks[j][0] for j in range(7))
            err_v = h * sum(_ERR[j] * ks[j][1] for j in range(7))
            sc_z = 1e-30 + step_tol * max(abs(z), abs(z_new))
            sc_v = 1e-30 + step_tol * max(abs(v), abs(v_new))
            errnorm = math.sqrt(0.5 * ((abs(err_z) / sc_z) ** 2 + (abs(err_v) / sc_v) ** 2))
            if not errnorm <= 1.0:
                fail = "accuracy"
            elif abs(z_new - z) > 0.2 * abs(z):
                fail = "jump"
            else:
                # gross conservation guard only; the accuracy test above
                # is what actually sizes the steps
                e_new = m_new * abs(v_new)
                if abs(e_new - e_prev) > max(4.0 * step_tol, 1e-12) * e0:
                    fail = "energy"
                elif project:
                    # re-impose the two first integrals (speed and
                    # angular momentum); along unstable waists this is
                    # what keeps the trace on its Clairaut level set
                    rho_n = abs(z_new)
                    u_r = z_new / rho_n
                    w = u_r.conjugate() * v_new
                    b_t = l0 / (m_new * m_new * rho_n)
                    a_sq = (e0 / m_new) ** 2 - b_t * b_t
                    a_t = math.copysign(math.sqrt(max(a_sq, 0.0)), w.real)
                    v_proj = complex(a_t, b_t) * u_r
                    if abs(v_proj - v_new) > 1e-6 * abs(v_new):
                        fail = "energy"
                    else:
                        v_new = v_proj
                        k7 = (v_new, -g_new * v_new * v_new)
                        e_new = m_new * abs(v_new)
        except _StageOutside:
            fail = "outside"

        if fail is None:
            t += h
            dtheta = cmath.phase(z_new / z)
            theta += dtheta
            z, v = z_new, v_new
            k1 = k7
            e_prev = e_new
            drift = max(drift, abs(e_new - e0) / e0)
            l_new = m_new * m_new * (z.conjugate() * v).imag
            angular = max(angular, abs(l_new - l0) / l_scale)
            ts.append(t)
            zs.append(z)
            vs.append(v)
            speeds.append(e_new)
            thetas.append(theta)
            rho = abs(z)
            if rho - r <= ESCAPE_COLLAR or 1.0 - rho <= ESCAPE_COLLAR:
                escaped = True
                break
            if band is not None:
                if rho <= band[0]:
                    band_exit = "inner"
                    break
                if rho >= band[1]:
                    band_exit = "outer"
                    break
            if len(ts) > max_steps:
                raise ConvergenceError(
                    f"geodesic exceeded {max_steps} accepted steps at t = {t:.6g}"
                    f" (|z| = {rho:.6g}, r = {r!r})"
                )
            h *= min(5.0, max(0.2, 0.9 * errnorm ** -0.2)) if errnorm > 0 else 5.0
            rejects = 0
        else:
            if fail == "accuracy":
                # a NaN error norm (a non-finite field value) takes the floor
                h *= min(0.9, max(0.1, 0.9 * errnorm ** -0.2)) if math.isfinite(errnorm) else 0.1
            else:
                h *= 0.5
            rejects += 1
            if fail == "outside" and h < 1e-10:
                # the trajectory is pressed against a circle or the horizon
                escaped = True
                break
            if rejects > 80 or h < 1e-15 * max(t, 1.0):
                raise ConvergenceError(
                    f"step size collapsed at t = {t:.6g} (|z| = {abs(z):.6g}, r = {r!r})"
                )

    return _trace_from_samples(
        ts, zs, vs, speeds, thetas,
        escaped=escaped, band_exit=band_exit, energy_drift=drift, angular_drift=angular,
    )
