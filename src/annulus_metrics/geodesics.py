"""Geodesics of the invariant conformal densities on the annulus.

A conformal density m on A_r = {r < |z| < 1} measures paths by the
integral of m |dz|.  Affinely parametrized geodesics solve

    sigma'' = -(d/dz log m^2)(sigma) * (sigma')^2,

so the only field data the integrator needs is m and the logarithmic
z-derivative of m^2.  Rotation invariance of both densities gives two
conserved quantities along every geodesic: the metric speed
E = m |sigma'| and the angular momentum L = m^2 Im(conj(sigma) sigma').
The integrator is a Dormand-Prince 5(4) pair whose acceptance test also
bounds the per-step change of E, so long traces conserve the speed to
roughly the step tolerance without any re-projection.

MetricField takes m and its gradient from Ramanujan's 1psi1 product
for the kernel diagonal (in hardy), at the same cost at every |z|.  A
trace escapes within ESCAPE_COLLAR of a circle or at the escape horizon
Q_HORIZON, about 4.5e-5 (relative) from one, where the field stops.

Radial structure: both densities blow up like 1/dist at the boundary,
so f(rho) = rho * m(rho) tends to +inf at both ends and circle
geodesics sit at its interior critical points.  By the Clairaut
relation cos(psi) = L / (E f(rho)) an orbit can only visit radii where
f >= |L|/E, so the shape of f decides everything.  Two regimes occur:

  * waist curvature negative (e.g. s at r = 0.1): f is U-shaped, the
    single circle at the minimum is unstable, and every other geodesic
    eventually slides into a boundary funnel.  Orbits can hug the
    circle only as long as their gap c - f(rho*) to the separatrix
    level stays small, where c = L/E is the Clairaut constant; the
    radial offset from the circle grows by exp(sqrt(-K) * L_circle)
    per winding.  A launch state (position and velocity) carries c only
    to about 1e-16, which caps a step-by-step integration at about five
    windings.  The Clairaut quadrature below carries the gap as its own
    scalar, down to the smallest positive double; for s at r = 0.1 that
    orbit spends about fifty windings on each side of its turn.

  * waist curvature positive (s for r below e^-pi, about 0.0432): f is
    W-shaped, the symmetric circle at sqrt(r) is a stable local
    maximum of f flanked by two length-minimizing circles, tangential
    launches between those oscillate radially forever, and orbits
    outside them spiral at the nearer one as at an unstable waist.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, InternalConsistencyError, RangeError
from .hardy import _DiagonalProduct, _check_r, _poly

TWO_PI = 2.0 * math.pi

#: |z| within this distance of a boundary circle stops a trace as escaped.
ESCAPE_COLLAR = 1e-9

#: MetricField raises ConvergenceError past max(|z|^2, r^2/|z|^2) = this, the
#: largest q whose pair count max(32, floor(42/l + 4 ln(42/l + 8)/l) + 1),
#: l = -ln q, the field's former Laurent sum kept within 2^20: traces escape
#: where they did.  Past it, in a boundary funnel, DP45 holds the angular
#: momentum only to a few 1e-7, and a per-step guard on it collapses the
#: steps, since the position resolves the density there to eps/distance.
Q_HORIZON = 0.999910148850554

#: closure distances below this mean the trace returned to its start.
CLOSURE_TOL = 1e-6

#: gap c - f(sqrt r) between the Clairaut constant of a quadrature
#: spiral and the waist level: the smallest positive normal double, so
#: the orbit stays at an unstable waist as long as any representable
#: gap allows.
WAIST_GAP = sys.float_info.min

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


@dataclass(frozen=True)
class GeodesicState:
    """Position and velocity of a geodesic at one parameter value."""

    position: complex
    velocity: complex

    def __post_init__(self) -> None:
        p = complex(self.position)
        v = complex(self.velocity)
        if not (cmath.isfinite(p) and cmath.isfinite(v)):
            raise DomainError(f"state must be finite, got ({p!r}, {v!r})")
        object.__setattr__(self, "position", p)
        object.__setattr__(self, "velocity", v)


@dataclass(frozen=True)
class GeodesicTrace:
    """Sampled geodesic: one entry per accepted integrator step, or per
    quadrature panel of spiral_trace.

    speeds[i] is the metric speed m|v| at sample i, which is the
    conserved quantity; thetas[i] is the unwrapped angle swept since the
    start.  winding_count is the signed number of crossings of the
    radial ray opposite the initial point, length the metric length of
    the sampled path.
    """

    ts: tuple
    positions: tuple
    velocities: tuple
    speeds: tuple
    thetas: tuple
    winding_count: int
    length: float
    escaped: bool
    band_exit: str | None
    energy_drift: float
    angular_drift: float

    def final_state(self) -> GeodesicState:
        return GeodesicState(self.positions[-1], self.velocities[-1])

    def __len__(self) -> int:
        return len(self.ts)


class ClosedGeodesic(NamedTuple):
    rho_star: float
    length: float
    residual: float


class SpiralReport(NamedTuple):
    trace: GeodesicTrace
    rho_min: float
    rho_max: float
    closed: bool
    closure_distance: float
    launch_angle: float
    succeeded: bool


def _trace_from_samples(ts, positions, velocities, speeds, thetas, **status) -> GeodesicTrace:
    """A GeodesicTrace with its winding count and its length by the trapezoid rule."""
    length = 0.0
    for i in range(1, len(ts)):
        length += 0.5 * (speeds[i] + speeds[i - 1]) * (ts[i] - ts[i - 1])
    winding = int(math.floor((thetas[-1] + math.pi) / TWO_PI))
    return GeodesicTrace(
        *map(tuple, (ts, positions, velocities, speeds, thetas)), winding, length, **status
    )


class _StageOutside(Exception):
    """An internal stage point left the open annulus."""


class MetricField:
    """Evaluator for one density m and d/dz log m^2 at fixed (r, metric).

    From K(v) = log 2*pi*S(z, z), v = log|z|^2, and its v-derivatives,
    taken from the 1psi1 product of hardy._DiagonalProduct:

        c = e^K,              d/dz log c^2 = 2 K' / z,
        s = sqrt(K'') / |z|,  d/dz log s^2 = (K''' / K'' - 1) / z.

    Points past Q_HORIZON raise ConvergenceError (see Q_HORIZON).
    """

    def __init__(self, r: float, metric: str):
        if metric not in ("c", "s"):
            raise DomainError(f"metric must be 'c' or 's', got {metric!r}")
        _check_r(r)
        self.r = float(r)
        self.metric = metric
        self._product = _DiagonalProduct(self.r)

    def _jet(self, rho: float, orders: tuple) -> list:
        q = max(rho * rho, (self.r / rho) ** 2)
        if q > Q_HORIZON:
            raise ConvergenceError(
                f"density field stops at the escape horizon: |z| = {rho!r} with r = {self.r!r}"
                f" gives max(|z|^2, r^2/|z|^2) = {q!r} > Q_HORIZON = {Q_HORIZON!r}"
            )
        return self._product.jet(rho, orders)

    def density_and_log_gradient(self, z: complex) -> tuple:
        """Return (m(z), d/dz log m(z)^2)."""
        z = complex(z)
        rho = abs(z)
        if not (self.r < rho < 1.0):
            raise DomainError(f"z = {z!r} is outside the open annulus ({self.r}, 1)")
        phase = complex(z.real / rho, -z.imag / rho)  # e^{-i arg z}
        if self.metric == "c":
            k0, k1 = self._jet(rho, (0, 1))
            try:
                m = math.exp(k0)
            except OverflowError:
                m = math.inf
            g = 2.0 * phase * (k1 / rho)
        else:
            k2, k3_less_k2 = self._jet(rho, (2, 3))
            if not k2 > 0.0:
                raise InternalConsistencyError(
                    f"log-kernel Laplacian came out nonpositive ({k2})"
                    f" at |z| = {rho!r}, r = {self.r!r}"
                )
            m, g = math.sqrt(k2) / rho, phase * (k3_less_k2 / k2 / rho)
        if not (math.isfinite(m) and cmath.isfinite(g)):
            raise RangeError(
                f"density field at |z| = {rho!r} with r = {self.r!r} is past double range"
            )
        return m, g

    def density(self, z: complex) -> float:
        return self.density_and_log_gradient(z)[0]

    def curvature(self, rho: float) -> float:
        """Gaussian curvature of the density on the circle |z| = rho.

        -(log f)''/f^2 with f = rho m and x = log rho: (log f)'' is 4 K''
        for c and 2 (K''''/K'' - (K'''/K'')^2) for s (f = sqrt K'').
        """
        if self.metric == "c":
            k0, k2 = self._jet(rho, (0, 2))
            return -4.0 * k2 / (rho * math.exp(k0)) ** 2
        k2, k3_less_k2, k4 = self._jet(rho, (2, 3, 4))
        return -2.0 * (k4 - (k3_less_k2 + k2) ** 2 / k2) / (k2 * k2)


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


def _integrate(
    field: MetricField,
    initial: GeodesicState,
    t_end: float,
    step_tol: float = 1e-9,
    band: tuple | None = None,
    project: bool = False,
    max_steps: int = 400_000,
) -> GeodesicTrace:
    r = field.r
    z = initial.position
    v = initial.velocity
    rho = abs(z)
    if not (r < rho < 1.0):
        raise DomainError(f"initial position {z!r} is outside the open annulus ({r}, 1)")
    if v == 0:
        raise DomainError("initial velocity must be nonzero")
    if not (isinstance(t_end, (int, float)) and math.isfinite(t_end) and t_end > 0):
        raise DomainError(f"t_end must be a positive finite number, got {t_end!r}")
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


def integrate(
    r: float,
    metric: str,
    initial: GeodesicState,
    t_end: float,
    step_tol: float = 1e-9,
    project: bool = False,
) -> GeodesicTrace:
    """Trace the geodesic from the given state for parameter length t_end.

    The trace stops early, with escaped=True, if the trajectory comes
    within ESCAPE_COLLAR of a boundary circle.  With project=True each
    accepted step is pulled back onto the level set of the two first
    integrals (metric speed and angular momentum), the standard manifold
    projection for integrable flows.
    """
    field = MetricField(r, metric)
    return _integrate(field, initial, t_end, step_tol, project=project)


def _bracketed_root(f, a: float, b: float, xtol: float) -> float:
    """Zero of f between a and b, where f changes sign (Illinois method).

    Each step takes the secant through the bracket ends, or the midpoint
    should it leave the bracket; an end kept twice in a row has its value
    halved, so both ends close in.  Once the bracket is no wider than
    xtol, returns the point with the smallest |f| seen.
    """
    fa, fb = f(a), f(b)
    best, side = min((abs(fa), a), (abs(fb), b)), 0
    for _ in range(200):
        if abs(b - a) <= xtol or best[0] == 0.0:
            break
        c = b - fb * (b - a) / (fb - fa)
        c = c if min(a, b) < c < max(a, b) else 0.5 * (a + b)
        fc = f(c)
        best = min(best, (abs(fc), c))
        if (fc < 0.0) == (fb < 0.0):
            b, fb, fa, side = c, fc, fa * (0.5 if side == -1 else 1.0), -1
        else:
            a, fa, fb, side = c, fc, fb * (0.5 if side == 1 else 1.0), 1
    return best[1]


def find_closed_geodesic(r: float, metric: str) -> ClosedGeodesic:
    """Radius and length of the length-minimizing closed geodesic circle.

    A circle |z| = rho is a geodesic exactly when rho * m(rho) is
    critical, i.e. when R(rho) = 1 + rho * Re(d/dz log m^2)(rho)
    vanishes.  Local minima of rho * m(rho) are located on a grid,
    verified to be interior, and the smallest is polished by root
    bracketing.  In the U-shaped regime there is exactly one circle; in
    the W-shaped regime (positive waist curvature at small r) the two
    flanking minima tie by the inversion symmetry and one of them is
    returned, while the symmetric circle at sqrt(r) survives as a
    saddle, not reported here.
    """
    field = MetricField(r, metric)

    def radial_condition(rho: float) -> float:
        _, g = field.density_and_log_gradient(complex(rho, 0.0))
        return 1.0 + rho * g.real

    w = 1e-3 * (1.0 - field.r)
    lo, hi = field.r + w, 1.0 - w
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), 121))
    fields = [field.density_and_log_gradient(complex(rho, 0.0)) for rho in grid]
    fvals = np.array([rho * m for rho, (m, _) in zip(grid, fields)])
    jmin = int(np.argmin(fvals))
    if jmin == 0 or jmin == len(grid) - 1:
        raise InternalConsistencyError(
            "minimum of rho * m(rho) sits at the search boundary; the density"
            " is not behaving like a complete metric"
        )
    rvals = [1.0 + rho * g.real for rho, (_, g) in zip(grid, fields)]
    ups = [i for i in range(len(grid) - 1) if rvals[i] < 0.0 <= rvals[i + 1]]
    downs = [i for i in range(len(grid) - 1) if rvals[i] >= 0.0 > rvals[i + 1]]
    if len(ups) not in (1, 2) or len(downs) != len(ups) - 1:
        raise InternalConsistencyError(
            f"unexpected sign pattern of the circle condition:"
            f" {len(ups)} minima and {len(downs)} interior maxima on the grid"
        )
    i = min(ups, key=lambda i: min(fvals[i], fvals[i + 1]))
    rho_star = _bracketed_root(radial_condition, float(grid[i]), float(grid[i + 1]), 1e-14)
    residual = abs(radial_condition(rho_star))
    length = TWO_PI * rho_star * field.density(rho_star)
    return ClosedGeodesic(rho_star=float(rho_star), length=float(length), residual=residual)


# 8-point Gauss-Legendre rule for the panels of the Clairaut quadrature
_GL_NODES, _GL_WEIGHTS = (tuple(map(float, a)) for a in np.polynomial.legendre.leggauss(8))

#: samples a quadrature spiral records per circle length
_SAMPLES_PER_LOOP = 64


def _gap_factor(coeffs: tuple, y: float, yt: float) -> float:
    """(y P(y) - yt P(yt)) / (y - yt) for the polynomial P = coeffs.

    This is the divided difference of g = y P(y), summed as
    sum_k P_k (y^k + y^(k-1) yt + ... + yt^k), so nothing cancels when y
    approaches the turning value yt.
    """
    acc = 0.0
    h = 0.0
    yk = 1.0
    for cf in coeffs:
        h = yk + yt * h
        acc += cf * h
        yk *= y
    return acc


def _local_model(field: MetricField, centre: float, f_c: float, kappa: float) -> tuple:
    """Coefficients P of the model f - f_c = v P(v) about a critical circle of f.

    Here f(x) = rho m(rho) at rho = sqrt(r) e^x and xi = x - centre.  At
    the waist (centre 0) the inversion symmetry makes f even and v = xi^2;
    at a flank circle of the W regime v = xi and P_0 = 0, so that
    f - f_c = xi^2 (P_1 + P_2 xi + ...) has odd terms.  For a radial metric
    kappa = -f''/f_c^3 at a critical point, so the xi^2 coefficient
    a/2 = -kappa f_c^3 / 2 comes from the curvature alone.  The rest are a
    least-squares fit to direct differences f - f_c on (0, X/20] (waist)
    or [-X/20, X/20] (flank), X = log(1/sqrt r) being the distance from
    the waist to the boundary singularities of f.
    """
    rs = math.sqrt(field.r)
    power = 2 if centre == 0.0 else 1
    x_fit = -0.025 * math.log(field.r)
    xs = x_fit * np.cos(np.pi * (np.arange(24 // power) + 0.5) / 24.0)
    g = np.array([rs * math.exp(x) * field.density(rs * math.exp(x)) for x in centre + xs]) - f_c
    a_half = -0.5 * kappa * f_c**3
    vn = (xs / x_fit) ** power
    design = np.vstack([vn**k for k in range(1, 1 + 8 // power)]).T
    fit, *_ = np.linalg.lstsq(design, g / (xs * xs) - a_half, rcond=None)
    coeffs = (a_half,) + tuple(float(q) / x_fit ** (power * k) for k, q in enumerate(fit, 1))
    return coeffs if power == 2 else (0.0,) + coeffs


class _ClairautOrbit:
    """Radial profile of a unit-speed orbit with Clairaut constant c.

    With metric speed 1 and c = L, x = log(rho / sqrt r) obeys

        dt = f^2 dx / sqrt(f^2 - c^2),   dtheta = c dx / sqrt(f^2 - c^2).

    The orbit lies on the side `side` of the circle |x| = centre, at the
    offset xi from it, and s makes both integrands smooth at the turns:

      * a turning orbit has c = f_c + WAIST_GAP, just above the minimum
        f_c of f on the circle, and turns at the offset x_t where f = c:
        xi = x_t cosh(s), s < 0 on the way in and s > 0 on the way out;
      * a well orbit (x_turn given) is the tangential launch at
        |x| = x_turn about the stable waist (centre 0), so c = f there:
        xi = x_t sin(s) from s = pi/2, with panels ending on the turns
        s = pi/2 + k pi, where dt/ds is 0/0.

    Where xi and x_t lie within X/80 of the circle, f comes from the model
    v P(v) of _local_model and f - c from (v - v_t) times _gap_factor, so
    the gap is never subtracted from anything; elsewhere f comes from the
    field, good to about 1e-12 in f - c.
    """

    def __init__(self, field, side, centre, f_c, coeffs, x_turn=None):
        self.field = field
        self.side = side
        self.centre = centre
        self.f_c = f_c
        self.coeffs = coeffs
        self.power = 2 if centre == 0.0 else 1
        self.x_model = -0.00625 * math.log(field.r)
        self.well = x_turn is not None
        if self.well:
            self.x_turn = x_turn
            rho = math.sqrt(field.r) * math.exp(side * x_turn)
            self.c = rho * field.density(rho)
            # equal panels, a whole number per half period, doubled until its
            # time settles to 1e-10, or to the floor that the rounding of c
            # sets next to a flank circle, where the period is ill-conditioned
            n, change = 8, math.inf
            while True:
                step = abs(self._half_period(2 * n) / self._half_period(n) - 1.0)
                if step <= 1e-10 or (change < 1e-6 and step > 0.5 * change):
                    break
                n, change = 2 * n, step
                if n == 512:
                    raise ConvergenceError(
                        f"the oscillation from |z0| = {rho:.8g} with r = {field.r!r}"
                        f" does not settle at {n} panels per half period"
                    )
            self.ds = math.pi / n
        else:
            # v_t solves P_0 v + P_1 v^2 = WAIST_GAP (the higher terms sit far
            # below its last bit), in the form that never divides by P_0: it
            # vanishes at a flank circle and at the U/W transition
            p0, p1 = coeffs[0], coeffs[1]
            root = math.sqrt(2.0 * WAIST_GAP) / math.sqrt(
                p0 + math.sqrt(p0 * p0 + 4.0 * p1 * WAIST_GAP)
            )
            self.x_turn = root if self.power == 2 else root * root
            self.c = f_c + WAIST_GAP
            self.ds = None
        self.dt_target = TWO_PI * self.c / _SAMPLES_PER_LOOP

    def s_at(self, xi: float) -> float:
        """The s at which the orbit, on its way towards the circle, reaches xi."""
        if self.well:
            return math.pi - math.asin(max(xi / self.x_turn, -1.0))
        return -math.acosh(max(xi / self.x_turn, 1.0))

    def profile(self, s: float) -> tuple:
        """(x, f, dx/ds, w) at s, where w = |dx/ds| / sqrt(f^2 - c^2)."""
        if self.well:
            xi, dxi = self.x_turn * math.sin(s), self.x_turn * math.cos(s)
        else:
            xi, dxi = self.x_turn * math.cosh(abs(s)), self.x_turn * math.sinh(s)
        x = self.side * (self.centre + xi)
        if max(xi, self.x_turn) <= self.x_model:
            v = xi**self.power
            f = self.f_c + v * _poly(self.coeffs, v)
            gap = _gap_factor(self.coeffs, v, self.x_turn**self.power)
            # jac = (dxi/ds)^2 / (v - v_t): 1 for xi = x_t cosh s with
            # v = xi^2, xi + x_t with v = xi, and -1 for xi = x_t sin s
            jac = xi + self.x_turn if self.power == 1 else (-1.0 if self.well else 1.0)
            w = 1.0 / math.sqrt(gap * (f + self.c) / jac)
        else:
            rho = math.sqrt(self.field.r) * math.exp(x)
            f = rho * self.field.density(rho)
            gap = (f - self.c) * (f + self.c)
            w = abs(dxi) / math.sqrt(gap) if gap > 0.0 else math.inf
        return x, f, self.side * dxi, w

    def rates(self, s: float) -> tuple:
        """(dt/ds, dtheta/ds)."""
        _, f, _, w = self.profile(s)
        return f * f * w, self.c * w

    def panel(self, s0: float, s1: float) -> tuple:
        """(t, theta) gained from s0 to s1."""
        mid, half = 0.5 * (s0 + s1), 0.5 * (s1 - s0)
        dt = dth = 0.0
        for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
            rt, rth = self.rates(mid + half * node)
            dt += weight * rt
            dth += weight * rth
        return half * dt, half * dth

    def _half_period(self, n: int) -> float:
        """t of a well orbit from s = pi/2 to 3 pi/2 by n equal panels."""
        ends = [math.pi * (0.5 + k / n) for k in range(n + 1)]
        return math.fsum(self.panel(a, b)[0] for a, b in zip(ends, ends[1:]))


def _clairaut_trace(orbit: _ClairautOrbit, z0: complex, t_end: float, band: tuple) -> SpiralReport:
    """Report on the quadrature trace of the orbit from z0.

    The trace ends at t_end, or where it leaves the band if that comes
    first: on the way in when the band stops short of the turn, else (a
    turning orbit) on the way out.  Samples sit at the panel ends;
    speeds and drifts are measured from them through the field
    evaluator, independently of the quadrature.
    """
    field, side = orbit.field, orbit.side
    rs = math.sqrt(field.r)
    s = orbit.s_at(abs(math.log(abs(z0) / rs)) - orbit.centre)
    # a band edge between z0 and the turn stops the inward leg; else the
    # orbit turns inside the band and can only leave it on z0's side
    near, far = (band[0], band[1]) if side > 0 else (band[1], band[0])
    xi_near = side * math.log(near / rs) - orbit.centre
    if xi_near > (-orbit.x_turn if orbit.well else orbit.x_turn):
        s_band = orbit.s_at(xi_near)
        band_exit = "inner" if side > 0 else "outer"
    elif orbit.well:
        s_band, band_exit = math.inf, None
    else:
        s_band = -orbit.s_at(side * math.log(far / rs) - orbit.centre)
        band_exit = "outer" if side > 0 else "inner"

    t = theta = 0.0
    samples = [(t, s, theta)]
    while s < s_band:
        # dt/ds grows like f towards the boundary, so this also shrinks
        # the panels where f steepens
        ds = orbit.ds or min(0.25, orbit.dt_target / orbit.rates(s)[0])
        s_next = min(s + ds, s_band)
        dt, dth = orbit.panel(s, s_next)
        if t + dt >= t_end:
            # Newton on t(s_hit) = t_end inside the panel
            s_hit = s + (s_next - s) * (t_end - t) / dt
            for _ in range(8):
                step = (t + orbit.panel(s, s_hit)[0] - t_end) / orbit.rates(s_hit)[0]
                s_hit -= step
                if abs(step) <= 1e-15 * max(1.0, abs(s_hit)):
                    break
            samples.append((t_end, s_hit, theta + orbit.panel(s, s_hit)[1]))
            band_exit = None
            break
        t, s, theta = t + dt, s_next, theta + dth
        samples.append((t, s, theta))

    u0 = z0 / abs(z0)
    positions, velocities, speeds, momenta = [], [], [], []
    for _, s_i, theta_i in samples:
        x, f, dx, w = orbit.profile(s_i)
        root = abs(dx) / w  # sqrt(f^2 - c^2)
        z = rs * math.exp(x) * u0 * cmath.exp(1j * theta_i) if positions else z0
        # at unit speed rho' = +-rho root / f^2 and rho theta' = rho c / f^2
        v = z * complex(math.copysign(root, dx), orbit.c) / (f * f)
        m = field.density(z)
        positions.append(z)
        velocities.append(v)
        speeds.append(m * abs(v))
        momenta.append(m * m * (z.conjugate() * v).imag)
    ts, _, thetas = zip(*samples)

    trace = _trace_from_samples(
        ts, positions, velocities, speeds, thetas, escaped=False, band_exit=band_exit,
        energy_drift=max(abs(e - speeds[0]) for e in speeds) / speeds[0],
        angular_drift=max(abs(l - momenta[0]) for l in momenta) / momenta[0],
    )
    radii = [abs(p) for p in trace.positions]
    v0 = trace.velocities[0]
    dist = math.inf
    for i in range(1, len(trace)):
        if -math.pi <= trace.thetas[i] <= math.pi:
            continue
        d = abs(trace.positions[i] - z0) + abs(trace.velocities[i] - v0)
        dist = min(dist, d)
    return SpiralReport(
        trace=trace,
        rho_min=min(radii),
        rho_max=max(radii),
        closed=dist < CLOSURE_TOL,
        closure_distance=dist,
        # the launch velocity is u0 (i cos psi - sin psi) / m0
        launch_angle=0.0 if orbit.well else cmath.phase(v0 / u0) - 0.5 * math.pi,
        succeeded=band_exit is None,
    )


def spiral_trace(
    r: float,
    metric: str,
    z0: complex,
    t_end: float,
    band: tuple | None = None,
) -> SpiralReport:
    """Trace a winding, non-closing geodesic through z0 confined to a band.

    Every spiral is an orbit chosen by its Clairaut constant and traced
    by quadrature (see _ClairautOrbit).  Which orbit depends on the
    Gaussian curvature at the waist sqrt(r):

    Negative (U-shaped f, unstable waist): c = f* + WAIST_GAP, just above
    the waist level f* = f(sqrt r).  The orbit spirals from z0 towards
    the waist, turns just short of it and spirals back out; for the
    Szego metric at r = 0.1 the two legs take about 230 time units each.
    launch_angle is the tilt of c, rounded to double precision, so a
    step-by-step integration from it soon leaves the waist.

    Positive (W-shaped f, stable waist between unstable flank circles
    rho1 and r/rho1): from z0 between them the orbit is the tangential
    launch, launch_angle 0, oscillating between |z0| and r/|z0|; from z0
    outside them it is the construction above at the nearer flank circle.

    A band that stops short of the turn is left on the way in.  succeeded
    is True exactly when the trace is still inside the band at t_end.
    Otherwise the report carries the orbit up to its band exit, and
    succeeded=False: that also happens when t_end exceeds what even the
    smallest gap can hold at an unstable circle.
    """
    field = MetricField(r, metric)
    z0 = complex(z0)
    rho0 = abs(z0)
    if not (field.r < rho0 < 1.0):
        raise DomainError(f"z0 = {z0!r} is outside the open annulus ({r}, 1)")
    if not (isinstance(t_end, (int, float)) and math.isfinite(t_end) and t_end > 0):
        raise DomainError(f"t_end must be a positive finite number, got {t_end!r}")
    rs = math.sqrt(field.r)
    circles = [rs]
    if field.curvature(rs) > 0.0:
        rho1 = find_closed_geodesic(r, metric).rho_star
        circles += [rho1, field.r / rho1]
    rho_star = min(circles, key=lambda rho: abs(rho0 - rho))
    if abs(rho0 - rho_star) < 1e-6:
        raise DomainError(
            f"|z0| = {rho0:.8g} sits on the closed geodesic circle"
            f" (rho* = {rho_star:.8g}); a spiral launch is degenerate there"
        )
    if band is None:
        band = (field.r + 0.02, 0.98)
    if not (field.r < band[0] < band[1] < 1.0):
        raise DomainError(f"band {band!r} must be strictly inside the annulus")
    if not (band[0] < rho0 < band[1]):
        raise DomainError(f"z0 = {z0!r} lies outside the band {band!r}")

    # the orbit turns at the waist, oscillates in the well between the
    # flank circles at |x| = x1, or turns at the nearer flank circle
    x0 = abs(math.log(rho0 / rs))
    x1 = abs(math.log(circles[-1] / rs))  # 0 when the waist is the only circle
    x_c = x1 if x0 > x1 else 0.0
    rho_c = rs * math.exp(x_c)
    f_c = rho_c * field.density(rho_c)
    coeffs = _local_model(field, x_c, f_c, field.curvature(rho_c))
    side = 1.0 if rho0 > rs else -1.0
    orbit = _ClairautOrbit(field, side, x_c, f_c, coeffs, x0 if x0 < x1 else None)
    return _clairaut_trace(orbit, z0, t_end, band)
