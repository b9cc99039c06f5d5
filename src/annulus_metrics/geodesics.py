"""Geodesics of the invariant conformal densities on the annulus.

A conformal density m on A_r = {r < |z| < 1} measures paths by the
integral of m |dz|.  Affinely parametrized geodesics solve

    sigma'' = -(d/dz log m^2)(sigma) * (sigma')^2,

whose field data are m and the logarithmic z-derivative of m^2.
Rotation invariance of both densities gives two conserved quantities
along every geodesic: the metric speed E = m |sigma'| and the angular
momentum L = m^2 Im(conj(sigma) sigma').  Together they fix the orbit,
and every trace, from integrate and spiral_trace alike, is the Clairaut
quadrature of that orbit in x = log(|z| / sqrt r) (_ClairautOrbit): no
step-by-step integration, so the two integrals hold to rounding.

MetricField takes m and its gradient from Ramanujan's 1psi1 product
for the kernel diagonal (in hardy), at the same cost at every |z|, right
up to both circles.  A trace escapes within ESCAPE_COLLAR of a circle or
at the escape horizon Q_HORIZON, about 4.5e-5 (relative) from one.

Radial structure: both densities blow up like 1/dist at the boundary,
so f(rho) = rho * m(rho) tends to +inf at both ends and circle
geodesics sit at its interior critical points.  By the Clairaut
relation cos(psi) = L / (E f(rho)) an orbit can only visit radii where
f >= |L|/E, so the shape of f decides everything.  The inversion
z -> r/conj(z) makes the waist sqrt(r) a critical circle at every r.
Its curvature is at most -4 for c, and 12 e2 / (e1 - e3) for s in the
lattice roots of elliptic, which changes sign where e2 = 0: on the
square lattice r = SQUARE_R = e^-pi, about 0.0432.  Two regimes occur:

  * U regime (c at every r, s for r >= SQUARE_R): f is U-shaped, the
    single circle at the minimum sqrt(r) is unstable, and every other
    geodesic eventually slides into a boundary funnel.  Orbits can hug
    the circle only as long as their gap c - f(rho*) to the separatrix
    level stays small, where c = L/E is the Clairaut constant; the
    radial offset from the circle grows by exp(sqrt(-K) * L_circle)
    per winding.  A launch state (position and velocity) carries c only
    to about 1e-16, so the orbit that integrate traces from it leaves
    the waist within about five windings.  spiral_trace carries the gap
    as its own scalar, down to the smallest positive double; for s at
    r = 0.1 that orbit spends about fifty windings on each side of its
    turn.

  * W regime (s for r < SQUARE_R): f is W-shaped, the symmetric circle
    at sqrt(r) is a stable local maximum of f flanked by two
    length-minimizing circles rho1 < sqrt(r) < r/rho1, tangential
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

from .errors import (
    ConvergenceError,
    DomainError,
    InternalConsistencyError,
    RangeError,
    check_point,
    check_r,
    check_t_end,
)
from .hardy import _DiagonalProduct, _poly

TWO_PI = 2.0 * math.pi

#: |z| within this distance of a boundary circle stops a trace as escaped.
ESCAPE_COLLAR = 1e-9

#: a trace escapes where max(|z|^2, r^2/|z|^2) reaches this, the edge of
#: _escape_band; the field answers past it.  It is the largest q whose pair
#: count max(32, floor(42/l + 4 ln(42/l + 8)/l) + 1), l = -ln q, the field's
#: former Laurent sum kept within 2^20, so escapes end where they always have.
Q_HORIZON = 0.999910148850554

#: e^-pi, the square lattice omega1 = pi, below which the waist of s is stable
#: (W regime); correctly rounded, so r < SQUARE_R is r < e^-pi for every double r,
#: where math.exp(-math.pi) comes out 1.2 ulp high
SQUARE_R = 0.04321391826377225

#: default panel tolerance of integrate, which accepts (0, 1e-3].
STEP_TOL = 1e-9

#: closure distances below this mean the trace returned to its start.
CLOSURE_TOL = 1e-6

#: x-tolerance of the flank-circle solve; a tangential launch this close to
#: a critical circle is that circle
_CIRCLE_XTOL = 1e-14

#: gap c - f(sqrt r) between the Clairaut constant of a quadrature
#: spiral and the waist level: the smallest positive normal double, so
#: the orbit stays at an unstable waist as long as any representable
#: gap allows.
WAIST_GAP = sys.float_info.min


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
    """Sampled geodesic: one entry per quadrature panel end.

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


class MetricField:
    """Evaluator for one density m and d/dz log m^2 at fixed (r, metric).

    From K(v) = log 2*pi*S(z, z), v = log|z|^2, and its v-derivatives,
    taken from the 1psi1 product of hardy._DiagonalProduct:

        c = e^K,              d/dz log c^2 = 2 K' / z,
        s = sqrt(K'') / |z|,  d/dz log s^2 = (K''' / K'' - 1) / z.

    It answers at every point of the open annulus; RangeError where m is
    past double range.
    """

    def __init__(self, r: float, metric: str):
        if metric not in ("c", "s"):
            raise DomainError(f"metric must be 'c' or 's', got {metric!r}")
        self.r = check_r(r)
        self.metric = metric
        self._product = _DiagonalProduct(self.r)

    def density_and_log_gradient(self, z: complex) -> tuple:
        """Return (m(z), d/dz log m(z)^2)."""
        z = check_point(self.r, z)
        rho = abs(z)
        phase = complex(z.real / rho, -z.imag / rho)  # e^{-i arg z}
        if self.metric == "c":
            k0, k1 = self._product.jet(rho, (0, 1))
            try:
                m = math.exp(k0)
            except OverflowError:
                m = math.inf
            g = 2.0 * phase * (k1 / rho)
        else:
            k2, k3_less_k2 = self._product.jet(rho, (2, 3))
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
        for c and 2 (K''''/K'' - (K'''/K'')^2) for s (f = sqrt K''), which
        _DiagonalProduct.szego gives, as it does for sample.
        """
        if self.metric == "c":
            k0, k2 = self._product.jet(rho, (0, 2))
            kappa = -4.0 * k2 / (rho * math.exp(k0)) ** 2
            if not math.isfinite(kappa):
                raise RangeError(
                    f"the curvature at |z| = {rho!r} with r = {self.r!r} is past double range"
                )
            return kappa
        return self._product.szego(rho)[1]


def _bracketed_root(f, a: float, b: float, xtol: float) -> float | None:
    """Zero of f between a and b by bisection, or None unless f changes sign.

    Bisection reads only the signs of f.  A secant step through a steep
    end and a small one lands next to the small end, where the rounding
    of f can outweigh its value.  Returns the midpoint of the last
    bracket, which is no wider than xtol or than two adjacent doubles.
    """
    fa, fb = f(a), f(b)
    if not fa * fb <= 0.0:
        return None
    c = 0.5 * (a + b)
    while abs(b - a) > xtol and a != c != b:
        if (f(c) > 0.0) == (fb > 0.0):
            b = c
        else:
            a = c
        c = 0.5 * (a + b)
    return c


def _closed_circle(field: MetricField) -> ClosedGeodesic:
    """find_closed_geodesic on the given field."""
    rs = math.sqrt(field.r)
    rho_star = rs
    if field.metric == "s" and field.r < SQUARE_R:

        def rate(x: float) -> float:
            # R(x) / x, whose value at x = 0 is (log f)''(0) < 0; next to
            # SQUARE_R the computed curvature can round to the wrong sign
            if x == 0.0:
                return min(-field.curvature(rs) * (rs * field.density(rs)) ** 2, 0.0)
            rho = rs * math.exp(x)
            _, g = field.density_and_log_gradient(complex(rho, 0.0))
            return (1.0 + rho * g.real) / x

        try:
            x1 = _bracketed_root(rate, math.log(field.r * (1.0 + 1e-3) / rs), 0.0, _CIRCLE_XTOL)
        except RangeError:
            # below r of about 1e-305 the density at r(1 + 1e-3), about 1e3/r,
            # is past double range; at 2r it is finite and still in the flank
            x1 = _bracketed_root(rate, math.log(2.0 * field.r / rs), 0.0, _CIRCLE_XTOL)
        if x1 is None:
            raise InternalConsistencyError(f"no flank circle between r and sqrt(r) at r = {field.r!r}")
        rho_star = rs * math.exp(x1)
    m, g = field.density_and_log_gradient(complex(rho_star, 0.0))
    return ClosedGeodesic(rho_star, TWO_PI * rho_star * m, abs(1.0 + rho_star * g.real))


def find_closed_geodesic(r: float, metric: str) -> ClosedGeodesic:
    """Radius and length of the length-minimizing closed geodesic circle.

    A circle |z| = rho is a geodesic exactly when R(rho) = 1 + rho *
    Re(d/dz log m^2)(rho) = d log f / dx vanishes, x = log(rho / sqrt r);
    residual is |R(rho_star)|.  In the U regime (module docstring) that
    circle is the waist, rho_star = sqrt(r) exactly.  In the W regime the
    flank circles tie by the inversion symmetry and the inner one, rho1 <
    sqrt(r), is returned.  R is odd in x, so R(x) / x changes sign once
    between the inner circle and the waist, where it is (log f)''(0) =
    -kappa f^2, and one bracketed solve finds it.
    """
    return _closed_circle(MetricField(r, metric))


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


def _x_model(r: float) -> float:
    """Offset from a critical circle within which its local model stands in for f.

    A quarter of the model's fit range h = min(X/20, 0.1), X = log(1/sqrt r)
    being the distance from the waist to the boundary singularities of f:
    f changes on a scale of order 1 in x, over which nine terms would not
    hold it to rounding.
    """
    return 0.25 * min(-0.025 * math.log(r), 0.1)


def _local_model(field: MetricField, x: float, h: float, base: float, side: float = 1.0,
                 kappa: float | None = None) -> tuple:
    """Coefficients P of the least-squares model f - base = u P(u) about x.

    f is rho m(rho) at rho = sqrt(r) e^(side (x + d)), taken at the 24
    Chebyshev points d of [-h, h] and fit by lstsq, so that the rounding
    of f - base spreads over the fit instead of growing like 1/d; u = d
    and P has nine terms.  About a critical circle of f with curvature
    kappa, base = f_c and the d^2 coefficient a = -kappa f_c^3 / 2 comes
    from the curvature alone (kappa = -f''/f_c^3 for a radial metric), so
    the fit is of (f - f_c)/d^2 - a.  At the waist (x = 0) the inversion
    symmetry makes f even: u = d^2 on the 12 positive points and P_0 = a.
    At a flank circle of the W regime u = d and P_0 = 0, so that f - f_c =
    d^2 (P_1 + P_2 d + ...) has odd terms.
    """
    power = 2 if x == 0.0 and kappa is not None else 1
    d = h * np.cos(np.pi * (np.arange(24 // power) + 0.5) / 24.0)
    xs = side * (x + d)
    # e^x point by point about a circle and in one array call about a turn,
    # as their traces have always taken it: the two differ in the last bit
    # at some points
    es = np.exp(xs) if kappa is None else np.array([math.exp(xk) for xk in xs])
    g = np.array([rho * field.density(rho) for rho in math.sqrt(field.r) * es]) - base
    lead, terms = (), 9
    if kappa is not None:
        a = -0.5 * kappa * base**3
        g = g / (d * d) - a
        lead, terms = (a,) if power == 2 else (0.0, a), 8 // power
    u = (d / h) ** power
    fit, *_ = np.linalg.lstsq(np.vstack([u**k for k in range(1, terms + 1)]).T, g, rcond=None)
    return lead + tuple(float(q) / h ** (power * k) for k, q in enumerate(fit, 1))


class _ClairautOrbit:
    """Radial profile of a unit-speed orbit with Clairaut constant c >= 0.

    With metric speed 1 and c = |L|, x = log(rho / sqrt r) obeys

        dt = f^2 dx / sqrt(f^2 - c^2),   dtheta = c dx / sqrt(f^2 - c^2).

    The orbit is taken about the critical circle |x| = centre of f, where
    f = f_c: x = side (centre + xi) at the offset xi, and s, which grows
    with t, makes both integrands smooth wherever f - c vanishes or
    nearly does.  kind is one of

      * circle: the circle itself, c = f_c, xi = 0 and s = theta;
      * turning: c > f_c at a minimum of f, so the orbit turns at the
        offset x_t where f = c: xi = x_t cosh(s), s < 0 on the way in and
        s > 0 on the way out;
      * well: c < f_c at the stable waist (centre 0), about which the
        orbit oscillates between the turns -x_t and x_t: xi = x_t sin(s),
        in equal panels that end on the turns s = pi/2 + k pi, where
        dt/ds is 0/0;
      * passing: c < f_c at a minimum, which the orbit crosses, slowed by
        the gap f_c - c: xi = sense x_t sinh(s), the mirror of turning,
        with x_t where a turning orbit at the mirrored gap would turn.

    The orbit is given by its gap c - f_c, which carries WAIST_GAP where
    f_c + WAIST_GAP rounds back to f_c.  x_t is given where the caller
    knows it: a tangential launch turns at its own offset, and turns past
    the model below come from the field.  Otherwise v_t = x_t^2 at the
    waist, x_t at a flank, solves v P(v) = c - f_c (f_c - c when passing).

    Where xi and x_t lie within _x_model of the circle, f comes from the
    model v P(v) of _local_model and f - c from (v - v_t) times
    _gap_factor, or from the gap plus v P(v) when passing, so the gap is
    never subtracted from anything.  A turn past that range gets its own
    _local_model of f - c, fit and used within _x_model of the turn (at
    most a quarter of the way to the boundary singularity of f), where
    the field alone would give the difference of two values that agree to
    their last bits.  Elsewhere f comes from the field, good to about
    1e-12 in f - c.  tol is the panel tolerance (see pair, and the well's
    panel count).
    """

    def __init__(
        self, field, side, centre, f_c, coeffs, kind, gap, x_turn=None, sense=1.0, tol=1e-10,
        rho0=None,
    ):
        self.field = field
        self.side = side
        self.centre = centre
        self.f_c = f_c
        self.coeffs = coeffs
        self.kind = kind
        self.sense = sense
        self.tol = tol
        self.power = 2 if centre == 0.0 else 1
        self.x_model = _x_model(field.r)
        self.limits = _escape_band(field.r)
        self.c = f_c + gap
        if x_turn is None:
            x_turn = self._model_offset(-gap if kind == "passing" else gap, rho0)
        self.x_turn = x_turn
        self.turn_h = min(self.x_model, 0.25 * (-0.5 * math.log(field.r) - centre - x_turn))
        turns = kind in ("turning", "well") and x_turn > self.x_model
        self.turn_model = _local_model(field, centre + x_turn, self.turn_h, self.c, side) if turns else None
        self.ds = self.period = None
        if kind == "well":
            # equal panels, a whole number per half period, doubled until its
            # time settles to tol, or to the floor that the rounding of c
            # sets next to a flank circle, where the period is ill-conditioned
            n, change, half = 8, math.inf, self._half_period(8)
            while True:
                finer = self._half_period(2 * n)
                step = abs(finer[0] / half[0] - 1.0)
                if step <= tol or (change < 1e-6 and step > 0.5 * change):
                    break
                n, change, half = 2 * n, step, finer
                if n == 512:
                    rho = math.sqrt(field.r) * math.exp(side * x_turn)
                    raise ConvergenceError(
                        f"the oscillation from |z0| = {rho:.8g} with r = {field.r!r}"
                        f" does not settle at {n} panels per half period"
                    )
            self.ds = math.pi / n
            # the radial period and the angle it sweeps
            self.period = (2.0 * half[0], 2.0 * half[1])

    def _model_offset(self, target: float, rho0) -> float:
        """x_t from v P(v) = target, v = x_t^power."""
        # the quadratic terms first, in the form that never divides by P_0:
        # it vanishes at a flank circle and at the U/W transition, and is
        # negative, as is the target, in the well of a stable waist
        p0, p1 = self.coeffs[0], self.coeffs[1]
        den = p0 + math.copysign(math.sqrt(p0 * p0 + 4.0 * p1 * target), target)
        if den != 0.0 and (den > 0.0) == (target > 0.0):
            root = math.sqrt(2.0 * abs(target)) / math.sqrt(abs(den))
        elif p0 == 0.0 and target / p1 > 0.0:
            # a flank circle where 4 P_1 WAIST_GAP underflows: P_1 v^2 = target
            root = math.sqrt(math.sqrt(target / p1))
        else:
            raise ConvergenceError(
                f"the orbit from |z0| = {rho0!r} with r = {self.field.r!r} turns closer to"
                f" the circle |z| = {math.sqrt(self.field.r) * math.exp(self.side * self.centre)!r}"
                f" than double precision resolves: P_0 = {p0!r}, P_1 = {p1!r}, gap = {target!r}"
            )
        v = root * root
        if abs(self.coeffs[2]) * v * v * v > 1e-17 * abs(target):
            # a Newton polish on the whole polynomial, where its higher terms
            # reach the last bit of the target
            slope = tuple((k + 1) * cf for k, cf in enumerate(self.coeffs))
            for _ in range(4):
                v -= (v * _poly(self.coeffs, v) - target) / _poly(slope, v)
            root = math.sqrt(v)
        return root if self.power == 2 else root * root

    def xi_at(self, rho: float) -> float:
        return self.side * math.log(rho / math.sqrt(self.field.r)) - self.centre

    def profile(self, s: float) -> tuple:
        """(x, f, dx/ds, w) at s, where w = |dx/ds| / sqrt(f^2 - c^2)."""
        x_t = self.x_turn
        if self.kind == "circle":
            return self.side * self.centre, self.c, 0.0, 1.0 / self.c
        if self.kind == "well":
            xi, dxi = x_t * math.sin(s), x_t * math.cos(s)
        elif self.kind == "turning":
            xi, dxi = x_t * math.cosh(s), x_t * math.sinh(s)
        else:
            xi, dxi = self.sense * x_t * math.sinh(s), self.sense * x_t * math.cosh(s)
        x = self.side * (self.centre + xi)
        if max(abs(xi), x_t) <= self.x_model:
            v = xi**self.power
            lift = v * _poly(self.coeffs, v)
            f = self.f_c + lift
            if self.kind == "passing":
                # f - c = (f_c - c) + v P(v), a sum of two positive terms
                w = abs(dxi) / math.sqrt((self.f_c - self.c + lift) * (f + self.c))
            else:
                gap = _gap_factor(self.coeffs, v, x_t**self.power)
                # jac = (dxi/ds)^2 / (v - v_t): 1 for xi = x_t cosh s with
                # v = xi^2, xi + x_t with v = xi, and -1 for xi = x_t sin s
                jac = xi + x_t if self.power == 1 else (-1.0 if self.kind == "well" else 1.0)
                w = 1.0 / math.sqrt(gap * (f + self.c) / jac)
        elif self.turn_model and abs(abs(xi) - x_t) <= self.turn_h:
            delta = abs(xi) - x_t
            d = _poly(self.turn_model, delta)
            f = self.c + delta * d
            # (dxi/ds)^2 = (|xi| + x_t) delta, negated in the well
            w = math.sqrt((abs(xi) + x_t) / (d * (f + self.c) * (-1.0 if self.kind == "well" else 1.0)))
        else:
            # the rounding of x, which grows with |x| and with s, must not
            # carry an evaluation at an exit past the edge of the escape band,
            # nor out of the annulus where that edge is ESCAPE_COLLAR from r
            rho = min(max(math.sqrt(self.field.r) * math.exp(x), self.limits[0]), self.limits[1])
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

    def pair(self, s: float, s_end: float, ds: float) -> tuple:
        """Two panels from s, as [(s1, t, theta), (s2, t, theta)], and the next ds.

        The samples aim at _SAMPLES_PER_LOOP per 2 pi of theta, and at
        most a quarter of s apart where the orbit winds slowly.  The pair,
        at most ds wide, is halved until it sweeps at most four sample
        spacings of theta and the sums over its halves agree with the one
        over the whole to tol, relative, in both t and theta; or until a
        halving stops halving their difference, which is then the rounding
        of f - c next to a turn.  The next pair aims at two spacings.
        """
        spacing = TWO_PI / _SAMPLES_PER_LOOP
        prev = math.inf
        while True:
            s2 = min(s + ds, s_end)
            s1 = 0.5 * (s + s2)
            t_all, th_all = self.panel(s, s2)
            if th_all > 4.0 * spacing and s < s1 < s2:
                ds = s1 - s
                continue
            (t1, th1), (t2, th2) = self.panel(s, s1), self.panel(s1, s2)
            dt, dth = t1 + t2, th1 + th2
            err = max(abs(t_all - dt) / dt, abs(th_all - dth) / dth if dth > 0.0 else 0.0)
            if err <= self.tol or err > 0.5 * prev or not s < s1 < s2:
                break
            prev, ds = err, s1 - s
        return [(s1, t1, th1), (s2, t2, th2)], min(0.5, (s2 - s) * 2.0 * spacing / dth) if dth > 0.0 else 0.5

    def _half_period(self, n: int) -> tuple:
        """(t, theta) of a well orbit from s = pi/2 to 3 pi/2 by n equal panels."""
        ends = [math.pi * (0.5 + k / n) for k in range(n + 1)]
        dts, dths = zip(*(self.panel(a, b) for a, b in zip(ends, ends[1:])))
        return math.fsum(dts), math.fsum(dths)

    def start(self, xi0: float, outward: bool) -> float:
        """The s at the offset xi0, moving towards larger xi when outward."""
        if self.kind == "passing":
            return math.asinh(self.sense * xi0 / self.x_turn)
        if self.kind == "turning":
            return math.copysign(math.acosh(max(xi0 / self.x_turn, 1.0)), 1.0 if outward else -1.0)
        a = math.asin(min(max(xi0 / self.x_turn, -1.0), 1.0))
        return a if outward else math.pi - a

    def exit(self, s0: float, band: tuple) -> tuple:
        """(s, edge) where the orbit from s0 first leaves the band, edge
        "inner" or "outer"; (inf, None) if it never does."""
        near, far = ("inner", "outer") if self.side > 0 else ("outer", "inner")
        xi_near, xi_far = sorted(map(self.xi_at, band))
        x_t = self.x_turn
        if self.kind == "circle":
            return math.inf, None
        if self.kind == "passing":
            if self.sense > 0:
                return math.asinh(xi_far / x_t), far
            return math.asinh(-xi_near / x_t), near
        if self.kind == "turning":
            # a band edge between xi0 and the turn stops the inward leg; else
            # the orbit turns inside the band and leaves it on the far side
            if s0 < 0.0 and xi_near > x_t:
                return -math.acosh(xi_near / x_t), near
            return math.acosh(xi_far / x_t), far
        # the well crosses xi = e at asin(e / x_t) going out and pi minus
        # that coming back, every 2 pi
        first = (math.inf, None)
        for edge, e, out in ((near, xi_near, False), (far, xi_far, True)):
            if -x_t < e < x_t:
                s = math.asin(e / x_t) if out else math.pi - math.asin(e / x_t)
                s += TWO_PI * math.ceil((s0 - s) / TWO_PI)
                first = min(first, (s + TWO_PI if s <= s0 else s, edge))
        return first


def _clairaut_trace(
    orbit: _ClairautOrbit, s: float, z0: complex, t_end: float, band: tuple,
    v0: complex | None = None, speed: float = 1.0, turn: float = 1.0, escape: bool = False,
) -> SpiralReport:
    """Report on the quadrature trace of the orbit from z0, at s.

    The orbit runs at metric speed `speed`, counterclockwise for turn = 1
    and clockwise for turn = -1.  The trace ends at t_end, or where it
    leaves the band if that comes first (escaped=True when escape is set,
    else band_exit names the edge).  Samples sit at the panel ends, the
    first at (z0, v0) when v0 is given; speeds and drifts are measured
    from them through the field evaluator, independently of the
    quadrature.  A well orbit, which has a radial period, returns to its
    launch state rotated by the angle of a period, so its closure distance
    after k periods is (|z0| + |v0|) 2 |sin(k Theta / 2)|, the least over
    the periods traced; any other orbit never closes.
    """
    field = orbit.field
    rs = math.sqrt(field.r)
    s_exit, edge = orbit.exit(s, band)
    t_stop = speed * t_end
    t = theta = 0.0
    samples = [(t, s, theta)]
    hit = False
    if orbit.ds:
        # index of the first turn-aligned panel end past s
        k = math.floor((s - 0.5 * math.pi) / orbit.ds) + 1
        if 0.5 * math.pi + k * orbit.ds <= s:
            k += 1
    ds = 0.5
    while s < s_exit and not hit:
        if orbit.ds:
            s1 = min(0.5 * math.pi + k * orbit.ds, s_exit)
            pieces = [(s1, *orbit.panel(s, s1))]
            k += 1
        else:
            pieces, ds = orbit.pair(s, s_exit, ds)
        for s1, dt, dth in pieces:
            if t + dt >= t_stop:
                # Newton on t(s_hit) = t_stop inside the panel
                s_hit = s + (s1 - s) * (t_stop - t) / dt
                for _ in range(8):
                    step = (t + orbit.panel(s, s_hit)[0] - t_stop) / orbit.rates(s_hit)[0]
                    s_hit -= step
                    if abs(step) <= 1e-15 * max(1.0, abs(s_hit)):
                        break
                samples.append((t_stop, s_hit, theta + orbit.panel(s, s_hit)[1]))
                hit = True
                break
            t, s, theta = t + dt, s1, theta + dth
            samples.append((t, s, theta))

    u0 = z0 / abs(z0)
    positions, velocities, speeds, momenta, densities = [], [], [], [], []
    for i, (_, s_i, theta_i) in enumerate(samples):
        if i == 0 and v0 is not None:
            z, v = z0, v0
        else:
            x, f, dx, w = orbit.profile(s_i)
            root = abs(dx) / w if dx else 0.0  # sqrt(f^2 - c^2)
            if i == 0:
                z = z0
            else:
                # the exit sample sits on its edge, and no sample leaves the band
                rho = min(max(rs * math.exp(x), band[0]), band[1])
                if not hit and i == len(samples) - 1:
                    rho = band[0] if edge == "inner" else band[1]
                z = rho * u0 * cmath.exp(1j * turn * theta_i)
            # at unit speed rho' = +-rho root / f^2 and rho theta' = rho c / f^2
            v = speed * z * complex(math.copysign(root, dx), turn * orbit.c) / (f * f)
        m = field.density(z)
        densities.append(m)
        positions.append(z)
        velocities.append(v)
        speeds.append(m * abs(v))
        momenta.append(m * m * (z.conjugate() * v).imag)
    ts = [t_i / speed for t_i, _, _ in samples]
    if hit:
        ts[-1] = t_end
    thetas = [turn * theta_i for _, _, theta_i in samples]
    # scale for angular-momentum drift; it vanishes for radial shots
    l_scale = max(abs(momenta[0]), 1e-3 * speeds[0] * abs(z0) * densities[0])
    exited = not hit
    trace = _trace_from_samples(
        ts, positions, velocities, speeds, thetas,
        escaped=exited and escape, band_exit=edge if exited and not escape else None,
        energy_drift=max(abs(e - speeds[0]) for e in speeds) / speeds[0],
        angular_drift=max(abs(l - momenta[0]) for l in momenta) / l_scale,
    )
    radii = [abs(p) for p in positions]
    dist = math.inf
    if orbit.period:
        period, angle = orbit.period
        scale = abs(z0) + abs(velocities[0])
        for k in range(1, int(samples[-1][0] / (speed * period)) + 1):
            dist = min(dist, scale * 2.0 * abs(math.sin(0.5 * k * angle)))
    return SpiralReport(
        trace=trace,
        rho_min=min(radii),
        rho_max=max(radii),
        closed=dist < CLOSURE_TOL,
        closure_distance=dist,
        # the launch velocity is u0 (i cos psi - sin psi) / m0
        launch_angle=0.0 if orbit.kind == "well" else cmath.phase(velocities[0] / u0) - 0.5 * math.pi,
        succeeded=not exited,
    )


def _choose_orbit(
    field: MetricField, rho1: float, rho0: float, moving: float, tangential: bool, tol: float,
    c: float | None = None, gap: float | None = None,
) -> tuple:
    """(orbit, s at |z0| = rho0) of a geodesic through |z0| with sign(dx/dt) = moving.

    rho1 is a critical circle at the minimum of f, the waist sqrt(r)
    when that is the only circle.  The orbit has Clairaut constant c,
    or f(rho1) + gap where its gap above that minimum is given exactly
    (spiral_trace's WAIST_GAP rounds away in c).  A tangential launch (c =
    f(rho0)) within the flank solve's tolerance of a critical circle is
    that circle.  Otherwise the family (see _ClairautOrbit) follows from
    where |z0| lies and how c compares with f on the circles (module
    docstring):

      * U regime: turning at the waist above its level, passing below;
      * W regime, between the flank circles: the well above their level,
        passing below it at the flank the orbit reaches first;
      * W regime, outside them: turning at the nearer flank circle above
        its level, passing below.

    A tangential launch turns at its own offset.  Any other turn comes
    from the local model of the circle when the gap |c - f_c| is within
    the change of f across the model, else from a bisection of f = c on
    the field between the model's edge and z0 (the flank circle, for the
    well).
    """
    rs = math.sqrt(field.r)
    x0 = math.log(rho0 / rs)
    ax0 = abs(x0)
    x1 = abs(math.log(rho1 / rs))  # 0 when the waist is the only circle
    side = -1.0 if x0 < 0.0 else 1.0
    x_model = _x_model(field.r)

    def f_at(x: float) -> float:
        rho = rs * math.exp(x)
        return rho * field.density(rho)

    def orbit(kind, side, centre, f_c, gap, xi0, x_turn=None, sense=1.0, bracket=None):
        if x_turn is None and abs(gap) > (reach := abs(f_at(centre + x_model) - f_c)):
            # the gap is past what f covers across the model
            if kind == "passing":
                x_turn = x_model * math.sqrt(abs(gap) / reach)
            else:
                x_turn = _bracketed_root(lambda xi: f_at(side * (centre + xi)) - c, *bracket, 0.0)
                if x_turn is None:
                    raise InternalConsistencyError(
                        f"no turn of the orbit from |z0| = {rho0!r} with r = {field.r!r} in {bracket!r}"
                    )
        coeffs = None
        if x_turn is None or x_turn <= x_model:
            kappa = field.curvature(rs * math.exp(centre))
            coeffs = _local_model(field, centre, 4.0 * x_model, f_c, kappa=kappa)
        o = _ClairautOrbit(field, side, centre, f_c, coeffs, kind, gap, x_turn, sense, tol, rho0)
        return o, o.start(xi0, side * moving > 0.0)

    if tangential and min(ax0, abs(ax0 - x1)) <= _CIRCLE_XTOL:
        return _ClairautOrbit(field, side, ax0, c, None, "circle", 0.0, 0.0, tol=tol), 0.0
    level = f_at(x1)  # the minimum of f: the waist in the U regime, else a flank
    c, gap = (c, c - level) if gap is None else (level + gap, gap)
    if ax0 < x1 and (tangential or gap > 0.0):
        f_w = f_at(0.0)
        return orbit("well", side, 0.0, f_w, c - f_w, ax0, ax0 if tangential else None,
                     bracket=(max(ax0, x_model), x1))
    if tangential or gap > 0.0:
        return orbit("turning", side, x1, level, gap, ax0 - x1, ax0 - x1 if tangential else None,
                     bracket=(x_model, ax0 - x1))
    # passing, at the circle the orbit reaches first (the waist itself in the U regime)
    ahead = [xc for xc in (-x1, x1) if (xc - x0) * moving > 0.0] or [math.copysign(x1, x0)]
    xc = min(ahead, key=lambda xc: abs(xc - x0))
    side = moving if x1 == 0.0 else math.copysign(1.0, xc)
    return orbit("passing", side, x1, level, gap, side * x0 - x1, sense=side * moving)


def _escape_band(r: float) -> tuple:
    """Radii where a trace escapes: ESCAPE_COLLAR from a circle, or a
    relative 1e-15 inside the escape horizon Q_HORIZON."""
    q = math.sqrt(Q_HORIZON)
    return max(r + ESCAPE_COLLAR, r / q * (1.0 + 1e-15)), min(1.0 - ESCAPE_COLLAR, q * (1.0 - 1e-15))


def integrate(
    r: float,
    metric: str,
    initial: GeodesicState,
    t_end: float,
    step_tol: float = STEP_TOL,
) -> GeodesicTrace:
    """Trace the geodesic from the given state for parameter length t_end.

    The launch state fixes the speed E = m |v0| and the Clairaut constant
    c = L / E, and with them the orbit (_choose_orbit), which is traced by
    Clairaut quadrature (_ClairautOrbit) at 8-point Gauss-Legendre panels,
    a sample at each panel end, about 64 per 2 pi of angle swept (see
    _ClairautOrbit.pair).  step_tol in (0, 1e-3] is the panel
    tolerance: each pair of panels is halved until the sums over its
    halves agree with the one over the whole to step_tol, relative, in
    both t and theta, or until the rounding of f - c next to a turn sets
    the floor; a radial oscillation in the stable well doubles its equal
    panels until its half period settles to step_tol.  A tangential
    launch on a critical circle is that circle, traced at the same 64
    samples per loop with no quadrature at all.

    The trace stops early, with escaped=True, where the orbit comes
    within ESCAPE_COLLAR of a boundary circle or reaches the escape
    horizon Q_HORIZON.  A launch already past either is returned alone,
    as an escaped trace.
    """
    field = MetricField(r, metric)
    z0 = check_point(field.r, initial.position, "z0")
    v0 = initial.velocity
    if v0 == 0:
        raise DomainError("initial velocity must be nonzero")
    check_t_end(t_end)
    if not (0.0 < step_tol <= 1e-3):
        raise DomainError(f"step_tol must lie in (0, 1e-3], got {step_tol!r}")
    rho0 = abs(z0)
    m0 = field.density(z0)
    band = _escape_band(field.r)
    if not band[0] < rho0 < band[1]:
        # already escaped: for r below about 1e-9 that is the whole waist
        return _trace_from_samples(
            [0.0], [z0], [v0], [m0 * abs(v0)], [0.0],
            escaped=True, band_exit=None, energy_drift=0.0, angular_drift=0.0,
        )
    # |c| = f(|z0|) cos(psi) for the tilt psi of v0 from the tangent; the
    # launch is tangential when its radial part is below the rounding of |v0|
    w = (z0 / rho0).conjugate() * v0  # radial + i tangential velocity
    tangential = abs(w.imag) == abs(w)
    c = rho0 * m0 if tangential else rho0 * m0 * abs(w.imag) / abs(w)
    orbit, s = _choose_orbit(field, _closed_circle(field).rho_star, rho0, math.copysign(1.0, w.real), tangential, step_tol, c)
    speed, turn = m0 * abs(v0), math.copysign(1.0, w.imag)
    return _clairaut_trace(orbit, s, z0, t_end, band, v0, speed, turn, escape=True).trace


def spiral_trace(
    r: float,
    metric: str,
    z0: complex,
    t_end: float,
    band: tuple | None = None,
) -> SpiralReport:
    """Trace a winding, non-closing geodesic through z0 confined to a band.

    Every spiral is an orbit chosen by its Clairaut constant
    (_choose_orbit) and traced by quadrature (see _ClairautOrbit), at the
    panel tolerance 1e-10.
    Which orbit depends on the regime of the module docstring, that is
    on metric and SQUARE_R:

    U regime (unstable waist sqrt(r)): c = f* + WAIST_GAP, just above
    the waist level f* = f(sqrt r).  The orbit spirals from z0 towards
    the waist, turns just short of it and spirals back out; for the
    Szego metric at r = 0.1 the two legs take about 230 time units each.
    launch_angle is the tilt of c, rounded to double precision, so a
    step-by-step integration from it soon leaves the waist.

    W regime (stable waist between the unstable flank circles rho1 of
    find_closed_geodesic and r/rho1): from z0 between them the orbit is
    the tangential launch, launch_angle 0, oscillating between |z0| and
    r/|z0|; from z0 outside them it is the construction above at the
    nearer flank circle.

    A band that stops short of the turn is left on the way in.  succeeded
    is True exactly when the trace is still inside the band at t_end.
    Otherwise the report carries the orbit up to its band exit, and
    succeeded=False: that also happens when t_end exceeds what even the
    smallest gap can hold at an unstable circle.  closed and
    closure_distance come from the orbit's radial period (see
    _clairaut_trace), not from the samples.
    """
    field = MetricField(r, metric)
    z0 = check_point(field.r, z0, "z0")
    rho0 = abs(z0)
    check_t_end(t_end)
    rs = math.sqrt(field.r)
    rho1 = _closed_circle(field).rho_star  # sqrt(r) exactly in the U regime
    circles = [rs] if rho1 == rs else [rs, rho1, field.r / rho1]
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
    # a trace escapes at the escape horizon
    lo, hi = _escape_band(field.r)
    band = (max(band[0], lo), min(band[1], hi))

    if min(circles) < rho0 < max(circles):
        # the tangential launch in the well between the flank circles
        orbit, s = _choose_orbit(field, circles[-1], rho0, 1.0, True, 1e-10, rho0 * field.density(z0))
    else:
        # the turn at the smallest gap, heading for the nearer minimum of f
        moving = -1.0 if rho0 > rs else 1.0
        orbit, s = _choose_orbit(field, circles[-1], rho0, moving, False, 1e-10, gap=WAIST_GAP)
    return _clairaut_trace(orbit, s, z0, t_end, band)
