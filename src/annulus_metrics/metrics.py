"""Invariant metrics and curvatures on the annulus A_r = {r < |z| < 1}.

Two independent computation routes live here.  The series route goes
through the Hardy-space maximal domain functions: the kernel diagonal
gives the Caratheodory density c = 2*pi*S, and the ratios J1/J0 and
J0*J2/J1^2 give the Szego density and its curvature.  The elliptic
route expresses the same Szego density through a difference of
Weierstrass p-values on the rectangular lattice (2 log r, 2 pi i), and
the capacity metric through the sigma2-star factor.  The two routes
share no code below the complex plane, which is what makes their
agreement a meaningful check.

Curvature conventions: kappa = -(Delta log m)/m^2 with Delta the full
Laplacian, so the unit disc density 1/(1-|z|^2) has kappa = -4.  The
N-th order curvature is -4 det(d^j dbar^k m)_{j,k<=N} / m^((N+1)^2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .elliptic import (
    EllipticContext,
    make_elliptic_context,
    sigma2_star_sq,
    wp,
)
from .errors import (
    ConvergenceError,
    DomainError,
    InternalConsistencyError,
    ShapeError,
)
from .hardy import (
    JOnAr,
    Truncation,
    j_functions_on_A_r,
    szego_kernel,
    szego_kernel_jet,
)
from .jets import MAX_ORDER, WirtingerJet, jet_log, jet_sqrt

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class MetricSample:
    """Metric data at one point of the annulus.

    S is the Szego kernel diagonal, c = 2*pi*S the Caratheodory
    density, s the Szego metric density, and kappa_c, kappa_s their
    Gaussian curvatures.
    """

    z: complex
    S: float
    c: float
    s: float
    kappa_c: float
    kappa_s: float

    def __post_init__(self):
        for name in ("S", "c", "s"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise InternalConsistencyError(
                    f"{name} must be a positive finite real, got {v!r}"
                )
        # The strict forms s >= c, kappa_s <= 4, kappa_c <= -4 hold
        # mathematically; the slack covers the last-bit rounding of the
        # degenerate (disc-limit) corners where equality is approached.
        if self.s < self.c * (1 - 1e-12):
            raise InternalConsistencyError(
                f"s = {self.s} fell below c = {self.c}"
            )
        if self.kappa_s > 4 + 1e-9 * max(1.0, abs(self.kappa_s)):
            raise InternalConsistencyError(
                f"kappa_s = {self.kappa_s} exceeds the bound 4"
            )
        if self.kappa_c > -4 + 1e-9 * max(1.0, abs(self.kappa_c)):
            raise InternalConsistencyError(
                f"kappa_c = {self.kappa_c} exceeds the bound -4"
            )


class ProbeResult(NamedTuple):
    """Boundary probe values together with the defining function used."""

    values: tuple
    psi: str


def _check_interior(r: float, z: complex) -> complex:
    if not (isinstance(r, (int, float)) and math.isfinite(r) and 0.0 < r < 1.0):
        raise DomainError(f"inner radius must lie strictly between 0 and 1, got {r!r}")
    zc = complex(z)
    if not (r < abs(zc) < 1.0):
        raise DomainError(f"z = {z!r} is outside the open annulus ({r}, 1)")
    return zc


@lru_cache(maxsize=128)
def _context_for(r: float) -> EllipticContext:
    return make_elliptic_context(r)


def metric_from_j(J: JOnAr, quantity: str) -> float:
    """c, s, kappa_c or kappa_s at a point from its scaled maximal domain functions:
      c = 2*pi*J0,  s = sqrt(J1/J0),
      kappa_c = -(1/pi^2)*J1/J0^3,  kappa_s = 4 - 2*J0*J2/J1^2.
    """
    if quantity == "c":
        return TWO_PI * J.j0
    if quantity == "s":
        return math.sqrt(J.j1 / J.j0)
    if quantity == "kappa_c":
        return -(1.0 / math.pi**2) * J.j1 / J.j0**3
    if quantity == "kappa_s":
        return 4.0 - 2.0 * J.j0 * J.j2 / J.j1**2
    raise DomainError(f"quantity must be c, s, kappa_c or kappa_s, got {quantity!r}")


def sample(r: float, z: complex, tr: Truncation = Truncation()) -> MetricSample:
    """Metric sample at z via the Hardy-series route.

    Rotation invariance reduces everything to |z| = r^lambda, where the
    scaled maximal domain functions J0, J1, J2 give S = J0 and the rest
    (see metric_from_j).
    """
    zc = _check_interior(r, z)
    lam = math.log(abs(zc)) / math.log(r)
    if not lam < 1.0:
        raise ConvergenceError(
            f"|z| = {abs(zc)!r} is within rounding of the inner circle of A_r"
            f" with r = {r!r}: lambda = log|z| / log r rounds to 1"
        )
    J = j_functions_on_A_r(r, lam, tr)
    values = (metric_from_j(J, q) for q in ("c", "s", "kappa_c", "kappa_s"))
    return MetricSample(zc, J.j0, *values)


def szego_metric_wp(r: float, z: complex) -> float:
    """Szego metric density from the elliptic closed form.

    s(z)^2 = (p(2 log|z|) - p(2 log|z| + omega1 + omega3)) / |z|^2 on
    the lattice with half-periods omega1 = -log r and omega3 = i*pi.
    The difference is real and positive for r < |z| < 1.
    """
    zc = _check_interior(r, z)
    ctx = _context_for(r)
    u = 2.0 * math.log(abs(zc))
    shift = complex(ctx.omega1, ctx.omega3_im)
    diff = wp(ctx, complex(u, 0.0)) - wp(ctx, u + shift)
    if abs(diff.imag) > 1e-12 * max(1.0, abs(diff.real)):
        raise InternalConsistencyError(
            f"p-difference should be real on the segment, got {diff!r}"
        )
    if diff.real <= 0:
        raise InternalConsistencyError(
            f"p-difference should be positive, got {diff.real!r}"
        )
    return math.sqrt(diff.real) / abs(zc)


def capacity_metric(r: float, z: complex, tr: Truncation = Truncation()) -> float:
    """Capacity (logarithmic-capacity) metric density.

    c_beta(z) = 2*pi*S(z) / sigma2_star(-2 log|z|), the factorization
    partner of the Szego kernel on the annulus.
    """
    zc = _check_interior(r, z)
    ctx = _context_for(r)
    u = -2.0 * math.log(abs(zc))
    s2s = sigma2_star_sq(ctx, u)
    if s2s <= 0:
        raise InternalConsistencyError(
            f"sigma2_star^2 should be positive, got {s2s!r}"
        )
    kern = szego_kernel(r, zc, zc, tr).real
    return TWO_PI * kern / math.sqrt(s2s)


def capacity_log_laplacian(r: float, z: complex) -> float:
    """d dbar of log c_beta, in closed elliptic form.

    Equals (p(2 log|z|) + eta1/omega1) / |z|^2, which is positive on
    the annulus, so the capacity metric has negative curvature.
    """
    zc = _check_interior(r, z)
    ctx = _context_for(r)
    u = 2.0 * math.log(abs(zc))
    val = wp(ctx, complex(u, 0.0))
    if abs(val.imag) > 1e-12 * max(1.0, abs(val.real)):
        raise InternalConsistencyError(
            f"p(u) should be real for real u, got {val!r}"
        )
    return (val.real + ctx.c) / abs(zc) ** 2


def szego_log_density_laplacian_wp(r: float, z: complex) -> float:
    """d dbar of log sigma2_star(-2 log|z|) in closed form.

    Equals -(p(2 log|z| + omega1 + omega3) + eta1/omega1) / |z|^2; with
    capacity_log_laplacian it splits d dbar log S into its two factors.
    """
    zc = _check_interior(r, z)
    ctx = _context_for(r)
    u = 2.0 * math.log(abs(zc))
    shift = complex(ctx.omega1, ctx.omega3_im)
    val = wp(ctx, u + shift)
    if abs(val.imag) > 1e-12 * max(1.0, abs(val.real)):
        raise InternalConsistencyError(
            f"p(u + omega1 + omega3) should be real for real u, got {val!r}"
        )
    return -(val.real + ctx.c) / abs(zc) ** 2


def _hermitian_det(coeffs: np.ndarray, side: int) -> float:
    block = coeffs[:side, :side]
    det = complex(np.linalg.det(block))
    if abs(det.imag) > 1e-8 * max(1.0, abs(det.real)):
        raise InternalConsistencyError(
            f"curvature determinant should be real, got {det!r}"
        )
    return det.real


def higher_curvature(
    r: float,
    z: complex,
    N: int,
    which: str,
    tr: Truncation = Truncation(),
) -> float:
    """N-th order curvature -4 det(d^j dbar^k m)_{j,k<=N} / m^((N+1)^2).

    which selects the density m: "caratheodory" (m = 2*pi*S, jets taken
    straight from the kernel series) or "szego" (m = sqrt(d dbar log S),
    one derivative order more expensive).  The order budget of the jet
    layer supports N in {1, 2} for caratheodory and N = 1 for szego;
    the szego N = 2 case would need kernel jets beyond the budget and
    raises ShapeError.
    """
    zc = _check_interior(r, z)
    if not isinstance(N, int) or N not in (1, 2):
        raise DomainError(f"N must be 1 or 2, got {N!r}")
    if which == "caratheodory":
        m_jet = szego_kernel_jet(r, zc, N, tr).scaled(TWO_PI)
    elif which == "szego":
        if N == 2:
            raise ShapeError(
                "szego N=2 needs kernel jets beyond the order budget"
            )
        s_jet = _szego_density_jet(r, zc, N, tr)
        m_jet = s_jet
    else:
        raise DomainError(f"which must be caratheodory or szego, got {which!r}")
    m0 = m_jet.at(0, 0).real
    det = _hermitian_det(m_jet.coeffs, N + 1)
    return -4.0 * det / m0 ** ((N + 1) ** 2)


def _szego_density_jet(
    r: float, z: complex, order: int, tr: Truncation
) -> WirtingerJet:
    """Jet of s = sqrt(d dbar log S) to the given order.

    Built by shifting the log-kernel jet down one slot in each index,
    which costs an order+1 kernel jet.
    """
    if order + 1 > MAX_ORDER:
        raise ShapeError(
            f"szego density jet of order {order} exceeds the jet budget"
        )
    k_jet = szego_kernel_jet(r, z, order + 1, tr)
    g = jet_log(k_jet)
    shifted = WirtingerJet(order, g.coeffs[1 : order + 2, 1 : order + 2].copy())
    return jet_sqrt(shifted)


def boundary_asymptotics_probe(
    r: float,
    k: int,
    l: int,
    approach: Sequence[float],
    boundary: str = "outer",
    tr: Truncation = Truncation(),
) -> ProbeResult:
    """Scaled kernel derivatives along a radial approach to a boundary.

    Returns d^k dbar^l S(rho) * (-psi(rho))^(k+l+1) for each rho in
    approach, where psi = |z|^2 - 1 at the outer circle and
    psi = r^2 - |z|^2 at the inner one.  The sequence tends to
    (k+l)!/(2*pi) * |dpsi(p)| ... dpsi(p)^k conj(dpsi(p))^l at the
    limit point p, which for these psi is (k+l)!/(2*pi) outer and
    (k+l)!/(2*pi) * (-r)^(k+l) * r inner.
    """
    if not isinstance(k, int) or not isinstance(l, int) or k < 0 or l < 0:
        raise DomainError(f"derivative orders must be nonnegative integers, got {k!r}, {l!r}")
    if k + l > 2:
        raise DomainError(f"probe supports k + l <= 2, got {k + l}")
    if boundary not in ("outer", "inner"):
        raise DomainError(f"boundary must be outer or inner, got {boundary!r}")
    points = [float(p) for p in approach]
    values = []
    order = max(k, l)
    for rho in points:
        zc = _check_interior(r, rho)
        jet = szego_kernel_jet(r, zc, order, tr)
        deriv = jet.at(k, l)
        if boundary == "outer":
            minus_psi = 1.0 - rho * rho
        else:
            minus_psi = rho * rho - r * r
        val = deriv * minus_psi ** (k + l + 1)
        if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
            raise InternalConsistencyError(
                f"probe value should be real on the positive axis, got {val!r}"
            )
        values.append(val.real)
    psi = "|z|^2-1" if boundary == "outer" else "r^2-|z|^2"
    return ProbeResult(tuple(values), psi)
