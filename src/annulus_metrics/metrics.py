"""Invariant metrics and curvatures on the annulus A_r = {r < |z| < 1}.

Three computation routes live here.  sample takes the kernel diagonal
S, and the Caratheodory density c = 2*pi*S, from the Laurent series of
hardy.szego_kernel, and the Szego density s and both curvatures from
the derivatives of log 2*pi*S that Ramanujan's 1psi1 product gives
(hardy._DiagonalProduct).  higher_curvature takes c too from the
product, and every order-N curvature from the Hankel determinants of
e^K, K = log c, in v = log|z|^2; it sums no Laurent series.  The
tests check it against the Laurent route, the kernel jets of
hardy.szego_kernel_jet, on which boundary_asymptotics_probe stays.
The J route, metric_from_j, gets the same four quantities from the
Hardy-space maximal domain functions J0, J1, J2, moment sums of the
Laurent series, through the ratios J1/J0 and J0*J2/J1^2; selftest
and the tests use it as the independent check of sample, which the
sweep reads.  The elliptic route expresses the Szego density through a
difference of Weierstrass p-values on the rectangular lattice
(2 log r, 2 pi i).  It shares no code below the complex plane with
the other two, which is what makes their agreement a meaningful check.

Curvature conventions: kappa = -(Delta log m)/m^2 with Delta the full
Laplacian, so the unit disc density 1/(1-|z|^2) has kappa = -4.  The
N-th order curvature is -4 det(d^j dbar^k m)_{j,k<=N} / m^((N+1)^2).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

from .elliptic import EllipticContext, make_elliptic_context, wp
from .errors import (
    ConvergenceError,
    DomainError,
    InternalConsistencyError,
    RangeError,
    ShapeError,
    check_point,
    check_r,
)
from .hardy import (
    JOnAr,
    Truncation,
    _DiagonalProduct,
    szego_kernel,
    szego_kernel_jet,
)

TWO_PI = 2.0 * math.pi

#: relative slack of MetricSample's check s >= c
S_OVER_C_SLACK = 1e-12


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
        if self.s < self.c * (1 - S_OVER_C_SLACK):
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
    """Metric sample at z: S from the kernel series, the rest from the product.

    S is the weight-1 Laurent sum of szego_kernel(r, z, z), and c = 2*pi*S.
    s, kappa_c and kappa_s come from the derivatives of K = log 2*pi*S in
    v = log|z|^2 that hardy._DiagonalProduct, Ramanujan's 1psi1 product,
    gives at the same cost at every |z|:
      s = sqrt(K'')/|z|,  kappa_c = -4 K''/(|z| c)^2,
      kappa_s = -2 (K'' K'''' - K'''^2)/K''^3 (see _DiagonalProduct.szego).
    The J route, metric_from_j(j_functions_on_A_r(...)), is the independent
    check of these.  ConvergenceError where |z| is within rounding of a
    circle or the kernel series misses its tolerance, RangeError where a
    value is past double range.
    """
    zc = check_point(check_r(r), z)
    rho = abs(zc)
    if not math.log(rho) / math.log(r) < 1.0:
        raise ConvergenceError(
            f"|z| = {rho!r} is within rounding of the inner circle of A_r"
            f" with r = {r!r}: lambda = log|z| / log r rounds to 1"
        )
    S = szego_kernel(r, zc, zc, tr).real
    c = TWO_PI * S
    k2, kappa_s = _DiagonalProduct(r, tr.tail_tol).szego(rho)
    rc = rho * c
    kappa_c = -4.0 * (k2 / rc) / rc
    if not (math.isfinite(c) and math.isfinite(kappa_c)):
        raise RangeError(f"c or kappa_c at |z| = {rho!r} with r = {r!r} is past double range")
    s = math.sqrt(k2) / rho
    if s < c * (1.0 - S_OVER_C_SLACK):
        # s >= c holds exactly and the product is good to a few ulps, so the
        # series overshot: next to the inner circle the rounding of lambda moves
        # the kernel's frame by about eps / (1 - lambda), relative
        raise ConvergenceError(
            f"kernel series at |z| = {rho!r} with r = {r!r} missed its tolerance:"
            f" c = {c!r} exceeds the product's s = {s!r}"
        )
    return MetricSample(zc, S, c, s, kappa_c, kappa_s)


def szego_metric_wp(r: float, z: complex) -> float:
    """Szego metric density from the elliptic closed form.

    s(z)^2 = (p(2 log|z|) - p(2 log|z| + omega1 + omega3)) / |z|^2 on
    the lattice with half-periods omega1 = -log r and omega3 = i*pi.
    The difference is real and positive for r < |z| < 1.  At small r it
    cancels: RangeError where its rounding bound eps (|p(u)| + |p(u +
    omega1 + omega3)|) / |difference| exceeds 1e-9, so that the value
    never strays from the 1e-8 agreement with sample unannounced.
    """
    zc = check_point(check_r(r), z)
    ctx = _context_for(r)
    u = 2.0 * math.log(abs(zc))
    shift = complex(ctx.omega1, ctx.omega3_im)
    p_u, p_shifted = wp(ctx, complex(u, 0.0)), wp(ctx, u + shift)
    diff = p_u - p_shifted
    if sys.float_info.epsilon * (abs(p_u) + abs(p_shifted)) > 1e-9 * abs(diff):
        raise RangeError(
            f"the elliptic Szego density at |z| = {abs(zc)!r} with r = {r!r} cancels past"
            f" 1e-9: p(u) = {p_u!r} and p(u + omega1 + omega3) = {p_shifted!r} differ by {diff!r}"
        )
    if abs(diff.imag) > 1e-12 * max(1.0, abs(diff.real)):
        raise InternalConsistencyError(
            f"p-difference should be real on the segment, got {diff!r}"
        )
    if diff.real <= 0:
        raise InternalConsistencyError(
            f"p-difference should be positive, got {diff.real!r}"
        )
    density = math.sqrt(diff.real) / abs(zc)
    if not math.isfinite(density):
        raise RangeError(
            f"the elliptic Szego density at |z| = {abs(zc)!r} with r = {r!r} is past double range"
        )
    return density


def higher_curvature(
    r: float,
    z: complex,
    N: int,
    which: str,
    tr: Truncation = Truncation(),
) -> float:
    """N-th order curvature -4 det(d^j dbar^k m)_{j,k<=N} / m^((N+1)^2).

    which selects the density m: "caratheodory" (m = c = 2*pi*S) or
    "szego" (m = s).  Both are radial, m = G(v) in v = log|z|^2, and the
    Stirling matrix that turns v-derivatives into Wirtinger derivatives
    is unit lower-triangular, so
      det(d^j dbar^k m)_{j,k<=N} = |z|^(-N(N+1)) det(G^(i+l)(v))_{i,l<=N}.
    For G = e^K the Hankel determinant is e^((N+1)K) times K'' at N = 1
    and D = 2K''^3 + K''K'''' - K'''^2 at N = 2.  With K = log c, which
    hardy._DiagonalProduct.hankel gives with K'' and D at the same cost
    at every |z|, the Caratheodory curvatures are
      N = 1:  kappa_c = -4 K'' / (|z| c)^2,
      N = 2:  -4 D / (|z| c)^6 = kappa_c^3 (4 - kappa_s) / 32,
    and the Szego N = 1 case is sample's kappa_s.  The Szego N = 2 case
    needs K to order 6 and raises ShapeError.  RangeError where the
    value is past double range.
    """
    zc = check_point(check_r(r), z)
    if not isinstance(N, int) or N not in (1, 2):
        raise DomainError(f"N must be 1 or 2, got {N!r}")
    if which not in ("caratheodory", "szego"):
        raise DomainError(f"which must be caratheodory or szego, got {which!r}")
    if which == "szego" and N == 2:
        raise ShapeError("szego N=2 needs K to order 6, past the product's order 4")
    rho = abs(zc)
    product = _DiagonalProduct(r, tr.tail_tol)
    if which == "szego":
        return product.szego(rho)[1]
    K, k2, D = product.hankel(rho)
    try:
        rc = rho * math.exp(K)
    except OverflowError:
        raise RangeError(
            f"c at |z| = {rho!r} with r = {r!r} is past double range (log c = {K!r})"
        ) from None
    kappa = -4.0 * (k2 if N == 1 else D)
    for _ in range(N * (N + 1)):
        kappa /= rc
    if not (math.isfinite(kappa) and kappa):
        raise RangeError(
            f"the order-{N} curvature at |z| = {rho!r} with r = {r!r} is past double range"
        )
    return kappa


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
        zc = check_point(check_r(r), rho)
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
