"""Weierstrass functions on the rectangular lattice of an annulus.

For an annulus with radii (r, 1) the lattice has half-periods
omega1 = -log r (real) and omega3 = i*pi.  Everything here is evaluated
through rapidly convergent theta series.  The working nome never
exceeds exp(-pi): when omega1 > pi the roles of the two periods are
exchanged internally, and all reported quantities are translated back
to the (omega1, i*pi) labelling.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import (
    ConvergenceError,
    DomainError,
    InternalConsistencyError,
    PoleError,
    RangeError,
    check_r,
)

_PI = math.pi

# Eight terms leave the theta tails below 1e-60 of the leading term for
# every nome the constructor accepts.
_N_THETA = 8

# Largest |log nome| before exp(lnq) underflows (wider than any r the
# representable doubles can produce on the swapped side).
_LNQ_CAP = 740.0

POLE_RADIUS_FACTOR = 1e-6

#: residual of e1 + e2 + e3 = 0 and of the cubic at each root, relative to
#: 1 + |g2| + |g3|, that make_elliptic_context requires of its constants
ROOT_TOL = 1e-12


@dataclass(frozen=True)
class _Frame:
    """Internal evaluation frame: the period pair actually fed to theta.

    swapped=False keeps (W1, W3) = (omega1, i*pi); swapped=True uses
    (i*pi, -omega1), an equivalent basis of the same lattice with a
    small real nome exp(-omega1) = r.
    """

    swapped: bool
    om1: float
    W1: complex
    W3: complex
    lnq: float
    th20: float
    th30: float
    th40: float
    th1p0: float
    etaW1: complex
    etaW3: complex
    E1f: complex


@dataclass(frozen=True)
class EllipticContext:
    """Lattice constants for half-periods omega1 = -log r and i*pi.

    eta3 is purely imaginary on this rectangular lattice and is stored
    through its imaginary part eta3_im.  q is the nome the evaluator
    works with (a representation detail; it is the nome of the swapped
    basis when omega1 > pi).
    """

    omega1: float
    omega3_im: float
    g2: float
    g3: float
    e1: float
    e2: float
    e3: float
    eta1: float
    eta3_im: float
    c: float
    q: float
    _frame: _Frame = field(repr=False, compare=False)


def _theta(lnq: float, v: complex, kind: int, d: int = 0) -> complex:
    """d-th derivative (in v) of theta_kind at v with nome exp(lnq).

    Near the real axis the factored q-power * trig form is used: cmath
    keeps sin/cos of nearly-real arguments fully accurate, where the
    exponential-pair form would cancel catastrophically for small v.
    Away from the axis the pair form takes over; each summand then
    keeps a bounded real exponent even when the q-power alone would
    underflow while the trigonometric factor overflows.
    """
    if kind not in (1, 2, 3, 4):
        raise DomainError(f"theta kind must be 1..4, got {kind}")
    if d not in (0, 1):
        raise DomainError(f"theta derivative order must be 0 or 1, got {d}")
    if (2 * _N_THETA + 1) * abs(v.imag) < 600.0:
        return _theta_trig(lnq, v, kind, d)
    return _theta_pairs(lnq, v, kind, d)


def _theta_trig(lnq: float, v: complex, kind: int, d: int) -> complex:
    total = 0j
    if kind in (1, 2):
        for n in range(_N_THETA + 1):
            qf = math.exp((n + 0.5) ** 2 * lnq)
            k = 2 * n + 1
            kv = k * v
            if kind == 1:
                osc = cmath.sin(kv) if d == 0 else k * cmath.cos(kv)
                total += 2.0 * (-1.0 if n % 2 else 1.0) * qf * osc
            else:
                osc = cmath.cos(kv) if d == 0 else -k * cmath.sin(kv)
                total += 2.0 * qf * osc
    else:
        if d == 0:
            total += 1.0
        for n in range(1, _N_THETA + 1):
            qf = math.exp(n * n * lnq)
            if kind == 4 and n % 2:
                qf = -qf
            osc = cmath.cos(2 * n * v) if d == 0 else -2 * n * cmath.sin(2 * n * v)
            total += 2.0 * qf * osc
    return total


def _theta_pairs(lnq: float, v: complex, kind: int, d: int) -> complex:
    total = 0j
    if kind in (1, 2):
        for n in range(_N_THETA + 1):
            a = (n + 0.5) ** 2 * lnq
            k = 2 * n + 1
            fp = (1j * k) ** d
            fm = (-1j * k) ** d
            ep = cmath.exp(a + 1j * k * v)
            em = cmath.exp(a - 1j * k * v)
            if kind == 1:
                total += (-1) ** n * (-1j) * (fp * ep - fm * em)
            else:
                total += fp * ep + fm * em
    else:
        if d == 0:
            total += 1.0
        for n in range(1, _N_THETA + 1):
            a = n * n * lnq
            fp = (2j * n) ** d
            fm = (-2j * n) ** d
            term = fp * cmath.exp(a + 2j * n * v) + fm * cmath.exp(a - 2j * n * v)
            total += -term if (kind == 4 and n % 2) else term
    return total


def _theta_nulls(lnq: float) -> tuple[float, float, float, float, float]:
    th20 = 0.0
    th1p0 = 0.0
    th1ppp0 = 0.0
    for n in range(_N_THETA + 1):
        qn = math.exp((n + 0.5) ** 2 * lnq)
        s = -1.0 if n % 2 else 1.0
        th20 += 2.0 * qn
        th1p0 += 2.0 * s * (2 * n + 1) * qn
        th1ppp0 -= 2.0 * s * (2 * n + 1) ** 3 * qn
    th30 = 1.0
    th40 = 1.0
    for n in range(1, _N_THETA + 1):
        qn = math.exp(n * n * lnq)
        th30 += 2.0 * qn
        th40 += 2.0 * (-qn if n % 2 else qn)
    return th20, th30, th40, th1p0, th1ppp0


def _zeta_raw(fr: _Frame, z0: complex) -> complex:
    v = (_PI / 2.0) * z0 / fr.W1
    t1 = _theta(fr.lnq, v, 1)
    t1p = _theta(fr.lnq, v, 1, d=1)
    return (fr.etaW1 / fr.W1) * z0 + (_PI / (2.0 * fr.W1)) * (t1p / t1)


def make_elliptic_context(r: float) -> EllipticContext:
    """Build the lattice constants for the annulus with radii (r, 1).

    Raises DomainError unless 0 < r < 1, RangeError when r is so extreme
    that the nome leaves the representable range, and ConvergenceError
    when the computed constants miss ROOT_TOL.
    """
    check_r(r)
    omega1 = -math.log(r)
    swapped = omega1 > _PI
    if swapped:
        W1, W3 = 1j * _PI, complex(-omega1)
        lnq = -omega1
    else:
        W1, W3 = complex(omega1), 1j * _PI
        lnq = -_PI * _PI / omega1
    if -lnq > _LNQ_CAP:
        raise RangeError(
            f"annulus modulus too extreme: |log nome| = {-lnq:.3g} exceeds {_LNQ_CAP:g}"
        )

    th20, th30, th40, th1p0, th1ppp0 = _theta_nulls(lnq)

    # Two independent routes to the same null; a mismatch means the
    # series itself went wrong.
    prod = th20 * th30 * th40
    if abs(th1p0 - prod) > 1e-11 * abs(prod):
        raise InternalConsistencyError("theta null identity th1' = th2*th3*th4 failed")
    if abs(th20**4 + th40**4 - th30**4) > 1e-11 * th30**4:
        raise InternalConsistencyError("theta null quartic identity failed")

    A = (_PI / (2.0 * W1)) ** 2
    E1f = A * (th30**4 + th40**4) / 3.0
    E2f = A * (th20**4 - th40**4) / 3.0
    E3f = -A * (th20**4 + th30**4) / 3.0

    etaW1 = -(_PI**2) * th1ppp0 / (12.0 * W1 * th1p0)

    frame0 = _Frame(
        swapped, omega1, W1, W3, lnq, th20, th30, th40, th1p0, etaW1, 0j, E1f
    )
    etaW3 = _zeta_raw(frame0, W3)
    frame = _Frame(
        swapped, omega1, W1, W3, lnq, th20, th30, th40, th1p0, etaW1, etaW3, E1f
    )

    def _real(x: complex, what: str) -> float:
        if abs(x.imag) > 1e-10 * (1.0 + abs(x)):
            raise InternalConsistencyError(f"{what} should be real, got {x!r}")
        return x.real

    if swapped:
        e1 = _real(E3f, "e1")
        e2 = _real(E2f, "e2")
        e3 = _real(E1f, "e3")
        eta1_c = -etaW3
        eta3_c = etaW1
    else:
        e1 = _real(E1f, "e1")
        e2 = _real(E2f, "e2")
        e3 = _real(E3f, "e3")
        eta1_c = etaW1
        eta3_c = etaW3
    eta1 = _real(eta1_c, "eta1")
    if abs(eta3_c.real) > 1e-10 * (1.0 + abs(eta3_c)):
        raise InternalConsistencyError(f"eta3 should be purely imaginary, got {eta3_c!r}")
    eta3_im = eta3_c.imag

    g2 = 2.0 * (e1 * e1 + e2 * e2 + e3 * e3)
    g3 = 4.0 * e1 * e2 * e3

    scale = 1.0 + abs(g2) + abs(g3)
    # Adjacent values can collide at machine precision for extreme
    # moduli (the true gaps decay like the nome), so the ordering check
    # is non-strict; the strict version holds whenever the gaps are
    # representable at all.
    if not (e1 >= e2 >= e3) or not (e1 > e3):
        raise ConvergenceError(f"half-period values out of order: {e1}, {e2}, {e3}")
    if abs(e1 + e2 + e3) > ROOT_TOL * scale:
        raise ConvergenceError(f"e1+e2+e3 = 0 not met to ROOT_TOL = {ROOT_TOL!r} at r = {r!r}")
    for ei in (e1, e2, e3):
        if abs(4.0 * ei**3 - g2 * ei - g3) > ROOT_TOL * scale:
            raise ConvergenceError(
                f"cubic root residual not met to ROOT_TOL = {ROOT_TOL!r} at r = {r!r}"
            )

    return EllipticContext(
        omega1=omega1,
        omega3_im=_PI,
        g2=g2,
        g3=g3,
        e1=e1,
        e2=e2,
        e3=e3,
        eta1=eta1,
        eta3_im=eta3_im,
        c=eta1 / omega1,
        q=math.exp(lnq),
        _frame=frame,
    )


def _reduce(fr: _Frame, z: complex) -> tuple[complex, int, int]:
    """Split z = z0 + 2m*W1 + 2n*W3 with z0 in the centred cell.

    Rounding is half-to-even, so points sitting exactly on a cell edge
    stay where they are instead of hopping to the neighbouring copy.
    """
    if fr.swapped:
        a = z.imag / (2.0 * _PI)
        b = -z.real / (2.0 * fr.om1)
    else:
        a = z.real / (2.0 * fr.om1)
        b = z.imag / (2.0 * _PI)
    m = round(a)
    n = round(b)
    z0 = z - 2.0 * m * fr.W1 - 2.0 * n * fr.W3
    return z0, m, n


def _check_pole(fr: _Frame, z0: complex, m: int, n: int) -> None:
    thr = POLE_RADIUS_FACTOR * min(2.0 * fr.om1, 2.0 * _PI)
    best = None
    best_pq = (0, 0)
    for p in (-1, 0, 1):
        for q_ in (-1, 0, 1):
            d = abs(z0 - 2.0 * (p * fr.W1 + q_ * fr.W3))
            if best is None or d < best:
                best = d
                best_pq = (p, q_)
    if best is not None and best < thr:
        p, q_ = best_pq
        nearest = 2.0 * ((m + p) * fr.W1 + (n + q_) * fr.W3)
        raise PoleError(
            f"point within pole-exclusion radius of lattice point {nearest}", nearest=nearest
        )


def wp(ctx: EllipticContext, z: complex) -> complex:
    """Weierstrass P at z (doubly periodic, even, second-order pole at 0)."""
    fr = ctx._frame
    z0, m, n = _reduce(fr, complex(z))
    _check_pole(fr, z0, m, n)
    v = (_PI / 2.0) * z0 / fr.W1
    t1 = _theta(fr.lnq, v, 1)
    t2 = _theta(fr.lnq, v, 2)
    A = (_PI / (2.0 * fr.W1)) ** 2
    ratio = t2 / t1
    return fr.E1f + A * (fr.th30 * fr.th40 * ratio) ** 2


def wp_prime(ctx: EllipticContext, z: complex) -> complex:
    """Derivative of Weierstrass P; odd, vanishes at the half-periods."""
    fr = ctx._frame
    z0, m, n = _reduce(fr, complex(z))
    _check_pole(fr, z0, m, n)
    v = (_PI / 2.0) * z0 / fr.W1
    t1 = _theta(fr.lnq, v, 1)
    t2 = _theta(fr.lnq, v, 2)
    t1p = _theta(fr.lnq, v, 1, d=1)
    t2p = _theta(fr.lnq, v, 2, d=1)
    A = (_PI / (2.0 * fr.W1)) ** 2
    ratio = t2 / t1
    deriv = t2p / t1 - ratio * (t1p / t1)
    return 2.0 * A * (_PI / (2.0 * fr.W1)) * (fr.th30 * fr.th40) ** 2 * ratio * deriv


def zeta(ctx: EllipticContext, z: complex) -> complex:
    """Weierstrass zeta: odd, zeta' = -P, quasi-periodic with jumps 2*eta_k."""
    fr = ctx._frame
    z0, m, n = _reduce(fr, complex(z))
    _check_pole(fr, z0, m, n)
    return _zeta_raw(fr, z0) + 2.0 * m * fr.etaW1 + 2.0 * n * fr.etaW3


def sigma(ctx: EllipticContext, z: complex) -> complex:
    """Weierstrass sigma: odd entire function with sigma(z)/z -> 1 at 0."""
    fr = ctx._frame
    z = complex(z)
    z0, m, n = _reduce(fr, z)
    v = (_PI / 2.0) * z0 / fr.W1
    t1 = _theta(fr.lnq, v, 1)
    try:
        raw = (2.0 * fr.W1 / _PI) * cmath.exp(fr.etaW1 * z0 * z0 / (2.0 * fr.W1)) * t1 / fr.th1p0
        if m == 0 and n == 0:
            return raw
        sign = -1.0 if (m + n + m * n) % 2 else 1.0
        shift = (2.0 * m * fr.etaW1 + 2.0 * n * fr.etaW3) * (z0 + m * fr.W1 + n * fr.W3)
        return sign * cmath.exp(shift) * raw
    except OverflowError as exc:
        raise RangeError(f"sigma overflow at z = {z!r}") from exc


def sigma_k(ctx: EllipticContext, k: int, u: float) -> float:
    """Half-period sigma quotient e^(-eta_k u) sigma(u+omega_k)/sigma(omega_k).

    Real for real u on this rectangular lattice; k selects which of the
    three half-periods omega1, omega2 = -omega1-omega3, omega3 is used.
    """
    if k not in (1, 2, 3):
        raise DomainError(f"k must be 1, 2 or 3, got {k!r}")
    u = float(u)
    om1 = ctx.omega1
    om3 = 1j * ctx.omega3_im
    eta3 = 1j * ctx.eta3_im
    if k == 1:
        om, eta = complex(om1), complex(ctx.eta1)
    elif k == 2:
        om, eta = -om1 - om3, -ctx.eta1 - eta3
    else:
        om, eta = om3, eta3
    denom = sigma(ctx, om)
    if denom == 0:
        raise RangeError("sigma underflow at the half-period; annulus too extreme for sigma_k")
    try:
        val = cmath.exp(-eta * u) * sigma(ctx, u + om) / denom
    except OverflowError as exc:
        raise RangeError(f"sigma_k overflow at u = {u!r}") from exc
    if abs(val.imag) > 1e-9 * (1.0 + abs(val)):
        raise InternalConsistencyError(f"sigma_{k}({u}) should be real, got {val!r}")
    return val.real


def sigma2_star_sq(ctx: EllipticContext, u: float) -> float:
    """Square of the Gaussian-weighted half-period quotient sigma_2.

    Returns e^(-c u^2) * sigma_2(u)^2, evaluated in log space so the
    enormous intermediate factors of sigma_2 itself never appear.
    """
    u = float(u)
    if not math.isfinite(u) or not math.isfinite(u * u):
        raise RangeError(f"u out of representable range: {u!r}")
    fr = ctx._frame
    if not fr.swapped:
        # The Gaussian weight cancels the sigma prefactor exactly here.
        v = _PI * u / (2.0 * fr.om1)
        t3 = _theta(fr.lnq, complex(v), 3)
        val = (t3.real / fr.th30) ** 2
        if val <= 0.0:
            raise InternalConsistencyError(f"sigma2*^2({u}) not positive: {val!r}")
        return val
    # Swapped frame: work with log theta3 at purely imaginary argument,
    # where the series is 1 + sum r^(n^2) * 2cosh(n u) and every term is
    # positive.  exponents[] holds the log of each term.
    om1 = fr.om1
    n_needed = int(abs(u) / (2.0 * om1)) + _N_THETA + 2
    if n_needed > 10**6:
        raise RangeError(f"u too large for the series: {u!r}")
    exponents = [0.0]
    for n in range(1, n_needed + 1):
        a = -n * n * om1
        exponents.append(a + n * u)
        exponents.append(a - n * u)
    top = max(exponents)
    log_t3 = top + math.log(math.fsum(math.exp(e - top) for e in exponents))
    log_t30 = math.log(math.fsum(math.exp(-n * n * om1) for n in range(1, _N_THETA + 1)) * 2.0 + 1.0)
    efac = (ctx.eta3_im / _PI - ctx.c) * u * u
    total = efac + 2.0 * (log_t3 - log_t30)
    try:
        return math.exp(total)
    except OverflowError as exc:
        raise RangeError(f"sigma2*^2 overflow at u = {u!r}") from exc
