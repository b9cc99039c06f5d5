"""Hardy-space data on annuli: basis norms, moment sums, kernel series.

The round annulus A(r_in, r_out) has the monomials z^n as an orthogonal
basis of the Hardy space of its boundary, with squared norms
alpha_n = 2*pi*(r_in^(2n+1) + r_out^(2n+1)).  Everything downstream
(kernel diagonal, maximal domain functions) reduces to weighted sums of
1/alpha_n.

Every series goes through one core, _series, which sums
sum_n w(n) e^(i n theta) / alpha_n(a) for polynomial weights w on an
annulus a that contains the unit circle.  The other series are
rescalings of it, since |z|^n / alpha_n(a) = sigma^(-1) / alpha_n(a / sigma)
when sigma^2 = |z|:
  - moment_sums is the core at theta = 0 with the weights n^j;
  - the kernel S(z, w) on A_r uses sigma = sqrt(|z| |w|), which is
    exactly |z| on the diagonal;
  - the diagonal jets use the weights (n)_j (n)_k at sigma = |z|, with
    the factor |z|^(-j-k) and the phase e^(i (k-j) arg z);
  - J0, J1, J2 at r^lambda are moment sums on the same frame, which
    _frame builds for the kernel, the jets and the J-functions alike.

Summation conventions of the core:
  - terms are paired n with -n-1 and the pairs summed with math.fsum;
  - magnitudes are built as exponentials of logarithms, so sweeps down
    to r = 1e-8 and beyond stay inside double range;
  - each weight starts at FIRST_PAIRS = 512 pairs and doubles, up to
    HARD_CAP, until its own geometric tail bound drops below tail_tol,
    the one setting of Truncation, relative to the sum of absolute
    values.  A weight's pair count depends on nothing but the weight,
    the annulus and tail_tol, so the weight-1 sum is bitwise the same in
    moment_sums, on the kernel diagonal and in the jet entry (0, 0).

The geodesic field, metrics.higher_curvature, and metrics.sample for
everything but S itself, and with sample the sweep, take
log 2*pi*S(z, z) and its derivatives from a second core,
_DiagonalProduct, Ramanujan's 1psi1 product, whose factors converge
like r^2 at every |z|; its rows stop at HARD_CAP terms too, which
admits r up to about 0.99996.  _series stays the independent route:
the J-functions on A_r serve selftest and the tests as the check of
sample.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    InternalConsistencyError,
    RangeError,
    check_lambda,
    check_point,
    check_r,
)
from .jets import MAX_ORDER, WirtingerJet

TWO_PI = 2.0 * math.pi

#: pairs n, -n-1 of every series' first pass
FIRST_PAIRS = 512

HARD_CAP = 2**20

#: leading terms of each row whose pairs _DiagonalProduct.szego and .hankel take in closed form
LEAD_TERMS = 2


@dataclass(frozen=True)
class GeneralAnnulus:
    """Round annulus {z : r_in < |z| < r_out}."""

    r_in: float
    r_out: float

    def __post_init__(self):
        if not (
            isinstance(self.r_in, (int, float))
            and isinstance(self.r_out, (int, float))
            and math.isfinite(self.r_in)
            and math.isfinite(self.r_out)
            and 0.0 < self.r_in < self.r_out
        ):
            raise DomainError(
                f"annulus radii must satisfy 0 < r_in < r_out, got ({self.r_in!r}, {self.r_out!r})"
            )

    @property
    def contains_one(self) -> bool:
        return self.r_in < 1.0 < self.r_out


@dataclass(frozen=True)
class Truncation:
    """Relative tail tolerance every series meets, in (0, 1e-2]."""

    tail_tol: float = 1e-12

    def __post_init__(self):
        if not (isinstance(self.tail_tol, (int, float)) and 0.0 < self.tail_tol <= 1e-2):
            raise DomainError(f"tail_tol must lie in (0, 1e-2], got {self.tail_tol!r}")


@dataclass(frozen=True)
class MomentSums:
    """Weighted sums s_j = sum_n n^j / alpha_n with summation metadata.

    n_used is the largest pair count any s_j needed, tail_bound the
    largest certified tail.
    """

    s: tuple
    annulus: GeneralAnnulus
    n_used: int
    tail_bound: float


class JOnAr(NamedTuple):
    j0: float
    j1: float
    j2: float


def _log_alpha(log_rin: float, log_rout: float, n) -> np.ndarray:
    """log alpha_n, vectorized over n (numpy array or scalar)."""
    e = 2 * np.asarray(n, dtype=float) + 1.0
    return math.log(TWO_PI) + np.logaddexp(e * log_rin, e * log_rout)


def _poly(coeffs, x):
    """Polynomial with coefficients in ascending powers, by Horner's rule."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


def _geometric(log_q: float) -> float:
    """q / (1 - q) for q = exp(log_q), infinite once q rounds to 1 or more."""
    q = math.exp(min(log_q, 0.0))
    return q / (1.0 - q) if q < 1.0 else math.inf


def _series(a: GeneralAnnulus, theta: float, weights, tr: Truncation, what: str) -> list:
    """sum over all integers n of w(n) e^(i n theta) / alpha_n(a), per weight.

    A weight is its coefficients in ascending powers of n.  Returns one
    (value, pairs, tail) per weight, with a real value when theta == 0.
    The tail bound past N pairs takes |w(n)| <= W(|n|), W the weight
    with absolute coefficients, whose ratio from one |n| to the next is
    at most ((N + 1) / N)^degree; for w = n^j this is exactly |n|^j.
    what names the series and the point in a ConvergenceError.
    """
    if not a.contains_one:
        raise ConvergenceError(
            f"{what} diverges: the annulus ({a.r_in!r}, {a.r_out!r}) misses the unit circle"
        )
    log_rin, log_rout = math.log(a.r_in), math.log(a.r_out)

    def tail_bound(w_abs, n_pairs, e_last_pos, e_last_neg):
        growth = (len(w_abs) - 1) * math.log1p(1.0 / n_pairs)
        tail = _poly(w_abs, float(n_pairs)) * e_last_pos * _geometric(growth - 2 * log_rout)
        return tail + _poly(w_abs, n_pairs + 1.0) * e_last_neg * _geometric(growth + 2 * log_rin)

    exhausted = (
        f"{what} did not meet tail_tol={tr.tail_tol!r} with {FIRST_PAIRS} pairs"
        f" doubled up to the cap of {HARD_CAP}"
    )
    out = [None] * len(weights)
    n_pairs = FIRST_PAIRS
    while n_pairs <= HARD_CAP:
        n = np.arange(n_pairs + 1.0)
        n_neg = -n - 1.0
        e_pos = np.exp(-_log_alpha(log_rin, log_rout, n))
        e_neg = np.exp(-_log_alpha(log_rin, log_rout, n_neg))
        for i, w in enumerate(weights):
            if out[i] is not None:
                continue
            m_pos = _poly(w, n) * e_pos
            m_neg = _poly(w, n_neg) * e_neg
            scale = math.fsum(np.abs(m_pos).tolist()) + math.fsum(np.abs(m_neg).tolist())
            w_abs = [abs(c) for c in w]
            tail = tail_bound(w_abs, n_pairs, e_pos[-1], e_neg[-1])
            if not tail <= tr.tail_tol * max(scale, 1e-300):
                # a finite bound falls with the pair count and the sum grows
                # by at most tail: failing at the cap, it fails at every count
                if math.isfinite(tail):
                    e_cap = np.exp(-_log_alpha(log_rin, log_rout, (HARD_CAP, -HARD_CAP - 1.0)))
                    if tail_bound(w_abs, HARD_CAP, *e_cap) > tr.tail_tol * (scale + tail):
                        raise ConvergenceError(exhausted)
                continue
            if theta:
                terms = m_pos * np.exp(1j * theta * n) + m_neg * np.exp(1j * theta * n_neg)
                value = complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))
            else:
                value = math.fsum((m_pos + m_neg).tolist())
            out[i] = (value, n_pairs, float(tail))
        if all(o is not None for o in out):
            return out
        n_pairs *= 2
    raise ConvergenceError(exhausted)


def _frame(r: float, lam: float, where: str) -> tuple:
    """A_r rescaled by z -> z / r^lambda, and the log of r^(-lambda).

    The image (r^(1-lambda), r^(-lambda)) of A_r contains 1 for every
    lambda in (0, 1), except where rounding puts it on a boundary
    circle, which no number of terms reaches; where names the point in
    that ConvergenceError.
    """
    try:
        r_in, r_out = r ** (1.0 - lam), r ** (-lam)
    except OverflowError:
        raise RangeError(
            f"{where} with r = {r!r} is past double range: lambda = {lam!r}"
            f" rescales the outer circle to r^(-lambda), above the largest double"
        ) from None
    if not r_in < 1.0 < r_out:
        raise ConvergenceError(
            f"{where} is within rounding of a boundary circle of A_r with r = {r!r}:"
            f" lambda = {lam!r} rescales A_r to ({r_in!r}, {r_out!r})"
        )
    return GeneralAnnulus(r_in, r_out), -lam * math.log(r)


class _DiagonalProduct:
    """K = log 2*pi*S(z, z) on A_r and its derivatives in v = log|z|^2.

    Ramanujan's 1psi1 sum (Gasper & Rahman (5.2.1)), q = r^2, t = |z|^2:
    2*pi*S(z, z) = (q;q)^2 (-rt;q) (-r/t;q) / ((-r;q)^2 (t;q) (q/t;q)).
    K is a constant plus terms s (-log(1 - u)), s = (-1)^j, u = s r^j t (row 0)
    or s r^j q/t (row 1), made from rho = |z| and y = r/rho; what underflows
    is far below K'' > sqrt(r)/4.  j = 0 holds 1 - t = (1 - rho)(1 + rho) and
    1 - q/t = ((rho - r)/rho)((rho + r)/rho); j = -1 holds 1 + r/t, written
    (r/t)(1 + t/r) in row 0 below the waist; j <= 2N, r^(2N+1) <= 2^-60,
    or <= tail_tol where that is tighter; ConvergenceError once a row
    would pass HARD_CAP terms, before anything is allocated.
    Per term, with +- for rows 0 and 1, the v-derivatives are +-u/(1-u),
    u/(1-u)^2, +-u(1+u)/(1-u)^3 and u(1+4u+u^2)/(1-u)^4.  jet gives K^(j)
    for j in orders, but order 3 gives K''' - K'', summed termwise as
    2|u|(u or -1)/(1-u)^3 so that it stays accurate where s is nearly flat.
    szego gives K'' and the Szego curvature, whose numerator cancels, and
    hankel gives K, K'' and D, the 3x3 Hankel determinant of e^K over
    e^(3K), summed so that it keeps its digits where kappa_s nears 4.
    """

    def __init__(self, r: float, tail_tol: float = 2.0**-60):
        self.r = r
        log_r = math.log(r)
        digits = max(60.0 * math.log(2.0), -math.log(tail_tol))
        n = math.ceil((digits - log_r) / (-2.0 * log_r))
        if 2 * n + 2 > HARD_CAP:
            raise ConvergenceError(
                f"the 1psi1 product at r = {r!r} needs {2 * n + 2} terms per row to meet"
                f" tail_tol = {tail_tol!r}, past the cap of {HARD_CAP}"
            )
        j = np.arange(-1.0, 2 * n + 1)
        self._powers = np.power(r, np.maximum(j, 0.0))
        self._powers[0] = 0.0  # the j = -1 slot is filled per point
        self._signs = np.tile(1.0 - 2.0 * (j % 2), (2, 1))
        odd, even = self._powers[2::2], self._powers[3::2]
        self._log_constant = 2.0 * (math.fsum(np.log1p(-even)) - math.fsum(np.log1p(odd)))

    def _terms(self, rho: float) -> tuple:
        """|u|, u and 1 - u of every term at |z| = rho, and y = r/rho."""
        r = self.r
        y = r / rho
        e = np.multiply.outer((rho * rho, y * y), self._powers)
        e[0, 0], e[1, 0] = (rho / y, 0.0) if y > rho else (0.0, y / rho)
        u = e * self._signs
        d = 1.0 - u
        d[0, 1] = (1.0 - rho) * (1.0 + rho)
        d[1, 1] = ((rho - r) / rho) * ((rho + r) / rho)
        return e, u, d, y

    def _log_density(self, d: np.ndarray, y: float, rho: float) -> float:
        """K itself, from the 1 - u of every term."""
        k = self._log_constant - float(np.add.reduce(self._signs * np.log(d), None))
        return k + math.log(y / rho) if y > rho else k

    def jet(self, rho: float, orders: tuple) -> list:
        e, u, d, y = self._terms(rho)
        below = y > rho
        p = e / d
        out = []
        for order in orders:
            if order == 0:
                out.append(self._log_density(d, y, rho))
            elif order == 1:
                side = np.add.reduce(p, 1)
                out.append(float(side[0] - side[1]) - (1.0 if below else 0.0))
            elif order == 2:
                out.append(float(np.add.reduce(p / d, None)))
            elif order == 3:
                w = p / (d * d)
                out.append(2.0 * float(np.add.reduce(u[0] * w[0]) - np.add.reduce(w[1])))
            else:
                out.append(float(np.add.reduce(p * (1.0 + u * (4.0 + u)) / (d * d * d), None)))
        return out

    def szego(self, rho: float) -> tuple:
        """K'' and the Szego curvature kappa_s = -2 (K'' K'''' - K'''^2) / K''^3.

        Per term, K'', K''' and K'''' are a = |u|/(1-u)^2, +-a(1+u)/(1-u)
        and a(1+4u+u^2)/(1-u)^2, so the numerator is the double sum of
        a_i b_j - c_i c_j.  For tiny r its leading parts cancel: the plain
        products give -0.0 at r = 1e-100.  So the pairs among the first
        LEAD_TERMS terms of each row (j = -1 and j = 0) are taken in closed
        form: one term alone gives 2u^3/(1-u)^6, and two terms give
        2|uw| m / ((1-u)(1-w))^4, where m = u + w + 2(u-w)^2 - 4uw + uw(u+w)
        within a row and 2 + u + w - 8uw + uw(u+w) + 2u^2w^2 across the rows.
        The rest is r times smaller and is summed from products of the
        plain sums.  Every |u| is divided by the power of two just above
        the largest, so K''^3 (1e-360 at r = 1e-300) never underflows;
        |kappa_s| is at most about r^(-1/2), which is representable.
        """
        g, _, _, ul, dl, el, (a0, a1, b0, b1, c0, c1), pairs = self._parts(rho)
        alone = float((el * el * ul / dl**6).sum())
        numerator = math.fsum(
            (2.0 * pairs, 2.0 * alone, a0 * b1, a1 * b0, -2.0 * c0 * c1, a1 * b1, -c1 * c1)
        )
        k2 = a0 + a1
        return g * k2, -2.0 * numerator / (g * k2**3)

    def hankel(self, rho: float) -> tuple:
        """K, K'' and D = 2 K''^3 + K'' K'''' - K'''^2.

        D is the 3x3 Hankel determinant det(G^(i+l))_{i,l<=2} of G = e^K,
        over e^(3K), and 4 - kappa_s = 2 D / K''^3, so kappa_s <= 4 is
        D >= 0.  Taken from kappa_s, D would cancel where kappa_s nears 4,
        so it is summed like the Szego numerator, a_i, b_i, c_i as there.
        One term alone adds 4u^3/(1-u)^6 for u > 0 and exactly 0 for u < 0,
        where e^K of its factor is a sum of two exponentials.  A pair of
        lead terms adds its part of the numerator and 6 a_i a_j (a_i + a_j),
        a triple adds 12 a_i a_j a_k, and these cubic parts are all
        positive: with e1, e2, e3 the elementary symmetric sums of the lead
        a_i they total 6 (e1 e2 - e3).  The rest is summed from products of
        the plain sums.  In units of the g of szego, D / g^2 is the
        quadratic part plus g times the cubic part.
        """
        g, y, d, ul, dl, el, (a0, a1, b0, b1, c0, c1), pairs = self._parts(rho)
        al = (el / (dl * dl)).tolist()
        e2 = math.fsum(map(math.prod, combinations(al, 2)))
        e3 = math.fsum(map(math.prod, combinations(al, 3)))
        singles = math.fsum(4.0 * x**3 for x, u in zip(al, ul.tolist()) if u > 0.0)
        quadratic = math.fsum(
            (2.0 * pairs, a0 * b1, a1 * b0, -2.0 * c0 * c1, a1 * b1, -c1 * c1)
        )
        cubic = math.fsum(
            (singles, 6.0 * (a0 * e2 - e3), 6.0 * a0 * a0 * a1, 6.0 * a0 * a1 * a1, 2.0 * a1**3)
        )
        return self._log_density(d, y, rho), g * (a0 + a1), (quadratic + g * cubic) * g * g

    def _parts(self, rho: float) -> tuple:
        """What szego and hankel share, with every |u| divided by g, the power
        of two just above the largest: g, y and 1 - u of every term; u, 1 - u
        and |u| of the lead terms; the lead and rest sums of a, b and c; and
        the closed-form lead pairs of the Szego numerator."""
        e, u, d, y = self._terms(rho)
        g = math.ldexp(1.0, math.frexp(float(e.max()))[1])
        e = e / g
        a = e / (d * d)
        c = a * (1.0 + u) / d
        c[1] = -c[1]
        b = a * (1.0 + u * (4.0 + u)) / (d * d)
        lead, rest = np.s_[:, :LEAD_TERMS], np.s_[:, LEAD_TERMS:]
        sums = tuple(float(x[part].sum()) for x in (a, b, c) for part in (lead, rest))
        ul, dl, el = u[lead].ravel(), d[lead].ravel(), e[lead].ravel()
        uw, both = np.multiply.outer(ul, ul), np.add.outer(ul, ul)
        row = np.repeat((0, 1), LEAD_TERMS)
        m = uw * both + np.where(
            np.equal.outer(row, row),
            both + 2.0 * np.subtract.outer(ul, ul) ** 2 - 4.0 * uw,
            2.0 + both - 8.0 * uw + 2.0 * uw * uw,
        )
        w = el / dl**4
        pairs = float(np.triu(np.multiply.outer(w, w) * m, 1).sum())
        return g, y, d, ul, dl, el, sums, pairs


def moment_sums(a: GeneralAnnulus, j_max: int, tr: Truncation = Truncation()) -> MomentSums:
    """s_j = sum over all integers n of n^j / alpha_n, j = 0..j_max.

    The annulus must contain the unit circle, which is what makes the
    two geometric tails decay.
    """
    if not isinstance(j_max, int) or not (0 <= j_max <= 8):
        raise DomainError(f"j_max must be an integer in [0, 8], got {j_max!r}")
    if not a.contains_one:
        raise DomainError(f"moment sums require r_in < 1 < r_out, got ({a.r_in}, {a.r_out})")
    weights = [(0.0,) * j + (1.0,) for j in range(j_max + 1)]
    what = f"moment sums on the annulus ({a.r_in!r}, {a.r_out!r})"
    values, counts, tails = zip(*_series(a, 0.0, weights, tr, what))
    return MomentSums(values, a, max(counts), max(tails))


def szego_kernel(r: float, z: complex, w: complex, tr: Truncation = Truncation()) -> complex:
    """Boundary reproducing kernel S(z, w) of the annulus {r < |.| < 1}."""
    r = check_r(r)
    z = check_point(r, z)
    w = check_point(r, w, "w")
    t = z * w.conjugate()
    where = f"|z| = {abs(z)!r}, |w| = {abs(w)!r}"
    zw = abs(z) * abs(w)
    # |z| |w| underflows for |z| = |w| = 1e-160, a point of A_r at r = 1e-300
    sigma = math.sqrt(zw) if zw >= sys.float_info.min else math.sqrt(abs(z)) * math.sqrt(abs(w))
    frame, log_unscale = _frame(r, math.log(sigma) / math.log(r), where)
    what = f"kernel series at {where} with r = {r!r}"
    ((value, _, _),) = _series(frame, math.atan2(t.imag, t.real), [(1.0,)], tr, what)
    kernel = complex(value) * math.exp(log_unscale)
    if not (math.isfinite(kernel.real) and math.isfinite(kernel.imag)):
        raise RangeError(f"the kernel at {where} with r = {r!r} is past double range")
    return kernel


def szego_kernel_jet(
    r: float, z: complex, order: int, tr: Truncation = Truncation()
) -> WirtingerJet:
    """Jet of the kernel diagonal S(z, z), mixed derivatives to order.

    d^j dbar^k of (z zbar)^n is (n)_j (n)_k z^(n-j) zbar^(n-k), so entry
    (j, k) is e^(i(k-j) arg z) |z|^(-j-k) times a real weighted sum,
    symmetric in (j, k).
    """
    r = check_r(r)
    if not isinstance(order, int) or not (0 <= order <= MAX_ORDER):
        raise DomainError(f"order must be an integer in [0, {MAX_ORDER}], got {order!r}")
    z = check_point(r, z)
    rho = abs(z)
    theta = math.atan2(z.imag, z.real)
    frame, log_unscale = _frame(r, math.log(rho) / math.log(r), f"|z| = {rho!r}")
    pairs = [(j, k) for j in range(order + 1) for k in range(j, order + 1)]
    # (n)_j (n)_k has the roots 0..j-1 and 0..k-1
    weights = [
        tuple(np.polynomial.polynomial.polyfromroots([*range(j), *range(k)]).tolist())
        for j, k in pairs
    ]
    what = f"kernel jet series at |z| = {rho!r} with r = {r!r}"
    sums = _series(frame, 0.0, weights, tr, what)
    unscale = math.exp(log_unscale)
    table = np.zeros((order + 1, order + 1), dtype=complex)
    for (j, k), (value, _, _) in zip(pairs, sums):
        v = value * unscale * rho ** -(j + k)
        for a, b in ((j, k), (k, j)):
            table[a, b] = v * complex(math.cos((b - a) * theta), math.sin((b - a) * theta))
    return WirtingerJet(order, table)


def j_functions_at_one(a: GeneralAnnulus, tr: Truncation = Truncation()) -> JOnAr:
    """Maximal domain functions J0, J1, J2 at the point 1.

    J0 is the plain moment sum; J1 and J2 come from projecting away the
    lower-order vanishing conditions, which reduces to the closed 2x2
    solve for (gamma, delta).
    """
    s0, s1, s2, s3, s4 = moment_sums(a, 4, tr).s
    if s0 <= 0:
        raise InternalConsistencyError(
            f"s0 must be positive, got {s0} on the annulus ({a.r_in!r}, {a.r_out!r})"
        )
    gap = s0 * s2 - s1 * s1
    if gap <= 0:
        # The gap scales like (r_in / r_out) * s0^2; once that ratio is
        # below double-precision resolution the moment matrix rounds to
        # rank one and no amount of summation care recovers it.
        if a.r_in / a.r_out < 1e-13:
            raise RangeError(
                "Cauchy-Schwarz gap underflows double precision for the"
                f" annulus ({a.r_in!r}, {a.r_out!r})"
            )
        raise InternalConsistencyError(
            f"Cauchy-Schwarz gap s0*s2 - s1^2 = {gap} is not positive; summation is broken"
        )
    det = s1 * s1 - s0 * s2  # = -gap, nonzero by the check above
    gamma = (s1 * s2 - s0 * s3) / det
    delta = (s1 * s3 - s2 * s2) / det
    j0 = s0
    j1 = gap / s0
    j2 = s4 - gamma * s3 - delta * s2
    if j1 <= 0 or j2 <= 0:
        raise InternalConsistencyError(
            f"J values must be positive, got J1={j1}, J2={j2}"
            f" on the annulus ({a.r_in!r}, {a.r_out!r})"
        )
    return JOnAr(j0, j1, j2)


def j_functions_on_A_r(r: float, lam: float, tr: Truncation = Truncation()) -> JOnAr:
    """J0, J1, J2 for the annulus {r < |.| < 1} at the point r^lambda.

    Uses the scaling map w = z/r^lambda, which sends A_r to the annulus
    (r^(1-lambda), r^(-lambda)) containing 1 (see _frame); a j-th
    derivative picks up r^(-(2j+1) lambda) on the way back.
    """
    check_r(r)
    check_lambda(lam)
    frame, log_unscale = _frame(r, lam, f"|z| = r^lambda = {r ** lam!r}")
    out = []
    for j, val in enumerate(j_functions_at_one(frame, tr)):
        log_scale = (2 * j + 1) * log_unscale
        if log_scale + math.log(val) > 709.0:
            raise RangeError(
                f"J{j} rescaling overflow at r={r!r}, lambda={lam!r}"
                f" (exponent {log_scale + math.log(val):.1f})"
            )
        out.append(val * math.exp(log_scale))
    return JOnAr(*out)
