"""Jet arithmetic against symbolic and high-precision FD oracles."""

import cmath
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from annulus_metrics.errors import ShapeError, SingularJetError
from annulus_metrics.jets import (
    MAX_ORDER,
    WirtingerJet,
    jet_add,
    jet_log,
    jet_mul,
    jet_recip,
    jet_sqrt,
    laplacian_from_jet,
)

from conftest import jet_table_fd

Z, ZB = sp.symbols("z zbar")


def sympy_jet(expr, z0: complex, order: int) -> WirtingerJet:
    """Exact mixed-derivative table of expr(z, zbar), via sympy.

    Wirtinger differentiation treats z and zbar as independent symbols.
    Each entry differentiates its neighbour once instead of expr afresh:
    d[j][k+1] = d/dzbar d[j][k] and d[j+1][0] = d/dz d[j][0].
    """
    table = np.zeros((order + 1, order + 1), dtype=complex)
    point = {Z: z0, ZB: complex(z0).conjugate()}
    row_start = expr
    for j in range(order + 1):
        if j:
            row_start = sp.diff(row_start, Z)
        d = row_start
        for k in range(order + 1):
            if k:
                d = sp.diff(d, ZB)
            table[j, k] = complex(d.subs(point))
    return WirtingerJet(order, table)


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _exact_taylor(poly, z0: complex, order: int) -> list:
    """Taylor coefficients d^j dzbar^k poly / (j! k!) at z0, exactly.

    Each is a Gaussian rational, a pair (real, imaginary) of Fractions;
    z0 is taken as the exact binary fraction of its double parts.
    """
    terms = sp.Poly(poly, Z, ZB).terms()
    zeta = (Fraction(z0.real), Fraction(z0.imag))
    powers = [(Fraction(1), Fraction(0))]
    while len(powers) <= max(max(degrees) for degrees, _ in terms):
        powers.append(_gmul(powers[-1], zeta))

    def conj(w):
        return (w[0], -w[1])

    out = [[(Fraction(0), Fraction(0))] * (order + 1) for _ in range(order + 1)]
    for (a, b), c in terms:
        re, im = (Fraction(int(x.p), int(x.q)) for x in c.as_real_imag())
        for j in range(min(a, order) + 1):
            for k in range(min(b, order) + 1):
                t = _gmul((re, im), _gmul(powers[a - j], conj(powers[b - k])))
                m = comb(a, j) * comb(b, k)
                out[j][k] = (out[j][k][0] + m * t[0], out[j][k][1] + m * t[1])
    return out


def exact_quotient_jet(p, q, z0: complex, order: int) -> WirtingerJet:
    """Mixed-derivative table of p/q at z0 by exact power-series division.

    With P, Q, F the Taylor coefficients of p, q and f = p/q, P = Q F gives
    F_jk = (P_jk - sum of Q_ab F_(j-a)(k-b) over (a, b) != (0, 0)) / Q_00,
    all in Gaussian rationals; entry (j, k) of the table is j! k! F_jk.
    """
    P, Q = _exact_taylor(p, z0, order), _exact_taylor(q, z0, order)
    q0 = Q[0][0]
    norm = q0[0] ** 2 + q0[1] ** 2
    inv = (q0[0] / norm, -q0[1] / norm)
    F = [[None] * (order + 1) for _ in range(order + 1)]
    for j in range(order + 1):
        for k in range(order + 1):
            acc = P[j][k]
            for a in range(j + 1):
                for b in range(k + 1):
                    if a or b:
                        t = _gmul(Q[a][b], F[j - a][k - b])
                        acc = (acc[0] - t[0], acc[1] - t[1])
            F[j][k] = _gmul(acc, inv)
    table = np.array(
        [[factorial(j) * factorial(k) * complex(*F[j][k]) for k in range(order + 1)]
         for j in range(order + 1)]
    )
    return WirtingerJet(order, table)


def _random_poly(rng, deg: int = 2):
    expr = sp.Integer(0)
    for a in range(deg + 1):
        for b in range(deg + 1):
            c = complex(rng.normal(), rng.normal())
            expr += sp.Rational(int(1000 * c.real), 1000) * Z**a * ZB**b
            expr += sp.I * sp.Rational(int(1000 * c.imag), 1000) * Z**a * ZB**b
    return expr


def _random_rational(rng):
    p = _random_poly(rng)
    q = _random_poly(rng) + 6  # keeps the denominator away from zero near the base points
    return p, q


# ---------------------------------------------------------------------------
# hand-checked examples


def test_add_identity_and_linearity():
    rng = np.random.default_rng(7)
    a = WirtingerJet(2, rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    zero = WirtingerJet.constant(0.0, 2)
    assert np.allclose(jet_add(a, zero).coeffs, a.coeffs)
    b = WirtingerJet(2, rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    assert jet_add(a, b).value == pytest.approx(a.value + b.value)


def test_add_abs_square_plus_one():
    # |z|^2 at base point 1 plus the constant 1: value 2, mixed derivative 1.
    abs_sq = sympy_jet(Z * ZB, 1.0, 1)
    one = WirtingerJet.constant(1.0, 1)
    total = jet_add(abs_sq, one)
    assert total.at(0, 0) == pytest.approx(2.0)
    assert total.at(1, 1) == pytest.approx(1.0)


def test_mul_unit_identity():
    rng = np.random.default_rng(8)
    a = WirtingerJet(3, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    unit = WirtingerJet.constant(1.0, 3)
    assert np.allclose(jet_mul(a, unit).coeffs, a.coeffs)


def test_mul_z_times_zbar_at_two():
    z0 = 2.0
    jz = sympy_jet(Z, z0, 1)
    jzb = sympy_jet(ZB, z0, 1)
    prod = jet_mul(jz, jzb)
    assert prod.at(0, 0) == pytest.approx(4.0)
    assert prod.at(1, 0) == pytest.approx(2.0)
    assert prod.at(0, 1) == pytest.approx(2.0)
    assert prod.at(1, 1) == pytest.approx(1.0)


def test_log_of_unit_jet_is_zero():
    unit = WirtingerJet.constant(1.0, 2)
    assert np.allclose(jet_log(unit).coeffs, 0.0)


def test_sqrt_of_constant_four():
    four = WirtingerJet.constant(4.0, 2)
    s = jet_sqrt(four)
    assert s.at(0, 0) == pytest.approx(2.0)
    assert np.allclose(s.coeffs[1:, :], 0.0)
    assert np.allclose(s.coeffs[:, 1:], 0.0)


def test_log_abs_square_is_harmonic_off_origin():
    j = sympy_jet(Z * ZB, 1.0, 2)
    g = jet_log(j)
    assert abs(g.at(1, 1)) < 1e-14


def test_laplacian_abs_square():
    j = sympy_jet(Z * ZB, 0.3 + 0.1j, 1)
    assert laplacian_from_jet(j) == pytest.approx(4.0)


def test_laplacian_disc_metric_potential():
    # log(1/(1-|z|^2)) at 0 has Laplacian 4, the disc curvature -4 with m(0)=1.
    expr = sp.log(1 / (1 - Z * ZB))
    j = sympy_jet(expr, 0.0, 1)
    assert laplacian_from_jet(j) == pytest.approx(4.0)


def test_laplacian_harmonic_function():
    expr = Z**2 + ZB**2 + 3 * Z - 1  # harmonic: no mixed term
    j = sympy_jet(expr, 0.7 + 0.2j, 2)
    assert laplacian_from_jet(j) == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# error contracts


def test_order_mismatch_is_shape_error():
    a = WirtingerJet.constant(1.0, 1)
    b = WirtingerJet.constant(1.0, 2)
    with pytest.raises(ShapeError):
        jet_add(a, b)
    with pytest.raises(ShapeError):
        jet_mul(a, b)


def test_order_cap():
    with pytest.raises(ShapeError):
        WirtingerJet.constant(1.0, MAX_ORDER + 1)


def test_laplacian_needs_order_one():
    with pytest.raises(ShapeError):
        laplacian_from_jet(WirtingerJet.constant(1.0, 0))


def test_singular_jet_errors():
    zero = WirtingerJet.constant(0.0, 1)
    for op in (jet_log, jet_sqrt, jet_recip):
        with pytest.raises(SingularJetError):
            op(zero)


# ---------------------------------------------------------------------------
# oracle equivalence: 20 random rational functions of (z, zbar)


@pytest.mark.parametrize("seed", range(20))
def test_rational_function_jets_match_fd(seed):
    """Build f = p/q through the jet algebra and check every entry.

    The comparison target is a central finite difference with step 1e-4
    run in 50-digit arithmetic, so the stencil truncation error (~1e-8
    relative) is what is actually measured, well inside the 1e-5 budget.
    """
    rng = np.random.default_rng(1000 + seed)
    p, q = _random_rational(rng)
    z0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    order = 3

    f_alg = jet_mul(sympy_jet(p, z0, order), jet_recip(sympy_jet(q, z0, order)))

    f_expr = p / q
    f_sym = sp.lambdify((Z, ZB), f_expr, "mpmath")
    fd = jet_table_fd(lambda w: f_sym(w, w.conjugate()), z0, order, h=1e-4, dps=50)

    scale = np.abs(fd) + 1.0
    assert np.max(np.abs(f_alg.coeffs - fd) / scale) < 1e-5

    # And the exact table agrees with the algebraic route tightly.
    f_exact = exact_quotient_jet(p, q, z0, order)
    scale2 = np.abs(f_exact.coeffs) + 1.0
    assert np.max(np.abs(f_alg.coeffs - f_exact.coeffs) / scale2) < 1e-11


@pytest.mark.parametrize("seed", range(6))
def test_log_and_sqrt_jets_match_fd(seed):
    rng = np.random.default_rng(2000 + seed)
    _, q = _random_rational(rng)
    z0 = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
    order = 3
    qj = sympy_jet(q, z0, order)

    for op, expr in ((jet_log, sp.log(q)), (jet_sqrt, sp.sqrt(q))):
        got = op(qj)
        f_sym = sp.lambdify((Z, ZB), expr, "mpmath")
        fd = jet_table_fd(lambda w: f_sym(w, w.conjugate()), z0, order, h=1e-4, dps=50)
        scale = np.abs(fd) + 1.0
        assert np.max(np.abs(got.coeffs - fd) / scale) < 1e-5


def test_mul_matches_fd_of_pointwise_product():
    rng = np.random.default_rng(42)
    p1, _ = _random_rational(rng)
    p2, _ = _random_rational(rng)
    z0 = 0.4 - 0.3j
    order = 2
    prod = jet_mul(sympy_jet(p1, z0, order), sympy_jet(p2, z0, order))
    f_sym = sp.lambdify((Z, ZB), p1 * p2, "mpmath")
    fd = jet_table_fd(lambda w: f_sym(w, w.conjugate()), z0, order, h=1e-4, dps=50)
    assert np.max(np.abs(prod.coeffs - fd) / (np.abs(fd) + 1.0)) < 1e-5


# ---------------------------------------------------------------------------
# reality symmetry and algebraic round trips (property-based)


def hermitian_jets(order=2, positive=False):
    n = order + 1

    @st.composite
    def build(draw):
        elems = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
        re = draw(st.lists(st.lists(elems, min_size=n, max_size=n), min_size=n, max_size=n))
        im = draw(st.lists(st.lists(elems, min_size=n, max_size=n), min_size=n, max_size=n))
        m = np.array(re) + 1j * np.array(im)
        table = 0.5 * (m + m.conj().T)  # Hermitian: represents a real-valued function
        base = abs(table[0, 0]) + draw(st.floats(min_value=0.5, max_value=2.0))
        table[0, 0] = base if positive else table[0, 0] + base + 0.5
        return WirtingerJet(order, table)

    return build()


@settings(max_examples=40, deadline=None)
@given(hermitian_jets(positive=True), hermitian_jets(positive=True))
def test_reality_symmetry_preserved(a, b):
    assert jet_add(a, b).is_reality_symmetric()
    assert jet_mul(a, b).is_reality_symmetric()
    assert jet_log(a).is_reality_symmetric()
    assert jet_sqrt(a).is_reality_symmetric()
    assert jet_recip(a).is_reality_symmetric()


@settings(max_examples=40, deadline=None)
@given(hermitian_jets(positive=True))
def test_algebraic_round_trips(a):
    unit = WirtingerJet.constant(1.0, a.order)
    prod = jet_mul(a, jet_recip(a))
    assert np.allclose(prod.coeffs, unit.coeffs, atol=1e-9)

    sq = jet_sqrt(a)
    back = jet_mul(sq, sq)
    assert np.allclose(back.coeffs, a.coeffs, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(hermitian_jets(positive=True), hermitian_jets(positive=True))
def test_log_turns_products_into_sums(a, b):
    lhs = jet_log(jet_mul(a, b))
    rhs = jet_add(jet_log(a), jet_log(b))
    # Both base values are positive reals, so even the branch agrees.
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-8)


def test_truncation_and_value_accessors():
    rng = np.random.default_rng(3)
    a = WirtingerJet(3, rng.normal(size=(4, 4)) + 0j)
    t = a.truncated(1)
    assert t.order == 1
    assert t.at(1, 1) == a.at(1, 1)
    assert cmath.isclose(t.value, a.value)
    with pytest.raises(ShapeError):
        t.truncated(2)
