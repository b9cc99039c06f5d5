"""Jet log and sqrt against symbolic and high-precision FD oracles."""

from math import comb

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from annulus_metrics.errors import ShapeError, SingularJetError
from annulus_metrics.jets import (
    MAX_ORDER,
    WirtingerJet,
    jet_log,
    jet_sqrt,
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


def constant_jet(value: complex, order: int) -> WirtingerJet:
    """Jet of the constant function value."""
    table = np.zeros((order + 1, order + 1), dtype=complex)
    table[0, 0] = value
    return WirtingerJet(order, table)


def leibniz_product(a: WirtingerJet, b: WirtingerJet) -> WirtingerJet:
    """Jet of the pointwise product: (fg)^(j,k) = sum C(j,p) C(k,q) f^(p,q) g^(j-p,k-q)."""
    n = a.order + 1
    table = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            table[j, k] = sum(
                comb(j, p) * comb(k, q) * a.coeffs[p, q] * b.coeffs[j - p, k - q]
                for p in range(j + 1)
                for q in range(k + 1)
            )
    return WirtingerJet(a.order, table)


def is_hermitian(jet: WirtingerJet, tol: float = 1e-10) -> bool:
    """The table of a real-valued function: coeffs[j, k] == conj(coeffs[k, j])."""
    scale = float(np.max(np.abs(jet.coeffs))) + 1.0
    return bool(np.max(np.abs(jet.coeffs - jet.coeffs.conj().T)) <= tol * scale)


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


def test_log_of_unit_jet_is_zero():
    unit = constant_jet(1.0, 2)
    assert np.allclose(jet_log(unit).coeffs, 0.0)


def test_sqrt_of_constant_four():
    four = constant_jet(4.0, 2)
    s = jet_sqrt(four)
    assert s.at(0, 0) == pytest.approx(2.0)
    assert np.allclose(s.coeffs[1:, :], 0.0)
    assert np.allclose(s.coeffs[:, 1:], 0.0)


def test_log_abs_square_is_harmonic_off_origin():
    j = sympy_jet(Z * ZB, 1.0, 2)
    g = jet_log(j)
    assert abs(g.at(1, 1)) < 1e-14


# ---------------------------------------------------------------------------
# error contracts


def test_order_cap():
    with pytest.raises(ShapeError):
        constant_jet(1.0, MAX_ORDER + 1)


def test_singular_jet_errors():
    zero = constant_jet(0.0, 1)
    for op in (jet_log, jet_sqrt):
        with pytest.raises(SingularJetError):
            op(zero)


# ---------------------------------------------------------------------------
# oracle equivalence: random rational functions of (z, zbar)


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
@given(hermitian_jets(positive=True))
def test_reality_symmetry_preserved(a):
    assert is_hermitian(jet_log(a))
    assert is_hermitian(jet_sqrt(a))


@settings(max_examples=40, deadline=None)
@given(hermitian_jets(positive=True))
def test_algebraic_round_trips(a):
    sq = jet_sqrt(a)
    back = leibniz_product(sq, sq)
    assert np.allclose(back.coeffs, a.coeffs, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(hermitian_jets(positive=True), hermitian_jets(positive=True))
def test_log_turns_products_into_sums(a, b):
    lhs = jet_log(leibniz_product(a, b))
    rhs = jet_log(a).coeffs + jet_log(b).coeffs
    # Both base values are positive reals, so even the branch agrees.
    assert np.allclose(lhs.coeffs, rhs, atol=1e-8)
