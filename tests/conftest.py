"""Shared oracle helpers for the test suite.

Everything here is deliberately independent of the package internals:
finite differences run in 50-digit arithmetic, symbolic derivatives come
from sympy, and lattice sums are summed directly.  Implementation code
is only ever compared against these, never used to build them.
"""

from __future__ import annotations

import mpmath
import numpy as np


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
