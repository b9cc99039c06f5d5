"""Truncated tables of mixed Wirtinger derivatives.

A jet of order N stores the values of d^j dzbar^k f at one base point
for 0 <= j, k <= N.  These tables carry the derivative data needed by
curvature formulas.  The Laplacian convention is Delta = 4 d dzbar, so
the Poincare-type metrics of the unit disc come out with Gaussian
curvature -4.

Orders above 3 are rejected: capping the order keeps the recursive
eliminations (log, sqrt) fully enumerable.  Order 3 is what
hardy.szego_kernel_jet serves, to the tests that check the curvatures
against the Laurent jets; metrics.higher_curvature takes no jets.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ShapeError, SingularJetError

MAX_ORDER = 3


@dataclass(frozen=True)
class WirtingerJet:
    """Mixed-derivative table of one function at one base point.

    coeffs[j, k] holds d^j dzbar^k f.  If the represented function is
    real-valued the table is Hermitian: coeffs[j, k] == conj(coeffs[k, j]).
    """

    order: int
    coeffs: np.ndarray

    def __post_init__(self):
        if not isinstance(self.order, int) or self.order < 0:
            raise ShapeError(f"jet order must be a nonnegative integer, got {self.order!r}")
        if self.order > MAX_ORDER:
            raise ShapeError(f"jet order {self.order} exceeds the supported maximum {MAX_ORDER}")
        table = np.asarray(self.coeffs, dtype=complex)
        if table.shape != (self.order + 1, self.order + 1):
            raise ShapeError(
                f"coefficient table has shape {table.shape}, expected "
                f"{(self.order + 1, self.order + 1)}"
            )
        table = table.copy()
        table.setflags(write=False)
        object.__setattr__(self, "coeffs", table)

    @property
    def value(self) -> complex:
        """The function value at the base point (the (0,0) entry)."""
        return complex(self.coeffs[0, 0])

    def at(self, j: int, k: int) -> complex:
        return complex(self.coeffs[j, k])


def _graded_indices(order: int):
    """All (j,k) with j+k >= 1 in increasing total order."""
    pairs = [(j, k) for j in range(order + 1) for k in range(order + 1) if j + k >= 1]
    pairs.sort(key=lambda jk: (jk[0] + jk[1], jk[0]))
    return pairs


def jet_log(a: WirtingerJet) -> WirtingerJet:
    """Jet of log f (principal branch at the base value).

    Derivatives satisfy f * d(log f) = df; differentiating that relation
    (j-1, k) more times expresses each entry through already known ones:

        sum_{p<=j-1, q<=k} C(j-1,p) C(k,q) f^{(p,q)} g^{(j-p,k-q)} = f^{(j,k)}

    and analogously in the zbar direction for the j = 0 row.
    """
    f = a.coeffs
    if f[0, 0] == 0:
        raise SingularJetError("jet_log needs a nonzero value at the base point")
    n = a.order + 1
    g = np.zeros((n, n), dtype=complex)
    g[0, 0] = cmath.log(f[0, 0])
    for j, k in _graded_indices(a.order):
        if j >= 1:
            acc = 0.0 + 0.0j
            for p in range(j):
                cjp = comb(j - 1, p)
                for q in range(k + 1):
                    if p == 0 and q == 0:
                        continue
                    acc += cjp * comb(k, q) * f[p, q] * g[j - p, k - q]
            g[j, k] = (f[j, k] - acc) / f[0, 0]
        else:
            acc = 0.0 + 0.0j
            for q in range(k):
                if q == 0:
                    continue
                acc += comb(k - 1, q) * f[0, q] * g[0, k - q]
            g[0, k] = (f[0, k] - acc) / f[0, 0]
    return WirtingerJet(a.order, g)


def jet_sqrt(a: WirtingerJet) -> WirtingerJet:
    """Jet of sqrt f (principal branch), from g * g = f."""
    f = a.coeffs
    if f[0, 0] == 0:
        raise SingularJetError("jet_sqrt needs a nonzero value at the base point")
    n = a.order + 1
    g = np.zeros((n, n), dtype=complex)
    g[0, 0] = cmath.sqrt(f[0, 0])
    for j, k in _graded_indices(a.order):
        acc = 0.0 + 0.0j
        for p in range(j + 1):
            cjp = comb(j, p)
            for q in range(k + 1):
                if (p == 0 and q == 0) or (p == j and q == k):
                    continue
                acc += cjp * comb(k, q) * g[p, q] * g[j - p, k - q]
        g[j, k] = (f[j, k] - acc) / (2.0 * g[0, 0])
    return WirtingerJet(a.order, g)
