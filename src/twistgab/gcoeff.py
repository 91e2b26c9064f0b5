"""Coefficients controlling the zero maximal minors of twisted generator rows.

Everything here is driven by the subspace polynomial of a k-dimensional span
written high-to-low as sum_j c_j x^[k-j] (so c_0 = 1 and c_j = 0 for j > k),
the lower-triangular matrix A_t of Frobenius-twisted c's, its explicit inverse
E = (e_(i,j)), and the scalars

    g_h^(t) = - sum_(i=0)^(min(t,h)) e_(t,i) * c_(k-h+i)^[i]

that relate the modified Moore determinant to the plain one:
|M_k^(h,k+t)(alpha)| = g_h^(t) |M_k(alpha)| for an F_q-independent k-tuple
alpha.  These are the scalar forms of the batched g columns of
``mrdcheck.KSubsetTable``; the identity itself, checked by two determinants,
and g on a k-subset of evaluation points are test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConsistencyError, SpecInvariantError
from .fieldtower import Element, FieldTower
from .linpoly import LinearizedPoly, annihilator
from . import moore


@dataclass(frozen=True)
class AnnihilatorCoeffs:
    """The tuple (c_0, ..., c_k) of a monic subspace polynomial, high-to-low.

    Index j holds the coefficient of x^[k-j]; reads beyond k return 0, which is
    exactly the padding rule the g formulas rely on.
    """

    tower: FieldTower
    c: tuple[Element, ...]

    def __post_init__(self):
        if not self.c or self.c[0] != 1:
            raise SpecInvariantError("annihilator coefficients must be monic (c_0 = 1)")

    @property
    def k(self) -> int:
        return len(self.c) - 1

    def at(self, j: int) -> Element:
        return self.c[j] if 0 <= j <= self.k else 0

    @classmethod
    def from_linpoly(cls, poly: LinearizedPoly) -> "AnnihilatorCoeffs":
        k = poly.deg_q
        return cls(poly.tower, tuple(poly.coeff(k - j) for j in range(k + 1)))

    @classmethod
    def from_span(cls, tower: FieldTower, gens: Sequence[Element]) -> "AnnihilatorCoeffs":
        return cls.from_linpoly(annihilator(tower, gens))


def sigma_lower_triangular(coeffs: AnnihilatorCoeffs, t: int) -> np.ndarray:
    """A_t: entry (i, j) is c_(i-j)^[i] for i >= j, zero above the diagonal."""
    tw = coeffs.tower
    A = np.zeros((t + 1, t + 1), dtype=np.int64)
    for i in range(t + 1):
        for j in range(i + 1):
            A[i, j] = tw.frobenius(coeffs.at(i - j), i)
    return A


def triangular_inverse(coeffs: AnnihilatorCoeffs, t: int) -> np.ndarray:
    """Inverse E of A_t by the explicit recursion; verified against A_t E = I.

    e_(i,i) = 1 and e_(i,j) = - sum_(s=0)^(i-j-1) e_(j+s,j) c_(i-j-s)^[i].
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    tw = coeffs.tower
    E = np.zeros((t + 1, t + 1), dtype=np.int64)
    for i in range(t + 1):
        E[i, i] = 1
    for j in range(t + 1):
        for i in range(j + 1, t + 1):
            acc = 0
            for s in range(i - j):
                acc = tw.add(acc, tw.mul(int(E[j + s, j]), tw.frobenius(coeffs.at(i - j - s), i)))
            E[i, j] = tw.neg(acc)
    A = sigma_lower_triangular(coeffs, t)
    prod = moore.matmul(tw, A, E)
    if not (prod == np.eye(t + 1, dtype=np.int64)).all():
        raise ConsistencyError("triangular inverse recursion failed A_t * E = I")
    return E


def g_coefficient(coeffs: AnnihilatorCoeffs, h: int, t: int) -> Element:
    """The scalar g_h^(t) attached to (h, t) for the given subspace coefficients."""
    k = coeffs.k
    if not 0 <= h <= k - 1:
        raise ValueError(f"h = {h} out of range [0, {k - 1}]")
    if t < 0:
        raise ValueError("t must be >= 0")
    tw = coeffs.tower
    E = triangular_inverse(coeffs, t)
    acc = 0
    for i in range(min(t, h) + 1):
        acc = tw.add(acc, tw.mul(int(E[t, i]), tw.frobenius(coeffs.at(k - h + i), i)))
    return tw.neg(acc)
