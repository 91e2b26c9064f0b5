"""The linearized polynomial ring F_(q^m)[x; sigma].

A linearized polynomial sum_i f_i x^(q^i) is stored as the coefficient tuple
``(f_0, f_1, ...)`` with index i holding the coefficient of the q-power
monomial x^[i] = x^(q^i) and no trailing zeros.  Ring multiplication is
composition of maps, computed by the non-commutative convolution whose i-th
factor twists the second operand by the i-th Frobenius power.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .fieldtower import Element, FieldTower, _nullspace


class LinearizedPoly:
    """A q-polynomial over a fixed tower; immutable value semantics."""

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: FieldTower, coeffs: Iterable[Element]):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.tower = tower
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, tower: FieldTower) -> "LinearizedPoly":
        return cls(tower, ())

    @classmethod
    def x(cls, tower: FieldTower) -> "LinearizedPoly":
        """The identity map x^[0], the unit of composition."""
        return cls(tower, (1,))

    @classmethod
    def monomial(cls, tower: FieldTower, coeff: Element, i: int) -> "LinearizedPoly":
        """coeff * x^[i]."""
        if coeff == 0:
            return cls.zero(tower)
        return cls(tower, (0,) * i + (coeff,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def deg_q(self) -> int:
        """q-degree: max index with non-zero coefficient; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Element:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        return (
            isinstance(other, LinearizedPoly)
            and self.tower is other.tower
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.tower), self.coeffs))

    def __add__(self, other: "LinearizedPoly") -> "LinearizedPoly":
        t = self.tower
        n = max(len(self.coeffs), len(other.coeffs))
        return LinearizedPoly(t, (t.add(self.coeff(i), other.coeff(i)) for i in range(n)))

    def __sub__(self, other: "LinearizedPoly") -> "LinearizedPoly":
        t = self.tower
        n = max(len(self.coeffs), len(other.coeffs))
        return LinearizedPoly(t, (t.sub(self.coeff(i), other.coeff(i)) for i in range(n)))

    def __mul__(self, other: "LinearizedPoly") -> "LinearizedPoly":
        """Skew product f o g: coefficient k is sum_i f_i * sigma^i(g_(k-i))."""
        if self.is_zero or other.is_zero:
            return LinearizedPoly.zero(self.tower)
        t = self.tower
        s, u = self.deg_q, other.deg_q
        out = [0] * (s + u + 1)
        for i, fi in enumerate(self.coeffs):
            if fi == 0:
                continue
            for j, gj in enumerate(other.coeffs):
                if gj == 0:
                    continue
                out[i + j] = t.add(out[i + j], t.mul(fi, t.frobenius(gj, i)))
        return LinearizedPoly(t, out)

    def evaluate(self, x: Element) -> Element:
        """f(x) = sum_i f_i * x^(q^i); F_q-linear in x."""
        t = self.tower
        acc = 0
        for i, fi in enumerate(self.coeffs):
            if fi:
                acc = t.add(acc, t.mul(fi, t.frobenius(x, i)))
        return acc

    def __call__(self, x: Element) -> Element:
        return self.evaluate(x)

    def as_fq_matrix(self) -> list[list[int]]:
        """m x m digit matrix over F_q of the induced map on coordinates."""
        t = self.tower
        cols = []
        for j in range(t.m):
            basis_elt = t.from_coords([1 if i == j else 0 for i in range(t.m)])
            cols.append(t.coords(self.evaluate(basis_elt)))
        return [[cols[j][i] for j in range(t.m)] for i in range(t.m)]

    def kernel_basis(self) -> list[Element]:
        """Echelonized F_q-basis of {x : f(x) = 0}; deterministic.

        Computed as the null space of the m x m matrix of the induced map,
        so it works whether or not the kernel splits over F_(q^m).
        """
        if self.is_zero:
            raise ValueError("kernel of the zero polynomial is the whole field")
        t = self.tower
        _, rows = t.fq_echelon(_nullspace(t._sf, self.as_fq_matrix(), t.m))
        return [t.from_coords(r) for r in rows]

    def right_divmod(self, d: "LinearizedPoly"):
        """f = quotient o d + remainder with deg_q(remainder) < deg_q(d)."""
        if d.is_zero:
            raise ZeroDivisionError("right division by the zero polynomial")
        t = self.tower
        rem = list(self.coeffs)
        dd = d.deg_q
        dlead = d.coeffs[-1]
        quot = [0] * max(0, len(rem) - dd)
        while len(rem) - 1 >= dd and rem:
            s = len(rem) - 1 - dd
            c = t.div(rem[-1], t.frobenius(dlead, s))
            quot[s] = c
            for j, gj in enumerate(d.coeffs):
                if gj:
                    rem[s + j] = t.sub(rem[s + j], t.mul(c, t.frobenius(gj, s)))
            while rem and rem[-1] == 0:
                rem.pop()
        return LinearizedPoly(t, quot), LinearizedPoly(t, rem)

    def __repr__(self):
        if self.is_zero:
            return "LinearizedPoly(0)"
        terms = [f"{c}*x^[{i}]" for i, c in enumerate(self.coeffs) if c]
        return "LinearizedPoly(" + " + ".join(terms) + ")"


def annihilator(tower: FieldTower, gens: Sequence[Element]) -> LinearizedPoly:
    """Monic linearized polynomial vanishing exactly on the F_q-span of `gens`.

    Built by composing the degree-one annihilators x^[1] - v^(q-1) x along an
    echelonized basis; q-degree equals dim of the span.  For the empty span
    this is the single factor x.
    """
    _, basis_rows = tower.fq_echelon([list(tower.coords(g)) for g in gens])
    ann = LinearizedPoly.x(tower)
    for row in basis_rows:
        b = tower.from_coords(row)
        v = ann.evaluate(b)
        step = LinearizedPoly(tower, (tower.neg(tower.pow_(v, tower.q - 1)), 1))
        ann = step * ann
    return ann


def annihilator_product(tower: FieldTower, gens: Sequence[Element]) -> LinearizedPoly:
    """Literal expansion of prod_(u in span)(x - u); oracle for `annihilator`.

    Multiplies out the ordinary polynomial over F_(q^m) and checks that only
    q-power coefficients survive before collecting them.
    """
    span = tower.fq_span(gens)
    poly = [1]  # ordinary little-endian coefficients, starts as the constant 1
    for u in span:
        # multiply by (x - u)
        nxt = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            if c:
                nxt[i + 1] = tower.add(nxt[i + 1], c)
                nxt[i] = tower.add(nxt[i], tower.mul(tower.neg(u), c))
        poly = nxt
    qpowers = {}
    i, qp = 0, 1
    while qp < len(poly):
        qpowers[qp] = i
        i += 1
        qp *= tower.q
    coeffs = [0] * len(qpowers)
    for d, c in enumerate(poly):
        if c == 0:
            continue
        if d not in qpowers:
            raise AssertionError(f"non-q-power degree {d} survived in subspace polynomial")
        coeffs[qpowers[d]] = c
    return LinearizedPoly(tower, coeffs)
