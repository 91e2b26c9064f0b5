"""Exact arithmetic in the finite-field tower F_p <= F_q <= F_(q^m).

An element of F_(q^m) is a plain integer in ``[0, q**m)``: the integer packs
the little-endian base-q digit vector of coordinates with respect to the power
basis ``{1, y, ..., y^(m-1)}`` over F_q, and each F_q digit in ``[0, q)`` packs
the little-endian base-p residue vector with respect to ``{1, x, ..., x^(e-1)}``.
Packing is bijective, so the integer *is* the coordinate vector; use
:meth:`FieldTower.coords` / :meth:`FieldTower.from_coords` for the unpacked view.

One class serves both levels.  For e > 1, F_q is itself a ``FieldTower``
F_p <= F_p <= F_q whose top modulus is ``base_modulus``, so its digit codec,
schoolbook product and modulus checks are the same code as the top level's.
Under it, and directly under F_(q^m) when e = 1, sits the base case F_p:
arithmetic mod p, with no tables.

Multiplication, inversion, Frobenius and norm run on log/antilog tables built
once per tower; addition is XOR when p == 2 and digitwise mod p otherwise.
The ``*_many`` methods apply them to numpy arrays of indices (int64, or
:data:`ELEMENT_DTYPE` for the codeword blocks that ``add_many`` and
``fq_rank_many`` stream over), and ``rank_many`` / ``det_many`` eliminate
stacks of matrices at once, with the scalar ``_gauss_jordan`` as their oracle.
``fq_rank_many`` is one F_p echelon for every p: each F_p-multiple v of a
component becomes the least of v + c * b over c in F_p, per earlier pivot b.
The vector layer branches on p only in addition and negation, and in
``_eliminate_many``'s det sign, which it skips at p = 2 (where -1 = 1).
Construction runs on one F_p-matrix kernel: the multiplication matrices X
(by x, block-diagonal) and Y (by y, the companion matrix of the top modulus)
on the d = e * m base-p digits, and the repeated squares M^(2^i) of a
multiplication matrix M.  From the squares of Y, the modulus search and the
check of an explicit modulus run Rabin's irreducibility test, batched over
blocks of candidates; from the squares of a candidate generator's matrix, the
generator search runs the order test; and the accepted generator's squares
fill the power table by doubling.  The ``_poly_*`` helpers, the one
F_q[y]/(f) arithmetic, do Rabin's gcds and the trial division
(``_find_factor``) that only names the first factor of a reducible explicit
modulus; the table-free product and Euclid inverse that check the tables are
test oracles, built on the same helpers.  One limit, order 2^16 for every p,
is checked before any other work.

:func:`exact_int` is the one rule for an integer the library reads, and
:func:`element_array` the one rule for elements a caller passes: integers,
never truncated, each in [0, q^m).

:func:`default_tower` returns one shared tower per (p, e, m) per process;
:func:`tower_from_json` and ``FieldTower`` build a new one on every call.  A
tower is safe to share: its tables are tuples and read-only numpy arrays, and
nothing in it changes after construction but the memo of
:meth:`FieldTower.points_rank`.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ConsistencyError, FieldConstructionError

Element = int  # index encoding of an element of F_(q^m)

_ORDER_LIMIT = 1 << 16  # for every p; F_2^16 is the largest tower the tests and demos build

# the dtype of codeword blocks: exact, since every index lies below _ORDER_LIMIT;
# tables, gathers and eliminations stay int64, as numpy gathers with intp indices
ELEMENT_DTYPE = np.uint16

# above this order the default top modulus makes the class of y primitive; the
# threshold is what fixes the pinned default moduli of F_2^16 and other big towers
_PRIMITIVE_Y_ABOVE = 1 << 12


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n, ascending; [n] exactly when n is prime."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class _PrimeField:
    """F_p by arithmetic mod p: the base case under every tower; no tables."""

    def __init__(self, p: int):
        self.p = self.order = p
        self._ysquares = np.ones((1, 1, 1), dtype=np.int64)  # F_p = F_p[y]/(y - 1)

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return pow(a, self.p - 2, self.p)


# ---------------------------------------------------------------------------
# polynomial helpers over a field object with add/sub/mul/inv and an order:
# coefficient lists of its elements, little-endian

def _poly_trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_divmod(field, a: Sequence[int], b: Sequence[int]):
    a = list(a)
    _poly_trim(a)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    sub, mul = field.sub, field.mul
    lead_inv = field.inv(b[-1])
    db = len(b) - 1
    quot = [0] * max(0, len(a) - db)
    while len(a) > db:
        c = mul(a.pop(), lead_inv)  # c * b cancels the popped leading term
        s = len(a) - db
        quot[s] = c
        for j in range(db):
            if b[j]:
                a[s + j] = sub(a[s + j], mul(c, b[j]))
        _poly_trim(a)
    return quot, a


def _poly_gcd(field, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A greatest common divisor of a and b by Euclid, not made monic; a
    constant exactly when they are coprime."""
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_divmod(field, a, b)[1]
    return a


def _monic(q: int, d: int, tail: int) -> list[int]:
    """The monic degree-d polynomial whose low coefficients are the base-q digits of tail."""
    cs = []
    for _ in range(d):
        tail, c = divmod(tail, q)
        cs.append(c)
    return cs + [1]


def _find_factor(field, poly: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Return a nontrivial monic factor of `poly` by trial division, or None.

    The first one in counting order; it names the factor of a reducible
    explicit modulus, after Rabin's test has refused it."""
    deg = len(poly) - 1
    q = field.order
    for d in range(1, deg // 2 + 1):
        for tail in range(q**d):
            cand = _monic(q, d, tail)
            if cand[0] == 0 and poly[0] != 0:
                continue  # y divides cand but not poly
            if not _poly_divmod(field, poly, cand)[1]:
                return tuple(cand)
    return None


# ---------------------------------------------------------------------------
# the F_p-matrix kernel of construction.  An element of a tower is its
# d = e * m base-p digits, and multiplication by c is the F_p-linear map whose
# row k, in the d x d matrix M(c), is the digits of c times the k-th basis
# element x^i y^j (k = i + e j).  X = M(x) is block-diagonal, one copy of the
# F_q level's own Y per power of y; Y = M(y) is the companion matrix of the
# top modulus.  Every power of c comes from the repeated squares
# S_i = M(c)^(2^i), and an entry of a product is a sum of d terms below p^2,
# with d (p - 1)^2 < 2^63 up to the order limit.  `field` below is an F_q
# level: F_p, or a tower F_p <= F_p <= F_q, whose y is x.

def _blocks(lo: int, hi: int):
    """[lo, hi) as consecutive aranges of 8, 16, 32, then 64 entries: a
    search tests a few candidates first and larger batches later."""
    size = 8
    while lo < hi:
        yield np.arange(lo, min(lo + size, hi))
        lo += size
        size = min(2 * size, 64)


def _squares(M: np.ndarray, count: int, p: int) -> list[np.ndarray]:
    """[M, M^2, M^4, ..., M^(2^(count - 1))] mod p, for a (..., d, d) stack M."""
    S = [M]
    for _ in range(count - 1):
        S.append(S[-1] @ S[-1] % p)
    return S


def _power(S: Sequence[np.ndarray], E: int, p: int) -> np.ndarray:
    """The digits of c^E, E >= 1, from the squares S of M(c): row 0 of M(c)^E,
    the product of the S_i over the bits i of E."""
    bits = [i for i in range(E.bit_length()) if E >> i & 1]
    v = S[bits[0]][..., :1, :]
    for i in bits[1:]:
        v = v @ S[i] % p
    return v[..., 0, :]


def _generates(S: Sequence[np.ndarray], p: int, group: int) -> np.ndarray:
    """The order test, per c of a stack of squares: c^(group/r) != 1 for every
    prime r dividing group.  In a field of order group + 1 it holds exactly
    when c generates the multiplicative group (Lidl-Niederreiter, ch. 3)."""
    one = np.zeros(S[0].shape[-1], dtype=np.int64)
    one[0] = 1
    ok = np.ones(S[0].shape[:-2], dtype=bool)
    for r in _prime_factors(group):
        ok &= (_power(S, group // r, p) != one).any(-1)
    return ok


def _orbit(rows: np.ndarray, S: Sequence[np.ndarray], count: int, p: int) -> np.ndarray:
    """rows M^j for j < count, a (count, r, d) stack, from the (r, d) rows and
    the squares S of M, by doubling: the first k blocks times S_i = M^k are
    the next k."""
    if count == 1:  # nothing to double
        return rows[None]
    r, d = rows.shape
    out = np.empty((1 << (count - 1).bit_length(), r, d), dtype=np.int64)
    out[0] = rows
    flat = out.reshape(-1, d)
    k = 1
    for Si in S[: (count - 1).bit_length()]:
        np.remainder(flat[: k * r] @ Si, p, out=flat[k * r : 2 * k * r])
        k *= 2
    return out[:count]


def _companions(field, m: int, tails: np.ndarray) -> np.ndarray:
    """Y = M(y) modulo y^m + tail over `field` (tail read base q), for each
    tail: a (B, d, d) stack.  Y takes x^i y^j to x^i y^(j+1) for j < m - 1;
    its last block row holds y^m = -(f_0 + f_1 y + ... + f_(m-1) y^(m-1)), as
    the F_q-multiplication blocks of the -f_k."""
    p, e = field.p, field._ysquares.shape[-1]
    d = e * m
    minus_f = -(tails[:, None] // p ** np.arange(d)) % p  # the residues of every -f_k
    blocks = _orbit(minus_f.reshape(-1, e), field._ysquares, e, p)  # [i, (b, k)]: -x^i f_k
    Y = np.zeros((len(tails), d, d), dtype=np.int64)
    Y.reshape(len(tails), -1)[:, e : (d - e) * (d + 1) : d + 1] = 1  # entries (r, r + e), r < d - e
    Y[:, d - e :] = blocks.reshape(e, -1, d).transpose(1, 0, 2)
    return Y


def _rabin(field, m: int, tails: np.ndarray, primitive_y: bool = False):
    """The first y^m + tail of `tails` that is irreducible over `field` (with
    ``primitive_y``, whose y also generates the multiplicative group), as
    (its place in tails, the squares of its Y, whether its y is primitive);
    None if there is none.

    Rabin's test: f of degree m is irreducible over F_q iff y^(q^m) = y mod f
    and gcd(f, y^(q^(m/r)) - y) = 1 for every prime r dividing m.  The powers
    of y are rows of products of the squares of Y; the first condition is
    batched over the tails.  A candidate that meets it takes the order test of
    y, which the generator search needs too: when f(0) != 0, y is a unit whose
    order divides q^m - 1, and if the test passes every non-zero class is a
    power of y, so f is irreducible (it is primitive; Lidl-Niederreiter,
    Thm 3.16) and the gcds are not needed.  Otherwise they run on the
    ``_poly_*`` helpers.
    """
    p, q = field.p, field.order
    order = q**m
    S = _squares(_companions(field, m, tails), order.bit_length(), p)
    y = S[0][:, 0]  # row 0 of Y
    for b, fixes_y in enumerate((_power(S, order, p) == y).all(-1).tolist()):
        if not fixes_y:
            continue
        Sb = [Si[b] for Si in S]
        primitive = bool(tails[b] % q) and bool(_generates(Sb, p, order - 1))
        if primitive or not primitive_y and _rabin_gcds(field, m, int(tails[b]), Sb):
            return b, Sb, primitive
    return None


def _rabin_gcds(field, m: int, tail: int, S: Sequence[np.ndarray]) -> bool:
    """gcd(f, y^(q^(m/r)) - y) = 1 for every prime r dividing m, for
    f = y^m + tail, from the squares S of its Y."""
    p, q, e = field.p, field.order, field._ysquares.shape[-1]
    f, y, places = _monic(q, m, tail), S[0][0], p ** np.arange(e)
    for r in _prime_factors(m):
        g = ((_power(S, q ** (m // r), p) - y) % p).reshape(m, e) @ places  # F_q digits
        if len(_poly_gcd(field, f, g.tolist())) != 1:
            return False
    return True


def _find_irreducible(field, m: int, primitive_y: bool = False):
    """The first monic irreducible of degree m over `field` in counting order
    (with ``primitive_y``, the first whose y is primitive), the squares of its
    Y and whether its y is primitive.  A primitive polynomial exists in every
    degree over every finite field, so the search always ends in the loop."""
    q = field.order
    for tails in _blocks(1, q**m):
        tails = tails[tails % q != 0]  # y divides a polynomial with no constant term
        found = _rabin(field, m, tails, primitive_y)
        if found is not None:
            return tuple(_monic(q, m, int(tails[found[0]]))), *found[1:]
    raise FieldConstructionError(f"no irreducible of degree {m} over F_{q} found")


# ---------------------------------------------------------------------------
# linear algebra over any field object with sub/mul/inv/neg (F_q or F_(q^m))

def _gauss_jordan(field, rows: Sequence[Sequence[int]]):
    """Reduced row echelon form by Gauss-Jordan elimination over `field`.

    Returns (pivot columns, rref rows without zero rows, det).  det is the
    product of the pivots, negated once per row swap, for a square matrix of
    full rank, and 0 otherwise.  The single elimination behind det, rank,
    null space and F_q echelon forms; deterministic.
    """
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    det = 1
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            det = field.neg(det)
        pv = rows[r][c]
        det = field.mul(det, pv)
        if pv != 1:
            s = field.inv(pv)
            rows[r] = [field.mul(s, v) for v in rows[r]]
        prow = rows[r]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f != 0:
                rows[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(row, prow)]
        pivots.append(c)
        r += 1
    if not r == len(rows) == ncols:
        det = 0
    return pivots, rows[:r], det


def _nullspace(field, rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Basis of {x : rows . x^T = 0}, one vector per non-pivot column of the rref."""
    pivots, rref, _ = _gauss_jordan(field, rows)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        vec = [0] * ncols
        vec[j] = 1
        for row, pc in zip(rref, pivots):
            vec[pc] = field.neg(row[j])
        basis.append(vec)
    return basis


@dataclass(frozen=True)
class TowerParams:
    """Construction data for the tower F_p <= F_q <= F_(q^m).

    Moduli are little-endian coefficient tuples (constant term first) and
    monic; ``base_modulus`` has degree e over F_p, ``top_modulus`` degree m
    with coefficients given as F_q digits.  Either may be None to pick a
    verified default.
    """

    p: int
    e: int
    m: int
    base_modulus: Optional[tuple[int, ...]] = None
    top_modulus: Optional[tuple[int, ...]] = None


class FieldTower:
    """The tower F_p <= F_q <= F_(q^m) with table-driven exact arithmetic.

    Its F_q level (``_sf``) is an F_p-tower for e > 1 and the prime field for
    e = 1; ``fq_echelon`` and F_q digit handling use it.  F_q embeds as the
    identity on indices, so an F_q digit is also the element it names.
    """

    def __init__(self, params: TowerParams):
        p, e, m = params.p, params.e, params.m
        if e < 1 or m < 1:
            raise FieldConstructionError("extension degrees must be >= 1")
        # p^(e*m) >= 2^bits for p >= 2, so p**(e*m) is evaluated only when small
        bits = (p.bit_length() - 1) * e * m
        if p >= 2 and (bits >= _ORDER_LIMIT.bit_length() or p ** (e * m) > _ORDER_LIMIT):
            raise FieldConstructionError(f"towers are supported up to order {_ORDER_LIMIT}")
        if _prime_factors(p) != [p]:
            raise FieldConstructionError(f"p = {p} is not prime")
        self.p, self.e, self.m = p, e, m
        self.q = p**e
        self.order = self.q**m
        self._places = p ** np.arange(e * m, dtype=np.int64)  # base-p digit j is worth p^j
        self._places.flags.writeable = False  # shared through default_tower

        base = params.base_modulus
        if e == 1:
            # F_q = F_p; a degree-1 modulus is cosmetic, so only sanity-check it
            if base is not None:
                b = tuple(int(c) for c in base)
                if len(b) != 2 or b[-1] != 1:
                    raise FieldConstructionError("base_modulus must be monic of degree 1")
            base = None
            self._sf = _PrimeField(p)
        else:
            # F_q is itself a tower F_p <= F_p <= F_q whose top modulus is
            # base_modulus, so its constructor checks the base modulus, or
            # finds and proves the default one when it is None
            try:
                self._sf = FieldTower(TowerParams(p, 1, e, None, base))
            except FieldConstructionError as exc:
                raise FieldConstructionError(
                    str(exc).replace("top_modulus", "base_modulus")
                ) from None
            base = self._sf.top_modulus
        self.base_modulus = base

        top = params.top_modulus
        if top is None:  # the search proves its result irreducible by Rabin's test
            top, squares, y_primitive = _find_irreducible(
                self._sf, m, primitive_y=self.order > _PRIMITIVE_Y_ABOVE
            )
        else:
            top = tuple(int(c) for c in top)
            if len(top) != m + 1 or top[-1] != 1:
                raise FieldConstructionError(f"top_modulus must be monic of degree {m}")
            if any(not 0 <= c < self.q for c in top):
                raise FieldConstructionError(f"top_modulus coefficients must lie in [0, {self.q})")
            tail = sum(c * self.q**k for k, c in enumerate(top[:-1]))
            found = _rabin(self._sf, m, np.array([tail]))
            if found is None:
                factor = _find_factor(self._sf, top)
                if factor is None:
                    raise ConsistencyError(
                        f"Rabin's test refuses top_modulus {list(top)}, but trial division finds no factor"
                    )
                raise FieldConstructionError(
                    f"top_modulus {list(top)} is reducible over F_{self.q}: "
                    f"factor {list(factor)} found"
                )
            _, squares, y_primitive = found
        self._ysquares = np.array(squares)  # a copy, not views of the search's block
        self._ysquares.flags.writeable = False  # shared through default_tower
        self.top_modulus = top
        self.params = TowerParams(p, e, m, base, top)

        self.zero: Element = 0
        self.one: Element = 1
        self._points_rank: dict[tuple[Element, ...], int] = {}
        self._build_log_tables(y_primitive)

    # -- construction internals ------------------------------------------------

    def _digits_of(self, x: int) -> list[int]:
        q = self.q
        x = int(x)
        out = []
        for _ in range(self.m):
            out.append(x % q)
            x //= q
        return out

    def _pack_digits(self, ds: Sequence[int]) -> int:
        v = 0
        for d in reversed(ds):
            v = v * self.q + d
        return v

    def _digitwise(self, op, a: int, b: int) -> int:
        """op applied to each pair of F_q coordinate digits of a and b."""
        return self._pack_digits(list(map(op, self._digits_of(a), self._digits_of(b))))

    def _matrices(self, cs: np.ndarray) -> np.ndarray:
        """M(c) for each element c of an array, a (B, d, d) stack: the rows
        x^i c by the F_q level's squares (X is block-diagonal), then those rows
        times the powers of Y."""
        p, e, d = self.p, self.e, self.e * self.m
        rows = np.asarray(cs)[:, None] // self._places % p
        rows = _orbit(rows.reshape(-1, e), self._sf._ysquares, e, p)  # [i, (b, j)]: x^i c_bj
        rows = _orbit(rows.reshape(-1, d), self._ysquares, self.m, p)  # [j, (i, b)]: y^j x^i c_b
        return rows.reshape(d, len(cs), d).transpose(1, 0, 2)

    def _build_log_tables(self, y_primitive: bool) -> None:
        """Powers of the generator, the first primitive element in counting
        order.

        For m > 1 the first candidate is y = q, whose order test the modulus
        check ran (``y_primitive``) on the squares of Y; 1, ..., q - 1 lie in
        F_q^*, whose orders divide q - 1.  Later candidates, or every one from
        1 when m = 1, are tested in blocks by the order test on the squares of
        their multiplication matrices.  The accepted candidate's squares then
        give its n1 powers by doubling, and it is primitive iff they are the
        n1 non-zero elements.
        """
        n1 = self._group = self.order - 1
        p, d = self.p, self.e * self.m
        if self.m > 1 and y_primitive:
            gen, S = self.q, self._ysquares
        else:
            for cs in _blocks(self.q + 1 if self.m > 1 else 1, self.order):
                S = _squares(self._matrices(cs), n1.bit_length(), p)
                found = np.flatnonzero(_generates(S, p, n1))
                if len(found):
                    break
            else:
                raise FieldConstructionError("no multiplicative generator found")
            gen, S = int(cs[found[0]]), [Si[found[0]] for Si in S]
        one = np.zeros((1, d), dtype=np.int64)
        one[0, 0] = 1
        E = _orbit(one, S, n1, p).reshape(n1, d)
        exp = E @ self._places
        if (np.bincount(exp, minlength=self.order)[1:] != 1).any():
            raise FieldConstructionError("generator order check failed")
        log = np.zeros(self.order, dtype=np.int64)
        log[exp] = np.arange(n1)
        self.generator: Element = gen
        self._exp, self._log = tuple(exp.tolist()), tuple(log.tolist())
        # log 0 is the sentinel 2 * n1: a sum of two logs indexes the doubled
        # exp table below 2 * n1 - 1 when both factors are non-zero, and its
        # zero tail [2 * n1, 4 * n1] otherwise
        log[0] = 2 * n1
        self._log_z = log
        self._exp_z = np.concatenate([exp, exp, np.zeros(2 * n1 + 1, dtype=np.int64)])
        self._inv_z = self._exp_z[n1 - log]  # n1 - 2 n1 indexes the zero tail
        self._frob_z = self._exp_z[log * self.q % n1]
        self._frob_z[0] = 0
        for table in (self._log_z, self._exp_z, self._inv_z, self._frob_z):
            table.flags.writeable = False  # shared through default_tower

    # -- scalar field operations -------------------------------------------------

    def add(self, a: Element, b: Element) -> Element:
        return a ^ b if self.p == 2 else self._digitwise(self._sf.add, a, b)

    def neg(self, a: Element) -> Element:
        return a if self.p == 2 else self._digitwise(self._sf.sub, 0, a)

    def sub(self, a: Element, b: Element) -> Element:
        return a ^ b if self.p == 2 else self._digitwise(self._sf.sub, a, b)

    def mul(self, a: Element, b: Element) -> Element:
        if a == 0 or b == 0:
            return 0
        s = self._log[a] + self._log[b]
        if s >= self._group:
            s -= self._group
        return self._exp[s]

    def inv(self, a: Element) -> Element:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_(q^m)")
        return self._exp[(self._group - self._log[a]) % self._group]

    def div(self, a: Element, b: Element) -> Element:
        return self.mul(a, self.inv(b))

    def pow_(self, a: Element, n: int) -> Element:
        if a == 0:
            if n > 0:
                return 0
            if n == 0:
                return 1
            raise ZeroDivisionError("inverse of zero in F_(q^m)")
        return self._exp[(self._log[a] * n) % self._group]

    def frobenius(self, x: Element, i: int = 1) -> Element:
        """x^(q^i); i is reduced mod m since the Frobenius has order m."""
        if x == 0:
            return 0
        return self._exp[(self._log[x] * pow(self.q, i % self.m, self._group)) % self._group]

    def norm(self, x: Element) -> Element:
        """Field norm onto F_q: x^(1 + q + ... + q^(m-1))."""
        if x == 0:
            return 0
        s = self._group // (self.q - 1)
        out = self._exp[(self._log[x] * s) % self._group]
        if out >= self.q:
            raise ConsistencyError(f"norm of {x} is {out}, outside the base field F_{self.q}")
        return out

    def _check_subfield(self, s: int) -> None:
        if s < 1 or self.m % s != 0:
            raise ValueError(f"F_(q^{s}) is not a subfield of F_(q^{self.m})")

    def subfield_membership(self, x: Element, s: int) -> bool:
        """True iff x lies in F_(q^s); requires s | m."""
        self._check_subfield(s)
        return self.frobenius(x, s) == x

    def subfield_elements(self, s: int) -> tuple[Element, ...]:
        """All q^s elements of the subfield F_(q^s), ascending: 0 and the powers
        of g^((q^m - 1)/(q^s - 1)), which generates F_(q^s)^*; requires s | m."""
        self._check_subfield(s)
        return tuple(sorted([0, *self._exp[:: self._group // (self.q**s - 1)]]))

    # -- coordinates and F_q-linear algebra ---------------------------------------

    def coords(self, x: Element) -> tuple[int, ...]:
        """Little-endian F_q coordinate digits of x in the power basis."""
        return tuple(self._digits_of(x))

    def from_coords(self, ds: Iterable[int]) -> Element:
        ds = list(ds)
        if len(ds) != self.m or any(not 0 <= d < self.q for d in ds):
            raise ValueError(f"expected {self.m} little-endian digits in [0, {self.q})")
        return self._pack_digits(ds)

    def fq_echelon(self, rows: list[list[int]]):
        """Reduced row echelon form of a digit matrix over F_q.

        Returns (pivot column list, rref rows without zero rows); deterministic.
        """
        pivots, rref, _ = _gauss_jordan(self._sf, rows)
        return pivots, rref

    def fq_rank(self, vec: Sequence[Element]) -> int:
        """Rank weight: dimension over F_q of the span of the components."""
        pivots, _ = self.fq_echelon([list(self._digits_of(v)) for v in vec])
        return len(pivots)

    def points_rank(self, alpha: Sequence[Element]) -> int:
        """:meth:`fq_rank` of evaluation points, kept per alpha tuple: every
        spec of a sweep checks the same alpha."""
        key = tuple(int(a) for a in alpha)
        if key not in self._points_rank:
            self._points_rank[key] = self.fq_rank(key)
        return self._points_rank[key]

    def fq_span(self, gens: Sequence[Element]) -> tuple[Element, ...]:
        """All q^dim elements of the F_q-span of `gens`, deterministic order."""
        _, basis_rows = self.fq_echelon([list(self._digits_of(v)) for v in gens])
        basis = [self._pack_digits(r) for r in basis_rows]
        out = [0]
        for b in basis:
            scaled = [self.mul(c, b) for c in range(self.q)]
            out = [self.add(u, s) for s in scaled for u in out]
        return tuple(sorted(out))

    # -- vectorized operations (numpy arrays of element indices) ------------------

    def add_many(self, a: np.ndarray, b: np.ndarray, width: int = 1) -> np.ndarray:
        """Elementwise sum; with ``width`` > 1, of vectors of that many elements
        packed base q^m (component j times q^(mj)), component by component.
        The sum has the dtype numpy gives ``a ^ b``: two :data:`ELEMENT_DTYPE`
        arrays add to one."""
        if self.p == 2:
            return np.bitwise_xor(a, b)
        # an index is the base-p residue vector of all e*m F_p coordinates
        p, a, b = self.p, np.asarray(a), np.asarray(b)
        dtype = np.result_type(a, b)
        # in 16 bits only while a + b, the largest digit sum, cannot wrap
        work = dtype if dtype == ELEMENT_DTYPE and 2 * self.order <= 1 << 16 else np.int64
        a, b = a.astype(work, copy=False), b.astype(work, copy=False)
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=work)
        place = 1
        for _ in range(self.e * self.m * width):
            out += (a // place + b // place) % p * place
            place *= p
        return out.astype(dtype, copy=False)

    def fq_rank_many(self, comps: Sequence[np.ndarray]) -> np.ndarray:
        """Rank weight of a batch of vectors, given as its n component arrays.

        An echelon over F_p, one loop for every p: the F_q-span of the
        components is the F_p-span of their multiples v * x^j, j < e (index
        p^j is x^j of F_q, so these are v times an F_p-basis of F_q).  Each
        multiple in turn is reduced by every earlier pivot b to the least of v
        and v + c * b over c in F_p^*, and becomes the next pivot.  An index
        orders elements by their base-p digits, most significant first, and
        the digits above b's leading digit do not change, so the least of these
        has a zero digit there (at p = 2, ``min(v, v ^ b)``).  The rank is the
        number of non-zero pivots over e.  Only :meth:`add_many` branches on p
        here.  Every pivot and multiple keeps the dtype of its component (the
        products ``mul_many`` gathers are cast back to it), so an
        :data:`ELEMENT_DTYPE` batch is eliminated in 16-bit words.
        :meth:`fq_rank` is the scalar oracle.
        """
        pivots = []  # per pivot b: b, 2b, ..., (p - 1)b
        for v in comps:
            v = np.asarray(v)
            for j in range(self.e):
                w = self.mul_many(v, self.p**j).astype(v.dtype, copy=False) if j else v
                for bs in pivots:
                    w = functools.reduce(np.minimum, [self.add_many(w, cb) for cb in bs], w)
                multiples = (self.mul_many(w, c) for c in range(2, self.p))
                pivots.append([w, *(cw.astype(v.dtype, copy=False) for cw in multiples)])
        return np.count_nonzero([bs[0] for bs in pivots], axis=0) // self.e

    def mul_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product of two broadcastable integer arrays (or scalars)."""
        return self._exp_z[self._log_z[a] + self._log_z[b]]

    def inv_many(self, a: np.ndarray) -> np.ndarray:
        """Elementwise inverse; 0 maps to 0."""
        return self._inv_z[a]

    def neg_many(self, a: np.ndarray) -> np.ndarray:
        """Elementwise negation: the product with -1 of F_p, whose index is p - 1."""
        return a if self.p == 2 else self.mul_many(a, self.p - 1)

    def frob_many(self, x: np.ndarray, i: int = 1) -> np.ndarray:
        x = np.asarray(x, dtype=np.int64)
        for _ in range(i % self.m):
            x = self._frob_z[x]
        return x

    def _eliminate_many(self, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Forward elimination of a (B, r, c) stack: (rank, det) per matrix.

        A copy laid out (r, c, B), the stack on the contiguous axis, is
        eliminated column by column: each matrix takes its first free row (not
        yet a pivot row) with a non-zero entry as pivot and clears the other
        free rows right of the column, until every matrix has rank r; no row
        moves.  det is the product of the pivots, negated once per free row
        above a pivot, for a square matrix of full rank and 0 otherwise, as in
        ``_gauss_jordan`` (the scalar oracle) with its row swaps.
        """
        M = np.array(np.moveaxis(M, 0, -1), dtype=np.int64, order="C")  # a copy
        r, c, B = M.shape
        flat, above = M.reshape(-1), np.arange(r)[:, None]
        entry = np.arange(B) + np.arange(c)[:, None] * B  # flat index of row 0, per column
        free, det = np.ones((r, B), dtype=bool), np.ones(B, dtype=np.int64)
        rank = np.zeros(B, dtype=np.int64)
        for j in range(c):
            if (rank == r).all():
                break
            cand = (M[:, j] != 0) & free
            found = cand.any(axis=0)
            piv = np.zeros(B, dtype=np.int64)
            for i in range(r - 1, -1, -1):
                piv = np.where(cand[i], i, piv)
            prow = flat[piv * (c * B) + entry[j:]]  # the pivot row from column j on
            pv = np.where(found, prow[0], 1)
            if r == c:
                if self.p != 2:
                    odd = np.bitwise_xor.reduce(free & (above < piv), axis=0)
                    det = np.where(odd, self.neg_many(det), det)
                det = self.mul_many(det, pv)
            rank += found
            free &= (above != piv) | ~found
            f = np.where(free, M[:, j], 0)
            if j + 1 < c and f.any():
                f = self.neg_many(f[:, None])
                f = self.mul_many(f, self.mul_many(prow[1:], self.inv_many(pv)))
                M[:, j + 1 :] = self.add_many(M[:, j + 1 :], f)
        return rank, np.where((rank == r) & (r == c), det, 0)

    def rank_many(self, M: np.ndarray) -> np.ndarray:
        """Rank over F_(q^m) of each matrix of a (B, r, c) stack."""
        return self._eliminate_many(M)[0]

    def det_many(self, M: np.ndarray) -> np.ndarray:
        """Determinant of each matrix of a (B, r, r) stack."""
        if np.shape(M)[-1] != np.shape(M)[-2]:
            raise ValueError("determinant of a non-square matrix")
        return self._eliminate_many(M)[1]

    # -- element universe ----------------------------------------------------------

    def elements(self) -> range:
        return range(self.order)

    def nonzero_elements(self) -> range:
        return range(1, self.order)

    def random_element(self, rng: random.Random) -> Element:
        return rng.randrange(self.order)

    def random_nonzero(self, rng: random.Random) -> Element:
        return rng.randrange(1, self.order)

    # -- serialization ---------------------------------------------------------------

    def elements_to_json(self, xs) -> list:
        """The little-endian coordinate array of every entry of an array of
        elements (of one element, for a scalar), in one numpy pass: the base-p
        digits of each entry, as (..., m) F_q digits at e = 1 and (..., m, e)
        residues otherwise."""
        xs = np.asarray(xs, dtype=np.int64)
        digits = xs[..., None] // self._places % self.p
        return digits.reshape(xs.shape + ((self.m,) if self.e == 1 else (self.m, self.e))).tolist()

    def element_from_json(self, obj) -> Element:
        if not isinstance(obj, (list, tuple)) or len(obj) != self.m:
            raise ValueError(f"element must be a length-{self.m} coordinate array")
        ds = []
        for c in obj:
            if isinstance(c, (list, tuple)):
                if len(c) != self.e:
                    raise ValueError(f"each F_q coordinate needs {self.e} residues")
                rs = [exact_int(r) for r in c]
                ds.append(self._sf.from_coords(rs) if self.e > 1 else rs[0])
            else:
                ds.append(exact_int(c))
        return self.from_coords(ds)

    def __repr__(self):
        return f"FieldTower(p={self.p}, e={self.e}, m={self.m}, order={self.order})"


@functools.lru_cache(maxsize=None)
def default_tower(p: int, e: int, m: int) -> FieldTower:
    """Cached tower with verified default moduli for (p, e, m)."""
    return FieldTower(TowerParams(p, e, m))


def exact_int(x) -> int:
    """x as an int if it is a Python or numpy integer, the one rule for every
    integer the library reads, from JSON or from a caller; a bool, float,
    string, None or array is a ValueError, never truncated."""
    if not isinstance(x, (int, np.integer)) or isinstance(x, bool):
        raise ValueError(f"expected an integer, got {x!r}")
    return int(x)


def element_array(tower: FieldTower, xs, what: str) -> np.ndarray:
    """xs as an int64 array of elements of ``tower``, the one rule for the
    elements a caller passes: an array needs an integer dtype (an empty one may
    have any), every entry of any other sequence passes :func:`exact_int`
    (numpy would read a bool among ints as an int), and every entry lies in
    [0, q^m).  Anything else is a ValueError: a bool or float is never
    truncated, and a negative or too large index never wraps through the
    tables or indexes past them."""
    if isinstance(xs, np.ndarray):
        if xs.size and xs.dtype.kind not in "iu":
            raise ValueError(f"{what} must have integer entries, got dtype {xs.dtype}")
        inside = not xs.size or 0 <= xs.min() and xs.max() < tower.order
    else:
        xs = np.asarray(xs, dtype=object)
        for x in xs.flat:
            exact_int(x)
        inside = all(0 <= x < tower.order for x in xs.flat)
    if not inside:
        raise ValueError(f"{what} entries must lie in [0, {tower.order})")
    return xs.astype(np.int64, copy=False)


def json_array(x, what: str) -> list:
    """x if it is a JSON array; any other shape is a ValueError naming `what`."""
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a JSON array, got {x!r}")
    return x


def json_object(x, what: str) -> dict:
    """x if it is a JSON object; any other shape is a ValueError naming `what`."""
    if not isinstance(x, dict):
        raise ValueError(f"{what} must be a JSON object, got {x!r}")
    return x


def tower_from_json(obj: dict) -> FieldTower:
    """Build a tower from the field-spec JSON object."""
    obj = json_object(obj, "a field spec")

    def modulus(key):  # absent or [] picks the default
        cs = obj.get(key)
        return None if cs is None else tuple(exact_int(c) for c in json_array(cs, key)) or None

    return FieldTower(
        TowerParams(
            p=exact_int(obj["p"]),
            e=exact_int(obj["e"]),
            m=exact_int(obj["m"]),
            base_modulus=modulus("base_modulus"),
            top_modulus=modulus("top_modulus"),
        )
    )


def tower_to_json(tower: FieldTower) -> dict:
    out = {"p": tower.p, "e": tower.e, "m": tower.m, "top_modulus": list(tower.top_modulus)}
    if tower.base_modulus is not None:
        out["base_modulus"] = list(tower.base_modulus)
    return out
