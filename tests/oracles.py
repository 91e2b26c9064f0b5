"""Scalar oracles and random-tower helpers shared by several test modules.

This module holds no tests, so a test module that imports it imports no other
test module, and every ``tests/test_*.py`` runs on its own.
"""

from functools import lru_cache
from itertools import combinations, product, zip_longest

import numpy as np

from twistgab import moore
from twistgab.errors import FieldConstructionError, SpecInvariantError
from twistgab.fieldtower import (
    FieldTower,
    TowerParams,
    _poly_divmod,
    _poly_trim,
    _prime_factors,
)
from twistgab.gcoeff import AnnihilatorCoeffs, g_coefficient

# (p, e, m) of the towers of the distance property, order <= 256
DISTANCE_TOWERS = [
    (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 6), (2, 1, 8), (2, 2, 2), (2, 2, 3),
    (3, 1, 2), (3, 1, 3), (3, 1, 4), (5, 1, 2),
]


@lru_cache(maxsize=None)
def tower_from(p, e, m, tail):
    """The tower whose top modulus is the first irreducible monic one at or
    after y^m + tail (tail read base q, little-endian), cycling."""
    q = p**e
    for off in range(q**m):
        c = (tail + off) % q**m
        top = tuple(c // q**i % q for i in range(m)) + (1,)
        try:
            return FieldTower(TowerParams(p, e, m, top_modulus=top))
        except FieldConstructionError:
            continue
    raise AssertionError(f"no irreducible modulus of degree {m} over F_{q}")


def _poly_mul(field, a, b):
    """The schoolbook product of two coefficient lists over `field`, trimmed."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = field.add(out[i + j], field.mul(x, y))
    return _poly_trim(out)


def mul_raw(t, a, b):
    """Oracle for the log-table product: the polynomial product of the F_q
    digits of a and b mod the top modulus, table-free."""
    sf = t._sf
    prod = _poly_mul(sf, t._digits_of(a), t._digits_of(b))
    return t._pack_digits(_poly_divmod(sf, prod, t.top_modulus)[1])


def inv_euclid(t, a):
    """Oracle for the log-table inverse: extended Euclid on the representing
    polynomial, independent of the tables."""
    if a == 0:
        raise ZeroDivisionError("inverse of zero in F_(q^m)")
    sf = t._sf
    r0, r1 = list(t.top_modulus), _poly_trim(t._digits_of(a))
    s0, s1 = [], [1]
    while len(r1) > 1:
        quot, rem = _poly_divmod(sf, r0, r1)
        qs = _poly_mul(sf, quot, s1)
        new_s = [sf.sub(x, y) for x, y in zip_longest(s0, qs, fillvalue=0)]
        r0, r1 = r1, rem
        s0, s1 = s1, _poly_trim(new_s)
    if not r1:
        raise ZeroDivisionError("element not invertible: modulus reducible?")
    c = sf.inv(r1[0])
    return t._pack_digits([sf.mul(c, x) for x in s1])  # deg s1 < m


def _poly_powmod(field, base, exp, mod):
    """base^exp mod `mod` over `field` by square and multiply on the
    polynomial helpers; the oracle of the kernel's powers from squares."""
    result = [1]
    cur = list(_poly_divmod(field, base, mod)[1])
    while exp:
        if exp & 1:
            result = _poly_divmod(field, _poly_mul(field, result, cur), mod)[1]
        exp >>= 1
        if exp:
            cur = _poly_divmod(field, _poly_mul(field, cur, cur), mod)[1]
    return result


def _is_primitive(field, x, mod):
    """True iff x generates the multiplicative group of field[y]/(mod), for
    mod irreducible of degree d over a field of order q: x^((q^d - 1)/r) != 1
    for every prime r dividing q^d - 1.  The oracle of the order test."""
    group = field.order ** (len(mod) - 1) - 1
    return all(_poly_powmod(field, x, group // r, mod) != [1] for r in _prime_factors(group))


def unpack_vector(order: int, n: int, u_idx: int) -> tuple[int, ...]:
    """The n components of a vector index packed base `order`, component 0 lowest."""
    return tuple(u_idx // order**j % order for j in range(n))


def scalar_class_messages(order: int, k: int):
    """One representative per F_(q^m)^*-class of non-zero messages, lexicographic.

    The leading non-zero coordinate is normalized to 1; later coordinates run
    through all values in counting order.
    """
    for lead in range(k):
        tail = k - 1 - lead
        for idx in range(order**tail):
            msg = [0] * k
            msg[lead] = 1
            x = idx
            for pos in range(lead + 1, k):
                msg[pos] = x % order
                x //= order
            yield msg


def scalar_codewords(tower, G, messages):
    """The scalar encoder: each message of the stream times the rows of G, one
    codeword at a time, as a list of ints."""
    rows = [[int(x) for x in row] for row in G]
    n = G.shape[1]
    for msg in messages:
        word = [0] * n
        for i, fi in enumerate(msg):
            if fi:
                ri = rows[i]
                word = [tower.add(w, tower.mul(fi, ri[j])) for j, w in enumerate(word)]
        yield word


def scalar_is_nmds(tower, G):
    """Oracle for the NMDS flag of the enumeration, walking every dual: the
    dual basis of G, then the minimum Hamming weights of the code and of its
    dual, one scalar codeword at a time; NMDS iff they are n - k and k."""
    k, n = G.shape
    d_code, d_dual = (
        min(sum(1 for c in word if c)
            for word in scalar_codewords(tower, M, scalar_class_messages(tower.order, len(M))))
        for M in (G, moore.nullspace_fqm(tower, G))
    )
    return d_code == n - k and d_dual == k


def scalar_matmul(tower, A, B):
    """Oracle for moore.matmul: the 2-D product, one scalar field call at a time."""
    ra, ca = A.shape
    rb, cb = B.shape
    if ca != rb:
        raise ValueError("shape mismatch")
    out = np.zeros((ra, cb), dtype=np.int64)
    for i in range(ra):
        for j in range(cb):
            acc = 0
            for s in range(ca):
                a = int(A[i, s])
                if a:
                    acc = tower.add(acc, tower.mul(a, int(B[s, j])))
            out[i, j] = acc
    return out


def scalar_subspaces(n, k, q):
    """Oracle for the block walk: the RREF representatives one at a time, as
    k x n uint8 matrices, pivot sets in lexicographic order and the free
    entries through itertools.product."""
    for pivots in combinations(range(n), k):
        free_pos = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, n)
            if j not in pivots
        ]
        base = np.zeros((k, n), dtype=np.uint8)
        for i, p in enumerate(pivots):
            base[i, p] = 1
        for vals in product(range(q), repeat=len(free_pos)):
            V = base.copy()
            for (i, j), v in zip(free_pos, vals):
                V[i, j] = v
            yield V


def sum_product_free_walk(tower, etas, s):
    """Oracle for mrdcheck.sum_product_free_test: every F_(q^s)-coefficient
    tuple on the etas, one scalar combination at a time; free iff none lands
    in F_(q^s)^*."""
    sub = tower.subfield_elements(s)
    sub_set = frozenset(sub)
    for coeff in product(sub, repeat=len(etas)):
        acc = 0
        for a, eta in zip(coeff, etas):
            acc = tower.add(acc, tower.mul(a, eta))
        if acc != 0 and acc in sub_set:
            return False
    return True


def scalar_is_mrd(t, G):
    """Oracle for the subspace criterion: rank(V G^T) = k for every V of the
    scalar walk, each product and each rank one matrix at a time."""
    k, n = G.shape
    return all(
        moore.rank_fqm(t, scalar_matmul(t, V, G.T)) == k for V in scalar_subspaces(n, k, t.q)
    )


def scalar_column_conditions(t, G):
    """Oracle for codes.nmds_conditions_many: one scalar rank or determinant
    (``moore.rank_fqm`` / ``moore.det_fqm``, each the scalar ``_gauss_jordan``)
    per column subset of a k x n G: (every k - 1 columns of rank k - 1, some k
    columns singular, every k + 1 columns of rank k)."""
    k, n = G.shape

    def columns(size):
        return (G[:, list(s)] for s in combinations(range(n), size))

    return (
        all(moore.rank_fqm(t, M) == k - 1 for M in columns(k - 1)),
        any(moore.det_fqm(t, M) == 0 for M in columns(k)),
        all(moore.rank_fqm(t, M) == k for M in columns(k + 1)),
    )


def moore_det_product(tower, alpha):
    """Oracle for moore.det_fqm of a Moore matrix, the closed form:
    alpha_1 * prod over j = 1..k-1 and all (b_1..b_j) in F_q^j of
    (alpha_(j+1) - sum_i b_i alpha_i); enumerates the coefficient tuples
    literally, so it shares no elimination with det_fqm."""
    k = len(alpha)
    if k < 1:
        raise ValueError("alpha must be non-empty")
    acc = int(alpha[0])
    for j in range(1, k):
        for bs in product(range(tower.q), repeat=j):
            s = 0
            for b, a in zip(bs, alpha):
                s = tower.add(s, tower.mul(b, int(a)))
            acc = tower.mul(acc, tower.sub(int(alpha[j]), s))
            if acc == 0:
                return 0
    return acc


def g_of_subset(tower, alpha, subset, h, t):
    """Oracle for the g columns of mrdcheck.KSubsetTable: g_h^(t) of the span
    of the alpha components indexed by `subset` (0-based), by the scalar
    annihilator and ``gcoeff.g_coefficient``."""
    picked = [int(alpha[i]) for i in subset]
    k = len(picked)
    if tower.fq_rank(picked) != k:
        raise SpecInvariantError(
            f"components at {tuple(subset)} are F_q-dependent; g is defined on independent k-subsets"
        )
    return g_coefficient(AnnihilatorCoeffs.from_span(tower, picked), h, t)


def verify_modified_moore_identity(tower, alpha_k, h, t):
    """The identity behind every Omega route, by two scalar determinants:
    |M_k^(h,k+t)(alpha)| = g_h^(t) |M_k(alpha)| for an independent k-tuple."""
    k = len(alpha_k)
    if tower.fq_rank(alpha_k) != k:
        raise SpecInvariantError("alpha components must be F_q-independent")
    g = g_coefficient(AnnihilatorCoeffs.from_span(tower, alpha_k), h, t)
    lhs = moore.det_fqm(tower, moore.modified_moore_matrix(tower, alpha_k, k, h, k + t))
    rhs = tower.mul(g, moore.det_fqm(tower, moore.moore_matrix(tower, alpha_k, k)))
    return lhs == rhs
