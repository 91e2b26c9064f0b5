"""MRD criteria, forbidden parameter sets, and guaranteed-MRD constructions.

The subspace criterion quantifies rank(V G^T) = k over one reduced
row-echelon representative per k-dimensional row space of F_q^(k x n): left
multiplication by an invertible matrix scales each maximal minor by a non-zero
factor, so row spaces are the right granularity and the search shrinks from
q^(kn) matrices to the Gaussian binomial count.  Each route takes V M^T for a
block of representatives at once (:func:`_subspace_blocks`, ``moore.matmul``)
and eliminates the whole block in one batched elimination
(:meth:`FieldTower.rank_many`, :meth:`FieldTower.det_many`); blocks come in
enumeration order and a witness is the first V of its block in row order, so
it is the first V in that order.  Each route checks the subspaces cap itself
before it walks.  :func:`matrix_is_mrd_many` walks the blocks once for a whole
stack of generators: the specs of a sweep (in :func:`classify_many`, in stacks
that fit the subspaces cap) or every [G; u] of the deep-hole extension route.
:func:`matrix_is_mrd` is the stack of one, and
:func:`is_mrd_subspace_criterion` is it on the generator of one spec.

Forbidden sets certify the other direction: eta tuples on which some maximal
minor of the generator vanishes (stored as eta^(-1) for one twist),
materialized per k-subset of evaluation points through the g_h^(t) scalars
(one ``KSubsetTable`` per (alpha, k) holds the subsets, their annihilators and
the g columns, each built for all subsets at once), or per subspace V through
determinant ratios.  Both determinant routes, the ratio set
(:func:`forbidden_eta_set_one_twist`) and the expansion
(:func:`mrd_membership_multi`), read one walk of twisted minors
(:func:`_twisted_minors`); the rank route :func:`matrix_is_mrd_many` stays
apart as their cross-check.  :func:`forbidden_sets_one_twist` builds the
one-twist sets and holds the rule that Omega_1 lies in the ratio set.

:func:`construct_chain_mrd` is the one route of the guaranteed-MRD
constructions, for each mode of :class:`SubfieldChain` (nested subfield
chains, scalar multiples, 1-sum-product-free tuples): it checks the shared
hypotheses, then those of the mode, and re-verifies the code by
:func:`mrd_membership_multi` exactly when [n, k]_q fits the subspaces cap.
The subfield hypotheses are closed forms that enumerate nothing: 1-sum-product
freeness is one F_q rank (:func:`sum_product_free_test`) and the norm
condition one norm (:func:`norm_mrd_condition`).

:func:`classify_many` runs the four classify routes (enumeration, column ranks,
subspace criterion, Omega classes) over a stack of specs and holds every rule
by which they must agree; :func:`classify` is its stack of one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Iterator, Optional, Sequence

import numpy as np

from . import codes, moore
from .budget import Budgets, check_budget
from .codes import CodeSpec
from .errors import ConsistencyError, SpecInvariantError
from .fieldtower import Element, FieldTower


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _subspace_blocks(n: int, k: int, q: int) -> Iterator[np.ndarray]:
    """All RREF representatives of k-dimensional row spaces of F_q^(k x n), as
    (B, k, n) int64 ``moore.counter_blocks`` of digit matrices, one segment per
    pivot set: a block may span several.  Pivot sets come in lexicographic
    order; within a set the free entries (row by row) count base q, the last
    fastest.  Callers check the subspaces cap.
    """
    if not 0 < k <= n:
        raise ValueError("need 0 < k <= n")
    expected = gaussian_binomial(n, k, q)
    segments = (
        ([i * n + p for i, p in enumerate(pivots)],
         [i * n + j for i in reversed(range(k)) for j in reversed(range(pivots[i] + 1, n))
          if j not in pivots])
        for pivots in combinations(range(n), k)
    )
    emitted = 0
    for block in moore.counter_blocks((k, n), segments, q):
        emitted += len(block)
        yield block
    if emitted != expected:
        raise ConsistencyError(
            f"subspace enumeration produced {emitted} representatives, "
            f"expected the Gaussian binomial {expected}"
        )


def enumerate_subspaces(n: int, k: int, q: int, budgets: Budgets = Budgets()) -> Iterator[np.ndarray]:
    """The representatives of :func:`_subspace_blocks` one at a time, as uint8."""
    if q > 256:
        raise ValueError("uint8 digit matrices need q <= 256")
    check_budget("subspace", gaussian_binomial(n, k, q), budgets.subspaces)
    for block in _subspace_blocks(n, k, q):
        yield from block.astype(np.uint8)


def matrix_is_mrd_many(tower: FieldTower, Gs, budgets: Budgets = Budgets()) -> np.ndarray:
    """Per generator G of an (S, k, n) stack of full-rank matrices, True iff
    rank(V G^T) = k for every representative V; the S * [n, k]_q products must
    fit the subspaces cap.  One walk serves the stack: per block of V, the
    G^T of the live generators side by side, gathered again for each block,
    and per step of ``moore.blocks`` representatives one ``moore.matmul`` and
    one ``rank_many``.  A G leaves at its first rank-deficient product; the
    walk stops after the block in which the last leaves.  An empty stack walks
    nothing and gets an empty verdict array.
    """
    Gs = np.asarray(Gs, dtype=np.int64)
    S, k, n = Gs.shape
    check_budget("subspace", S * gaussian_binomial(n, k, tower.q), budgets.subspaces)
    mrd = np.ones(S, dtype=bool)
    for Vs in _subspace_blocks(n, k, tower.q) if S else ():
        live = np.flatnonzero(mrd)
        wide = Gs[live].transpose(2, 0, 1).reshape(n, -1)
        for step in moore.blocks(len(Vs), len(live)):
            prods = moore.matmul(tower, Vs[step], wide).reshape(-1, k, len(live), k)
            ranks = tower.rank_many(prods.transpose(0, 2, 1, 3).reshape(-1, k, k))
            mrd[live] &= (ranks.reshape(-1, len(live)) == k).all(axis=0)
        if not mrd.any():
            break
    return mrd


def matrix_is_mrd(tower: FieldTower, G: np.ndarray, budgets: Budgets = Budgets()) -> bool:
    """Subspace criterion on an arbitrary full-rank generator matrix: the
    stack of one of :func:`matrix_is_mrd_many`."""
    return bool(matrix_is_mrd_many(tower, np.asarray(G)[None], budgets)[0])


def _subspace_criterion_stack(tower: FieldTower, Gs: np.ndarray, budgets: Budgets) -> np.ndarray:
    """Per generator of an (S, k, n) stack Gs, the subspace criterion:
    :func:`matrix_is_mrd_many` walks the generators in as few stacks as the
    subspaces cap admits, S * [n, k]_q products each, so the cap refuses the
    stack only when one generator's [n, k]_q exceeds it."""
    S, k, n = Gs.shape
    per = max(1, budgets.subspaces // gaussian_binomial(n, k, tower.q))
    return np.concatenate(
        [matrix_is_mrd_many(tower, Gs[lo : lo + per], budgets) for lo in range(0, S, per)]
    )


def is_mrd_subspace_criterion(spec: CodeSpec, budgets: Budgets = Budgets()) -> bool:
    """True iff rank(V G^T) = k for every subspace representative V:
    :func:`matrix_is_mrd` of the spec's generator."""
    return matrix_is_mrd(spec.tower, codes.generator_matrix(spec), budgets)


@dataclass
class ForbiddenSet:
    """Forbidden parameter values with one witness each.

    entries maps a value tuple (length = arity) to the witness that produced
    it: a k-subset of evaluation-point indices or an RREF subspace matrix
    (as a nested list).  provenance names the defining set.  The one-twist
    sets (the minor ratios, omega1, omega1-prime) hold eta^(-1), not eta; the
    two-twist set omega2 holds the pairs (eta_1, eta_2) themselves.
    """

    arity: int
    provenance: str
    entries: dict[tuple[Element, ...], object] = field(default_factory=dict)

    def values(self) -> set[tuple[Element, ...]]:
        return set(self.entries)

    def __contains__(self, eta) -> bool:
        """eta as one value (a Python or numpy integer) or a tuple of values."""
        key = (eta,) if isinstance(eta, (int, np.integer)) else tuple(eta)
        return tuple(map(int, key)) in self.entries

    def to_json_dict(self, tower: FieldTower) -> dict:
        ordered = sorted(self.entries)
        values = tower.elements_to_json(np.reshape(ordered, (-1, self.arity)))
        return {
            "arity": self.arity,
            "provenance": self.provenance,
            "size": len(ordered),
            "entries": [
                {"value": value, "witness": self.entries[val]}
                for val, value in zip(ordered, values)
            ],
        }


def _twisted_minors(tower: FieldTower, alpha: Sequence[Element], k: int, h: int,
                    ts: Sequence[int], budgets: Budgets) -> Iterator[tuple]:
    """The one walk of twisted minors behind both determinant routes: per block
    Vs of subspace representatives, (Vs, |V M_k^T|, [|V M_k^(h,k+t)^T| per t
    of ts]) over the block.  |V M_k^T| is a maximal minor of a Gabidulin
    generator and can never vanish; a zero is an internal-consistency failure.
    The walk checks the subspaces cap first.
    """
    n = len(alpha)
    check_budget("subspace", gaussian_binomial(n, k, tower.q), budgets.subspaces)
    M = moore.moore_matrix(tower, alpha, k)
    twisted = [moore.modified_moore_matrix(tower, alpha, k, h, k + t) for t in ts]
    for Vs in _subspace_blocks(n, k, tower.q):
        dens = tower.det_many(moore.matmul(tower, Vs, M.T))
        if (dens == 0).any():
            raise ConsistencyError("Gabidulin maximal minor |V M_k^T| vanished; this contradicts "
                                   f"the MRD property, V = {Vs[(dens == 0).argmax()].tolist()}")
        yield Vs, dens, [tower.det_many(moore.matmul(tower, Vs, X.T)) for X in twisted]


def forbidden_eta_set_one_twist(
    tower: FieldTower,
    alpha: Sequence[Element],
    k: int,
    h: int,
    t: int,
    budgets: Budgets = Budgets(),
) -> ForbiddenSet:
    """The inverses eta^(-1) of all eta for which some maximal minor of the
    one-twist generator vanishes.

    |V G^T| = |V M_k^T| + eta |V M_k^(h,k+t)^T| vanishes iff eta^(-1) is the
    ratio -|V M_k^(h,k+t)^T| / |V M_k^T|, and the set holds these ratios over
    all subspace representatives V of :func:`_twisted_minors` (0 among them
    when a numerator vanishes, though no eta^(-1) is 0).  The code is MRD iff
    eta^(-1) avoids the set, which holds Omega_1 (:func:`omega_one`) as a
    subset.
    """
    n = len(alpha)
    if tower.points_rank(alpha) != n:
        raise SpecInvariantError("alpha components must be F_q-independent")
    if not 0 <= h <= k - 1 or not 0 <= t <= n - k - 1:
        raise SpecInvariantError("need 0 <= h <= k-1 and 0 <= t <= n-k-1")
    out = ForbiddenSet(arity=1, provenance="one-twist-minor-ratio")
    for Vs, dens, (nums,) in _twisted_minors(tower, alpha, k, h, (t,), budgets):
        etas = tower.neg_many(tower.mul_many(nums, tower.inv_many(dens)))
        # the first row of each eta value in the block, in row order
        _, first = np.unique(etas, return_index=True)
        for i in np.sort(first):
            out.entries.setdefault((int(etas[i]),), Vs[i].tolist())
    return out


def _dot(tower: FieldTower, xs, ys, start=0):
    """start + sum_l xs[l] * ys[l], over the shorter of xs and ys."""
    return functools.reduce(tower.add_many, map(tower.mul_many, xs, ys), start)


class KSubsetTable:
    """The k-subsets of the evaluation points with their subspace polynomials.

    Built once per (tower, alpha, k), for all subsets at once: subsets are
    listed in lexicographic order next to the annihilator coefficients of
    {alpha_i : i in I}, and the column of g_h^(t)(I) over all subsets is
    computed the first time (h, t) is asked for.  Every Omega route reads its
    scalars from here, and :meth:`vanishing_many` is the one vanishing-minor
    mask: a stack of eta tuples at once, whose first True per row is the
    Omega witness of that spec.
    """

    def __init__(
        self, tower: FieldTower, alpha: Sequence[Element], k: int, budgets: Budgets = Budgets()
    ):
        n = len(alpha)
        if tower.points_rank(alpha) != n:
            raise SpecInvariantError("alpha components must be F_q-independent")
        check_budget("k-subset", comb(n, k), budgets.subspaces)
        self.tower, self.n, self.k, self.budgets = tower, n, k, budgets
        self.subsets = list(combinations(range(n), k))
        tw, b = tower, np.asarray(alpha)[np.array(self.subsets, dtype=int)]
        # the scalar ``annihilator``: L = x (low-to-high, subsets last), then
        # L <- x^[1] o L - v^(q-1) L, v = L(b), per b of the subset
        L = np.eye(k + 1, 1, dtype=np.int64).repeat(len(b), 1)
        for j in range(k):
            v = _dot(tw, L, [tw.frob_many(b[:, j], i) for i in range(j + 1)])
            if (v == 0).any():
                raise ConsistencyError("a k-subset of alpha is F_q-dependent")
            w = tw.mul_many(tw.frob_many(v), tw.inv_many(v))
            up = np.concatenate([0 * L[:1], tw.frob_many(L[:-1])])
            L = tw.add_many(up, tw.neg_many(tw.mul_many(w, L)))
        self.coeffs = L[::-1].T
        self._g = {}

    def g(self, h: int, t: int) -> np.ndarray:
        """g_h^(t)(I) for every subset I, in subset order, by the recursion
        and the A_t E = I check of ``gcoeff.triangular_inverse``."""
        if (h, t) not in self._g:
            tw, k = self.tower, self.k
            if not 0 <= h < k:
                raise ValueError(f"h = {h} out of range [0, {k - 1}]")
            c = np.concatenate([self.coeffs, np.zeros((len(self.coeffs), t), np.int64)], 1)
            A, E = np.zeros((2, t + 1, t + 1, len(c)), dtype=np.int64)
            for i in range(t + 1):
                A[i, : i + 1] = tw.frob_many(c[:, i::-1].T, i)  # c_(i-j)^[i]
                E[i, :i] = tw.neg_many(_dot(tw, A[i, :i], E[:i, :i]))
                E[i, i] = 1
            if (_dot(tw, A.swapaxes(0, 1)[:, :, None], E) != np.eye(t + 1)[..., None]).any():
                raise ConsistencyError("triangular inverse recursion failed A_t * E = I")
            g = _dot(tw, E[t], [tw.frob_many(c[:, k - h + i], i) for i in range(min(t, h) + 1)])
            self._g[h, t] = tw.neg_many(g)
        return self._g[h, t]

    def vanishing_many(self, h: int, ts: Sequence[int], etas) -> np.ndarray:
        """(S, C) mask of 1 + sum_j eta_j g_h^(t_j)(I) = 0 (a vanishing
        maximal minor) for an (S, len(ts)) array of eta tuples."""
        etas = np.asarray(etas, dtype=np.int64)
        acc = np.ones((len(etas), len(self.subsets)), dtype=np.int64)
        return _dot(self.tower, etas.T[..., None], [self.g(h, t) for t in ts], acc) == 0


def omega_one(table: KSubsetTable, h: int, t: int) -> ForbiddenSet:
    """The set of -g_h^(t)(I) over all k-subsets I; eta^(-1) inside => not MRD."""
    out = ForbiddenSet(arity=1, provenance="omega1")
    for subset, g in zip(table.subsets, table.tower.neg_many(table.g(h, t)).tolist()):
        out.entries.setdefault((g,), list(subset))
    return out


def omega_one_prime(table: KSubsetTable, h: int) -> ForbiddenSet:
    """The t = 0 specialization, stored as the annihilator coefficients c_(k-h).

    Elementwise equal to omega_one(table, h, 0) because g_h^(0) = -c_(k-h); the
    equality is asserted here, subset by subset, as a permanent cross-check.
    """
    c = table.coeffs[:, table.k - h]
    if (c != table.tower.neg_many(table.g(h, 0))).any():
        raise ConsistencyError("omega1(t=0) differs from omega1-prime")
    out = ForbiddenSet(arity=1, provenance="omega1-prime")
    for subset, ci in zip(table.subsets, c.tolist()):
        out.entries.setdefault((ci,), list(subset))
    return out


def forbidden_sets_one_twist(spec: CodeSpec, budgets: Budgets = Budgets()) -> dict:
    """The forbidden sets of a one-twist spec by report name: "ratio_set"
    (:func:`forbidden_eta_set_one_twist`), "omega_one" and, at t = 0,
    "omega_one_prime", all of eta^(-1).

    The ratio set is built before the k-subset table, so a run over both caps
    names the subspaces cap.  Every value of Omega_1 must lie in the ratio set
    (a k-subset I is the coordinate subspace V = I); the first one outside it,
    in value order, raises ConsistencyError.
    """
    if spec.ell != 1:
        raise SpecInvariantError("one-twist forbidden sets need exactly one twist")
    tower, (t, _) = spec.tower, spec.twists[0]
    ratio = forbidden_eta_set_one_twist(tower, spec.alpha, spec.k, spec.h, t, budgets)
    table = KSubsetTable(tower, spec.alpha, spec.k, budgets)
    sets = {"ratio_set": ratio, "omega_one": omega_one(table, spec.h, t)}
    if t == 0:
        sets["omega_one_prime"] = omega_one_prime(table, spec.h)
    stray = min(sets["omega_one"].values() - ratio.values(), default=None)
    if stray is not None:
        raise ConsistencyError(f"Omega_1 value {tower.elements_to_json(stray[0])} (k-subset "
                               f"{sets['omega_one'].entries[stray]}) is outside the ratio set")
    return sets


def omega_witness(spec: CodeSpec, budgets: Budgets = Budgets()) -> Optional[tuple[int, ...]]:
    """First k-subset I (lexicographic) with 1 + sum_j eta_j g_h^(t_j)(I) = 0.

    A witness certifies a vanishing maximal minor, hence a non-MRD code; None
    proves nothing by itself (the theorems are one-directional).  The subsets
    whose scalars vanish must be those whose k x k column minor of G does (one
    ``det_many`` over all C(n, k)); any other answer raises ConsistencyError.
    """
    if not spec.twists:
        return None
    table = KSubsetTable(spec.tower, spec.alpha, spec.k, budgets)
    ts, etas = zip(*spec.twists)
    mask = table.vanishing_many(spec.h, ts, [etas])[0]
    G = codes.generator_matrix(spec)[None]
    differ = mask != (spec.tower.det_many(codes._column_stack(G, (spec.k,))) == 0)
    if differ.any():
        raise ConsistencyError(f"Omega scalars and column minors of G disagree on whether the "
                               f"minor of k-subset {list(table.subsets[differ.argmax()])} vanishes")
    return table.subsets[mask.argmax()] if mask.any() else None


def omega_two_materialize(table: KSubsetTable, h: int, t1: int, t2: int) -> ForbiddenSet:
    """Exhaustive materialization of the two-twist forbidden set (tiny fields only)."""
    tower = table.tower
    check_budget("eta-pair", (tower.order - 1) ** 2, table.budgets.subspaces)
    out = ForbiddenSet(arity=2, provenance="omega2")
    pairs = np.argwhere(np.ones((tower.order - 1,) * 2)) + 1
    for step in moore.blocks(len(pairs), len(table.subsets)):
        mask = table.vanishing_many(h, (t1, t2), pairs[step])
        for i in np.flatnonzero(mask.any(axis=1)):
            out.entries[tuple(pairs[step][i].tolist())] = list(table.subsets[mask[i].argmax()])
    return out


def mrd_membership_multi(
    spec: CodeSpec, budgets: Budgets = Budgets()
) -> tuple[bool, Optional[list]]:
    """MRD test via |V M_k^T| + sum_j eta_j |V M_k^(h,k+t_j)^T| != 0 over all V.

    Returns (verdict, violating V as a nested list or None).  Agrees with the
    subspace criterion because the sum is the expansion of |V G^T| along the
    twisted row; the minors come from :func:`_twisted_minors`.
    """
    t, ts = spec.tower, [tj for tj, _ in spec.twists]
    etas = [ej for _, ej in spec.twists]
    for Vs, dens, nums in _twisted_minors(t, spec.alpha, spec.k, spec.h, ts, budgets):
        zero = np.flatnonzero(_dot(t, etas, nums, dens) == 0)
        if len(zero):
            return False, Vs[zero[0]].tolist()
    return True, None


@dataclass(frozen=True)
class SubfieldChain:
    """Subfield data of one guaranteed-MRD construction, in one of three modes.

    "nested": degrees (s_1, ..., s_l) with q < q^(s_1) < ... < q^m a strict
    chain of subfields and eta_i in F_(q^(s_(i+1))) minus F_(q^(s_i)).
    "scalar": a single degree s; etas holds eta_1, outside F_(q^s), then the
    multipliers b_i in F_(q^s)^* that define eta_i = b_i eta_1.
    "sum-product-free": a single degree s and etas 1-sum-product free over
    F_(q^s).
    """

    mode: str
    degrees: tuple[int, ...]
    etas: tuple[Element, ...]

    @classmethod
    def nested(cls, degrees: Sequence[int], etas: Sequence[Element]) -> "SubfieldChain":
        return cls("nested", tuple(degrees), tuple(etas))

    @classmethod
    def scalar_multiple(
        cls, s: int, eta1: Element, multipliers: Sequence[Element]
    ) -> "SubfieldChain":
        return cls("scalar", (s,), (eta1, *multipliers))

    @classmethod
    def sum_product_free(cls, s: int, etas: Sequence[Element]) -> "SubfieldChain":
        return cls("sum-product-free", (s,), tuple(etas))


def construct_chain_mrd(
    tower: FieldTower,
    chain: SubfieldChain,
    alpha: Sequence[Element],
    k: int,
    h: int,
    ts: Sequence[int],
    budgets: Budgets = Budgets(),
) -> tuple[CodeSpec, bool]:
    """The CodeSpec that ``chain`` guarantees to be MRD, and whether it was
    re-verified; the one construction route of every mode.

    Checks the hypotheses of every mode (a non-empty chain, proper subfield
    degrees of m, n <= s_1, alpha inside F_(q^(s_1)), one twist exponent per
    eta), then those of the chain's mode, naming the failing level; alpha's
    independence is left to ``CodeSpec``, whose invariants are checked before
    the sum-product test.  The spec is re-verified by
    :func:`mrd_membership_multi` exactly when [n, k]_q fits the subspaces cap.
    """
    ts = tuple(int(x) for x in ts)
    n, degrees, etas = len(alpha), chain.degrees, list(chain.etas)
    if not degrees or not etas:
        raise SpecInvariantError(f"{chain.mode} mode needs non-empty degrees and etas")
    if chain.mode != "nested" and len(degrees) != 1:
        raise SpecInvariantError(f"{chain.mode} mode needs exactly one degree")
    for lvl, s in enumerate(degrees, start=1):
        if not 1 < s < tower.m or tower.m % s != 0:
            raise SpecInvariantError(
                f"s_{lvl} = {s} is not a proper intermediate subfield degree of m = {tower.m}"
            )
    s1 = degrees[0]
    if n > s1:
        raise SpecInvariantError(f"need n <= s_1, got n={n}, s_1={s1}")
    for i, a in enumerate(alpha):
        if not tower.subfield_membership(a, s1):
            raise SpecInvariantError(f"alpha[{i}] is not in F_(q^{s1})")
    if len(ts) != len(etas):
        raise SpecInvariantError("need one twist exponent per eta")

    if chain.mode == "nested":
        if len(etas) != len(degrees):
            raise SpecInvariantError("need one eta per chain level")
        for i in range(len(degrees) - 1):
            if degrees[i + 1] % degrees[i] != 0 or degrees[i + 1] <= degrees[i]:
                raise SpecInvariantError(
                    f"degrees must form a strict divisor chain (level {i + 1})"
                )
        for i, (eta, s_i, s_next) in enumerate(zip(etas, degrees, [*degrees[1:], tower.m]), 1):
            if not tower.subfield_membership(eta, s_next):
                raise SpecInvariantError(f"eta_{i} is not in F_(q^{s_next}) (level {i})")
            if tower.subfield_membership(eta, s_i):
                raise SpecInvariantError(f"eta_{i} lies in F_(q^{s_i}) (level {i})")
    elif chain.mode == "scalar":
        eta1 = etas[0]
        if tower.subfield_membership(eta1, s1):
            raise SpecInvariantError("eta_1 must lie outside F_(q^s) (level 1)")
        for i, b in enumerate(etas[1:], start=2):
            if b == 0 or not tower.subfield_membership(b, s1):
                raise SpecInvariantError(
                    f"multiplier b_{i} must be a non-zero element of F_(q^{s1}) (level {i})"
                )
        etas = [eta1] + [tower.mul(b, eta1) for b in etas[1:]]
    elif chain.mode != "sum-product-free":
        raise SpecInvariantError(f"unknown construction mode {chain.mode!r}")

    # the spec's invariants (l <= n - k among them) before the sum-product test
    spec = CodeSpec(tower, tuple(alpha), k, h, tuple(zip(ts, etas)))
    if chain.mode == "sum-product-free" and not sum_product_free_test(tower, etas, s1):
        raise SpecInvariantError(f"etas are not 1-sum-product free over F_(q^{s1})")
    verified = gaussian_binomial(n, k, tower.q) <= budgets.subspaces
    if verified:
        ok, vio = mrd_membership_multi(spec, budgets)
        if not ok:
            raise ConsistencyError(
                f"construction claimed MRD but V = {vio} violates the criterion"
            )
    return spec, verified


def sum_product_free_test(tower: FieldTower, etas: Sequence[Element], s: int) -> bool:
    """1-sum-product-freeness of `etas` over the subfield F_(q^s), which the
    MRD constructions need: no F_(q^s)-linear combination of the etas lies in
    F_(q^s)^*.

    The combinations form an F_(q^s)-space W, which meets F_(q^s)^* iff it
    holds 1 (divide by the value it meets).  As an F_q-space W is spanned by
    beta^i * eta for i < s and every eta, where beta generates F_(q^s)^*; so
    the etas are free iff adding 1 raises that F_q rank.
    """
    if s < 1 or tower.m % s != 0:
        raise ValueError("s must be a positive divisor of m")
    beta = tower.pow_(tower.generator, (tower.order - 1) // (tower.q**s - 1))
    basis = [tower.pow_(beta, i) for i in range(s)]
    span = [tower.mul(b, eta) for eta in etas for b in basis]
    return tower.fq_rank([*span, tower.one]) > tower.fq_rank(span)


def norm_mrd_condition(spec: CodeSpec) -> bool:
    """Norm-based sufficient MRD condition for a single twist at t = 0:
    h = 0 and N(eta) != (-1)^(mk).  For h > 0 the condition asks that
    N(f_0) != (-1)^(mk) N(eta) N(f_h) for all non-zero f_0, f_h, which never
    holds since norms surject onto F_q^*.  True is sufficient for MRD, never
    necessary.
    """
    if spec.ell != 1 or spec.twists[0][0] != 0:
        raise SpecInvariantError("norm condition applies to a single twist with t = 0")
    t = spec.tower
    sign = t.one if (t.m * spec.k) % 2 == 0 else t.neg(t.one)
    return spec.h == 0 and t.norm(spec.twists[0][1]) != sign


@dataclass
class HammingClassification:
    """Theorem-route Hamming verdict with its certificate.

    label is one of "MDS", "NMDS", "AMDS", "none".  vanishing_subset is the
    first k-subset with a vanishing minor (None for MDS); failing_superset is
    the (k+1)-subset all of whose k-subsets vanish (only for "none").
    """

    label: str
    vanishing_subset: Optional[tuple[int, ...]] = None
    failing_superset: Optional[tuple[int, ...]] = None

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "vanishing_subset": list(self.vanishing_subset)
            if self.vanishing_subset is not None
            else None,
            "failing_superset": list(self.failing_superset)
            if self.failing_superset is not None
            else None,
        }


def hamming_class_many(
    table: KSubsetTable, cases: Sequence[tuple[int, Sequence[tuple[int, Element]]]]
) -> list[HammingClassification]:
    """MDS/AMDS/NMDS classification through the forbidden-set theorems, per
    (h, twists) of a stack.

    MDS iff no k-subset minor vanishes.  Inside the forbidden set, AMDS iff
    every (k+1)-subset contains a k-subset with non-vanishing minor, upgraded
    to NMDS when h is 0 or k-1.  "none" means the Hamming distance is below
    n-k.  :func:`classify_many` checks the verdict against the enumeration.
    """
    n, k = table.n, table.k
    check_budget("k-subset", comb(n, k) + comb(n, k + 1), table.budgets.subspaces)
    at = {s: i for i, s in enumerate(table.subsets)}
    sups = [*combinations(range(n), k + 1), None]
    cover = np.array([[at[s] for s in combinations(u, k)] for u in sups[:-1]], np.int64)
    groups = {}
    for i, (h, twists) in enumerate(cases):
        groups.setdefault((h, *(t for t, _ in twists)), []).append(i)
    out = [None] * len(cases)
    subsets = [*table.subsets, None]
    for (h, *ts), idx in groups.items():
        van = table.vanishing_many(h, ts, [[eta for _, eta in cases[i][1]] for i in idx])
        # a row's first True: its count of leading False (else the closing None)
        first = (~van).cumprod(1).sum(1).tolist()
        fail = (~van[:, cover.reshape(-1, k + 1)].all(2)).cumprod(1).sum(1).tolist()
        for i, a, b in zip(idx, first, fail):
            label = "none" if sups[b] else "NMDS" if h in (0, k - 1) else "AMDS"
            out[i] = HammingClassification(label if subsets[a] else "MDS", subsets[a], sups[b])
    return out


def hamming_class_via_omega(spec: CodeSpec, budgets: Budgets = Budgets()) -> HammingClassification:
    """:func:`hamming_class_many` of one spec, on the k-subset table of its
    alpha and k."""
    table = KSubsetTable(spec.tower, spec.alpha, spec.k, budgets)
    return hamming_class_many(table, [(spec.h, spec.twists)])[0]


def classify_many(
    specs: Sequence[CodeSpec], budgets: Budgets = Budgets()
) -> list[tuple[codes.DistanceReport, bool, HammingClassification]]:
    """Per spec of a stack (one tower, alpha and k), the enumeration's report,
    the subspace verdict and the Omega Hamming class, every route cross-checked.

    Each route runs once over the stack, in this order: the k-subset table,
    ``codes.min_rank_distance_many``, ``codes.nmds_conditions_many``,
    :func:`_subspace_criterion_stack`, :func:`hamming_class_many`.  On
    every spec the column ranks must give the enumeration's MDS/AMDS/NMDS
    flags, the subspace criterion its MRD flag, an Omega witness a non-MRD
    code, and the enumeration the Omega label (AMDS as AMDS only: NMDS is out
    of the theorems' reach for middle h).  The first spec, in stack order,
    whose routes disagree raises ConsistencyError.  An empty stack gets an
    empty list.
    """
    specs = list(specs)
    if not specs:
        return []
    Gs = codes._generator_stack(specs)
    tower, alpha, k = specs[0].tower, specs[0].alpha, specs[0].k
    if any(s.alpha != alpha for s in specs):
        raise ValueError("the specs of a stack must share alpha: it fixes the k-subset table")
    table = KSubsetTable(tower, alpha, k, budgets)
    reports = codes._min_rank_distance_stack(specs, Gs, budgets)
    conditions = codes.nmds_conditions_many(tower, Gs).tolist()
    subspace = _subspace_criterion_stack(tower, Gs, budgets).tolist()
    hclasses = hamming_class_many(table, [(s.h, s.twists) for s in specs])
    for spec, rep, (i, ii, iii), subspace_mrd, hclass in zip(
        specs, reports, conditions, subspace, hclasses
    ):
        witness = hclass.vanishing_subset
        ranks = (not ii, ii and iii, i and ii and iii) == (rep.is_mds, rep.is_amds, rep.is_nmds)
        mrd = subspace_mrd == rep.is_mrd and (witness is None or not rep.is_mrd)
        labels = {"MDS": rep.is_mds, "AMDS": rep.is_amds, "NMDS": rep.is_nmds}
        hamming = labels.get(hclass.label, not (rep.is_mds or rep.is_amds))  # "none"
        if not (ranks and mrd and hamming):
            raise ConsistencyError(
                f"route disagreement for spec {spec.to_json_dict()}: "
                f"enumeration={rep.to_json_dict(tower)}, subspace_mrd={subspace_mrd}, "
                f"omega_witness={witness}, hamming_class={hclass.label}, "
                f"column_ranks={(i, ii, iii)}"
            )
    return list(zip(reports, subspace, hclasses))


def classify(spec: CodeSpec, budgets: Budgets = Budgets()) -> codes.DistanceReport:
    """The enumeration's report of one code, all four routes cross-checked:
    the stack of one of :func:`classify_many`."""
    return classify_many([spec], budgets)[0][0]
