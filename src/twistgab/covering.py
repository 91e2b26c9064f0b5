"""Covering radii and deep holes in the rank metric.

The exhaustive covering radius visits coset leaders in increasing rank weight,
since a vector's distance to the code is the least rank weight in its coset.
A vector of rank w is a.B for exactly one w x n RREF matrix B over F_q (its row
space, from ``mrdcheck._subspace_blocks``) and one ordered F_q-independent
w-tuple a of F_(q^m); its syndrome is sum_i a_i (H B_i^T).  Indices and
syndromes are packed base q^m.  Layer 1 is one table per walk, the packed
index and syndrome of c.b for every c of F_(q^m) and every RREF row b, built a
``moore.blocks`` step of c at a time.  Every row B_i of a later B is such a b,
so layer w forms a.B for every w-tuple a, its (w-1)-prefixes as
``moore.counter_blocks`` and its last coordinate every c of F_(q^m), as sums of
the table columns that a lookup from row code to column gives for the rows of
B.  rank(a.B) = dim span(a), so a dependent a gives a vector of rank r < w,
whose coset layer r has already reached with a smaller key.  Layers fold into
one int64 per coset, min(rank * q^(mn) + index), its minimum and first
minimum-weight vector, until every coset is reached.
Memory is O(``moore.BLOCK_ROWS`` + cosets) plus the table, 16 bytes for each
of its q^m * [n, 1]_q vectors, which the ambient cap admits before it is built,
and the q^n-entry lookup.
The whole-space scan, scalar ``fq_rank`` and H.u^T are the walk's test oracles.

The deep-hole routes take a stack U of vectors, one per row.  The distance
route (:func:`distance_to_code_many`) is independent of the walk: it builds
the codewords of all q^(mk) messages as ``moore.span_blocks``, adds every u
to each block and weighs the sums with ``fq_rank_many``, all in
``fieldtower.ELEMENT_DTYPE`` (uint16) words, while the walk's packed keys and
every table stay int64;
its codeword cap counts len(U) * q^(mk) (:func:`check_distance_budget`).
A stack U passes ``fieldtower.element_array`` (an empty stack may have any
dtype): a float or bool entry is refused, never truncated, as is a float g or
coefficient of f in :func:`deep_hole_family`.  The
extension route (:func:`deep_hole_via_extension_many`) is the subspace
criterion on the stack of every [G; u], ``mrdcheck.matrix_is_mrd_many``.
Neither route calls the other, and each one-vector function is its route on
the stack of one.  :func:`is_deep_hole_many` is the one site of the rule by
which they must agree: on a one-twist t = 0 spec, every row outside the code
goes through both routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Optional, Sequence

import numpy as np

from . import moore
from .budget import Budgets, check_budget
from .codes import CodeSpec, encode, generator_matrix, parity_check_matrix
from .errors import BudgetExceededError, ConsistencyError, SpecInvariantError
from .fieldtower import ELEMENT_DTYPE, Element, FieldTower, element_array
from .mrdcheck import _subspace_blocks, gaussian_binomial, matrix_is_mrd_many


@dataclass
class CoveringReport:
    """Covering radius with per-number provenance and a deep-hole sample."""

    n: int
    k: int
    rho: Optional[int]
    rho_method: Optional[str]  # "exhaustive" or None when only bounds are known
    lower_bound: int
    upper_bound: int
    bounds_method: str  # "theorem-bound"
    deep_holes: list[tuple[Element, ...]] = field(default_factory=list)
    maximal_coset_count: Optional[int] = None
    coset_count: Optional[int] = None

    def __post_init__(self):
        if self.rho is not None and not self.lower_bound <= self.rho <= self.upper_bound:
            raise ConsistencyError(
                f"exhaustive rho = {self.rho} violates theorem bounds "
                f"[{self.lower_bound}, {self.upper_bound}]"
            )

    def to_json_dict(self, tower: FieldTower) -> dict:
        def tagged(value, method):
            return {"value": value, "method": method}

        return {
            "n": self.n,
            "k": self.k,
            "rho": tagged(self.rho, self.rho_method) if self.rho is not None else None,
            "lower_bound": tagged(self.lower_bound, self.bounds_method),
            "upper_bound": tagged(self.upper_bound, self.bounds_method),
            "deep_holes": tower.elements_to_json(self.deep_holes),
            "maximal_coset_count": self.maximal_coset_count,
            "coset_count": self.coset_count,
        }


def _vectors(spec: CodeSpec, U) -> np.ndarray:
    """U as an (S, n) int64 array, once each row is known to be a vector of
    F_(q^m)^n: entries by ``fieldtower.element_array``, rows of length n."""
    V = element_array(spec.tower, U, "u")
    if V.ndim != 2 or V.shape[1] != spec.n:
        raise ValueError(f"u must have length n = {spec.n}")
    return V


def _extended(G: np.ndarray, U: np.ndarray) -> np.ndarray:
    """The stack of the matrices [G; u], one per row u of U."""
    return np.concatenate([np.broadcast_to(G, (len(U), *G.shape)), U[:, None]], axis=1)


def contains_many(spec: CodeSpec, U) -> np.ndarray:
    """Per row u of U, True iff u lies in the code's row space: its syndrome
    H u^T is 0, H the spec's basis of the dual (``codes.parity_check_matrix``)."""
    U, H = _vectors(spec, U), parity_check_matrix(spec)
    return ~moore.matmul(spec.tower, U, H.T).any(axis=1)


def contains(spec: CodeSpec, u: Sequence[Element]) -> bool:
    """True iff u lies in the code's row space: :func:`contains_many` of one vector."""
    return bool(contains_many(spec, [u])[0])


def check_distance_budget(spec: CodeSpec, vectors: int, budgets: Budgets) -> None:
    """The codeword cap of the distance route: q^(mk) codewords for each of
    ``vectors`` vectors."""
    check_budget("codeword", vectors * spec.tower.order**spec.k, budgets.codewords)


def distance_to_code_many(spec: CodeSpec, U, budgets: Budgets = Budgets()) -> np.ndarray:
    """Per row u of U, the exact min over all q^(mk) codewords c of the rank
    weight of u + c; the codeword budget counts len(U) * q^(mk).

    The codewords come as ``moore.span_blocks`` of one segment, every message
    coordinate counting base q^m, n rows of codeword components at a time;
    every codeword of a block is added to the vectors u of each
    ``moore.blocks`` step, in ``ELEMENT_DTYPE`` words.  It stops once every
    distance is 0.
    """
    U, t, n, k = _vectors(spec, U).astype(ELEMENT_DTYPE), spec.tower, spec.n, spec.k
    check_distance_budget(spec, len(U), budgets)
    G, best = generator_matrix(spec), np.full(len(U), n)
    for (words,) in moore.span_blocks(t, G[:, None], [((), range(k))]):
        if not best.any():
            break
        items = words.shape[1]
        for step in moore.blocks(len(U), items):
            sums = t.add_many(U[step].T[:, :, None], words[:, None])
            ranks = t.fq_rank_many(sums.reshape(n, -1)).reshape(-1, items)
            best[step] = np.minimum(best[step], ranks.min(axis=1))
    return best


def distance_to_code(spec: CodeSpec, u: Sequence[Element], budgets: Budgets = Budgets()) -> int:
    """:func:`distance_to_code_many` of one vector."""
    return int(distance_to_code_many(spec, [u], budgets)[0])


def covering_bounds(spec: CodeSpec) -> tuple[int, int]:
    """Theorem bounds on the covering radius.

    Contiguous twist exponents (0, 1, ..., l-1) give
    n-k-l+1 <= rho <= n-k (exact n-k for a single twist at 0); anything else
    gets the generic 0 <= rho <= n-k.
    """
    n, k = spec.n, spec.k
    ts = tuple(tj for tj, _ in spec.twists)
    if ts and ts == tuple(range(len(ts))):
        return max(0, n - k - len(ts) + 1), n - k
    return 0, n - k


def _layer_size(q: int, m: int, n: int, w: int) -> int:
    """Vectors of F_(q^m)^n of rank weight w: [n, w]_q row spaces, each with
    every ordered F_q-independent w-tuple of F_(q^m)."""
    return gaussian_binomial(n, w, q) * prod(q**m - q**i for i in range(w))


def _walk(spec: CodeSpec, budgets: Budgets) -> Optional[np.ndarray]:
    """Per coset, min(rank * q^(mn) + index) over its vectors; None if the cosets,
    the vectors visited or the packed key do not fit.  The cap counts the vectors
    of rank w (:func:`_layer_size`); layer w forms all [n, w]_q * q^(mw) sums a.B,
    fewer than 3.47 times as many.  Layer w runs only after every layer below it,
    so a sum of rank < w (a dependent tuple a) never wins its coset.  Layer 1
    is the table of c * b over every c and every row b of ``_subspace_blocks(n,
    1, q)``; layer w > 1 gathers the table's columns for the rows of each w x n
    block B and sums them over the prefixes."""
    t, n, k, N, q = spec.tower, spec.n, spec.k, spec.tower.order, spec.tower.q
    total, coset_count = N**n, N ** (n - k)
    unreached = (n + 1) * total
    if unreached > np.iinfo(np.int64).max or coset_count > budgets.ambient:
        return None
    H = parity_check_matrix(spec)
    places = N ** np.arange(n, dtype=np.int64)  # component j of an index
    synd_places = N ** np.arange(n - k - 1, -1, -1, dtype=np.int64)  # entry r of a syndrome
    row_codes = q ** np.arange(n, dtype=np.int64)  # a digit row's code base q
    best = np.full(coset_count, unreached, dtype=np.int64)
    best[0], visited = 0, 1  # layer 0: the zero vector
    for w in range(1, min(n, t.m) + 1):
        if (best < unreached).all():
            break
        visited, formed = visited + _layer_size(q, t.m, n, w), 0
        if visited > budgets.ambient:
            return None
        if w == 1:
            # layer 1 is the table: packed index and syndrome of c * b per c
            # and RREF row b, built and folded a step of c at a time
            rows = np.concatenate(list(_subspace_blocks(n, 1, q)))[:, 0]
            row_syn = moore.matmul(t, rows, H.T)
            idx1 = np.empty((N, len(rows)), dtype=np.int64)
            syn1 = np.empty_like(idx1)
            for cs in moore.blocks(N, len(rows) * n):
                c = np.arange(cs.start, cs.stop)[:, None, None]
                idx1[cs] = t.mul_many(c, rows) @ places
                syn1[cs] = t.mul_many(c, row_syn) @ synd_places
                np.minimum.at(best, syn1[cs].ravel(), idx1[cs].ravel() + total)
            formed = idx1.size
            column = np.zeros(q**n, dtype=np.int64)  # a row's code -> its table column
            column[rows @ row_codes] = np.arange(len(rows))
        else:
            # each B is a row of q^m vectors c * B, each prefix a row of q^m * len(B)
            blocks = _subspace_blocks(n, w, q)
            for B in (blk[step] for blk in blocks for step in moore.blocks(len(blk), N)):
                # packed index and syndrome of c * B_i, per c, B and i: B_i is a row b
                cols = column[B @ row_codes]
                idx_tab, syn_tab = idx1[:, cols], syn1[:, cols]
                prefixes = moore.counter_blocks((w - 1,), [((), range(w - 1))], N)
                width = N * len(B)
                for tuples in (pre[s] for pre in prefixes for s in moore.blocks(len(pre), width)):
                    idx = syn = np.zeros((len(tuples), len(B)), dtype=np.int64)
                    for i, a in enumerate(tuples.T):
                        idx = t.add_many(idx, idx_tab[a, :, i], n)
                        syn = t.add_many(syn, syn_tab[a, :, i], n - k)
                    idx = t.add_many(idx[:, :, None], idx_tab[:, :, w - 1].T, n) + w * total
                    syn = t.add_many(syn[:, :, None], syn_tab[:, :, w - 1].T, n - k)
                    np.minimum.at(best, syn.ravel(), idx.ravel())
                    formed += idx.size
        if formed != gaussian_binomial(n, w, q) * N**w:
            raise ConsistencyError(
                f"the rank-{w} layer formed {formed} sums, not [{n}, {w}]_{q} * {N}^{w}"
            )
    if not (best < unreached).all():
        raise ConsistencyError("syndromes do not cover the q^(m(n-k)) cosets")
    return best


# deep holes listed per report, to keep reports small
MAX_DEEP_HOLES = 16


def covering_radius_exhaustive(spec: CodeSpec, budgets: Budgets = Budgets()) -> CoveringReport:
    """Exact covering radius by coset leaders in increasing rank weight.

    Reported deep holes are coset leaders (minimum-weight vectors of maximal
    cosets) in ascending vector order, capped at ``MAX_DEEP_HOLES``.  If the
    walk does not fit the ambient budget the report carries theorem bounds only.
    """
    t = spec.tower
    n, k = spec.n, spec.k
    lo, hi = covering_bounds(spec)
    best = _walk(spec, budgets)
    if best is None:
        return CoveringReport(
            n=n, k=k, rho=None, rho_method=None,
            lower_bound=lo, upper_bound=hi, bounds_method="theorem-bound",
        )
    total = t.order**n
    coset_min = best // total
    rho = int(coset_min.max())
    leaders = best[coset_min == rho] % total
    # the MAX_DEEP_HOLES smallest leaders, ascending, without sorting the rest
    kth = min(MAX_DEEP_HOLES, len(leaders)) - 1
    smallest = np.sort(np.partition(leaders, kth)[:MAX_DEEP_HOLES])
    # a leader's index packs its n components base q^m, component 0 lowest
    holes = smallest[:, None] // t.order ** np.arange(n) % t.order
    return CoveringReport(
        n=n, k=k, rho=rho, rho_method="exhaustive",
        lower_bound=lo, upper_bound=hi, bounds_method="theorem-bound",
        deep_holes=list(map(tuple, holes.tolist())),
        maximal_coset_count=len(leaders),
        coset_count=len(best),
    )


def is_deep_hole_many(spec: CodeSpec, U, report: Optional[CoveringReport] = None,
                      budgets: Budgets = Budgets()) -> np.ndarray:
    """Per row u of U, True iff the distance from u to the code equals the covering
    radius.  An empty stack gets an empty verdict array under any report;
    otherwise the radius is walked for only when no report is given, and a
    bounds-only report raises at once.

    This is the one site where the deep-hole routes must agree.  For a spec in
    the one-twist t = 0 family, every row outside the code (by
    :func:`contains_many`) also goes through
    :func:`deep_hole_via_extension_many`, and the first row, in stack order, on
    which the extension and distance routes differ raises ConsistencyError.
    """
    U = _vectors(spec, U)
    if not len(U):
        return np.zeros(0, dtype=bool)
    if report is None:
        report = covering_radius_exhaustive(spec, budgets)
    if report.rho is None:
        raise BudgetExceededError(
            "covering radius unknown: ambient space too large for brute force"
        )
    deep = distance_to_code_many(spec, U, budgets) == report.rho
    if in_one_twist_t0_family(spec):
        outside = np.flatnonzero(~contains_many(spec, U))
        differ = outside[deep_hole_via_extension_many(spec, U[outside], budgets) != deep[outside]]
        if len(differ):
            u = U[differ[0]].tolist()
            raise ConsistencyError(f"extension route and distance route disagree on u = {u}")
    return deep


def is_deep_hole(spec: CodeSpec, u: Sequence[Element], report: Optional[CoveringReport] = None,
                 budgets: Budgets = Budgets()) -> bool:
    """:func:`is_deep_hole_many` of one vector."""
    return bool(is_deep_hole_many(spec, [u], report, budgets)[0])


FAMILY_REFUSAL = "deep-hole families are defined for one twist with t = 0"


def in_one_twist_t0_family(spec: CodeSpec) -> bool:
    """Whether spec has one twist, at t = 0: the codes the deep-hole routes know."""
    return spec.ell == 1 and spec.twists[0][0] == 0


def deep_hole_via_extension_many(spec: CodeSpec, U, budgets: Budgets = Budgets()) -> np.ndarray:
    """Per row u of U, the deep-hole test for the one-twist t = 0 family: by the
    extension theorem, u is a deep hole iff [G; u] is MRD, which
    ``mrdcheck.matrix_is_mrd_many`` decides for the stack of every [G; u] in
    one subspace walk.
    """
    U = _vectors(spec, U)
    if not in_one_twist_t0_family(spec):
        raise SpecInvariantError("extension test applies to a single twist with t = 0")
    if contains_many(spec, U).any():
        raise SpecInvariantError("u lies in the code; the extension would be degenerate")
    return matrix_is_mrd_many(spec.tower, _extended(generator_matrix(spec), U), budgets)


def deep_hole_via_extension(spec: CodeSpec, u: Sequence[Element],
                            budgets: Budgets = Budgets()) -> bool:
    """:func:`deep_hole_via_extension_many` of one vector."""
    return bool(deep_hole_via_extension_many(spec, [u], budgets)[0])


def deep_hole_family(
    spec: CodeSpec,
    g: Element,
    flavor: str,
    f_coeffs: Sequence[Element] = (),
) -> np.ndarray:
    """Evaluation vector of g * x^[k] + f(x) (or g * x^[h] + f(x)), f in the twist family.

    Both families are guaranteed deep holes of the single-twist t = 0 code;
    flavor is "x^[k]" or "x^[h]".
    """
    if not in_one_twist_t0_family(spec):
        raise SpecInvariantError(FAMILY_REFUSAL)
    g, *f_coeffs = element_array(spec.tower, [g, *f_coeffs], "g and f").tolist()
    if g == 0:
        raise SpecInvariantError("g must be non-zero (g = 0 would land in the code)")
    if flavor not in ("x^[k]", "x^[h]"):
        raise ValueError("flavor must be 'x^[k]' or 'x^[h]'")
    t = spec.tower
    f_coeffs = f_coeffs or [0] * spec.k
    if len(f_coeffs) != spec.k:
        raise ValueError(f"f needs {spec.k} coefficients")
    exponent = spec.k if flavor == "x^[k]" else spec.h
    a = np.asarray(spec.alpha, dtype=np.int64)
    u = t.mul_many(g, t.frob_many(a, exponent))
    return t.add_many(u, encode(spec, f_coeffs))
